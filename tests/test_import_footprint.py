"""What importing the library loads.

Serving processes, and every replica they fork, inherit whatever the
parent imported.  ``scipy.stats`` (tens of MB resident) is needed only by
the SOBOL explainer's quasi-Monte-Carlo sampler, so it loads when a
:class:`~repro.explainers.SobolExplainer` is built, never at import.
Each check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> None:
    subprocess.run([sys.executable, "-c", code],
                   env={**os.environ, "PYTHONPATH": SRC}, check=True,
                   timeout=120)


def test_importing_the_library_does_not_load_scipy_stats():
    # Nor the persistence layer: a process replica's child imports it
    # only when a swap asks it to load an artifact.
    _run("import sys\n"
         "import repro, repro.serving, repro.explainers\n"
         "assert 'scipy.stats' not in sys.modules\n"
         "assert 'repro.model.persistence' not in sys.modules\n")


def test_building_a_sobol_explainer_loads_scipy_stats():
    _run("import sys\n"
         "from repro.explainers import SobolExplainer\n"
         "assert 'scipy.stats' not in sys.modules\n"
         "SobolExplainer()\n"
         "assert 'scipy.stats' in sys.modules\n")
