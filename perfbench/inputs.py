"""Seeded inputs and parameters of the four benchmark workloads.

Everything the program under test receives is made here from the
``--seed`` argument: clip specs, the Zipf catalogue and its draw
sequence, and the UVSD samples the explain loop walks.  The model's
weights are part of the program, not of the input, so they come from
a fixed seed that no workload varies.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.datasets.uvsd import generate_uvsd
from repro.rng import derive_seed, make_rng
from repro.video.frame import VideoSpec

#: Seed of the served model's weights (fixed: cost does not depend on
#: the weights, and every seed must measure the same program).
MODEL_SEED = 0

#: Share of ``--seconds`` given to the open-loop phase; the rest is the
#: saturation phase.
OPEN_SHARE = 0.5

#: Requests the saturation generator keeps in flight.  Below the
#: default ``ServiceConfig.max_queue_depth`` (256), so no request is
#: refused by design.
IN_FLIGHT = 64

#: Fewest open-loop requests per run, so at least ten latency samples
#: lie beyond p99.
MIN_OPEN_REQUESTS = 1000

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Upper bound on the saturation rate the pre-generated cold stream
#: can feed (several times today's measured rate).  A phase that runs
#: out of inputs ends early and is timed over what it sent.
MAX_SATURATION_RPS = 6000.0

#: The same bound for the Zipf draw sequence (draws are only indices).
MAX_ZIPF_RPS = 100000.0

#: Workload parameters, recorded with every result.
WORKLOADS: dict[str, dict] = {
    "cold": {
        "entry": "StressService(default ServiceConfig)",
        "stream": "cold", "open_rate_rps": 200.0,
        "loop": "open loop at the fixed rate, then saturation",
    },
    "zipf": {
        "entry": "StressService(default ServiceConfig)",
        "stream": "zipf", "open_rate_rps": 1000.0,
        "catalogue": 4096, "zipf_s": 1.1,
        "loop": "open loop at the fixed rate, then saturation",
    },
    "cold-pool2": {
        "entry": "ReplicaPool(num_replicas=2, backend='process')",
        "stream": "cold", "open_rate_rps": 200.0,
        "loop": "open loop at the fixed rate, then saturation",
    },
    "explain": {
        "entry": "StressChainPipeline.predict + SLIC + LIME/SHAP/SOBOL "
                 "+ rationale deletion metric",
        "stream": "uvsd", "num_segments": 64,
        "lime_samples": 1000, "shap_samples": 998, "sobol_designs": 16,
        "loop": "closed loop, one sample at a time",
    },
}


def phase_windows(seconds: float, open_rate: float) -> tuple[float, float]:
    """(open-loop seconds, saturation seconds) for one run."""
    open_s = max(OPEN_SHARE * seconds, MIN_OPEN_REQUESTS / open_rate)
    return open_s, max(seconds - OPEN_SHARE * seconds, 1.0)


def clip_specs(seed: int, count: int, tag: str) -> list[VideoSpec]:
    """``count`` distinct clip specs for ``seed``.

    Each spec reuses the AU curves and identity of a ``generate_uvsd``
    sample but carries its own ``video_id`` and render seed, so its
    pixels -- and its content hash -- are new.
    """
    base = [sample.video.spec for sample in generate_uvsd(seed)]
    return [
        dataclasses.replace(base[i % len(base)], video_id=f"{tag}-{i}",
                            seed=derive_seed(seed, f"{tag}:{i}"))
        for i in range(count)
    ]


def zipf_draws(seed: int, catalogue: int, s: float, count: int) -> np.ndarray:
    """``count`` catalogue indices drawn from a finite Zipf(s) law."""
    weights = np.arange(1, catalogue + 1, dtype=np.float64) ** -s
    rng = make_rng(seed, "perfbench.zipf")
    return rng.choice(catalogue, size=count, p=weights / weights.sum())
