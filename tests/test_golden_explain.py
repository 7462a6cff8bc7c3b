"""Golden regression fixtures for the post-hoc explainers.

The Fig. 6 / Table II loop scores ~1,000 perturbed frames per sample
through the batched black box.  This suite pins its numbers bit for
bit in ``tests/golden/explain_golden.json``:

* SHA-256 digests of the attribution ``scores`` (and the evaluation
  count) of LIME, KernelSHAP, SOBOL, RISE and Occlusion at their
  paper budgets on three UVSD samples with 64 SLIC segments;
* LIME at 129 samples, a budget whose rows do not split evenly into
  model calls, so a change in how the stack is cut into calls shows;
* the deletion-metric result for the rationale ranker and for a LIME
  explainer ranker over the same samples.

Any change to a perturbation render, a mask draw, the order in which
rows reach the model or the arithmetic that scores them fails here
with the name of the drifted case.

Regenerating after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_golden_explain.py --update-golden

then review the fixture diff like any other code change.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.datasets.uvsd import generate_uvsd
from repro.explainers import (
    KernelShapExplainer,
    LimeExplainer,
    OcclusionExplainer,
    RiseExplainer,
    SobolExplainer,
)
from repro.explainers.evaluation import (
    chain_predict_fn,
    deletion_metric,
    explainer_ranker,
    rationale_ranker,
)
from repro.model.foundation import FoundationModel
from repro.rng import derive_seed, make_rng

GOLDEN_PATH = Path(__file__).parent / "golden" / "explain_golden.json"

NUM_SEGMENTS = 64
NUM_SAMPLES = 3

#: Pinned explainers; ``lime-129`` leaves a one-row remainder.
EXPLAINERS = {
    "lime": lambda: LimeExplainer(num_samples=1000),
    "lime-129": lambda: LimeExplainer(num_samples=129),
    "shap": lambda: KernelShapExplainer(num_samples=998),
    "sobol": lambda: SobolExplainer(num_designs=16),
    "rise": lambda: RiseExplainer(num_samples=1000),
    "occlusion": OcclusionExplainer,
}


def _sha(array: np.ndarray) -> str:
    digest = hashlib.sha256(f"{array.dtype}{array.shape}".encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _setup():
    samples = generate_uvsd(0, num_samples=160,
                            num_subjects=16).samples[:NUM_SAMPLES]
    model = FoundationModel(make_rng(123, "golden-explain-model"))
    return StressChainPipeline(model), samples


def compute_attributions() -> dict[str, dict]:
    pipeline, samples = _setup()
    digests = {}
    for sample in samples:
        expressive, __ = sample.video.keyframes
        labels = sample.video.segmentation(NUM_SEGMENTS)
        predict_fn = chain_predict_fn(pipeline, sample)
        seed = derive_seed(0, f"golden-explain:{sample.sample_id}")
        for name, build in EXPLAINERS.items():
            attribution = build().attribute(expressive, labels, predict_fn,
                                            seed=seed)
            digests[f"{sample.sample_id}/{name}"] = {
                "num_evaluations": attribution.num_evaluations,
                "scores": _sha(attribution.scores),
            }
    return digests


def compute_deletion() -> dict[str, dict]:
    pipeline, samples = _setup()
    rankers = {
        "rationale": rationale_ranker(pipeline),
        "lime": explainer_ranker(LimeExplainer(num_samples=1000), seed=3),
    }
    results = {}
    for name, ranker in rankers.items():
        result = deletion_metric(
            samples, ranker, lambda s: chain_predict_fn(pipeline, s),
            num_segments=NUM_SEGMENTS, seed=5,
        )
        results[name] = {
            "base_accuracy": result.base_accuracy,
            "accuracy_after": {str(k): v
                               for k, v in result.accuracy_after.items()},
            "num_samples": result.num_samples,
        }
    return results


def compute_golden() -> dict:
    return {"attributions": compute_attributions(),
            "deletion": compute_deletion()}


def _diff(recorded: dict, current: dict) -> list[str]:
    drifted = []
    for section in ("attributions", "deletion"):
        assert list(recorded[section]) == list(current[section]), (
            f"golden {section} case set changed; regenerate with "
            "--update-golden and review the diff"
        )
        for case, want in recorded[section].items():
            for field, value in want.items():
                if current[section][case][field] != value:
                    drifted.append(f"{section}/{case}: {field}")
    return drifted


def test_explainers_match_golden(update_golden):
    current = compute_golden()
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(current, indent=2) + "\n")
        pytest.skip(f"golden fixtures regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        "golden fixture missing; regenerate with "
        "`python -m pytest tests/test_golden_explain.py --update-golden`"
    )
    drifted = _diff(json.loads(GOLDEN_PATH.read_text()), current)
    assert not drifted, f"explainers drifted: {drifted}"
