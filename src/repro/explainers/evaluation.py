"""The top-k deletion metric (paper Table II / IV / VI protocol).

Section IV-H: "we employ the SLIC algorithm to segment f_e into 64
segments, and place gaussian noise on the top scoring segments
highlighted by each method ... evaluating the drop of model accuracy
after disturbing the Top-1, Top-2, and Top-3 scoring segments."

A *ranker* maps one sample to its ranked segment list -- either from a
post-hoc explainer's attributions or from the model's own highlighted
rationale grounded through facial landmarks.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cot.chain import StressChainPipeline
from repro.datasets.base import Sample
from repro.errors import ExplainerError
from repro.explainers.base import (
    BatchPredictFn,
    Explainer,
    PredictFn,
    predict_batch,
)
from repro.rng import derive_seed, make_rng
from repro.video.perturb import gaussian_perturb_segments

#: A ranker: (sample, expressive_frame, segment_labels, predict_fn,
#: base_prob) -> ranked segment ids (best first).  ``base_prob`` is the
#: model's probability on the clean frame, which the deletion metric
#: has already computed -- rankers reuse it instead of re-querying.
Ranker = Callable[[Sample, np.ndarray, np.ndarray, PredictFn, float],
                  list[int]]


@dataclass(frozen=True)
class DeletionResult:
    """Outcome of one deletion-metric run."""

    base_accuracy: float
    accuracy_after: dict[int, float]
    num_samples: int

    @property
    def drops(self) -> dict[int, float]:
        """Accuracy drop per k (the numbers Table II reports)."""
        return {
            k: self.base_accuracy - acc
            for k, acc in self.accuracy_after.items()
        }


def chain_predict_fn(pipeline: StressChainPipeline,
                     sample: Sample) -> BatchPredictFn:
    """Black-box over the full chain: perturbed expressive frame ->
    re-describe -> assess.  The neutral keyframe stays clean (only
    ``f_e`` is segmented and perturbed in the paper's protocol).

    The returned black box carries both the single-frame path and the
    vectorized ``batch`` path, so explainers score their perturbations
    a bounded chunk of frames per call rather than one frame per call.
    """
    __, neutral = sample.video.keyframes
    model = pipeline.model

    return BatchPredictFn(
        single=lambda frame: model.chain_prob_from_frames(frame, neutral),
        batch=lambda frames: model.chain_prob_from_frames_batch(frames,
                                                                neutral),
    )


def explainer_ranker(explainer: Explainer, seed: int = 0) -> Ranker:
    """Wrap a post-hoc explainer as a deletion-metric ranker.

    Attribution signs are normalised so the ranking always orders
    segments by support *for the model's decision* (for an unstressed
    prediction, evidence against stress is what gets perturbed).
    """

    def rank(sample: Sample, frame: np.ndarray, labels: np.ndarray,
             predict_fn: PredictFn, base_prob: float) -> list[int]:
        attribution = explainer.attribute(
            frame, labels, predict_fn,
            seed=derive_seed(seed, f"attr:{sample.sample_id}"),
        )
        scores = attribution.scores
        if base_prob < 0.5:
            scores = -scores
        return [int(i) for i in np.argsort(-scores, kind="stable")]

    return rank


def rationale_ranker(pipeline: StressChainPipeline) -> Ranker:
    """Rank segments by the model's own highlighted rationale.

    Highlighted actions are grounded to segments through the facial
    landmarks; if the rationale grounds to fewer than three segments,
    the per-AU segment expansion is widened so Top-3 perturbation is
    well-defined.
    """

    def rank(sample: Sample, frame: np.ndarray, labels: np.ndarray,
             predict_fn: PredictFn, base_prob: float) -> list[int]:
        result = pipeline.predict(sample.video)
        for per_au in (1, 2, 3):
            ranking = result.rationale.model_segment_ranking(
                pipeline.model, labels, per_au=per_au
            )
            if len(ranking) >= 3:
                return ranking
        return ranking

    return rank


def deletion_metric(
    samples: Sequence[Sample],
    ranker: Ranker,
    predict_fn_factory: Callable[[Sample], PredictFn],
    ks: tuple[int, ...] = (1, 2, 3),
    num_segments: int = 64,
    noise_scale: float = 0.35,
    seed: int = 0,
) -> DeletionResult:
    """Run the deletion metric over ``samples``.

    For every sample: segment ``f_e`` with SLIC, rank segments with
    ``ranker``, then for each ``k`` perturb the top-k segments with
    Gaussian noise and re-query the model.  Accuracy is measured
    against the ground-truth stress labels before and after.
    """
    if not samples:
        raise ExplainerError("deletion metric needs at least one sample")
    base_hits = 0
    hits_after = {k: 0 for k in ks}
    for sample in samples:
        expressive, __ = sample.video.keyframes
        labels = sample.video.segmentation(num_segments)
        predict_fn = predict_fn_factory(sample)
        base_prob = float(predict_fn(expressive))
        base_pred = int(base_prob > 0.5)
        base_hits += int(base_pred == sample.label)
        ranking = ranker(sample, expressive, labels, predict_fn, base_prob)
        if not ranking:
            # Nothing highlighted: perturbation is a no-op.
            for k in ks:
                hits_after[k] += int(base_pred == sample.label)
            continue
        rng = make_rng(seed, f"deletion:{sample.sample_id}")
        # One batched model pass over all top-k perturbations of this
        # sample (noise draws stay sequential in k, preserving the
        # serial path's RNG stream bit-for-bit).
        perturbed = np.stack([
            gaussian_perturb_segments(
                expressive, labels, ranking[:k], rng,
                noise_scale=noise_scale,
            )
            for k in ks
        ])
        preds = predict_batch(predict_fn, perturbed) > 0.5
        for k, pred in zip(ks, preds):
            hits_after[k] += int(int(pred) == sample.label)
    count = len(samples)
    return DeletionResult(
        base_accuracy=base_hits / count,
        accuracy_after={k: hits / count for k, hits in hits_after.items()},
        num_samples=count,
    )
