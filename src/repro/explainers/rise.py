"""RISE (Petsiuk et al., BMVC 2018): randomized input sampling.

An additional perturbation comparator beyond the paper's three: RISE
estimates saliency as the expected model output conditioned on a
segment being *visible* under random binary masks,

    S_i = E[ f(x * M) | M_i = 1 ] - E[ f(x * M) ],

which needs no regression solve and is robust to correlated segments.
Included as an extension baseline for the deletion-metric harness.
"""

from __future__ import annotations

import numpy as np

from repro.explainers.base import (
    Explainer,
    PredictFn,
    SegmentAttribution,
    _predict_chunked,
)
from repro.rng import make_rng
from repro.video.perturb import apply_masks_batch


class RiseExplainer(Explainer):
    """Saliency by randomized masking.

    Parameters
    ----------
    num_samples:
        Number of random masks (= black-box calls).
    keep_prob:
        Probability a segment stays visible in a mask.
    """

    name = "RISE"

    def __init__(self, num_samples: int = 1000, keep_prob: float = 0.5):
        if num_samples < 8:
            raise ValueError("num_samples must be at least 8")
        if not 0.0 < keep_prob < 1.0:
            raise ValueError("keep_prob must lie strictly in (0, 1)")
        self.num_samples = num_samples
        self.keep_prob = keep_prob

    def attribute(self, frame: np.ndarray, labels: np.ndarray,
                  predict_fn: PredictFn, seed: int = 0) -> SegmentAttribution:
        num_segments = self._num_segments(labels)
        rng = make_rng(seed, "rise")
        masks = (rng.random((self.num_samples, num_segments))
                 < self.keep_prob).astype(np.float64)
        predictions = _predict_chunked(
            predict_fn, masks,
            lambda chunk: apply_masks_batch(frame, labels, chunk),
        )
        mean_output = predictions.mean()
        visible_counts = masks.sum(axis=0)
        visible_counts[visible_counts == 0] = 1.0
        conditional = (masks * predictions[:, np.newaxis]).sum(axis=0) \
            / visible_counts
        return SegmentAttribution(
            scores=conditional - mean_output,
            num_evaluations=self.num_samples,
            explainer=self.name,
        )
