"""LIME (Ribeiro et al., 2016) over SLIC superpixels.

For one instance, LIME samples binary keep/drop masks over the
segments, queries the black box on each masked frame, and fits a
locally-weighted ridge regression from masks to predictions; the
linear coefficients are the segment attributions.  Locality weights
use the standard exponential kernel on cosine distance between the
mask and the all-ones (unperturbed) instance.
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


class LimeExplainer(Explainer):
    """Perturbation-based local linear explainer.

    Parameters
    ----------
    num_samples:
        Number of black-box evaluations (the paper sets 1000).
    keep_prob:
        Probability a segment stays on in a perturbation.
    kernel_width:
        Width of the exponential locality kernel.
    ridge:
        L2 regularisation of the local linear model.
    """

    name = "LIME"

    def __init__(self, num_samples: int = 1000, keep_prob: float = 0.5,
                 kernel_width: float = 0.25, ridge: float = 1e-3):
        if num_samples < 8:
            raise ValueError("num_samples must be at least 8")
        if not 0.0 < keep_prob < 1.0:
            raise ValueError("keep_prob must lie strictly in (0, 1)")
        if not kernel_width > 0.0:
            raise ValueError("kernel_width must be positive")
        self.num_samples = num_samples
        self.keep_prob = keep_prob
        self.kernel_width = kernel_width
        self.ridge = ridge

    def attribute(self, frame: np.ndarray, labels: np.ndarray,
                  predict_fn: PredictFn, seed: int = 0) -> SegmentAttribution:
        num_segments = self._num_segments(labels)
        rng = make_rng(seed, "lime")
        masks = (rng.random((self.num_samples, num_segments))
                 < self.keep_prob).astype(np.float64)
        masks[0, :] = 1.0  # always include the unperturbed instance
        predictions = _predict_chunked(
            predict_fn, masks,
            lambda chunk: apply_masks_batch(frame, labels, chunk),
        )
        # Cosine distance to the all-ones mask -> locality weights.
        ones = np.ones(num_segments)
        norms = np.linalg.norm(masks, axis=1) * np.linalg.norm(ones)
        cosine = np.divide(masks @ ones, norms,
                           out=np.zeros(len(masks)), where=norms > 0)
        distance = 1.0 - cosine
        weights = np.exp(-(distance**2) / self.kernel_width**2)
        coefs = _weighted_ridge(masks, predictions, weights, self.ridge)
        return SegmentAttribution(
            scores=coefs, num_evaluations=self.num_samples, explainer=self.name
        )


def _weighted_ridge(design: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray, ridge: float) -> np.ndarray:
    """Weighted ridge regression with intercept; returns coefficients
    (without the intercept)."""
    augmented = np.column_stack([design, np.ones(len(design))])
    w_sqrt = np.sqrt(weights)
    a = augmented * w_sqrt[:, np.newaxis]
    b = targets * w_sqrt
    gram = a.T @ a + ridge * np.eye(augmented.shape[1])
    solution = np.linalg.solve(gram, a.T @ b)
    return solution[:-1]
