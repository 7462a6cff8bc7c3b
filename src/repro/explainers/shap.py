"""KernelSHAP (Lundberg & Lee, 2017) over SLIC superpixels.

KernelSHAP estimates Shapley values by sampling feature coalitions,
querying the black box on each, and solving a weighted least-squares
problem whose weights follow the Shapley kernel

    pi(z) = (M - 1) / ( C(M, |z|) * |z| * (M - |z|) ).

The efficiency constraint (attributions sum to ``f(x) - f(empty)``) is
enforced by eliminating one variable, as in the reference
implementation.
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


class KernelShapExplainer(Explainer):
    """Sampling-based Shapley value estimator.

    Parameters
    ----------
    num_samples:
        Coalition evaluations, excluding the two deterministic
        endpoints (empty and full coalitions); total black-box calls
        are ``num_samples + 2``.
    ridge:
        Regularisation of the weighted solve (numerical safety).
    """

    name = "SHAP"

    def __init__(self, num_samples: int = 998, ridge: float = 1e-6):
        if num_samples < 8:
            raise ValueError("num_samples must be at least 8")
        self.num_samples = num_samples
        self.ridge = ridge

    def attribute(self, frame: np.ndarray, labels: np.ndarray,
                  predict_fn: PredictFn, seed: int = 0) -> SegmentAttribution:
        num_segments = self._num_segments(labels)
        rng = make_rng(seed, "kernelshap")

        # Coalition sizes are drawn proportionally to the Shapley
        # kernel's size profile 1 / (s * (M - s)).
        sizes = np.arange(1, num_segments)
        size_weights = 1.0 / (sizes * (num_segments - sizes))
        size_probs = size_weights / size_weights.sum()
        masks = np.zeros((self.num_samples, num_segments))
        for i in range(self.num_samples):
            size = int(rng.choice(sizes, p=size_probs))
            on = rng.choice(num_segments, size=size, replace=False)
            masks[i, on] = 1.0

        # The two deterministic endpoints lead the sampled coalitions
        # through the same chunked scoring pass.
        endpoints = np.vstack([np.zeros(num_segments), np.ones(num_segments)])
        outputs = _predict_chunked(
            predict_fn, np.vstack([endpoints, masks]),
            lambda chunk: apply_masks_batch(frame, labels, chunk),
        )
        base, full = float(outputs[0]), float(outputs[1])
        predictions = outputs[2:]

        coalition_sizes = masks.sum(axis=1).astype(int)
        kernel = (num_segments - 1) / (
            _binom(num_segments, coalition_sizes)
            * coalition_sizes * (num_segments - coalition_sizes)
        )

        # Enforce efficiency by eliminating the last feature:
        # phi_last = (full - base) - sum(phi_others).
        targets = predictions - base - masks[:, -1] * (full - base)
        design = masks[:, :-1] - masks[:, [-1]]
        w_sqrt = np.sqrt(kernel)
        a = design * w_sqrt[:, np.newaxis]
        b = targets * w_sqrt
        gram = a.T @ a + self.ridge * np.eye(design.shape[1])
        phi_rest = np.linalg.solve(gram, a.T @ b)
        phi_last = (full - base) - phi_rest.sum()
        scores = np.concatenate([phi_rest, [phi_last]])
        return SegmentAttribution(
            scores=scores,
            num_evaluations=self.num_samples + 2,
            explainer=self.name,
        )


def _binom(n: int, k: np.ndarray) -> np.ndarray:
    """Binomial coefficients C(n, k) for an integer array ``k``."""
    from scipy.special import comb

    return comb(n, k, exact=False)
