"""Explainer interface.

An explainer attributes a scalar model output (the stress probability)
to the SLIC segments of the most-expressive frame.  The model is a
black box reached only through ``predict_fn(frame) -> float`` -- the
explainers never see weights, which is the premise of the paper's
efficiency comparison (each perturbation costs a full model call).

The black box may additionally expose a vectorized ``batch`` method
(:class:`BatchPredictFn`); explainers submit their perturbations
through :func:`predict_batch`, which uses the vectorized path when
present and falls back to a per-frame loop otherwise, so plain
callables keep working unchanged.  Explainers never build their whole
``(N, H, W)`` perturbation stack: they render and score it at most
``_CHUNK_ROWS`` rows at a time (``_predict_chunked``), which keeps
every perturbation a full frame the black box scores while holding
one chunk of frames in memory instead of ~1,000.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import ExplainerError

#: A black-box prediction function over (possibly perturbed) frames.
PredictFn = Callable[[np.ndarray], float]


class BatchPredictFn:
    """A black box with both a single-frame and a vectorized path.

    Calling it on one ``(H, W)`` frame returns a float, so it is a
    drop-in :data:`PredictFn`; :meth:`batch` scores a ``(N, H, W)``
    stack in one vectorized call.  Explainers reach both through
    :func:`predict_batch` and never need to know which they got.
    """

    def __init__(self, single: PredictFn,
                 batch: Callable[[np.ndarray], np.ndarray]):
        self._single = single
        self._batch = batch

    def __call__(self, frame: np.ndarray) -> float:
        return float(self._single(frame))

    def batch(self, frames: np.ndarray) -> np.ndarray:
        return np.asarray(self._batch(frames), dtype=np.float64)


def predict_batch(predict_fn: PredictFn, frames: np.ndarray) -> np.ndarray:
    """Evaluate ``predict_fn`` on a ``(N, H, W)`` frame stack.

    Uses the black box's vectorized ``batch`` method when it has one;
    otherwise loops frame-by-frame (the single-frame fallback adapter,
    so any plain callable remains a valid black box).  Returns a
    float64 vector of length ``N``.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3:
        raise ExplainerError(
            f"expected a (N, H, W) frame stack, got shape {frames.shape}"
        )
    batch = getattr(predict_fn, "batch", None)
    if batch is not None:
        out = np.asarray(batch(frames), dtype=np.float64)
        if out.shape != (len(frames),):
            raise ExplainerError(
                f"batch predict returned shape {out.shape}, "
                f"expected ({len(frames)},)"
            )
        return out
    return np.array([float(predict_fn(frame)) for frame in frames])


#: Most perturbations rendered and scored per black-box call.  128 rows
#: of a 96x96 frame are ~9 MB of float64, against ~74 MB for a
#: 1,000-row stack; on 2 vCPUs chunks of 64--256 rows attributed
#: fastest (LIME at 1,000 rows: 29 ms, 51 ms in one pass).
_CHUNK_ROWS = 128


def _predict_chunked(predict_fn: PredictFn, masks: np.ndarray,
                     render: Callable[[np.ndarray], np.ndarray]
                     ) -> np.ndarray:
    """Score the frames ``render`` makes of the rows of ``masks``.

    Each row of ``masks`` is one perturbation: a row of a ``(N, S)``
    keep or design matrix, or the occlusion explainer's blanked
    segment id.  At most :data:`_CHUNK_ROWS` rows are rendered and
    scored at a time and the predictions concatenated, so only one
    chunk of frames is ever alive.  A one-row remainder joins the
    chunk before it: on one row the trunk's GEMM becomes a GEMV, which
    rounds differently from the stacked product.  With that rule the
    chunked predictions equalled one pass bit for bit at every budget
    measured (129--259 and 998--1,056 rows);
    ``tests/test_golden_explain.py`` pins the paper's budgets.
    """
    starts = list(range(0, len(masks), _CHUNK_ROWS))
    if len(starts) > 1 and len(masks) - starts[-1] == 1:
        starts.pop()
    stops = starts[1:] + [len(masks)]
    return np.concatenate([
        predict_batch(predict_fn, render(masks[start:stop]))
        for start, stop in zip(starts, stops)
    ])


@dataclass(frozen=True)
class SegmentAttribution:
    """Per-segment attribution scores plus bookkeeping."""

    scores: np.ndarray
    num_evaluations: int
    explainer: str

    def ranking(self) -> list[int]:
        """Segment ids sorted by descending attribution."""
        return [int(i) for i in np.argsort(-self.scores, kind="stable")]

    def top_k(self, k: int) -> list[int]:
        return self.ranking()[:k]


class Explainer(ABC):
    """Base class for perturbation explainers."""

    name: str = "explainer"

    @abstractmethod
    def attribute(self, frame: np.ndarray, labels: np.ndarray,
                  predict_fn: PredictFn, seed: int = 0) -> SegmentAttribution:
        """Attribute ``predict_fn``'s output on ``frame`` to segments.

        Parameters
        ----------
        frame:
            The clean most-expressive frame.
        labels:
            SLIC segment label map.
        predict_fn:
            Black-box model probability on a perturbed frame.
        seed:
            Perturbation-sampling seed.
        """

    @staticmethod
    def _num_segments(labels: np.ndarray) -> int:
        num = int(labels.max()) + 1
        if num < 2:
            raise ExplainerError("need at least 2 segments to attribute")
        return num
