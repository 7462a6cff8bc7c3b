"""Single-segment occlusion attribution.

Not one of the paper's comparators, but the natural sanity baseline
for the deletion metric: each segment's attribution is the drop in the
model output when only that segment is blanked.  Costs exactly
``num_segments + 1`` evaluations.
"""

from __future__ import annotations

import numpy as np

from repro.explainers.base import (
    Explainer,
    PredictFn,
    SegmentAttribution,
    _predict_chunked,
)
from repro.video.perturb import zero_segments_batch


class OcclusionExplainer(Explainer):
    """Leave-one-segment-out attribution."""

    name = "Occlusion"

    def attribute(self, frame: np.ndarray, labels: np.ndarray,
                  predict_fn: PredictFn, seed: int = 0) -> SegmentAttribution:
        num_segments = self._num_segments(labels)
        # Row 0 blanks segment -1, i.e. nothing: the clean frame.  Row
        # 1 + s blanks segment s alone.
        outputs = _predict_chunked(
            predict_fn, np.arange(-1, num_segments),
            lambda chunk: zero_segments_batch(frame, labels, chunk),
        )
        base = float(outputs[0])
        scores = base - outputs[1:]
        # Attribution of evidence *for* the predicted class: flip sign
        # when the model predicts unstressed so "supports the decision"
        # is always positive.
        if base < 0.5:
            scores = -scores
        return SegmentAttribution(
            scores=scores, num_evaluations=num_segments + 1,
            explainer=self.name,
        )
