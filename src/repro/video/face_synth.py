"""Parametric synthetic face renderer.

The renderer turns a :class:`~repro.video.frame.VideoSpec` plus a frame
index into a ``(H, W)`` grayscale image.  Its one essential property
(DESIGN.md section 2) is that *action-unit evidence is spatially
localised*: each AU contributes a fixed smooth deformation pattern
confined to that AU's facial region, scaled by the per-frame intensity
and the subject's expressivity.  Masking a region therefore genuinely
removes the corresponding AU's evidence, which is what makes the
deletion-metric faithfulness protocol (paper Table II) and the
rationale mosaic test (Section III-D) behave as they do on real video.

The "physics" of the synthetic world -- the base face, identity bases
and AU deformation patterns -- are generated once from a fixed world
seed that is deliberately *not* configurable: every dataset and model
in the library shares the same visual world.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.facs.action_units import AU_IDS, NUM_AUS
from repro.facs.regions import FRAME_SIZE, REGIONS, region_for_au
from repro.rng import make_rng
from repro.video.frame import IDENTITY_DIM, VideoSpec

#: Seed of the shared visual world (base face, AU patterns).
_WORLD_SEED: int = 727

#: Peak contribution of a fully-active AU, in intensity units.
_AU_GAIN: float = 0.38

#: Peak contribution of the identity embedding.
_IDENTITY_GAIN: float = 0.06


def _smooth_pattern(rng: np.random.Generator, shape: tuple[int, int],
                    sigma: float) -> np.ndarray:
    """A zero-mean, unit-peak smooth random pattern."""
    raw = rng.standard_normal(shape)
    smooth = gaussian_filter(raw, sigma=sigma)
    smooth -= smooth.mean()
    peak = np.abs(smooth).max()
    if peak > 0:
        smooth /= peak
    return smooth


def _base_face(size: int) -> np.ndarray:
    """Canonical neutral face: an elliptical face blob with darker
    eye/brow/mouth zones, on a mid-gray background."""
    rows, cols = np.mgrid[0:size, 0:size].astype(np.float64)
    center_r, center_c = size * 0.52, size * 0.5
    face = ((rows - center_r) / (size * 0.46)) ** 2 + (
        (cols - center_c) / (size * 0.38)
    ) ** 2
    image = np.full((size, size), 0.25)
    image[face <= 1.0] = 0.75
    scale = size / FRAME_SIZE
    for key in ("eyebrow", "lid", "lips"):
        region = REGIONS[key]
        mask = region.mask(size)
        image[mask] -= 0.18
    # Slight nose shading.
    image[REGIONS["nose"].mask(size)] -= 0.08
    return gaussian_filter(image, sigma=1.2 * scale)


class FaceRenderer:
    """Renders video specs into grayscale frames.

    Parameters
    ----------
    frame_size:
        Side length of rendered frames (the paper resizes to 96).
    """

    def __init__(self, frame_size: int = FRAME_SIZE):
        if frame_size < 16:
            raise ValueError("frame_size must be at least 16 pixels")
        self.frame_size = frame_size
        world = make_rng(_WORLD_SEED, f"face-world-{frame_size}")
        self._base = _base_face(frame_size)
        sigma = 2.0 * frame_size / FRAME_SIZE
        # Identity bases: smooth whole-face appearance modes.
        self._identity_basis = np.stack([
            _smooth_pattern(world, (frame_size, frame_size), sigma * 2.5)
            for _ in range(IDENTITY_DIM)
        ])
        # AU deformation patterns: a smooth pattern concentrated in a
        # compact blob around the AU's landmark point inside its
        # region.  Compactness matters: on a real face each action
        # unit manifests at a localised landmark (inner brow, lip
        # corner, ...), which is what lets the paper ground one
        # highlighted action to one SLIC segment.
        self._au_patterns = np.zeros((NUM_AUS, frame_size, frame_size))
        self._au_anchors: dict[int, tuple[int, int]] = {}
        rows, cols = np.mgrid[0:frame_size, 0:frame_size].astype(np.float64)
        blob_sigma = 5.0 * frame_size / FRAME_SIZE
        for i, au_id in enumerate(AU_IDS):
            region = region_for_au(au_id)
            mask = region.mask(frame_size)
            scale_f = frame_size / FRAME_SIZE
            margin = 4 * scale_f
            anchor_r = world.uniform(region.row_start * scale_f + margin,
                                     region.row_stop * scale_f - margin)
            anchor_c = world.uniform(region.col_start * scale_f + margin,
                                     region.col_stop * scale_f - margin)
            self._au_anchors[au_id] = (int(anchor_r), int(anchor_c))
            window = np.exp(
                -((rows - anchor_r) ** 2 + (cols - anchor_c) ** 2)
                / (2.0 * blob_sigma**2)
            )
            pattern = _smooth_pattern(world, (frame_size, frame_size), sigma)
            pattern = pattern * window * mask
            peak = np.abs(pattern).max()
            if peak > 0:
                pattern /= peak
            self._au_patterns[i] = pattern
        # The bases flattened for one matrix-vector product each.
        self._identity_rows = self._identity_basis.reshape(IDENTITY_DIM, -1)
        self._au_rows = self._au_patterns.reshape(NUM_AUS, -1)
        self._gradient = np.linspace(-0.5, 0.5, self.frame_size)
        # One-entry memo of the per-clip ``base + identity`` term, keyed
        # by the spec's identity array object (a clip's keyframes render
        # back to back; specs are frozen, so the array is never written).
        # Swapped as one tuple, so a concurrent render of another clip
        # only ever sees a consistent (key, term) pair.
        self._appearance = (None, None)

    def __reduce__(self):
        # The world is a pure function of ``frame_size`` and the fixed
        # world seed, so a renderer crossing a process pipe travels as
        # a reference: the receiver reuses (or builds once) its own
        # shared renderer, whose arrays are bit-identical.
        return default_renderer, (self.frame_size,)

    # -- public API ----------------------------------------------------

    def render(self, spec: VideoSpec, frame_index: int) -> np.ndarray:
        """Render frame ``frame_index`` of ``spec`` as ``(H, W)`` float64
        in ``[0, 1]``."""
        if not 0 <= frame_index < spec.num_frames:
            raise IndexError(
                f"frame index {frame_index} out of range [0, {spec.num_frames})"
            )
        size = self.frame_size
        au_term = spec.au_intensities[frame_index] @ self._au_rows
        frame = self._appearance_of(spec.identity) + (
            _AU_GAIN * au_term).reshape(size, size)
        # Lighting gradient (left-to-right).
        if spec.lighting:
            frame += spec.lighting * self._gradient
        # Per-frame capture noise and occlusion, seeded by the spec.
        rng = make_rng(spec.seed, f"render:{spec.video_id}:{frame_index}")
        if spec.noise_scale > 0:
            frame += rng.normal(0.0, spec.noise_scale, frame.shape)
        if spec.occlusion_rate > 0 and rng.random() < spec.occlusion_rate:
            self._occlude(frame, rng)
        return np.clip(frame, 0.0, 1.0, out=frame)

    def au_pattern(self, au_id: int) -> np.ndarray:
        """The (read-only) deformation pattern of ``au_id``."""
        pattern = self._au_patterns[AU_IDS.index(au_id)]
        view = pattern.view()
        view.flags.writeable = False
        return view

    # -- internals -----------------------------------------------------

    def _appearance_of(self, identity: np.ndarray) -> np.ndarray:
        """The clip-constant ``base + identity`` term (never mutated)."""
        key, appearance = self._appearance
        if key is not identity:
            appearance = self._base + (
                _IDENTITY_GAIN * (identity @ self._identity_rows)
            ).reshape(self.frame_size, self.frame_size)
            self._appearance = (identity, appearance)
        return appearance

    def _occlude(self, frame: np.ndarray, rng: np.random.Generator) -> None:
        """Overlay a flat occluder patch (hand, microphone, caption bar)
        on ``frame`` in place."""
        size = self.frame_size
        height = int(rng.integers(size // 8, size // 4))
        width = int(rng.integers(size // 6, size // 3))
        row = int(rng.integers(0, size - height))
        col = int(rng.integers(0, size - width))
        frame[row:row + height, col:col + width] = 0.5


@lru_cache(maxsize=4)
def _shared_renderer(frame_size: int) -> FaceRenderer:
    return FaceRenderer(frame_size)


def default_renderer(frame_size: int = FRAME_SIZE) -> FaceRenderer:
    """The process-wide shared renderer for ``frame_size``.

    Sharing matters: AU patterns are the world's physics, and building
    them is the only expensive part of rendering.
    """
    return _shared_renderer(frame_size)
