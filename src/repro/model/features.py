"""Pixel feature extraction for the foundation model.

The model's visual input is the keyframe pair ``(f_e, f_l)`` (most and
least expressive frame, Section IV-H).  Features are patch means over
both the expressive frame and the frame *difference* -- the difference
cancels identity/lighting and isolates expression evidence, mirroring
what the first convolutional stages of a video encoder learn.  The map
from patches to the model's embedding is learned, so this module only
performs the fixed patchification.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError

#: Patch grid side; a 96x96 frame becomes a 12x12 grid of 8x8 patches.
PATCH_GRID: int = 12


def patch_means(frame: np.ndarray, grid: int = PATCH_GRID) -> np.ndarray:
    """Mean intensity of each patch, flattened to ``(grid*grid,)``."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise ModelError(f"expected 2-D frame, got shape {frame.shape}")
    height, width = frame.shape
    if height % grid or width % grid:
        raise ModelError(
            f"frame shape {frame.shape} not divisible into a {grid}x{grid} grid"
        )
    ph, pw = height // grid, width // grid
    patches = frame.reshape(grid, ph, grid, pw)
    return patches.mean(axis=(1, 3)).ravel()


#: Affine rescaling applied to patch means so the learned trunk sees
#: roughly unit-scale inputs (patch means live in a narrow band around
#: mid-gray; the AU-driven variation is a fraction of that).
_FEATURE_GAIN: float = 4.0


def keyframe_features(expressive: np.ndarray, neutral: np.ndarray,
                      grid: int = PATCH_GRID) -> np.ndarray:
    """Feature vector for a keyframe pair: rescaled patch means of
    ``f_e`` and of the difference ``f_e - f_l``, concatenated."""
    if expressive.shape != neutral.shape:
        raise ModelError("keyframes must have identical shapes")
    expressive_means = patch_means(expressive, grid)
    neutral_means = patch_means(neutral, grid)
    return np.concatenate([
        (expressive_means - 0.5) * _FEATURE_GAIN,
        (expressive_means - neutral_means) * _FEATURE_GAIN,
    ])


def patch_means_batch(frames: np.ndarray,
                      grid: int = PATCH_GRID) -> np.ndarray:
    """Per-frame patch means for a ``(N, H, W)`` frame stack.

    One reshape-and-reduce over the whole stack; row ``i`` equals
    ``patch_means(frames[i], grid)``.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3:
        raise ModelError(
            f"expected a (N, H, W) frame stack, got shape {frames.shape}"
        )
    num, height, width = frames.shape
    if height % grid or width % grid:
        raise ModelError(
            f"frame shape {frames.shape[1:]} not divisible into a "
            f"{grid}x{grid} grid"
        )
    ph, pw = height // grid, width // grid
    patches = frames.reshape(num, grid, ph, grid, pw)
    return patches.mean(axis=(2, 4)).reshape(num, grid * grid)


def keyframe_features_batch(expressive: np.ndarray, neutral: np.ndarray,
                            grid: int = PATCH_GRID) -> np.ndarray:
    """Feature matrix for a stack of (possibly perturbed) expressive
    frames against one clean neutral frame, shape ``(N, feature_dim)``.

    Row ``i`` equals ``keyframe_features(expressive[i], neutral, grid)``;
    this is the vectorized entry point the batched prediction engine
    uses to score each chunk of up to ~128 explainer perturbations in
    one NumPy pass.
    """
    expressive = np.asarray(expressive, dtype=np.float64)
    if expressive.ndim != 3:
        raise ModelError(
            f"expected a (N, H, W) frame stack, got shape {expressive.shape}"
        )
    if expressive.shape[1:] != neutral.shape:
        raise ModelError("keyframes must have identical shapes")
    expressive_means = patch_means_batch(expressive, grid)
    neutral_means = patch_means(neutral, grid)
    return np.concatenate([
        (expressive_means - 0.5) * _FEATURE_GAIN,
        (expressive_means - neutral_means[np.newaxis, :]) * _FEATURE_GAIN,
    ], axis=1)


def feature_dim(grid: int = PATCH_GRID) -> int:
    """Dimensionality of :func:`keyframe_features` output."""
    return 2 * grid * grid


def video_features(video, grid: int = PATCH_GRID) -> np.ndarray:
    """Convenience: features of a :class:`~repro.video.frame.Video`."""
    expressive, neutral = video.keyframes
    return keyframe_features(expressive, neutral, grid)
