"""Tests for Video / VideoSpec."""

import numpy as np
import pytest

from repro.video.frame import DEFAULT_NUM_FRAMES, IDENTITY_DIM, Video, VideoSpec


def _spec(**overrides):
    defaults = dict(
        video_id="v0",
        subject_id="s0",
        au_intensities=np.full((DEFAULT_NUM_FRAMES, 12), 0.3),
        identity=np.zeros(IDENTITY_DIM),
        seed=1,
    )
    defaults.update(overrides)
    return VideoSpec(**defaults)


class TestVideoSpec:
    def test_valid_construction(self):
        spec = _spec()
        assert spec.num_frames == DEFAULT_NUM_FRAMES

    def test_rejects_bad_au_shape(self):
        with pytest.raises(ValueError):
            _spec(au_intensities=np.zeros((12, 5)))

    def test_rejects_out_of_range_intensities(self):
        with pytest.raises(ValueError):
            _spec(au_intensities=np.full((12, 12), 1.5))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
        (-0.1, r"\[0, 1\]"), (1.5, r"\[0, 1\]"),
    ])
    def test_rejects_bad_intensity_values(self, bad, message):
        curves = np.full((12, 12), 0.3)
        curves[5, 7] = bad
        with pytest.raises(ValueError, match=f"au_intensities must .*{message}"):
            _spec(au_intensities=curves)

    def test_non_finite_wins_over_out_of_range(self):
        curves = np.full((12, 12), 0.3)
        curves[0, 0], curves[1, 1] = -0.5, np.nan
        with pytest.raises(ValueError, match="au_intensities must be finite"):
            _spec(au_intensities=curves)

    def test_boundary_intensities_and_coercion(self):
        curves = [[0.0] * 12, [1.0] * 12]
        spec = _spec(au_intensities=curves, identity=[0] * IDENTITY_DIM)
        assert spec.au_intensities.dtype == np.float64
        assert spec.identity.dtype == np.float64
        assert spec.num_frames == 2

    def test_accepts_zero_frame_intensities(self):
        assert _spec(au_intensities=np.zeros((0, 12))).num_frames == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_lighting(self, bad):
        with pytest.raises(ValueError, match="lighting must be finite"):
            _spec(lighting=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_noise(self, bad):
        with pytest.raises(ValueError, match="noise_scale must be finite"):
            _spec(noise_scale=bad)

    def test_rejects_bad_identity(self):
        with pytest.raises(ValueError):
            _spec(identity=np.zeros(3))

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            _spec(noise_scale=-0.1)

    def test_rejects_bad_occlusion_rate(self):
        with pytest.raises(ValueError):
            _spec(occlusion_rate=1.5)

    def test_mean_and_peak(self):
        curves = np.zeros((12, 12))
        curves[:, 0] = 0.8
        spec = _spec(au_intensities=curves)
        assert spec.mean_au_intensities()[0] == pytest.approx(0.8)
        peak = spec.peak_au_vector()
        assert peak[0] == 1.0 and peak[1:].sum() == 0


class TestVideo:
    def test_frames_deterministic(self):
        a = Video(_spec()).frame(0)
        b = Video(_spec()).frame(0)
        assert np.array_equal(a, b)

    def test_frame_range_checked(self):
        video = Video(_spec())
        with pytest.raises(IndexError):
            video.frame(99)

    def test_frames_stack(self):
        video = Video(_spec())
        frames = video.frames()
        assert frames.shape == (DEFAULT_NUM_FRAMES, 96, 96)
        assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_keyframes_cached_and_consistent(self):
        video = Video(_spec())
        fe1, fl1 = video.keyframes
        fe2, fl2 = video.keyframes
        assert fe1 is fe2 and fl1 is fl2

    def test_drop_cache_rerenders_identically(self):
        video = Video(_spec())
        before = video.frame(3).copy()
        video.drop_frame_cache()
        assert np.array_equal(before, video.frame(3))

    def test_segmentation_cached(self):
        video = Video(_spec())
        labels1 = video.segmentation(32)
        labels2 = video.segmentation(32)
        assert labels1 is labels2
        assert labels1.shape == (96, 96)
