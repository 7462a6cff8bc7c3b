"""Tests for the synthetic face renderer."""

import pickle

import numpy as np
import pytest

from repro.datasets.uvsd import generate_uvsd
from repro.facs.action_units import AU_IDS
from repro.facs.regions import region_for_au
from repro.video.face_synth import FaceRenderer, default_renderer
from repro.video.frame import IDENTITY_DIM, Video, VideoSpec


def _spec(au_intensities, **overrides):
    defaults = dict(
        video_id="v0", subject_id="s0",
        au_intensities=au_intensities,
        identity=np.zeros(IDENTITY_DIM),
        noise_scale=0.0, seed=1,
    )
    defaults.update(overrides)
    return VideoSpec(**defaults)


class TestRenderer:
    def test_shared_renderer_is_cached(self):
        assert default_renderer() is default_renderer()

    def test_small_frame_size_rejected(self):
        with pytest.raises(ValueError):
            FaceRenderer(frame_size=8)

    def test_output_range(self):
        frame = default_renderer().render(_spec(np.zeros((4, 12))), 0)
        assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_au_evidence_is_localised(self):
        """Activating one AU changes pixels only inside its region."""
        renderer = default_renderer()
        for au_index_, au_id in enumerate(AU_IDS):
            neutral = renderer.render(_spec(np.zeros((1, 12))), 0)
            active_curves = np.zeros((1, 12))
            active_curves[0, au_index_] = 1.0
            active = renderer.render(_spec(active_curves), 0)
            diff = np.abs(active - neutral)
            outside = diff * ~region_for_au(au_id).mask(96)
            assert outside.max() < 1e-9, f"AU{au_id} leaked outside region"
            assert diff.max() > 0.05, f"AU{au_id} has no visible effect"

    def test_au_pattern_is_readonly(self):
        pattern = default_renderer().au_pattern(4)
        with pytest.raises(ValueError):
            pattern[0, 0] = 1.0

    def test_identity_changes_appearance(self):
        renderer = default_renderer()
        a = renderer.render(_spec(np.zeros((1, 12))), 0)
        b = renderer.render(
            _spec(np.zeros((1, 12)), identity=np.ones(IDENTITY_DIM)), 0
        )
        assert not np.array_equal(a, b)

    def test_lighting_gradient(self):
        renderer = default_renderer()
        lit = renderer.render(_spec(np.zeros((1, 12)), lighting=0.3), 0)
        flat = renderer.render(_spec(np.zeros((1, 12))), 0)
        delta = lit - flat
        assert delta[:, -1].mean() > delta[:, 0].mean()

    def test_noise_is_seeded(self):
        spec = _spec(np.zeros((2, 12)), noise_scale=0.05)
        renderer = default_renderer()
        assert np.array_equal(renderer.render(spec, 0), renderer.render(spec, 0))
        assert not np.array_equal(renderer.render(spec, 0),
                                  renderer.render(spec, 1))

    def test_occlusion_occurs_at_high_rate(self):
        clean = _spec(np.zeros((1, 12)))
        occluded = _spec(np.zeros((1, 12)), occlusion_rate=1.0)
        renderer = default_renderer()
        diff = np.abs(renderer.render(occluded, 0) - renderer.render(clean, 0))
        assert (diff > 0.01).sum() > 20

    def test_returned_frames_are_private(self):
        """Writing into a rendered frame never leaks into later renders
        (the per-clip appearance term is shared between them)."""
        spec = _spec(np.full((2, 12), 0.2), noise_scale=0.02,
                     occlusion_rate=0.5)
        renderer = default_renderer()
        first = renderer.render(spec, 0)
        expected = first.copy()
        first[:] = -1.0
        assert np.array_equal(renderer.render(spec, 0), expected)


class TestPickleContract:
    """Videos cross process pipes with their renderer; the renderer
    travels as a reference to the receiver's shared one, never as its
    world arrays."""

    def test_pickled_renderer_is_a_reference(self):
        assert len(pickle.dumps(default_renderer())) < 256

    @pytest.mark.parametrize("size", [96, 48])
    def test_unpickles_to_the_shared_renderer(self, size):
        fresh = FaceRenderer(size)
        clone = pickle.loads(pickle.dumps(fresh))
        assert clone is default_renderer(size)
        spec = _spec(np.full((3, 12), 0.5), noise_scale=0.02,
                     occlusion_rate=0.5, lighting=0.1)
        for index in range(3):
            assert np.array_equal(clone.render(spec, index),
                                  fresh.render(spec, index))

    def test_pickled_batch_of_uvsd_videos_is_small(self):
        videos = [sample.video for sample in
                  generate_uvsd(num_samples=8, num_subjects=4)]
        blob = pickle.dumps(videos)
        assert len(blob) < 16 * 1024
        for video, clone in zip(videos, pickle.loads(blob)):
            for got, want in zip(clone.keyframes, video.keyframes):
                assert np.array_equal(got, want)


@pytest.fixture()
def render_calls(monkeypatch):
    """Records every ``FaceRenderer.render(spec, index)`` call, the unit
    the benchmark's render self-checks count."""
    calls = []
    original = FaceRenderer.render

    def counted(self, spec, frame_index):
        calls.append((spec.video_id, frame_index))
        return original(self, spec, frame_index)

    monkeypatch.setattr(FaceRenderer, "render", counted)
    return calls


def _clip(video_id: str, curves: np.ndarray, seed: int) -> VideoSpec:
    identity = np.random.default_rng(seed).standard_normal(IDENTITY_DIM)
    return _spec(curves, video_id=video_id, identity=identity,
                 noise_scale=0.03, lighting=0.05, occlusion_rate=0.2,
                 seed=seed)


class TestRenderCallContract:
    def test_keyframes_render_each_distinct_index_once(self, render_calls):
        curves = np.zeros((12, 12))
        curves[:, 3] = np.linspace(0.1, 0.9, 12)
        video = Video(_clip("ramp", curves, 1))
        video.keyframes
        video.keyframes
        assert render_calls == [("ramp", 11), ("ramp", 0)]

    def test_coinciding_keyframes_render_once(self, render_calls):
        video = Video(_clip("flat", np.full((12, 12), 0.4), 2))
        expressive, neutral = video.keyframes
        assert render_calls == [("flat", 0)]
        assert expressive is neutral

    def test_feature_cache_hit_renders_nothing(self, render_calls):
        from repro.model.foundation import FoundationModel
        from repro.rng import make_rng

        model = FoundationModel(make_rng(123, "render-contract"))
        spec = _clip("cached", np.linspace(0, 1, 144).reshape(12, 12), 3)
        first = model.features(Video(spec))
        assert len(render_calls) == 2
        assert model.features(Video(spec)) is first
        assert len(render_calls) == 2

    def test_threads_render_like_serial(self):
        """Concurrent renders of different clips on the shared renderer
        equal serial renders bit for bit, whatever the interleaving.
        Clips come in ``dataclasses.replace`` twins sharing an identity
        array, as the benchmark's clip streams do."""
        import dataclasses
        import sys
        import threading

        rounds = 25
        rng = np.random.default_rng(8)
        specs = []
        for i in range(2):
            spec = _clip(f"thread-{i}", rng.random((12, 12)), 10 + i)
            specs += [spec, dataclasses.replace(spec, video_id=f"twin-{i}",
                                                seed=20 + i)]
        renderer = default_renderer()
        serial = [[renderer.render(spec, t) for t in range(12)]
                  for spec in specs]
        results = [[] for __ in specs]
        barrier = threading.Barrier(len(specs), timeout=30)

        def work(slot: int) -> None:
            barrier.wait()
            for __ in range(rounds):
                results[slot].extend(renderer.render(specs[slot], t)
                                     for t in range(12))

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(specs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, frames in enumerate(results):
            assert len(frames) == 12 * rounds
            for index, frame in enumerate(frames):
                assert np.array_equal(frame, serial[slot][index % 12])
