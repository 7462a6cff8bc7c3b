"""Golden regression fixtures for clip ingestion.

Every experiment and benchmark starts by synthesizing UVSD/RSL/DISFA+
clips, validating their :class:`VideoSpec` s and rendering keyframes.
This suite pins that path bit for bit in
``tests/golden/ingest_golden.json``:

* SHA-256 digests of every ``VideoSpec`` field, the label and
  ``true_aus`` of each generator at two seeds, full size and scaled;
* SHA-256 digests of the rendered keyframes and ``video_features`` of
  a dozen clips covering RSL occlusion, zero lighting, zero noise, a
  constant-AU clip whose two keyframes coincide, ``dataclasses.replace``
  id/seed twins, a non-default frame size, and clips rendered
  frame-interleaved.

Any change to a synthesis RNG draw, a validation coercion or a render
op order fails here with the name of the drifted field.

Regenerating after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_golden_ingest.py --update-golden

then review the fixture diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.disfa import generate_disfa
from repro.datasets.rsl import generate_rsl
from repro.datasets.uvsd import generate_uvsd
from repro.model.features import video_features
from repro.video.face_synth import default_renderer
from repro.video.frame import Video, VideoSpec
from repro.video.keyframes import extract_keyframes

GOLDEN_PATH = Path(__file__).parent / "golden" / "ingest_golden.json"

#: (generator, full-size kwargs, scaled kwargs).
GENERATORS = {
    "uvsd": (generate_uvsd, {}, {"num_samples": 160, "num_subjects": 16}),
    "rsl": (generate_rsl, {}, {"num_samples": 120, "num_subjects": 12}),
    "disfa": (generate_disfa, {}, {"num_samples": 120, "num_subjects": 10}),
}
SEEDS = (0, 7)

#: Per-sample fields pinned for every generated dataset.
SPEC_FIELDS = ("video_id", "subject_id", "au_intensities", "identity",
               "lighting", "noise_scale", "occlusion_rate", "seed")

#: RSL clips (seed 0, 60 samples, 12 subjects) whose keyframes carry an
#: occluder: both keyframes, and only the least-expressive one.
RSL_OCCLUDED = {"rsl-occluded-both": 14, "rsl-occluded-neutral": 24}


def _sha(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and raw bytes) and scalars
    (``repr``, which round-trips floats exactly)."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype}{part.shape}".encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _dataset(name: str, seed: int, scaled: bool):
    generate, full, small = GENERATORS[name]
    return generate(seed, **(small if scaled else full))


def compute_dataset_digests() -> dict[str, dict]:
    digests = {}
    for name in GENERATORS:
        for seed in SEEDS:
            for scaled in (False, True):
                samples = _dataset(name, seed, scaled).samples
                specs = [sample.video.spec for sample in samples]
                entry = {"count": len(samples)}
                for field in SPEC_FIELDS:
                    entry[field] = _sha(*(getattr(s, field) for s in specs))
                entry["label"] = _sha(*(s.label for s in samples))
                entry["true_aus"] = _sha(*(s.true_aus for s in samples))
                size = "scaled" if scaled else "full"
                digests[f"{name}/seed{seed}/{size}"] = entry
    return digests


def _handmade(video_id: str, curves: np.ndarray, **fields) -> VideoSpec:
    rng = np.random.default_rng(4_000 + len(video_id))
    return VideoSpec(video_id=video_id, subject_id=f"{video_id}-subj",
                     au_intensities=curves, identity=rng.standard_normal(8),
                     **fields)


def _ramp_curves() -> np.ndarray:
    curves = np.zeros((12, 12))
    curves[:, 1] = np.linspace(0.0, 0.9, 12)
    curves[:, 7] = np.linspace(0.6, 0.1, 12)
    curves[:, 10] = 0.35
    return curves


def golden_clips() -> dict[str, Video]:
    """The pinned clips, each a fresh :class:`Video` (empty caches)."""
    uvsd = _dataset("uvsd", 0, True).samples
    unstressed = next(s for s in uvsd if s.label == 0).video.spec
    stressed = next(s for s in uvsd if s.label == 1).video.spec
    rsl = generate_rsl(0, num_samples=60, num_subjects=12).samples
    specs = {
        "uvsd-unstressed": unstressed,
        "uvsd-stressed": stressed,
        **{case: rsl[index].video.spec
           for case, index in RSL_OCCLUDED.items()},
        "disfa": _dataset("disfa", 0, True).samples[0].video.spec,
        "lighting-zero": _handmade("lighting-zero", _ramp_curves(),
                                   lighting=0.0, noise_scale=0.02, seed=11),
        "lighting-strong": _handmade("lighting-strong", _ramp_curves(),
                                     lighting=-0.3, noise_scale=0.03,
                                     seed=12),
        "noise-zero": _handmade("noise-zero", _ramp_curves(), lighting=0.08,
                                noise_scale=0.0, seed=13),
        "constant-au": _handmade("constant-au", np.full((12, 12), 0.4),
                                 lighting=0.02, seed=14),
        "always-occluded": _handmade("always-occluded", _ramp_curves(),
                                     noise_scale=0.05, occlusion_rate=1.0,
                                     seed=15),
        "id-twin": dataclasses.replace(unstressed, video_id="id-twin"),
        "seed-twin": dataclasses.replace(unstressed, seed=99_991),
    }
    videos = {case: Video(spec) for case, spec in specs.items()}
    videos["frame-size-48"] = Video(stressed, renderer=default_renderer(48))
    return videos


def _interleaved_digest(first: VideoSpec, second: VideoSpec) -> str:
    """Every frame of two clips, rendered alternately on the shared
    renderer, so consecutive renders never share a spec."""
    renderer = default_renderer()
    frames = []
    for index in range(first.num_frames):
        frames.append(renderer.render(first, index))
        frames.append(renderer.render(second, index))
    return _sha(*frames)


def compute_clip_digests() -> dict[str, dict]:
    clips = golden_clips()
    digests = {}
    for case, video in clips.items():
        expressive_idx, neutral_idx = extract_keyframes(video.spec)
        expressive, neutral = video.keyframes
        digests[case] = {
            "keyframe_indices": [expressive_idx, neutral_idx],
            "expressive": _sha(expressive),
            "neutral": _sha(neutral),
            "features": _sha(video_features(video)),
        }
    digests["interleaved-frames"] = {"frames": _interleaved_digest(
        clips["uvsd-stressed"].spec, clips["rsl-occluded-both"].spec)}
    return digests


def compute_golden() -> dict:
    return {"datasets": compute_dataset_digests(),
            "clips": compute_clip_digests()}


def _diff(recorded: dict, current: dict) -> list[str]:
    drifted = []
    for section in ("datasets", "clips"):
        assert list(recorded[section]) == list(current[section]), (
            f"golden {section} case set changed; regenerate with "
            "--update-golden and review the diff"
        )
        for case, want in recorded[section].items():
            for field, value in want.items():
                if current[section][case][field] != value:
                    drifted.append(f"{section}/{case}: {field}")
    return drifted


def test_ingestion_matches_golden(update_golden):
    current = compute_golden()
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(current, indent=2) + "\n")
        pytest.skip(f"golden fixtures regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        "golden fixture missing; regenerate with "
        "`python -m pytest tests/test_golden_ingest.py --update-golden`"
    )
    drifted = _diff(json.loads(GOLDEN_PATH.read_text()), current)
    assert not drifted, f"ingestion drifted: {drifted}"


def test_golden_clips_cover_the_edge_cases():
    """The pinned clips exercise what their names promise."""
    clips = golden_clips()
    renderer = default_renderer()
    for case in RSL_OCCLUDED:
        spec = clips[case].spec
        clean = dataclasses.replace(spec, occlusion_rate=0.0)
        __, neutral_idx = extract_keyframes(spec)
        assert not np.array_equal(renderer.render(spec, neutral_idx),
                                  renderer.render(clean, neutral_idx))
    assert clips["lighting-zero"].spec.lighting == 0.0
    assert clips["noise-zero"].spec.noise_scale == 0.0
    expressive_idx, neutral_idx = extract_keyframes(clips["constant-au"].spec)
    assert expressive_idx == neutral_idx
    base = clips["uvsd-unstressed"].spec
    for twin in ("id-twin", "seed-twin"):
        spec = clips[twin].spec
        assert spec.au_intensities is base.au_intensities
        assert spec.identity is base.identity
        assert not np.array_equal(clips[twin].keyframes[0],
                                  clips["uvsd-unstressed"].keyframes[0])
