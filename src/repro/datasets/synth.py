"""Shared synthesis machinery for the stress datasets.

UVSD and RSL differ only in their statistics (counts, balance, AU-stress
coupling, capture noise); the per-sample generative process is shared:

1. each *subject* gets an identity embedding, an expressivity gain and
   idiosyncratic per-AU base-rate offsets;
2. each *sample* gets a stress label; with probability ``label_noise``
   the facial behaviour is drawn from the *opposite* class (an
   ambiguous recording -- this is what caps achievable accuracy);
3. AU occurrences are Bernoulli draws from the class-conditional
   activation probabilities of the dataset's
   :class:`~repro.facs.stress_priors.StressPrior`, shifted by the
   subject offsets;
4. each occurring AU receives an onset-apex-offset intensity curve over
   the clip's frames, scaled by the subject's expressivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.facs.action_units import NUM_AUS
from repro.facs.stress_priors import StressPrior
from repro.rng import derive_seed
from repro.video.frame import (
    DEFAULT_NUM_FRAMES,
    IDENTITY_DIM,
    Video,
    VideoSpec,
)


@dataclass(frozen=True)
class SubjectProfile:
    """Latent per-subject parameters."""

    subject_id: str
    identity: np.ndarray
    expressivity: float
    au_offsets: np.ndarray


@dataclass(frozen=True)
class SynthesisConfig:
    """Dataset-level knobs of the generative process."""

    name: str
    num_samples: int
    num_subjects: int
    num_stressed: int
    prior: StressPrior
    label_noise: float = 0.04
    noise_scale: float = 0.02
    lighting_scale: float = 0.05
    occlusion_rate: float = 0.0
    num_frames: int = DEFAULT_NUM_FRAMES
    subject_offset_scale: float = 0.35

    def __post_init__(self) -> None:
        if self.num_samples < 1 or self.num_subjects < 1:
            raise DatasetError("num_samples and num_subjects must be positive")
        if not 0 <= self.num_stressed <= self.num_samples:
            raise DatasetError("num_stressed must lie in [0, num_samples]")
        if not 0.0 <= self.label_noise < 0.5:
            raise DatasetError("label_noise must lie in [0, 0.5)")


def make_subject(config: SynthesisConfig, index: int,
                 rng: np.random.Generator) -> SubjectProfile:
    """Draw one subject's latent parameters."""
    return SubjectProfile(
        subject_id=f"{config.name}-subj-{index:04d}",
        identity=rng.standard_normal(IDENTITY_DIM),
        expressivity=float(np.clip(rng.normal(1.0, 0.18), 0.55, 1.45)),
        au_offsets=rng.normal(0.0, config.subject_offset_scale, NUM_AUS),
    )


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def class_logits(config: SynthesisConfig) -> dict[bool, np.ndarray]:
    """The prior's AU activation logits for each behaviour class, keyed
    by ``behave_stressed``; computed once per dataset, not per sample."""
    return {stressed: _logit(config.prior.activation_probs(stressed=stressed))
            for stressed in (False, True)}


def sample_au_occurrence(logits: np.ndarray, subject: SubjectProfile,
                         rng: np.random.Generator) -> np.ndarray:
    """Binary AU occurrence vector for one clip, given the behaviour
    class's prior ``logits`` (see :func:`class_logits`)."""
    probs = _sigmoid(logits + subject.au_offsets)
    return (rng.random(NUM_AUS) < probs).astype(np.float64)


#: ``uniform`` bounds of a silent AU's per-frame residual motion, one
#: column per AU.
_RESIDUAL_BOUNDS = np.array([[0.0] * NUM_AUS, [0.12] * NUM_AUS])

#: ``uniform`` bounds of an occurring AU's apex position and bump width,
#: as fractions of the clip length.
_APEX_BOUNDS = np.array([[0.2], [0.8]])
_WIDTH_BOUNDS = np.array([[0.12], [0.35]])

#: ``uniform`` bounds of an occurring AU's peak intensity, normally and
#: for a stress-indicative AU under stress.
_PEAK_BOUNDS = np.array([[0.58] * NUM_AUS, [0.92] * NUM_AUS])
_STRESSED_PEAK_BOUNDS = np.array([[0.74], [1.0]])

#: Offsets of an occurring AU's (apex, width, peak) draws in its block.
_BUMP_DRAWS = np.arange(3)[:, np.newaxis]


def au_intensity_curves(config: SynthesisConfig, subject: SubjectProfile,
                        occurrence: np.ndarray,
                        rng: np.random.Generator,
                        behave_stressed: bool = False) -> np.ndarray:
    """Per-frame AU intensities, shape (num_frames, 12).

    Occurring AUs follow an onset-apex-offset Gaussian bump whose apex
    clears the 0.5 occurrence threshold; silent AUs carry only low
    residual motion.  Under stress the stress-indicative AUs fire more
    intensely (the apex distribution shifts upward), so raw pixels
    carry class evidence beyond the binary occurrence pattern -- this
    is the signal that separates vision-based methods from methods
    restricted to per-frame emotion polarity.

    A clip's randomness is one ``rng.uniform(lows, highs)`` call laid
    out in AU order: each occurring AU takes a block of three draws
    (apex, width, peak), each silent AU a block of ``num_frames``
    residuals.  Peaks are clipped to ``[0.55, 1]`` and residuals lie in
    ``[0, 0.12)``, so every curve lies in ``[0, 1]``.
    """
    num_frames = config.num_frames
    occurring = occurrence >= 0.5
    sizes = np.where(occurring, 3, num_frames)
    ends = sizes.cumsum()
    on = ends[occurring] - 3
    peak_bounds = _PEAK_BOUNDS
    if behave_stressed:
        peak_bounds = np.where(config.prior.stress_log_odds > 0,
                               _STRESSED_PEAK_BOUNDS, _PEAK_BOUNDS)
    bounds = _RESIDUAL_BOUNDS.repeat(sizes, axis=1)
    bounds[:, on] = _APEX_BOUNDS
    bounds[:, on + 1] = _WIDTH_BOUNDS
    bounds[:, on + 2] = peak_bounds[:, occurring]
    draws = rng.uniform(bounds[0], bounds[1])

    apex, width, peak = draws[on + _BUMP_DRAWS]
    apex *= num_frames - 1
    width *= num_frames
    peak = np.minimum(np.maximum(peak * subject.expressivity, 0.55), 1.0)
    frames = np.arange(num_frames)[:, np.newaxis]
    curves = np.empty((num_frames, NUM_AUS))
    curves[:, occurring] = peak * np.exp(
        -0.5 * ((frames - apex) / width) ** 2)
    silent = ends[~occurring] - num_frames
    curves[:, ~occurring] = draws[silent + frames]
    return curves


def synthesize_dataset(config: SynthesisConfig, seed: int):
    """Generate all samples for ``config``; returns a list of
    ``(VideoSpec, label, true_aus)`` triples.

    The label sequence interleaves classes deterministically so any
    prefix of the dataset is approximately class-balanced in the same
    ratio as the whole, and samples are dealt to subjects round-robin.
    """
    rng = np.random.default_rng(derive_seed(seed, f"synth:{config.name}"))
    subjects = [make_subject(config, i, rng) for i in range(config.num_subjects)]

    labels = np.zeros(config.num_samples, dtype=np.int64)
    stressed_positions = np.linspace(
        0, config.num_samples - 1, config.num_stressed
    ).round().astype(int) if config.num_stressed else np.array([], dtype=int)
    labels[stressed_positions] = 1
    # linspace rounding can collide for extreme ratios; repair the count.
    deficit = config.num_stressed - int(labels.sum())
    if deficit > 0:
        zeros = np.where(labels == 0)[0]
        labels[zeros[:deficit]] = 1

    logits = class_logits(config)
    records = []
    for index in range(config.num_samples):
        subject = subjects[index % config.num_subjects]
        label = int(labels[index])
        behave_stressed = bool(label)
        if rng.random() < config.label_noise:
            behave_stressed = not behave_stressed
        occurrence = sample_au_occurrence(logits[behave_stressed], subject, rng)
        curves = au_intensity_curves(config, subject, occurrence, rng,
                                     behave_stressed=behave_stressed)
        true_aus = (curves.max(axis=0) >= 0.5).astype(np.float64)
        spec = VideoSpec(
            video_id=f"{config.name}-{index:05d}",
            subject_id=subject.subject_id,
            au_intensities=curves,
            identity=subject.identity,
            lighting=float(rng.normal(0.0, config.lighting_scale)),
            noise_scale=config.noise_scale,
            occlusion_rate=config.occlusion_rate,
            seed=derive_seed(seed, f"{config.name}:render:{index}"),
        )
        records.append((spec, label, true_aus))
    return records


def records_to_samples(records) -> list:
    """Wrap synthesis records into :class:`~repro.datasets.base.Sample`s."""
    from repro.datasets.base import Sample

    return [
        Sample(video=Video(spec), label=label, true_aus=true_aus)
        for spec, label, true_aus in records
    ]
