"""Tests for the UVSD / RSL / DISFA+ generators."""

import numpy as np
import pytest

from repro.datasets import generate_disfa, generate_rsl, generate_uvsd
from repro.datasets.instruction import build_instruction_pairs
from repro.datasets.rsl import rsl_config
from repro.datasets.synth import (
    SynthesisConfig,
    au_intensity_curves,
    make_subject,
    synthesize_dataset,
)
from repro.datasets.uvsd import uvsd_config
from repro.errors import DatasetError
from repro.facs.stress_priors import default_stress_prior


class TestPaperStatistics:
    """Full-size generation matches the paper's corpus statistics."""

    def test_uvsd_counts(self):
        dataset = generate_uvsd()
        assert len(dataset) == 2092
        assert len(dataset.subjects()) == 112
        assert dataset.class_counts() == (1172, 920)

    def test_rsl_counts(self):
        dataset = generate_rsl()
        assert len(dataset) == 706
        assert len(dataset.subjects()) == 60
        assert dataset.class_counts() == (497, 209)

    def test_disfa_counts(self):
        dataset = generate_disfa()
        assert len(dataset) == 645


class TestScaledGeneration:
    def test_balance_preserved_when_scaled(self):
        dataset = generate_uvsd(num_samples=400, num_subjects=40)
        unstressed, stressed = dataset.class_counts()
        paper_ratio = 920 / 2092
        assert abs(stressed / 400 - paper_ratio) < 0.03

    def test_deterministic_per_seed(self):
        a = generate_rsl(seed=5, num_samples=60, num_subjects=10)
        b = generate_rsl(seed=5, num_samples=60, num_subjects=10)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a[0].video.frame(0), b[0].video.frame(0))

    def test_seed_changes_data(self):
        a = generate_rsl(seed=1, num_samples=60, num_subjects=10)
        b = generate_rsl(seed=2, num_samples=60, num_subjects=10)
        assert not np.array_equal(a[0].true_aus, b[0].true_aus) or \
            not np.array_equal(a[0].video.frame(0), b[0].video.frame(0))


class TestSignalStructure:
    def test_stress_signal_present(self):
        """AU occurrence statistics must separate the classes."""
        dataset = generate_uvsd(num_samples=600, num_subjects=50)
        weights = default_stress_prior(
            coupling=uvsd_config().prior.coupling
        ).evidence_weights()
        scores = np.array([s.true_aus @ weights for s in dataset])
        labels = dataset.labels
        assert scores[labels == 1].mean() > scores[labels == 0].mean() + 1.0

    def test_rsl_is_harder_than_uvsd(self):
        assert rsl_config().prior.coupling < uvsd_config().prior.coupling
        assert rsl_config().label_noise > uvsd_config().label_noise
        assert rsl_config().occlusion_rate > uvsd_config().occlusion_rate

    def test_disfa_covers_all_aus(self):
        dataset = generate_disfa(num_samples=300, num_subjects=10)
        occurrences = np.stack([s.true_aus for s in dataset]).sum(axis=0)
        assert np.all(occurrences > 0), "every AU must appear in DISFA+"


class TestSynthesisConfigValidation:
    def test_invalid_counts_raise(self):
        with pytest.raises(DatasetError):
            SynthesisConfig("x", 0, 1, 0, default_stress_prior())
        with pytest.raises(DatasetError):
            SynthesisConfig("x", 10, 1, 20, default_stress_prior())
        with pytest.raises(DatasetError):
            SynthesisConfig("x", 10, 1, 5, default_stress_prior(),
                            label_noise=0.7)

    def test_stressed_count_exact(self):
        config = SynthesisConfig("x", 101, 7, 37, default_stress_prior())
        records = synthesize_dataset(config, seed=0)
        assert sum(label for __, label, __ in records) == 37


def _per_au_reference(config, subject, occurrence, rng, behave_stressed):
    """The original per-AU loop: separate scalar ``uniform`` draws per
    AU, in AU order.  The vectorized synthesis must equal it bitwise."""
    num_frames = config.num_frames
    frames = np.arange(num_frames, dtype=np.float64)
    curves = np.zeros((num_frames, 12))
    stress_positive = config.prior.stress_log_odds > 0
    for i in range(12):
        if occurrence[i] >= 0.5:
            apex = rng.uniform(0.2, 0.8) * (num_frames - 1)
            width = rng.uniform(0.12, 0.35) * num_frames
            low, high = 0.58, 0.92
            if behave_stressed and stress_positive[i]:
                low, high = 0.74, 1.0
            peak = np.clip(
                rng.uniform(low, high) * subject.expressivity, 0.55, 1.0
            )
            curves[:, i] = peak * np.exp(-0.5 * ((frames - apex) / width) ** 2)
        else:
            curves[:, i] = rng.uniform(0.0, 0.12, num_frames)
    return np.clip(curves, 0.0, 1.0)


class TestIntensityCurveDraws:
    @pytest.mark.parametrize("num_frames", [1, 5, 12, 30])
    @pytest.mark.parametrize("behave_stressed", [False, True])
    def test_matches_per_au_loop(self, num_frames, behave_stressed):
        config = SynthesisConfig("x", 10, 5, 5, default_stress_prior(2.0),
                                 num_frames=num_frames)
        rng = np.random.default_rng(num_frames)
        for index in range(40):
            subject = make_subject(config, index, rng)
            occurrence = (rng.random(12) < index / 40).astype(np.float64)
            seed = int(rng.integers(1 << 32))
            fast = np.random.default_rng(seed)
            slow = np.random.default_rng(seed)
            curves = au_intensity_curves(config, subject, occurrence, fast,
                                         behave_stressed=behave_stressed)
            expected = _per_au_reference(config, subject, occurrence, slow,
                                         behave_stressed)
            assert np.array_equal(curves, expected)
            # Both left their generator at the same stream position.
            assert fast.random() == slow.random()


class TestInstructionPairs:
    def test_pairs_match_labels(self):
        dataset = generate_disfa(num_samples=40, num_subjects=5)
        pairs = build_instruction_pairs(dataset)
        assert len(pairs) == 40
        for sample, pair in zip(dataset, pairs):
            assert np.array_equal(pair.description.to_vector(),
                                  sample.true_aus)

    def test_pair_text_renders(self):
        dataset = generate_disfa(num_samples=5, num_subjects=2)
        pairs = build_instruction_pairs(dataset)
        assert pairs[0].text.startswith("The facial expressions")
