import hashlib
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from sleepstager.ingest import EPOCH_SECONDS, load_cohort, save_recording
from sleepstager.synth import (
    BURST_PROB,
    HR_MEAN,
    HR_RATE_HZ,
    HR_STD,
    SynthConfig,
    _stage_chain,
    generate_cohort,
)


def power_iteration_oracle(transition):
    """Stationary vector by brute-force repeated squaring of the matrix."""
    m = np.asarray(transition, dtype=np.float64)
    for _ in range(60):
        m = m @ m
        m /= m.sum(axis=1, keepdims=True)
    return m[0]


def stationary_distribution(transition: np.ndarray, iters: int = 10_000) -> np.ndarray:
    """Long-run stage frequencies of the chain, by repeated application."""
    p = np.full(5, 0.2)
    for _ in range(iters):
        nxt = p @ transition
        if np.max(np.abs(nxt - p)) < 1e-15:
            return nxt
        p = nxt
    return p


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.n_recordings == 16
        assert cfg.epochs_per_recording == 240

    def test_bad_difficulty_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(difficulty=0.0)
        with pytest.raises(ValueError):
            SynthConfig(difficulty=1.5)

    def test_emission_constants_are_read_only(self):
        for constant in (HR_MEAN, HR_STD, BURST_PROB, SynthConfig().transition):
            with pytest.raises(ValueError):
                constant[0] = 1.0


class TestGeneratedCohorts:
    def test_seed_determinism_bitwise(self):
        cfg = SynthConfig(n_recordings=3, epochs_per_recording=8, seed=42)
        a = generate_cohort(cfg)
        b = generate_cohort(cfg)
        for ra, rb in zip(a, b):
            assert ra.subject_id == rb.subject_id
            np.testing.assert_array_equal(ra.hr.bpm, rb.hr.bpm)
            np.testing.assert_array_equal(ra.act.xyz, rb.act.xyz)
            assert ra.labels == rb.labels

    def test_nights_share_read_only_time_axes(self):
        cohort = generate_cohort(SynthConfig(n_recordings=3, epochs_per_recording=4, seed=1))
        for rec in cohort:
            assert rec.hr.t is cohort[0].hr.t and rec.act.t is cohort[0].act.t
            for a in (rec.hr.t, rec.hr.bpm, rec.act.t, rec.act.xyz):
                with pytest.raises(ValueError):
                    a[0] = 1.0

    @given(st.integers(0, 2**64 - 1), st.booleans(), st.integers(1, 60))
    def test_stage_chain_draws_as_rng_choice_does(self, seed, context_only, epochs):
        cfg = SynthConfig(epochs_per_recording=epochs, context_only=context_only)
        got = _stage_chain(cfg, np.random.Generator(np.random.Philox(seed)))
        rng = np.random.Generator(np.random.Philox(seed))
        expect = [0]
        for _ in range(epochs - 1):
            expect.append(rng.choice(5, p=cfg.transition[expect[-1]]))
        assert got.tolist() == expect

    def test_different_seeds_differ(self):
        a = generate_cohort(SynthConfig(n_recordings=1, epochs_per_recording=8, seed=1))
        b = generate_cohort(SynthConfig(n_recordings=1, epochs_per_recording=8, seed=2))
        assert not np.array_equal(a[0].hr.bpm, b[0].hr.bpm)

    def test_round_trips_through_csv(self, tmp_path):
        cfg = SynthConfig(n_recordings=2, epochs_per_recording=6, seed=7)
        cohort = generate_cohort(cfg)
        for rec in cohort:
            save_recording(rec, str(tmp_path))
        loaded = load_cohort(str(tmp_path))
        assert len(loaded) == 2
        for orig, back in zip(cohort, loaded):
            np.testing.assert_array_equal(orig.hr.t, back.hr.t)
            np.testing.assert_array_equal(orig.hr.bpm, back.hr.bpm)
            np.testing.assert_array_equal(orig.act.xyz, back.act.xyz)
            assert orig.labels == back.labels

    def test_stage_frequencies_near_stationary(self):
        cfg = SynthConfig(seed=3)  # 16 x 240 default
        cohort = generate_cohort(cfg)
        counts = np.zeros(5)
        order = {s: i for i, s in enumerate(("W", "N1", "N2", "N3", "REM"))}
        for rec in cohort:
            for s in rec.labels:
                counts[order[s]] += 1
        freqs = counts / counts.sum()
        target = power_iteration_oracle(cfg.transition)
        np.testing.assert_allclose(target, 0.2, atol=1e-12)  # symmetric default
        assert np.all(np.abs(freqs - target) < 0.05)

    def test_stationary_helper_matches_oracle(self):
        rng = np.random.default_rng(4)
        raw = rng.random((5, 5)) + 0.1
        t = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            stationary_distribution(t), power_iteration_oracle(t), atol=1e-10
        )

    def test_mean_hr_threshold_separates_wake_from_deep(self):
        # the promised floor: a single threshold on per-epoch mean heart
        # rate tells W from N3 more than 90% of the time at difficulty 1
        cfg = SynthConfig(seed=5)
        cohort = generate_cohort(cfg)
        threshold = 0.5 * (HR_MEAN[0] + HR_MEAN[3])
        correct = 0
        total = 0
        for rec in cohort:
            idx = np.floor(rec.hr.t / 30.0).astype(int)
            for k, stage in enumerate(rec.labels):
                if stage not in ("W", "N3"):
                    continue
                mean_hr = rec.hr.bpm[idx == k].mean()
                predicted = "W" if mean_hr > threshold else "N3"
                correct += predicted == stage
                total += 1
        assert total > 0
        assert correct / total > 0.9

    def test_difficulty_shrinks_separation(self):
        easy = SynthConfig(seed=6, n_recordings=2, epochs_per_recording=20)
        hard = SynthConfig(seed=6, n_recordings=2, epochs_per_recording=20, difficulty=0.2)
        from sleepstager.synth import _effective

        hr_easy, _ = _effective(easy)
        hr_hard, _ = _effective(hard)
        assert np.ptp(hr_hard) < 0.3 * np.ptp(hr_easy)
        np.testing.assert_allclose(hr_easy, HR_MEAN)

    def test_wake_epochs_move_more(self):
        cfg = SynthConfig(n_recordings=4, epochs_per_recording=60, seed=8)
        cohort = generate_cohort(cfg)
        wake_power, deep_power = [], []
        for rec in cohort:
            idx = np.floor(rec.act.t / 30.0).astype(int)
            for k, stage in enumerate(rec.labels):
                power = float(np.var(np.diff(rec.act.xyz[idx == k], axis=0)))
                if stage == "W":
                    wake_power.append(power)
                elif stage == "N3":
                    deep_power.append(power)
        assert np.mean(wake_power) > 3.0 * np.mean(deep_power)


class TestContextOnlyVariant:
    def test_uniform_chain(self):
        cfg = SynthConfig(n_recordings=8, epochs_per_recording=200, seed=9, context_only=True)
        np.testing.assert_allclose(cfg.transition, 0.2)
        assert cfg.context_only

    def test_emissions_follow_previous_stage(self):
        # epochs after a W stage should carry wake-like heart rate no matter
        # what the current stage is
        cfg = SynthConfig(n_recordings=6, epochs_per_recording=120, seed=10, context_only=True)
        cohort = generate_cohort(cfg)
        after_w, after_n3 = [], []
        for rec in cohort:
            idx = np.floor(rec.hr.t / 30.0).astype(int)
            for k in range(1, rec.num_epochs):
                prev = rec.labels[k - 1]
                mean_hr = rec.hr.bpm[idx == k].mean()
                if prev == "W":
                    after_w.append(mean_hr)
                elif prev == "N3":
                    after_n3.append(mean_hr)
        assert np.mean(after_w) - np.mean(after_n3) > 10.0

    def test_current_epoch_uninformative(self):
        # mean HR grouped by the CURRENT stage shows no separation
        cfg = SynthConfig(n_recordings=6, epochs_per_recording=120, seed=11, context_only=True)
        cohort = generate_cohort(cfg)
        by_stage = {s: [] for s in ("W", "N1", "N2", "N3", "REM")}
        for rec in cohort:
            idx = np.floor(rec.hr.t / 30.0).astype(int)
            for k in range(1, rec.num_epochs):
                by_stage[rec.labels[k]].append(rec.hr.bpm[idx == k].mean())
        means = [np.mean(v) for v in by_stage.values()]
        assert np.ptp(means) < 2.0


class TestBayesRate:
    def test_mean_hr_bayes_accuracy_supports_pipeline_target(self):
        # quadrature over the known emission model: the optimal classifier
        # on per-epoch mean HR alone already exceeds the end-to-end target,
        # so the pipeline threshold is attainable by construction
        samples_per_epoch = int(EPOCH_SECONDS * HR_RATE_HZ)
        sem = HR_STD / np.sqrt(samples_per_epoch)
        priors = np.full(5, 0.2)  # symmetric default chain
        grid = np.linspace(30.0, 110.0, 160_001)
        densities = np.stack([
            priors[s] * norm.pdf(grid, HR_MEAN[s], sem[s]) for s in range(5)
        ])
        bayes_acc = np.trapezoid(densities.max(axis=0), grid)
        assert bayes_acc > 0.95


class TestPinnedCohorts:
    # SHA-256 over the sorted file names and bytes that save_recording
    # writes for a 3 x 20-epoch cohort; any change to a draw, an emission
    # parameter or the writer's number format moves these digests
    @pytest.mark.parametrize(
        "options, digest",
        [
            ({}, "fdb8d1f72b12e79f577611945de177c46fa4121125e6139ba3e07263f3eaad7a"),
            ({"difficulty": 0.4}, "bae2c44aab552cadd0ce2cf975d30a86228f1043f2b8d25294a98760fafb2ba1"),
            ({"context_only": True}, "4b87e19a9dc8180071839fd48fd0f10f77f10da967fd64949ed545288806df9a"),
        ],
    )
    def test_written_cohort_bits_are_pinned(self, tmp_path, options, digest):
        cfg = SynthConfig(n_recordings=3, epochs_per_recording=20, seed=12, **options)
        for rec in generate_cohort(cfg):
            save_recording(rec, str(tmp_path))
        h = hashlib.sha256()
        for name in sorted(os.listdir(tmp_path)):
            h.update(name.encode() + b"\0")
            h.update((tmp_path / name).read_bytes())
        assert h.hexdigest() == digest
