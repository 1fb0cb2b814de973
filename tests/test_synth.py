import numpy as np
import pytest
from scipy.stats import norm

from sleepstager.ingest import load_cohort, save_recording
from sleepstager.synth import (
    SynthConfig,
    context_only_config,
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

    def test_bad_rows_rejected(self):
        t = np.full((5, 5), 0.2)
        t[0, 0] = 0.3
        with pytest.raises(ValueError):
            SynthConfig(transition=t)

    def test_bad_difficulty_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(difficulty=0.0)
        with pytest.raises(ValueError):
            SynthConfig(difficulty=1.5)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(burst_prob=np.array([0.5, 0.5, 0.5, 0.5, 1.2]))


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
                counts[order[s.value]] += 1
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
        threshold = 0.5 * (cfg.hr_mean[0] + cfg.hr_mean[3])
        correct = 0
        total = 0
        for rec in cohort:
            idx = np.floor(rec.hr.t / 30.0).astype(int)
            for k, stage in enumerate(rec.labels):
                if stage.value not in ("W", "N3"):
                    continue
                mean_hr = rec.hr.bpm[idx == k].mean()
                predicted = "W" if mean_hr > threshold else "N3"
                correct += predicted == stage.value
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
        np.testing.assert_allclose(hr_easy, easy.hr_mean)

    def test_wake_epochs_move_more(self):
        cfg = SynthConfig(n_recordings=4, epochs_per_recording=60, seed=8)
        cohort = generate_cohort(cfg)
        wake_power, deep_power = [], []
        for rec in cohort:
            idx = np.floor(rec.act.t / 30.0).astype(int)
            for k, stage in enumerate(rec.labels):
                power = float(np.var(np.diff(rec.act.xyz[idx == k], axis=0)))
                if stage.value == "W":
                    wake_power.append(power)
                elif stage.value == "N3":
                    deep_power.append(power)
        assert np.mean(wake_power) > 3.0 * np.mean(deep_power)


class TestContextOnlyVariant:
    def test_uniform_chain(self):
        cfg = context_only_config(n_recordings=8, epochs_per_recording=200, seed=9)
        np.testing.assert_allclose(cfg.transition, 0.2)
        assert cfg.context_only

    def test_emissions_follow_previous_stage(self):
        # epochs after a W stage should carry wake-like heart rate no matter
        # what the current stage is
        cfg = context_only_config(n_recordings=6, epochs_per_recording=120, seed=10)
        cohort = generate_cohort(cfg)
        after_w, after_n3 = [], []
        for rec in cohort:
            idx = np.floor(rec.hr.t / 30.0).astype(int)
            for k in range(1, rec.num_epochs):
                prev = rec.labels[k - 1].value
                mean_hr = rec.hr.bpm[idx == k].mean()
                if prev == "W":
                    after_w.append(mean_hr)
                elif prev == "N3":
                    after_n3.append(mean_hr)
        assert np.mean(after_w) - np.mean(after_n3) > 10.0

    def test_current_epoch_uninformative(self):
        # mean HR grouped by the CURRENT stage shows no separation
        cfg = context_only_config(n_recordings=6, epochs_per_recording=120, seed=11)
        cohort = generate_cohort(cfg)
        by_stage = {s: [] for s in ("W", "N1", "N2", "N3", "REM")}
        for rec in cohort:
            idx = np.floor(rec.hr.t / 30.0).astype(int)
            for k in range(1, rec.num_epochs):
                by_stage[rec.labels[k].value].append(rec.hr.bpm[idx == k].mean())
        means = [np.mean(v) for v in by_stage.values()]
        assert np.ptp(means) < 2.0


class TestBayesRate:
    def test_mean_hr_bayes_accuracy_supports_pipeline_target(self):
        # quadrature over the known emission model: the optimal classifier
        # on per-epoch mean HR alone already exceeds the end-to-end target,
        # so the pipeline threshold is attainable by construction
        cfg = SynthConfig()
        samples_per_epoch = int(cfg.epoch_seconds * cfg.hr_rate_hz)
        sem = cfg.hr_std / np.sqrt(samples_per_epoch)
        priors = np.full(5, 0.2)  # symmetric default chain
        grid = np.linspace(30.0, 110.0, 160_001)
        densities = np.stack([
            priors[s] * norm.pdf(grid, cfg.hr_mean[s], sem[s]) for s in range(5)
        ])
        bayes_acc = np.trapezoid(densities.max(axis=0), grid)
        assert bayes_acc > 0.95
