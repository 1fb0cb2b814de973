"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions; pytest's own PASS/FAIL verdict per test is the gate. The heavy
cross-validation run is computed once in a module fixture and shared
between the score criterion and the reproducibility criterion.
"""

import time

import numpy as np
import pytest

from sleepstager.evaluate import (
    cross_validate,
    kfold_split,
    summary_document,
    weighted_metrics,
    write_cv_csv,
)
from sleepstager.features_low import FrameConfig
from sleepstager.features_mid import kmeans_fit
from sleepstager.ingest import ActigraphySeries, HeartRateSeries, Recording
from sleepstager.network import NetSpec
from sleepstager.synth import SynthConfig, generate_cohort
from sleepstager.training import TrainConfig, gradient_check
from sleepstager.transforms import dct2, real_cepstrum

MAIN_SEED = 20260825
CTX_SEED = 31415

# settings shared by the cross-validation criteria; chosen so a single
# laptop core finishes well inside the time budget
CV_TRAIN = TrainConfig(
    learning_rate=0.2,
    init_std=0.1,
    weight_noise_std=0.005,
    max_passes=12,
    patience=12,
    seed=0,
)


def _run_main_cv():
    recs = generate_cohort(SynthConfig(seed=MAIN_SEED))
    return cross_validate(
        recs,
        frame=FrameConfig(),
        num_words=300,
        net_layers=(("blstm", 32),),
        train_cfg=CV_TRAIN,
        k=8,
        rounds=1,
        seed=MAIN_SEED,
        num_classes=5,
    )


@pytest.fixture(scope="module")
def main_cv():
    t0 = time.monotonic()
    first = _run_main_cv()
    elapsed = time.monotonic() - t0
    second = _run_main_cv()
    return first, second, elapsed


# ------------------------------------------------------------ criterion 1


def test_criterion_01_gradient_grid():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for kind in ("mlp", "lstm", "blstm"):
        for depth in (1, 2):
            for units in (4, 8):
                spec = NetSpec(
                    input_dim=7,
                    num_classes=5,
                    layers=((kind, units),) * depth,
                )
                err = gradient_check(spec, T=12, seed=MAIN_SEED)
                assert np.isfinite(err) and err < 1e-5, (
                    f"{kind} x{depth} @{units}: relative error {err:.3e}"
                )
                worst = max(worst, err)
                count += 1
    elapsed = time.monotonic() - t0
    assert count == 12
    assert elapsed < 120.0, f"gradient grid took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 PASS: 12/12 gradient configs < 1e-5 "
        f"(worst {worst:.3e}, {elapsed:.1f}s)"
    )


# ------------------------------------------------------------ criterion 2


def naive_dct2(x):
    n = x.size
    j = np.arange(n)
    out = np.array(
        [2.0 * np.sum(x * np.cos(np.pi * (2 * j + 1) * k / (2 * n))) for k in range(n)]
    )
    out[0] *= np.sqrt(1.0 / (4 * n))
    out[1:] *= np.sqrt(1.0 / (2 * n))
    return out


def naive_cepstrum(x):
    n = x.size
    j = np.arange(n)
    spectrum = np.array(
        [np.sum(x * np.exp(-2j * np.pi * k * j / n)) for k in range(n)]
    )
    log_mag = np.log(np.maximum(np.abs(spectrum), 1e-12))
    back = np.array(
        [np.mean(log_mag * np.exp(2j * np.pi * k * j / n)) for k in range(n)]
    )
    return back.real


def test_criterion_02_transforms_match_naive_oracles():
    rng = np.random.default_rng(np.random.Philox(MAIN_SEED))
    worst_dct = worst_cep = worst_parseval = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 257))
        x = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        d_err = float(np.max(np.abs(dct2(x) - naive_dct2(x))))
        c_err = float(np.max(np.abs(real_cepstrum(x, n) - naive_cepstrum(x))))
        p_err = float(abs(np.sum(dct2(x) ** 2) - np.sum(x**2)))
        assert d_err < 1e-9, f"dct2 off by {d_err:.3e} at n={n}"
        assert c_err < 1e-9, f"cepstrum off by {c_err:.3e} at n={n}"
        assert p_err < 1e-10, f"Parseval off by {p_err:.3e} at n={n}"
        worst_dct = max(worst_dct, d_err)
        worst_cep = max(worst_cep, c_err)
        worst_parseval = max(worst_parseval, p_err)
    print(
        f"ACCEPTANCE 2 PASS: 100 signals, dct {worst_dct:.2e}, "
        f"cepstrum {worst_cep:.2e}, Parseval {worst_parseval:.2e}"
    )


# ------------------------------------------------------------ criterion 3


def test_criterion_03_feature_dimensions():
    frame = FrameConfig()
    assert frame.frame_epochs == 10
    freq = frame.frame_epochs * (3 * frame.freq_components - 3)
    assert freq == 120
    ceps = 3 * frame.cepstrum_components
    assert ceps == 90
    assert frame.dim == 10 + 120 + 90 == 220
    assert frame.dim + 300 == 520
    print("ACCEPTANCE 3 PASS: 10 + 120 + 90 = 220 low dims, 520 with 300 words")


# ------------------------------------------------------------ criterion 4


def test_criterion_04_clustering_behaviour():
    # objective never increases across iterations, 20 seeded runs
    for seed in range(20):
        rng = np.random.default_rng(np.random.Philox(seed))
        data = rng.normal(size=(120, 6)) * rng.uniform(0.5, 2.0)
        d = kmeans_fit(data, k=7, seed=seed)
        h = np.asarray(d.objective_history)
        assert h.size >= 1
        assert np.all(np.diff(h) <= 0.0), f"objective rose at seed {seed}"

    # k == n distinct points: every point becomes a center, objective 0
    rng = np.random.default_rng(np.random.Philox(99))
    pts = rng.normal(size=(12, 4))
    d = kmeans_fit(pts, k=12, seed=1)
    assert d.objective == 0.0
    got = d.centers[np.lexsort(d.centers.T)]
    want = pts[np.lexsort(pts.T)]
    np.testing.assert_array_equal(got, want)

    # well-separated gaussian blobs: means recovered closely
    true_centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    samples = np.concatenate(
        [rng.normal(c, 0.5, size=(200, 2)) for c in true_centers]
    )
    d = kmeans_fit(samples, k=3, seed=5)
    for c in true_centers:
        nearest = np.min(np.linalg.norm(d.centers - c, axis=1))
        assert nearest < 0.3, f"blob at {c} recovered {nearest:.3f} away"
    print("ACCEPTANCE 4 PASS: 20 monotone runs, exact recovery, blob recovery")


# ------------------------------------------------------------ criterion 5


def test_criterion_05_weighted_metrics():
    p, r, f1 = weighted_metrics(np.array([[2, 1], [1, 2]]))
    for value in (p, r, f1):
        assert abs(value - 2.0 / 3.0) <= 1e-12

    rng = np.random.default_rng(np.random.Philox(MAIN_SEED))
    for _ in range(50):
        k = int(rng.integers(2, 7))
        cm = rng.integers(0, 20, size=(k, k)).astype(np.int64)
        cm[0, 0] += 1  # keep the matrix non-empty
        _, recall, _ = weighted_metrics(cm)
        accuracy = np.trace(cm) / cm.sum()
        assert abs(recall - accuracy) <= 1e-12
    print("ACCEPTANCE 5 PASS: hand example 2/3 exact, recall == accuracy x50")


# ------------------------------------------------------------ criterion 6


def _perturb(rec: Recording) -> Recording:
    return Recording(
        subject_id=rec.subject_id,
        hr=HeartRateSeries(t=rec.hr.t, bpm=rec.hr.bpm + 4.0),
        act=ActigraphySeries(t=rec.act.t, xyz=rec.act.xyz * 1.25),
        labels=rec.labels,
    )


def test_criterion_06_no_test_data_in_fitted_state():
    seed = 77
    recs = generate_cohort(SynthConfig(n_recordings=8, epochs_per_recording=40, seed=seed))
    cfg = TrainConfig(
        learning_rate=0.05,
        weight_noise_std=0.005,
        max_passes=1,
        patience=1,
        seed=0,
    )

    def run(cohort):
        return cross_validate(
            cohort,
            frame=FrameConfig(),
            num_words=32,
            net_layers=(("mlp", 8),),
            train_cfg=cfg,
            k=8,
            rounds=1,
            seed=seed,
        )

    base = run(recs)
    folds = kfold_split([r.subject_id for r in recs], 8, seed)

    # perturbing the test subject of fold 0 must not move fold 0's fit
    test_ids = set(base.folds[0].test_subjects)
    assert test_ids == set(folds[0])
    mutated = [(_perturb(r) if r.subject_id in test_ids else r) for r in recs]
    moved = run(mutated)
    fa, fb = base.folds[0], moved.folds[0]
    assert fa.pipeline.dictionary.centers.tobytes() == fb.pipeline.dictionary.centers.tobytes()
    assert fa.pipeline.dictionary.objective_history == fb.pipeline.dictionary.objective_history
    assert fa.pipeline.stats.mean.tobytes() == fb.pipeline.stats.mean.tobytes()
    assert fa.pipeline.stats.std.tobytes() == fb.pipeline.stats.std.tobytes()

    # sanity: the same perturbation applied to a training subject does move it
    train_id = folds[2][0]
    mutated_train = [(_perturb(r) if r.subject_id == train_id else r) for r in recs]
    moved_train = run(mutated_train)
    assert (
        base.folds[0].pipeline.stats.mean.tobytes()
        != moved_train.folds[0].pipeline.stats.mean.tobytes()
    )
    print("ACCEPTANCE 6 PASS: test-fold signals never reach the fitted state")


# ------------------------------------------------------------ criterion 7


def test_criterion_07_synthetic_cv_score(main_cv):
    report, _, elapsed = main_cv
    assert elapsed < 600.0, f"cross-validation took {elapsed:.0f}s"
    assert report.k == 8 and report.rounds == 1
    assert len(report.folds) == 8
    assert report.f1 >= 0.85, f"aggregate weighted F1 {report.f1:.4f} < 0.85"
    print(
        f"ACCEPTANCE 7 PASS: aggregate weighted F1 {report.f1:.4f} >= 0.85 "
        f"in {elapsed:.0f}s"
    )


# ------------------------------------------------------------ criterion 8


def test_criterion_08_recurrent_beats_frame_reader():
    recs = generate_cohort(SynthConfig(seed=CTX_SEED, context_only=True))
    frame = FrameConfig(frame_epochs=1)

    def run(kind):
        return cross_validate(
            recs,
            frame=frame,
            num_words=300,
            net_layers=((kind, 32),),
            train_cfg=CV_TRAIN,
            k=8,
            rounds=1,
            seed=CTX_SEED,
        )

    blstm = run("blstm").f1
    mlp = run("mlp").f1
    margin = blstm - mlp
    assert margin >= 0.10, (
        f"blstm {blstm:.4f} vs mlp {mlp:.4f}: margin {margin:.4f} < 0.10"
    )
    print(
        f"ACCEPTANCE 8 PASS: context-only blstm {blstm:.4f} vs mlp {mlp:.4f} "
        f"(margin {margin:.4f})"
    )


# ------------------------------------------------------------ criterion 9


def test_criterion_09_cv_reproducibility(main_cv, tmp_path):
    first, second, _ = main_cv
    assert summary_document(first) == summary_document(second)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_cv_csv(first, p1)
    write_cv_csv(second, p2)
    with open(p1, "rb") as fh:
        raw1 = fh.read()
    with open(p2, "rb") as fh:
        raw2 = fh.read()
    assert raw1 == raw2
    for fa, fb in zip(first.folds, second.folds):
        assert fa.test_subjects == fb.test_subjects
        np.testing.assert_array_equal(fa.cm, fb.cm)
        assert fa.pipeline.dictionary.centers.tobytes() == fb.pipeline.dictionary.centers.tobytes()
        assert fa.pipeline.stats.mean.tobytes() == fb.pipeline.stats.mean.tobytes()
        assert fa.pipeline.stats.std.tobytes() == fb.pipeline.stats.std.tobytes()
    print("ACCEPTANCE 9 PASS: repeated run byte-identical (CSV, summary, folds)")
