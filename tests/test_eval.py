import numpy as np
import pytest

from sleepstager.evaluate import (
    confusion_matrix,
    cross_validate,
    fit_model,
    kfold_split,
    per_class_metrics,
    weighted_metrics,
)
from sleepstager.features_low import FrameConfig, recording_low_features
from sleepstager.modelio import load_model, save_model
from sleepstager.pipeline import fit_pipeline
from sleepstager.synth import SynthConfig, generate_cohort
from sleepstager.training import TrainConfig


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        ref = np.array([0, 1, 2, 3, 4, 2, 1])
        cm = confusion_matrix(ref, ref, 5)
        assert cm.sum() == 7
        np.testing.assert_array_equal(cm, np.diag(np.diag(cm)))

    def test_hand_counted_example(self):
        # ref [W, W, N2], pred [W, N2, N2] with W=0, N2=2
        cm = confusion_matrix([0, 0, 2], [0, 2, 2], 5)
        expect = np.zeros((5, 5), dtype=np.int64)
        expect[0, 0] = 1
        expect[0, 2] = 1
        expect[2, 2] = 1
        np.testing.assert_array_equal(cm, expect)

    def test_rows_are_reference(self):
        cm = confusion_matrix([1], [3], 5)
        assert cm[1, 3] == 1
        assert cm.sum() == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1, 2, 3, 4], [0, 1, 2, 3], 5)
        with pytest.raises(ValueError):
            confusion_matrix([], [], 5)
        with pytest.raises(ValueError):
            confusion_matrix([5], [0], 5)


class TestWeightedMetrics:
    def test_perfect_diagonal_is_one(self):
        cm = np.diag([7, 3, 9, 1, 4])
        assert weighted_metrics(cm) == (1.0, 1.0, 1.0)

    def test_two_class_hand_example(self):
        # ref rows [[2,1],[1,2]]: both classes have P = R = 2/3, weights 1/2
        cm = np.array([[2, 1], [1, 2]])
        p, r, f1 = weighted_metrics(cm)
        assert abs(p - 2.0 / 3.0) <= 1e-12
        assert abs(r - 2.0 / 3.0) <= 1e-12
        assert abs(f1 - 2.0 / 3.0) <= 1e-12

    def test_absent_reference_class_contributes_nothing(self):
        cm = np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]])
        p, r, f1 = weighted_metrics(cm)
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_zero_denominator_class_is_zero_not_nan(self):
        # class 1 never predicted and never referenced
        cm = np.array([[3, 0], [0, 0]])
        p_i, r_i, f1_i = per_class_metrics(cm)
        assert p_i[1] == 0.0 and r_i[1] == 0.0 and f1_i[1] == 0.0
        assert np.all(np.isfinite([*p_i, *r_i, *f1_i]))

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            cm = rng.integers(0, 40, size=(m, m))
            if cm.sum() == 0:
                cm[0, 0] = 1
            _, recall, _ = weighted_metrics(cm)
            accuracy = np.trace(cm) / cm.sum()
            assert abs(recall - accuracy) <= 1e-12

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(1)
        cm = rng.integers(0, 30, size=(5, 5))
        perm = rng.permutation(5)
        permuted = cm[np.ix_(perm, perm)]
        a = weighted_metrics(cm)
        b = weighted_metrics(permuted)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_metrics(np.zeros((3, 3), dtype=int))


class TestKfold:
    def test_sizes_differ_by_at_most_one(self):
        ids = [f"s{i}" for i in range(39)]
        folds = kfold_split(ids, k=8, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 5, 5, 5, 5, 5, 5, 5]

    def test_partition_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(8, 40))
            ids = [f"r{i}" for i in range(n)]
            folds = kfold_split(ids, k=8, seed=int(rng.integers(1000)))
            flat = [s for f in folds for s in f]
            assert sorted(flat) == sorted(ids)
            assert len(set(flat)) == n

    def test_seed_determinism_and_variation(self):
        ids = [f"s{i}" for i in range(16)]
        a = kfold_split(ids, k=8, seed=5)
        b = kfold_split(ids, k=8, seed=5)
        c = kfold_split(ids, k=8, seed=6)
        assert a == b
        assert a != c

    def test_too_few_subjects_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(["a", "b"], k=8, seed=0)

    def test_cross_validate_needs_three_folds(self):
        # with k=2 the test and validation folds take every subject
        with pytest.raises(ValueError, match="a test, a validation and a training fold"):
            cross_validate(
                [], FrameConfig(), 8, (("mlp", 4),), TrainConfig(), k=2, rounds=3, seed=0, num_classes=5
            )


def test_a_model_keeps_the_frame_its_codebook_was_fitted_under(tmp_path):
    # both frames are 220 features wide, so only the stored frame tells them apart
    recs = generate_cohort(SynthConfig(n_recordings=3, epochs_per_recording=24, seed=5))
    frame = FrameConfig(freq_components=6, cepstrum_components=20)
    assert frame.dim == FrameConfig().dim
    model, _ = fit_model(
        recs[:-1], recs[-1:], frame, 8, (("mlp", 4),), TrainConfig(max_passes=1), 5, (1, 2, 3)
    )
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.frame == frame

    def centres(under):
        lows = [recording_low_features(r, under) for r in recs[:-1]]
        return fit_pipeline(lows, 8, seed=1).dictionary.centers

    assert loaded.pipeline.dictionary.centers.tobytes() == centres(frame).tobytes()
    assert not np.array_equal(loaded.pipeline.dictionary.centers, centres(FrameConfig()))
