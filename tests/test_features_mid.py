import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sleepstager import features_mid
from sleepstager.errors import NumericError
from sleepstager.features_mid import (
    Dictionary,
    NormStats,
    bow_encode,
    kmeans_fit,
    zscore_apply,
    zscore_fit,
)
from sleepstager.pipeline import FittedPipeline, fit_pipeline


def blobs(rng, k, per_blob, dim, spread=8.0, std=0.5):
    """Well-separated Gaussian blobs plus their true sample means."""
    centers = spread * rng.standard_normal((k, dim))
    samples, means = [], []
    for j in range(k):
        pts = centers[j] + std * rng.standard_normal((per_blob, dim))
        samples.append(pts)
        means.append(pts.mean(axis=0))
    return np.concatenate(samples), np.array(means), std


def sq_dist(x, c):
    return np.maximum(
        np.sum(x**2, axis=1)[:, None] + np.sum(c**2, axis=1)[None, :] - 2.0 * x @ c.T, 0.0
    )


def choice_seeding(samples, k, rng):
    """Spread-out seeding that draws each new center with ``rng.choice``."""
    n = samples.shape[0]
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    d2 = sq_dist(samples, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = samples[rng.integers(n)]
            continue
        centers[j] = samples[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, sq_dist(samples, centers[j : j + 1]).ravel())
    return centers


def recomputing_kmeans(samples, k, seed, max_iters=100, tol=1e-6):
    """k-means as it was written before sample norms were computed once per
    fit: every distance call squares and sums all samples again."""
    samples = np.asarray(samples, dtype=np.float64)
    centers = choice_seeding(samples, k, np.random.default_rng(seed))
    history, prev = [], np.inf
    for _ in range(max_iters):
        assign = np.argmin(sq_dist(samples, centers), axis=1)
        point_d2 = np.sum((samples - centers[assign]) ** 2, axis=1)
        objective = float(point_d2.sum())
        history.append(objective)
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            for cluster, point in zip(empties, np.argsort(point_d2)[::-1]):
                assign[point] = cluster
            counts = np.bincount(assign, minlength=k)
        for j in range(k):
            if counts[j]:
                centers[j] = samples[assign == j].mean(axis=0)
        if prev < np.inf and ((prev - objective) / prev if prev > 0 else 0.0) < tol:
            break
        prev = objective
    return centers, tuple(history)


class TestKmeans:
    def test_exact_recovery_of_distinct_points(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((6, 4)) * 10.0
        d = kmeans_fit(pts, k=6, seed=1)
        assert d.objective == 0.0
        # centers are the points, up to order
        got = sorted(map(tuple, np.round(d.centers, 9)))
        want = sorted(map(tuple, np.round(pts, 9)))
        assert got == want

    def test_blob_means_recovered(self):
        rng = np.random.default_rng(1)
        samples, means, std = blobs(rng, k=2, per_blob=200, dim=5)
        d = kmeans_fit(samples, k=2, seed=3)
        tol = 3.0 * std / np.sqrt(200)
        for m in means:
            dist = np.linalg.norm(d.centers - m, axis=1).min()
            assert dist < tol

    def test_objective_never_increases(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            samples = rng.standard_normal((60, 7))
            d = kmeans_fit(samples, k=8, seed=trial)
            h = np.array(d.objective_history)
            assert np.all(np.diff(h) <= 1e-9 * np.maximum(h[:-1], 1.0))

    def test_seed_reproducibility_bitwise(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((50, 6))
        a = kmeans_fit(samples, k=5, seed=17)
        b = kmeans_fit(samples, k=5, seed=17)
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.objective_history == b.objective_history

    def test_different_seeds_may_differ_but_stay_valid(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((40, 3))
        for seed in range(5):
            d = kmeans_fit(samples, k=4, seed=seed)
            assert d.centers.shape == (4, 3)
            assert np.all(np.isfinite(d.centers))

    def test_duplicate_points_fewer_than_k_distinct(self):
        # more clusters than distinct values forces empty-cluster repair
        samples = np.repeat(np.array([[0.0], [1.0], [2.0]]), 10, axis=0)
        d = kmeans_fit(samples, k=5, seed=0)
        h = np.array(d.objective_history)
        assert np.all(np.diff(h) <= 1e-12)
        assert np.all(np.isfinite(d.centers))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((3, 2)), k=4, seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k, stage", [(2, "seeding"), (1, "iteration 1")])
    def test_overflowing_squared_distances_are_a_numeric_error(self, k, stage):
        # finite samples 2e200 apart; with one word seeding sums no distances,
        # so the first objective is where the overflow shows
        samples = np.array([[1e200], [-1e200], [0.0]])
        with pytest.raises(NumericError, match=f"k-means {stage}: .*overflows? float64"):
            kmeans_fit(samples, k=k, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            kmeans_fit(np.zeros((3, 2)), k=k, seed=0)

    # the last case has the bench's width and word count, words close to
    # rows, and 59 empty clusters to repair in each of its iterations
    @pytest.mark.parametrize(
        "n,dim,k,seed",
        [(60, 7, 8, 0), (200, 13, 30, 5), (30, 1, 5, 2), (97, 40, 97, 9), (320, 220, 300, 11)],
    )
    def test_matches_recomputing_oracle_byte_for_byte(self, n, dim, k, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0, size=dim)
        samples[: n // 4] = samples[0]  # coincident points reach the D² = 0 branch
        d = kmeans_fit(samples, k=k, seed=seed)
        centers, history = recomputing_kmeans(samples, k, seed)
        assert d.centers.tobytes() == centers.tobytes()
        assert d.objective_history == history
        # the distances themselves, which a last-bit change could alter
        # without moving any assignment
        norms = features_mid._squared_norms(samples)
        got = features_mid._squared_distances(samples, centers, norms)
        assert got.tobytes() == sq_dist(samples, centers).tobytes()

    @given(st.integers(0, 2**64 - 1), st.integers(1, 60), st.integers(1, 5), st.integers(0, 60))
    def test_seeding_draws_as_rng_choice_does(self, seed, n, dim, repeats):
        # random D² rows: spread scales, and repeated points for D² = 0
        data = np.random.default_rng(seed)
        samples = data.standard_normal((n, dim)) * 10.0 ** data.uniform(-3, 3, size=dim)
        samples[: min(repeats, n)] = samples[0]
        k = int(data.integers(1, n + 1))
        norms = features_mid._squared_norms(samples)
        rng = np.random.Generator(np.random.Philox(seed))
        got = features_mid._plusplus_init(samples, norms, k, rng)
        expect = choice_seeding(samples, k, np.random.Generator(np.random.Philox(seed)))
        assert got.tobytes() == expect.tobytes()


class TestBowEncode:
    def test_coincident_point_gives_zero(self):
        centers = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = Dictionary(centers=centers, objective_history=(0.0,))
        out = bow_encode(np.array([[3.0, 4.0]]), d)
        np.testing.assert_allclose(out, [[5.0, 0.0]], atol=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((12, 9))
        d = Dictionary(centers=centers, objective_history=(0.0,))
        for _ in range(20):
            f = rng.standard_normal(9)
            naive = np.array([np.linalg.norm(f - c) for c in centers])
            np.testing.assert_allclose(bow_encode(f[None, :], d)[0], naive, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        centers = rng.standard_normal((4, 3))
        d = Dictionary(centers=centers, objective_history=(0.0,))
        batch = rng.standard_normal((7, 3))
        out = bow_encode(batch, d)
        assert out.shape == (7, 4)
        for i in range(7):
            np.testing.assert_allclose(out[i], bow_encode(batch[i : i + 1], d)[0], atol=1e-12)

    def test_nonnegative_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        centers = rng.standard_normal((5, 4))
        d = Dictionary(centers=centers, objective_history=(0.0,))
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        da, db = bow_encode(np.stack([a, b]), d)
        assert np.all(da >= 0)
        assert np.all(np.abs(da - db) <= np.linalg.norm(a - b) + 1e-12)

    def test_dimension_mismatch_rejected(self):
        d = Dictionary(centers=np.zeros((2, 3)), objective_history=(0.0,))
        for features in (np.zeros((2, 4)), np.zeros(4), np.zeros(3), np.zeros(())):
            with pytest.raises(ValueError, match=r"features must have shape \(n, 3\)"):
                bow_encode(features, d)


class TestAssembleAndZscore:
    def test_layout(self):
        # a final row is the low block, then the distance to each word
        low = np.arange(6.0).reshape(2, 3)
        centers = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 9.0]])
        d = Dictionary(centers=centers, objective_history=(0.0,))
        unit = NormStats(mean=np.zeros(5), std=np.ones(5))
        final = FittedPipeline(d, unit).transform(low)
        assert final.shape == (2, 5)
        np.testing.assert_array_equal(final[:, :3], low)
        np.testing.assert_allclose(final[:, 3:], np.sqrt([[0.0, 67.0], [27.0, 16.0]]), atol=1e-12)

    def test_zscore_hand_example(self):
        stats = zscore_fit(np.array([[0.0, 5.0], [2.0, 5.0]]))
        np.testing.assert_allclose(stats.mean, [1.0, 5.0])
        np.testing.assert_allclose(stats.std, [1.0, 0.0])

    def test_train_set_standardized(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 6)) * 3.0 + 1.0
        stats = zscore_fit(x)
        z = zscore_apply(x, stats)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_dimension_maps_to_zero(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10.0)
        stats = zscore_fit(x)
        z = zscore_apply(x, stats)
        np.testing.assert_array_equal(z[:, 0], 0.0)
        assert np.all(np.isfinite(z))

    def test_mean_input_maps_to_zero_vector(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((20, 4))
        stats = zscore_fit(x)
        np.testing.assert_allclose(zscore_apply(stats.mean, stats), 0.0, atol=1e-12)

    def test_stats_ignore_other_rows(self):
        rng = np.random.default_rng(10)
        train = rng.standard_normal((30, 4))
        stats1 = zscore_fit(train)
        stats2 = zscore_fit(train)  # refit after unrelated data changes
        _ = rng.standard_normal((30, 4)) * 100
        np.testing.assert_array_equal(stats1.mean, stats2.mean)
        np.testing.assert_array_equal(stats1.std, stats2.std)

    def test_guards(self):
        with pytest.raises(ValueError):
            zscore_fit(np.zeros((1, 3)))
        stats = NormStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(ValueError):
            zscore_apply(np.zeros(4), stats)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_transform_of_overflowing_distances_is_a_numeric_error():
    rng = np.random.default_rng(11)
    pipeline = fit_pipeline([rng.standard_normal((20, 3))], num_words=4, seed=0)
    # finite rows whose squared codebook distances overflow float64
    with pytest.raises(NumericError, match="features overflow float64"):
        pipeline.transform(np.full((2, 3), 1e200))
