"""Mid-level features: a k-means codebook over epochs plus z-score normalization.

The low-level vectors of the training split are clustered into K prototype
"words". Each epoch is then re-described by its Euclidean distance to every
word, and the distance block is concatenated onto the low-level block to
form the final per-epoch feature (220 + 300 = 520 dims at defaults), which
is z-scored with statistics fitted on the training split alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import NumericError

KMEANS_MAX_ITERS = 100
KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class Dictionary:
    """K learned prototype vectors plus how the fit went.

    ``objective_history`` records the total squared distance at each
    assignment step; Lloyd guarantees it never increases.
    """

    centers: np.ndarray
    iterations: int
    objective: float
    objective_history: tuple[float, ...]

    @property
    def num_words(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean and population standard deviation of the train split."""

    mean: np.ndarray
    std: np.ndarray


def _squared_norms(x: np.ndarray) -> np.ndarray:
    return np.sum(x**2, axis=1)


def _squared_distances(
    samples: np.ndarray, centers: np.ndarray, sample_norms: np.ndarray | None = None
) -> np.ndarray:
    """All pairwise squared Euclidean distances, shape (n, K), clipped at 0.

    ``sample_norms`` is ``_squared_norms(samples)`` when the caller already has it.
    """
    if sample_norms is None:
        sample_norms = _squared_norms(samples)
    # doubling the (K, d) centers, not the (n, d) samples: exact, so the same bits
    sq = sample_norms[:, None] + _squared_norms(centers)[None, :] - samples @ (2.0 * centers).T
    return np.maximum(sq, 0.0)


def _plusplus_init(
    samples: np.ndarray, sample_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Spread-out seeding: each new center drawn with probability ∝ D²."""
    n = samples.shape[0]
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    d2 = _squared_distances(samples, centers[:1], sample_norms).ravel()
    for j in range(1, k):
        total = d2.sum()
        if not math.isfinite(total):
            raise NumericError("k-means seeding: squared distances overflow float64")
        if total <= 0.0:
            # every point coincides with a chosen center; any pick works
            centers[j] = samples[rng.integers(n)]
            continue
        centers[j] = samples[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _squared_distances(samples, centers[j : j + 1], sample_norms).ravel())
    return centers


def kmeans_fit(samples: np.ndarray, k: int, seed: int) -> Dictionary:
    """Lloyd's algorithm with spread-out seeding, deterministic given seed.

    Each iteration assigns points to their nearest center (ties to the
    lowest index), records the objective, repairs any empty cluster by
    handing it the point currently farthest from its assigned center, and
    recomputes centers as assignment means. Stops after KMEANS_MAX_ITERS
    iterations or when the relative objective improvement falls below
    KMEANS_TOL. Samples whose squared distances overflow float64 raise
    ``NumericError``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2-d array")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = samples.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} samples, got {n}")
    rng = np.random.default_rng(seed)
    sample_norms = _squared_norms(samples)
    centers = _plusplus_init(samples, sample_norms, k, rng)

    history: list[float] = []
    prev = np.inf
    iterations = 0
    for _ in range(KMEANS_MAX_ITERS):
        assign = np.argmin(_squared_distances(samples, centers, sample_norms), axis=1)
        # objective from direct subtraction so coincident point/center pairs
        # contribute exactly zero (the expanded form leaves ~1e-14 residue)
        point_d2 = np.sum((samples - centers[assign]) ** 2, axis=1)
        objective = float(point_d2.sum())
        if not math.isfinite(objective):
            raise NumericError(f"k-means iteration {iterations + 1}: objective overflows float64")
        history.append(objective)
        iterations += 1

        # repair: empty clusters steal the globally farthest points, one
        # each, before means are taken; the stolen point becomes a singleton
        # so its term drops to zero and no other term grows
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            order = np.argsort(point_d2)[::-1]
            for cluster, point in zip(empties, order):
                assign[point] = cluster
            counts = np.bincount(assign, minlength=k)

        for j in range(k):
            if counts[j]:
                centers[j] = samples[assign == j].mean(axis=0)

        if prev < np.inf:
            rel = (prev - objective) / prev if prev > 0 else 0.0
            if rel < KMEANS_TOL:
                break
        prev = objective

    return Dictionary(
        centers=centers,
        iterations=iterations,
        objective=history[-1],
        objective_history=tuple(history),
    )


def bow_encode(features: np.ndarray, dictionary: Dictionary) -> np.ndarray:
    """Euclidean distance from each feature row to every dictionary word: (n, d) -> (n, K)."""
    f = np.asarray(features, dtype=np.float64)
    d = dictionary.centers.shape[1]
    if f.ndim != 2 or f.shape[1] != d:
        raise ValueError(f"features must have shape (n, {d}), got {f.shape}")
    return np.sqrt(_squared_distances(f, dictionary.centers))


def assemble_final(low: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Concatenate low-level and distance blocks; rows stay aligned for batches."""
    low = np.asarray(low, dtype=np.float64)
    mid = np.asarray(mid, dtype=np.float64)
    if low.ndim != mid.ndim:
        raise ValueError("low and mid blocks must have matching rank")
    return np.concatenate([low, mid], axis=-1)


def zscore_fit(train_features: np.ndarray) -> NormStats:
    """Mean and population std of each dimension, training rows only."""
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a (n>=2, d) training matrix")
    return NormStats(mean=x.mean(axis=0), std=x.std(axis=0))


def zscore_apply(features: np.ndarray, stats: NormStats) -> np.ndarray:
    """Standardize; dimensions that were constant in training map to 0."""
    f = np.asarray(features, dtype=np.float64)
    if f.shape[-1] != stats.mean.shape[0]:
        raise ValueError(f"feature dim {f.shape[-1]} != stats dim {stats.mean.shape[0]}")
    safe = np.where(stats.std > 0.0, stats.std, 1.0)
    out = (f - stats.mean) / safe
    return np.where(stats.std > 0.0, out, 0.0)
