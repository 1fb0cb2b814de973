"""Spectral primitives shared by the feature extractors.

Thin wrappers so the rest of the package has one place that fixes the
transform conventions: the cosine transform is the orthonormal type-II
variant (an isometry), and the cepstrum is the real cepstrum with the log
magnitude floored to keep zeros in the spectrum from producing -inf.

Only the leading cepstral coefficients are ever used, so ``real_cepstrum``
computes just those: the log magnitude of a real signal's spectrum is real
and even, so its inverse DFT is a cosine sum over the non-negative
frequencies of the real-input FFT, taken as one product with a cached
cosine table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft

LOG_FLOOR = 1e-12


def dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal type-II discrete cosine transform along the last axis."""
    return scipy.fft.dct(np.asarray(x, dtype=np.float64), type=2, norm="ortho")


# One table per (signal length, coefficient count) in use: a night's
# epochs share a few lengths, and a table is at most (n//2 + 1) x c floats.
@lru_cache(maxsize=32)
def _cosine_table(n: int, c: int) -> np.ndarray:
    """(n//2 + 1, c) weights taking log|rfft| to cepstral coefficients 0..c-1.

    Row k is w_k cos(2 pi k q / n) / n, with w_k = 2 for the bins that stand
    for a conjugate pair and 1 for DC and, when n is even, Nyquist. The
    phase k q is reduced mod n in integers so the angle stays in [0, 2 pi).
    """
    k = np.arange(n // 2 + 1)
    weights = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
    phase = np.outer(k, np.arange(c)) % n
    table = weights[:, None] * np.cos(2.0 * np.pi * phase / n) / n
    table.setflags(write=False)
    return table


def real_cepstrum(x: np.ndarray, components: int) -> np.ndarray:
    """Leading ``components`` coefficients of the real cepstrum along the last axis.

    The real cepstrum is the inverse DFT of the log magnitude spectrum, the
    magnitude clamped below at 1e-12 before the log; each row of a batch is
    its own signal and ``1 <= components <= x.shape[-1]``. Each row's
    spectrum is its own vector-matrix product with the cosine table, so a
    row's result does not depend on the batch it is computed in.
    """
    # contiguous rows give a contiguous spectrum, which numpy multiplies
    # through BLAS; a strided one takes its own loop and rounds differently
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError(f"cepstrum needs at least 2 samples, got shape {x.shape}")
    n = x.shape[-1]
    if not 1 <= components <= n:
        raise ValueError(f"components must be between 1 and {n}, got {components}")
    log_mag = np.log(np.maximum(np.abs(np.fft.rfft(x)), LOG_FLOOR))
    return np.matmul(log_mag[..., None, :], _cosine_table(n, components))[..., 0, :]
