"""Spectral primitives shared by the feature extractors.

Thin wrappers so the rest of the package has one place that fixes the
transform conventions: the cosine transform is the orthonormal type-II
variant (making it an isometry, with type-III as its exact inverse), and
the cepstrum is the real cepstrum with the log magnitude floored to keep
zeros in the spectrum from producing -inf.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

LOG_FLOOR = 1e-12


def dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal type-II discrete cosine transform along the last axis."""
    return scipy.fft.dct(np.asarray(x, dtype=np.float64), type=2, norm="ortho")


def idct2(c: np.ndarray) -> np.ndarray:
    """Inverse of ``dct2`` (orthonormal type-III transform)."""
    return scipy.fft.idct(np.asarray(c, dtype=np.float64), type=2, norm="ortho")


def real_cepstrum(x: np.ndarray) -> np.ndarray:
    """Real cepstrum: inverse DFT of the floored log magnitude spectrum.

    Transforms along the last axis, so each row of a batch is its own
    signal. The magnitude is clamped below at 1e-12 before the log. The result of
    the inverse DFT is real up to rounding because the log magnitude is an
    even sequence; the real part is returned explicitly.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError(f"cepstrum needs at least 2 samples, got shape {x.shape}")
    mag = np.abs(np.fft.fft(x))
    return np.real(np.fft.ifft(np.log(np.maximum(mag, LOG_FLOOR))))
