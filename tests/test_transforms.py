import itertools

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

from sleepstager.transforms import LOG_FLOOR, dct2, real_cepstrum


def idct2(c):
    """Inverse of ``dct2``: the orthonormal type-III transform."""
    return scipy.fft.idct(np.asarray(c, dtype=np.float64), type=2, norm="ortho")


def full_cepstrum(x):
    """Every coefficient of the real cepstrum, through complex FFTs of the whole signal."""
    mag = np.abs(np.fft.fft(np.asarray(x, dtype=np.float64)))
    return np.real(np.fft.ifft(np.log(np.maximum(mag, LOG_FLOOR))))


def naive_dct2(x):
    """Direct cosine-sum evaluation of the orthonormal type-II transform."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for j in range(n):
            acc += x[j] * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
        out[k] = 2.0 * acc
    out[0] *= np.sqrt(1.0 / (4.0 * n))
    out[1:] *= np.sqrt(1.0 / (2.0 * n))
    return out


def naive_cepstrum(x):
    """Cepstrum via explicit O(N^2) DFT sums."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    spec = np.zeros(n, dtype=complex)
    for k in range(n):
        for j in range(n):
            spec[k] += x[j] * np.exp(-2j * np.pi * k * j / n)
    logmag = np.log(np.maximum(np.abs(spec), 1e-12))
    out = np.zeros(n, dtype=complex)
    for q in range(n):
        for k in range(n):
            out[q] += logmag[k] * np.exp(2j * np.pi * k * q / n)
    return np.real(out / n)


class TestDct:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            x = rng.standard_normal(n)
            np.testing.assert_allclose(dct2(x), naive_dct2(x), atol=1e-9, rtol=0)

    def test_constant_signal_concentrates_in_dc(self):
        x = np.full(30, 3.0)
        c = dct2(x)
        np.testing.assert_allclose(c[0], 3.0 * np.sqrt(30.0), atol=1e-12)
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(int(rng.integers(2, 64)))
            np.testing.assert_allclose(
                np.linalg.norm(dct2(x)), np.linalg.norm(x), rtol=1e-12
            )

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(33)
        np.testing.assert_allclose(idct2(dct2(x)), x, atol=1e-12)

    def test_batched_rows(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((5, 17))
        batched = dct2(xs)
        for i in range(5):
            np.testing.assert_allclose(batched[i], dct2(xs[i]), atol=1e-12)


class TestCepstrum:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(2, 32))
            x = rng.standard_normal(n) + 1.0
            np.testing.assert_allclose(real_cepstrum(x, n), naive_cepstrum(x), atol=1e-9, rtol=0)

    def test_output_is_real_and_same_length(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64)
        c = real_cepstrum(x, 64)
        assert c.dtype == np.float64
        assert c.shape == x.shape

    def test_zero_signal_hits_log_floor(self):
        # |FFT| of all-zeros is 0 everywhere; the floor keeps log finite
        c = real_cepstrum(np.zeros(16), 16)
        assert np.all(np.isfinite(c))
        np.testing.assert_allclose(c[0], np.log(1e-12), atol=1e-12)
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)

    def test_scale_shifts_only_quefrency_zero(self):
        # scaling x multiplies the spectrum, adding log|a| to every log bin,
        # which moves only the first cepstral coefficient
        rng = np.random.default_rng(6)
        x = rng.standard_normal(32) + 2.0
        a = 3.5
        base = real_cepstrum(x, 32)
        scaled = real_cepstrum(a * x, 32)
        np.testing.assert_allclose(scaled[0] - base[0], np.log(a), atol=1e-10)
        np.testing.assert_allclose(scaled[1:], base[1:], atol=1e-10)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            real_cepstrum(np.array([]), 1)
        with pytest.raises(ValueError):
            real_cepstrum(np.array([1.0]), 1)

    def test_circular_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(24)
        shifted = np.roll(x, 7)
        np.testing.assert_allclose(real_cepstrum(shifted, 24), real_cepstrum(x, 24), atol=1e-9)

    @given(st.integers(2, 2048), st.data())
    def test_leading_coefficients_match_full_transform(self, n, data):
        c = data.draw(st.integers(1, n), label="components")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        x = np.random.default_rng(seed).standard_normal(n) + data.draw(st.sampled_from([0.0, 1.0]))
        np.testing.assert_allclose(real_cepstrum(x, c), full_cepstrum(x)[:c], atol=1e-9, rtol=0)

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(9)
        for n, b in itertools.product((5, 7, 137, 959, 960, 1000), (1, 4)):
            c = min(n, 30)
            # strided rows, as cepstrum_block passes them
            xs = rng.standard_normal((b, n, 3)).transpose(0, 2, 1)
            batched = real_cepstrum(xs, c)
            for i in range(b):
                for a in range(3):
                    assert real_cepstrum(xs[i, a], c).tobytes() == batched[i, a].tobytes()
            assert real_cepstrum(xs[-1:], c).tobytes() == batched[-1:].tobytes()

    def test_components_out_of_range_rejected(self):
        for c in (0, 9):
            with pytest.raises(ValueError, match="components must be between 1 and 8"):
                real_cepstrum(np.ones(8), c)
