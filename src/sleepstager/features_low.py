"""Low-level per-epoch features: mean RR, a DCT frequency stack, actigraphy cepstra.

Each scored epoch is described by a 220-dim vector (at defaults) built from
three blocks:

    mean_rr   10 dims   mean RR interval of each epoch in a 10-epoch frame
    freq     120 dims   per frame epoch: first 5 DCT coefficients of the RR
                        sequence plus their first and second differences
                        (5 + 4 + 3 = 12), concatenated over the frame
    act_ceps  90 dims   per axis of the current epoch only: first-difference
                        the acceleration, take the real cepstrum, keep the
                        first 30 coefficients

Heart rate context comes from the whole frame; actigraphy stays local to
the epoch being described. Every block is computed once per epoch for the
whole recording, and frames gather their epochs' rows by index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataValidationError
from .ingest import MIN_EPOCH_ACTIGRAPHY, Recording
from .ingest import epoch_actigraphy, epoch_rr, impute_empty_rr
from .transforms import dct2, real_cepstrum

# Epochs per batched cepstrum call: bounds the transient complex spectra
# to a few MB whatever the night's length.
CEPSTRUM_CHUNK = 64


@dataclass(frozen=True)
class FrameConfig:
    """Sizes of the three low-level feature blocks."""

    frame_epochs: int = 10
    freq_components: int = 5
    cepstrum_components: int = 30

    def __post_init__(self):
        if self.frame_epochs < 1:
            raise ConfigError("frame_epochs must be >= 1")
        if self.freq_components < 3:
            raise ConfigError("freq_components must be >= 3 so the second difference is non-empty")
        if self.cepstrum_components < 1:
            raise ConfigError("cepstrum_components must be >= 1")

    @property
    def dim(self) -> int:
        f, n, c = self.frame_epochs, self.freq_components, self.cepstrum_components
        return f + f * (3 * n - 3) + 3 * c


def frame_indices(t, total: int, frame_epochs: int) -> np.ndarray:
    """Contiguous frame of epoch indices around t, shifted to fit in range.

    For even widths the window is asymmetric ([t-5, t+4] at width 10); near
    the record edges it slides inward rather than padding, so it always
    holds frame_epochs real epochs and always contains t. An array of
    epoch indices gives one frame per index, along a new last axis.
    """
    if total < frame_epochs:
        raise ValueError(f"recording has {total} epochs, frame needs {frame_epochs}")
    t = np.asarray(t)
    if np.any((t < 0) | (t >= total)):
        raise ValueError(f"epoch index {t} out of range [0, {total})")
    start = np.clip(t - frame_epochs // 2, 0, total - frame_epochs)
    return start[..., None] + np.arange(frame_epochs)


def _zeros(shape) -> np.ndarray:
    """``np.zeros``; a shape too big for numpy to address runs out of memory."""
    try:
        return np.zeros(shape)
    except ValueError as exc:
        raise MemoryError(str(exc)) from exc


def dct_block(rr_epochs: list[np.ndarray], n: int) -> np.ndarray:
    """Leading DCT coefficients of each epoch's RR sequence plus differences.

    The first n coefficients capture the slow trend of the interval series
    (energy compaction pushes signal into the leading bins). Each epoch's
    coefficient vector is zero-padded to n when it holds fewer than n
    samples, then first and second adjacent differences are appended: one
    row of n + (n-1) + (n-2) values per epoch. Epochs with the same number
    of intervals are transformed together.
    """
    d = _zeros((len(rr_epochs), n))
    lengths = np.array([rr.size for rr in rr_epochs], dtype=np.int64)
    for m in np.unique(lengths):
        group = np.flatnonzero(lengths == m)
        take = min(n, m)
        d[group, :take] = dct2(np.stack([rr_epochs[k] for k in group]))[:, :take]
    return np.concatenate([d, np.diff(d, axis=1), np.diff(d, n=2, axis=1)], axis=1)


def cepstrum_block(act_epochs: list[np.ndarray], cepstrum_components: int) -> np.ndarray:
    """Leading cepstral coefficients of each axis's first-differenced signal.

    Entry k of ``act_epochs`` has shape (m_k, 3), m_k >= 3. Differencing
    removes the gravity offset so the cepstrum sees movement, not posture.
    Each epoch's row is x|y|z, 3 * cepstrum_components values; coefficient
    runs shorter than requested (tiny epochs) are zero-padded. Epochs of
    equal length are transformed together, CEPSTRUM_CHUNK at a time.
    """
    c = cepstrum_components
    lengths = np.array([a.shape[0] for a in act_epochs], dtype=np.int64)
    short = np.flatnonzero(lengths < MIN_EPOCH_ACTIGRAPHY)
    if short.size:
        raise ValueError(
            f"actigraphy epoch {short[0]} needs at least {MIN_EPOCH_ACTIGRAPHY} samples"
        )
    out = _zeros((len(act_epochs), 3, c))
    for m in np.unique(lengths):
        group = np.flatnonzero(lengths == m)
        take = min(c, m - 1)
        for start in range(0, group.size, CEPSTRUM_CHUNK):
            ks = group[start : start + CEPSTRUM_CHUNK]
            samples = np.stack([act_epochs[k] for k in ks])  # (b, m, 3)
            out[ks, :, :take] = real_cepstrum(np.diff(samples, axis=1).transpose(0, 2, 1), take)
    return out.reshape(len(act_epochs), 3 * c)


def recording_low_features(rec: Recording, cfg: FrameConfig) -> np.ndarray:
    """Low-level feature matrix for a whole recording, shape (num_epochs, dim).

    Row t is the frame's mean RR intervals, then the frame's DCT blocks in
    frame order, then epoch t's own cepstra: heart rate blocks read the
    whole frame around t (``frame_indices``), the actigraphy block reads
    epoch t alone. Empty RR epochs are imputed first. Finite signals that
    overflow into a non-finite row are a data error naming the subject.
    """
    n = rec.num_epochs
    if n < cfg.frame_epochs:
        raise DataValidationError(
            f"{rec.subject_id}: recording has {n} epochs, frame needs {cfg.frame_epochs}"
        )
    rr_epochs = impute_empty_rr(epoch_rr(rec))
    act_epochs = epoch_actigraphy(rec)
    frames = frame_indices(np.arange(n), n, cfg.frame_epochs)
    mean_rr = np.array([np.mean(rr) for rr in rr_epochs])
    freq = dct_block(rr_epochs, cfg.freq_components)
    ceps = cepstrum_block(act_epochs, cfg.cepstrum_components)
    low = np.concatenate([mean_rr[frames], freq[frames].reshape(n, -1), ceps], axis=1)
    bad = np.flatnonzero(~np.isfinite(low).all(axis=1))
    if bad.size:
        msg = f"epoch {bad[0]} has non-finite low-level features (its signals overflow float64)"
        raise DataValidationError(f"{rec.subject_id}: {msg}")
    return low
