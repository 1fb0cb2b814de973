"""Reference implementations the vectorised ingest and feature code must match.

These are the straightforward per-epoch and per-row versions: one boolean
mask per epoch for bucketing, one feature vector per epoch assembled from
its frame, and a row-by-row CSV parser and writer. Tests compare the
package against them byte for byte.
"""

import csv
import os

import numpy as np

from sleepstager.features_low import FrameConfig
from sleepstager.ingest import EPOCH_SECONDS, DataValidationError, Recording, _fmt, impute_empty_rr
from sleepstager.transforms import dct2, real_cepstrum


def hr_to_rr(hr: float) -> float:
    """RR interval (s) between beats at ``hr`` beats per minute: 60 / hr."""
    if hr <= 0:
        raise DataValidationError(f"non-positive heart rate: {hr}")
    return 60.0 / hr


def mask_epoch_rr(rec: Recording) -> list[np.ndarray]:
    rr = np.array([hr_to_rr(hr) for hr in rec.hr.bpm.tolist()])
    idx = np.floor(rec.hr.t / EPOCH_SECONDS).astype(np.int64)
    return [rr[idx == k] for k in range(rec.num_epochs)]


def mask_epoch_actigraphy(rec: Recording) -> list[np.ndarray]:
    idx = np.floor(rec.act.t / EPOCH_SECONDS).astype(np.int64)
    return [rec.act.xyz[idx == k] for k in range(rec.num_epochs)]


def mean_rr_features(frame: list[np.ndarray]) -> np.ndarray:
    return np.array([float(np.mean(rr)) for rr in frame])


def dominant_freq_features(rr: np.ndarray, n: int) -> np.ndarray:
    coeffs = dct2(rr)
    d = np.zeros(n)
    take = min(n, coeffs.size)
    d[:take] = coeffs[:take]
    return np.concatenate([d, np.diff(d), np.diff(d, n=2)])


def actigraphy_features(samples: np.ndarray, cepstrum_components: int) -> np.ndarray:
    if samples.shape[0] < 2:
        raise ValueError("actigraphy epoch needs at least 2 samples")
    blocks = []
    take = min(cepstrum_components, samples.shape[0] - 1)
    for axis in range(3):
        block = np.zeros(cepstrum_components)
        block[:take] = real_cepstrum(np.diff(samples[:, axis]), take)
        blocks.append(block)
    return np.concatenate(blocks)


def low_level_for_epoch(rr_epochs, act_epochs, t: int, cfg: FrameConfig) -> np.ndarray:
    """Epoch t's vector: the frame's mean RR, the frame's DCT blocks, t's cepstra."""
    total, width = len(rr_epochs), cfg.frame_epochs
    if total < width:
        raise ValueError(f"recording has {total} epochs, frame needs {width}")
    start = min(max(t - width // 2, 0), total - width)
    frame = rr_epochs[start : start + width]
    freq = np.concatenate([dominant_freq_features(e, cfg.freq_components) for e in frame])
    act = actigraphy_features(act_epochs[t], cfg.cepstrum_components)
    return np.concatenate([mean_rr_features(frame), freq, act])


def per_epoch_low_features(rec: Recording, cfg: FrameConfig) -> np.ndarray:
    rr_epochs = impute_empty_rr(mask_epoch_rr(rec))
    act_epochs = mask_epoch_actigraphy(rec)
    rows = [low_level_for_epoch(rr_epochs, act_epochs, t, cfg) for t in range(rec.num_epochs)]
    return np.stack(rows, axis=0)


def row_loop_table(path: str, header: list[str], what: str) -> np.ndarray:
    """The csv-module parser: header check, one ``float`` per field, first bad row named."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [c.strip() for c in first] != header:
            raise DataValidationError(f"{path}: expected header '{','.join(header)}' at line 1")
        for row in reader:
            if not row:
                continue
            try:
                rows.append([float(row[i]) for i in range(len(header))])
            except (ValueError, IndexError) as exc:
                raise DataValidationError(f"{path}: bad row {row!r}") from exc
    if not rows:
        raise DataValidationError(f"{path}: no {what} samples")
    return np.array(rows)


def row_loop_save_recording(rec: Recording, directory: str) -> dict[str, str]:
    """The row-by-row writer: one f-string of ``_fmt`` values per row."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "hr": os.path.join(directory, f"{rec.subject_id}_hr.csv"),
        "act": os.path.join(directory, f"{rec.subject_id}_act.csv"),
        "labels": os.path.join(directory, f"{rec.subject_id}_labels.csv"),
    }
    with open(paths["hr"], "w", newline="") as fh:
        fh.write("t_seconds,bpm\n")
        for t, bpm in zip(rec.hr.t, rec.hr.bpm):
            fh.write(f"{_fmt(t)},{_fmt(bpm)}\n")
    with open(paths["act"], "w", newline="") as fh:
        fh.write("t_seconds,x_g,y_g,z_g\n")
        for t, (x, y, z) in zip(rec.act.t, rec.act.xyz):
            fh.write(f"{_fmt(t)},{_fmt(x)},{_fmt(y)},{_fmt(z)}\n")
    with open(paths["labels"], "w", newline="") as fh:
        fh.write("epoch_index,stage\n")
        for k, s in enumerate(rec.labels):
            fh.write(f"{k},{s}\n")
    return paths
