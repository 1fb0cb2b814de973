"""Parsing, validation, and epoching of raw sleep recordings.

One recording is a night of data for a single subject: timestamped heart
rate samples (beats/minute, irregular since the band emits one sample per
detected beat), triaxial wrist actigraphy (nominally 32 Hz, unit g), and one
sleep stage label per 30 s epoch. This module owns the on-disk CSV formats,
the report CSVs' cells (``write_csv``) and the recording files:

    heart rate:  header ``t_seconds,bpm``
    actigraphy:  header ``t_seconds,x_g,y_g,z_g``
    labels:      header ``epoch_index,stage`` with stage in
                 {W, N1, N2, N3, REM}, or the multi-scorer form
                 ``epoch_index,stage_1,...,stage_s`` which is reduced to a
                 consensus by plurality vote with previous-epoch tie-break.

All operations are pure; a Recording is immutable after construction.
"""

from __future__ import annotations

import csv
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataValidationError

EPOCH_SECONDS = 30.0
ACTIGRAPHY_RATE_HZ = 32.0
RATE_TOLERANCE = 0.05
# An epoch's cepstra are of its first-differenced actigraphy, and a
# cepstrum needs at least 2 values.
MIN_EPOCH_ACTIGRAPHY = 3
HR_HEADER = ["t_seconds", "bpm"]
ACT_HEADER = ["t_seconds", "x_g", "y_g", "z_g"]


class SleepStage(Enum):
    """The five canonical scoring stages."""

    W = "W"
    N1 = "N1"
    N2 = "N2"
    N3 = "N3"
    REM = "REM"


STAGE_ORDER = (SleepStage.W, SleepStage.N1, SleepStage.N2, SleepStage.N3, SleepStage.REM)
_STAGE_BY_NAME = {s.value: s for s in STAGE_ORDER}

# The label spaces: num_classes -> (class names in index order, stage ->
# class index). The 4-class space fuses W and N1.
_CLASS_SPACES = {
    5: (tuple(s.value for s in STAGE_ORDER), dict(zip(STAGE_ORDER, range(5)))),
    4: (("W+N1", "N2", "N3", "REM"), dict(zip(STAGE_ORDER, (0, 0, 1, 2, 3)))),
}


def _class_space(num_classes: int) -> tuple[tuple[str, ...], dict[SleepStage, int]]:
    if num_classes not in _CLASS_SPACES:
        raise ValueError(f"num_classes must be 4 or 5, got {num_classes}")
    return _CLASS_SPACES[num_classes]


def class_names(num_classes: int) -> tuple[str, ...]:
    """Class labels in index order for the 4- or 5-class mode."""
    return _class_space(num_classes)[0]


def stages_to_indices(labels, num_classes: int) -> np.ndarray:
    """Convert a stage sequence to integer class indices for the given mode."""
    index = _class_space(num_classes)[1]
    return np.array([index[s] for s in labels], dtype=np.int64)


@dataclass(frozen=True)
class HeartRateSeries:
    """Irregularly sampled heart rate: strictly increasing times, bpm > 0."""

    t: np.ndarray
    bpm: np.ndarray


@dataclass(frozen=True)
class ActigraphySeries:
    """Triaxial wrist acceleration. ``xyz`` has shape (n, 3), unit g."""

    t: np.ndarray
    xyz: np.ndarray


@dataclass(frozen=True)
class Recording:
    """One subject's validated night: signals plus one label per epoch.

    Signals are truncated to the label span at load time; construction
    rejects anything that does not reach the final epoch. Treat instances
    as immutable.
    """

    subject_id: str
    hr: HeartRateSeries
    act: ActigraphySeries
    labels: tuple[SleepStage, ...]
    epoch_seconds: float = EPOCH_SECONDS

    @property
    def num_epochs(self) -> int:
        return len(self.labels)


def _split_epochs(values: np.ndarray, t: np.ndarray, rec: Recording) -> list[np.ndarray]:
    """Rows of ``values`` (one per time in ``t``) bucketed into the recording's epochs.

    A sample at time t belongs to epoch floor(t / epoch_seconds); samples
    outside the span are dropped and each epoch keeps its samples' order.
    """
    idx = np.floor(t / rec.epoch_seconds).astype(np.int64)
    if np.any(idx[1:] < idx[:-1]):
        order = np.argsort(idx, kind="stable")
        idx, values = idx[order], values[order]
    bounds = np.searchsorted(idx, np.arange(rec.num_epochs + 1))
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def epoch_rr(rec: Recording) -> list[np.ndarray]:
    """Bucket heart rate samples into per-epoch RR interval arrays (seconds).

    Epoch windows are half-open [k*e, (k+1)*e), so every in-span sample
    lands in exactly one epoch. An epoch the band dropped out for comes
    back empty; ``impute_empty_rr`` fills it before feature extraction.
    """
    return _split_epochs(60.0 / rec.hr.bpm, rec.hr.t, rec)


def epoch_actigraphy(rec: Recording) -> list[np.ndarray]:
    """Bucket actigraphy samples per epoch; each entry has shape (n_k, 3).

    Entries may be views of ``rec.act.xyz``; treat them as read-only.
    """
    return _split_epochs(rec.act.xyz, rec.act.t, rec)


def impute_empty_rr(epochs: list[np.ndarray]) -> list[np.ndarray]:
    """Fill empty epochs with a copy of the nearest non-empty epoch's RR array.

    Ties in distance break toward the earlier epoch. Raises if every epoch
    is empty (nothing to copy from).
    """
    non_empty = [k for k, rr in enumerate(epochs) if rr.size]
    if not non_empty:
        raise DataValidationError("all epochs are empty; cannot impute RR intervals")
    positions = np.array(non_empty)
    return [
        rr if rr.size else epochs[positions[np.argmin(np.abs(positions - k))]].copy()
        for k, rr in enumerate(epochs)
    ]


def merge_scorer_labels(hypnograms: list[list[SleepStage]]) -> list[SleepStage]:
    """Reduce several scorers' hypnograms to a single consensus sequence.

    Each epoch takes the stage with strictly the most votes. When several
    stages tie for the most votes the consensus repeats the previous epoch's
    consensus stage; a tie at the very first epoch resolves to W (recordings
    begin pre-sleep).
    """
    if not hypnograms:
        raise DataValidationError("need at least one hypnogram")
    length = len(hypnograms[0])
    for h in hypnograms[1:]:
        if len(h) != length:
            raise DataValidationError(
                f"hypnogram lengths differ: {len(h)} vs {length}"
            )
    consensus: list[SleepStage] = []
    for t in range(length):
        votes = [h[t] for h in hypnograms]
        counts: dict[SleepStage, int] = {}
        for v in votes:
            counts[v] = counts.get(v, 0) + 1
        top = max(counts.values())
        winners = [s for s in STAGE_ORDER if counts.get(s, 0) == top]
        if len(winners) == 1:
            consensus.append(winners[0])
        elif t == 0:
            consensus.append(SleepStage.W)
        else:
            consensus.append(consensus[t - 1])
    return consensus


def _check_monotone(t: np.ndarray, what: str) -> None:
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise DataValidationError(f"{what} timestamps are not strictly increasing")


def _truncate(t: np.ndarray, span: float) -> np.ndarray:
    """Boolean mask keeping samples inside [0, span)."""
    return (t >= 0.0) & (t < span)


@contextmanager
def _open_csv(path: str):
    """Open a CSV for reading; bytes that are not UTF-8 are a data error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text") from exc


def _read_table(path: str, header: list[str], what: str) -> np.ndarray:
    """Parse a numeric CSV with the given header into shape (rows, len(header)).

    numpy parses the file in one call, so its grammar is the format: decimal
    and exponent numbers, ``nan`` and ``inf``, no quotes, ``_`` separators
    or comment lines. Extra columns are ignored and blank lines skipped; a
    row numpy refuses is a data error carrying numpy's row and column.
    """
    width = len(header)
    with _open_csv(path) as fh:
        first = next(csv.reader(fh), None)
        if first is None or [c.strip() for c in first] != header:
            raise DataValidationError(f"{path}: expected header '{','.join(header)}'")
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below as having no samples
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    path, delimiter=",", skiprows=1, comments=None, usecols=range(width), ndmin=2
                )
        except UnicodeDecodeError:
            raise  # reported by _open_csv
        except ValueError as exc:
            raise DataValidationError(f"{path}: {exc}") from exc
    if table.shape[0] == 0:
        raise DataValidationError(f"{path}: no {what} samples")
    return table


def load_heart_rate_csv(path: str) -> HeartRateSeries:
    """Parse a heart-rate CSV (header ``t_seconds,bpm``)."""
    table = _read_table(path, HR_HEADER, "heart rate")
    return HeartRateSeries(t=table[:, 0], bpm=table[:, 1])


def load_actigraphy_csv(path: str) -> ActigraphySeries:
    """Parse an actigraphy CSV (header ``t_seconds,x_g,y_g,z_g``)."""
    table = _read_table(path, ACT_HEADER, "actigraphy")
    return ActigraphySeries(t=table[:, 0], xyz=table[:, 1:])


def load_labels_csv(path: str) -> list[SleepStage]:
    """Parse a label CSV, merging multi-scorer columns when present.

    Indices must be contiguous from 0. The single-scorer header is
    ``epoch_index,stage``; multi-scorer files carry one column per scorer.
    """
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip() != "epoch_index":
            raise DataValidationError(f"{path}: expected header 'epoch_index,stage[,...]'")
        n_scorers = len(header) - 1
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != n_scorers + 1:
                raise DataValidationError(f"{path}: bad row {row!r}")
            rows.append(row)
    if not rows:
        raise DataValidationError(f"{path}: no labels")
    hypnograms: list[list[SleepStage]] = [[] for _ in range(n_scorers)]
    for expected_idx, row in enumerate(rows):
        try:
            idx = int(row[0])
        except ValueError as exc:
            raise DataValidationError(f"{path}: bad epoch index {row[0]!r}") from exc
        if idx != expected_idx:
            raise DataValidationError(
                f"{path}: epoch indices must be contiguous from 0, got {idx} at row {expected_idx}"
            )
        for s in range(n_scorers):
            name = row[s + 1].strip()
            if name not in _STAGE_BY_NAME:
                raise DataValidationError(f"{path}: unknown stage {name!r}")
            hypnograms[s].append(_STAGE_BY_NAME[name])
    if n_scorers == 1:
        return hypnograms[0]
    return merge_scorer_labels(hypnograms)


def load_recording(
    hr_path: str,
    act_path: str,
    label_path: str,
    subject_id: str,
    epoch_seconds: float = EPOCH_SECONDS,
) -> Recording:
    """Load and validate one recording from its three CSV files.

    Signals are truncated to the label span; a signal whose last sample does
    not reach the final epoch is rejected as too short. Heart rate must be
    strictly positive and at least one beat per epoch (``60 / bpm`` at most
    EPOCH_SECONDS), every epoch needs at least MIN_EPOCH_ACTIGRAPHY
    actigraphy samples, and the actigraphy's mean sample rate must sit
    within 5% of ACTIGRAPHY_RATE_HZ.
    """
    for p, what in ((hr_path, "heart rate"), (act_path, "actigraphy"), (label_path, "labels")):
        if not os.path.exists(p):
            raise DataValidationError(f"missing {what} file: {p}")
    labels = load_labels_csv(label_path)
    hr = load_heart_rate_csv(hr_path)
    act = load_actigraphy_csv(act_path)

    _check_monotone(hr.t, "heart rate")
    _check_monotone(act.t, "actigraphy")
    if np.any(hr.bpm <= 0):
        raise DataValidationError("non-positive heart rate sample")
    if not np.all(np.isfinite(hr.t)) or not np.all(np.isfinite(hr.bpm)):
        raise DataValidationError("non-finite heart rate data")
    slow = np.flatnonzero(hr.bpm < 60.0 / EPOCH_SECONDS)  # 60 / bpm > EPOCH_SECONDS
    if slow.size:
        raise DataValidationError(
            f"{hr_path}: heart rate {hr.bpm[slow[0]]:g} bpm at t={hr.t[slow[0]]:g} s: "
            f"its beat interval 60 / bpm exceeds one {EPOCH_SECONDS:g} s epoch"
        )
    if not np.all(np.isfinite(act.t)) or not np.all(np.isfinite(act.xyz)):
        raise DataValidationError("non-finite actigraphy data")

    span = len(labels) * epoch_seconds
    hr_keep = _truncate(hr.t, span)
    act_keep = _truncate(act.t, span)
    hr = HeartRateSeries(t=hr.t[hr_keep], bpm=hr.bpm[hr_keep])
    act = ActigraphySeries(t=act.t[act_keep], xyz=act.xyz[act_keep])

    last_epoch_start = (len(labels) - 1) * epoch_seconds
    if hr.t.size == 0 or hr.t[-1] < last_epoch_start:
        raise DataValidationError("heart rate signal shorter than label span")
    if act.t.size == 0 or act.t[-1] < last_epoch_start:
        raise DataValidationError("actigraphy signal shorter than label span")

    rec = Recording(
        subject_id=subject_id,
        hr=hr,
        act=act,
        labels=tuple(labels),
        epoch_seconds=epoch_seconds,
    )
    for k, samples in enumerate(epoch_actigraphy(rec)):
        if samples.shape[0] < MIN_EPOCH_ACTIGRAPHY:
            raise DataValidationError(
                f"actigraphy epoch {k} has {samples.shape[0]} sample(s); "
                f"every epoch needs at least {MIN_EPOCH_ACTIGRAPHY}"
            )
    mean_rate = (act.t.size - 1) / (act.t[-1] - act.t[0])
    if abs(mean_rate - ACTIGRAPHY_RATE_HZ) / ACTIGRAPHY_RATE_HZ > RATE_TOLERANCE:
        raise DataValidationError(
            f"actigraphy rate {mean_rate:.3f} Hz deviates more than "
            f"{RATE_TOLERANCE:.0%} from nominal {ACTIGRAPHY_RATE_HZ} Hz"
        )
    return rec


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(x))


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a report CSV: floats (numpy's too) in ``_fmt`` form, any other cell with ``str``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row) + "\n")


# Rows formatted and written per call in ``_write_table``: large enough to
# amortise the per-block work, small enough that a block's text stays
# under a megabyte whatever the night's length.
WRITE_CHUNK = 4096


def _write_table(path: str, header: list[str], t: np.ndarray, values: np.ndarray) -> None:
    """Write ``t`` and the columns of ``values`` (n, c) as a numeric CSV.

    The mirror of ``_read_table``. Every value is written as its float64's
    ``repr``, as ``_fmt`` does, so the file loads back bit for bit. Rows go
    out WRITE_CHUNK at a time: a block is copied into one float64 buffer,
    turned into Python floats with ``tolist`` and formatted by a single
    ``%`` of the row format repeated once per row.
    """
    n = len(t)
    if len(values) != n:
        raise ValueError(f"{path}: {n} times but {len(values)} rows of values")
    width = 1 + values.shape[1]
    row = ",".join(["%r"] * width) + "\n"
    block = np.empty((min(n, WRITE_CHUNK), width))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, WRITE_CHUNK):
            stop = min(start + WRITE_CHUNK, n)
            rows = block[: stop - start]
            rows[:, 0] = t[start:stop]
            rows[:, 1:] = values[start:stop]
            fh.write((row * (stop - start)) % tuple(rows.ravel().tolist()))


def save_recording(rec: Recording, directory: str) -> dict[str, str]:
    """Write a recording to ``<subject>_hr/act/labels.csv``; returns the paths.

    Floats are written in round-trip form so a load reproduces the arrays
    bit for bit.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {
        "hr": os.path.join(directory, f"{rec.subject_id}_hr.csv"),
        "act": os.path.join(directory, f"{rec.subject_id}_act.csv"),
        "labels": os.path.join(directory, f"{rec.subject_id}_labels.csv"),
    }
    _write_table(paths["hr"], HR_HEADER, rec.hr.t, rec.hr.bpm[:, None])
    _write_table(paths["act"], ACT_HEADER, rec.act.t, rec.act.xyz)
    with open(paths["labels"], "w", newline="") as fh:
        labels = "".join(f"{k},{s.value}\n" for k, s in enumerate(rec.labels))
        fh.write("epoch_index,stage\n" + labels)
    return paths


def discover_cohort(directory: str) -> list[str]:
    """Subject ids found in a cohort directory (files named ``<id>_hr.csv``)."""
    ids = []
    for name in sorted(os.listdir(directory)):
        if name.endswith("_hr.csv"):
            ids.append(name[: -len("_hr.csv")])
    return ids


def load_cohort(directory: str, epoch_seconds: float = EPOCH_SECONDS) -> list[Recording]:
    """Load every recording in a cohort directory, sorted by subject id."""
    ids = discover_cohort(directory)
    if not ids:
        raise DataValidationError(f"no recordings found in {directory}")
    recs = []
    for sid in ids:
        recs.append(
            load_recording(
                os.path.join(directory, f"{sid}_hr.csv"),
                os.path.join(directory, f"{sid}_act.csv"),
                os.path.join(directory, f"{sid}_labels.csv"),
                subject_id=sid,
                epoch_seconds=epoch_seconds,
            )
        )
    return recs
