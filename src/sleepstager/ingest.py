"""Parsing, validation, and epoching of raw sleep recordings.

One recording is a night of data for a single subject: timestamped heart
rate samples (beats/minute, irregular since the band emits one sample per
detected beat), triaxial wrist actigraphy (nominally 32 Hz, unit g), and one
sleep stage label per 30 s epoch. A label is the stage's name from the
labels file, one of STAGES, whose order is the class order. This module
owns the on-disk CSV formats, the report CSVs' cells (``write_csv``) and
the recording files. A night is a directory and a subject id, whose files
``night_paths`` names ``<id>_<kind>.csv``. ``_NIGHT_FILES`` is the format
table: each kind, ``hr``, ``act`` and ``labels``, with what its file holds
and its header. The signal files are numeric tables, a time column and
the samples; the labels file holds each epoch's index and stage in
STAGES, or one stage column per scorer, which is reduced to a consensus
by plurality vote with previous-epoch tie-break.

All operations are pure; a Recording is immutable after construction, and
a loaded one's arrays are read-only views of its files' parsed tables.
Loading runs in the calling process. Writing a recording's signal tables
formats their rows on every CPU the process may use, through the
``processes`` module, and writes the same bytes as one process would.
"""

from __future__ import annotations

import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .processes import _cpu_count, _forked

EPOCH_SECONDS = 30.0
ACTIGRAPHY_RATE_HZ = 32.0
RATE_TOLERANCE = 0.05
# An epoch's cepstra are of its first-differenced actigraphy, and a
# cepstrum needs at least 2 values.
MIN_EPOCH_ACTIGRAPHY = 3

# A night's files, ``<id>_<kind>.csv``, by kind: what each holds and its
# header, in the order ``load_recording`` checks them. A labels file may
# carry more than one stage column, one per scorer.
_NIGHT_FILES = {
    "hr": ("heart rate", ["t_seconds", "bpm"]),
    "act": ("actigraphy", ["t_seconds", "x_g", "y_g", "z_g"]),
    "labels": ("labels", ["epoch_index", "stage"]),
}

# The five scoring stages by name, in class index order.
STAGES = ("W", "N1", "N2", "N3", "REM")

# The label spaces: num_classes -> (class names in index order, stage ->
# class index). The 4-class space fuses W and N1.
_CLASS_SPACES = {
    5: (STAGES, dict(zip(STAGES, range(5)))),
    4: (("W+N1", "N2", "N3", "REM"), dict(zip(STAGES, (0, 0, 1, 2, 3)))),
}


def _class_space(num_classes: int) -> tuple[tuple[str, ...], dict[str, int]]:
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

    ``labels`` holds each epoch's stage name from STAGES, as the labels
    file spells it. The dataclass checks nothing: ``load_recording``
    truncates the signals to the label span and rejects a signal that does
    not reach the final epoch. Treat instances as immutable: the arrays of
    a loaded or generated night are read-only, and may be shared with
    other nights or be views of a larger table.
    """

    subject_id: str
    hr: HeartRateSeries
    act: ActigraphySeries
    labels: tuple[str, ...]

    @property
    def num_epochs(self) -> int:
        return len(self.labels)

    @property
    def epoch_seconds(self) -> float:
        return EPOCH_SECONDS


def _epoch_bounds(epochs: np.ndarray, num_epochs: int) -> np.ndarray:
    """Where each epoch's samples begin in ``epochs``, and where the last
    epoch's end: ``num_epochs + 1`` indices. ``epochs`` holds non-decreasing
    sample times counted in epochs, t / EPOCH_SECONDS, or their floors. A
    sample belongs to epoch floor(t / EPOCH_SECONDS), and for whole k,
    floor(q) >= k exactly when q >= k, so both give the same bounds."""
    return np.searchsorted(epochs, np.arange(num_epochs + 1))


def _split_epochs(values: np.ndarray, t: np.ndarray, rec: Recording) -> list[np.ndarray]:
    """Rows of ``values`` (one per time in ``t``) bucketed into the recording's epochs.

    A sample at time t belongs to epoch floor(t / EPOCH_SECONDS); samples
    outside the span are dropped and each epoch keeps its samples' order.
    """
    epochs = t / EPOCH_SECONDS
    if np.any(epochs[1:] < epochs[:-1]):  # out of order: a stable sort by epoch
        epochs = np.floor(epochs)
        order = np.argsort(epochs, kind="stable")
        epochs, values = epochs[order], values[order]
    bounds = _epoch_bounds(epochs, rec.num_epochs)
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


def merge_scorer_labels(hypnograms: list[list[str]]) -> list[str]:
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
    consensus: list[str] = []
    for t in range(length):
        votes = [h[t] for h in hypnograms]
        counts: dict[str, int] = {}
        for v in votes:
            counts[v] = counts.get(v, 0) + 1
        top = max(counts.values())
        winners = [s for s in STAGES if counts.get(s, 0) == top]
        if len(winners) == 1:
            consensus.append(winners[0])
        elif t == 0:
            consensus.append("W")
        else:
            consensus.append(consensus[t - 1])
    return consensus


def _check_signal(path: str, kind: str, table: np.ndarray) -> None:
    """A parsed signal table of finite samples at strictly increasing times,
    column 0. Finiteness is checked first: a nan time would otherwise read
    as out of order."""
    what, t = _NIGHT_FILES[kind][0], table[:, 0]
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(table[:, 1:]))):
        raise DataValidationError(f"{path}: non-finite {what} data")
    if not np.all(t[1:] > t[:-1]):
        raise DataValidationError(f"{path}: {what} timestamps are not strictly increasing")


def _in_span(path: str, kind: str, table: np.ndarray, num_epochs: int) -> np.ndarray:
    """The rows of a checked signal table whose time lies in the span of
    ``num_epochs`` epochs, read-only: the table itself when that is every
    row, else a compact copy that holds no row outside the span. A signal
    with no row in the final epoch is refused as too short."""
    final = (num_epochs - 1) * EPOCH_SECONDS
    start, last, stop = np.searchsorted(table[:, 0], [0.0, final, final + EPOCH_SECONDS])
    if last == stop:
        raise DataValidationError(f"{path}: {_NIGHT_FILES[kind][0]} signal shorter than label span")
    if stop - start < len(table):
        table = table[start:stop].copy()
    table.flags.writeable = False
    return table


@contextmanager
def _open_csv(path: str):
    """Open a CSV for reading; bytes that are not UTF-8 are a data error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text") from exc


def _read_table(path: str, kind: str) -> np.ndarray:
    """Parse a signal file of ``kind`` into shape (rows, len(header)).

    numpy parses the rows in one call, so its grammar is the format: decimal
    and exponent numbers, ``nan`` and ``inf``, no quotes, ``_`` separators
    or comment lines. Extra columns are ignored and blank lines skipped; a
    row numpy refuses is a data error naming its file line and column.
    """
    what, header = _NIGHT_FILES[kind]
    width = len(header)
    with _open_csv(path) as fh:
        if [c.strip() for c in fh.readline().split(",")] != header:
            raise DataValidationError(f"{path}: expected header '{','.join(header)}' at line 1")
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
            raise DataValidationError(f"{path}: {_at_file_line(str(exc), fh)}") from exc
    if table.shape[0] == 0:
        raise DataValidationError(f"{path}: no {what} samples")
    return table


def _at_file_line(message: str, fh) -> str:
    """numpy's message for a refused row with its row number, which counts the
    non-empty lines after the header from 0 for a bad value and from 1 for a
    short row, replaced by the 1-based line of the file ``fh`` reads."""
    found = re.search(r"at row (\d+)", message)
    if found is None:
        return message
    fh.seek(0)
    lines = [n for n, line in enumerate(fh, 1) if n > 1 and line.strip("\r\n")]
    row = int(found[1]) - message.startswith("invalid column index")
    return f"{message[: found.start()]}at line {lines[row]}{message[found.end() :]}"


def load_labels_csv(path: str) -> list[str]:
    """Parse a label CSV into its scorers' consensus (one scorer's is its own).

    Indices must be contiguous from 0. The header is ``_NIGHT_FILES``'s,
    with one stage column per scorer.
    Lines split on every comma, as headers do, so a quoted cell is refused. A
    refused header or row is a data error naming its file line.
    """
    with _open_csv(path) as fh:
        header = fh.readline().split(",")
        index, stage = _NIGHT_FILES["labels"][1]
        if len(header) < 2 or header[0].strip() != index:
            raise DataValidationError(f"{path}: expected header '{index},{stage}[,...]' at line 1")
        hypnograms: list[list[str]] = [[] for _ in header[1:]]
        for line_num, line in enumerate(fh, 2):
            row = line.rstrip("\r\n").split(",")
            if row == [""]:
                continue
            at = f"at line {line_num}"
            if len(row) != len(header):
                raise DataValidationError(f"{path}: bad row {row!r} {at}")
            try:
                idx = int(row[0])
            except ValueError as exc:
                raise DataValidationError(f"{path}: bad epoch index {row[0]!r} {at}") from exc
            if idx != len(hypnograms[0]):
                raise DataValidationError(
                    f"{path}: epoch indices must be contiguous from 0, got {idx} {at}"
                )
            for hypnogram, cell in zip(hypnograms, row[1:]):
                name = cell.strip()
                if name not in STAGES:
                    raise DataValidationError(f"{path}: unknown stage {name!r} {at}")
                hypnogram.append(name)
    if not hypnograms[0]:
        raise DataValidationError(f"{path}: no labels")
    return merge_scorer_labels(hypnograms)


def night_paths(directory: str, subject_id: str) -> dict[str, str]:
    """The paths of a night's heart rate, actigraphy and labels files, by kind."""
    return {kind: os.path.join(directory, f"{subject_id}_{kind}.csv") for kind in _NIGHT_FILES}


def load_recording(directory: str, subject_id: str) -> Recording:
    """Load and validate one night, the three files ``night_paths`` names.

    Signals are truncated to the label span; a signal whose last sample does
    not reach the final epoch is rejected as too short. Heart rate must be
    strictly positive and at least one beat per epoch (``60 / bpm`` at most
    EPOCH_SECONDS), every epoch needs at least MIN_EPOCH_ACTIGRAPHY
    actigraphy samples, and the actigraphy's mean sample rate must sit
    within 5% of ACTIGRAPHY_RATE_HZ.

    The night's arrays are read-only views of each file's parsed table, or,
    when the file runs past the span, of a compact copy of its rows in it.
    """
    paths = night_paths(directory, subject_id)
    for kind, (what, _) in _NIGHT_FILES.items():
        if not os.path.exists(paths[kind]):
            raise DataValidationError(f"missing {what} file: {paths[kind]}")
    labels = load_labels_csv(paths["labels"])
    # both signal files are parsed before either is checked
    tables = {kind: _read_table(paths[kind], kind) for kind in ("hr", "act")}
    for kind, table in tables.items():
        _check_signal(paths[kind], kind, table)
    hr_path, act_path = paths["hr"], paths["act"]
    hr_t, bpm = tables["hr"].T
    if np.any(bpm <= 0):
        raise DataValidationError(f"{hr_path}: non-positive heart rate sample")
    slow = np.flatnonzero(bpm < 60.0 / EPOCH_SECONDS)  # 60 / bpm > EPOCH_SECONDS
    if slow.size:
        raise DataValidationError(
            f"{hr_path}: heart rate {bpm[slow[0]]:g} bpm at t={hr_t[slow[0]]:g} s: "
            f"its beat interval 60 / bpm exceeds one {EPOCH_SECONDS:g} s epoch"
        )

    hr_table, act_table = (_in_span(paths[k], k, tab, len(labels)) for k, tab in tables.items())
    hr = HeartRateSeries(t=hr_table[:, 0], bpm=hr_table[:, 1])
    act = ActigraphySeries(t=act_table[:, 0], xyz=act_table[:, 1:])
    counts = np.diff(_epoch_bounds(act.t / EPOCH_SECONDS, len(labels)))
    sparse = np.flatnonzero(counts < MIN_EPOCH_ACTIGRAPHY)
    if sparse.size:
        k = sparse[0]
        raise DataValidationError(
            f"{act_path}: actigraphy epoch {k} has {counts[k]} sample(s); "
            f"every epoch needs at least {MIN_EPOCH_ACTIGRAPHY}"
        )
    mean_rate = (act.t.size - 1) / (act.t[-1] - act.t[0])
    if abs(mean_rate - ACTIGRAPHY_RATE_HZ) / ACTIGRAPHY_RATE_HZ > RATE_TOLERANCE:
        raise DataValidationError(
            f"{act_path}: actigraphy rate {mean_rate:.3f} Hz deviates more than "
            f"{RATE_TOLERANCE:.0%} from nominal {ACTIGRAPHY_RATE_HZ} Hz"
        )
    return Recording(subject_id=subject_id, hr=hr, act=act, labels=tuple(labels))


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
# Bytes the caller copies from a worker's pipe to the file per read.
COPY_BYTES = 1 << 18


def _format_rows(t: np.ndarray, values: np.ndarray, start: int, stop: int):
    """The CSV text of rows ``start:stop``, as bytes, WRITE_CHUNK rows at a time.

    A block is copied into one float64 buffer, turned into Python floats
    with ``tolist`` and formatted by a single ``%`` of the row format
    repeated once per row; ``%r`` of a float is ``_fmt``'s ``repr``.
    """
    width = 1 + values.shape[1]
    row = ",".join(["%r"] * width) + "\n"
    block = np.empty((min(stop - start, WRITE_CHUNK), width))
    for a in range(start, stop, WRITE_CHUNK):
        b = min(a + WRITE_CHUNK, stop)
        rows = block[: b - a]
        rows[:, 0] = t[a:b]
        rows[:, 1:] = values[a:b]
        yield ((row * (b - a)) % tuple(rows.ravel().tolist())).encode()


def _copy_share(pipe, fh) -> bool:
    """Copy a worker's share from its pipe to ``fh``, COPY_BYTES at a time:
    the length the worker sent, then that many bytes. False if the pipe
    ends first."""
    head = pipe.read(8)
    if len(head) < 8:
        return False
    left = int.from_bytes(head, "little")
    while left:
        chunk = pipe.read(min(left, COPY_BYTES))
        if not chunk:
            return False
        fh.write(chunk)
        left -= len(chunk)
    return True


def _write_table(path: str, kind: str, t: np.ndarray, values: np.ndarray) -> None:
    """Write ``t`` and the columns of ``values`` (n, c) as a signal file of ``kind``.

    The mirror of ``_read_table``. Every value is written as its float64's
    ``repr``, as ``_fmt`` does, so the file loads back bit for bit.

    The rows are split into P contiguous shares, P = min(``_cpu_count()``,
    n // WRITE_CHUNK), at least 1: formatting calls no BLAS, so every CPU
    counts. The table's ``_forked`` workers, forked before the file is
    opened, each format one share after the first with ``_format_rows``,
    hold its text and send it through their pipe. The caller formats share
    0 straight into the file, then copies each worker's share in order
    through a COPY_BYTES buffer, so it never holds more than a block of
    text. A share whose worker could not be forked or ends short (killed,
    or its formatting raised) is cut from the file and formatted by the
    caller. The bytes are the same on any P.
    """
    n = len(t)
    if len(values) != n:
        raise ValueError(f"{path}: {n} times but {len(values)} rows of values")
    workers = max(1, min(_cpu_count(), n // WRITE_CHUNK))
    bounds = [n * s // workers for s in range(workers + 1)]
    shares = list(zip(bounds[:-1], bounds[1:]))

    def send(share, out):
        text = list(_format_rows(t, values, *share))
        out.write(sum(map(len, text)).to_bytes(8, "little"))
        out.writelines(text)

    with _forked(send, shares[1:]) as children, open(path, "wb") as fh:
        fh.write((",".join(_NIGHT_FILES[kind][1]) + "\n").encode())
        fh.writelines(_format_rows(t, values, *shares[0]))
        for share, pid, pipe in children:
            start = fh.tell()
            if pid is None or not _copy_share(pipe, fh):
                fh.seek(start)
                fh.truncate()
                fh.writelines(_format_rows(t, values, *share))


def save_recording(rec: Recording, directory: str) -> dict[str, str]:
    """Write a recording to its ``night_paths`` in ``directory``; returns them.

    Floats are written in round-trip form so a load reproduces the arrays
    bit for bit.
    """
    os.makedirs(directory, exist_ok=True)
    paths = night_paths(directory, rec.subject_id)
    _write_table(paths["hr"], "hr", rec.hr.t, rec.hr.bpm[:, None])
    _write_table(paths["act"], "act", rec.act.t, rec.act.xyz)
    write_csv(paths["labels"], _NIGHT_FILES["labels"][1], enumerate(rec.labels))
    return paths


def discover_cohort(directory: str) -> list[str]:
    """Ids of the nights in a cohort directory, each found by any of its
    ``night_paths`` files, in the order of their heart-rate file names. An
    empty id, from a file named ``_hr.csv``, ``_act.csv`` or ``_labels.csv``,
    is refused, as is an id a report CSV's cell cannot hold, one with a comma
    or line break."""
    ends = night_paths("", "").values()  # "_hr.csv", "_act.csv", "_labels.csv"
    found = {name[: -len(e)] for name in os.listdir(directory) for e in ends if name.endswith(e)}
    ids = sorted(found, key=lambda sid: night_paths("", sid)["hr"])
    for sid in ids:
        if not sid:
            raise DataValidationError(
                f"{directory}: empty subject id (a file named _hr.csv, _act.csv or _labels.csv)"
            )
        if any(c in sid for c in ",\r\n"):
            raise DataValidationError(f"{directory}: subject id {sid!r} has a comma or line break")
    return ids


def load_cohort(directory: str) -> list[Recording]:
    """Load every night in a cohort directory, in ``discover_cohort``'s order."""
    ids = discover_cohort(directory)
    if not ids:
        raise DataValidationError(f"no recordings found in {directory}")
    return [load_recording(directory, sid) for sid in ids]
