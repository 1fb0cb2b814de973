"""A recording's tables are formatted on several processes and written as one
process writes them: the same bytes whatever the process count or a
worker's fault, a caller that never holds a worker's share of text, and no
process left behind.

Each test sets the CPU count the writer uses, so the forked path runs
whatever CPUs the host has.
"""

import errno
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from sleepstager import ingest
from sleepstager.ingest import (
    STAGES,
    WRITE_CHUNK,
    ActigraphySeries,
    HeartRateSeries,
    Recording,
    save_recording,
)
from test_ingest import EDGE_VALUES

from per_epoch_oracle import row_loop_save_recording


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def table_recording(n: int, seed: int = 0) -> Recording:
    """A night whose heart rate and actigraphy tables both have ``n`` rows,
    of normal draws with the writer's edge values among them."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(5 * n) * 10.0 ** rng.integers(-6, 6, size=5 * n)
    values[rng.integers(5 * n, size=len(EDGE_VALUES))] = EDGE_VALUES
    return Recording(
        subject_id="r",
        hr=HeartRateSeries(t=values[:n], bpm=values[n : 2 * n]),
        act=ActigraphySeries(t=values[:n][::-1], xyz=values[2 * n :].reshape(n, 3)),
        labels=tuple(STAGES[i] for i in rng.integers(len(STAGES), size=4)),
    )


def assert_written_as_row_loop(rec: Recording, tmp_path) -> None:
    got = save_recording(rec, str(tmp_path / "new"))
    want = row_loop_save_recording(rec, str(tmp_path / "old"))
    for key in ("hr", "act", "labels"):
        with open(got[key], "rb") as a, open(want[key], "rb") as b:
            assert a.read() == b.read(), key


def count_forks(monkeypatch) -> list:
    forks, real = [], os.fork

    def fork():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("n", [2 * WRITE_CHUNK - 1, 2 * WRITE_CHUNK, 3 * WRITE_CHUNK + 1])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tables_are_byte_identical_on_any_cpu_count(monkeypatch, tmp_path, cpus, n):
    monkeypatch.setattr(ingest, "_cpu_count", lambda: cpus)
    forks = count_forks(monkeypatch)
    assert_written_as_row_loop(table_recording(n), tmp_path)
    # a worker per share past the first, for each of the two tables
    assert len(forks) == 2 * (min(cpus, n // WRITE_CHUNK) - 1)


def refuse_first_fork(monkeypatch, caller):
    forks, real = [], os.fork

    def fork():
        forks.append(None)
        if len(forks) == 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", fork)


def in_first_worker(fault):
    """Patch ``_format_rows`` so the worker of each table's second share
    meets ``fault`` before formatting it."""

    def patch(monkeypatch, caller):
        real = ingest._format_rows

        def format_rows(t, values, start, stop):
            if os.getpid() != caller and start == len(t) // 3:
                fault()
            return real(t, values, start, stop)

        monkeypatch.setattr(ingest, "_format_rows", format_rows)

    return patch


def die():
    os.kill(os.getpid(), signal.SIGKILL)


def fail():
    raise ValueError("formatting failed in a worker")


def cut_first_copy(monkeypatch, caller):
    """The first worker pipe the caller copies ends after 100,000 bytes."""
    real, calls = ingest._copy_share, []

    class Short:
        def __init__(self, pipe):
            self.pipe, self.left = pipe, 100_000

        def read(self, size):
            chunk = self.pipe.read(min(size, self.left))
            self.left -= len(chunk)
            return chunk

    def copy_share(pipe, fh):
        calls.append(None)
        return real(Short(pipe) if len(calls) == 1 else pipe, fh)

    monkeypatch.setattr(ingest, "_copy_share", copy_share)


@pytest.mark.parametrize(
    "fault",
    [refuse_first_fork, in_first_worker(die), in_first_worker(fail), cut_first_copy],
    ids=["fork_refused", "worker_killed", "worker_raises", "pipe_ends_short"],
)
def test_a_share_without_its_worker_bytes_is_formatted_by_the_caller(monkeypatch, tmp_path, fault):
    # three shares per table: the caller's, then two workers'
    monkeypatch.setattr(ingest, "_cpu_count", lambda: 3)
    fault(monkeypatch, os.getpid())
    assert_written_as_row_loop(table_recording(3 * WRITE_CHUNK + 1), tmp_path)


def test_workers_are_killed_when_the_caller_is_interrupted(monkeypatch, tmp_path):
    caller, real = os.getpid(), ingest._format_rows

    def format_rows(*args):
        if os.getpid() != caller:
            time.sleep(600)
        raise KeyboardInterrupt
        yield from real(*args)

    monkeypatch.setattr(ingest, "_format_rows", format_rows)
    monkeypatch.setattr(ingest, "_cpu_count", lambda: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        save_recording(table_recording(3 * WRITE_CHUNK), str(tmp_path))
    assert time.monotonic() - start < 30


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fill")
def test_workers_are_killed_when_the_disk_is_full(monkeypatch):
    monkeypatch.setattr(ingest, "_cpu_count", lambda: 2)
    rec = table_recording(2 * WRITE_CHUNK)
    with pytest.raises(OSError) as err:
        ingest._write_table("/dev/full", "act", rec.act.t, rec.act.xyz)
    assert err.value.errno == errno.ENOSPC


def test_the_caller_holds_a_block_of_text_not_a_share(monkeypatch, tmp_path):
    # on two processes the worker's share is half the table's text; the
    # caller holds one WRITE_CHUNK block and a copy buffer at a time
    monkeypatch.setattr(ingest, "_cpu_count", lambda: 2)
    rec = table_recording(32 * WRITE_CHUNK)
    path = str(tmp_path / "act.csv")
    tracemalloc.start()
    try:
        ingest._write_table(path, "act", rec.act.t, rec.act.xyz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path) / 3
