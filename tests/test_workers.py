"""Cross-validation on several processes reports what one process reports:
the same bytes, the same fault, and no process left behind.

Each test sets the process count cross-validation uses, so the forked path
runs whatever CPUs and BLAS threads the host has.
"""

import os
import signal
import time

import numpy as np
import pytest

from sleepstager import evaluate
from sleepstager.errors import NumericError
from sleepstager.evaluate import cross_validate, summary_document, write_cv_csv
from sleepstager.processes import BLAS_THREAD_VARIABLES
from test_lockstep import cv_args

SEED = 9


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "variables, processes",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 4),
        ({}, 1),  # the BLAS starts a thread per CPU
    ],
)
def test_processes_and_their_blas_threads_do_not_outnumber_the_cpus(
    monkeypatch, variables, processes
):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in variables.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert evaluate._process_count() == processes
    monkeypatch.delattr(os, "fork")
    assert evaluate._process_count() == 1


def run_cv(monkeypatch, processes, tmp_path, k=5, rounds=2):
    """Summary and CSV bytes of a cv on ``processes`` processes."""
    monkeypatch.setattr(evaluate, "_process_count", lambda: processes)
    report = cross_validate(*cv_args(2), k=k, rounds=rounds, seed=SEED, num_classes=4)
    path = tmp_path / f"cv{processes}.csv"
    write_cv_csv(report, str(path))
    return summary_document(report), path.read_bytes()


def record_groups(monkeypatch):
    """The group sizes ``_in_processes`` is given and trains in this process."""
    dealt, trained = [], []
    real_in_processes, real_train, caller = evaluate._in_processes, evaluate.train, os.getpid()

    def in_processes(run, items, workers):
        dealt.append([len(group) for group in items])
        return real_in_processes(run, items, workers)

    def train(nets, *rest, score_train):
        if os.getpid() == caller:
            trained.append(len(nets))
        return real_train(nets, *rest, score_train=score_train)

    monkeypatch.setattr(evaluate, "_in_processes", in_processes)
    monkeypatch.setattr(evaluate, "train", train)
    return dealt, trained


@pytest.mark.parametrize(
    "processes, groups",
    [
        (1, [4, 4, 2]),
        (2, [4, 4, 2]),  # ceil(10 / 2) = 5 is above the lockstep size of 4
        (3, [4, 4, 2]),
        (6, [2] * 5),  # more processes than groups: five run
    ],
)
def test_reports_are_byte_identical_on_any_process_count(
    monkeypatch, tmp_path, processes, groups
):
    # ten fits of k=5 and two rounds, in groups of unequal size
    serial = run_cv(monkeypatch, 1, tmp_path)
    dealt, trained = record_groups(monkeypatch)
    assert run_cv(monkeypatch, processes, tmp_path) == serial
    assert dealt == [groups]
    # the caller trains share 0: every processes-th group, from the first
    assert trained == groups[::processes]


def test_the_bench_cv_trains_two_groups_of_two_on_two_processes(monkeypatch, tmp_path):
    dealt, trained = record_groups(monkeypatch)
    run_cv(monkeypatch, 2, tmp_path, k=4, rounds=1)
    assert dealt == [[2, 2]] and trained == [2]


def poison(monkeypatch, fits):
    """Start the network of each (round, fold) in ``fits`` non-finite, chosen by
    its init seed, so it diverges in whichever process trains it."""
    seeds = {
        int(np.random.SeedSequence(SEED, spawn_key=fit).generate_state(3)[1]) for fit in fits
    }
    real = evaluate.init_params

    def poisoned(spec, seed, init_std):
        net = real(spec, seed=seed, init_std=init_std)
        if seed in seeds:
            net.flat[:] = np.nan
        return net

    monkeypatch.setattr(evaluate, "init_params", poisoned)


def cv_fault(monkeypatch, processes):
    monkeypatch.setattr(evaluate, "_process_count", lambda: processes)
    with pytest.raises(NumericError) as err:
        cross_validate(*cv_args(2), k=5, rounds=2, seed=SEED, num_classes=4)
    return str(err.value)


# Fits go in (round, fold) order. On two processes the groups are fits 0-3 (the
# caller), 4-7 (the worker: round 0 fold 4, round 1 folds 0-2) and 8-9 (the
# caller: round 1 folds 3 and 4).
@pytest.mark.parametrize(
    "fits, named",
    [
        ([(1, 0)], "round 1, fold 0"),  # the worker's share alone
        ([(1, 0), (1, 3)], "round 1, fold 0"),  # the worker's group comes first
        ([(0, 1), (1, 0)], "round 0, fold 1"),  # the caller's group comes first
        ([(0, 0), (1, 1)], "round 0, fold 0"),  # the caller's first group: the worker is killed
    ],
)
def test_the_fault_of_the_earliest_group_is_reported(monkeypatch, fits, named):
    poison(monkeypatch, fits)
    serial = cv_fault(monkeypatch, 1)
    assert serial.startswith(f"{named}: training diverged in pass 1: val loss nan, ")
    assert cv_fault(monkeypatch, 2) == serial


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not sent")


def die(_):
    os.kill(os.getpid(), signal.SIGKILL)


def raise_unpicklable(_):
    raise Unpicklable("raised in a worker only")


def refuse_fork(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("worker_fault", [die, raise_unpicklable, None])
def test_a_share_without_a_worker_result_reruns_in_the_caller(monkeypatch, tmp_path, worker_fault):
    serial = run_cv(monkeypatch, 1, tmp_path)
    dealt, trained = record_groups(monkeypatch)
    if worker_fault is None:
        refuse_fork(monkeypatch)
    else:
        caller, recorded = os.getpid(), evaluate.train

        def train(*job, score_train):
            if os.getpid() != caller:
                worker_fault(job)
            return recorded(*job, score_train=score_train)

        monkeypatch.setattr(evaluate, "train", train)
    assert run_cv(monkeypatch, 2, tmp_path) == serial
    # the caller's share, then the worker's
    assert dealt == [[4, 4, 2]] and trained == [4, 2, 4]


@pytest.mark.parametrize("fault", [KeyboardInterrupt(), NumericError("in the first group")])
def test_workers_are_killed_once_their_results_cannot_matter(monkeypatch, fault):
    # the caller's first group raises while the workers' groups would take
    # ten minutes: an interrupt, or the fault no later group can precede
    caller = os.getpid()

    def train(*job, score_train):
        if os.getpid() != caller:
            time.sleep(600)
        raise fault

    monkeypatch.setattr(evaluate, "train", train)
    monkeypatch.setattr(evaluate, "_process_count", lambda: 3)
    start = time.monotonic()
    with pytest.raises(type(fault)) as err:
        cross_validate(*cv_args(2), k=5, rounds=2, seed=SEED, num_classes=4)
    assert err.value is fault
    assert time.monotonic() - start < 60
