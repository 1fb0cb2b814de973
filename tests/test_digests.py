"""Pinned SHA-256 digests of the command line's deterministic outputs.

Every file ``cv``, ``sweep``, ``train`` and ``eval`` write, and what
``gradcheck`` prints, for one small synthetic cohort. A change meant to
keep behaviour keeps these bytes. Two ``cv`` runs cover both ways folds
train: in lockstep groups at 8 units, one at a time at 72 units.
"""

import hashlib
import os
from pathlib import Path

import pytest

from sleepstager import cli
from sleepstager.training import LOCKSTEP_MAX_UNITS

SETTINGS = [
    f"--set={key}"
    for key in (
        "seed=3", "units=8", "num_words=20", "max_passes=3", "learning_rate=0.2",
        "folds=4", "rounds=1",
    )
]

RUNS = [
    ["cv", "cohort", "--out-csv", "cv.csv", "--out-json", "cv.json"],
    ["cv", "cohort", "--out-csv", "cv72.csv", "--out-json", "cv72.json", "--set=units=72"],
    ["sweep", "cohort", "--out", "sweep.csv", "--set=sweep_layers=1", "--set=sweep_units=8"],
    ["train", "cohort", "model.txt", "--history", "history.csv"],
    ["eval", "model.txt", "cohort", "--out", "eval.csv"],
]

DIGESTS = {
    "cv.csv": "f7395cfd04594e6ec0658e6c397d621bf3e859045b6dfb1fe46f2b0b638ac66f",
    "cv.json": "ca8d3a07c293abcacd71f3ae05b092bf2a877583b5226a4b09beedb65412a761",
    "cv72.csv": "0b99d2f4e989dd654a442ec7e603df97f7b0bb54e4a780a4a65fd799c443c74a",
    "cv72.json": "ab3ac77195898ffa8830b727184082b95a299a7e08835e5fc32641c61dced357",
    "eval.csv": "1ffa4250204837b138a3d10edcaf9c0f5c5ec3c8129c2f3ee715d426b210c492",
    "gradcheck.out": "43b5e414ef7f559d9fa5f3132361c233effcd4d68697cc3732b5db898df08f6b",
    "history.csv": "ca8826ab706fd7f65f73ba2f64bf990e9e5faa158b9eb44bb0a45e36cdf37100",
    "model.txt": "c3510fe356998a205440062935c787e9313ae3da49755e888b8f20315029a177",
    "sweep.csv": "9ea7b03ea24ee5c6ad561d1244aa67edd75cfde377b89a4a3166f8f93cb80454",
}


def output_digests(out, capsys) -> dict[str, str]:
    """SHA-256 of each output of ``RUNS`` and of a ``gradcheck``, run in ``out``."""
    cwd = os.getcwd()
    os.chdir(out)
    try:
        argv = ["synth", "cohort", "--recordings", "8", "--epochs", "96", "--set=seed=3"]
        assert cli.main(argv) == 0
        for command, *args in RUNS:  # a run's own settings come last and win
            assert cli.main([command, *SETTINGS, *args]) == 0
        capsys.readouterr()
        assert cli.main(["gradcheck", "--set=seed=3"]) == 0
        with open("gradcheck.out", "w") as fh:
            fh.write(capsys.readouterr().out)
        names = sorted(set(os.listdir()) - {"cohort"})
        return {n: hashlib.sha256(Path(n).read_bytes()).hexdigest() for n in names}
    finally:
        os.chdir(cwd)


def test_the_two_cv_runs_cover_lockstep_and_one_fold_at_a_time():
    assert 8 <= LOCKSTEP_MAX_UNITS < 72


def test_outputs_match_their_pinned_digests(tmp_path, capsys):
    assert output_digests(tmp_path, capsys) == DIGESTS
