"""End-to-end tests of the command line: exit codes, files, determinism."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sleepstager import cli, evaluate
from sleepstager.config import RunConfig
from sleepstager.evaluate import fit_model
from sleepstager.features_low import FrameConfig, recording_low_features
from sleepstager.ingest import load_cohort, stages_to_indices
from sleepstager.modelio import load_dictionary, load_model, save_model
from sleepstager.training import TrainConfig
from test_ingest import CSV_CASES, write_case

FAST = [
    "--set", "frame_epochs=4",
    "--set", "num_words=8",
    "--set", "units=5",
    "--set", "max_passes=1",
    "--set", "learning_rate=0.05",
]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def dir_snapshot(d):
    return {name: read_bytes(os.path.join(d, name)) for name in sorted(os.listdir(d))}


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cohort"))
    rc = cli.main(["synth", d, "--recordings", "5", "--epochs", "24", "--set", "seed=9"])
    assert rc == 0
    return d


def test_validate_reports_every_recording(cohort_dir, capsys):
    assert cli.main(["validate", cohort_dir]) == 0
    out = capsys.readouterr().out
    assert "ok: 5 recording(s)" in out
    for sid in ("s00", "s01", "s02", "s03", "s04"):
        assert f"{sid}: 24 epochs" in out


def test_synth_rerun_is_byte_identical(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (d1, d2):
        assert cli.main(["synth", d, "--recordings", "3", "--epochs", "10",
                         "--set", "seed=4"]) == 0
    assert dir_snapshot(d1) == dir_snapshot(d2)


def test_synth_seed_changes_output(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["synth", d1, "--recordings", "3", "--epochs", "10",
                     "--set", "seed=4"]) == 0
    assert cli.main(["synth", d2, "--recordings", "3", "--epochs", "10",
                     "--set", "seed=5"]) == 0
    assert dir_snapshot(d1) != dir_snapshot(d2)


def test_extract_matches_library_and_is_idempotent(cohort_dir, tmp_path):
    out1, out2 = str(tmp_path / "f1"), str(tmp_path / "f2")
    for out in (out1, out2):
        assert cli.main(["extract", cohort_dir, out] + FAST) == 0
    assert dir_snapshot(out1) == dir_snapshot(out2)
    recs = load_cohort(cohort_dir)
    frame = FrameConfig(frame_epochs=4)
    for rec in recs:
        stored = np.load(os.path.join(out1, f"{rec.subject_id}_low.npy"))
        np.testing.assert_array_equal(stored, recording_low_features(rec, frame))


def test_fit_dict_round_trip(cohort_dir, tmp_path):
    path = str(tmp_path / "dict.bin")
    assert cli.main(["fit-dict", cohort_dir, path] + FAST) == 0
    d = load_dictionary(path)
    assert d.num_words == 8
    assert d.centers.shape[1] == FrameConfig(frame_epochs=4).dim


def test_train_eval_cycle(cohort_dir, tmp_path, capsys):
    model_path = str(tmp_path / "model.bin")
    hist_path = str(tmp_path / "history.csv")
    rc = cli.main(["train", cohort_dir, model_path, "--history", hist_path] + FAST)
    assert rc == 0
    model = load_model(model_path)
    assert model.num_classes == 5
    with open(hist_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "pass,train_loss,val_loss"
    assert len(lines) >= 2
    capsys.readouterr()

    metrics = str(tmp_path / "metrics.csv")
    assert cli.main(["eval", model_path, cohort_dir, "--out", metrics]) == 0
    out = capsys.readouterr().out
    assert "all:" in out
    with open(metrics) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "subject,epochs,precision,recall,f1"
    assert len(rows) == 1 + 5 + 1
    assert rows[-1].startswith("all,120,")


def test_train_outputs_are_deterministic(cohort_dir, tmp_path):
    paths = []
    for tag in ("a", "b"):
        model_path = str(tmp_path / f"model_{tag}.bin")
        hist_path = str(tmp_path / f"hist_{tag}.csv")
        assert cli.main(["train", cohort_dir, model_path, "--history", hist_path]
                        + FAST) == 0
        paths.append((model_path, hist_path))
    assert read_bytes(paths[0][0]) == read_bytes(paths[1][0])
    assert read_bytes(paths[0][1]) == read_bytes(paths[1][1])


def test_train_model_is_the_fit_model_recipe(cohort_dir, tmp_path):
    model_path = str(tmp_path / "model.bin")
    assert cli.main(["train", cohort_dir, model_path, "--set", "seed=4"] + FAST) == 0
    frame = FrameConfig(frame_epochs=4)
    recs = load_cohort(cohort_dir)

    def split(group):
        lows = [recording_low_features(r, frame) for r in group]
        return lows, [stages_to_indices(r.labels, 5) for r in group]

    model, _ = fit_model(
        split(recs[:-1]),
        split(recs[-1:]),
        frame,
        num_words=8,
        net_layers=(("blstm", 5),),
        train_cfg=TrainConfig(learning_rate=0.05, max_passes=1),
        num_classes=5,
        seeds=(4, 4, 4),
    )
    ref_path = str(tmp_path / "ref.bin")
    save_model(model, ref_path)
    assert read_bytes(model_path) == read_bytes(ref_path)


def test_train_val_subjects_flag(cohort_dir, tmp_path):
    model_path = str(tmp_path / "model.bin")
    assert cli.main(["train", cohort_dir, model_path,
                     "--val-subjects", "s01,s03"] + FAST) == 0
    assert cli.main(["train", cohort_dir, model_path,
                     "--val-subjects", "nope"] + FAST) == 1


def test_cv_outputs_and_idempotency(cohort_dir, tmp_path):
    outs = []
    for tag in ("a", "b"):
        csv_path = str(tmp_path / f"cv_{tag}.csv")
        json_path = str(tmp_path / f"cv_{tag}.json")
        rc = cli.main(["cv", cohort_dir, "--out-csv", csv_path,
                       "--out-json", json_path,
                       "--set", "folds=3", "--set", "rounds=2"] + FAST)
        assert rc == 0
        outs.append((csv_path, json_path))
    with open(outs[0][0]) as fh:
        rows = fh.read().splitlines()
    # header + one row per (round, fold) + aggregate
    assert len(rows) == 1 + 3 * 2 + 1
    assert rows[-1].startswith("all,all,")
    report = json.loads(read_bytes(outs[0][1]))
    assert len(report["iterations"]) == 6
    assert 0.0 <= report["aggregate"]["f1"] <= 1.0
    assert read_bytes(outs[0][0]) == read_bytes(outs[1][0])
    assert read_bytes(outs[0][1]) == read_bytes(outs[1][1])


def test_sweep_csv(cohort_dir, tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = cli.main(["sweep", cohort_dir, "--out", out,
                   "--set", "folds=3", "--set", "rounds=1",
                   "--set", "sweep_types=mlp", "--set", "sweep_layers=1",
                   "--set", "sweep_units=4,5"] + FAST)
    assert rc == 0
    with open(out) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "hidden_type,layers,units,precision,recall,f1"
    assert len(rows) == 3
    assert rows[1].startswith("mlp,1,4,")
    assert rows[2].startswith("mlp,1,5,")


def test_gradcheck_passes_on_small_net(capsys):
    rc = cli.main(["gradcheck", "--kind", "blstm", "--units", "4",
                   "--seq-len", "6", "--input-dim", "3", "--set", "seed=2"])
    assert rc == 0
    assert "max relative gradient error:" in capsys.readouterr().out


def test_gradcheck_fails_over_threshold(monkeypatch, capsys):
    monkeypatch.setattr(cli, "gradient_check", lambda *a, **k: 5e-4)
    assert cli.main(["gradcheck"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err


def test_gradcheck_fails_on_nan(monkeypatch):
    monkeypatch.setattr(cli, "gradient_check", lambda *a, **k: float("nan"))
    assert cli.main(["gradcheck"]) == 3


def test_usage_errors_exit_1(capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train"]) == 1
    assert cli.main(["gradcheck", "--layers", "9"]) == 1
    assert "layers must be between 1 and 4" in capsys.readouterr().err
    for flag in ("--layers", "--units", "--seq-len", "--input-dim"):
        assert cli.main(["gradcheck", flag, "0"]) == 1
        assert "usage error" in capsys.readouterr().err


def test_config_errors_exit_1(cohort_dir, tmp_path, capsys):
    assert cli.main(["validate", cohort_dir, "--set", "no_such_key=1"]) == 0
    # validate ignores config, so force a command that reads it
    assert cli.main(["fit-dict", cohort_dir, str(tmp_path / "d.bin"),
                     "--set", "no_such_key=1"]) == 1
    assert "no_such_key" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    assert cli.main(["fit-dict", cohort_dir, str(tmp_path / "d.bin"),
                     "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "setting",
    ["weight_noise_std=nan", "learning_rate=inf", "learning_rate=nan", "init_std=inf"],
)
def test_non_finite_training_values_are_config_errors(cohort_dir, tmp_path, capsys, setting):
    # nan noise used to train silently without noise; the others ended as a "stale trace"
    argv = ["train", cohort_dir, str(tmp_path / "m.bin")] + FAST + ["--set", setting]
    assert cli.main(argv) == 1
    key = setting.split("=")[0]
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("command", ["train", "fit-dict", "cv", "sweep"])
def test_num_words_beyond_training_epochs_is_a_config_error(cohort_dir, tmp_path, capsys, command):
    # was "usage error: need at least k=100000 samples, got 120" from the k-means fit
    out = str(tmp_path / "out")
    outputs = {"train": [out], "fit-dict": [out], "cv": ["--out-csv", out, "--out-json", out],
               "sweep": ["--out", out]}
    argv = [command, cohort_dir, *outputs[command], *FAST, "--set", "folds=3",
            "--set", "num_words=100000"]
    assert cli.main(argv) == 1
    # 5 nights of 24 epochs: train holds one out; the first cv fold trains on one night
    epochs = {"train": 96, "fit-dict": 120, "cv": 24, "sweep": 24}[command]
    expect = f"config error: num_words=100000 exceeds the training split's {epochs} epochs"
    assert capsys.readouterr().err.strip() == expect
    assert not os.path.exists(out)


def test_data_errors_exit_2(tmp_path):
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    assert cli.main(["validate", empty]) == 2
    assert cli.main(["validate", str(tmp_path / "missing")]) == 2


def test_sparse_actigraphy_epoch_exits_2_in_every_command(cohort_dir, tmp_path, capsys):
    # a 2 h night with the 30 s of actigraphy of epoch 100 deleted
    night = str(tmp_path / "night")
    assert cli.main(["synth", night, "--recordings", "1", "--epochs", "240"]) == 0
    act = os.path.join(night, "s00_act.csv")
    with open(act) as fh:
        header, *rows = fh.readlines()
    with open(act, "w") as fh:
        fh.write(header)
        fh.writelines(r for r in rows if not 3000.0 <= float(r.split(",")[0]) < 3030.0)
    model = str(tmp_path / "model.bin")
    assert cli.main(["train", cohort_dir, model] + FAST) == 0
    capsys.readouterr()
    errors = []
    for argv in (
        ["validate", night],
        ["extract", night, str(tmp_path / "low")] + FAST,
        ["eval", model, night],
    ):
        assert cli.main(argv) == 2, argv
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert "actigraphy epoch 100 has 0 sample(s)" in errors[0]


def test_night_shorter_than_frame_exits_2(cohort_dir, tmp_path, capsys):
    short = str(tmp_path / "short")
    assert cli.main(["synth", short, "--recordings", "3", "--epochs", "3"]) == 0
    model = str(tmp_path / "model.bin")
    assert cli.main(["train", cohort_dir, model] + FAST) == 0
    capsys.readouterr()
    for argv in (
        ["extract", short, str(tmp_path / "low")] + FAST,
        ["train", short, str(tmp_path / "short.bin")] + FAST,
        ["eval", model, short],
        ["cv", short, "--set", "folds=3"] + FAST,
    ):
        assert cli.main(argv) == 2, argv
        assert "s00: recording has 3 epochs, frame needs 4" in capsys.readouterr().err


def test_corrupt_csv_exits_2(tmp_path):
    d = str(tmp_path / "data")
    assert cli.main(["synth", d, "--recordings", "2", "--epochs", "8"]) == 0
    hr = os.path.join(d, "s00_hr.csv")
    with open(hr, "w") as fh:
        fh.write("t_seconds,bpm\n5.0,70.0\n4.0,70.0\n")
    assert cli.main(["validate", d]) == 2


@pytest.mark.parametrize("suffix", ["hr", "act", "labels"])
def test_non_utf8_csv_exits_2_naming_the_file(tmp_path, capsys, suffix):
    d = str(tmp_path / "data")
    assert cli.main(["synth", d, "--recordings", "1", "--epochs", "8"]) == 0
    path = os.path.join(d, f"s00_{suffix}.csv")
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    capsys.readouterr()
    assert cli.main(["validate", d]) == 2
    assert f"s00_{suffix}.csv: not UTF-8 text" in capsys.readouterr().err


@pytest.fixture(scope="module")
def one_epoch_night(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("night"))
    assert cli.main(["synth", d, "--recordings", "1", "--epochs", "1"]) == 0
    return d


@pytest.mark.parametrize("kind", ["hr", "act"])
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_validate_and_extract_agree_on_csv_edge_cases(one_epoch_night, tmp_path, capsys, kind, case):
    # the case's body as the night's heart-rate or actigraphy file
    night = str(tmp_path / "night")
    shutil.copytree(one_epoch_night, night)
    os.replace(write_case(night, kind, case), os.path.join(night, f"s00_{kind}.csv"))
    capsys.readouterr()
    extract = ["extract", night, str(tmp_path / "low"), "--set", "frame_epochs=1"]
    outcomes = [(cli.main(argv), capsys.readouterr().err) for argv in (["validate", night], extract)]
    assert outcomes[0] == outcomes[1]


def test_model_header_faults_exit_2(cohort_dir, tmp_path, capsys):
    model = str(tmp_path / "model.bin")
    assert cli.main(["train", cohort_dir, model] + FAST) == 0
    with open(model, "rb") as fh:
        raw = fh.read()
    for old, new in (
        (b'"norm.std"', b'"norm.sdv"'),
        (b'"version":1', b'"version":9'),
        (b'"frame_epochs":4', b'"frame_epochs":3'),
    ):
        assert old in raw
        with open(model, "wb") as fh:
            fh.write(raw.replace(old, new))
        capsys.readouterr()
        assert cli.main(["eval", model, cohort_dir]) == 2
        assert "data error" in capsys.readouterr().err


def test_config_file_and_set_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    base = ["gradcheck", "--kind", "mlp", "--units", "4",
            "--seq-len", "5", "--input-dim", "3"]
    assert cli.main(base + ["--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert cli.main(base + ["--set", "seed=3"]) == 0
    from_set = capsys.readouterr().out
    assert from_file == from_set
    assert cli.main(base + ["--config", str(cfg), "--set", "seed=4"]) == 0
    overridden = capsys.readouterr().out
    assert cli.main(base + ["--set", "seed=4"]) == 0
    assert overridden == capsys.readouterr().out
    assert overridden != from_file


def copy_cohort(src, dst, subject, suffix, edit):
    """A copy of cohort ``src`` in which ``edit`` rewrites one file's data rows."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, f"{subject}_{suffix}.csv")
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join([header, *edit(rows)]) + "\n")
    return str(dst)


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["cv", "--set", "folds=8"], "config error: folds=8 exceeds the cohort's 5 subjects"),
        (["train", "--set", "val_count=5"],
         "config error: val_count=5 leaves no training data (5 recordings)"),
    ],
)
def test_config_beyond_the_cohort_is_a_config_error(cohort_dir, tmp_path, capsys, argv, expect):
    # folds=8 was "usage error: need at least k=8 subjects, got 5"
    command, *overrides = argv
    outputs = {"cv": ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")],
               "train": [str(tmp_path / "m.bin")]}
    assert cli.main([command, cohort_dir, *outputs[command], *FAST, *overrides]) == 1
    assert capsys.readouterr().err.strip() == expect
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["cv", "train", "synth", "fit-dict", "gradcheck"])
def test_negative_seed_is_a_config_error(cohort_dir, tmp_path, capsys, command):
    # was numpy's "usage error: expected non-negative integer"
    out = str(tmp_path / "out")
    argv = {
        "cv": ["cv", cohort_dir, "--out-csv", out, "--out-json", out, "--set", "folds=3"],
        "train": ["train", cohort_dir, out],
        "synth": ["synth", out, "--recordings", "1", "--epochs", "4"],
        "fit-dict": ["fit-dict", cohort_dir, out],
        "gradcheck": ["gradcheck"],
    }[command]
    assert cli.main(argv + FAST + ["--set", "seed=-1"]) == 1
    assert capsys.readouterr().err.strip() == "config error: seed must be >= 0"
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_actigraphy_is_a_data_error(cohort_dir, tmp_path, capsys):
    # 1e308 then -1e308 is finite, so validate accepts it, but its first
    # difference overflows; extract used to write non-finite features and
    # exit 0, fit-dict and train to fail as "usage error: samples must be finite"
    def overflow(rows):
        for k, value in ((100, "1e308"), (101, "-1e308")):
            cells = rows[k].split(",")
            rows[k] = ",".join([cells[0], value, *cells[2:]])
        return rows

    data = copy_cohort(cohort_dir, tmp_path / "data", "s02", "act", overflow)
    assert cli.main(["validate", data]) == 0
    capsys.readouterr()
    low, model = tmp_path / "low", tmp_path / "m.bin"
    for argv in (["extract", data, str(low)], ["train", data, str(model)]):
        assert cli.main(argv + FAST) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("data error: s02: epoch 0 has non-finite low-level features"), err
    assert not low.exists()
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "fit-dict", "eval"])
def test_implausibly_slow_heart_rate_is_a_data_error(cohort_dir, tmp_path, capsys, command):
    # a 1e-300 bpm sample, a 6e301 s beat interval, passed validate and gave
    # finite features whose squared codebook distances overflow: these
    # commands exited 3, "numeric failure"
    def tiny_bpm(rows):
        rows[50] = rows[50].split(",")[0] + ",1e-300"
        return rows

    data = copy_cohort(cohort_dir, tmp_path / "data", "s02", "hr", tiny_bpm)
    model = str(tmp_path / "m.bin")
    assert cli.main(["train", cohort_dir, model] + FAST) == 0
    capsys.readouterr()
    out = str(tmp_path / "out")
    argv = {"train": ["train", data, out] + FAST, "fit-dict": ["fit-dict", data, out] + FAST,
            "eval": ["eval", model, data, "--out", out]}[command]
    assert cli.main(argv) == 2
    hr = os.path.join(data, "s02_hr.csv")
    expect = f"data error: {hr}: heart rate 1e-300 bpm at t=50 s: its beat interval"
    assert capsys.readouterr().err.startswith(expect)
    assert not os.path.exists(out)


def test_one_epoch_training_split_is_a_data_error(tmp_path, capsys):
    # was "usage error: need a (n>=2, d) training matrix" from the z-score fit
    data = str(tmp_path / "data")
    assert cli.main(["synth", data, "--recordings", "2", "--epochs", "1"]) == 0
    capsys.readouterr()
    model = tmp_path / "m.bin"
    assert cli.main(["train", data, str(model)] + FAST + ["--set", "frame_epochs=1",
                                                          "--set", "num_words=1"]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "data error: the training split has 1 epoch; z-score statistics need 2"
    assert not model.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("setting", ["init_std=1e308", "weight_noise_std=1e308"])
def test_diverged_training_exits_3(cohort_dir, tmp_path, capsys, setting):
    # both used to end as "usage error: stale trace", because NaN != NaN
    model = tmp_path / "m.bin"
    assert cli.main(["train", cohort_dir, str(model)] + FAST + ["--set", setting]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: training diverged in pass 1: "), err
    assert not model.exists()
    assert os.listdir(tmp_path) == []


def test_numeric_failure_is_one_line_on_stderr(cohort_dir, tmp_path):
    # in a process of its own: pytest would capture the numpy warnings
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = ["train", cohort_dir, str(tmp_path / "m.bin")] + FAST + ["--set", "init_std=1e308"]
    cmd = [sys.executable, "-m", "sleepstager.cli"] + argv
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric failure: training diverged in pass 1: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_a_fold_diverging_in_its_group_names_round_fold_and_pass(
    cohort_dir, tmp_path, capsys, monkeypatch
):
    # five folds train as a group of four and a group of one; the third
    # fold's network starts non-finite, the others are healthy
    calls = []
    real = evaluate.init_params

    def poisoned(spec, seed, init_std):
        net = real(spec, seed=seed, init_std=init_std)
        calls.append(seed)
        if len(calls) == 3:
            net.flat[:] = np.nan
        return net

    monkeypatch.setattr(evaluate, "init_params", poisoned)
    out = [str(tmp_path / "cv.csv"), str(tmp_path / "cv.json")]
    argv = ["cv", cohort_dir, "--out-csv", out[0], "--out-json", out[1]]
    argv += ["--set", "folds=5", "--set", "rounds=1"]
    assert cli.main(argv + FAST) == 3
    err = capsys.readouterr().err
    expected = "numeric failure: round 0, fold 2: training diverged in pass 1: train loss nan"
    assert err.startswith(expected), err
    assert len(calls) == 4 and os.listdir(tmp_path) == []


@pytest.mark.parametrize("units", ["10000000000000000000", "1000000000"])
def test_a_network_numpy_cannot_allocate_is_a_config_error(cohort_dir, tmp_path, capsys, units):
    # numpy rejects both sizes before allocating anything
    model = tmp_path / "m.bin"
    assert cli.main(["train", cohort_dir, str(model)] + FAST + ["--set", f"units={units}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot allocate a network of "), err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


HUGE = "1" + "0" * 308
FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# huge values go only to float keys and to keys rejected before anything
# of their size is allocated; a huge units, freq_components,
# cepstrum_components, max_passes, patience or rounds would run out of memory
HUGE_OK = {"folds", "num_words", "layers", "val_count", "frame_epochs"}
SETTINGS = [
    f"{key}={value}"
    for key, kind in FIELDS.items()
    for value in ["nan", "inf", "-inf", "0", "-1"]
    + (["1e308"] if kind is float else [HUGE] if key in HUGE_OK else [])
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chosen=st.lists(st.sampled_from(SETTINGS), min_size=1, max_size=2))
@example(chosen=[f"layers={HUGE}"])  # escaped as an OverflowError building the layer tuple
def test_set_values_end_in_an_exit_code(cohort_dir, tmp_path_factory, chosen):
    # no --set value may escape cli.main as an exception
    model = str(tmp_path_factory.mktemp("set") / "m.bin")
    argv = ["train", cohort_dir, model] + FAST
    for setting in chosen:
        argv += ["--set", setting]
    assert cli.main(argv) in (0, 1, 2, 3)
