"""End-to-end tests of the command line: exit codes, files, determinism."""

import json
import math
import os
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sleepstager import cli, evaluate
from sleepstager.config import KEYS, load_config
from sleepstager.evaluate import fit_model
from sleepstager.features_low import FrameConfig, recording_low_features
from sleepstager.ingest import load_cohort
from sleepstager.modelio import load_model, save_model
from sleepstager.training import TrainConfig
from test_ingest import CSV_CASES, write_case
from test_modelio import GOLDEN, read_file, rewrite_header

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
    recs = load_cohort(cohort_dir)
    model, _ = fit_model(
        recs[:-1],
        recs[-1:],
        FrameConfig(frame_epochs=4),
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


def test_cv_and_sweep_reports_match_training_with_the_train_split_scored(
    cohort_dir, tmp_path, monkeypatch
):
    runs = [
        ["cv", "--out-csv", "cv.csv", "--out-json", "cv.json", "--set", "rounds=2"],
        ["sweep", "--out", "sweep.csv", "--set", "sweep_types=lstm,blstm",
         "--set", "sweep_layers=1,2", "--set", "sweep_units=4"],
    ]

    def reports(tag):
        out = tmp_path / tag
        out.mkdir()
        monkeypatch.chdir(out)
        for command, *args in runs:
            argv = [command, cohort_dir, *args, "--set", "folds=3"] + FAST
            # several passes, so early stopping picks among them
            assert cli.main(argv + ["--set", "max_passes=4", "--set", "patience=2"]) == 0
        return dir_snapshot(str(out))

    plain = reports("plain")
    real = evaluate.train
    monkeypatch.setattr(evaluate, "train", lambda *job, score_train: real(*job, score_train=True))
    assert reports("scored") == plain
    assert sorted(plain) == ["cv.csv", "cv.json", "sweep.csv"]


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
    assert cli.main(["extract", cohort_dir, str(tmp_path / "low"),
                     "--set", "no_such_key=1"]) == 1
    assert "no_such_key" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    assert cli.main(["extract", cohort_dir, str(tmp_path / "low"),
                     "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "setting",
    ["weight_noise_std=nan", "learning_rate=inf", "learning_rate=nan", "init_std=inf"],
)
def test_non_finite_training_values_are_config_errors(cohort_dir, tmp_path, capsys, setting):
    # nan noise used to train silently without noise; the others ended as a "stale trace"
    # error, from a parameter check that network_backward no longer has
    argv = ["train", cohort_dir, str(tmp_path / "m.bin")] + FAST + ["--set", setting]
    assert cli.main(argv) == 1
    key = setting.split("=")[0]
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("command", ["train", "cv", "sweep"])
def test_num_words_beyond_training_epochs_is_a_config_error(cohort_dir, tmp_path, capsys, command):
    # was "usage error: need at least k=100000 samples, got 96" from the k-means fit
    out = str(tmp_path / "out")
    outputs = {"train": [out], "cv": ["--out-csv", out, "--out-json", out], "sweep": ["--out", out]}
    argv = [command, cohort_dir, *outputs[command], *FAST, "--set", "folds=3",
            "--set", "num_words=100000"]
    assert cli.main(argv) == 1
    # 5 nights of 24 epochs: train holds one out; the first cv fold trains on one night
    epochs = {"train": 96, "cv": 24, "sweep": 24}[command]
    expect = f"config error: num_words=100000 exceeds the training split's {epochs} epochs"
    assert capsys.readouterr().err.strip() == expect
    assert not os.path.exists(out)


BAD_SWEEP_LISTS = {
    "sweep_types=gru": "sweep cell gru x1 @32: hidden_type must be one of "
                       "('mlp', 'lstm', 'blstm'), got 'gru'",
    "sweep_layers=a": "sweep lists must be comma-separated integers: "
                      "invalid literal for int() with base 10: 'a'",
}


@pytest.mark.parametrize("command", ["train", "cv", "sweep"])
@pytest.mark.parametrize("setting", sorted(BAD_SWEEP_LISTS))
def test_bad_sweep_lists_are_refused_before_any_data_is_read(tmp_path, capsys, command, setting):
    # was "data error: ... No such file or directory" from sweep, and accepted by train and cv
    out = str(tmp_path / "out")
    outputs = {"train": [out], "cv": ["--out-csv", out, "--out-json", out], "sweep": ["--out", out]}
    argv = [command, str(tmp_path / "missing"), *outputs[command], "--set", setting]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.strip() == f"config error: {BAD_SWEEP_LISTS[setting]}"
    assert os.listdir(tmp_path) == []


def test_running_out_of_memory_is_one_config_error_line(cohort_dir, tmp_path, monkeypatch, capsys):
    # stands in for numpy's _ArrayMemoryError on an oversized --set, without
    # allocating anything
    def exhausted(*_):
        raise MemoryError("Unable to allocate 916. MiB for an array with shape (40, 3000070)")

    monkeypatch.setattr(cli, "recording_low_features", exhausted)
    out = str(tmp_path / "low")
    assert cli.main(["extract", cohort_dir, out]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: out of memory: "
        "Unable to allocate 916. MiB for an array with shape (40, 3000070)\n"
    )
    assert captured.out == ""
    assert not os.path.exists(out)


def test_data_errors_exit_2(tmp_path):
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    assert cli.main(["validate", empty]) == 2
    assert cli.main(["validate", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("kind, what", [("hr", "heart rate"), ("act", "actigraphy"), ("labels", "labels")])
def test_a_night_missing_a_file_exits_2_naming_it(tmp_path, capsys, kind, what):
    # without its heart-rate file a night was not found: "ok: 2 recording(s)"
    data = str(tmp_path / "data")
    assert cli.main(["synth", data, "--recordings", "3", "--epochs", "4"]) == 0
    path = os.path.join(data, f"s01_{kind}.csv")
    os.remove(path)
    capsys.readouterr()
    assert cli.main(["validate", data]) == 2
    assert capsys.readouterr().err == f"data error: missing {what} file: {path}\n"


@pytest.mark.parametrize("sid", ["a,b", "a\nb", "a\rb"])
def test_a_subject_id_a_report_cell_cannot_hold_exits_2(cohort_dir, tmp_path, capsys, sid):
    # "a,b" gave eval --out a row of six cells under its five-column header
    data = str(tmp_path / "data")
    shutil.copytree(cohort_dir, data)
    for kind in ("hr", "act", "labels"):
        os.replace(os.path.join(data, f"s01_{kind}.csv"), os.path.join(data, f"{sid}_{kind}.csv"))
    model, out = str(tmp_path / "model.bin"), str(tmp_path / "scores.csv")
    assert cli.main(["train", cohort_dir, model] + FAST) == 0
    capsys.readouterr()
    expect = f"data error: {data}: subject id {sid!r} has a comma or line break\n"
    for argv in (["validate", data], ["eval", model, data, "--out", out]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == expect
    assert not os.path.exists(out)


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
    # every refusal names the file; a nan time is non-finite, not out of order
    code, err = outcomes[0]
    path = os.path.join(night, f"s00_{kind}.csv")
    assert code == 0 or err.startswith(f"data error: {path}: "), err
    if case == "nan":
        what = "heart rate" if kind == "hr" else "actigraphy"
        assert err == f"data error: {path}: non-finite {what} data\n"


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


def test_a_codebook_file_is_not_a_model(cohort_dir, tmp_path):
    # earlier versions wrote the codebook alone, under this magic
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_model.slpnet")
    path = tmp_path / "codebook.slpdict"
    path.write_bytes(b"SLPDICT1" + read_bytes(golden)[8:])
    proc = run_cli(["eval", str(path), cohort_dir])
    assert proc.returncode == 2
    assert proc.stderr == f"data error: {path}: not a SLPNET01 file\n"


def _header_edit(draw):
    """An edit of the golden model's header that ``save_model`` would never write."""
    kind = draw(st.sampled_from(["entry", "history", "summary", "arrays"]), label="kind")
    if kind == "entry":  # one malformed objective in the codebook history
        bad = st.one_of(
            st.text(max_size=3),
            st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
            st.floats(max_value=-5e-324, allow_infinity=False),
            st.lists(st.floats(0, 9), max_size=2),
        )
        at, value = draw(st.integers(0, 4), label="at"), draw(bad, label="value")
        return lambda h: h["dict_objective_history"].insert(at, value)
    if kind == "history":
        value = draw(st.sampled_from([[], "abc", 4, None, {"a": 1.0}]), label="history")
        return lambda h: h.update(dict_objective_history=value)
    if kind == "summary":  # the iteration count or the objective off by one
        key = draw(st.sampled_from(["dict_iterations", "dict_objective"]), label="key")
        step = draw(st.sampled_from([-1, 1]), label="step")
        return lambda h: h.update({key: h[key] + step})
    op = draw(st.sampled_from(["reorder", "drop", "rename", "reshape", "add"]), label="op")
    i, j = draw(st.lists(st.integers(0, 36), min_size=2, max_size=2, unique=True), label="entries")
    name = draw(st.text(min_size=1, max_size=8).filter(lambda n: not n.startswith(("net.", "norm.", "dict"))))
    prepend = draw(st.booleans(), label="prepend")

    def edit(h):
        arrays = h["arrays"]
        if op == "reorder":
            arrays.insert(j, arrays.pop(i))
        elif op == "drop":
            del arrays[i]
        elif op == "rename":
            arrays[i][0] = name
        elif op == "reshape":  # one more axis of length 1: same size, other shape
            arrays[i][1] = [1] + arrays[i][1] if prepend else arrays[i][1] + [1]
        else:  # no values: the body still holds exactly what the others list
            arrays.insert(i, [name, [0]])

    return edit


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_model_header_save_model_would_not_write_exits_2(cohort_dir, tmp_path, capsys, data):
    # the history, summary, reorder and add edits all loaded before the array
    # list had to be the layout the sizes fix
    path = tmp_path / "model.slpnet"
    path.write_bytes(read_file(GOLDEN["model"][0]))
    rewrite_header(str(path), _header_edit(data.draw))
    capsys.readouterr()
    assert cli.main(["eval", str(path), cohort_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("command", ["cv", "train", "synth", "gradcheck"])
def test_negative_seed_is_a_config_error(cohort_dir, tmp_path, capsys, command):
    # was numpy's "usage error: expected non-negative integer"
    out = str(tmp_path / "out")
    argv = {
        "cv": ["cv", cohort_dir, "--out-csv", out, "--out-json", out, "--set", "folds=3"],
        "train": ["train", cohort_dir, out],
        "synth": ["synth", out, "--recordings", "1", "--epochs", "4"],
        "gradcheck": ["gradcheck"],
    }[command]
    assert cli.main(argv + FAST + ["--set", "seed=-1"]) == 1
    assert capsys.readouterr().err.strip() == "config error: seed must be >= 0"
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_actigraphy_is_a_data_error(cohort_dir, tmp_path, capsys):
    # 1e308 then -1e308 is finite, so validate accepts it, but its first
    # difference overflows; extract used to write non-finite features and
    # exit 0, and train to fail as "usage error: samples must be finite"
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


@pytest.mark.parametrize("command", ["train", "eval"])
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
    argv = {"train": ["train", data, out] + FAST, "eval": ["eval", model, data, "--out", out]}[command]
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
    # both used to end as "usage error: stale trace", because NaN != NaN in a
    # parameter check that network_backward no longer has
    model = tmp_path / "m.bin"
    assert cli.main(["train", cohort_dir, str(model)] + FAST + ["--set", setting]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: training diverged in pass 1: "), err
    assert not model.exists()
    assert os.listdir(tmp_path) == []


def run_cli(argv, address_space=None, cpus=None):
    """``sleepstager argv`` in a process of its own, with one BLAS thread and,
    if given, ``address_space`` bytes as that process's RLIMIT_AS and the set
    ``cpus`` as its CPU affinity."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def limit():
        if address_space:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        if cpus:
            os.sched_setaffinity(0, cpus)

    cmd = [sys.executable, "-m", "sleepstager.cli"] + argv
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300,
                          preexec_fn=limit if address_space or cpus else None)


def test_numeric_failure_is_one_line_on_stderr(cohort_dir, tmp_path):
    # in a process of its own: pytest would capture the numpy warnings
    argv = ["train", cohort_dir, str(tmp_path / "m.bin")] + FAST + ["--set", "init_std=1e308"]
    proc = run_cli(argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric failure: training diverged in pass 1: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.usefixtures("one_process")
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
    # cv scores no training split, so the message names the val loss alone
    pass_1 = "training diverged in pass 1: val loss nan, 6325 non-finite parameter(s)"
    assert err == f"numeric failure: round 0, fold 2: {pass_1}\n"
    assert len(calls) == 4 and os.listdir(tmp_path) == []


def cv_exit(argv, capsys, monkeypatch, processes):
    monkeypatch.setattr(evaluate, "_process_count", lambda: processes)
    rc = cli.main(argv)
    return rc, capsys.readouterr().err


def test_a_fold_diverging_in_a_worker_is_named_as_in_one_process(
    cohort_dir, tmp_path, capsys, monkeypatch
):
    # on two processes five folds train as groups of three (the caller) and
    # two (a worker); fold 3's network starts non-finite, chosen by its init seed
    seeds = np.random.SeedSequence(load_config(None, []).seed, spawn_key=(0, 3)).generate_state(3)
    real = evaluate.init_params

    def poisoned(spec, seed, init_std):
        net = real(spec, seed=seed, init_std=init_std)
        if seed == seeds[1]:
            net.flat[:] = np.nan
        return net

    monkeypatch.setattr(evaluate, "init_params", poisoned)
    out = [str(tmp_path / "cv.csv"), str(tmp_path / "cv.json")]
    argv = ["cv", cohort_dir, "--out-csv", out[0], "--out-json", out[1]]
    argv += ["--set", "folds=5", "--set", "rounds=1"] + FAST
    pass_1 = "training diverged in pass 1: val loss nan, 6325 non-finite parameter(s)"
    serial = (3, f"numeric failure: round 0, fold 3: {pass_1}\n")
    assert cv_exit(argv, capsys, monkeypatch, 1) == serial
    assert cv_exit(argv, capsys, monkeypatch, 2) == serial
    assert os.listdir(tmp_path) == []


def test_running_out_of_memory_in_a_worker_is_a_config_error(
    cohort_dir, tmp_path, capsys, monkeypatch
):
    caller, real = os.getpid(), evaluate.train

    def train(*job, score_train):
        if os.getpid() != caller:
            raise MemoryError("Unable to allocate 1.00 TiB in a worker")
        return real(*job, score_train=score_train)

    monkeypatch.setattr(evaluate, "train", train)
    out = [str(tmp_path / "cv.csv"), str(tmp_path / "cv.json")]
    argv = ["cv", cohort_dir, "--out-csv", out[0], "--out-json", out[1], "--set", "folds=5"]
    err = "config error: out of memory: Unable to allocate 1.00 TiB in a worker\n"
    assert cv_exit(argv + FAST, capsys, monkeypatch, 2) == (1, err)
    assert os.listdir(tmp_path) == []


def test_cv_on_one_cpu_writes_the_bytes_of_an_unrestricted_run(cohort_dir, tmp_path):
    # the CPU affinity of the child process alone is restricted
    outputs = []
    for tag, cpus in (("all", None), ("one", {min(os.sched_getaffinity(0))})):
        out = [str(tmp_path / f"{tag}.csv"), str(tmp_path / f"{tag}.json")]
        argv = ["cv", cohort_dir, "--out-csv", out[0], "--out-json", out[1]]
        proc = run_cli(argv + ["--set", "folds=5", "--set", "rounds=2"] + FAST, cpus=cpus)
        assert proc.returncode == 0, proc.stderr
        outputs.append([read_bytes(path) for path in out])
    assert outputs[0] == outputs[1]


@settings(max_examples=7)
@given(
    command=st.sampled_from(["extract", "train", "cv"]),
    key=st.sampled_from(["freq_components", "units", "num_words"]),
    size=st.integers(10**6, 10**308),
)
# numpy refused the DCT block's shape with a ValueError, which escaped as a traceback
@example(command="extract", key="freq_components", size=10**18)
def test_huge_sizes_end_in_an_exit_code_under_a_memory_limit(
    cohort_dir, tmp_path_factory, command, key, size
):
    # each run in a process of its own, limited to 1.5 GB of address space,
    # which an allocation of any of these sizes exceeds
    out = str(tmp_path_factory.mktemp("huge") / "out")
    outputs = {"extract": [out], "train": [out], "cv": ["--out-csv", out, "--out-json", out]}
    argv = [command, cohort_dir, *outputs[command], *FAST, "--set", "folds=3",
            "--set", f"{key}={size}"]
    proc = run_cli(argv, address_space=1_500_000_000)
    assert proc.returncode in (0, 1, 2, 3), proc.stderr
    assert proc.stderr.count("\n") <= 1 and "Traceback" not in proc.stderr, proc.stderr


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
# huge values go only to float keys and to keys rejected before anything
# of their size is allocated; a huge units, freq_components,
# cepstrum_components, max_passes, patience or rounds would run out of memory
HUGE_OK = {"folds", "num_words", "layers", "val_count", "frame_epochs"}
SETTINGS = [
    f"{key}={value}"
    for key, (_, kind) in KEYS.items()
    for value in ["nan", "inf", "-inf", "0", "-1"]
    + (["1e308"] if kind is float else [HUGE] if key in HUGE_OK else [])
]


def test_set_values_cover_every_config_key():
    assert {setting.partition("=")[0] for setting in SETTINGS} == set(KEYS)
    assert len(KEYS) == 20


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
