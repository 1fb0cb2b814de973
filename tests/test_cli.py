"""End-to-end tests of the command line: exit codes, files, determinism."""

import json
import os

import numpy as np
import pytest

from sleepstager import cli
from sleepstager.evaluate import fit_model
from sleepstager.features_low import FrameConfig, recording_low_features
from sleepstager.ingest import load_cohort, stages_to_indices
from sleepstager.modelio import load_dictionary, load_model, save_model
from sleepstager.training import TrainConfig

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
