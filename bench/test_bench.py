"""Tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer

BENCH = Path(__file__).resolve().parent
DECLARED = run.declared_metrics()


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def bench(capsys, workload, trace=0, seed=5):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cv", "score", "synth"])
def test_tiny_run_reports_every_metric_with_its_unit(capsys, workload, trace):
    record, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (1 if trace else run.MIN_OPS)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert record["figures"]["error_rate"] == 0.0
    assert record["env"]["seed"] == 5 and record["env"]["src_lines"] > 0
    saved = json.loads((run.RESULTS / f"{workload}-seed5-trace{trace}.json").read_text())
    assert saved["result"] == result
    assert bool(saved["spans"]) == bool(trace)


def test_traced_run_covers_the_operation_with_layer_spans(capsys):
    _, result = bench(capsys, "score", trace=1)
    assert 0.5 < result["metrics"]["trace.coverage"]["value"] <= 1.0
    saved = json.loads((run.RESULTS / "score-seed5-trace1.json").read_text())
    names = {s["name"] for s in saved["spans"]["traced_ops"]}
    # spans come from inside cmd_eval: a layer the program calls, and one it calls in turn
    assert {"modelio.load_model", "ingest.load_recording", "transforms.dct2"} <= names


def test_wrapping_restores_the_program():
    workloads = run.import_package()
    before = [getattr(owner, attr) for owner, attr, _, _ in workloads.LAYERS]
    real_train = workloads.evaluate.train
    with pytest.raises(RuntimeError):
        with Tracer().wrapping(workloads.LAYERS):
            assert workloads.evaluate.train is not real_train
            raise RuntimeError
    assert [getattr(owner, attr) for owner, attr, _, _ in workloads.LAYERS] == before


def _checkout_copy(root, with_src):
    shutil.copy(BENCH.parent / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__", "results", ".work"))
    if with_src:
        shutil.copytree(BENCH.parent / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_entry_point_pins_blas_in_its_own_process(tmp_path):
    _checkout_copy(tmp_path, with_src=True)
    argv = [sys.executable, "bench/run.py", "--workload", "synth", "--seed", "1", "--seconds", "0", "--tiny"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
    assert set(env["blas_threads"].values()) == {"1"}


def test_same_seed_gives_same_figures(capsys):
    first, _ = bench(capsys, "cv", seed=7)
    second, _ = bench(capsys, "cv", seed=7)
    assert first["figures"]["cv_f1"] == second["figures"]["cv_f1"]


def _tamper_on_call(monkeypatch, module, name, target_call, corrupt):
    """Wrap module.name so that call number ``target_call`` corrupts its output."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args):
        out = real(*args)
        if len(calls) == target_call:
            corrupt(args)
        calls.append(args)
        return out

    monkeypatch.setattr(module, name, wrapper)


def _append(path):
    with open(path, "a") as fh:
        fh.write("0\n")


@pytest.mark.parametrize(
    "workload, target_call",
    [
        ("cv", 1),  # second repeat differs from the first
        ("score", 1),  # second eval (the 8 h night) writes a bad CSV row
        ("synth", 0),  # first repeat does not reload bit-equal
        ("synth", 1),  # second repeat differs from the first
    ],
)
def test_tampered_output_counts_as_a_failed_operation(capsys, monkeypatch, workload, target_call):
    workloads = run.import_package()
    if workload == "cv":
        _tamper_on_call(
            monkeypatch, workloads.evaluate, "write_cv_summary", target_call, lambda a: _append(a[1])
        )
    elif workload == "score":
        _tamper_on_call(monkeypatch, workloads.cli, "main", target_call, lambda a: _append(a[0][4]))
    else:
        _tamper_on_call(
            monkeypatch,
            workloads.cli,
            "main",
            target_call,
            lambda a: _append(next(Path(a[0][1]).glob("*_hr.csv"))),
        )
    _, result = bench(capsys, workload)
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    _checkout_copy(tmp_path, with_src=False)
    argv = [sys.executable, "bench/run.py", "--workload", "cv", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_and_coverage(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr("spans.time.perf_counter", lambda: float(next(clock)))
    tr = Tracer()
    with tr.span("outer", op=0) as outer:  # starts at 0
        with tr.span("a"):  # 1 .. 2
            pass
        with tr.span("b", calls=3):  # 3 .. 4
            pass
    # outer ends at 5
    assert outer.seconds == 5.0
    assert tr.coverage(outer) == pytest.approx(2 / 5)
    records = {r["name"]: r for r in tr.records()}
    assert records["outer"]["self_s"] == 3.0
    assert records["b"]["parent"] == outer.id and records["b"]["op"] == 0
    assert records["b"]["counts"] == {"calls": 3}
