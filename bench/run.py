"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload cv --seed 1 --seconds 25 --trace 0

Run it from the root of a sleepstager checkout; it imports the package
from ``src/`` there and exits 1 without a result when that is missing.
``--trace 0`` sets the workload up several times, then runs its
operation in a closed loop for about ``--seconds`` seconds (at least two
operations) and reports the end-to-end metrics. ``--trace 1`` sets up and
runs every workload once with its layers spanned, then runs this
workload's operation untraced once and traced for ``--seconds``, and
reports the per-layer metrics instead. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the workload's own figures, and the whole
record, spans included, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, span_seconds

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
# Set-up repeats until both minimums are met, so a cheap set-up's median is
# not one scheduler hiccup. Two repeats, not more: one score set-up (train
# a model, write an 8 h night as CSV) takes about 12 s.
SETUP_REPEATS = 2
SETUP_SECONDS = 2.0
MIN_OPS = 2


def import_package():
    """Import sleepstager from this checkout's src/, never from elsewhere."""
    init = SRC / "sleepstager" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from the root of a sleepstager checkout")
    sys.path.insert(0, str(SRC))
    import sleepstager

    if Path(sleepstager.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported sleepstager from {sleepstager.__file__}, not {init}")
    import workloads

    return workloads


def declared_metrics() -> dict[str, dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, by kind, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_ops(op, seconds: float, min_ops: int) -> tuple[list[float], list[list[str]]]:
    """Closed loop: the next operation starts when the previous one ends.

    Stops once ``min_ops`` operations have run and another one of median
    length would end past ``seconds``. An exception is a failed operation.
    """
    times, problems = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            seconds_taken, found = op(len(times))
        except Exception:  # a failing operation is counted, not fatal
            seconds_taken, found = time.perf_counter() - t0, [traceback.format_exc()]
        times.append(seconds_taken)
        problems.append(found)
        for p in found:
            print(f"bench: operation {len(times) - 1} failed: {p}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if len(times) >= min_ops and elapsed + statistics.median(times) > seconds:
            return times, problems


def src_record() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, sizes) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        **src_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": vars(sizes),
    }


def set_up(wl, workdir: Path, repeats: int, min_seconds: float) -> list[float]:
    """Set the workload up at least ``repeats`` times and ``min_seconds`` in all.

    Each set-up gets a fresh directory; the workload keeps the last one.
    """
    times: list[float] = []
    while len(times) < repeats or sum(times) < min_seconds:
        directory = workdir / f"setup{len(times)}"
        directory.mkdir(parents=True)
        t0 = time.perf_counter()
        wl.setup(directory)
        times.append(time.perf_counter() - t0)
        if len(times) > 1:
            shutil.rmtree(workdir / f"setup{len(times) - 2}")
    return times


def measure(wl, args, workdir: Path) -> tuple[dict, dict, list[list[str]], dict]:
    """Returns (metrics, workload figures, problems per operation, spans by phase)."""
    if not args.trace:
        setup_seconds = set_up(wl, workdir, SETUP_REPEATS, SETUP_SECONDS)
        times, problems = run_ops(lambda i: wl.op(i, Tracer()), args.seconds, MIN_OPS)
        metrics = {
            # The slowest operation, not the mean or median: the host runs at
            # a sustained speed with bursts about 1.5x faster that last
            # seconds, so how many operations a burst catches varies from
            # run to run, while nearly every run has one operation at the
            # sustained speed.
            "slowest_op_s": max(times),
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        figures = {"setup_seconds": setup_seconds, "op_seconds": times, **wl.details(times)}
        return metrics, figures, problems, {}

    from workloads import LAYERS, WORKLOADS, layer_metrics, score_f1

    # Every workload is set up once and runs one operation with its layers
    # spanned, so that every traced run reports every per-layer metric.
    probes, problems = {}, []
    for name, cls in WORKLOADS.items():
        probe = wl if name == wl.name else cls(wl.sizes, args.seed, workdir / f"probe-{name}")
        tr = probes[name] = Tracer()
        with tr.wrapping(LAYERS):
            set_up(probe, probe.workdir, 1, 0.0)
            problems += run_ops(lambda i: probe.op(i, tr), 0.0, 1)[1]
    metrics = layer_metrics(probes, wl.sizes)

    # one untraced operation, the baseline for the tracing overhead; its
    # outputs must equal those of the traced ones
    plain, plain_problems = run_ops(lambda i: wl.op(i, Tracer()), 0.0, 1)
    tr = Tracer()
    with tr.wrapping(LAYERS):
        traced, traced_problems = run_ops(lambda i: wl.op(i, tr), args.seconds, 1)
    metrics["trace.coverage"] = statistics.median(tr.coverage(s) for s in tr.roots())
    # Tracing cost per operation: its span count times the cost of one
    # spanned call. The traced-minus-untraced difference is kept as a
    # figure; on a shared host it is run-to-run noise, seconds either way.
    spans_per_op = statistics.median(
        sum(1 for s in tr.spans if s.op == i) for i in range(len(traced))
    )
    metrics["trace.overhead_s"] = spans_per_op * span_seconds()
    figures = {
        "op_seconds": plain,
        "traced_op_seconds": traced,
        "traced_minus_untraced_s": statistics.median(traced) - statistics.median(plain),
        "spans_per_op": spans_per_op,
        "score_f1": score_f1(probes["score"]),
        # F1s only: times from a traced run are not end-to-end figures
        **{k: v for k, v in wl.details(plain).items() if k.endswith("_f1")},
    }
    spans = {f"probe.{name}": t.records() for name, t in probes.items()}
    spans["traced_ops"] = tr.records()
    return metrics, figures, problems + plain_problems + traced_problems, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cv", "score", "synth"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workloads = import_package()
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    sizes = workloads.TINY if args.tiny else workloads.FULL
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir)
        metrics, figures, problems, spans = measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(declared):
        raise SystemExit(f"bench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(declared)}")

    failed = sum(1 for found in problems if found)
    figures["error_rate"] = failed / len(problems)
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    record = {"env": environment(args, sizes), "figures": figures}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result, "problems": problems, "spans": spans}))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # BLAS must be pinned to one thread before numpy is imported.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.exit(main())
