"""The benchmark's workloads, their output checks, and the layer spans.

Every input is generated from the workload seed. A workload object is set
up several times (the last set-up is kept), then runs operations in a
closed loop, one at a time. ``op`` makes exactly the calls a user makes,
times them as the root span of the operation, and checks the outputs
after that span ends. A traced run does the same inside
``Tracer.wrapping(LAYERS)``, which puts a span around every call the
program makes into the functions in ``LAYERS``; ``layer_metrics`` reads
the per-layer metrics off those spans.

Workloads:

cv     ``evaluate.cross_validate`` plus its CSV/JSON report writers on an
       in-memory cohort of 2 h nights. Dominated by network and training.
score  ``sleepstager eval`` in-process, one night per call, a 2 h and an
       8 h night per operation. Dominated by CSV parsing, epoch bucketing
       and low-level features; night length is the property the bucketing
       cost depends on.
synth  ``sleepstager synth``: the CSV writer, the other direction of
       ingest.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sleepstager import cli, evaluate, features_low, ingest, modelio, pipeline, training
from sleepstager.evaluate import weighted_metrics
from sleepstager.features_low import FrameConfig, recording_low_features
from sleepstager.ingest import load_cohort, save_recording, stages_to_indices
from sleepstager.network import NetSpec
from sleepstager.pipeline import FittedModel, FittedPipeline, fit_pipeline, make_sequences
from sleepstager.synth import SynthConfig, generate_cohort
from sleepstager.training import TrainConfig, init_params, train

from spans import Tracer

NUM_CLASSES = 5
FRAME = FrameConfig()
NIGHTS = ("2h", "8h")
FOLDS = 4
SYNTH_RECORDINGS = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes. FULL is the benchmark; TINY exercises every path in seconds."""

    short_epochs: int  # a 2 h night of 30 s epochs
    long_epochs: int  # an 8 h night
    cohort: int  # recordings in the cv cohort
    units: int  # blstm width
    num_words: int
    max_passes: int
    model_recordings: int  # recordings behind the score model; the last one validates
    model_passes: int


# The cv cohort is half the acceptance cohort and trains for half the
# passes, so that two CVs fit in one run; training still dominates it.
FULL = Sizes(
    short_epochs=240,
    long_epochs=960,
    cohort=8,
    units=32,
    num_words=300,
    max_passes=6,
    model_recordings=4,
    model_passes=3,
)
TINY = Sizes(
    short_epochs=20,
    long_epochs=40,
    cohort=4,
    units=4,
    num_words=8,
    max_passes=2,
    model_recordings=3,
    model_passes=1,
)


def _epochs(out) -> dict:
    return {"epochs": out.shape[0]}


def _rows(rec) -> dict:
    return {
        "epochs": rec.num_epochs,
        "rows": rec.hr.t.size + rec.act.t.shape[0] + rec.num_epochs,
    }


# Each function below is replaced, while a traced run lasts, through the
# module (or class) the program calls it through, so that every call the
# program makes to it is a span. Entry points (cross_validate, cli.main)
# are not wrapped: an operation's root span stands for them, and its self
# time is their own glue code.
LAYERS = (
    (evaluate, "recording_low_features", "features_low.recording_low_features", _epochs),
    (pipeline, "recording_low_features", "features_low.recording_low_features", _epochs),
    (features_low, "epoch_rr", "ingest.epoch_rr", None),
    (features_low, "epoch_actigraphy", "ingest.epoch_actigraphy", None),
    (features_low, "dct2", "transforms.dct2", None),
    (features_low, "real_cepstrum", "transforms.real_cepstrum", None),
    (evaluate, "fit_pipeline", "pipeline.fit_pipeline", None),
    (pipeline, "kmeans_fit", "features_mid.kmeans_fit", lambda d: {"iterations": d.iterations}),
    (pipeline, "bow_encode", "features_mid.bow_encode", None),
    (pipeline, "zscore_fit", "features_mid.zscore_fit", None),
    (pipeline, "zscore_apply", "features_mid.zscore_apply", None),
    (FittedPipeline, "transform", "pipeline.transform", _epochs),
    (evaluate, "make_sequences", "pipeline.make_sequences", None),
    (evaluate, "init_params", "training.init_params", None),
    (evaluate, "train", "training.train", lambda out: {"passes": len(out[1])}),
    (training, "mean_loss", "training.mean_loss", None),
    (training, "network_forward", "network.network_forward", None),
    (training, "network_backward", "network.network_backward", None),
    (evaluate, "network_forward", "network.network_forward", None),
    (evaluate, "confusion_matrix", "evaluate.confusion_matrix", None),
    (evaluate, "weighted_metrics", "evaluate.weighted_metrics", None),
    (evaluate, "write_cv_csv", "evaluate.write_cv_csv", None),
    (evaluate, "write_cv_summary", "evaluate.write_cv_summary", None),
    (cli, "load_model", "modelio.load_model", None),
    (modelio, "save_model", "modelio.save_model", None),
    (cli, "load_cohort", "ingest.load_cohort", None),
    (ingest, "load_recording", "ingest.load_recording", _rows),
    (cli, "network_forward", "network.network_forward", None),
    (cli, "confusion_matrix", "evaluate.confusion_matrix", lambda cm: {"cm": cm.tolist()}),
    (cli, "weighted_metrics", "evaluate.weighted_metrics", None),
    (cli, "generate_cohort", "synth.generate_cohort", None),
    (
        cli,
        "save_recording",
        "ingest.save_recording",
        lambda paths: {"bytes": sum(os.path.getsize(p) for p in paths.values())},
    ),
)


def train_config(passes: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=0.2,
        init_std=0.1,
        weight_noise_std=0.005,
        max_passes=passes,
        patience=passes,
        seed=0,
    )


class Inputs:
    """Recordings derived from the workload seed; equal seeds give equal inputs."""

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        states = np.random.SeedSequence(seed).generate_state(4)
        self.cohort_seed, self.night2h_seed, self.night8h_seed, self.model_seed = (
            int(s) for s in states
        )

    def cohort(self):
        return generate_cohort(
            SynthConfig(
                n_recordings=self.sizes.cohort,
                epochs_per_recording=self.sizes.short_epochs,
                seed=self.cohort_seed,
            )
        )

    def night(self, label: str):
        epochs, seed = {
            "2h": (self.sizes.short_epochs, self.night2h_seed),
            "8h": (self.sizes.long_epochs, self.night8h_seed),
        }[label]
        rec = generate_cohort(SynthConfig(n_recordings=1, epochs_per_recording=epochs, seed=seed))[0]
        return replace(rec, subject_id=f"night{label}")

    def model_cohort(self):
        return generate_cohort(
            SynthConfig(
                n_recordings=self.sizes.model_recordings,
                epochs_per_recording=self.sizes.short_epochs,
                seed=self.model_seed,
            )
        )


def build_model(recs, sizes: Sizes) -> FittedModel:
    """The ``train`` recipe: all recordings but the last train, the last validates."""
    lows = [recording_low_features(r, FRAME) for r in recs]
    labels = [stages_to_indices(r.labels, NUM_CLASSES) for r in recs]
    fitted = fit_pipeline(lows[:-1], sizes.num_words, seed=0)
    train_seqs = make_sequences(lows[:-1], labels[:-1], fitted, NUM_CLASSES)
    val_seqs = make_sequences(lows[-1:], labels[-1:], fitted, NUM_CLASSES)
    spec = NetSpec(
        input_dim=fitted.final_dim,
        num_classes=NUM_CLASSES,
        layers=(("blstm", sizes.units),),
    )
    net = init_params(spec, seed=0, init_std=0.1)
    trained, _ = train(net, train_seqs, val_seqs, train_config(sizes.model_passes))
    return FittedModel(frame=FRAME, num_classes=NUM_CLASSES, pipeline=fitted, net=trained)


def same_recording(a, b) -> bool:
    """Bit-for-bit equality of two recordings' signals and labels."""
    arrays = ((a.hr.t, b.hr.t), (a.hr.bpm, b.hr.bpm), (a.act.t, b.act.t), (a.act.xyz, b.act.xyz))
    return (
        a.subject_id == b.subject_id
        and a.labels == b.labels
        and a.epoch_seconds == b.epoch_seconds
        and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in arrays)
    )


def tree_digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of every file in a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class CvWorkload:
    name = "cv"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.inputs = Inputs(sizes, seed)
        self.reference: tuple[bytes, bytes] | None = None
        self.f1: float | None = None

    def setup(self, _directory: Path) -> None:
        self.cohort = self.inputs.cohort()

    def op(self, i: int, tr: Tracer) -> tuple[float, list[str]]:
        out = self.workdir / "cv"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        csv_path, json_path = out / "cv_metrics.csv", out / "cv_summary.json"
        with tr.span("cv.op", op=i) as root:
            report = evaluate.cross_validate(
                self.cohort,
                frame=FRAME,
                num_words=self.sizes.num_words,
                net_layers=(("blstm", self.sizes.units),),
                train_cfg=train_config(self.sizes.max_passes),
                k=FOLDS,
                rounds=1,
                seed=self.seed,
                num_classes=NUM_CLASSES,
            )
            evaluate.write_cv_csv(report, str(csv_path))
            evaluate.write_cv_summary(report, str(json_path))
        return root.seconds, self._check(report.f1, csv_path, json_path)

    def _check(self, f1: float, csv_path: Path, json_path: Path) -> list[str]:
        problems = []
        outputs = (json_path.read_bytes(), csv_path.read_bytes())
        shutil.rmtree(csv_path.parent)
        if self.reference is None:
            self.reference = outputs
            self.f1 = f1
        elif outputs != self.reference:
            problems.append("cv reports differ from the run's first repeat")
        if not math.isfinite(f1):
            problems.append(f"non-finite cv F1 {f1!r}")
        try:
            summary_f1 = json.loads(outputs[0])["aggregate"]["f1"]
            csv_f1 = outputs[1].decode().splitlines()[-1].split(",")[-1]
        except (ValueError, KeyError, IndexError) as exc:
            return problems + [f"unreadable cv report: {exc!r}"]
        if summary_f1 != f1 or csv_f1 != repr(f1):
            problems.append(f"report F1 {f1!r} != summary {summary_f1!r} / csv {csv_f1}")
        return problems

    def details(self, op_seconds: list[float]) -> dict:
        return {"cv_s": float(np.mean(op_seconds)), "cv_f1": self.f1}


class ScoreWorkload:
    name = "score"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.inputs = Inputs(sizes, seed)
        self.reference: dict[str, bytes] = {}
        self.f1: dict[str, str] = {}
        self.night_seconds: dict[str, list[float]] = {label: [] for label in NIGHTS}
        self.epochs = {"2h": sizes.short_epochs, "8h": sizes.long_epochs}

    def setup(self, directory: Path) -> None:
        self.model_path = directory / "model.bin"
        modelio.save_model(build_model(self.inputs.model_cohort(), self.sizes), str(self.model_path))
        self.night_dirs = {}
        for label in NIGHTS:
            self.night_dirs[label] = directory / f"night{label}"
            save_recording(self.inputs.night(label), str(self.night_dirs[label]))

    def op(self, i: int, tr: Tracer) -> tuple[float, list[str]]:
        """One eval call per night: the 2 h night, then the 8 h night."""
        total, problems = 0.0, []
        for label in NIGHTS:
            out = self.workdir / f"eval{label}.csv"
            argv = ["eval", str(self.model_path), str(self.night_dirs[label]), "--out", str(out)]
            with redirect_stdout(io.StringIO()):
                with tr.span("score.op", op=i, night=label) as root:
                    rc = cli.main(argv)
            total += root.seconds
            self.night_seconds[label].append(root.seconds)
            problems += self._check(label, rc, out)
        return total, problems

    def _check(self, label: str, rc: int, out: Path) -> list[str]:
        if rc != 0:
            return [f"eval of the {label} night exited {rc}"]
        data = out.read_bytes()
        out.unlink()
        problems = []
        if label not in self.reference:
            self.reference[label] = data
        elif data != self.reference[label]:
            problems.append(f"eval CSV of the {label} night differs from the run's first repeat")
        try:
            rows = [line.split(",") for line in data.decode().splitlines()[1:]]
            values = [float(v) for row in rows for v in row[2:5]]
            epochs = int(rows[-1][1])
        except (ValueError, IndexError) as exc:
            return problems + [f"unreadable eval CSV: {exc!r}"]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite metrics for the {label} night")
        if epochs != self.epochs[label]:
            problems.append(f"{label} night scored {epochs} epochs, expected {self.epochs[label]}")
        self.f1.setdefault(label, rows[-1][4])
        return problems

    def details(self, op_seconds: list[float]) -> dict:
        out = {f"night{label}_s": float(np.median(s)) for label, s in self.night_seconds.items() if s}
        out.update({f"night{label}_f1": float(v) for label, v in self.f1.items()})
        return out


class SynthWorkload:
    name = "synth"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.reference: str | None = None
        self.config = SynthConfig(
            n_recordings=SYNTH_RECORDINGS,
            epochs_per_recording=sizes.short_epochs,
            seed=seed,
        )

    def setup(self, _directory: Path) -> None:
        # the arrays the written cohort must reload to
        self.expected = generate_cohort(self.config)

    def op(self, i: int, tr: Tracer) -> tuple[float, list[str]]:
        out = self.workdir / "synth"
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "synth",
            str(out),
            "--recordings",
            str(SYNTH_RECORDINGS),
            "--epochs",
            str(self.sizes.short_epochs),
            "--set",
            f"seed={self.seed}",
        ]
        with redirect_stdout(io.StringIO()):
            with tr.span("synth.op", op=i) as root:
                rc = cli.main(argv)
        if rc != 0:
            return root.seconds, [f"synth exited {rc}"]
        return root.seconds, self._check(out)

    def _check(self, out: Path) -> list[str]:
        try:
            digest = tree_digest(out)
            if self.reference is not None:
                if digest != self.reference:
                    return ["synth files differ from the run's first repeat"]
                return []
            # first repeat: reload it; later repeats must match it byte for byte
            reloaded = load_cohort(str(out))
            if len(reloaded) != len(self.expected) or not all(
                same_recording(a, b) for a, b in zip(reloaded, self.expected)
            ):
                return ["reloaded cohort is not bit-equal to generate_cohort"]
            self.reference = digest
            return []
        except (OSError, ValueError) as exc:
            return [f"unreadable synth output: {exc!r}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def details(self, op_seconds: list[float]) -> dict:
        return {"synth_s": float(np.mean(op_seconds))}


WORKLOADS = {w.name: w for w in (CvWorkload, ScoreWorkload, SynthWorkload)}


def _only(spans, what: str):
    if len(spans) != 1:
        raise RuntimeError(f"expected one {what} span, found {len(spans)}")
    return spans[0]


def _first(spans, what: str):
    if not spans:
        raise RuntimeError(f"no {what} span")
    return spans[0]


def layer_metrics(probes: dict[str, Tracer], sizes: Sizes) -> dict[str, float]:
    """The per-layer metrics other than the trace's own, from each workload's spans.

    ``probes`` holds, by workload name, the spans of one set-up and one
    operation (op 0) of that workload, recorded under ``Tracer.wrapping(LAYERS)``.
    """
    cv, score, synth = probes["cv"], probes["score"], probes["synth"]
    m: dict[str, float] = {}

    # score: one eval of a 2 h and of an 8 h night
    epochs = {"2h": sizes.short_epochs, "8h": sizes.long_epochs}
    lows = {}
    for label, n in epochs.items():
        lows[label] = low = _only(
            [s for s in score.named("features_low.recording_low_features", op=0) if s.counts["epochs"] == n],
            f"{label} recording_low_features",
        )
        m[f"features_low.extract_{label}_s"] = low.seconds
        m[f"ingest.bucket_{label}_s"] = sum(
            s.seconds
            for name in ("ingest.epoch_rr", "ingest.epoch_actigraphy")
            for s in score.named(name, parent=low)
        )
    dct = score.named("transforms.dct2", parent=lows["8h"])
    cepstrum = score.named("transforms.real_cepstrum", parent=lows["8h"])
    m["transforms.dct_s"] = sum(s.seconds for s in dct)
    m["transforms.cepstrum_s"] = sum(s.seconds for s in cepstrum)
    m["transforms.calls"] = len(dct) + len(cepstrum)
    load = _only(
        [s for s in score.named("ingest.load_recording", op=0) if s.counts["epochs"] == epochs["8h"]],
        "8 h load_recording",
    )
    m["ingest.load_s"] = load.seconds
    m["ingest.rows_loaded"] = load.counts["rows"]
    m["pipeline.transform_s"] = _only(
        [s for s in score.named("pipeline.transform", op=0) if s.counts["epochs"] == epochs["8h"]],
        "8 h pipeline.transform",
    ).seconds
    m["modelio.save_s"] = _only(score.named("modelio.save_model"), "save_model").seconds
    m["modelio.load_s"] = _first(score.named("modelio.load_model", op=0), "load_model").seconds

    # cv: the first fold of one cross-validation
    kmeans = _first(cv.named("features_mid.kmeans_fit", op=0), "kmeans_fit")
    m["features_mid.kmeans_s"] = kmeans.seconds
    m["features_mid.kmeans_iters"] = kmeans.counts["iterations"]
    fit = _first(cv.named("training.train", op=0), "train")
    m["training.train_s"] = fit.seconds
    m["training.passes"] = passes = fit.counts["passes"]
    m["training.eval_s"] = sum(s.seconds for s in cv.named("training.mean_loss", parent=fit)) / passes
    m["training.sgd_pass_s"] = fit.seconds / passes - m["training.eval_s"]
    m["network.forward_s"] = statistics.median(
        s.seconds for s in cv.named("network.network_forward", parent=fit)
    )
    m["network.backward_s"] = statistics.median(
        s.seconds for s in cv.named("network.network_backward", parent=fit)
    )
    fold_start = _first(cv.named("pipeline.fit_pipeline", op=0), "fit_pipeline").start
    fold_end = _first(cv.named("evaluate.weighted_metrics", op=0), "weighted_metrics").end
    m["evaluate.fold_s"] = fold_end - fold_start

    # synth: one synth call; the writes are per 2 h night, median over the call's nights
    m["synth.generate_s"] = _only(synth.named("synth.generate_cohort", op=0), "generate_cohort").seconds
    writes = synth.named("ingest.save_recording", op=0)
    if len(writes) != SYNTH_RECORDINGS:
        raise RuntimeError(f"expected {SYNTH_RECORDINGS} save_recording spans, found {len(writes)}")
    m["ingest.write_s"] = statistics.median(s.seconds for s in writes)
    m["ingest.bytes_written"] = statistics.median(s.counts["bytes"] for s in writes)
    return m


def score_f1(tr: Tracer) -> float:
    """Weighted F1 pooled over the nights that operation 0 of ``score`` scored."""
    pooled = sum(np.array(s.counts["cm"]) for s in tr.named("evaluate.confusion_matrix", op=0))
    return weighted_metrics(pooled)[2]
