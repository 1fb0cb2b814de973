"""Command-line front end.

Every file the package reads or writes goes through a subcommand here:

    validate    check a cohort directory and summarize it
    synth       generate a synthetic cohort as CSV files
    extract     write per-recording low-level feature matrices (.npy)
    train       fit a full model on a cohort and save it
    eval        score a labeled cohort with a saved model
    cv          subject-independent cross-validation with report files
    gradcheck   compare analytic and numeric gradients
    sweep       cross-validate a grid of architectures

Exit codes and stderr labels, one per class in ``errors``: 0 success;
1 ``usage error`` (UsageError) or ``config error`` (ConfigError); 2 ``data
error`` (DataValidationError, or an unreadable file); 3 ``numeric failure``
(NumericError: non-finite training or features, failed gradient check).
Running out of memory is a config error: ``config error: out of memory: ...``.
All outputs are deterministic: running a command twice with the same
inputs produces byte-identical files on one numpy and BLAS build at one
BLAS thread count. A command runs its BLAS on one thread unless the
environment sets one of ``processes.BLAS_THREAD_VARIABLES``, so that
``cv`` and ``sweep`` train on every CPU and a model's bytes do not depend
on the host's CPU count. The default is set when this module is imported
before numpy; a process that loaded numpy first keeps its BLAS as it is.
"""

import argparse
import math
import os
import sys
from collections import Counter

from .processes import BLAS_THREAD_VARIABLES

# one BLAS thread unless the user chose: numpy reads the variable as it loads
if "numpy" not in sys.modules and not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, DataValidationError, NumericError, SleepstagerError, UsageError
from .evaluate import (
    confusion_matrix,
    cross_validate,
    fit_model,
    weighted_metrics,
    write_cv_csv,
    write_cv_summary,
)
from .features_low import recording_low_features
from .ingest import _fmt, load_cohort, save_recording, stages_to_indices, write_csv
from .modelio import load_model, save_model
from .network import DIRECTIONS, NetSpec, layer_stack, network_forward, predict_stages
from .synth import SynthConfig, generate_cohort
from .training import gradient_check

GRADCHECK_FAIL_THRESHOLD = 1e-4


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise UsageError(message)


def _cfg(args) -> RunConfig:
    return load_config(args.config, args.set or [])


# ---------------------------------------------------------------- commands


def cmd_validate(args) -> int:
    recs = load_cohort(args.data)
    for rec in recs:
        counts = Counter(rec.labels)
        hist = " ".join(f"{k}:{counts[k]}" for k in sorted(counts))
        print(
            f"{rec.subject_id}: {rec.num_epochs} epochs, "
            f"{rec.hr.t.size} hr samples, {rec.act.t.shape[0]} act samples, "
            f"stages {hist}"
        )
    print(f"ok: {len(recs)} recording(s)")
    return 0


def cmd_synth(args) -> int:
    cfg = _cfg(args)
    try:
        synth_cfg = SynthConfig(
            n_recordings=args.recordings,
            epochs_per_recording=args.epochs,
            seed=cfg.seed,
            difficulty=args.difficulty,
            context_only=args.context_only,
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    recs = generate_cohort(synth_cfg)
    for rec in recs:
        save_recording(rec, args.out)
    print(f"wrote {len(recs)} recording(s) to {args.out}")
    return 0


def cmd_extract(args) -> int:
    cfg = _cfg(args)
    recs = load_cohort(args.data)
    # every night is checked before the first file is written
    all_lows = [recording_low_features(rec, cfg.frame) for rec in recs]
    os.makedirs(args.out, exist_ok=True)
    for rec, lows in zip(recs, all_lows):
        path = os.path.join(args.out, f"{rec.subject_id}_low.npy")
        np.save(path, lows)
        print(f"{path}: {lows.shape[0]} epochs x {lows.shape[1]} features")
    return 0


def _split_train_val(recs, args, cfg):
    if args.val_subjects:
        wanted = [s.strip() for s in args.val_subjects.split(",") if s.strip()]
        known = {r.subject_id for r in recs}
        missing = [s for s in wanted if s not in known]
        if missing:
            raise UsageError(f"unknown validation subject(s): {', '.join(missing)}")
        val_ids = set(wanted)
    else:
        if cfg.val_count >= len(recs):
            raise ConfigError(
                f"val_count={cfg.val_count} leaves no training data "
                f"({len(recs)} recordings)"
            )
        val_ids = {r.subject_id for r in recs[-cfg.val_count :]}
    train_recs = [r for r in recs if r.subject_id not in val_ids]
    val_recs = [r for r in recs if r.subject_id in val_ids]
    if not train_recs or not val_recs:
        raise UsageError("need at least one training and one validation recording")
    return train_recs, val_recs


def cmd_train(args) -> int:
    cfg = _cfg(args)
    recs = load_cohort(args.data)
    train_recs, val_recs = _split_train_val(recs, args, cfg)
    model, history = fit_model(
        train_recs,
        val_recs,
        cfg.frame,
        cfg.num_words,
        cfg.net_layers(),
        cfg.train,
        cfg.num_classes,
        (cfg.seed,) * 3,
    )
    save_model(model, args.model)
    history_path = args.history or args.model + ".history.csv"
    rows = [(i, *losses) for i, losses in enumerate(history)]
    write_csv(history_path, ["pass", "train_loss", "val_loss"], rows)
    best = min(v for _, v in history)
    print(
        f"trained {len(history)} pass(es) on {len(train_recs)} recording(s), "
        f"best validation loss {_fmt(best)}"
    )
    print(f"model: {args.model}")
    print(f"history: {history_path}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    recs = load_cohort(args.data)
    rows = []
    total = np.zeros((model.num_classes, model.num_classes), dtype=np.int64)
    for rec in recs:
        X = model.features_for(rec)
        (probs,), _ = network_forward((model.net,), (X,))
        pred = predict_stages(probs)
        ref = stages_to_indices(rec.labels, model.num_classes)
        cm = confusion_matrix(ref, pred, model.num_classes)
        total += cm
        p, r, f1 = weighted_metrics(cm)
        rows.append((rec.subject_id, rec.num_epochs, p, r, f1))
    p, r, f1 = weighted_metrics(total)
    rows.append(("all", int(total.sum()), p, r, f1))
    for sid, n, pp, rr, ff in rows:
        print(f"{sid}: {n} epochs P={_fmt(pp)} R={_fmt(rr)} F1={_fmt(ff)}")
    if args.out:
        write_csv(args.out, ["subject", "epochs", "precision", "recall", "f1"], rows)
        print(f"metrics: {args.out}")
    return 0


def _cross_validate(cfg: RunConfig, recs, net_layers):
    """Cross-validate ``net_layers`` on ``recs`` under ``cfg``."""
    return cross_validate(
        recs,
        frame=cfg.frame,
        num_words=cfg.num_words,
        net_layers=net_layers,
        train_cfg=cfg.train,
        k=cfg.folds,
        rounds=cfg.rounds,
        seed=cfg.seed,
        num_classes=cfg.num_classes,
    )


def cmd_cv(args) -> int:
    cfg = _cfg(args)
    report = _cross_validate(cfg, load_cohort(args.data), cfg.net_layers())
    write_cv_csv(report, args.out_csv)
    write_cv_summary(report, args.out_json)
    print(
        f"{report.rounds} round(s) x {report.k} folds: "
        f"P={_fmt(report.precision)} R={_fmt(report.recall)} F1={_fmt(report.f1)}"
    )
    print(f"metrics: {args.out_csv}")
    print(f"summary: {args.out_json}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _cfg(args)
    if args.seq_len < 1:
        raise UsageError("--seq-len must be >= 1")
    try:
        spec = NetSpec(
            input_dim=args.input_dim,
            num_classes=cfg.num_classes,
            layers=layer_stack(args.kind, args.units, args.layers),
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    err = gradient_check(spec, T=args.seq_len, seed=cfg.seed)
    print(f"max relative gradient error: {_fmt(err)}")
    if not math.isfinite(err) or err >= GRADCHECK_FAIL_THRESHOLD:
        raise NumericError(
            f"gradient check failed: {_fmt(err)} >= {_fmt(GRADCHECK_FAIL_THRESHOLD)}"
        )
    return 0


def cmd_sweep(args) -> int:
    cfg = _cfg(args)
    recs = load_cohort(args.data)
    rows = []
    for kind, depth, width in cfg.sweep_grid():
        report = _cross_validate(cfg, recs, ((kind, width),) * depth)
        rows.append((kind, depth, width, report.precision, report.recall, report.f1))
        print(
            f"{kind} x{depth} @{width}: P={_fmt(report.precision)} "
            f"R={_fmt(report.recall)} F1={_fmt(report.f1)}"
        )
    write_csv(args.out, ["hidden_type", "layers", "units", "precision", "recall", "f1"], rows)
    print(f"results: {args.out}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        help="override one config key (repeatable)",
    )

    parser = _Parser(prog="sleepstager", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common], help="check a cohort directory")
    p.add_argument("data", help="cohort directory of *_hr/_act/_labels.csv files")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic cohort")
    p.add_argument("out", help="output directory")
    p.add_argument("--recordings", type=int, default=16)
    p.add_argument("--epochs", type=int, default=240, help="epochs per recording")
    p.add_argument("--difficulty", type=float, default=1.0)
    p.add_argument(
        "--context-only",
        action="store_true",
        help="signals reflect the previous epoch's stage only",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", parents=[common], help="write low-level features")
    p.add_argument("data", help="cohort directory")
    p.add_argument("out", help="output directory for <id>_low.npy files")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common], help="train and save a model")
    p.add_argument("data", help="cohort directory")
    p.add_argument("model", help="output model file")
    p.add_argument("--history", metavar="PATH", help="loss history CSV path")
    p.add_argument(
        "--val-subjects",
        metavar="IDS",
        help="comma-separated held-out subject ids (default: last val_count)",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="score a labeled cohort")
    p.add_argument("model", help="model file")
    p.add_argument("data", help="cohort directory")
    p.add_argument("--out", metavar="PATH", help="per-subject metrics CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", parents=[common], help="cross-validate a cohort")
    p.add_argument("data", help="cohort directory")
    p.add_argument("--out-csv", metavar="PATH", default="cv_metrics.csv")
    p.add_argument("--out-json", metavar="PATH", default="cv_summary.json")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser(
        "gradcheck", parents=[common], help="verify gradients numerically"
    )
    p.add_argument("--kind", choices=DIRECTIONS, default="blstm")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--units", type=int, default=8)
    p.add_argument("--seq-len", type=int, default=12)
    p.add_argument("--input-dim", type=int, default=7)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", parents=[common], help="cross-validate a model grid")
    p.add_argument("data", help="cohort directory")
    p.add_argument("--out", metavar="PATH", default="sweep_results.csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # numeric faults end in one NumericError line, not numpy warnings first
        with np.errstate(all="ignore"):
            return args.func(args)
    except SleepstagerError as exc:
        kind, message = type(exc), str(exc)
    except OSError as exc:  # a file that cannot be read or written
        kind, message = DataValidationError, str(exc)
    except MemoryError as exc:  # sizes set by config that no check bounds yet
        kind, message = ConfigError, f"out of memory: {exc}"
    print(f"{kind.label}: {message}", file=sys.stderr)
    return kind.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
