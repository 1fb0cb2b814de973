"""Confusion matrices, weighted metrics, and subject-independent cross-validation.

Per-class precision/recall/F1 are combined with weights equal to each
class's share of the reference labels. Cross-validation partitions whole
subjects into k folds; each iteration tests on one fold, validates on the
next (cyclically), and trains on the rest, so no subject ever straddles
splits. Rounds reshuffle the folds with a shifted seed and everything is
averaged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericError
from .features_low import FrameConfig, recording_low_features
from .ingest import Recording, class_names, stages_to_indices, write_csv
from .network import NetSpec, network_forward, predict_stages
from .pipeline import FittedModel, FittedPipeline, fit_pipeline, make_sequences
from .training import TrainConfig, init_params, lockstep_size, train

Split = tuple[list[np.ndarray], list[np.ndarray]]  # (low features, stage indices) per recording


def confusion_matrix(reference: np.ndarray, predicted: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts matrix with reference stages as rows, predictions as columns."""
    ref = np.asarray(reference, dtype=np.int64)
    pred = np.asarray(predicted, dtype=np.int64)
    if ref.shape != pred.shape or ref.ndim != 1:
        raise ValueError(f"length mismatch: {ref.shape} vs {pred.shape}")
    if ref.size == 0:
        raise ValueError("empty label sequences")
    if np.any((ref < 0) | (ref >= num_classes) | (pred < 0) | (pred >= num_classes)):
        raise ValueError("class index out of range")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (ref, pred), 1)
    return cm


def per_class_metrics(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (precision, recall, F1); zero-denominator entries are 0."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    predicted = cm.sum(axis=0)
    reference = cm.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(reference > 0, tp / reference, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return precision, recall, f1


def weighted_metrics(cm: np.ndarray) -> tuple[float, float, float]:
    """Reference-proportion-weighted (precision, recall, F1)."""
    cm = np.asarray(cm)
    total = cm.sum()
    if total <= 0:
        raise ValueError("empty confusion matrix")
    weights = cm.sum(axis=1) / total
    precision, recall, f1 = per_class_metrics(cm)
    return (
        float(weights @ precision),
        float(weights @ recall),
        float(weights @ f1),
    )


def kfold_split(subject_ids: list[str], k: int, seed: int) -> list[list[str]]:
    """Seeded shuffle, then round-robin deal into k folds (sizes differ <= 1)."""
    if len(subject_ids) < k:
        raise ValueError(f"need at least k={k} subjects, got {len(subject_ids)}")
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.Generator(np.random.Philox(seed))
    shuffled = [subject_ids[j] for j in rng.permutation(len(subject_ids))]
    return [shuffled[j::k] for j in range(k)]


def _fit_job(train_split, val_split, num_words, net_layers, train_cfg, num_classes, seeds):
    """The fitted pipeline of one fit and the ``train`` arguments for its
    network: initial network, training and validation sequences, config."""
    kmeans_seed, init_seed, sgd_seed = seeds
    pipeline = fit_pipeline(train_split[0], num_words, seed=kmeans_seed)
    spec = NetSpec(input_dim=pipeline.final_dim, num_classes=num_classes, layers=net_layers)
    net = init_params(spec, seed=init_seed, init_std=train_cfg.init_std)
    return pipeline, (
        net,
        make_sequences(*train_split, pipeline, num_classes),
        make_sequences(*val_split, pipeline, num_classes),
        replace(train_cfg, seed=sgd_seed),
    )


def fit_model(
    train_split: Split,
    val_split: Split,
    frame: FrameConfig,
    num_words: int,
    net_layers: tuple[tuple[str, int], ...],
    train_cfg: TrainConfig,
    num_classes: int,
    seeds: tuple[int, int, int],
) -> tuple[FittedModel, list[tuple[float, float]]]:
    """Codebook and z-score fitted on the training split, then a network trained
    with early stopping on the validation split; ``seeds`` are the k-means,
    init and SGD seeds. Returns the model and the per-pass (train, val) losses.
    """
    pipeline, job = _fit_job(
        train_split, val_split, num_words, net_layers, train_cfg, num_classes, seeds
    )
    trained, history = train(*job)
    return FittedModel(frame, num_classes, pipeline, trained), history


@dataclass(frozen=True)
class FoldResult:
    """One train/validate/test iteration's outcome."""

    round_index: int
    fold_index: int
    test_subjects: tuple[str, ...]
    cm: np.ndarray
    precision: float
    recall: float
    f1: float
    pipeline: FittedPipeline
    passes_run: int


@dataclass(frozen=True)
class CvReport:
    """All fold results plus the aggregate means."""

    num_classes: int
    k: int
    rounds: int
    folds: tuple[FoldResult, ...]
    precision: float
    recall: float
    f1: float


def cross_validate(
    recordings: list[Recording],
    frame: FrameConfig,
    num_words: int,
    net_layers: tuple[tuple[str, int], ...],
    train_cfg: TrainConfig,
    k: int = 8,
    rounds: int = 3,
    seed: int = 0,
    num_classes: int = 5,
) -> CvReport:
    """Subject-independent k-fold CV over several rounds.

    Low-level features depend only on each recording's own signals, so they
    are extracted once up front. Everything fitted (dictionary, z-score
    stats, network) comes from the k - 2 training folds of each iteration.
    Per-iteration seeds are spawned from (seed, round, fold) so results
    never depend on execution order; fold shuffling uses seed + round.
    The fits train in (round, fold) order in groups of ``lockstep_size``.
    """
    if k < 3:
        raise ValueError(f"k={k}: need a test, a validation and a training fold (k >= 3)")
    if k > len(recordings):
        raise ConfigError(f"folds={k} exceeds the cohort's {len(recordings)} subjects")
    ids = [r.subject_id for r in recordings]
    if len(set(ids)) != len(ids):
        raise ValueError("subject ids must be unique")
    by_id = {r.subject_id: i for i, r in enumerate(recordings)}
    lows = [recording_low_features(r, frame) for r in recordings]
    labels = [stages_to_indices(r.labels, num_classes) for r in recordings]

    def split(id_list) -> Split:
        return [lows[by_id[s]] for s in id_list], [labels[by_id[s]] for s in id_list]

    plan = []  # round, fold, and test, validation and training subjects and seeds of every fit
    for round_index in range(rounds):
        folds = kfold_split(ids, k, seed + round_index)
        for f in range(k):
            v = (f + 1) % k
            seeds = np.random.SeedSequence(seed, spawn_key=(round_index, f)).generate_state(3)
            train_ids = [s for j in range(k) if j not in (f, v) for s in folds[j]]
            plan.append((round_index, f, folds[f], folds[v], train_ids, [int(s) for s in seeds]))

    results: list[FoldResult] = []
    size = lockstep_size(net_layers)
    for start in range(0, len(plan), size):
        group = plan[start : start + size]
        pipelines, jobs = zip(*(
            _fit_job(split(tr), split(va), num_words, net_layers, train_cfg, num_classes, sd)
            for *_, va, tr, sd in group
        ))
        try:
            nets, histories = train(*zip(*jobs))
        except NumericError as exc:
            if exc.member is None:
                raise
            round_index, fold_index = group[exc.member][:2]
            raise NumericError(f"round {round_index}, fold {fold_index}: {exc}") from exc
        del jobs  # the group's sequences and initial networks, before test scoring
        for (round_index, fold_index, test_ids, *_), pipeline, net, history in zip(
            group, pipelines, nets, histories
        ):
            test_lows, refs = split(test_ids)
            probs = [network_forward(net, pipeline.transform(x))[0] for x in test_lows]
            preds = [predict_stages(night) for night in probs]
            cm = confusion_matrix(np.concatenate(refs), np.concatenate(preds), num_classes)
            p, r, f1 = weighted_metrics(cm)
            results.append(FoldResult(
                round_index, fold_index, tuple(test_ids), cm, p, r, f1, pipeline, len(history)
            ))

    return CvReport(
        num_classes=num_classes,
        k=k,
        rounds=rounds,
        folds=tuple(results),
        precision=float(np.mean([f.precision for f in results])),
        recall=float(np.mean([f.recall for f in results])),
        f1=float(np.mean([f.f1 for f in results])),
    )


def write_cv_csv(report: CvReport, path: str) -> None:
    """Per-iteration class-wise and weighted metrics, plus an aggregate row."""
    names = class_names(report.num_classes)
    header = ["round", "fold", *(f"{m}_{n}" for n in names for m in ("P", "R", "F1"))]
    header += ["weighted_P", "weighted_R", "weighted_F1"]
    # one row per fold: P, R and F1 of the first class, then of the next, ...
    per_class = np.array([np.column_stack(per_class_metrics(f.cm)).ravel() for f in report.folds])
    rows = [
        (f.round_index, f.fold_index, *cells, f.precision, f.recall, f.f1)
        for f, cells in zip(report.folds, per_class)
    ]
    # a 1-d mean per column: an axis-0 mean sums in another order (other last bits)
    means = [np.mean(column) for column in per_class.T]
    rows.append(("all", "all", *means, report.precision, report.recall, report.f1))
    write_csv(path, header, rows)


def summary_document(report: CvReport) -> str:
    """Deterministic JSON summary of a report."""
    doc = {
        "schema_version": 1,
        "num_classes": report.num_classes,
        "k": report.k,
        "rounds": report.rounds,
        "aggregate": {
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
        },
        "iterations": [
            {
                "round": f.round_index,
                "fold": f.fold_index,
                "test_subjects": list(f.test_subjects),
                "precision": f.precision,
                "recall": f.recall,
                "f1": f.f1,
                "confusion": f.cm.tolist(),
                "passes_run": f.passes_run,
            }
            for f in report.folds
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_cv_summary(report: CvReport, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(summary_document(report))
