"""Synthetic cohorts with stage-dependent heart rate and movement.

Stages follow a Markov chain started in W. Heart rate is sampled every
1 / HR_RATE_HZ seconds from a per-stage Gaussian (HR_MEAN, HR_STD: deep
sleep slow and steady, wake fast and variable); actigraphy is sampled at
``ingest.ACTIGRAPHY_RATE_HZ`` as baseline sensor noise (ACT_NOISE_STD)
plus movement bursts whose probability (BURST_PROB) and amplitude
(BURST_AMP) depend on the stage. Epochs are ``ingest.EPOCH_SECONDS`` long.
The ``difficulty`` knob pulls per-stage means toward their global average:
1.0 keeps the full separation, smaller values blur the classes.

``SynthConfig(context_only=True)`` makes each epoch's signals reflect the
PREVIOUS epoch's stage while the chain itself is uniform, so nothing about
the current label is visible in the current epoch alone; only a model that
reads neighbouring epochs can do better than chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .ingest import ACTIGRAPHY_RATE_HZ, EPOCH_SECONDS, STAGES
from .ingest import ActigraphySeries, HeartRateSeries, Recording

# Emission parameters, one entry per stage in W, N1, N2, N3, REM order.
HR_MEAN = np.array([72.0, 63.0, 58.0, 52.0, 66.0])
HR_STD = np.array([4.0, 3.0, 2.5, 2.0, 5.0])
BURST_PROB = np.array([0.85, 0.35, 0.12, 0.02, 0.20])
BURST_AMP = np.array([0.45, 0.25, 0.15, 0.10, 0.20])
ACT_NOISE_STD = 0.02
HR_RATE_HZ = 1.0

_STICKY_TRANSITION = 0.9 * np.eye(5) + 0.025 * (1.0 - np.eye(5))
_UNIFORM_TRANSITION = np.full((5, 5), 0.2)
# every cohort reads these tables, so none may be written
for _table in (HR_MEAN, HR_STD, BURST_PROB, BURST_AMP, _STICKY_TRANSITION, _UNIFORM_TRANSITION):
    _table.flags.writeable = False


@dataclass(frozen=True)
class SynthConfig:
    """Cohort size, seed, class separation and the context-only switch."""

    n_recordings: int = 16
    epochs_per_recording: int = 240
    seed: int = 0
    difficulty: float = 1.0
    context_only: bool = False

    def __post_init__(self):
        if self.n_recordings < 1 or self.epochs_per_recording < 1:
            raise ConfigError("need at least one recording and one epoch")
        if not 0.0 < self.difficulty <= 1.0:
            raise ConfigError("difficulty must be in (0, 1]")

    @property
    def transition(self) -> np.ndarray:
        """The stage chain's matrix: sticky, or uniform when context-only."""
        return _UNIFORM_TRANSITION if self.context_only else _STICKY_TRANSITION


def _effective(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Difficulty-scaled HR means and burst probabilities."""
    hr = HR_MEAN.mean() + cfg.difficulty * (HR_MEAN - HR_MEAN.mean())
    bp = BURST_PROB.mean() + cfg.difficulty * (BURST_PROB - BURST_PROB.mean())
    return hr, np.clip(bp, 0.0, 1.0)


def _stage_chain(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    # each step draws rng.choice(5, p=row) as choice itself does, from the
    # row's normalised cumulative sum, without checking the row each time
    cdf = cfg.transition.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    stages = np.empty(cfg.epochs_per_recording, dtype=np.int64)
    stages[0] = 0  # recordings begin awake
    for t in range(1, cfg.epochs_per_recording):
        stages[t] = cdf[stages[t - 1]].searchsorted(rng.random(), side="right")
    return stages


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _generate_one(
    cfg: SynthConfig, rng: np.random.Generator, subject_id: str, hr_t: np.ndarray, act_t: np.ndarray
) -> Recording:
    """One night on the cohort's shared time axes ``hr_t`` and ``act_t``."""
    n = cfg.epochs_per_recording
    hr_mean, burst_prob = _effective(cfg)

    stages = _stage_chain(cfg, rng)
    emit = stages if not cfg.context_only else np.concatenate([[0], stages[:-1]])

    # heart rate: one sample per 1/rate seconds, stage-conditional Gaussian
    hr_stage = emit[np.floor(hr_t / EPOCH_SECONDS).astype(np.int64)]
    bpm = rng.normal(hr_mean[hr_stage], HR_STD[hr_stage])
    bpm = np.clip(bpm, 20.0, 220.0)

    # actigraphy: baseline sensor noise plus stage-dependent movement bursts
    xyz = rng.normal(0.0, ACT_NOISE_STD, size=(act_t.size, 3))
    per_epoch = int(EPOCH_SECONDS * ACTIGRAPHY_RATE_HZ)
    for k in range(n):
        if rng.random() >= burst_prob[emit[k]]:
            continue
        amp = BURST_AMP[emit[k]]
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(per_epoch // 60, per_epoch // 6))
            start = k * per_epoch + int(rng.integers(0, per_epoch - length))
            xyz[start : start + length] += rng.normal(0.0, amp, size=(length, 3))

    return Recording(
        subject_id=subject_id,
        hr=HeartRateSeries(t=hr_t, bpm=_read_only(bpm)),
        act=ActigraphySeries(t=act_t, xyz=_read_only(xyz)),
        labels=tuple(STAGES[s] for s in stages),
    )


def generate_cohort(cfg: SynthConfig) -> list[Recording]:
    """Deterministic cohort: recording i draws from the i-th spawned stream.

    Every night holds the same two read-only time axes, built once here;
    its own signal arrays are read-only too.
    """
    span = cfg.epochs_per_recording * EPOCH_SECONDS
    hr_t = _read_only(np.arange(int(span * HR_RATE_HZ)) / HR_RATE_HZ)
    act_t = _read_only(np.arange(int(span * ACTIGRAPHY_RATE_HZ)) / ACTIGRAPHY_RATE_HZ)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_recordings)
    width = max(2, len(str(cfg.n_recordings - 1)))
    return [
        _generate_one(
            cfg, np.random.Generator(np.random.Philox(children[i])), f"s{i:0{width}d}", hr_t, act_t
        )
        for i in range(cfg.n_recordings)
    ]
