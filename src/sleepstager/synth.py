"""Synthetic cohorts with stage-dependent heart rate and movement.

Stages follow a Markov chain started in W. Heart rate is sampled at 1 Hz
from a per-stage Gaussian (deep sleep slow and steady, wake fast and
variable); actigraphy is 32 Hz baseline sensor noise plus movement bursts
whose probability and amplitude depend on the stage. The ``difficulty``
knob pulls per-stage means toward their global average: 1.0 keeps the full
separation, smaller values blur the classes.

A context-only variant makes each epoch's signals reflect the PREVIOUS
epoch's stage while the chain itself is uniform, so nothing about the
current label is visible in the current epoch alone; only a model that
reads neighbouring epochs can do better than chance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .ingest import ActigraphySeries, HeartRateSeries, Recording, STAGE_ORDER

_DEF_TRANSITION = 0.9 * np.eye(5) + 0.025 * (1.0 - np.eye(5))


@dataclass(frozen=True)
class SynthConfig:
    """Generator parameters; per-stage arrays follow W, N1, N2, N3, REM order."""

    n_recordings: int = 16
    epochs_per_recording: int = 240
    seed: int = 0
    difficulty: float = 1.0
    context_only: bool = False
    transition: np.ndarray = field(default_factory=lambda: _DEF_TRANSITION.copy())
    hr_mean: np.ndarray = field(default_factory=lambda: np.array([72.0, 63.0, 58.0, 52.0, 66.0]))
    hr_std: np.ndarray = field(default_factory=lambda: np.array([4.0, 3.0, 2.5, 2.0, 5.0]))
    burst_prob: np.ndarray = field(default_factory=lambda: np.array([0.85, 0.35, 0.12, 0.02, 0.20]))
    burst_amp: np.ndarray = field(default_factory=lambda: np.array([0.45, 0.25, 0.15, 0.10, 0.20]))
    act_noise_std: float = 0.02
    hr_rate_hz: float = 1.0
    act_rate_hz: float = 32.0
    epoch_seconds: float = 30.0

    def __post_init__(self):
        if self.n_recordings < 1 or self.epochs_per_recording < 1:
            raise ConfigError("need at least one recording and one epoch")
        if not 0.0 < self.difficulty <= 1.0:
            raise ConfigError("difficulty must be in (0, 1]")
        t = np.asarray(self.transition, dtype=np.float64)
        if t.shape != (5, 5) or np.any(t < 0):
            raise ConfigError("transition must be a non-negative 5x5 matrix")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ConfigError("transition rows must sum to 1")
        for name in ("hr_mean", "hr_std", "burst_prob", "burst_amp"):
            if np.asarray(getattr(self, name)).shape != (5,):
                raise ConfigError(f"{name} must have one entry per stage")
        if np.any(self.hr_mean <= 0) or np.any(self.hr_std <= 0):
            raise ConfigError("heart rate means and stds must be > 0")
        if np.any((self.burst_prob < 0) | (self.burst_prob > 1)):
            raise ConfigError("burst probabilities must lie in [0, 1]")
        if self.act_noise_std <= 0:
            raise ConfigError("act_noise_std must be > 0")


def context_only_config(**overrides) -> SynthConfig:
    """Uniform chain, emissions shifted one epoch back.

    The current epoch's marginal stage is uniform and independent of its
    own signals, so per-epoch classifiers sit at chance while sequence
    models can read each stage from the following epoch.
    """
    base = SynthConfig(transition=np.full((5, 5), 0.2), context_only=True)
    return replace(base, **overrides)


def _effective(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Difficulty-scaled HR means and burst probabilities."""
    hr = cfg.hr_mean.mean() + cfg.difficulty * (cfg.hr_mean - cfg.hr_mean.mean())
    bp = cfg.burst_prob.mean() + cfg.difficulty * (cfg.burst_prob - cfg.burst_prob.mean())
    return hr, np.clip(bp, 0.0, 1.0)


def _stage_chain(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    stages = np.empty(cfg.epochs_per_recording, dtype=np.int64)
    stages[0] = 0  # recordings begin awake
    for t in range(1, cfg.epochs_per_recording):
        stages[t] = rng.choice(5, p=cfg.transition[stages[t - 1]])
    return stages


def _generate_one(cfg: SynthConfig, rng: np.random.Generator, subject_id: str) -> Recording:
    n = cfg.epochs_per_recording
    span = n * cfg.epoch_seconds
    hr_mean, burst_prob = _effective(cfg)

    stages = _stage_chain(cfg, rng)
    emit = stages if not cfg.context_only else np.concatenate([[0], stages[:-1]])

    # heart rate: one sample per 1/rate seconds, stage-conditional Gaussian
    hr_t = np.arange(int(span * cfg.hr_rate_hz)) / cfg.hr_rate_hz
    hr_stage = emit[np.floor(hr_t / cfg.epoch_seconds).astype(np.int64)]
    bpm = rng.normal(hr_mean[hr_stage], cfg.hr_std[hr_stage])
    bpm = np.clip(bpm, 20.0, 220.0)

    # actigraphy: baseline sensor noise plus stage-dependent movement bursts
    act_t = np.arange(int(span * cfg.act_rate_hz)) / cfg.act_rate_hz
    xyz = rng.normal(0.0, cfg.act_noise_std, size=(act_t.size, 3))
    per_epoch = int(cfg.epoch_seconds * cfg.act_rate_hz)
    for k in range(n):
        if rng.random() >= burst_prob[emit[k]]:
            continue
        amp = cfg.burst_amp[emit[k]]
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(per_epoch // 60, per_epoch // 6))
            start = k * per_epoch + int(rng.integers(0, per_epoch - length))
            xyz[start : start + length] += rng.normal(0.0, amp, size=(length, 3))

    return Recording(
        subject_id=subject_id,
        hr=HeartRateSeries(t=hr_t, bpm=bpm),
        act=ActigraphySeries(t=act_t, xyz=xyz),
        labels=tuple(STAGE_ORDER[s] for s in stages),
        epoch_seconds=cfg.epoch_seconds,
    )


def generate_cohort(cfg: SynthConfig) -> list[Recording]:
    """Deterministic cohort: recording i draws from the i-th spawned stream."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_recordings)
    width = max(2, len(str(cfg.n_recordings - 1)))
    return [
        _generate_one(cfg, np.random.Generator(np.random.Philox(children[i])), f"s{i:0{width}d}")
        for i in range(cfg.n_recordings)
    ]
