"""Initialization, SGD with Gaussian weight noise, early stopping, gradcheck.

Training operates on whole sequences: one forward/backward/update cycle per
night. Regularization is weight noise in the Graves style: before each
sequence's gradient computation every weight (not bias) is perturbed with
fresh Normal(0, sigma^2) noise, the gradient is taken at the perturbed
point, the weights are restored from saved copies, and the update is
applied to the clean values. Restoring from copies matters: adding and
subtracting the same noise is not bit-identical in floating point.

All randomness (init, shuffling, noise) flows from counter-based Philox
generators, so a (seed, config, data) triple reproduces training bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .network import (
    NetSpec,
    Network,
    ParamViews,
    loss,
    network_backward,
    network_forward,
    network_probs,
)

Sequence = tuple[np.ndarray, np.ndarray]  # (features (T, D), one-hot labels (T, M))


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the SGD loop. Defaults follow the clinical-scale setup."""

    learning_rate: float = 1e-6
    init_std: float = 0.1
    weight_noise_std: float = 0.005
    max_passes: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "init_std", "weight_noise_std"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.init_std <= 0:
            raise ConfigError("init_std must be > 0")
        if self.weight_noise_std < 0:
            raise ConfigError("weight_noise_std must be >= 0")
        if self.max_passes < 1:
            raise ConfigError("max_passes must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


def init_params(spec: NetSpec, seed: int, init_std: float = 0.1) -> Network:
    """Network with every weight and bias drawn i.i.d. Normal(0, init_std^2).

    Draws come from one Philox stream in canonical parameter order, so the
    same seed always produces the same network.
    """
    if not 0 < init_std < math.inf:
        raise ConfigError(f"init_std must be finite and > 0, got {init_std}")
    rng = np.random.Generator(np.random.Philox(seed))
    net = Network.zeros(spec)
    net.flat[:] = rng.normal(0.0, init_std, size=net.flat.size)
    return net


def mean_loss(net: Network, sequences: list[Sequence]) -> float:
    """Noise-free average loss over a split, every sequence scored in lockstep."""
    probs = network_probs(net, [X for X, _ in sequences])
    return float(np.mean([loss(P, Y) for P, (_, Y) in zip(probs, sequences)]))


def _sgd_pass(net: Network, sequences: list[Sequence], cfg: TrainConfig, rng: np.random.Generator):
    """One pass: visit sequences in a fresh shuffled order, update per sequence."""
    order = rng.permutation(len(sequences))
    weights = net.weight_mask() if cfg.weight_noise_std > 0 else None
    for s in order:
        X, Y = sequences[s]
        if weights is not None:
            clean = net.flat.copy()
            net.flat[weights] += rng.normal(0.0, cfg.weight_noise_std, size=weights.sum())
        _, trace = network_forward(net, X)
        grads = network_backward(net, trace, Y)
        if weights is not None:
            net.flat[:] = clean
        net.flat -= cfg.learning_rate * grads.flat


def train(
    net: Network,
    train_seqs: list[Sequence],
    val_seqs: list[Sequence],
    cfg: TrainConfig,
) -> tuple[Network, list[tuple[float, float]]]:
    """SGD with weight noise and early stopping on validation loss.

    The input network is left untouched; work happens on a clone. After
    each pass both splits are scored noise-free with the post-pass
    parameters; the returned network carries the parameters of the best
    validation pass. Stops after ``patience`` passes without improvement
    or at ``max_passes``. Returns (best network, [(train_loss, val_loss)]
    per completed pass), all finite: a non-finite pass raises ``NumericError``.
    """
    if not train_seqs or not val_seqs:
        raise ValueError("train and validation splits must be non-empty")
    work = net.clone()
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    best = work.clone()
    best_val = np.inf
    since_best = 0
    history: list[tuple[float, float]] = []
    for _ in range(cfg.max_passes):
        _sgd_pass(work, train_seqs, cfg, rng)
        train_loss = mean_loss(work, train_seqs)
        val_loss = mean_loss(work, val_seqs)
        history.append((train_loss, val_loss))
        bad = np.count_nonzero(~np.isfinite(work.flat))
        if bad or not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            msg = f"train loss {train_loss}, val loss {val_loss}, {bad} non-finite parameter(s)"
            raise NumericError(f"training diverged in pass {len(history)}: {msg}")
        if val_loss < best_val:
            best_val = val_loss
            best = work.clone()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return best, history


def finite_difference_gradients(
    net: Network, X: np.ndarray, Y: np.ndarray, step: float = 1e-5, order: int = 2
) -> ParamViews:
    """Central-difference loss gradients, one coordinate at a time.

    order=2 is the classic two-point stencil. order=4 is the five-point
    stencil, whose fourth-order truncation error permits a much wider step;
    that pushes the evaluation-roundoff floor low enough to resolve
    gradients in the 1e-7 range, which the two-point stencil cannot.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")

    def eval_at(j, value) -> float:
        orig = net.flat[j]
        net.flat[j] = value
        l = loss(network_forward(net, X)[0], Y)
        net.flat[j] = orig
        return l

    fd = np.empty_like(net.flat)
    for j, w in enumerate(net.flat.tolist()):
        if order == 2:
            fd[j] = (eval_at(j, w + step) - eval_at(j, w - step)) / (2.0 * step)
        else:
            f1 = eval_at(j, w + step) - eval_at(j, w - step)
            f2 = eval_at(j, w + 2.0 * step) - eval_at(j, w - 2.0 * step)
            fd[j] = (8.0 * f1 - f2) / (12.0 * step)
    return ParamViews(net.spec, fd)


def gradient_check(
    spec: NetSpec,
    T: int,
    seed: int,
    step: float = 1e-3,
    init_std: float = 0.5,
) -> float:
    """Max relative disagreement between analytic and numeric gradients.

    Builds a random network and sequence from the seed, then compares every
    parameter's analytic gradient against five-point central differences.
    The relative error uses |ga - gfd| / max(|ga|, |gfd|, 1e-8). The
    defaults (wide step, fourth-order stencil, init scale above training's)
    keep the differencing noise floor near 1e-12 so that even deep-stack
    gradients of order 1e-7 are resolved to several digits.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    net = init_params(spec, seed, init_std=init_std)
    rng = np.random.Generator(np.random.Philox([seed, 1]))
    X = rng.standard_normal((T, spec.input_dim))
    Y = np.eye(spec.num_classes)[rng.integers(0, spec.num_classes, size=T)]
    _, trace = network_forward(net, X)
    ga = network_backward(net, trace, Y).flat
    gn = finite_difference_gradients(net, X, Y, step=step, order=4).flat
    return float((np.abs(ga - gn) / np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)).max())
