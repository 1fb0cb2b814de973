"""Initialization, SGD with Gaussian weight noise, early stopping, gradcheck.

Training operates on whole sequences: one forward/backward/update cycle per
night. Regularization is weight noise in the Graves style: before each
sequence's gradient computation every weight (not bias) is perturbed with
fresh Normal(0, sigma^2) noise, the gradient is taken at the perturbed
point, a copy, and the update is applied to the clean values, which the
noise never touched. Perturbing a copy matters: adding and subtracting
the same noise is not bit-identical in floating point.

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
    loss,
    network_backward,
    network_forward,
    network_probs,
)


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


def mean_loss(nets, splits) -> tuple[float, ...]:
    """Noise-free average loss of each network ``nets[m]`` over its split
    ``splits[m]``, every sequence of the group scored in lockstep."""
    probs = network_probs(nets, [[X for X, _ in split] for split in splits])
    return tuple(
        float(np.mean([loss(P, Y) for P, (_, Y) in zip(own, split)]))
        for own, split in zip(probs, splits)
    )


# Most networks ``cross_validate`` trains as one group: each keeps its
# sequences and its work and best parameters resident until the group is done.
LOCKSTEP_FOLDS = 4
# Widest layer trained in lockstep. Lockstep saves Python work per time step;
# in wider layers a step's cost is streaming the stacked recurrent weights,
# which it does not save (measured per cv op at 4 folds, 240-epoch nights:
# -13 % at 64 units, +20 % at 128, +38 % at 400), and it holds every fold's
# parameters at once.
LOCKSTEP_MAX_UNITS = 64
# Most bytes of training and validation sequences one group holds: four
# folds of fourteen 2 h nights at 520 features (57 MB), but folds of
# fourteen 8 h nights (56 MB each) one at a time.
LOCKSTEP_MAX_BYTES = 64 << 20


def lockstep_size(layers, fold_bytes: int) -> int:
    """How many networks of this layer stack ``cross_validate`` trains as one
    group when each one's training and validation sequences take ``fold_bytes``."""
    if max(units for _, units in layers) > LOCKSTEP_MAX_UNITS:
        return 1
    return max(1, min(LOCKSTEP_FOLDS, LOCKSTEP_MAX_BYTES // fold_bytes))


def _sgd_pass(nets, splits, cfgs, rngs):
    """One pass of each network: visit its sequences in a fresh shuffled order,
    update per sequence. Step s of every network with an s-th sequence is one
    group forward and backward at a copy of each network perturbed by weight
    noise, made for that step, so its trace holds the copies as they are."""
    orders = [rng.permutation(len(split)) for rng, split in zip(rngs, splits)]
    masks = [n.weight_mask() if c.weight_noise_std > 0 else None for n, c in zip(nets, cfgs)]
    for s in range(max(map(len, orders))):
        step = [m for m, order in enumerate(orders) if s < len(order)]
        group = []
        for m in step:
            flat = nets[m].flat.copy()
            if masks[m] is not None:
                flat[masks[m]] += rngs[m].normal(0.0, cfgs[m].weight_noise_std, size=masks[m].sum())
            group.append(Network(nets[m].spec, flat))
        seqs = [splits[m][orders[m][s]] for m in step]
        _, trace = network_forward(group, [X for X, _ in seqs], owned=True)
        grads = network_backward(trace, [Y for _, Y in seqs])
        for m, g in zip(step, grads):
            nets[m].flat -= cfgs[m].learning_rate * g.flat
        group = trace = grads = None  # not held through the next step's forward pass


def train(nets, trains, vals, cfgs, score_train: bool = True):
    """SGD with weight noise and early stopping on validation loss, for a
    group: ``nets[m]`` trains on ``trains[m]``, stops on ``vals[m]`` and
    follows ``cfgs[m]``, getting what it gets alone. Step s of each pass and
    each scoring run as one group call; a network that stops leaves the
    group. A lone network with its own splits and config trains as a group
    of one and gets no tuples back.

    Inputs are left untouched; work happens on clones. After each pass the
    validation split, and the training split when ``score_train`` is set,
    are scored noise-free; a best network carries the parameters of its best
    validation pass. A network stops after ``patience`` passes without
    improvement or at ``max_passes``. Returns (best networks, histories of
    (train_loss, val_loss) per pass), train_loss None when unscored. The
    ``train`` command scores both splits, ``cv`` and ``sweep`` only the
    validation split. A pass that leaves a parameter or a scored loss
    non-finite raises ``NumericError`` with ``member`` its network's place:
    "training diverged in pass N: train loss T, val loss V, K non-finite
    parameter(s)", without "train loss T, " if unscored.
    """
    if isinstance(nets, Network):
        best, histories = train((nets,), (trains,), (vals,), (cfgs,), score_train)
        return best[0], histories[0]
    if not len(nets) == len(trains) == len(vals) == len(cfgs) >= 1:
        raise ValueError("a group needs a training split, validation split and config per network")
    if not all(trains) or not all(vals):
        raise ValueError("train and validation splits must be non-empty")
    work = [n.clone() for n in nets]
    rngs = [np.random.Generator(np.random.Philox(c.seed)) for c in cfgs]
    best, best_val, since_best = [None] * len(nets), [np.inf] * len(nets), [0] * len(nets)
    histories: tuple[list[tuple[float | None, float]], ...] = tuple([] for _ in nets)
    active = list(range(len(nets)))
    while active:
        group = [work[m] for m in active]
        _sgd_pass(group, *([xs[m] for m in active] for xs in (trains, cfgs, rngs)))
        train_losses = (
            mean_loss(group, [trains[m] for m in active]) if score_train else (None,) * len(active)
        )
        val_losses = mean_loss(group, [vals[m] for m in active])
        for m, train_loss, val_loss in zip(active, train_losses, val_losses):
            histories[m].append((train_loss, val_loss))
            bad = np.count_nonzero(~np.isfinite(work[m].flat))
            scored = (val_loss,) if train_loss is None else (train_loss, val_loss)
            if bad or not all(map(math.isfinite, scored)):
                msg = f"val loss {val_loss}, {bad} non-finite parameter(s)"
                msg = msg if train_loss is None else f"train loss {train_loss}, {msg}"
                raise NumericError(f"training diverged in pass {len(histories[m])}: {msg}", m)
            if val_loss < best_val[m]:
                best_val[m], best[m], since_best[m] = val_loss, work[m].clone(), 0
            else:
                since_best[m] += 1
        active = [m for m in active if since_best[m] < cfgs[m].patience]
        active = [m for m in active if len(histories[m]) < cfgs[m].max_passes]
    return tuple(best), histories


GRADCHECK_STEP = 1e-3  # the five-point stencil's finite-difference step
GRADCHECK_INIT_STD = 0.5  # init scale of gradient_check's networks


def finite_difference_gradients(net: Network, X: np.ndarray, Y: np.ndarray) -> Network:
    """Five-point central-difference loss gradients, one coordinate at a time."""

    def eval_at(j, value) -> float:
        orig = net.flat[j]
        net.flat[j] = value
        l = loss(network_probs((net,), ((X,),))[0][0], Y)
        net.flat[j] = orig
        return l

    h = GRADCHECK_STEP
    fd = np.empty_like(net.flat)
    for j, w in enumerate(net.flat.tolist()):
        f1 = eval_at(j, w + h) - eval_at(j, w - h)
        f2 = eval_at(j, w + 2.0 * h) - eval_at(j, w - 2.0 * h)
        fd[j] = (8.0 * f1 - f2) / (12.0 * h)
    return Network(net.spec, fd)


def gradient_check(spec: NetSpec, T: int, seed: int) -> float:
    """Max relative disagreement between analytic and numeric gradients.

    Builds a random network and sequence from the seed, then compares every
    parameter's analytic gradient against ``finite_difference_gradients``.
    The relative error uses |ga - gfd| / max(|ga|, |gfd|, 1e-8). The wide
    step, which the stencil's fourth-order truncation error permits, and an
    init scale above training's keep the differencing noise floor near
    1e-12, so that even deep-stack gradients of order 1e-7 are resolved to
    several digits.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    net = init_params(spec, seed, init_std=GRADCHECK_INIT_STD)
    rng = np.random.Generator(np.random.Philox([seed, 1]))
    X = rng.standard_normal((T, spec.input_dim))
    Y = np.eye(spec.num_classes)[rng.integers(0, spec.num_classes, size=T)]
    _, trace = network_forward((net,), (X,))
    ga = network_backward(trace, (Y,))[0].flat
    gn = finite_difference_gradients(net, X, Y).flat
    return float((np.abs(ga - gn) / np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)).max())
