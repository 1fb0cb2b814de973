"""Sequence classifier built from scratch: gated memory cells, bidirectional
layers, an MLP baseline, and exact backpropagation through time.

One "sequence" is a whole night: T feature vectors in, T rows of class
probabilities out. The recurrent cell is the peephole variant: input and
forget gates see the previous cell state through elementwise (diagonal)
peephole vectors, the output gate sees the freshly updated cell state.
Bidirectional layers run an independent cell over the reversed sequence and
concatenate per-timestep outputs, so every prediction conditions on the
entire night in both directions. All arithmetic is float64 and
deterministic; gradients are analytic, not approximated.

Every parameter of a network lives in one flat float64 vector in canonical
order (the model file order). Within one direction the gate maps are
adjacent, so a layer's fused gate-major operands are reshapes of that
vector, and one scan runs every direction of a layer over a batch of
sequences with one (B, H) x (H, 4H) product per direction and step.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError

LAYER_KINDS = ("mlp", "lstm", "blstm")
MAX_LAYERS = 4

# canonical field order of one direction; the layout table, the flat
# parameter vector, gradients and model files all follow it. Gate order
# (i, f, c, o) is also the row order of the fused operands.
LSTM_FIELDS = (
    "W_xi", "W_xf", "W_xc", "W_xo",
    "W_hi", "W_hf", "W_hc", "W_ho",
    "w_ci", "w_cf", "w_co",
    "b_i", "b_f", "b_c", "b_o",
)


def _lstm_shapes(input_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    maps = {"W_x": (hidden, input_dim), "W_h": (hidden, hidden)}
    return {name: maps.get(name[:3], (hidden,)) for name in LSTM_FIELDS}


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_LAYERS:
        raise ConfigError(f"layers must be between 1 and {MAX_LAYERS}")


def layer_stack(kind: str, units: int, depth: int) -> tuple[tuple[str, int], ...]:
    """``depth`` identical (kind, units) layers; the depth is checked before
    the tuple is built, so a huge one is rejected without allocating it."""
    _check_depth(depth)
    return ((kind, units),) * depth


def check_net_shape(layers, num_classes: int) -> None:
    """The network-shape rules: 1 to MAX_LAYERS (kind, units) layers of a
    known kind with at least one unit each, under a 4- or 5-class head.

    ``NetSpec``, the run config and ``gradcheck`` all check through here.
    """
    if num_classes not in (4, 5):
        raise ConfigError("num_classes must be 4 or 5")
    _check_depth(len(layers))
    for kind, units in layers:
        if kind not in LAYER_KINDS:
            raise ConfigError(f"hidden_type must be one of {LAYER_KINDS}, got {kind!r}")
        if units < 1:
            raise ConfigError("units must be >= 1")


@dataclass(frozen=True)
class NetSpec:
    """Architecture description: stacked layers plus the softmax head.

    ``layers`` is a tuple of (kind, hidden) pairs, kind in {mlp, lstm,
    blstm}. A blstm layer feeds 2*hidden values upward, the others hidden.
    """

    input_dim: int
    num_classes: int = 5
    layers: tuple[tuple[str, int], ...] = (("blstm", 400),)

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        check_net_shape(self.layers, self.num_classes)

    def layer_io_dims(self) -> list[tuple[int, int]]:
        """(input, output) width of each layer in stack order."""
        dims = []
        d = self.input_dim
        for kind, hidden in self.layers:
            out = 2 * hidden if kind == "blstm" else hidden
            dims.append((d, out))
            d = out
        return dims

    @property
    def last_output_dim(self) -> int:
        return self.layer_io_dims()[-1][1]

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """The layout table: every parameter's name and shape in canonical order."""
        out: list[tuple[str, tuple[int, ...]]] = []
        for k, ((kind, hidden), (d_in, _)) in enumerate(zip(self.layers, self.layer_io_dims())):
            if kind == "mlp":
                out.append((f"layer{k}.mlp.W", (hidden, d_in)))
                out.append((f"layer{k}.mlp.b", (hidden,)))
            else:
                directions = ("fwd",) if kind == "lstm" else ("fwd", "bwd")
                for direction in directions:
                    for name, shape in _lstm_shapes(d_in, hidden).items():
                        out.append((f"layer{k}.{direction}.{name}", shape))
        out.append(("out.W", (self.num_classes, self.last_output_dim)))
        out.append(("out.b", (self.num_classes,)))
        return out


class ParamViews(dict):
    """Name -> view into ``flat`` for every parameter of a spec, canonical order.

    Used both for a network's parameters and for its gradients, so a whole
    update is one vector operation on ``flat``.
    """

    def __init__(self, spec: NetSpec, flat: np.ndarray):
        super().__init__()
        self.flat = flat
        offset = 0
        for name, shape in spec.param_shapes():
            size = math.prod(shape)
            self[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} values, the layout {offset}")


@dataclass
class Layer:
    """One stack level of a network: ``kind``, ``hidden`` units over ``inputs``
    values per step, and ``block``, its contiguous slice of the network's
    flat vector."""

    kind: str
    hidden: int
    inputs: int
    block: np.ndarray

    def operands(self):
        """Views of ``block``: an MLP's (W, b), else the fused gate-major operands
        of the K directions, (K, 4H, D), (K, 4H, H), (K, 3, H) peepholes and
        (K, 4H) biases."""
        H, D = self.hidden, self.inputs
        if self.kind == "mlp":
            return self.block[: H * D].reshape(H, D), self.block[H * D :]
        L = self.block.reshape(2 if self.kind == "blstm" else 1, -1)
        Wx, Wh, wc, b = np.split(L, np.cumsum([4 * H * D, 4 * H * H, 3 * H]), axis=1)
        return Wx.reshape(-1, 4 * H, D), Wh.reshape(-1, 4 * H, H), wc.reshape(-1, 3, H), b


class Network:
    """Layer stack plus softmax head. Mutated only by the training loop.

    ``flat`` holds every parameter; ``params`` maps each name of
    ``spec.param_shapes()`` to its view, and each layer's ``block`` is a view.
    """

    def __init__(self, spec: NetSpec, flat: np.ndarray):
        self.spec = spec
        self.flat = flat
        self.params = ParamViews(spec, flat)
        self.layers: list[Layer] = []
        start = 0
        for k, ((kind, hidden), (d_in, _)) in enumerate(zip(spec.layers, spec.layer_io_dims())):
            size = sum(a.size for n, a in self.params.items() if n.startswith(f"layer{k}."))
            self.layers.append(Layer(kind, hidden, d_in, flat[start : start + size]))
            start += size

    @classmethod
    def zeros(cls, spec: NetSpec) -> "Network":
        """All-zero parameters with the spec's shapes."""
        return cls(spec, np.zeros(sum(math.prod(s) for _, s in spec.param_shapes())))

    def weight_mask(self) -> np.ndarray:
        """True at every coordinate of ``flat`` that is not a bias."""
        return np.concatenate([np.full(a.size, not is_bias(n)) for n, a in self.params.items()])

    def clone(self) -> "Network":
        return Network(self.spec, self.flat.copy())


def is_bias(name: str) -> bool:
    """True for bias parameters (the ones weight noise leaves alone)."""
    return name.rsplit(".", 1)[-1] in ("b", "b_i", "b_f", "b_c", "b_o")


def _scan(A: np.ndarray, Wh, wc) -> dict[str, np.ndarray]:
    """Run K cells, one per direction, over B sequences each, from zero states.

    A is (T, K, B, 4H): each direction's input projections plus biases, in
    that direction's time order, computed before the time loop. Each step
    is one batched (B, H) x (H, 4H) product per direction. Returns
    (T, K, B, H) arrays of the gates, cells and outputs.
    """
    T, K, B, _ = A.shape
    H = Wh.shape[2]
    WhT = Wh.transpose(0, 2, 1)
    w_if = wc[:, None, :2]
    w_o = wc[:, None, 2]
    IF = np.empty((T, K, B, 2, H))
    G, C, O, Hs = (np.empty((T, K, B, H)) for _ in range(4))
    h = np.zeros((K, B, H))
    c = np.zeros((K, B, H))
    for t in range(T):
        a = A[t] + np.matmul(h, WhT)
        i_f = expit(a[..., : 2 * H].reshape(K, B, 2, H) + w_if * c[:, :, None])
        g = np.tanh(a[..., 2 * H : 3 * H])
        c = i_f[:, :, 1] * c + i_f[:, :, 0] * g
        o = expit(a[..., 3 * H :] + w_o * c)
        h = o * np.tanh(c)
        IF[t], G[t], C[t], O[t], Hs[t] = i_f, g, c, o, h
    return {"i": IF[:, :, :, 0], "f": IF[:, :, :, 1], "g": G, "c": C, "o": O, "h": Hs}


def _scan_backward(cache: dict, Wh, wc, dHs: np.ndarray):
    """Exact reverse-time gradients of one scan.

    Every derivative factor that does not involve the carries is computed
    for all T up front; each step then costs one (B, 4H) x (4H, H) product
    per direction. The cell gradient picks up the output-gate peephole at
    the current step and the input/forget peepholes one step later.
    Returns the gate pre-activation gradients dA (T, K, B, 4H) and the
    gradients of W_h, w_c and b as one (K, 4H*H + 3H + 4H) array.
    """
    I, F, G, C, O = cache["i"], cache["f"], cache["g"], cache["c"], cache["o"]
    T, K, B, H = C.shape
    C_prev = np.concatenate([np.zeros((1, K, B, H)), C[:-1]])
    H_prev = np.concatenate([np.zeros((1, K, B, H)), cache["h"][:-1]])
    w_ci, w_cf, w_co = wc[:, None, 0], wc[:, None, 1], wc[:, None, 2]
    tc = np.tanh(C)
    P_o = tc * O * (1.0 - O)
    P_c = O * (1.0 - tc * tc) + P_o * w_co
    P_ifg = np.stack([G * I * (1.0 - I), C_prev * F * (1.0 - F), I * (1.0 - G * G)], axis=3)
    P_cc = F + P_ifg[:, :, :, 0] * w_ci + P_ifg[:, :, :, 1] * w_cf
    dA = np.empty((T, K, B, 4 * H))
    dh_carry = np.zeros((K, B, H))
    dc_carry = np.zeros((K, B, H))
    for t in range(T - 1, -1, -1):
        dh = dHs[t] + dh_carry
        dc = dc_carry + dh * P_c[t]
        dA[t, ..., : 3 * H] = (dc[:, :, None] * P_ifg[t]).reshape(K, B, 3 * H)
        dA[t, ..., 3 * H :] = dh * P_o[t]
        dh_carry = np.matmul(dA[t], Wh)
        dc_carry = dc * P_cc[t]
    dA_k = dA.transpose(1, 0, 2, 3).reshape(K, T * B, 4 * H)
    H_k = H_prev.transpose(1, 0, 2, 3).reshape(K, T * B, H)
    d_wif = (dA[..., : 2 * H].reshape(T, K, B, 2, H) * C_prev[:, :, :, None]).sum(axis=(0, 2))
    grad = np.concatenate([
        np.matmul(dA_k.transpose(0, 2, 1), H_k).reshape(K, -1),
        d_wif.reshape(K, -1),
        (dA[..., 3 * H :] * C).sum(axis=(0, 2)),
        dA_k.sum(axis=1),
    ], axis=1)
    return dA, grad


def _affine(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W.T + b over the last axis of a (T, B, D) array."""
    T, B, D = X.shape
    return (X.reshape(T * B, D) @ W.T + b).reshape(T, B, -1)


def _oriented(A: np.ndarray, rev: np.ndarray, k: int) -> np.ndarray:
    """A (T, B, ...) batch in direction k's time order: as is for k = 0,
    each column reversed within its own length for k = 1 (its own inverse)."""
    return A[rev, np.arange(A.shape[1])] if k else A


def _reversal(lengths: list[int]) -> np.ndarray:
    """(T, B) time index reversing each sequence in place; padding stays put."""
    t = np.arange(max(lengths))[:, None]
    n = np.asarray(lengths)[None, :]
    return np.where(t < n, n - 1 - t, t)


# Cached activations of one layer for exact backpropagation: its (T, B, D)
# input batch, its outputs, and a recurrent layer's scan arrays.
LayerTrace = namedtuple("LayerTrace", ("inputs", "outputs", "cache"), defaults=(None,))
# Everything the backward pass needs, plus a copy of the parameters so a
# trace can detect that the network changed underneath it.
ForwardTrace = namedtuple("ForwardTrace", ("layers", "probs", "rev", "params"))


def _layer_forward_trace(layer: Layer, P: np.ndarray, rev: np.ndarray) -> LayerTrace:
    if layer.kind == "mlp":
        return LayerTrace(inputs=P, outputs=np.tanh(_affine(P, *layer.operands())))
    Wx, Wh, wc, b = layer.operands()
    K = Wx.shape[0]
    # input projections are per step, so each direction's can be taken in
    # input order and reordered after: 4H values per step instead of D
    A = np.stack([_oriented(_affine(P, Wx[k], b[k]), rev, k) for k in range(K)], axis=1)
    cache = _scan(A, Wh, wc)
    outputs = np.concatenate([_oriented(cache["h"][:, k], rev, k) for k in range(K)], axis=2)
    return LayerTrace(inputs=P, outputs=outputs, cache=cache)


def _checked(X, dim: int) -> np.ndarray:
    """X as a finite float64 (T, dim) array with T >= 1, else ValueError."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("features must be a non-empty (T, dim) array")
    if X.shape[1] != dim:
        raise ValueError(f"feature dim {X.shape[1]} != network input dim {dim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite features")
    return X


def _forward(net: Network, Xs: list[np.ndarray], traces: list | None = None):
    """Class probabilities (T, B, M) of checked sequences zero-padded at their
    ends to the longest, and the (T, B) reversal index. Every scan is causal
    in its own direction, so padding never reaches a real step. Each layer's
    trace is appended to ``traces`` when given, else dropped once its outputs
    are handed to the next layer."""
    rev = _reversal([len(X) for X in Xs])
    P = np.zeros((rev.shape[0], len(Xs), net.spec.input_dim))
    for b, X in enumerate(Xs):
        P[: len(X), b] = X
    for layer in net.layers:
        trace = _layer_forward_trace(layer, P, rev)
        if traces is not None:
            traces.append(trace)
        P, trace = trace.outputs, None
    logits = _affine(P, net.params["out.W"], net.params["out.b"])
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True), rev


def network_forward(net: Network, features: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Class probabilities for a whole sequence plus the backward-pass trace."""
    traces: list[LayerTrace] = []
    probs, rev = _forward(net, [_checked(features, net.spec.input_dim)], traces)
    trace = ForwardTrace(layers=traces, probs=probs[:, 0], rev=rev, params=net.flat.copy())
    return probs[:, 0], trace


# Most padded steps (longest x count) in one lockstep batch: scoring holds
# ~9 KB per padded step for blstm@32 on 520 features, so ~18 MB at most.
SCORE_CHUNK = 2048


def network_probs(net: Network, sequences: list[np.ndarray]) -> list[np.ndarray]:
    """Class probabilities of several sequences, scored in lockstep in groups
    of similar length: sorted by length, each group at most ``SCORE_CHUNK``
    padded steps or one sequence, so memory stays bounded and padding small."""
    Xs = [_checked(X, net.spec.input_dim) for X in sequences]
    order = sorted(range(len(Xs)), key=lambda s: len(Xs[s]))
    out = [None] * len(Xs)
    while order:
        n = 1
        while n < len(order) and len(Xs[order[n]]) * (n + 1) <= SCORE_CHUNK:
            n += 1
        group, order = order[:n], order[n:]
        probs, _ = _forward(net, [Xs[s] for s in group])
        for b, s in enumerate(group):
            out[s] = probs[: len(Xs[s]), b]
    return out


LOSS_EPS = 1e-12


def _check_one_hot(labels: np.ndarray, shape) -> np.ndarray:
    Y = np.asarray(labels, dtype=np.float64)
    if Y.shape != shape:
        raise ValueError(f"labels shape {Y.shape} != probabilities shape {shape}")
    if not (np.all((Y == 0.0) | (Y == 1.0)) and np.all(Y.sum(axis=1) == 1.0)):
        raise ValueError("labels must be one-hot rows")
    return Y


def loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Timestep-averaged two-sided cross entropy.

    Each class contributes both a log(p) term (when it is the reference)
    and a log(1-p) term (when it is not), so confident wrong mass is
    penalized directly. Probabilities are clamped to [1e-12, 1 - 1e-12]
    to keep the logs finite.
    """
    P = np.asarray(probabilities, dtype=np.float64)
    Y = _check_one_hot(labels, P.shape)
    pc = np.clip(P, LOSS_EPS, 1.0 - LOSS_EPS)
    per_t = (Y * np.log(pc) + (1.0 - Y) * np.log1p(-pc)).sum(axis=1)
    return float(-per_t.mean())


def _loss_backward(P: np.ndarray, Y: np.ndarray) -> np.ndarray:
    T = P.shape[0]
    pc = np.clip(P, LOSS_EPS, 1.0 - LOSS_EPS)
    dP = -(Y / pc - (1.0 - Y) / (1.0 - pc)) / T
    # clamped entries are locally constant in P
    return np.where((P > LOSS_EPS) & (P < 1.0 - LOSS_EPS), dP, 0.0)


def _layer_backward(
    layer: Layer, trace: LayerTrace, dOut: np.ndarray, rev: np.ndarray, input_grad: bool
):
    """Gradient of one layer: returns (dInputs, the layer's flat gradient block);
    dInputs is None unless ``input_grad``, as the first layer's is never used."""
    if layer.kind == "mlp":
        dA = dOut * (1.0 - trace.outputs**2)
        T, B, H = dA.shape
        dA2 = dA.reshape(T * B, H)
        grad = np.concatenate([(dA2.T @ trace.inputs.reshape(T * B, -1)).ravel(), dA2.sum(axis=0)])
        return (dA2 @ layer.operands()[0]).reshape(T, B, -1) if input_grad else None, grad
    Wx, Wh, wc, _ = layer.operands()
    K, H = Wh.shape[0], Wh.shape[2]
    T, B, D = trace.inputs.shape
    dHs = np.stack([_oriented(dOut[..., k * H : (k + 1) * H], rev, k) for k in range(K)], axis=1)
    dA, grad = _scan_backward(trace.cache, Wh, wc, dHs)
    dA_in = np.stack([_oriented(dA[:, k], rev, k).reshape(T * B, 4 * H) for k in range(K)])
    dWx = np.matmul(dA_in.transpose(0, 2, 1), trace.inputs.reshape(T * B, D))
    dP = np.matmul(dA_in, Wx).sum(axis=0).reshape(T, B, D) if input_grad else None
    return dP, np.concatenate([dWx.reshape(K, -1), grad], axis=1).ravel()


def network_backward(net: Network, trace: ForwardTrace, labels: np.ndarray) -> ParamViews:
    """Exact gradients of the loss for every parameter, keyed like ``net.params``.

    The values are views into one vector (``.flat``) laid out like the
    network's. Rejects a trace whose parameter copy no longer equals the
    network: gradients against mutated parameters would be silently wrong.
    The comparison is of bit patterns, so a NaN parameter equals its copy.
    """
    if not np.array_equal(net.flat.view(np.int64), trace.params.view(np.int64)):
        raise ValueError("stale trace: network parameters changed since forward pass")
    P = trace.probs
    Y = _check_one_hot(labels, P.shape)
    dP = _loss_backward(P, Y)
    # softmax jacobian: dz = p * (dp - <dp, p>)
    dZ = P * (dP - (dP * P).sum(axis=1, keepdims=True))
    blocks = [(dZ.T @ trace.layers[-1].outputs[:, 0]).ravel(), dZ.sum(axis=0)]
    dH = (dZ @ net.params["out.W"])[:, None]
    for k in range(len(net.layers) - 1, -1, -1):
        dH, grad = _layer_backward(net.layers[k], trace.layers[k], dH, trace.rev, input_grad=k > 0)
        blocks.insert(0, grad)
    return ParamViews(net.spec, np.concatenate(blocks))


def predict_stages(probabilities: np.ndarray) -> np.ndarray:
    """Most probable class per timestep; ties resolve to the lowest index."""
    return np.argmax(np.asarray(probabilities), axis=1).astype(np.int64)
