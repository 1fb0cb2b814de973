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

# each layer kind and the directions it scans: an mlp layer scans none
DIRECTIONS = {"mlp": 0, "lstm": 1, "blstm": 2}
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
        if kind not in DIRECTIONS:
            raise ConfigError(f"hidden_type must be one of {tuple(DIRECTIONS)}, got {kind!r}")
        if units < 1:
            raise ConfigError("units must be >= 1")


@dataclass(frozen=True)
class NetSpec:
    """Architecture description: stacked layers plus the softmax head.

    ``layers`` is a tuple of (kind, hidden) pairs, kind in {mlp, lstm,
    blstm}. A blstm layer feeds 2*hidden values upward, the others hidden.
    """

    input_dim: int
    num_classes: int
    layers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        check_net_shape(self.layers, self.num_classes)

    def layer_io_dims(self) -> list[tuple[int, int]]:
        """(input, output) width of each layer in stack order."""
        dims = []
        d = self.input_dim
        for kind, hidden in self.layers:
            out = max(DIRECTIONS[kind], 1) * hidden
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
                for direction in ("fwd", "bwd")[: DIRECTIONS[kind]]:
                    for name, shape in _lstm_shapes(d_in, hidden).items():
                        out.append((f"layer{k}.{direction}.{name}", shape))
        out.append(("out.W", (self.num_classes, self.last_output_dim)))
        out.append(("out.b", (self.num_classes,)))
        return out


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
        L = self.block.reshape(DIRECTIONS[self.kind], -1)
        Wx, Wh, wc, b = np.split(L, np.cumsum([4 * H * D, 4 * H * H, 3 * H]), axis=1)
        return Wx.reshape(-1, 4 * H, D), Wh.reshape(-1, 4 * H, H), wc.reshape(-1, 3, H), b


class Network:
    """Layer stack plus softmax head. Mutated only by the training loop.

    ``flat`` holds every parameter; ``params`` maps each name of
    ``spec.param_shapes()`` to its view, and each layer's ``block`` is a view.
    Loss gradients are a ``Network`` of the same spec, written through the
    same views, so an update is one vector operation on ``flat``.
    """

    def __init__(self, spec: NetSpec, flat: np.ndarray):
        self.spec = spec
        self.flat = flat
        self.params: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in spec.param_shapes():
            size = math.prod(shape)
            self.params[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} values, the layout {offset}")
        self.layers: list[Layer] = []
        start = 0
        for k, ((kind, hidden), (d_in, _)) in enumerate(zip(spec.layers, spec.layer_io_dims())):
            size = sum(a.size for n, a in self.params.items() if n.startswith(f"layer{k}."))
            self.layers.append(Layer(kind, hidden, d_in, flat[start : start + size]))
            start += size

    @classmethod
    def zeros(cls, spec: NetSpec) -> "Network":
        """All-zero parameters with the spec's shapes; a size numpy rejects
        before allocating anything is a config error."""
        size = sum(math.prod(s) for _, s in spec.param_shapes())
        try:
            return cls(spec, np.zeros(size))
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"cannot allocate a network of {size} parameters ({exc})") from exc

    def weight_mask(self) -> np.ndarray:
        """True at every coordinate of ``flat`` that is not a bias."""
        return np.concatenate([np.full(a.size, not is_bias(n)) for n, a in self.params.items()])

    def clone(self) -> "Network":
        return Network(self.spec, self.flat.copy())


def is_bias(name: str) -> bool:
    """True for bias parameters (the ones weight noise leaves alone)."""
    return name.rsplit(".", 1)[-1] in ("b", "b_i", "b_f", "b_c", "b_o")


def _scan(A: np.ndarray, Wh, wc, trace: bool = True) -> dict[str, np.ndarray]:
    """Run K cells over B sequences each, from zero states.

    A is (T, K, B, 4H): each cell's input projections plus biases, in that
    cell's time order, computed before the time loop. The cells are the
    directions of one layer, or of one layer of each network in a group,
    with ``Wh`` and ``wc`` stacked along K. Each step is one batched
    (B, H) x (H, 4H) product per cell. Returns (T, K, B, H) arrays of the
    outputs and, when ``trace``, of the gates and cells backpropagation needs.
    """
    T, K, B, _ = A.shape
    H = Wh.shape[2]
    WhT = Wh.transpose(0, 2, 1)
    w_if = wc[:, None, :2]
    w_o = wc[:, None, 2]
    Hs = np.empty((T, K, B, H))
    if trace:
        IF = np.empty((T, K, B, 2, H))
        G, C, O = (np.empty((T, K, B, H)) for _ in range(3))
    h = np.zeros((K, B, H))
    c = np.zeros((K, B, H))
    for t in range(T):
        a = A[t] + np.matmul(h, WhT)
        i_f = expit(a[..., : 2 * H].reshape(K, B, 2, H) + w_if * c[:, :, None])
        g = np.tanh(a[..., 2 * H : 3 * H])
        c = i_f[:, :, 1] * c + i_f[:, :, 0] * g
        o = expit(a[..., 3 * H :] + w_o * c)
        h = o * np.tanh(c)
        Hs[t] = h
        if trace:
            IF[t], G[t], C[t], O[t] = i_f, g, c, o
    if not trace:
        return {"h": Hs}
    return {"i": IF[:, :, :, 0], "f": IF[:, :, :, 1], "g": G, "c": C, "o": O, "h": Hs}


def _scan_backward(cache: dict, Wh, wc, dHs: np.ndarray, outs) -> np.ndarray:
    """Exact reverse-time gradients of one scan.

    Every derivative factor that does not involve the carries is computed
    for all T up front; each step then costs one (B, 4H) x (4H, H) product
    per cell. The cell gradient picks up the output-gate peephole at the
    current step and the input/forget peepholes one step later. ``dHs`` is
    zero past each network's length, and each network's weight gradients
    are summed over its own ``cache["T"]`` steps, as a scan of it alone
    would sum them. Network m's gradients of W_h, w_c and b are written
    into ``outs[m]``, its gradient layer's operands; returns the gate
    pre-activation gradients dA (T, K, B, 4H).
    """
    I, F, G, C, O = cache["i"], cache["f"], cache["g"], cache["c"], cache["o"]
    T, K, B, H = C.shape
    C_prev = np.concatenate([np.zeros((1, K, B, H)), C[:-1]])
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
    del tc, P_o, P_c, P_ifg, P_cc  # freed before the reductions allocate
    H_prev = np.concatenate([np.zeros((1, K, B, H)), cache["h"][:-1]])
    k = K // len(cache["T"])
    for m, (T_m, (_, gWh, gwc, gb)) in enumerate(zip(cache["T"], outs)):
        own = (slice(T_m), slice(m * k, (m + 1) * k))
        dA_m = dA[own]
        # contiguous, as alone: BLAS may round differently for other strides
        dA_k = np.ascontiguousarray(dA_m.transpose(1, 0, 2, 3).reshape(k, T_m * B, 4 * H))
        H_k = np.ascontiguousarray(H_prev[own].transpose(1, 0, 2, 3).reshape(k, T_m * B, H))
        d_wif = dA_m[..., : 2 * H].reshape(T_m, k, B, 2, H) * C_prev[own][:, :, :, None]
        gWh[:] = np.matmul(dA_k.transpose(0, 2, 1), H_k)
        gwc[:, :2] = d_wif.sum(axis=(0, 2))
        gwc[:, 2] = (dA_m[..., 3 * H :] * C[own]).sum(axis=(0, 2))
        gb[:] = dA_k.sum(axis=1)
    return dA


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


def _check_group(nets, inputs) -> None:
    """A group is networks of one layer stack with one input each."""
    if not nets or len(inputs) != len(nets) or len({n.spec.layers for n in nets}) > 1:
        raise ValueError("a group needs networks of one layer stack and one input per network")


# Cached activations of one stack level of a group for exact backpropagation:
# each network's (T, B, D) input batch and outputs, and the level's scan arrays.
LayerTrace = namedtuple("LayerTrace", ("inputs", "outputs", "cache"), defaults=(None,))
# Everything the backward pass needs, per network, with the networks whose
# parameters the forward pass read.
ForwardTrace = namedtuple("ForwardTrace", ("layers", "probs", "rev", "nets"))


def _layer_forward(layers: list[Layer], inputs, revs: list[np.ndarray], trace: bool) -> LayerTrace:
    """One stack level of a group: ``layers[m]`` over network m's (T_m, B, D)
    batch, read once from ``inputs``. A recurrent level runs one scan for the
    group, each network's cells padded at their ends to the longest T_m.
    Inputs and scan arrays are kept only when ``trace``."""
    K = DIRECTIONS[layers[0].kind]
    A = np.zeros((max(map(len, revs)), K * len(layers), revs[0].shape[1], 4 * layers[0].hidden))
    kept, outputs = [], []
    for m, (layer, P, rev) in enumerate(zip(layers, inputs, revs)):
        kept.append(P if trace else None)
        if not K:
            outputs.append(np.tanh(_affine(P, *layer.operands())))
            continue
        Wx, _, _, b = layer.operands()
        # input projections are per step, so each direction's can be taken in
        # input order and reordered after: 4H values per step instead of D
        for k in range(K):
            A[: len(rev), m * K + k] = _oriented(_affine(P, Wx[k], b[k]), rev, k)
    if not K:
        return LayerTrace(kept, outputs)
    ops = [layer.operands() for layer in layers]
    cache = _scan(A, *(np.concatenate([o[j] for o in ops]) for j in (1, 2)), trace)
    cache["T"], h = [len(rev) for rev in revs], cache["h"]
    outputs = [
        np.concatenate([_oriented(h[: len(rev), m * K + k], rev, k) for k in range(K)], axis=2)
        for m, rev in enumerate(revs)
    ]
    return LayerTrace(kept, outputs, cache if trace else None)


def _checked(X, dim: int) -> np.ndarray:
    """X as a finite C-ordered float64 (T, dim) array with T >= 1, else ValueError."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("features must be a non-empty (T, dim) array")
    if X.shape[1] != dim:
        raise ValueError(f"feature dim {X.shape[1]} != network input dim {dim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite features")
    return X


def _padded(Xs: list[np.ndarray], T: int) -> np.ndarray:
    """Sequences as a (T, B, D) batch zero-padded at their ends; one is a view."""
    if len(Xs) == 1:
        return Xs[0][:, None]
    P = np.zeros((T, len(Xs), Xs[0].shape[1]))
    for b, X in enumerate(Xs):
        P[: len(X), b] = X
    return P


def _forward(nets, batches: list[list[np.ndarray]], traces: list | None = None):
    """Class probabilities (T_m, B, M) of each network ``nets[m]`` over its
    checked sequences ``batches[m]``, zero-padded at their ends to the
    longest, and its (T_m, B) reversal index. Every scan is causal in its own
    direction, so padding never reaches a real step. Each level's trace is
    appended to ``traces`` when given, else dropped once its outputs are
    handed to the next level."""
    revs = [_reversal([len(X) for X in Xs]) for Xs in batches]
    P = (_padded(Xs, len(rev)) for Xs, rev in zip(batches, revs))
    for depth in range(len(nets[0].layers)):
        trace = _layer_forward([net.layers[depth] for net in nets], P, revs, traces is not None)
        if traces is not None:
            traces.append(trace)
        P, trace = trace.outputs, None
    probs = []
    for net, X in zip(nets, P):
        logits = _affine(X, net.params["out.W"], net.params["out.b"])
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        probs.append(e / e.sum(axis=2, keepdims=True))
    return probs, revs


def network_forward(nets, features, owned: bool = False):
    """Class probabilities of each network over its own whole sequence, as
    alone, from one group scan, plus the backward-pass trace. The trace holds
    a clone of each network; ``owned`` says the networks were made for this
    call and nothing changes them, so it holds them as is."""
    _check_group(nets, features)
    traces: list[LayerTrace] = []
    Xs = [[_checked(X, n.spec.input_dim)] for n, X in zip(nets, features)]
    probs, revs = _forward(nets, Xs, traces)
    probs = tuple(P[:, 0] for P in probs)
    nets = tuple(n if owned else n.clone() for n in nets)
    return probs, ForwardTrace(layers=traces, probs=probs, rev=revs, nets=nets)


# Most padded steps (longest x count) in one lockstep batch: scoring holds
# ~4 KB per padded step plus ~4 KB per network of a group for blstm@32 on
# 520 features, so ~17 MB at most alone and ~42 MB for a group of four.
SCORE_CHUNK = 2048


def network_probs(nets, sequences):
    """Class probabilities of each network over each of its sequences, as
    alone, with no trace: each network's sequences are sorted by length and
    batched, each batch at most ``SCORE_CHUNK`` padded steps or one sequence,
    so memory stays bounded and padding small; its i-th batch shares one scan
    with the other networks' i-th batches of its size."""
    _check_group(nets, sequences)
    Xs = [[_checked(X, n.spec.input_dim) for X in S] for n, S in zip(nets, sequences)]
    batches = [[] for _ in nets]
    for own, S in zip(batches, Xs):
        order = sorted(range(len(S)), key=lambda s: len(S[s]))
        while order:
            n = 1
            while n < len(order) and len(S[order[n]]) * (n + 1) <= SCORE_CHUNK:
                n += 1
            own.append(order[:n])
            order = order[n:]
    out = [[None] * len(S) for S in Xs]
    for i in range(max(map(len, batches))):
        live = [m for m, own in enumerate(batches) if i < len(own)]
        for size in sorted({len(batches[m][i]) for m in live}):
            group = [m for m in live if len(batches[m][i]) == size]
            members = [nets[m] for m in group]
            probs, _ = _forward(members, [[Xs[m][s] for s in batches[m][i]] for m in group])
            for m, P in zip(group, probs):
                for b, s in enumerate(batches[m][i]):
                    out[m][s] = P[: len(Xs[m][s]), b]
    return tuple(out)


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


def _layer_backward(layers: list[Layer], grads, trace: LayerTrace, dOuts, revs, input_grad: bool):
    """Gradients of one stack level of a group: writes network m's through
    ``grads[m]``, its gradient's layer, and returns each one's dInputs, None
    unless ``input_grad``, as the first level's are never used."""
    dPs = []
    if layers[0].kind == "mlp":
        for layer, grad, P, out, dOut in zip(layers, grads, trace.inputs, trace.outputs, dOuts):
            dA = dOut * (1.0 - out**2)
            T, B, H = dA.shape
            dA2 = dA.reshape(T * B, H)
            gW, gb = grad.operands()
            gW[:] = dA2.T @ P.reshape(T * B, -1)
            gb[:] = dA2.sum(axis=0)
            dPs.append((dA2 @ layer.operands()[0]).reshape(T, B, -1) if input_grad else None)
        return dPs
    ops = [layer.operands() for layer in layers]
    outs = [grad.operands() for grad in grads]
    K, H = ops[0][0].shape[0], layers[0].hidden
    dHs = np.zeros(trace.cache["h"].shape)
    for m, (dOut, rev) in enumerate(zip(dOuts, revs)):
        for k in range(K):
            dHs[: len(rev), m * K + k] = _oriented(dOut[..., k * H : (k + 1) * H], rev, k)
    Wh, wc = (np.concatenate([o[j] for o in ops]) for j in (1, 2))
    dA = _scan_backward(trace.cache, Wh, wc, dHs, outs)
    for m, ((Wx, *_), (gWx, *_), P, rev) in enumerate(zip(ops, outs, trace.inputs, revs)):
        T, B, D = P.shape
        own_dA = [_oriented(dA[:T, m * K + k], rev, k) for k in range(K)]
        dA_in = np.stack([a.reshape(T * B, 4 * H) for a in own_dA])
        gWx[:] = np.matmul(dA_in.transpose(0, 2, 1), P.reshape(T * B, D))
        dPs.append(np.matmul(dA_in, Wx).sum(axis=0).reshape(T, B, D) if input_grad else None)
    return dPs


def network_backward(trace: ForwardTrace, labels):
    """Each network's exact loss gradients from a group's trace and its one-hot
    ``labels``, as a ``Network`` of its spec written through its own views; the
    buffers start as NaN, so a coordinate left unwritten cannot pass as zero.
    Every operand comes from the trace, which holds the networks it read."""
    nets = trace.nets
    _check_group(nets, labels)
    grads = tuple(Network(n.spec, np.full(n.flat.size, np.nan)) for n in nets)
    dHs = []
    for n, g, P, Y, top in zip(nets, grads, trace.probs, labels, trace.layers[-1].outputs):
        dP = _loss_backward(P, _check_one_hot(Y, P.shape))
        # softmax jacobian: dz = p * (dp - <dp, p>)
        dZ = P * (dP - (dP * P).sum(axis=1, keepdims=True))
        g.params["out.W"][:] = dZ.T @ top[:, 0]
        g.params["out.b"][:] = dZ.sum(axis=0)
        dHs.append((dZ @ n.params["out.W"])[:, None])
    for k in range(len(trace.layers) - 1, -1, -1):
        levels = ([n.layers[k] for n in nets], [g.layers[k] for g in grads])
        dHs = _layer_backward(*levels, trace.layers[k], dHs, trace.rev, k > 0)
    return grads


def predict_stages(probabilities: np.ndarray) -> np.ndarray:
    """Most probable class per timestep; ties resolve to the lowest index."""
    return np.argmax(np.asarray(probabilities), axis=1).astype(np.int64)
