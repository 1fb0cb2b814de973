"""Reference implementation the fused-gate network code must match.

This is the straightforward per-gate version: one cell step at a time, one
matrix-vector product per gate, each direction of a layer scanned on its
own, one sequence at a time. Tests compare the package against it.
"""

from collections import namedtuple

import numpy as np
from scipy.special import expit

from sleepstager.network import LSTM_FIELDS, Network, _check_one_hot, _loss_backward

# One direction's cell parameters: input maps (hidden, input), recurrent
# maps (hidden, hidden), elementwise peepholes and biases (hidden,).
LstmParams = namedtuple("LstmParams", LSTM_FIELDS)


def direction_params(net: Network, k: int, direction: str) -> LstmParams:
    """Views of layer k's ``fwd`` or ``bwd`` cell parameters, read from ``net.params``."""
    return LstmParams(*(net.params[f"layer{k}.{direction}.{f}"] for f in LSTM_FIELDS))


def lstm_step(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: LstmParams):
    """One cell update; returns (h, c, gate cache).

    Input and forget gates peek at the previous cell state, the output gate
    at the just-computed one; the candidate has no peephole.
    """
    if (h_prev.shape + x.shape) != p.W_xi.shape:
        raise ValueError("lstm_step shape mismatch")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h_prev)) and np.all(np.isfinite(c_prev))):
        raise ValueError("non-finite lstm_step input")
    i = expit(p.W_xi @ x + p.W_hi @ h_prev + p.w_ci * c_prev + p.b_i)
    f = expit(p.W_xf @ x + p.W_hf @ h_prev + p.w_cf * c_prev + p.b_f)
    g = np.tanh(p.W_xc @ x + p.W_hc @ h_prev + p.b_c)
    c = f * c_prev + i * g
    o = expit(p.W_xo @ x + p.W_ho @ h_prev + p.w_co * c + p.b_o)
    h = o * np.tanh(c)
    return h, c, {"i": i, "f": f, "g": g, "c": c, "o": o, "h": h}


def lstm_scan(X: np.ndarray, p: LstmParams) -> dict[str, np.ndarray]:
    """The cell over a whole sequence from zero states; (T, hidden) gate arrays."""
    steps = []
    h = np.zeros(p.W_hi.shape[0])
    c = np.zeros(p.W_hi.shape[0])
    for x in X:
        h, c, cache = lstm_step(x, h, c, p)
        steps.append(cache)
    return {k: np.array([s[k] for s in steps]) for k in ("i", "f", "g", "c", "o", "h")}


def lstm_scan_backward(X: np.ndarray, cache: dict, p: LstmParams, dH: np.ndarray):
    """Reverse-time gradients of one scan: (dX, grads keyed by LSTM_FIELDS)."""
    T, H = dH.shape
    I, F, G, C, O = cache["i"], cache["f"], cache["g"], cache["c"], cache["o"]
    C_prev = np.vstack([np.zeros((1, H)), C[:-1]])
    H_prev = np.vstack([np.zeros((1, H)), cache["h"][:-1]])
    dA_i, dA_f, dA_g, dA_o = (np.empty((T, H)) for _ in range(4))
    dh_carry = np.zeros(H)
    dc_carry = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dH[t] + dh_carry
        tc = np.tanh(C[t])
        da_o = dh * tc * O[t] * (1.0 - O[t])
        dc = dc_carry + dh * O[t] * (1.0 - tc * tc) + da_o * p.w_co
        da_g = dc * I[t] * (1.0 - G[t] * G[t])
        da_i = dc * G[t] * I[t] * (1.0 - I[t])
        da_f = dc * C_prev[t] * F[t] * (1.0 - F[t])
        dh_carry = p.W_hi.T @ da_i + p.W_hf.T @ da_f + p.W_hc.T @ da_g + p.W_ho.T @ da_o
        dc_carry = dc * F[t] + da_i * p.w_ci + da_f * p.w_cf
        dA_i[t], dA_f[t], dA_g[t], dA_o[t] = da_i, da_f, da_g, da_o
    dX = dA_i @ p.W_xi + dA_f @ p.W_xf + dA_g @ p.W_xc + dA_o @ p.W_xo
    grads = {
        "W_xi": dA_i.T @ X, "W_xf": dA_f.T @ X, "W_xc": dA_g.T @ X, "W_xo": dA_o.T @ X,
        "W_hi": dA_i.T @ H_prev, "W_hf": dA_f.T @ H_prev,
        "W_hc": dA_g.T @ H_prev, "W_ho": dA_o.T @ H_prev,
        "w_ci": (dA_i * C_prev).sum(axis=0),
        "w_cf": (dA_f * C_prev).sum(axis=0),
        "w_co": (dA_o * C).sum(axis=0),
        "b_i": dA_i.sum(axis=0), "b_f": dA_f.sum(axis=0),
        "b_c": dA_g.sum(axis=0), "b_o": dA_o.sum(axis=0),
    }
    return dX, grads


def _layer_forward(net, k, X):
    kind = net.spec.layers[k][0]
    if kind == "mlp":
        hidden = np.tanh(X @ net.params[f"layer{k}.mlp.W"].T + net.params[f"layer{k}.mlp.b"])
        return hidden, {"inputs": X, "hidden": hidden}
    fwd = lstm_scan(X, direction_params(net, k, "fwd"))
    if kind == "lstm":
        return fwd["h"], {"inputs": X, "fwd": fwd}
    bwd = lstm_scan(X[::-1], direction_params(net, k, "bwd"))
    return np.concatenate([fwd["h"], bwd["h"][::-1]], axis=1), {"inputs": X, "fwd": fwd, "bwd": bwd}


def network_probs(net: Network, X: np.ndarray):
    """Class probabilities of one sequence plus the per-layer caches."""
    caches = []
    for k in range(len(net.spec.layers)):
        X, cache = _layer_forward(net, k, X)
        caches.append(cache)
    logits = X @ net.params["out.W"].T + net.params["out.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), caches, X


def network_gradients(net: Network, X: np.ndarray, Y: np.ndarray) -> dict[str, np.ndarray]:
    """Loss gradients keyed like ``net.params``, layer by layer and gate by gate."""
    P, caches, last = network_probs(net, X)
    dP = _loss_backward(P, _check_one_hot(Y, P.shape))
    dZ = P * (dP - (dP * P).sum(axis=1, keepdims=True))
    grads = {"out.W": dZ.T @ last, "out.b": dZ.sum(axis=0)}
    dH = dZ @ net.params["out.W"]
    for k in range(len(net.spec.layers) - 1, -1, -1):
        (kind, H), cache = net.spec.layers[k], caches[k]
        if kind == "mlp":
            dA = dH * (1.0 - cache["hidden"] ** 2)
            grads[f"layer{k}.mlp.W"] = dA.T @ cache["inputs"]
            grads[f"layer{k}.mlp.b"] = dA.sum(axis=0)
            dH = dA @ net.params[f"layer{k}.mlp.W"]
            continue
        fwd = direction_params(net, k, "fwd")
        dX, g = lstm_scan_backward(cache["inputs"], cache["fwd"], fwd, dH[:, :H])
        grads.update({f"layer{k}.fwd.{f}": v for f, v in g.items()})
        if kind == "blstm":
            X_b, dH_b = cache["inputs"][::-1], dH[:, H:][::-1]
            bwd = direction_params(net, k, "bwd")
            dX_b, g_b = lstm_scan_backward(X_b, cache["bwd"], bwd, dH_b)
            grads.update({f"layer{k}.bwd.{f}": v for f, v in g_b.items()})
            dX = dX + dX_b[::-1]
        dH = dX
    return grads
