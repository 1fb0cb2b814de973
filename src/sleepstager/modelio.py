"""Binary serialization of fitted models.

A model is unusable without the codebook and normalization it was trained
with, so all three travel in one file:

    8 bytes   magic ``SLPNET01``
    8 bytes   header length, little-endian unsigned
    N bytes   JSON header (sorted keys, compact separators): class mode,
              frame sizes, layer descriptors, codebook size, feature dims,
              the codebook's objective history with its length and last
              value, and the name/shape of every array
    rest      the arrays as raw little-endian float64, in header order:
              dictionary centers, normalization mean, normalization std,
              then network parameters in canonical order

The header's sizes fix the array list (``_layout``) and the history fixes
the codebook's iteration count and objective; a file that says otherwise is
refused, and ``save_model`` runs the same checks on its bytes before it
writes them. Writing is deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import struct

import numpy as np

from .errors import DataValidationError
from .features_low import FrameConfig
from .features_mid import Dictionary, NormStats
from .network import NetSpec, Network
from .pipeline import FittedModel, FittedPipeline

MODEL_MAGIC = b"SLPNET01"
FORMAT_VERSION = 1


def _pack(header: dict, arrays: list[np.ndarray]) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    return MODEL_MAGIC + struct.pack("<Q", len(blob)) + blob + body


def _unpack(data: bytes, path: str) -> tuple[dict, np.ndarray]:
    """The header and float64 body of ``data``, the bytes of the model file ``path``."""
    if len(data) < 16 or data[:8] != MODEL_MAGIC:
        raise DataValidationError(f"{path}: not a {MODEL_MAGIC.decode()} file")
    (hlen,) = struct.unpack("<Q", data[8:16])
    if len(data) < 16 + hlen:
        raise DataValidationError(f"{path}: truncated header")
    try:
        header = json.loads(data[16 : 16 + hlen])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataValidationError(f"{path}: corrupt header") from exc
    if not isinstance(header, dict):
        raise DataValidationError(f"{path}: corrupt header")
    if (len(data) - 16 - hlen) % 8:
        raise DataValidationError(f"{path}: body is not a whole number of float64 values")
    if header.get("version") != FORMAT_VERSION:
        raise DataValidationError(f"{path}: unsupported version {header.get('version')!r}")
    return header, np.frombuffer(data[16 + hlen :], dtype="<f8")


def _layout(spec: NetSpec, num_words: int, low_dim: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every array's name and shape in body order, as the header's sizes fix them."""
    return [
        ("dictionary.centers", (num_words, low_dim)),
        ("norm.mean", (spec.input_dim,)),
        ("norm.std", (spec.input_dim,)),
    ] + [(f"net.{name}", shape) for name, shape in spec.param_shapes()]


def save_model(model: FittedModel, path: str) -> None:
    """Write ``model`` to ``path``. A model whose parts disagree, which
    ``load_model`` would refuse, raises ``DataValidationError`` before the
    file is opened."""
    d = model.pipeline.dictionary
    stats = model.pipeline.stats
    low_dim = d.centers.shape[1]
    header = {
        "version": FORMAT_VERSION,
        "num_classes": model.num_classes,
        "frame": vars(model.frame),
        "final_dim": model.pipeline.final_dim,
        "layers": [[kind, hidden] for kind, hidden in model.net.spec.layers],
        "arrays": _layout(model.net.spec, d.num_words, low_dim),
        "num_words": d.num_words,
        "low_dim": low_dim,
        "dict_iterations": d.iterations,
        "dict_objective": d.objective,
        "dict_objective_history": list(d.objective_history),
    }
    data = _pack(header, [d.centers, stats.mean, stats.std, model.net.flat])
    _parse(data, path)
    with open(path, "wb") as fh:
        fh.write(data)


def load_model(path: str) -> FittedModel:
    """The model in the file at ``path``; the header's sizes are checked
    against its array list and body before anything is allocated."""
    with open(path, "rb") as fh:
        return _parse(fh.read(), path)


def _parse(data: bytes, path: str) -> FittedModel:
    header, body = _unpack(data, path)
    try:
        frame = FrameConfig(**header["frame"])
        spec = NetSpec(
            input_dim=header["final_dim"],
            num_classes=header["num_classes"],
            layers=tuple((k, h) for k, h in header["layers"]),
        )
        arrays, num_words, low_dim = list(header["arrays"]), header["num_words"], header["low_dim"]
        summary = [header["dict_iterations"], header["dict_objective"]]
        history = header["dict_objective_history"]
        sizes = [*vars(frame).values(), spec.num_classes, low_dim, num_words, spec.input_dim]
        if not all(type(n) is int for n in sizes + [h for _, h in spec.layers]):
            raise TypeError("sizes must be integers")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: invalid header: {exc}") from exc

    if not (low_dim == frame.dim and num_words >= 0 and spec.input_dim == low_dim + num_words):
        raise DataValidationError(f"{path}: inconsistent dims: low_dim {low_dim}, frame dim "
                                  f"{frame.dim}, num_words {num_words}, final_dim {spec.input_dim}")
    # entries compare as JSON text, so 3.0 or true does not pass for 3 or 1
    layout = _layout(spec, num_words, low_dim)
    for i, (got, want) in enumerate(itertools.zip_longest(arrays, layout)):
        if json.dumps(got) != json.dumps(want):
            raise DataValidationError(f"{path}: inconsistent dims: array {i} is "
                                      f"{json.dumps(got)}, the sizes fix {json.dumps(want)}")
    counts = [math.prod(shape) for _, shape in layout]
    if body.size != sum(counts):
        raise DataValidationError(f"{path}: body has {body.size} values, the layout {sum(counts)}")
    if not np.isfinite(body).all():
        raise DataValidationError(f"{path}: non-finite values in arrays")
    centers, mean, std, flat = np.split(body.astype(np.float64), np.cumsum(counts[:3]))

    if not (type(history) is list and history and all(
        type(v) in (int, float) and 0 <= v < math.inf for v in history
    )):
        raise DataValidationError(f"{path}: dict_objective_history is not a non-empty list "
                                  "of finite numbers >= 0")
    dictionary = Dictionary(centers.reshape(num_words, low_dim), tuple(history))
    derived = [dictionary.iterations, dictionary.objective]
    if json.dumps(summary) != json.dumps(derived):
        raise DataValidationError(f"{path}: dict_iterations, dict_objective are {summary}, "
                                  f"the history's length and last value {derived}")
    pipeline = FittedPipeline(dictionary, NormStats(mean=mean, std=std))
    return FittedModel(frame, spec.num_classes, pipeline, Network(spec, flat))
