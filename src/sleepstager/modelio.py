"""Binary serialization of fitted models and dictionaries.

A model is unusable without the codebook and normalization it was trained
with, so all three travel in one file:

    8 bytes   magic ``SLPNET01``
    8 bytes   header length, little-endian unsigned
    N bytes   JSON header (sorted keys, compact separators): class mode,
              frame sizes, layer descriptors, codebook size, feature dims,
              codebook fit metadata, and the name/shape of every array
    rest      the arrays as raw little-endian float64, in header order:
              dictionary centers, normalization mean, normalization std,
              then network parameters in canonical order

Standalone dictionaries use the same layout under magic ``SLPDICT1``.
Writing is deterministic: identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .features_low import FrameConfig
from .features_mid import Dictionary, NormStats
from .ingest import DataValidationError
from .network import NetSpec, Network
from .pipeline import FittedModel, FittedPipeline

MODEL_MAGIC = b"SLPNET01"
DICT_MAGIC = b"SLPDICT1"
FORMAT_VERSION = 1


def _pack(header: dict, arrays: list[np.ndarray], magic: bytes) -> bytes:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise DataValidationError("refusing to serialize non-finite arrays")
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    return magic + struct.pack("<Q", len(blob)) + blob + body


def _unpack(data: bytes, magic: bytes, path: str) -> tuple[dict, np.ndarray]:
    if len(data) < 16 or data[:8] != magic:
        raise DataValidationError(f"{path}: not a {magic.decode()} file")
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
    body = np.frombuffer(data[16 + hlen :], dtype="<f8")
    return header, body


def _arrays(body: np.ndarray, meta, path: str) -> dict[str, np.ndarray]:
    """The (name, shape) arrays a header lists; the body must hold exactly
    them, all finite."""
    loaded: dict[str, np.ndarray] = {}
    offset = 0
    try:
        for name, shape in meta:
            n = math.prod(shape)
            if offset + n > body.size:
                raise DataValidationError(f"{path}: body shorter than header promises")
            loaded[name] = body[offset : offset + n].reshape(shape).astype(np.float64)
            offset += n
    except DataValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: invalid array list: {exc}") from exc
    if offset != body.size:
        raise DataValidationError(f"{path}: trailing bytes after promised arrays")
    if not all(np.all(np.isfinite(a)) for a in loaded.values()):
        raise DataValidationError(f"{path}: non-finite values in arrays")
    return loaded


def save_model(model: FittedModel, path: str) -> None:
    d = model.pipeline.dictionary
    stats = model.pipeline.stats
    arrays = [d.centers, stats.mean, stats.std]
    array_meta = [
        ["dictionary.centers", list(d.centers.shape)],
        ["norm.mean", list(stats.mean.shape)],
        ["norm.std", list(stats.std.shape)],
    ]
    arrays.append(model.net.flat)
    array_meta += [[f"net.{name}", list(arr.shape)] for name, arr in model.net.params.items()]
    header = {
        "version": FORMAT_VERSION,
        "num_classes": model.num_classes,
        "frame": {
            "frame_epochs": model.frame.frame_epochs,
            "freq_components": model.frame.freq_components,
            "cepstrum_components": model.frame.cepstrum_components,
        },
        "num_words": d.num_words,
        "low_dim": d.centers.shape[1],
        "final_dim": model.pipeline.final_dim,
        "layers": [[kind, hidden] for kind, hidden in model.net.spec.layers],
        "dict_iterations": d.iterations,
        "dict_objective": d.objective,
        "dict_objective_history": list(d.objective_history),
        "arrays": array_meta,
    }
    with open(path, "wb") as fh:
        fh.write(_pack(header, arrays, MODEL_MAGIC))


def _dictionary(centers, num_words, low_dim, iterations, objective, history, path) -> Dictionary:
    """The codebook a header describes: its sizes must be the centres' shape,
    ``iterations`` a positive integer and ``objective`` finite and >= 0."""
    if not (type(num_words) is type(low_dim) is int and centers.shape == (num_words, low_dim)):
        fault = f"inconsistent dims: centers {centers.shape}, num_words {num_words}, low_dim {low_dim}"
    elif type(iterations) is not int or iterations < 1:
        fault = f"iterations must be a positive integer, got {iterations!r}"
    elif type(objective) not in (int, float) or not 0 <= objective < math.inf:
        fault = f"objective must be finite and >= 0, got {objective!r}"
    else:
        return Dictionary(centers, iterations, objective, history)
    raise DataValidationError(f"{path}: {fault}")


def _check_version(header: dict, path: str) -> None:
    if header.get("version") != FORMAT_VERSION:
        raise DataValidationError(f"{path}: unsupported version {header.get('version')!r}")


def load_model(path: str) -> FittedModel:
    with open(path, "rb") as fh:
        data = fh.read()
    header, body = _unpack(data, MODEL_MAGIC, path)
    _check_version(header, path)
    try:
        frame = FrameConfig(**header["frame"])
        spec = NetSpec(
            input_dim=header["final_dim"],
            num_classes=header["num_classes"],
            layers=tuple((k, h) for k, h in header["layers"]),
        )
        array_meta = header["arrays"]
        low_dim, num_words, final_dim = header["low_dim"], header["num_words"], header["final_dim"]
        sizes = [*vars(frame).values(), spec.num_classes, low_dim, num_words, final_dim]
        if not all(type(n) is int for n in sizes + [h for _, h in spec.layers]):
            raise TypeError("sizes must be integers")
        dict_meta = (
            header["dict_iterations"],
            header["dict_objective"],
            tuple(header["dict_objective_history"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: invalid header: {exc}") from exc

    loaded = _arrays(body, array_meta, path)
    # the layout is checked against the body before the network is
    # allocated, so a header cannot claim more parameters than the file holds
    layout = [(f"net.{name}", shape) for name, shape in spec.param_shapes()]
    required = ["dictionary.centers", "norm.mean", "norm.std"]
    for key in required + [key for key, _ in layout]:
        if key not in loaded:
            raise DataValidationError(f"{path}: missing array {key}")
    centers, mean, std = (loaded[key] for key in required)
    if not (
        low_dim == frame.dim and final_dim == low_dim + num_words
        and mean.shape == std.shape == (final_dim,)
    ):
        raise DataValidationError(
            f"{path}: inconsistent dims: centers {centers.shape}, num_words {num_words}, "
            f"low_dim {low_dim}, frame dim {frame.dim}, final_dim {final_dim}, "
            f"norm.mean {mean.shape}, norm.std {std.shape}"
        )
    for key, shape in layout:
        if loaded[key].shape != shape:
            raise DataValidationError(f"{path}: shape mismatch for {key}")
    net = Network.zeros(spec)
    for name, arr in net.params.items():
        arr[:] = loaded[f"net.{name}"]
    return FittedModel(
        frame=frame,
        num_classes=header["num_classes"],
        pipeline=FittedPipeline(
            dictionary=_dictionary(centers, num_words, low_dim, *dict_meta, path),
            stats=NormStats(mean=mean, std=std),
        ),
        net=net,
    )


def save_dictionary(d: Dictionary, path: str) -> None:
    header = {
        "version": FORMAT_VERSION,
        "num_words": d.num_words,
        "low_dim": d.centers.shape[1],
        "iterations": d.iterations,
        "objective": d.objective,
        "objective_history": list(d.objective_history),
        "arrays": [["centers", list(d.centers.shape)]],
    }
    with open(path, "wb") as fh:
        fh.write(_pack(header, [d.centers], DICT_MAGIC))


def load_dictionary(path: str) -> Dictionary:
    with open(path, "rb") as fh:
        data = fh.read()
    header, body = _unpack(data, DICT_MAGIC, path)
    _check_version(header, path)
    try:
        (array,) = header["arrays"]
        meta = [header[key] for key in ("num_words", "low_dim", "iterations", "objective")]
        history = tuple(header["objective_history"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: invalid header: {exc}") from exc
    (centers,) = _arrays(body, [array], path).values()
    return _dictionary(centers, *meta, history, path)
