"""Round-trip and corruption tests for the binary model format."""

import dataclasses
import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sleepstager.features_low import FrameConfig
from sleepstager.features_mid import kmeans_fit, zscore_fit
from sleepstager.ingest import DataValidationError
from sleepstager.modelio import MODEL_MAGIC, load_model, save_model
from sleepstager.network import NetSpec, network_forward
from sleepstager.pipeline import FittedModel, FittedPipeline
from sleepstager.training import init_params


def tiny_model(seed=0, layers=(("blstm", 6),), num_classes=5, num_words=7):
    rng = np.random.default_rng(np.random.Philox(seed))
    frame = FrameConfig(frame_epochs=3, freq_components=3, cepstrum_components=2)
    low_dim = frame.dim
    samples = rng.normal(size=(60, low_dim))
    d = kmeans_fit(samples, k=num_words, seed=seed)
    final_dim = low_dim + num_words
    stats = zscore_fit(rng.normal(size=(40, final_dim)))
    spec = NetSpec(input_dim=final_dim, num_classes=num_classes, layers=layers)
    net = init_params(spec, seed=seed + 1)
    return FittedModel(
        frame=frame,
        num_classes=num_classes,
        pipeline=FittedPipeline(dictionary=d, stats=stats),
        net=net,
    )


def test_model_round_trip_exact(tmp_path):
    for seed in range(4):
        model = tiny_model(seed=seed, layers=(("lstm", 5), ("mlp", 4)))
        path = str(tmp_path / f"m{seed}.slpnet")
        save_model(model, path)
        back = load_model(path)
        assert back.num_classes == model.num_classes
        assert back.frame == model.frame
        assert back.net.spec == model.net.spec
        np.testing.assert_array_equal(
            back.pipeline.dictionary.centers, model.pipeline.dictionary.centers
        )
        assert back.pipeline.dictionary.iterations == model.pipeline.dictionary.iterations
        assert back.pipeline.dictionary.objective == model.pipeline.dictionary.objective
        assert (
            back.pipeline.dictionary.objective_history
            == model.pipeline.dictionary.objective_history
        )
        np.testing.assert_array_equal(back.pipeline.stats.mean, model.pipeline.stats.mean)
        np.testing.assert_array_equal(back.pipeline.stats.std, model.pipeline.stats.std)
        for (name_a, a), (name_b, b) in zip(
            model.net.params.items(), back.net.params.items()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(a, b)


def test_save_load_save_byte_identical(tmp_path):
    model = tiny_model(seed=3)
    p1 = str(tmp_path / "a.slpnet")
    p2 = str(tmp_path / "b.slpnet")
    save_model(model, p1)
    save_model(load_model(p1), p2)
    with open(p1, "rb") as fh:
        raw1 = fh.read()
    with open(p2, "rb") as fh:
        raw2 = fh.read()
    assert raw1 == raw2
    assert raw1[:8] == MODEL_MAGIC


@given(st.data())
def test_flat_parameters_round_trip_byte_for_byte(data):
    kinds = st.sampled_from(["mlp", "lstm", "blstm"])
    layers = tuple(data.draw(st.lists(st.tuples(kinds, st.integers(1, 4)), min_size=1, max_size=3)))
    model = tiny_model(seed=data.draw(st.integers(0, 99)), layers=layers,
                       num_classes=data.draw(st.sampled_from([4, 5])))
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324])
    model.net.flat[:] = data.draw(arrays(np.float64, model.net.flat.size, elements=values))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.slpnet")
        save_model(model, path)
        back = load_model(path)
    assert back.net.spec == model.net.spec
    assert back.net.flat.tobytes() == model.net.flat.tobytes()


def test_reloaded_model_predicts_identically(tmp_path):
    model = tiny_model(seed=5)
    path = str(tmp_path / "m.slpnet")
    save_model(model, path)
    back = load_model(path)
    rng = np.random.default_rng(np.random.Philox(99))
    low = rng.normal(size=(12, model.pipeline.dictionary.centers.shape[1]))
    xa = model.pipeline.transform(low)
    xb = back.pipeline.transform(low)
    np.testing.assert_array_equal(xa, xb)
    (pa,), _ = network_forward((model.net,), (xa,))
    (pb,), _ = network_forward((back.net,), (xb,))
    np.testing.assert_array_equal(pa, pb)


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "m.slpnet")
    save_model(tiny_model(), path)
    with open(path, "rb") as fh:
        raw = fh.read()
    # SLPDICT1 began the standalone codebook files earlier versions wrote
    for magic in (b"NOTMAGIC", b"SLPDICT1"):
        with open(path, "wb") as fh:
            fh.write(magic + raw[8:])
        with pytest.raises(DataValidationError, match="not a SLPNET01 file"):
            load_model(path)


def test_truncated_body_rejected(tmp_path):
    path = str(tmp_path / "m.slpnet")
    save_model(tiny_model(), path)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw[:-16])
    with pytest.raises(DataValidationError):
        load_model(path)


def test_body_cut_mid_value_rejected(tmp_path):
    path = str(tmp_path / "m.slpnet")
    save_model(tiny_model(), path)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw[:-3])
    with pytest.raises(DataValidationError, match="whole number"):
        load_model(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "m.slpnet")
    save_model(tiny_model(), path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(DataValidationError):
        load_model(path)


def rewrite_header(path, edit):
    """Apply ``edit`` to a saved file's JSON header, keeping the body."""
    with open(path, "rb") as fh:
        raw = fh.read()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])


@pytest.mark.parametrize("name", ["dictionary.centers", "norm.mean", "norm.std"])
def test_header_without_pipeline_array_rejected(tmp_path, name):
    # the body still holds every array; the header no longer names one
    path = str(tmp_path / "m.slpnet")
    save_model(tiny_model(), path)

    def rename(header):
        for entry in header["arrays"]:
            if entry[0] == name:
                entry[0] = "unused"

    rewrite_header(path, rename)
    with pytest.raises(DataValidationError,
                       match=rf'inconsistent dims: array \d is \["unused", .*the sizes fix \["{name}"'):
        load_model(path)


def test_net_shape_mismatch_rejected(tmp_path):
    path = str(tmp_path / "m.slpnet")
    save_model(tiny_model(layers=(("lstm", 6),)), path)

    def transpose_out_w(header):
        for entry in header["arrays"]:
            if entry[0] == "net.out.W":
                entry[1] = entry[1][::-1]

    rewrite_header(path, transpose_out_w)
    with pytest.raises(DataValidationError, match=r'inconsistent dims: array \d+ is \["net.out.W"'):
        load_model(path)


def _reshape_array(name, shape):
    def edit(header):
        for entry in header["arrays"]:
            if entry[0] == name:
                entry[1] = shape

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(num_words=h["num_words"] + 1),
        lambda h: h.update(low_dim=h["low_dim"] + 1),
        lambda h: h["frame"].update(frame_epochs=2),
        lambda h: h.update(final_dim=h["final_dim"] + 1),
        _reshape_array("norm.mean", [1, 34]),
        _reshape_array("norm.std", [2, 17]),
    ],
)
def test_inconsistent_pipeline_header_rejected(tmp_path, edit):
    # every edit keeps the body's size, so only the consistency checks can fail
    path = str(tmp_path / "m.slpnet")
    save_model(tiny_model(), path)
    rewrite_header(path, edit)
    with pytest.raises(DataValidationError, match="inconsistent dims"):
        load_model(path)


def test_unknown_model_version_rejected(tmp_path):
    path = str(tmp_path / "m.slpnet")
    save_model(tiny_model(), path)
    rewrite_header(path, lambda header: header.update(version=99))
    with pytest.raises(DataValidationError, match="version 99"):
        load_model(path)


def test_non_finite_refused_on_save(tmp_path):
    model = tiny_model()
    model.net.params["out.b"][0] = np.nan
    with pytest.raises(DataValidationError):
        save_model(model, str(tmp_path / "m.slpnet"))


@pytest.mark.parametrize("part", ["network wider than its z-score", "4 classes over a 5-class head"])
def test_a_model_load_model_would_refuse_is_not_written(tmp_path, part):
    model = tiny_model()
    spec = model.net.spec
    if part.startswith("network"):
        wider = NetSpec(spec.input_dim + 1, spec.num_classes, spec.layers)
        model = dataclasses.replace(model, net=init_params(wider, seed=1))
        first = (f'array 1 is ["norm.mean", [{spec.input_dim + 1}]], '
                 f'the sizes fix ["norm.mean", [{spec.input_dim}]]')
    else:
        model = dataclasses.replace(model, num_classes=4)
        i, D = 3 + len(spec.param_shapes()) - 2, spec.last_output_dim
        first = f'array {i} is ["net.out.W", [5, {D}]], the sizes fix ["net.out.W", [4, {D}]]'
    path = tmp_path / "m.slpnet"
    with pytest.raises(DataValidationError, match=re.escape(first)):
        save_model(model, str(path))
    assert not path.exists()


def test_non_finite_refused_on_load(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "m.slpnet")
    save_model(model, path)
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    # overwrite the last float64 of the body with NaN
    raw[-8:] = np.array([np.nan]).tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    with pytest.raises(DataValidationError):
        load_model(path)


DATA = os.path.join(os.path.dirname(__file__), "data")
# A file written by an earlier version of the writer: a blstm@2 -> mlp@3
# model over 4 classes with a 3-word codebook. Round trips within one
# version cannot see a renamed or reordered array.
GOLDEN = {
    "model": (os.path.join(DATA, "golden_model.slpnet"), load_model, save_model),
}


def read_file(path):
    with open(path, "rb") as fh:
        return fh.read()


def load_bytes(load, raw):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f")
        with open(path, "wb") as fh:
            fh.write(raw)
        return load(path)


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_file_loads_and_resaves_byte_for_byte(tmp_path, kind):
    path, load, save = GOLDEN[kind]
    out = str(tmp_path / "resaved")
    save(load(path), out)
    assert read_file(out) == read_file(path)


def test_golden_model_layout():
    model = load_model(GOLDEN["model"][0])
    spec = model.net.spec
    assert (spec.layers, spec.num_classes, spec.input_dim) == ((("blstm", 2), ("mlp", 3)), 4, 30)
    raw = read_file(GOLDEN["model"][0])
    (hlen,) = struct.unpack("<Q", raw[8:16])
    names = [name for name, _ in json.loads(raw[16 : 16 + hlen])["arrays"]]
    assert names == ["dictionary.centers", "norm.mean", "norm.std"] + [
        f"net.{name}" for name, _ in spec.param_shapes()
    ]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
@given(data=st.data())
def test_every_truncation_is_a_data_error(kind, data):
    path, load, _ = GOLDEN[kind]
    raw = read_file(path)
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    with pytest.raises(DataValidationError):
        load_bytes(load, raw[:cut])


@pytest.mark.parametrize("kind", sorted(GOLDEN))
@settings(max_examples=300)
@given(data=st.data())
def test_single_byte_change_loads_or_is_a_data_error(kind, data):
    # the format has no checksum: a changed body byte may load as another
    # finite float, but nothing may fail with any other exception
    path, load, _ = GOLDEN[kind]
    raw = bytearray(read_file(path))
    (hlen,) = struct.unpack("<Q", raw[8:16])
    pos = data.draw(st.integers(0, 16 + hlen - 1) | st.integers(0, len(raw) - 1), label="pos")
    raw[pos] = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]), label="value")
    try:
        load_bytes(load, bytes(raw))
    except DataValidationError:
        pass


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(final_dim=30.0),
        lambda h: h.update(num_classes=4.0),
        lambda h: h.update(low_dim=27.0),
        lambda h: h["frame"].update(frame_epochs=3.0),
        lambda h: h.update(layers=[["blstm", 2.0], ["mlp", 3]]),
        lambda h: h["frame"].update(cepstrum_components=2.0),
    ],
)
def test_non_integer_sizes_rejected(tmp_path, edit):
    # equal in value to the real sizes, so only their type is wrong; a float
    # width used to escape as a TypeError, a float frame to load and fail later
    path = str(tmp_path / "m.slpnet")
    with open(path, "wb") as fh:
        fh.write(read_file(GOLDEN["model"][0]))
    rewrite_header(path, edit)
    with pytest.raises(DataValidationError, match="invalid header: sizes must be integers"):
        load_model(path)


SUMMARY = "dict_iterations, dict_objective are .*, the history's length and last value"


@pytest.mark.parametrize(
    "edit, match",
    [
        ({"num_words": 7}, "inconsistent dims"),
        ({"low_dim": 99}, "inconsistent dims"),
        ({"num_words": 3.0}, "invalid header: sizes must be integers"),
        # each id names the rule the written value breaks
        pytest.param({"dict_iterations": -5}, SUMMARY, id="edit3-iterations must be a positive integer"),
        pytest.param({"dict_iterations": 0}, SUMMARY, id="edit4-iterations must be a positive integer"),
        pytest.param({"dict_iterations": 7.0}, SUMMARY, id="edit5-iterations must be a positive integer"),
        pytest.param({"dict_objective": -1.0}, SUMMARY, id="edit6-objective must be finite and >= 0"),
        pytest.param({"dict_objective": float("nan")}, SUMMARY, id="edit7-objective must be finite and >= 0"),
        pytest.param({"dict_objective": float("inf")}, SUMMARY, id="edit8-objective must be finite and >= 0"),
        pytest.param({"dict_objective": "1.0"}, SUMMARY, id="edit9-objective must be finite and >= 0"),
    ],
)
def test_dictionary_metadata_must_fit_its_centres(tmp_path, edit, match):
    # these headers used to load: a 3-word codebook claiming 7 words, a
    # negative iteration count, a negative or non-finite objective
    path = str(tmp_path / "m")
    with open(path, "wb") as fh:
        fh.write(read_file(GOLDEN["model"][0]))
    rewrite_header(path, lambda header: header.update(edit))
    with pytest.raises(DataValidationError, match=match):
        load_model(path)


def test_header_claiming_a_huge_layer_is_a_data_error(tmp_path):
    # the body holds a width-2 layer; numpy used to refuse the claimed
    # network's allocation with a bare ValueError
    path = str(tmp_path / "m")
    with open(path, "wb") as fh:
        fh.write(read_file(GOLDEN["model"][0]))
    rewrite_header(path, lambda header: header.update(layers=[["blstm", 10**20], ["mlp", 3]]))
    with pytest.raises(DataValidationError, match=r'array 3 is \["net.layer0.fwd.W_xi", \[2, 30\]\], '
                       r'the sizes fix \["net.layer0.fwd.W_xi", \[100000000000000000000, 30\]\]'):
        load_model(path)
