import math

import numpy as np
import pytest
from per_gate_oracle import lstm_step, network_gradients
from per_gate_oracle import network_probs as oracle_probs

from sleepstager import network
from sleepstager.network import (
    MAX_LAYERS,
    LstmParams,
    MlpParams,
    NetSpec,
    Network,
    ParamViews,
    is_bias,
    layer_forward,
    loss,
    network_backward,
    network_forward,
    network_probs,
    predict_stages,
)

ORACLE_STACKS = {
    "lstm": (("lstm", 4),),
    "blstm": (("blstm", 3),),
    "blstm-blstm": (("blstm", 3), ("blstm", 2)),
    "blstm-mlp": (("blstm", 3), ("mlp", 5)),
}


def fill_random(net, rng, scale=0.4):
    for _, arr in net.named_params():
        arr[:] = scale * rng.standard_normal(arr.shape)
    return net


def random_net(spec, seed, scale=0.4):
    return fill_random(Network.zeros(spec), np.random.default_rng(seed), scale)


def make_layer(kind, fwd=None, bwd=None, mlp=None):
    """The layer of a one-layer network whose parameters are copies of the given arrays."""
    H, D = (mlp.W if kind == "mlp" else fwd.W_xi).shape
    layer = Network.zeros(NetSpec(input_dim=D, num_classes=5, layers=((kind, H),))).layers[0]
    for views, arrays in ((layer.fwd, fwd), (layer.bwd, bwd), (layer.mlp, mlp)):
        for view, array in zip(views or (), arrays or ()):
            view[...] = array
    return layer


def zero_lstm_params(d, h):
    from sleepstager.network import _lstm_shapes

    return LstmParams(**{k: np.zeros(s) for k, s in _lstm_shapes(d, h).items()})


def random_lstm_params(d, h, rng, scale=0.5):
    from sleepstager.network import _lstm_shapes

    return LstmParams(**{k: scale * rng.standard_normal(s) for k, s in _lstm_shapes(d, h).items()})


class TestLstmStep:
    def test_zero_params_zero_cell(self):
        p = zero_lstm_params(3, 4)
        h, c, cache = lstm_step(np.ones(3), np.zeros(4), np.zeros(4), p)
        np.testing.assert_allclose(cache["i"], 0.5)
        np.testing.assert_allclose(cache["f"], 0.5)
        np.testing.assert_allclose(cache["o"], 0.5)
        np.testing.assert_allclose(c, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_zero_params_carried_cell(self):
        # zero weights leave only the cell decay path: c' = 0.5 c, h = 0.5 tanh(c')
        p = zero_lstm_params(2, 3)
        c_prev = np.array([1.0, -2.0, 0.5])
        h, c, _ = lstm_step(np.zeros(2), np.zeros(3), c_prev, p)
        np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_matches_scalar_oracle(self):
        # hand-rolled float arithmetic for a single-unit, single-input cell
        rng = np.random.default_rng(0)
        for _ in range(30):
            v = {k: float(rng.standard_normal()) for k in (
                "wxi", "wxf", "wxc", "wxo", "whi", "whf", "whc", "who",
                "wci", "wcf", "wco", "bi", "bf", "bc", "bo", "x", "h", "c")}
            sig = lambda a: 1.0 / (1.0 + math.exp(-a))
            i = sig(v["wxi"] * v["x"] + v["whi"] * v["h"] + v["wci"] * v["c"] + v["bi"])
            f = sig(v["wxf"] * v["x"] + v["whf"] * v["h"] + v["wcf"] * v["c"] + v["bf"])
            g = math.tanh(v["wxc"] * v["x"] + v["whc"] * v["h"] + v["bc"])
            c_new = f * v["c"] + i * g
            o = sig(v["wxo"] * v["x"] + v["who"] * v["h"] + v["wco"] * c_new + v["bo"])
            h_new = o * math.tanh(c_new)

            p = LstmParams(
                W_xi=np.array([[v["wxi"]]]), W_xf=np.array([[v["wxf"]]]),
                W_xc=np.array([[v["wxc"]]]), W_xo=np.array([[v["wxo"]]]),
                W_hi=np.array([[v["whi"]]]), W_hf=np.array([[v["whf"]]]),
                W_hc=np.array([[v["whc"]]]), W_ho=np.array([[v["who"]]]),
                w_ci=np.array([v["wci"]]), w_cf=np.array([v["wcf"]]), w_co=np.array([v["wco"]]),
                b_i=np.array([v["bi"]]), b_f=np.array([v["bf"]]),
                b_c=np.array([v["bc"]]), b_o=np.array([v["bo"]]),
            )
            h_vec, c_vec, _ = lstm_step(
                np.array([v["x"]]), np.array([v["h"]]), np.array([v["c"]]), p
            )
            np.testing.assert_allclose(c_vec, [c_new], atol=1e-12)
            np.testing.assert_allclose(h_vec, [h_new], atol=1e-12)

    def test_shape_and_finite_guards(self):
        p = zero_lstm_params(3, 4)
        with pytest.raises(ValueError):
            lstm_step(np.ones(2), np.zeros(4), np.zeros(4), p)
        with pytest.raises(ValueError):
            lstm_step(np.array([np.nan, 0, 0]), np.zeros(4), np.zeros(4), p)


class TestLayerForward:
    def test_lstm_scan_matches_stepwise(self):
        rng = np.random.default_rng(1)
        p = random_lstm_params(4, 3, rng)
        X = rng.standard_normal((9, 4))
        scanned = layer_forward(make_layer("lstm", fwd=p), X)
        h = np.zeros(3)
        c = np.zeros(3)
        for t in range(9):
            h, c, _ = lstm_step(X[t], h, c, p)
            np.testing.assert_allclose(scanned[t], h, atol=1e-12)

    def test_blstm_equals_two_independent_passes(self):
        rng = np.random.default_rng(2)
        pf = random_lstm_params(5, 3, rng)
        pb = random_lstm_params(5, 3, rng)
        X = rng.standard_normal((7, 5))
        out = layer_forward(make_layer("blstm", fwd=pf, bwd=pb), X)
        fwd_only = layer_forward(make_layer("lstm", fwd=pf), X)
        bwd_only = layer_forward(make_layer("lstm", fwd=pb), X[::-1])[::-1]
        np.testing.assert_allclose(out[:, :3], fwd_only, atol=1e-12)
        np.testing.assert_allclose(out[:, 3:], bwd_only, atol=1e-12)

    def test_blstm_direction_symmetry(self):
        # reversing the input and swapping the direction params reverses the
        # output and swaps its halves
        rng = np.random.default_rng(3)
        pf = random_lstm_params(4, 2, rng)
        pb = random_lstm_params(4, 2, rng)
        X = rng.standard_normal((6, 4))
        out = layer_forward(make_layer("blstm", fwd=pf, bwd=pb), X)
        swapped = layer_forward(make_layer("blstm", fwd=pb, bwd=pf), X[::-1])
        recombined = np.concatenate([swapped[::-1][:, 2:], swapped[::-1][:, :2]], axis=1)
        np.testing.assert_allclose(recombined, out, atol=1e-12)

    def test_blstm_zero_backward_keeps_forward_half(self):
        rng = np.random.default_rng(4)
        pf = random_lstm_params(3, 4, rng)
        pz = zero_lstm_params(3, 4)
        X = rng.standard_normal((5, 3))
        out = layer_forward(make_layer("blstm", fwd=pf, bwd=pz), X)
        np.testing.assert_array_equal(out[:, :4], layer_forward(make_layer("lstm", fwd=pf), X))
        np.testing.assert_array_equal(out[:, 4:], 0.0)

    def test_mlp_is_timestep_local(self):
        rng = np.random.default_rng(5)
        mlp = MlpParams(W=rng.standard_normal((4, 3)), b=rng.standard_normal(4))
        layer = make_layer("mlp", mlp=mlp)
        X = rng.standard_normal((8, 3))
        perm = rng.permutation(8)
        np.testing.assert_array_equal(layer_forward(layer, X[perm]), layer_forward(layer, X)[perm])

    def test_empty_sequence_rejected(self):
        layer = make_layer("mlp", mlp=MlpParams(W=np.zeros((2, 2)), b=np.zeros(2)))
        with pytest.raises(ValueError):
            layer_forward(layer, np.zeros((0, 2)))


class TestNetworkForward:
    def test_zero_net_is_uniform(self):
        net = Network.zeros(NetSpec(input_dim=6, num_classes=5, layers=(("blstm", 3),)))
        probs, _ = network_forward(net, np.random.default_rng(6).standard_normal((4, 6)))
        np.testing.assert_allclose(probs, 0.2, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        net = random_net(NetSpec(input_dim=5, num_classes=4, layers=(("lstm", 6), ("mlp", 3))), 7)
        probs, _ = network_forward(net, rng.standard_normal((11, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)

    def test_two_layer_composition_oracle(self):
        rng = np.random.default_rng(8)
        spec = NetSpec(input_dim=4, num_classes=5, layers=(("blstm", 3), ("lstm", 4)))
        net = random_net(spec, 8)
        X = rng.standard_normal((6, 4))
        probs, _ = network_forward(net, X)
        manual = layer_forward(net.layers[1], layer_forward(net.layers[0], X))
        logits = manual @ net.out_W.T + net.out_b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(probs, e / e.sum(axis=1, keepdims=True), atol=1e-12)

    def test_logit_translation_invariance(self):
        rng = np.random.default_rng(9)
        spec = NetSpec(input_dim=3, num_classes=5, layers=(("mlp", 4),))
        net = random_net(spec, 9)
        X = rng.standard_normal((5, 3))
        base, _ = network_forward(net, X)
        net.out_b += 3.7  # same shift for every class
        shifted, _ = network_forward(net, X)
        np.testing.assert_allclose(shifted, base, atol=1e-12)
        np.testing.assert_array_equal(predict_stages(shifted), predict_stages(base))

    def test_no_state_leak_between_sequences(self):
        rng = np.random.default_rng(10)
        net = random_net(NetSpec(input_dim=4, num_classes=5, layers=(("lstm", 5),)), 10)
        A = rng.standard_normal((7, 4))
        B = rng.standard_normal((7, 4))
        network_forward(net, A)
        pb, _ = network_forward(net, B)
        pb_alone, _ = network_forward(net, B)
        np.testing.assert_array_equal(pb, pb_alone)

    def test_dimension_mismatch_rejected(self):
        net = Network.zeros(NetSpec(input_dim=4, num_classes=5))
        with pytest.raises(ValueError):
            network_forward(net, np.zeros((3, 5)))


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        Y = np.eye(5)[[0, 2, 4]]
        assert loss(Y, Y) < 1e-10

    def test_uniform_hand_value(self):
        P = np.full((1, 5), 0.2)
        Y = np.eye(5)[[1]]
        expect = -(np.log(0.2) + 4.0 * np.log(0.8))
        np.testing.assert_allclose(loss(P, Y), expect, atol=1e-12)
        np.testing.assert_allclose(loss(P, Y), 2.5020, atol=5e-5)

    def test_strictly_decreasing_toward_reference(self):
        Y = np.eye(5)[[3]]
        uniform = np.full((1, 5), 0.2)
        values = [loss((1 - lam) * uniform + lam * Y, Y) for lam in np.linspace(0, 1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_timestep_average(self):
        P1 = np.full((1, 5), 0.2)
        Y1 = np.eye(5)[[0]]
        P2 = np.vstack([P1, P1])
        Y2 = np.eye(5)[[0, 0]]
        np.testing.assert_allclose(loss(P2, Y2), loss(P1, Y1), atol=1e-15)

    def test_shape_and_one_hot_guards(self):
        with pytest.raises(ValueError):
            loss(np.full((2, 5), 0.2), np.eye(5)[[0]])
        with pytest.raises(ValueError):
            loss(np.full((1, 5), 0.2), np.full((1, 5), 0.2))


class TestBackward:
    def test_stale_trace_detected(self):
        rng = np.random.default_rng(11)
        net = random_net(NetSpec(input_dim=3, num_classes=5, layers=(("lstm", 4),)), 11)
        _, trace = network_forward(net, rng.standard_normal((5, 3)))
        net.layers[0].fwd.W_xi[0, 0] += 1.0
        with pytest.raises(ValueError, match="stale"):
            network_backward(net, trace, np.eye(5)[[0, 1, 2, 3, 4]])

    def test_sign_flip_is_stale(self):
        # a sum of magnitudes cannot see this change
        rng = np.random.default_rng(11)
        net = random_net(NetSpec(input_dim=3, num_classes=5, layers=(("lstm", 4),)), 11)
        _, trace = network_forward(net, rng.standard_normal((5, 3)))
        net.layers[0].fwd.W_hf[1, 2] *= -1.0
        with pytest.raises(ValueError, match="stale"):
            network_backward(net, trace, np.eye(5)[[0, 1, 2, 3, 4]])

    def test_swapped_weights_are_stale(self):
        rng = np.random.default_rng(11)
        net = random_net(NetSpec(input_dim=3, num_classes=5, layers=(("blstm", 2),)), 11)
        _, trace = network_forward(net, rng.standard_normal((5, 3)))
        net.out_W[[0, 1]] = net.out_W[[1, 0]]
        with pytest.raises(ValueError, match="stale"):
            network_backward(net, trace, np.eye(5)[[0, 1, 2, 3, 4]])

    def test_gradient_shapes_match_params(self):
        rng = np.random.default_rng(12)
        spec = NetSpec(input_dim=4, num_classes=4, layers=(("blstm", 3), ("mlp", 5)))
        net = random_net(spec, 12)
        Y = np.eye(4)[rng.integers(0, 4, size=6)]
        _, trace = network_forward(net, rng.standard_normal((6, 4)))
        grads = network_backward(net, trace, Y)
        names = dict(net.named_params())
        assert set(grads) == set(names)
        for name, g in grads.items():
            assert g.shape == names[name].shape
            assert np.all(np.isfinite(g))

    def test_backward_deterministic(self):
        rng = np.random.default_rng(13)
        net = random_net(NetSpec(input_dim=3, num_classes=5, layers=(("blstm", 2),)), 13)
        X = rng.standard_normal((4, 3))
        Y = np.eye(5)[[0, 1, 2, 3]]
        _, tr1 = network_forward(net, X)
        g1 = network_backward(net, tr1, Y)
        _, tr2 = network_forward(net, X)
        g2 = network_backward(net, tr2, Y)
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_small_net_finite_differences(self):
        # independent slow check; the full architecture grid lives in the
        # training module's gradient_check tests
        rng = np.random.default_rng(14)
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("lstm", 2),))
        net = random_net(spec, 14, scale=0.6)
        X = rng.standard_normal((5, 2))
        Y = np.eye(4)[rng.integers(0, 4, size=5)]
        _, trace = network_forward(net, X)
        grads = network_backward(net, trace, Y)
        step = 1e-5
        for name, arr in net.named_params():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = loss(network_forward(net, X)[0], Y)
                arr[idx] = orig - step
                dn = loss(network_forward(net, X)[0], Y)
                arr[idx] = orig
                fd = (up - dn) / (2 * step)
                ga = grads[name][idx]
                rel = abs(ga - fd) / max(abs(ga), abs(fd), 1e-8)
                assert rel < 1e-5, f"{name}{idx}: analytic {ga} vs fd {fd}"


class TestPerGateOracle:
    """The fused scans against the per-gate reference in per_gate_oracle.py."""

    @pytest.mark.parametrize("stack", sorted(ORACLE_STACKS))
    def test_forward_matches_oracle(self, stack):
        rng = np.random.default_rng(20)
        net = random_net(NetSpec(input_dim=4, num_classes=5, layers=ORACLE_STACKS[stack]), 20)
        for T in (1, 2, 9):
            X = rng.standard_normal((T, 4))
            probs, _ = network_forward(net, X)
            np.testing.assert_allclose(probs, oracle_probs(net, X)[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stack", sorted(ORACLE_STACKS))
    def test_backward_matches_oracle(self, stack):
        rng = np.random.default_rng(21)
        net = random_net(NetSpec(input_dim=4, num_classes=5, layers=ORACLE_STACKS[stack]), 21)
        for T in (1, 2, 9):
            X = rng.standard_normal((T, 4))
            Y = np.eye(5)[rng.integers(0, 5, size=T)]
            _, trace = network_forward(net, X)
            grads = network_backward(net, trace, Y)
            expect = network_gradients(net, X, Y)
            assert list(grads) == [name for name, _ in net.named_params()]
            assert set(expect) == set(grads)
            for name, g in grads.items():
                scale = max(np.abs(expect[name]).max(), 1e-300)
                assert np.abs(g - expect[name]).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("stack", sorted(ORACLE_STACKS))
    def test_lockstep_matches_one_at_a_time(self, stack):
        # unequal lengths, including a one-step night, padded to the longest
        rng = np.random.default_rng(22)
        net = random_net(NetSpec(input_dim=4, num_classes=5, layers=ORACLE_STACKS[stack]), 22)
        seqs = [rng.standard_normal((T, 4)) for T in (7, 1, 12, 3)]
        for X, probs in zip(seqs, network_probs(net, seqs)):
            np.testing.assert_allclose(probs, network_forward(net, X)[0], rtol=0, atol=1e-12)

    def test_lockstep_groups_are_bounded_and_sorted(self, monkeypatch):
        # a small chunk forces several groups; each stays within it (or is a
        # single sequence), groups hold sequences of neighbouring length,
        # and results come back in input order
        rng = np.random.default_rng(24)
        net = random_net(NetSpec(input_dim=4, num_classes=5, layers=(("blstm", 3),)), 24)
        seqs = [rng.standard_normal((T, 4)) for T in (9, 2, 30, 4, 1, 8, 5)]
        expect = [network_forward(net, X)[0] for X in seqs]
        batches = []
        forward = network._forward

        def recording_forward(n, Xs, *rest):
            batches.append([len(X) for X in Xs])
            return forward(n, Xs, *rest)

        monkeypatch.setattr(network, "SCORE_CHUNK", 16)
        monkeypatch.setattr(network, "_forward", recording_forward)
        probs = network_probs(net, seqs)
        assert batches == [[1, 2, 4], [5, 8], [9], [30]]
        for P, E in zip(probs, expect):
            np.testing.assert_allclose(P, E, rtol=0, atol=1e-12)

    def test_gradients_are_views_of_one_vector(self):
        rng = np.random.default_rng(23)
        net = random_net(NetSpec(input_dim=3, num_classes=4, layers=(("blstm", 2), ("mlp", 3))), 23)
        _, trace = network_forward(net, rng.standard_normal((4, 3)))
        grads = network_backward(net, trace, np.eye(4)[[0, 1, 2, 3]])
        flat = np.concatenate([g.ravel() for g in grads.values()])
        np.testing.assert_array_equal(grads.flat, flat)
        assert all(np.shares_memory(g, grads.flat) for g in grads.values())


class TestSpecAndParams:
    def test_param_shapes_align_with_named_params(self):
        spec = NetSpec(input_dim=7, num_classes=5, layers=(("blstm", 3), ("mlp", 4)))
        net = Network.zeros(spec)
        from_spec = spec.param_shapes()
        from_net = [(n, a.shape) for n, a in net.named_params()]
        assert from_spec == from_net

    def test_blstm_doubles_output_width(self):
        spec = NetSpec(input_dim=6, num_classes=5, layers=(("blstm", 8), ("lstm", 3)))
        assert spec.layer_io_dims() == [(6, 16), (16, 3)]
        assert spec.last_output_dim == 3

    def test_bias_name_predicate(self):
        assert is_bias("layer0.fwd.b_i")
        assert is_bias("layer2.mlp.b")
        assert is_bias("out.b")
        assert not is_bias("layer0.fwd.w_ci")
        assert not is_bias("out.W")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NetSpec(input_dim=0, num_classes=5)
        with pytest.raises(ValueError):
            NetSpec(input_dim=3, num_classes=3)
        with pytest.raises(ValueError):
            NetSpec(input_dim=3, num_classes=5, layers=(("gru", 4),))
        with pytest.raises(ValueError):
            NetSpec(input_dim=3, num_classes=5, layers=())
        with pytest.raises(ValueError, match="between 1 and 4"):
            NetSpec(input_dim=3, num_classes=5, layers=(("lstm", 2),) * (MAX_LAYERS + 1))
        with pytest.raises(ValueError, match="units"):
            NetSpec(input_dim=3, num_classes=5, layers=(("lstm", 2), ("mlp", 0)))

    def test_predict_tie_break(self):
        probs = np.array([[0.1, 0.6, 0.1, 0.1, 0.1], [0.2, 0.2, 0.2, 0.2, 0.2]])
        np.testing.assert_array_equal(predict_stages(probs), [1, 0])

    def test_params_are_views_of_the_flat_vector(self):
        spec = NetSpec(input_dim=3, num_classes=5, layers=(("blstm", 2), ("mlp", 4)))
        net = random_net(spec, 16)
        np.testing.assert_array_equal(
            net.flat, np.concatenate([a.ravel() for _, a in net.named_params()])
        )
        net.flat[:] = np.arange(net.flat.size)
        assert net.layers[0].fwd.W_xi[0, 0] == 0.0
        assert net.out_b[-1] == net.flat.size - 1
        # a layer's fused operands are views of the same memory
        Wx, Wh, wc, b = net.layers[0].operands()
        assert Wx.shape == (2, 8, 3) and Wh.shape == (2, 8, 2) and wc.shape == (2, 3, 2)
        assert all(np.shares_memory(a, net.flat) for a in (Wx, Wh, wc, b))
        np.testing.assert_array_equal(Wx[1, 2:4], net.layers[0].bwd.W_xf)
        np.testing.assert_array_equal(wc[0, 2], net.layers[0].fwd.w_co)

    def test_weight_mask_excludes_biases(self):
        spec = NetSpec(input_dim=3, num_classes=5, layers=(("lstm", 2), ("mlp", 4)))
        for name, mask in ParamViews(spec, Network.zeros(spec).weight_mask()).items():
            assert np.all(mask != is_bias(name)), name

    def test_clone_is_disjoint(self):
        net = random_net(NetSpec(input_dim=3, num_classes=5, layers=(("mlp", 2),)), 15)
        twin = net.clone()
        net.out_b += 1.0
        assert not np.array_equal(net.out_b, twin.out_b)
