import numpy as np
import pytest

import sleepstager.network as network_mod
from sleepstager.network import (
    NetSpec,
    Network,
    loss,
    network_backward,
    network_forward,
)
from sleepstager.training import (
    TrainConfig,
    finite_difference_gradients,
    gradient_check,
    init_params,
    mean_loss,
    train,
)


def toy_sequences(rng, n_seqs, T, num_classes=4):
    """Linearly separable toy data: class determined by sign pattern of x."""
    seqs = []
    for _ in range(n_seqs):
        X = rng.standard_normal((T, 2))
        cls = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        Y = np.eye(num_classes)[cls]
        seqs.append((X, Y))
    return seqs


def two_point_gradients(net, X, Y, step):
    """Classic two-point central differences, one coordinate at a time: the
    oracle the five-point ``finite_difference_gradients`` must agree with."""
    fd = np.empty_like(net.flat)
    for j, w in enumerate(net.flat.tolist()):
        ends = []
        for value in (w + step, w - step):
            net.flat[j] = value
            ends.append(loss(network_forward((net,), (X,))[0][0], Y))
        net.flat[j] = w
        fd[j] = (ends[0] - ends[1]) / (2.0 * step)
    return Network(net.spec, fd)


def snapshot(net):
    return {name: arr.copy() for name, arr in net.params.items()}


def assert_params_equal(net, snap):
    for name, arr in net.params.items():
        np.testing.assert_array_equal(arr, snap[name], err_msg=name)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-6
        assert cfg.init_std == 0.1
        assert cfg.weight_noise_std == 0.005
        assert cfg.max_passes == 100
        assert cfg.patience == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(init_std=0.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_noise_std=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(max_passes=0)
        for name in ("learning_rate", "init_std", "weight_noise_std"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    TrainConfig(**{name: value})


class TestInit:
    def test_seed_determinism(self):
        spec = NetSpec(input_dim=6, num_classes=5, layers=(("blstm", 4),))
        a = init_params(spec, seed=99)
        b = init_params(spec, seed=99)
        for (_, pa), (_, pb) in zip(a.params.items(), b.params.items()):
            np.testing.assert_array_equal(pa, pb)
        c = init_params(spec, seed=100)
        flat_a = np.concatenate([p.ravel() for p in a.params.values()])
        flat_c = np.concatenate([p.ravel() for p in c.params.values()])
        assert not np.array_equal(flat_a, flat_c)

    def test_gaussian_moments_at_scale(self):
        # ~1e5 draws: CLT puts the sample mean within 0.005 of 0 and the
        # sample std within 0.005 of 0.1 with huge margin
        spec = NetSpec(input_dim=330, num_classes=5, layers=(("mlp", 300),))
        net = init_params(spec, seed=5, init_std=0.1)
        flat = np.concatenate([p.ravel() for p in net.params.values()])
        assert flat.size >= 100_000
        assert abs(flat.mean()) < 0.005
        assert abs(flat.std() - 0.1) < 0.005

    def test_bad_std_rejected(self):
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("blstm", 400),))
        with pytest.raises(ValueError):
            init_params(spec, seed=0, init_std=0.0)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="init_std must be finite"):
                init_params(spec, seed=0, init_std=value)


class TestGradientCheck:
    def test_blstm_depth1(self):
        spec = NetSpec(input_dim=7, num_classes=5, layers=(("blstm", 8),))
        assert gradient_check(spec, T=12, seed=3) < 1e-5

    def test_mixed_stack_with_mlp_top(self):
        spec = NetSpec(input_dim=7, num_classes=5, layers=(("blstm", 4), ("mlp", 6)))
        assert gradient_check(spec, T=12, seed=4) < 1e-5

    def test_unidirectional_small(self):
        spec = NetSpec(input_dim=5, num_classes=5, layers=(("lstm", 4),))
        assert gradient_check(spec, T=6, seed=5) < 1e-5

    def test_mlp_depth2_tighter(self):
        spec = NetSpec(input_dim=7, num_classes=5, layers=(("mlp", 8), ("mlp", 8)))
        assert gradient_check(spec, T=12, seed=6) < 1e-6

    def test_negated_gate_derivative_is_caught(self, monkeypatch):
        # sabotage the forget gate's recurrent-map gradient in the fused
        # backward pass; the checker must see it
        orig = network_mod._scan_backward

        def sabotaged(cache, Wh, wc, dHs, outs):
            dA = orig(cache, Wh, wc, dHs, outs)
            H = Wh.shape[2]
            for _, gWh, _, _ in outs:
                gWh[:, H : 2 * H] *= -1.0
            return dA

        monkeypatch.setattr(network_mod, "_scan_backward", sabotaged)
        spec = NetSpec(input_dim=5, num_classes=5, layers=(("lstm", 4),))
        assert gradient_check(spec, T=8, seed=7) > 1e-2

    def test_two_point_stencil_agrees_on_healthy_gradients(self):
        rng = np.random.default_rng(8)
        spec = NetSpec(input_dim=3, num_classes=4, layers=(("lstm", 3),))
        net = init_params(spec, seed=8, init_std=0.5)
        X = rng.standard_normal((5, 3))
        Y = np.eye(4)[rng.integers(0, 4, size=5)]
        fd2 = two_point_gradients(net, X, Y, step=1e-5)
        fd4 = finite_difference_gradients(net, X, Y)
        for name in fd2.params:
            np.testing.assert_allclose(fd2.params[name], fd4.params[name], atol=1e-7)

    def test_value_is_pinned(self):
        # the exact bits of `sleepstager gradcheck` at its defaults
        spec = NetSpec(input_dim=7, num_classes=5, layers=(("blstm", 8),))
        assert gradient_check(spec, T=12, seed=0) == 1.3062065116278967e-07

    def test_invalid_args(self):
        spec = NetSpec(input_dim=3, num_classes=4, layers=(("blstm", 400),))
        with pytest.raises(ValueError):
            gradient_check(spec, T=0, seed=0)


class TestMeanLoss:
    @pytest.mark.parametrize(
        "layers", [(("blstm", 3),), (("lstm", 3), ("blstm", 2)), (("blstm", 2), ("mlp", 4))]
    )
    def test_lockstep_equals_per_night_loop(self, layers):
        # nights of unequal length, one of a single epoch, scored together
        rng = np.random.default_rng(16)
        spec = NetSpec(input_dim=2, num_classes=4, layers=layers)
        net = init_params(spec, seed=16, init_std=0.5)
        seqs = [toy_sequences(rng, 1, T)[0] for T in (9, 1, 14, 5)]
        looped = np.mean([loss(network_forward((net,), (X,))[0][0], Y) for X, Y in seqs])
        assert abs(mean_loss((net,), (seqs,))[0] - looped) <= 1e-12 * looped
        X, Y = seqs[1]
        assert mean_loss((net,), (seqs[1:2],))[0] == loss(network_forward((net,), (X,))[0][0], Y)


class TestTrain:
    def test_null_update_leaves_params_untouched(self):
        rng = np.random.default_rng(10)
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("mlp", 3),))
        net = init_params(spec, seed=10)
        snap = snapshot(net)
        seqs = toy_sequences(rng, 3, 8)
        cfg = TrainConfig(learning_rate=0.0, weight_noise_std=0.0, max_passes=3, seed=1)
        out, history = train(net, seqs[:2], seqs[2:], cfg)
        assert len(history) == 3
        assert_params_equal(out, snap)
        assert_params_equal(net, snap)

    def test_noise_restore_is_bit_exact(self):
        # lr 0 with noise on: any residue of the perturbation would show up
        rng = np.random.default_rng(11)
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("lstm", 3),))
        net = init_params(spec, seed=11)
        snap = snapshot(net)
        seqs = toy_sequences(rng, 3, 6)
        cfg = TrainConfig(learning_rate=0.0, weight_noise_std=0.5, max_passes=2, seed=2)
        out, _ = train(net, seqs[:2], seqs[2:], cfg)
        assert_params_equal(out, snap)

    def test_zero_noise_matches_manual_sgd(self):
        # pins the update contract: per pass, one shuffled permutation from
        # the Philox stream, then one forward/backward/update per sequence
        rng = np.random.default_rng(12)
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("mlp", 4),))
        net = init_params(spec, seed=12)
        seqs = toy_sequences(rng, 4, 10)
        cfg = TrainConfig(
            learning_rate=0.05, weight_noise_std=0.0, max_passes=3,
            patience=100, seed=99,
        )
        trained, history = train(net, seqs[:3], seqs[3:], cfg)

        manual = net.clone()
        stream = np.random.Generator(np.random.Philox(99))
        manual_hist = []
        best_val = np.inf
        best = None
        for _ in range(3):
            for s in stream.permutation(3):
                X, Y = seqs[s]
                _, trace = network_forward((manual,), (X,))
                grads = network_backward(trace, (Y,))[0]
                for name, arr in manual.params.items():
                    arr -= 0.05 * grads.params[name]
            tl = mean_loss((manual,), (seqs[:3],))[0]
            vl = mean_loss((manual,), ([seqs[3]],))[0]
            manual_hist.append((tl, vl))
            if vl < best_val:
                best_val = vl
                best = manual.clone()
        assert history == manual_hist
        for (_, a), (_, b) in zip(trained.params.items(), best.params.items()):
            np.testing.assert_array_equal(a, b)

    def test_learns_separable_toy_task(self):
        rng = np.random.default_rng(13)
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("mlp", 16),))
        net = init_params(spec, seed=13, init_std=0.3)
        seqs = toy_sequences(rng, 5, 40)
        cfg = TrainConfig(
            learning_rate=0.3, weight_noise_std=0.0, max_passes=150,
            patience=150, seed=3,
        )
        initial = mean_loss((net,), (seqs[:4],))[0]
        trained, history = train(net, seqs[:4], seqs[4:], cfg)
        final = mean_loss((trained,), (seqs[:4],))[0]
        assert final < 0.5 * initial
        X, Y = seqs[4]
        (probs,), _ = network_forward((trained,), (X,))
        accuracy = np.mean(np.argmax(probs, axis=1) == np.argmax(Y, axis=1))
        assert accuracy >= 0.9

    def test_reproducibility(self):
        rng = np.random.default_rng(14)
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("blstm", 3),))
        net = init_params(spec, seed=14)
        seqs = toy_sequences(rng, 4, 8)
        cfg = TrainConfig(learning_rate=0.01, weight_noise_std=0.01, max_passes=4, seed=5)
        a, hist_a = train(net, seqs[:3], seqs[3:], cfg)
        b, hist_b = train(net, seqs[:3], seqs[3:], cfg)
        assert hist_a == hist_b
        for (_, pa), (_, pb) in zip(a.params.items(), b.params.items()):
            np.testing.assert_array_equal(pa, pb)
        # leaving the training split unscored leaves the run as it was
        c, hist_c = train(net, seqs[:3], seqs[3:], cfg, score_train=False)
        assert hist_c == [(None, v) for _, v in hist_a]
        assert c.flat.tobytes() == a.flat.tobytes()

    def test_returns_best_validation_params(self):
        rng = np.random.default_rng(15)
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("mlp", 4),))
        net = init_params(spec, seed=15)
        seqs = toy_sequences(rng, 4, 10)
        # deliberately unstable: validation loss will bounce around
        cfg = TrainConfig(learning_rate=2.0, weight_noise_std=0.0, max_passes=10,
                          patience=3, seed=6)
        trained, history = train(net, seqs[:3], seqs[3:], cfg)
        vals = [v for _, v in history]
        assert mean_loss((trained,), (seqs[3:],))[0] == min(vals)
        assert len(history) <= 10

    def test_empty_split_rejected(self):
        spec = NetSpec(input_dim=2, num_classes=4, layers=(("blstm", 400),))
        net = init_params(spec, seed=0)
        with pytest.raises(ValueError):
            train(net, [], [(np.zeros((2, 2)), np.eye(4)[[0, 1]])], TrainConfig())
