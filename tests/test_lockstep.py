"""A group of networks run in lockstep gives each network exactly what it
gets alone: forward, backward, scoring and whole training runs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sleepstager import evaluate, network, training
from sleepstager.errors import NumericError
from sleepstager.evaluate import cross_validate, fit_model, kfold_split
from sleepstager.features_low import FrameConfig
from sleepstager.ingest import stages_to_indices
from sleepstager.network import NetSpec, network_backward, network_forward, network_probs
from sleepstager.synth import SynthConfig, generate_cohort
from sleepstager.training import TrainConfig, init_params, mean_loss, train

D, M = 3, 4


def slow(examples):
    return settings(
        max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )


def night(rng, T):
    return rng.standard_normal((T, D)), np.eye(M)[rng.integers(0, M, size=T)]


@st.composite
def stacks(draw):
    kind = draw(st.sampled_from(["mlp", "lstm", "blstm"]))
    return ((kind, draw(st.integers(1, 4))),) * draw(st.integers(1, 2))


# nights of unequal length, single-epoch nights among them
lengths = st.lists(st.integers(1, 9), min_size=1, max_size=4)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@slow(40)
@given(layers=stacks(), Ts=lengths, seed=st.integers(0, 2**32 - 1))
# one-unit cells: BLAS sums the recurrent-weight gradient differently when a
# network's slice of the group's scan arrays is not copied contiguous first
@example(layers=(("lstm", 1),), Ts=[9, 4, 7, 9], seed=5)
def test_group_forward_and_backward_equal_each_network_alone(layers, Ts, seed):
    rng = np.random.default_rng(seed)
    spec = NetSpec(input_dim=D, num_classes=M, layers=layers)
    nets = tuple(init_params(spec, seed=seed + m, init_std=0.5) for m in range(len(Ts)))
    seqs = [night(rng, T) for T in Ts]
    probs, trace = network_forward(nets, tuple(X for X, _ in seqs))
    grads = network_backward(trace, tuple(Y for _, Y in seqs))
    for net, (X, Y), P, g in zip(nets, seqs, probs, grads):
        (alone,), alone_trace = network_forward((net,), (X,))
        assert same_bits(P, alone)
        assert same_bits(g.flat, network_backward(alone_trace, (Y,))[0].flat)


@slow(30)
@given(
    layers=stacks(),
    splits=st.lists(lengths, min_size=1, max_size=4),
    chunk=st.sampled_from([4, 12, 2048]),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_scoring_batches_each_network_as_alone(layers, splits, chunk, seed):
    # a small chunk gives the networks batches of different sizes, which
    # must then run as separate scans
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "SCORE_CHUNK", chunk)
        score_group_and_alone(layers, splits, seed)


def score_group_and_alone(layers, splits, seed):
    rng = np.random.default_rng(seed)
    spec = NetSpec(input_dim=D, num_classes=M, layers=layers)
    nets = tuple(init_params(spec, seed=seed + m, init_std=0.5) for m in range(len(splits)))
    data = tuple([night(rng, T) for T in Ts] for Ts in splits)
    group = network_probs(nets, tuple([X for X, _ in split] for split in data))
    losses = mean_loss(nets, data)
    for net, split, probs, value in zip(nets, data, group, losses):
        alone = network_probs((net,), ([X for X, _ in split],))[0]
        assert all(same_bits(a, b) for a, b in zip(probs, alone))
        assert value == mean_loss((net,), (split,))[0]


@st.composite
def training_runs(draw):
    """1-5 networks of one stack, each with its own data, seed and config;
    a patience of 1-2 and a high rate make them stop at different passes."""
    layers = draw(stacks())
    spec = NetSpec(input_dim=D, num_classes=M, layers=layers)
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        seed = draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        train_seqs = [night(rng, T) for T in draw(lengths)]
        val_lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=2))
        val_seqs = [night(rng, T) for T in val_lengths]
        cfg = TrainConfig(
            learning_rate=draw(st.sampled_from([0.05, 0.5, 3.0])),
            weight_noise_std=draw(st.sampled_from([0.0, 0.05])),
            max_passes=draw(st.integers(1, 6)),
            patience=draw(st.integers(1, 2)),
            seed=seed,
        )
        runs.append((init_params(spec, seed=seed, init_std=0.5), train_seqs, val_seqs, cfg))
    return runs


@slow(40)
@given(runs=training_runs())
def test_group_training_equals_training_each_network_alone(runs):
    nets, histories = train(*zip(*runs))
    for run, net, history in zip(runs, nets, histories):
        alone, alone_history = train(*run)
        assert history == alone_history
        assert same_bits(net.flat, alone.flat)


def test_networks_stop_at_different_passes():
    # the property above draws such groups; this one is pinned
    spec = NetSpec(input_dim=D, num_classes=M, layers=(("blstm", 2),))
    rng = np.random.default_rng(3)
    runs = []
    for m in range(3):
        cfg = TrainConfig(
            learning_rate=0.5, weight_noise_std=0.05, max_passes=2 + 2 * m, patience=5, seed=m
        )
        train_seqs = [night(rng, T) for T in (5, 1, 7)[: 1 + m]]
        runs.append((init_params(spec, seed=m), train_seqs, [night(rng, 4)], cfg))
    nets, histories = train(*zip(*runs))
    assert [len(h) for h in histories] == [2, 4, 6]
    for run, net, history in zip(runs, nets, histories):
        alone, alone_history = train(*run)
        assert history == alone_history and same_bits(net.flat, alone.flat)


def test_inputs_are_left_untouched_and_a_diverged_network_is_named():
    spec = NetSpec(input_dim=D, num_classes=M, layers=(("lstm", 2),))
    rng = np.random.default_rng(4)
    nets = [init_params(spec, seed=m) for m in range(3)]
    nets[1].flat[0] = np.nan
    before = [n.flat.copy() for n in nets]
    seqs = [night(rng, 5) for _ in range(2)]
    cfg = TrainConfig(learning_rate=0.1, max_passes=3)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="diverged in pass 1: ") as err:
            train(tuple(nets), (seqs[:1],) * 3, (seqs[1:],) * 3, (cfg,) * 3)
    assert err.value.member == 1
    assert all(same_bits(n.flat, b) for n, b in zip(nets, before))


# Each mutation changes an operand the backward pass reads (a recurrent or
# output weight), so a backward pass that read the caller's networks would
# give different gradients.
def add_one(nets):
    nets[0].params["layer0.fwd.W_hi"][0, 0] += 1.0


def flip_sign(nets):
    nets[0].params["layer0.fwd.W_hf"][1, 0] *= -1.0


def swap_rows(nets):
    W = nets[0].params["out.W"]
    W[[0, 1]] = W[[1, 0]]


def change_read_only(nets):
    # a read-only vector can be made writeable again and changed
    nets[0].flat.flags.writeable = True
    W = nets[0].params["out.W"]
    W.flags.writeable = True
    W[0, 0] += 1.0


def change_one_member(nets):
    nets[2].params["layer0.bwd.W_hf"][0, 1] *= -1.0


@pytest.mark.parametrize(
    "mutate", [add_one, flip_sign, swap_rows, change_read_only, change_one_member]
)
def test_networks_changed_after_the_forward_pass_leave_its_gradients_alone(mutate):
    spec = NetSpec(input_dim=D, num_classes=M, layers=(("blstm", 2),))
    rng = np.random.default_rng(5)
    seqs = [night(rng, 4) for _ in range(3)]
    X, Y = tuple(X for X, _ in seqs), tuple(Y for _, Y in seqs)

    def group():
        return tuple(init_params(spec, seed=m) for m in range(3))

    expected = network_backward(network_forward(group(), X)[1], Y)
    nets = group()
    if mutate is change_read_only:
        nets[0].flat.flags.writeable = False
    _, trace = network_forward(nets, X)
    mutate(nets)
    assert not all(same_bits(n.flat, c.flat) for n, c in zip(nets, group()))
    grads = network_backward(trace, Y)
    assert all(same_bits(g.flat, e.flat) for g, e in zip(grads, expected))


def test_a_trace_holds_clones_unless_the_caller_owns_the_networks():
    spec = NetSpec(input_dim=D, num_classes=M, layers=(("lstm", 2),))
    rng = np.random.default_rng(6)
    seqs = [night(rng, T) for T in (5, 3)]
    X, Y = tuple(X for X, _ in seqs), tuple(Y for _, Y in seqs)
    nets = tuple(init_params(spec, seed=6 + m) for m in range(2))
    _, owned = network_forward(nets, X, owned=True)
    assert all(t is n for t, n in zip(owned.nets, nets))
    _, cloned = network_forward(nets, X)
    for t, n in zip(cloned.nets, nets):
        assert t is not n and same_bits(t.flat, n.flat)
        assert not np.shares_memory(t.flat, n.flat)
    for g, e in zip(network_backward(owned, Y), network_backward(cloned, Y)):
        assert same_bits(g.flat, e.flat)


def test_a_group_needs_one_input_per_network_and_one_stack():
    a = init_params(NetSpec(input_dim=D, num_classes=M, layers=(("lstm", 2),)), seed=0)
    b = init_params(NetSpec(input_dim=D, num_classes=M, layers=(("blstm", 2),)), seed=0)
    X, Y = np.zeros((3, D)), np.eye(M)[[0, 1, 2]]
    for nets, inputs in [((a, b), (X, X)), ((a, a), (X,)), ((a,), (X, X)), ((), ())]:
        with pytest.raises(ValueError, match="a group needs"):
            network_forward(nets, inputs)
        with pytest.raises(ValueError, match="a group needs"):
            network_probs(nets, [[x] for x in inputs])
    _, trace = network_forward((a, a), (X, X))
    for labels in [(Y,), (Y, Y, Y)]:
        with pytest.raises(ValueError, match="a group needs"):
            network_backward(trace, labels)
    split, cfg = [(X, Y)], TrainConfig()
    cases = [((a, a), (split,), (cfg, cfg)), ((a,), (split,), (cfg, cfg)), ((), (), ())]
    for nets, splits, cfgs in cases:
        with pytest.raises(ValueError, match="a group needs"):
            train(nets, splits, splits, cfgs)


def test_scoring_keeps_no_trace(monkeypatch):
    flags = []
    scan = network._scan

    def recording_scan(A, Wh, wc, trace=True):
        flags.append(trace)
        return scan(A, Wh, wc, trace)

    monkeypatch.setattr(network, "_scan", recording_scan)
    spec = NetSpec(input_dim=D, num_classes=M, layers=(("blstm", 2), ("lstm", 2)))
    net = init_params(spec, seed=7)
    seqs = [night(np.random.default_rng(7), T) for T in (3, 6)]
    mean_loss((net, net), (seqs, seqs[:1]))
    assert flags == [False] * 4  # two levels, batches of 2 and 1 nights
    flags.clear()
    network_forward((net,), (seqs[0][0],))
    assert flags == [True, True]


def test_cross_validation_folds_equal_fits_made_alone():
    # 5 folds: a group of four, then a group of one
    recs = generate_cohort(SynthConfig(n_recordings=5, epochs_per_recording=12, seed=8))
    frame = FrameConfig(frame_epochs=4)
    cfg = TrainConfig(learning_rate=0.2, weight_noise_std=0.01, max_passes=3, patience=1)
    layers = (("blstm", 3),)
    report = cross_validate(recs, frame, 6, layers, cfg, k=5, rounds=1, seed=8, num_classes=4)
    folds = kfold_split([r.subject_id for r in recs], 5, 8)

    by_id = {r.subject_id: r for r in recs}

    def chosen(ids):
        return [by_id[s] for s in ids]

    for fold in report.folds:
        f = fold.fold_index
        train_ids = [s for j in range(5) if j not in (f, (f + 1) % 5) for s in folds[j]]
        seeds = np.random.SeedSequence(8, spawn_key=(0, f)).generate_state(3)
        fit_seeds = tuple(int(s) for s in seeds)
        model, history = fit_model(
            chosen(train_ids), chosen(folds[(f + 1) % 5]), frame, 6, layers, cfg, 4, fit_seeds
        )
        assert fold.passes_run == len(history)
        test_recs = chosen(folds[f])
        features = [model.features_for(rec) for rec in test_recs]
        probs = [network_forward((model.net,), (X,))[0][0] for X in features]
        preds = [np.argmax(P, axis=1) for P in probs]
        ref = np.concatenate([stages_to_indices(r.labels, 4) for r in test_recs])
        cm = np.zeros((4, 4), dtype=np.int64)
        np.add.at(cm, (ref, np.concatenate(preds)), 1)
        np.testing.assert_array_equal(fold.cm, cm)


def cv_args(units):
    recs = generate_cohort(SynthConfig(n_recordings=5, epochs_per_recording=8, seed=9))
    cfg = TrainConfig(learning_rate=0.2, max_passes=1)
    return recs, FrameConfig(frame_epochs=4), 6, (("lstm", units),), cfg


@pytest.mark.usefixtures("one_process")
@pytest.mark.parametrize("units, sizes", [(64, [4, 1]), (65, [1] * 5)])
def test_only_narrow_layers_train_in_lockstep(monkeypatch, units, sizes):
    seen = []

    def recording_train(nets, *rest, score_train):
        seen.append(len(nets))
        return train(nets, *rest, score_train=score_train)

    monkeypatch.setattr(evaluate, "train", recording_train)
    assert training.lockstep_size((("mlp", 8), ("blstm", units)), 1 << 20) == sizes[0]
    cross_validate(*cv_args(units), k=5, rounds=1, seed=9, num_classes=4)
    assert seen == sizes


def fold_bytes(nights, epochs, num_words=300, num_classes=5):
    """Bytes of a fold's training and validation sequences at FrameConfig()."""
    return nights * epochs * (FrameConfig().dim + num_words + num_classes) * 8


@pytest.mark.parametrize(
    "nights, epochs, size",
    [
        (6, 240, 4),  # bench cv: 8 nights of 2 h in 4 folds, 6.0 MB a fold
        (14, 240, 4),  # acceptance cv: 16 nights of 2 h in 8 folds, 14.1 MB a fold
        (14, 960, 1),  # 16 nights of 8 h in 8 folds, 56.4 MB a fold
    ],
)
def test_a_group_holds_at_most_lockstep_max_bytes_of_sequences(nights, epochs, size):
    assert training.lockstep_size((("blstm", 32),), fold_bytes(nights, epochs)) == size


@pytest.mark.usefixtures("one_process")
@pytest.mark.parametrize("spare, sizes", [(0, [2, 2, 1]), (-1, [1] * 5)])
def test_cross_validation_bounds_groups_by_sequence_bytes(monkeypatch, spare, sizes):
    seen = []

    def recording_train(nets, *rest, score_train):
        seen.append(len(nets))
        return train(nets, *rest, score_train=score_train)

    recs, frame, words, layers, cfg = cv_args(2)
    # 5 folds of one 8-epoch night: 4 nights train and validate each fit;
    # the bound holds two such folds, or one byte less
    per_fold = 4 * 8 * (frame.dim + words + 4) * 8
    monkeypatch.setattr(training, "LOCKSTEP_MAX_BYTES", 2 * per_fold + spare)
    monkeypatch.setattr(evaluate, "train", recording_train)
    cross_validate(recs, frame, words, layers, cfg, k=5, rounds=1, seed=9, num_classes=4)
    assert seen == sizes


@pytest.mark.usefixtures("one_process")
def test_cross_validation_scores_only_the_validation_nights(monkeypatch):
    vals, scored = [], []

    def recording_train(nets, trains, val_splits, *rest, score_train):
        vals.append(val_splits)
        return train(nets, trains, val_splits, *rest, score_train=score_train)

    def recording_mean_loss(nets, splits):
        scored.append([[id(seq) for seq in split] for split in splits])
        return mean_loss(nets, splits)

    monkeypatch.setattr(evaluate, "train", recording_train)
    monkeypatch.setattr(training, "mean_loss", recording_mean_loss)
    recs, frame, words, layers, cfg = cv_args(2)
    cfg = replace(cfg, max_passes=2)
    cross_validate(recs, frame, words, layers, cfg, k=5, rounds=1, seed=9, num_classes=4)
    # each pass scores each member's one validation night: a group of four
    # folds for two passes, then the fifth fold alone for two
    assert [len(call) for call in scored] == [4, 4, 1, 1]
    per_group = [[[id(seq) for seq in split] for split in group] for group in vals]
    assert scored == [ids for ids in per_group for _ in range(2)]
    assert all(len(split) == 1 for group in vals for split in group)


def test_a_numeric_error_naming_no_member_passes_through_cross_validation(monkeypatch):
    fault = NumericError("not from a group member")

    def failing_train(*_, score_train):
        raise fault

    monkeypatch.setattr(evaluate, "train", failing_train)
    with pytest.raises(NumericError) as err:
        cross_validate(*cv_args(2), k=5, rounds=1, seed=9, num_classes=4)
    assert err.value is fault
