import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sleepstager import features_low
from sleepstager.features_low import (
    FrameConfig,
    cepstrum_block,
    dct_block,
    frame_indices,
    recording_low_features,
)
from sleepstager.ingest import (
    EPOCH_SECONDS,
    ActigraphySeries,
    HeartRateSeries,
    Recording,
    epoch_actigraphy,
    epoch_rr,
    impute_empty_rr,
)
from sleepstager.transforms import dct2, real_cepstrum

from per_epoch_oracle import per_epoch_low_features
from test_ingest import make_recording


def build_recording(rr_epochs, act_epochs):
    """A recording whose epoch k holds RR intervals rr_epochs[k] and rows act_epochs[k].

    Samples sit evenly inside each epoch; heart rate is stored as 60 / rr.
    """
    e = EPOCH_SECONDS
    hr_t, bpm, act_t = [], [], []
    for k, (rr, act) in enumerate(zip(rr_epochs, act_epochs)):
        hr_t.append(k * e + (np.arange(len(rr)) + 0.5) * e / max(len(rr), 1))
        bpm.append(60.0 / np.asarray(rr, dtype=np.float64))
        act_t.append(k * e + (np.arange(len(act)) + 0.5) * e / len(act))
    return Recording(
        subject_id="b",
        hr=HeartRateSeries(t=np.concatenate(hr_t), bpm=np.concatenate(bpm)),
        act=ActigraphySeries(t=np.concatenate(act_t), xyz=np.concatenate(act_epochs, axis=0)),
        labels=("W",) * len(rr_epochs),
    )


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFrameConfig:
    def test_default_dim(self):
        assert FrameConfig().dim == 220

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            FrameConfig(frame_epochs=0)
        with pytest.raises(ValueError):
            FrameConfig(freq_components=2)
        with pytest.raises(ValueError):
            FrameConfig(cepstrum_components=0)


class TestFrameIndices:
    def test_interior_window_is_left_heavy(self):
        np.testing.assert_array_equal(frame_indices(50, 960, 10), np.arange(45, 55))

    def test_edges_clamp(self):
        np.testing.assert_array_equal(frame_indices(0, 960, 10), np.arange(0, 10))
        np.testing.assert_array_equal(frame_indices(959, 960, 10), np.arange(950, 960))

    @given(st.data())
    def test_properties_hold_everywhere(self, data):
        # in-range, contiguous frames of frame_epochs epochs that contain t,
        # for one epoch index and for an array of them
        total = data.draw(st.integers(1, 2000), label="total")
        frame = data.draw(st.integers(1, total), label="frame")
        ts = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=8), label="t")
        frames = frame_indices(np.array(ts), total, frame)
        assert frames.shape == (len(ts), frame)
        for t, idx in zip(ts, frames):
            np.testing.assert_array_equal(idx, frame_indices(t, total, frame))
            assert idx.size == frame
            assert np.all(np.diff(idx) == 1)
            assert idx[0] >= 0 and idx[-1] < total
            assert t in idx

    def test_array_of_epochs_gives_one_frame_per_row(self):
        frames = frame_indices(np.arange(30), 30, 10)
        assert frames.shape == (30, 10)
        for t in range(30):
            np.testing.assert_array_equal(frames[t], frame_indices(t, 30, 10))

    def test_too_short_recording_rejected(self):
        with pytest.raises(ValueError):
            frame_indices(0, 5, 10)
        with pytest.raises(ValueError):
            frame_indices(np.array([0, 5]), 5, 3)


class TestMeanRr:
    def test_constant_epochs(self):
        rec = build_recording([np.ones(20)] * 10, [np.zeros((4, 3))] * 10)
        out = recording_low_features(rec, FrameConfig())
        np.testing.assert_allclose(out[:, :10], np.ones((10, 10)))

    def test_simple_mean(self):
        rec = build_recording([np.array([0.8, 1.2])], [np.zeros((4, 3))])
        out = recording_low_features(rec, FrameConfig(frame_epochs=1))
        np.testing.assert_allclose(out[:, :1], [[1.0]])


class TestDominantFreq:
    def test_constant_rr_hand_values(self):
        # constant rr of length 30: DCT is [r*sqrt(30), 0, 0, ...]
        r = 0.9
        out = dct_block([np.full(30, r)], n=5)
        dc = r * np.sqrt(30.0)
        expect = np.concatenate([[dc, 0, 0, 0, 0], [-dc, 0, 0, 0], [dc, 0, 0]])
        np.testing.assert_allclose(out, [expect], atol=1e-12)

    def test_short_epoch_pads_coefficients(self):
        rr = np.array([1.0, 0.9, 1.1])
        out = dct_block([rr], n=5)
        d = np.concatenate([dct2(rr), [0.0, 0.0]])
        np.testing.assert_allclose(out, [np.concatenate([d, np.diff(d), np.diff(d, n=2)])])

    def test_block_length(self):
        rng = np.random.default_rng(1)
        for n in (3, 5, 8):
            out = dct_block([rng.standard_normal(40) + 2] * 2, n=n)
            assert out.shape == (2, 3 * n - 3)


class TestActigraphy:
    def test_dimension(self):
        rng = np.random.default_rng(2)
        out = cepstrum_block([rng.standard_normal((960, 3))], 30)
        assert out.shape == (1, 90)

    def test_matches_per_axis_pipeline(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((100, 3))
        out = cepstrum_block([samples], 30)[0]
        for axis in range(3):
            expect = real_cepstrum(np.diff(samples[:, axis]), 30)
            np.testing.assert_allclose(out[axis * 30 : (axis + 1) * 30], expect)

    def test_still_epoch_identical_axes(self):
        # constant posture: all diffs zero, so the three blocks agree
        samples = np.tile([0.1, -0.4, 0.9], (200, 1))
        out = cepstrum_block([samples], 30)[0]
        np.testing.assert_array_equal(out[:30], out[30:60])
        np.testing.assert_array_equal(out[:30], out[60:90])
        assert np.all(np.isfinite(out))

    def test_too_few_samples_rejected(self):
        # two samples leave one difference, too short for a cepstrum
        for short in (1, 2):
            with pytest.raises(ValueError, match="epoch 1 needs at least 3"):
                cepstrum_block([np.zeros((3, 3)), np.zeros((short, 3))], 30)


class TestAssembly:
    def test_default_dimension_and_layout(self):
        rec = make_recording(n_epochs=12, seed=5)
        cfg = FrameConfig()
        m = recording_low_features(rec, cfg)
        assert m.shape == (12, 220)
        rr_epochs = impute_empty_rr(epoch_rr(rec))
        t = 6
        frame = frame_indices(t, 12, cfg.frame_epochs)
        mean_rr = [np.mean(rr_epochs[j]) for j in frame]
        freq = dct_block([rr_epochs[j] for j in frame], cfg.freq_components).ravel()
        act = cepstrum_block(epoch_actigraphy(rec)[t : t + 1], cfg.cepstrum_components)[0]
        assert (len(mean_rr), freq.shape, act.shape) == (10, (120,), (90,))
        np.testing.assert_array_equal(m[t, :10], mean_rr)
        np.testing.assert_array_equal(m[t, 10:130], freq)
        np.testing.assert_array_equal(m[t, 130:], act)

    def test_actigraphy_is_local_to_epoch(self):
        # perturbing a neighbouring epoch's actigraphy must not touch epoch t
        rec = make_recording(n_epochs=12, seed=6)
        cfg = FrameConfig()
        t = 6
        base = recording_low_features(rec, cfg)
        xyz = rec.act.xyz.copy()
        xyz[np.floor(rec.act.t / EPOCH_SECONDS) == t + 1] += 5.0
        bumped = Recording(
            subject_id=rec.subject_id,
            hr=rec.hr,
            act=ActigraphySeries(t=rec.act.t, xyz=xyz),
            labels=rec.labels,
        )
        after = recording_low_features(bumped, cfg)
        np.testing.assert_array_equal(after[t, 130:], base[t, 130:])
        np.testing.assert_array_equal(after[t, :10], base[t, :10])
        assert not np.array_equal(after[t + 1, 130:], base[t + 1, 130:])

    def test_heart_rate_locality_matches_frame(self):
        rec = make_recording(n_epochs=30, seed=7)
        cfg = FrameConfig()
        t = 15
        idx = set(frame_indices(t, 30, cfg.frame_epochs).tolist())
        base = recording_low_features(rec, cfg)
        for j in (0, 29, 14, 16):
            in_j = np.floor(rec.hr.t / EPOCH_SECONDS) == j
            bpm = rec.hr.bpm.copy()
            bpm[in_j] = 60.0 / (60.0 / bpm[in_j] + 0.05)
            altered = Recording(
                subject_id=rec.subject_id,
                hr=HeartRateSeries(t=rec.hr.t, bpm=bpm),
                act=rec.act,
                labels=rec.labels,
            )
            after = recording_low_features(altered, cfg)
            changed = not np.array_equal(after[t], base[t])
            assert changed == (j in idx)

    def test_recording_matrix_shape_and_determinism(self):
        rec = make_recording(n_epochs=14, seed=8)
        cfg = FrameConfig()
        m1 = recording_low_features(rec, cfg)
        m2 = recording_low_features(rec, cfg)
        assert m1.shape == (14, 220)
        np.testing.assert_array_equal(m1, m2)
        assert np.all(np.isfinite(m1))

    def test_too_short_recording_rejected(self):
        with pytest.raises(ValueError, match="frame needs 10"):
            recording_low_features(make_recording(n_epochs=9), FrameConfig())


@st.composite
def recordings_and_configs(draw):
    """Small recordings with uneven epochs, plus frame sizes and a cepstrum chunk.

    Epochs hold 0-6 heart rate samples (empty ones are imputed) and 3, 4, 6
    or 9 actigraphy rows, some of them still; 3 is the fewest a cepstrum of
    the differenced signal allows. Frames run up to the whole
    recording; component counts run past the shortest epochs.
    """
    n = draw(st.integers(1, 12))
    rr_counts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))
    act_counts = draw(st.lists(st.sampled_from([3, 4, 6, 9]), min_size=n, max_size=n))
    still = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rr = [0.4 + rng.random(c) for c in rr_counts]
    act = [
        np.tile(rng.standard_normal(3), (m, 1)) if flat else rng.standard_normal((m, 3))
        for m, flat in zip(act_counts, still)
    ]
    cfg = FrameConfig(
        frame_epochs=draw(st.integers(1, n)),
        freq_components=draw(st.integers(3, 8)),
        cepstrum_components=draw(st.integers(1, 10)),
    )
    return build_recording(rr, act), cfg, draw(st.sampled_from([1, 2, 3, 64]))


class TestPerEpochParity:
    @given(recordings_and_configs())
    def test_matches_per_epoch_oracle_byte_for_byte(self, case):
        rec, cfg, chunk = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features_low, "CEPSTRUM_CHUNK", chunk)
            got = recording_low_features(rec, cfg)
        assert same_bytes(got, per_epoch_low_features(rec, cfg))

    def test_two_sample_epoch_rejected_like_the_oracle(self):
        rng = np.random.default_rng(10)
        rec = build_recording([np.ones(3)] * 3, [rng.standard_normal((m, 3)) for m in (5, 2, 5)])
        cfg = FrameConfig(frame_epochs=2)
        with pytest.raises(ValueError, match="epoch 1"):
            recording_low_features(rec, cfg)
        with pytest.raises(ValueError):
            per_epoch_low_features(rec, cfg)

    @pytest.mark.parametrize("chunk", [1, 3, 4, 6, 7, 64])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # a group of 6 equal-length epochs and one of 7: multiples of some chunks, not of others
        rng = np.random.default_rng(9)
        lengths = [40] * 6 + [41] * 7
        rng.shuffle(lengths)
        rec = build_recording(
            [1.0 + rng.random(8) for _ in lengths], [rng.standard_normal((m, 3)) for m in lengths]
        )
        cfg = FrameConfig(frame_epochs=4, cepstrum_components=12)
        monkeypatch.setattr(features_low, "CEPSTRUM_CHUNK", chunk)
        assert same_bytes(recording_low_features(rec, cfg), per_epoch_low_features(rec, cfg))
