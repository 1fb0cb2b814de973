import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sleepstager.ingest import (
    EPOCH_SECONDS,
    STAGES,
    WRITE_CHUNK,
    ActigraphySeries,
    DataValidationError,
    HeartRateSeries,
    Recording,
    class_names,
    discover_cohort,
    epoch_actigraphy,
    epoch_rr,
    impute_empty_rr,
    load_actigraphy_csv,
    load_cohort,
    load_heart_rate_csv,
    load_labels_csv,
    load_recording,
    merge_scorer_labels,
    night_paths,
    save_recording,
    stages_to_indices,
)
from sleepstager.synth import SynthConfig, generate_cohort

from per_epoch_oracle import (
    hr_to_rr,
    mask_epoch_actigraphy,
    mask_epoch_rr,
    row_loop_save_recording,
    row_loop_table,
)

W, N1, N2, N3, REM = STAGES


def make_recording(n_epochs=4, subject_id="s01", seed=0):
    rng = np.random.default_rng(seed)
    span = n_epochs * EPOCH_SECONDS
    hr_t = np.arange(0.0, span, 1.0)
    hr = HeartRateSeries(t=hr_t, bpm=60.0 + 5.0 * rng.standard_normal(hr_t.size))
    act_t = np.arange(int(span * 32)) / 32.0
    act = ActigraphySeries(t=act_t, xyz=0.01 * rng.standard_normal((act_t.size, 3)))
    labels = tuple(rng.choice([W, N1, N2, N3, REM]) for _ in range(n_epochs))
    return Recording(subject_id=subject_id, hr=hr, act=act, labels=labels)


class TestStages:
    def test_four_class_merge(self):
        def merged(stage):
            return class_names(4)[stages_to_indices([stage], 4)[0]]

        assert merged(W) == "W+N1"
        assert merged(N1) == "W+N1"
        assert merged(N2) == "N2"
        assert merged(N3) == "N3"
        assert merged(REM) == "REM"

    def test_class_names(self):
        assert class_names(5) == ("W", "N1", "N2", "N3", "REM")
        assert class_names(4) == ("W+N1", "N2", "N3", "REM")
        with pytest.raises(ValueError):
            class_names(3)

    def test_stage_indices_both_modes(self):
        np.testing.assert_array_equal(stages_to_indices(STAGES, 5), [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(stages_to_indices(STAGES, 4), [0, 0, 1, 2, 3])


def assert_stage_names(labels):
    assert type(labels) is tuple
    assert all(type(s) is str and s in STAGES for s in labels)


class TestStageNames:
    # every source of a Recording gives its labels as names from STAGES

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("epoch_index,stage\n0, W\n1,N2 \n2,REM\n3,N3\n", ("W", "N2", "REM", "N3")),
            # ties at epoch 0 (to W) and at epoch 2 (to the previous N1)
            (
                "epoch_index,a,b,c\n0,N2,N3,REM\n1,N1,N1,W\n2,N2,N3,REM\n3,REM,REM,N2\n",
                ("W", "N1", "N1", "REM"),
            ),
        ],
        ids=["1 scorer", "3 scorers"],
    )
    def test_load_recording(self, tmp_path, text, expected):
        paths = save_recording(make_recording(n_epochs=4), str(tmp_path))
        with open(paths["labels"], "w") as fh:
            fh.write(text)
        labels = load_recording(str(tmp_path), "s01").labels
        assert labels == expected
        assert_stage_names(labels)

    def test_generate_cohort_and_its_save_load_round_trip(self, tmp_path):
        rec = generate_cohort(SynthConfig(n_recordings=1, epochs_per_recording=30, seed=2))[0]
        paths = save_recording(rec, str(tmp_path))
        loaded = load_recording(str(tmp_path), rec.subject_id)
        assert loaded.labels == rec.labels
        assert_stage_names(rec.labels)
        assert_stage_names(loaded.labels)


class TestRrConversion:
    def test_sixty_bpm_is_one_second(self):
        assert hr_to_rr(60.0) == 1.0
        assert hr_to_rr(120.0) == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(DataValidationError):
            hr_to_rr(0.0)
        with pytest.raises(DataValidationError):
            hr_to_rr(-50.0)

    def test_epoch_boundaries_half_open(self):
        # samples exactly on a boundary belong to the later epoch
        hr = HeartRateSeries(t=np.array([0.0, 29.999, 30.0, 59.0]), bpm=np.array([60.0, 60.0, 120.0, 120.0]))
        act = ActigraphySeries(t=np.arange(1920) / 32.0, xyz=np.zeros((1920, 3)))
        rec = Recording(subject_id="x", hr=hr, act=act, labels=(W, N2))
        epochs = epoch_rr(rec)
        np.testing.assert_allclose(epochs[0], [1.0, 1.0])
        np.testing.assert_allclose(epochs[1], [0.5, 0.5])

    def test_epoch_actigraphy_counts(self):
        rec = make_recording(n_epochs=3)
        per_epoch = epoch_actigraphy(rec)
        assert len(per_epoch) == 3
        assert all(e.shape == (960, 3) for e in per_epoch)
        total = np.concatenate(per_epoch, axis=0)
        np.testing.assert_array_equal(total, rec.act.xyz)

    @given(st.data())
    def test_bucketing_matches_per_epoch_masks(self, data):
        # any times: unsorted, outside the span, on and just below epoch boundaries
        e = EPOCH_SECONDS
        n = data.draw(st.integers(0, 6), label="epochs")
        boundary = st.integers(-2, n + 2).map(lambda k: k * e)
        below = boundary.map(lambda b: float(np.nextafter(b, -np.inf)))
        times = st.one_of(st.floats(-2 * e, (n + 2) * e), boundary, below)
        hr_t = np.array(data.draw(st.lists(times, max_size=40), label="hr_t"))
        act_t = np.array(data.draw(st.lists(times, max_size=40), label="act_t"))
        rec = Recording(
            subject_id="x",
            hr=HeartRateSeries(t=hr_t, bpm=50.0 + np.arange(hr_t.size)),
            act=ActigraphySeries(t=act_t, xyz=np.arange(3.0 * act_t.size).reshape(-1, 3)),
            labels=(W,) * n,
        )
        got = epoch_rr(rec) + epoch_actigraphy(rec)
        expect = mask_epoch_rr(rec) + mask_epoch_actigraphy(rec)
        assert len(got) == len(expect) == 2 * n
        for a, b in zip(got, expect):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestImputation:
    def test_fills_from_nearest(self):
        a = np.array([1.0])
        b = np.empty(0)
        c = np.array([0.5, 0.5])
        out = impute_empty_rr([a, b, b, c])
        np.testing.assert_allclose(out[1], [1.0])  # 1 from a, 2 from c
        np.testing.assert_allclose(out[2], [0.5, 0.5])  # 2 from a, 1 from c
        np.testing.assert_allclose(out[3], [0.5, 0.5])

    def test_equidistant_breaks_earlier(self):
        a = np.array([1.0])
        c = np.array([0.5])
        out = impute_empty_rr([a, np.empty(0), c])
        np.testing.assert_allclose(out[1], [1.0])

    def test_copy_not_alias(self):
        a = np.array([1.0])
        out = impute_empty_rr([a, np.empty(0)])
        assert out[1] is not a

    def test_all_empty_rejected(self):
        with pytest.raises(DataValidationError):
            impute_empty_rr([np.empty(0), np.empty(0)])


class TestConsensus:
    def test_plurality_wins(self):
        merged = merge_scorer_labels([[N2, W], [N2, W], [N3, REM]])
        assert merged == [N2, W]

    def test_tie_repeats_previous_consensus(self):
        # epoch 1 ties N2/N3; previous consensus was W, which carries over
        merged = merge_scorer_labels([[W, N2], [W, N3]])
        assert merged == [W, W]

    def test_tie_at_first_epoch_is_wake(self):
        merged = merge_scorer_labels([[N2, N2], [N3, N2]])
        assert merged == [W, N2]

    def test_carried_stage_can_chain(self):
        # consecutive ties keep propagating the last resolved stage
        merged = merge_scorer_labels([[N2, W, W], [N2, N3, N3]])
        assert merged == [N2, N2, N2]

    def test_single_scorer_identity(self):
        seq = [W, N1, N2, REM]
        assert merge_scorer_labels([seq]) == seq

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataValidationError):
            merge_scorer_labels([[W, N1], [W]])

    def test_randomized_majority_agreement(self):
        # with 3 scorers, any stage holding 2+ votes must win outright
        rng = np.random.default_rng(7)
        stages = [W, N1, N2, N3, REM]
        for _ in range(50):
            n = int(rng.integers(1, 30))
            hyps = [[stages[int(rng.integers(5))] for _ in range(n)] for _ in range(3)]
            merged = merge_scorer_labels(hyps)
            for t in range(n):
                votes = [h[t] for h in hyps]
                for s in stages:
                    if votes.count(s) >= 2:
                        assert merged[t] == s


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        rec = make_recording(n_epochs=3, seed=11)
        save_recording(rec, str(tmp_path))
        loaded = load_recording(str(tmp_path), "s01")
        np.testing.assert_array_equal(loaded.hr.t, rec.hr.t)
        np.testing.assert_array_equal(loaded.hr.bpm, rec.hr.bpm)
        np.testing.assert_array_equal(loaded.act.t, rec.act.t)
        np.testing.assert_array_equal(loaded.act.xyz, rec.act.xyz)
        assert loaded.labels == rec.labels

    def test_multi_scorer_file_is_merged(self, tmp_path):
        p = tmp_path / "m_labels.csv"
        p.write_text(
            "epoch_index,stage_1,stage_2,stage_3\n"
            "0,W,W,N1\n"
            "1,N2,N3,N3\n"
            "2,N2,N3,REM\n"  # three-way tie: previous consensus N3 carries
        )
        from sleepstager.ingest import load_labels_csv

        assert load_labels_csv(str(p)) == [W, N3, N3]

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("time,bpm\n0.0,60.0\n")
        from sleepstager.ingest import load_heart_rate_csv

        with pytest.raises(DataValidationError):
            load_heart_rate_csv(str(p))

    def test_noncontiguous_epochs_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("epoch_index,stage\n0,W\n2,N2\n")
        from sleepstager.ingest import load_labels_csv

        with pytest.raises(DataValidationError):
            load_labels_csv(str(p))

    def test_unknown_stage_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("epoch_index,stage\n0,S4\n")
        from sleepstager.ingest import load_labels_csv

        with pytest.raises(DataValidationError):
            load_labels_csv(str(p))

    @pytest.mark.parametrize(
        "refused, message",
        [
            ("1,N1,N2", "bad row ['1', 'N1', 'N2'] at line 4"),
            ("x,N1", "bad epoch index 'x' at line 4"),
            ("1,X", "unknown stage 'X' at line 4"),
            ('1,"N1"', """unknown stage '"N1"' at line 4"""),
            ("2,N1", "epoch indices must be contiguous from 0, got 2 at line 4"),
        ],
    )
    def test_a_refused_label_row_names_its_file_line(self, tmp_path, refused, message):
        # the header and the blank line before the refused row count
        p = tmp_path / "l.csv"
        p.write_text(f"epoch_index,stage\n0,W\n\n{refused}\n1,N2\n")
        with pytest.raises(DataValidationError) as got:
            load_labels_csv(str(p))
        assert str(got.value) == f"{p}: {message}"


HEADERS = {
    "hr": ["t_seconds", "bpm"],
    "act": ["t_seconds", "x_g", "y_g", "z_g"],
}
ROWS = {"hr": ("0.0,61.5", "1.0,62.25"), "act": ("0.0,0.1,-0.2,1.0", "0.03125,0.5,1e-3,-0.0")}
# file bodies around two valid rows r0, r1; "f" and "rest" split r0 at its first
# comma, "hf" and "hrest" the header h at its first comma
CSV_CASES = {
    "comment_line": "{h}\n{r0}\n# comment\n{r1}\n",
    "whitespace_line": "{h}\n{r0}\n   \n{r1}\n",
    "extra_column": "{h}\n{r0},9.5\n{r1},1.5\n",
    "extra_text_column": "{h}\n{r0},9.5\n{r1},x\n",
    "underscore_digits": "{h}\n6_0.0,{rest}\n{r1}\n",
    "quoted_field": '{h}\n"{f}",{rest}\n{r1}\n',
    "quoted_header": '"{hf}",{hrest}\n{r0}\n{r1}\n',
    "header_only": "{h}\n",
    "crlf": "{h}\r\n{r0}\r\n{r1}\r\n",
    "blank_line": "{h}\n{r0}\n\n{r1}\n",
    "nan": "{h}\nnan,{rest}\n{r1}\n",
    "short_row": "{h}\n{r0}\n{f}\n",
    "padded_fields": "{h}\n {f} ,{rest}\n{r1}\n",
    "bare_cr": "{h}\r{r0}\r{r1}\r",
    "no_final_newline": "{h}\n{r0}\n{r1}",
    "bad_header": "t,{rest}\n{r0}\n",
}


def _load_table(kind, path):
    if kind == "hr":
        s = load_heart_rate_csv(path)
        return np.column_stack([s.t, s.bpm])
    s = load_actigraphy_csv(path)
    return np.column_stack([s.t, s.xyz])


# values whose shortest repr takes every form: signed zero, subnormals,
# exponent and plain notation at the switch-over, non-finite values
EDGE_VALUES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 1e16,
    9999999999999998.0, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
)


# Rows numpy refuses, with the file line and column the message names, and a
# quoted header name. The row loop accepts the last three: quotes and ``_``
# digit separators are outside the one grammar.
REFUSED_AT = {
    "comment_line": "could not convert string '# comment' to float64 at line 3, column 1.",
    "whitespace_line": "could not convert string '   ' to float64 at line 3, column 1.",
    "short_row": "invalid column index 1 at line 3 with 1 columns",
    "quoted_field": """could not convert string '"0.0"' to float64 at line 2, column 1.""",
    "underscore_digits": "could not convert string '6_0.0' to float64 at line 2, column 1.",
    "quoted_header": "expected header '{h}' at line 1",
}


def write_case(directory, kind, case) -> str:
    """CSV_CASES[case] around the ROWS of ``kind``, written as ``<directory>/<kind>.csv``."""
    r0, r1 = ROWS[kind]
    f, rest = r0.split(",", 1)
    h = ",".join(HEADERS[kind])
    hf, hrest = h.split(",", 1)
    body = CSV_CASES[case].format(h=h, hf=hf, hrest=hrest, r0=r0, r1=r1, f=f, rest=rest)
    path = os.path.join(directory, f"{kind}.csv")
    with open(path, "w", newline="") as fh:
        fh.write(body)
    return path


class TestCsvParsers:
    """The numpy parser agrees bit for bit with the row-by-row parser on
    every file both accept, and names the file line and column of a row it
    refuses."""

    @pytest.mark.parametrize("kind", ["hr", "act"])
    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_matches_row_loop(self, tmp_path, kind, case):
        path = write_case(str(tmp_path), kind, case)
        what = "heart rate" if kind == "hr" else "actigraphy"
        if case in REFUSED_AT:
            with pytest.raises(DataValidationError) as got:
                _load_table(kind, path)
            refused = REFUSED_AT[case].format(h=",".join(HEADERS[kind]))
            assert str(got.value) == f"{path}: {refused}"
            return
        try:
            expect = row_loop_table(path, HEADERS[kind], what)
        except DataValidationError as exc:
            with pytest.raises(DataValidationError) as got:
                _load_table(kind, path)
            assert str(got.value) == str(exc)
            return
        got = _load_table(kind, path)
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()

    def test_writer_rejects_unequal_columns(self, tmp_path):
        rec = make_recording(n_epochs=2)
        short = Recording(
            subject_id="s01",
            hr=HeartRateSeries(t=rec.hr.t, bpm=rec.hr.bpm[:-1]),
            act=rec.act,
            labels=rec.labels,
        )
        with pytest.raises(ValueError, match="times but"):
            save_recording(short, str(tmp_path))

    def test_header_only_has_no_samples(self, tmp_path):
        path = tmp_path / "hr.csv"
        path.write_text("t_seconds,bpm\n")
        with pytest.raises(DataValidationError, match="no heart rate samples"):
            load_heart_rate_csv(str(path))

    @settings(max_examples=60)
    @given(
        st.lists(st.sampled_from(["1.0,60.0", "", "2.5,61.0, 7"]), max_size=6),
        st.sampled_from(["1.0,x", "1.0", " ", "1.0,60.0z"]),
        st.lists(st.sampled_from(["3.0,62.0", ""]), max_size=3),
        st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_a_refused_row_names_its_file_line(self, before, refused, after, newline):
        # header and blank lines count; the rows after the refused one do not matter
        lines = ["t_seconds,bpm", *before, refused, *after]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "hr.csv")
            with open(path, "w", newline="") as fh:
                fh.write(newline.join(lines) + newline)
            with pytest.raises(DataValidationError) as got:
                load_heart_rate_csv(path)
        assert f" at line {len(before) + 2}" in str(got.value)

    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, (n,), elements=st.floats(allow_nan=False)),
                arrays(np.float64, (n,), elements=st.floats(allow_nan=False)),
                arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False)),
                st.lists(st.sampled_from(STAGES), min_size=n, max_size=n),
            )
        )
    )
    def test_save_load_round_trip_is_bit_exact(self, case):
        t, bpm, xyz, labels = case
        rec = Recording(
            subject_id="r",
            hr=HeartRateSeries(t=t, bpm=bpm),
            act=ActigraphySeries(t=t, xyz=xyz),
            labels=tuple(labels),
        )
        with tempfile.TemporaryDirectory() as d:
            paths = save_recording(rec, d)
            hr = load_heart_rate_csv(paths["hr"])
            act = load_actigraphy_csv(paths["act"])
            assert load_labels_csv(paths["labels"]) == labels
        for got, expect in ((hr.t, t), (hr.bpm, bpm), (act.t, t), (act.xyz, xyz)):
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes()

    @settings(max_examples=40)
    @given(
        st.sampled_from((1, WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1)),
        st.lists(st.floats(), max_size=30),
        st.integers(0, 2**32 - 1),
    )
    def test_writer_matches_row_loop_byte_for_byte(self, n, drawn, seed):
        # every value comes from a pool of the edge values plus drawn floats,
        # so tables of WRITE_CHUNK rows stay cheap to generate
        rng = np.random.default_rng(seed)
        values = rng.choice(np.array(EDGE_VALUES + tuple(drawn)), size=5 * n)
        rec = Recording(
            subject_id="r",
            hr=HeartRateSeries(t=values[:n], bpm=values[n : 2 * n]),
            act=ActigraphySeries(t=values[:n][::-1], xyz=values[2 * n :].reshape(n, 3)),
            labels=tuple(STAGES[i] for i in rng.integers(len(STAGES), size=n)),
        )
        with tempfile.TemporaryDirectory() as new, tempfile.TemporaryDirectory() as old:
            got, want = save_recording(rec, new), row_loop_save_recording(rec, old)
            # the paths night_paths names, with the oracle's keys, order and file names
            assert got == night_paths(new, "r")
            names = [[(k, os.path.relpath(p, d)) for k, p in w.items()] for w, d in ((got, new), (want, old))]
            assert names[0] == names[1]
            for key in ("hr", "act", "labels"):
                with open(got[key], "rb") as a, open(want[key], "rb") as b:
                    assert a.read() == b.read(), key


class TestRecordingValidation:
    def _paths(self, tmp_path, rec):
        return save_recording(rec, str(tmp_path))

    def test_truncates_past_label_span(self, tmp_path):
        rec = make_recording(n_epochs=2)
        paths = self._paths(tmp_path, rec)
        # append samples beyond the labelled span; load should drop them
        with open(paths["hr"], "a") as fh:
            fh.write("61.0,65.0\n999.0,70.0\n")
        loaded = load_recording(str(tmp_path), "s01")
        assert loaded.hr.t[-1] < 60.0
        assert loaded.hr.t.size == rec.hr.t.size

    def test_short_heart_rate_rejected(self, tmp_path):
        rec = make_recording(n_epochs=4)
        keep = rec.hr.t < 60.0  # ends before the final epoch starts
        short = Recording(
            subject_id="s01",
            hr=HeartRateSeries(t=rec.hr.t[keep], bpm=rec.hr.bpm[keep]),
            act=rec.act,
            labels=rec.labels,
        )
        paths = self._paths(tmp_path, short)
        with pytest.raises(DataValidationError) as err:
            load_recording(str(tmp_path), "s01")
        assert str(err.value) == f"{paths['hr']}: heart rate signal shorter than label span"

    def test_nonpositive_bpm_rejected(self, tmp_path):
        rec = make_recording(n_epochs=2)
        bad_bpm = rec.hr.bpm.copy()
        bad_bpm[5] = -1.0
        bad = Recording(
            subject_id="s01",
            hr=HeartRateSeries(t=rec.hr.t, bpm=bad_bpm),
            act=rec.act,
            labels=rec.labels,
        )
        paths = self._paths(tmp_path, bad)
        with pytest.raises(DataValidationError) as err:
            load_recording(str(tmp_path), "s01")
        assert str(err.value) == f"{paths['hr']}: non-positive heart rate sample"

    def test_unsorted_times_rejected(self, tmp_path):
        rec = make_recording(n_epochs=2)
        t = rec.hr.t.copy()
        t[3], t[4] = t[4], t[3]
        bad = Recording(
            subject_id="s01",
            hr=HeartRateSeries(t=t, bpm=rec.hr.bpm),
            act=rec.act,
            labels=rec.labels,
        )
        paths = self._paths(tmp_path, bad)
        with pytest.raises(DataValidationError) as err:
            load_recording(str(tmp_path), "s01")
        expect = f"{paths['hr']}: heart rate timestamps are not strictly increasing"
        assert str(err.value) == expect

    def test_offrate_actigraphy_rejected(self, tmp_path):
        rec = make_recording(n_epochs=2)
        # resample at 24 Hz: 25% below nominal, outside the 5% band
        act_t = np.arange(int(60 * 24)) / 24.0
        bad = Recording(
            subject_id="s01",
            hr=rec.hr,
            act=ActigraphySeries(t=act_t, xyz=np.zeros((act_t.size, 3))),
            labels=rec.labels,
        )
        paths = self._paths(tmp_path, bad)
        with pytest.raises(DataValidationError) as err:
            load_recording(str(tmp_path), "s01")
        assert str(err.value).startswith(f"{paths['act']}: actigraphy rate 24.000 Hz deviates")

    def test_sparse_actigraphy_epoch_rejected(self, tmp_path):
        # two samples left in one epoch: too few for its cepstra, though the
        # night's mean rate stays within 5%
        rec = make_recording(n_epochs=30)
        in_17 = np.flatnonzero(np.floor(rec.act.t / 30.0) == 17)
        keep = np.ones(rec.act.t.size, dtype=bool)
        keep[in_17[2:]] = False
        sparse = Recording(
            subject_id="s01",
            hr=rec.hr,
            act=ActigraphySeries(t=rec.act.t[keep], xyz=rec.act.xyz[keep]),
            labels=rec.labels,
        )
        paths = self._paths(tmp_path, sparse)
        with pytest.raises(DataValidationError) as err:
            load_recording(str(tmp_path), "s01")
        assert str(err.value).startswith(f"{paths['act']}: actigraphy epoch 17 has 2 sample(s);")


class TestCohort:
    def test_discover_and_load(self, tmp_path):
        for sid, seed in (("a01", 1), ("b02", 2)):
            save_recording(make_recording(n_epochs=2, subject_id=sid, seed=seed), str(tmp_path))
        assert discover_cohort(str(tmp_path)) == ["a01", "b02"]
        recs = load_cohort(str(tmp_path))
        assert [r.subject_id for r in recs] == ["a01", "b02"]
        assert all(r.num_epochs == 2 for r in recs)

    def test_ids_come_in_the_order_of_their_heart_rate_file_names(self, tmp_path):
        # "a_b_hr.csv" sorts before "a_hr.csv", though "a" sorts before "a_b"
        for sid, seed in (("a", 1), ("a_b", 2)):
            save_recording(make_recording(n_epochs=2, subject_id=sid, seed=seed), str(tmp_path))
        assert discover_cohort(str(tmp_path)) == ["a_b", "a"]
        assert [r.subject_id for r in load_cohort(str(tmp_path))] == ["a_b", "a"]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_cohort(str(tmp_path))
