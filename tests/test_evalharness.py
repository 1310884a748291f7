import itertools
import math
from datetime import datetime, timedelta

import numpy as np
import pytest

import trajlm.evalharness as evalharness
from trajlm.corpus import Event, ParticipantRecord, TokenSequence, assemble_sequence
from trajlm.evalharness import (
    baseline_predict,
    crossmodal_sweep,
    decode_block,
    decode_expected,
    longitudinal_pools,
    plan_queries,
    pool_metrics,
    predict_queries,
    within_visit_pools,
    write_metric_csv,
)
from trajlm import numerics as nm
from trajlm.model import Causal, ModelConfig, build_mask, forward, init_params, value_scale_table
from trajlm.stats import pearson_with_ci
from trajlm.vocab import RawModality, build_vocabulary, encode_value


@pytest.fixture(scope="module")
def vocab():
    rng = np.random.default_rng(0)
    return build_vocabulary(
        [
            RawModality("two_bins", "continuous", values=[5.0, 10.0, 15.0, 25.0], bin_count=2),
            RawModality("wide", "continuous", values=list(rng.normal(100, 10, 600)), bin_count=8),
            RawModality("cat4", "categorical", categories=["a", "b", "c", "d"]),
        ]
    )


@pytest.fixture(scope="module")
def tiny_model(vocab):
    config = ModelConfig(
        vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
        d_model=16, n_layers=1, n_heads=2, d_head=4, cont_pe_dim=8, dropout=0.0, max_seq_len=64,
    )
    params = init_params(config, np.random.default_rng(1), dtype=np.float64)
    return params, config


class TestDecodeExpected:
    def test_uniform_over_two_midpoints(self, vocab):
        spec = vocab.modalities[0]
        assert len(spec.midpoints) == 2
        logits = np.zeros(vocab.total_tokens)
        expected = decode_expected(logits, vocab, 0)
        assert expected == pytest.approx(sum(spec.midpoints) / 2)

    def test_point_mass(self, vocab):
        logits = np.full(vocab.total_tokens, -1e9)
        logits[vocab.modalities[0].cum_base] = 0.0
        assert decode_expected(logits, vocab, 0) == pytest.approx(vocab.modalities[0].midpoints[0])

    def test_hand_softmax(self):
        vocab = build_vocabulary(
            [RawModality("m", "continuous", values=[-1.0, 0.5, 1.5, 4.0], bin_count=2)]
        )
        m = vocab.modalities[0]
        m.midpoints = [0.0, 3.0]
        logits = np.array([math.log(2.0), math.log(1.0)])
        assert decode_expected(logits, vocab, 0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_shift_invariance(self, vocab):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=vocab.total_tokens)
        base = decode_expected(logits, vocab, 1)
        spec = vocab.modalities[1]
        shifted = logits.copy()
        shifted[spec.cum_base : spec.cum_base + spec.n_tokens] += 123.456
        assert decode_expected(shifted, vocab, 1) == pytest.approx(base, abs=1e-9)

    def test_result_within_midpoint_range(self, vocab):
        rng = np.random.default_rng(3)
        spec = vocab.modalities[1]
        for _ in range(50):
            logits = rng.normal(scale=30, size=vocab.total_tokens)
            val = decode_expected(logits, vocab, 1)
            assert min(spec.midpoints) <= val <= max(spec.midpoints)

    def test_categorical_rejected(self, vocab):
        with pytest.raises(ValueError, match="top-K"):
            decode_expected(np.zeros(vocab.total_tokens), vocab, 2)


class TestTopK:
    """Top-K of a categorical modality as `eval-ntp` reports it: decode_block's
    ranks (ties go to the lower token id) pooled, then `rank < K` in pool_metrics."""

    @staticmethod
    def cat4_metrics(rows, truth, vocab):
        starts, widths, mids = vocab.head_ranges([2] * len(truth))
        _, ranks = decode_block(np.asarray(rows)[:, starts[0] : starts[0] + widths[0]], widths, mids, truth)
        return pool_metrics({2: (ranks.tolist(), list(truth))}, vocab).rows[0]

    def test_k_equals_width(self, vocab):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(10, vocab.total_tokens))
        truth = rng.integers(0, 4, 10)
        assert self.cat4_metrics(rows, truth, vocab).top5 == 1.0  # K = min(5, width 4)

    def test_point_mass_k1(self, vocab):
        a = vocab.modalities[2].cum_base
        rows = np.full((6, vocab.total_tokens), -50.0)
        truth = [0, 1, 2, 3, 0, 2]
        for i, t in enumerate(truth):
            rows[i, a + t] = 10.0
        assert self.cat4_metrics(rows, truth, vocab).top1 == 1.0

    def test_uniform_ties_pick_lowest_token(self, vocab):
        rows = np.zeros((8, vocab.total_tokens))
        truth = [0, 1, 0, 2, 0, 3, 0, 1]
        assert self.cat4_metrics(rows, truth, vocab).top1 == truth.count(0) / len(truth)


def two_visit_cohort(vocab, n=30, seed=5, drift=6.0):
    rng = np.random.default_rng(seed)
    t0 = datetime(2021, 1, 4, 9, 0)
    v2 = t0 + timedelta(days=730)
    records = []
    for i in range(n):
        base = float(rng.normal(100, 10))
        events = [
            Event(t0, 1, base + float(rng.normal(0, 2)), False),
            Event(t0 + timedelta(hours=1), 2, ["a", "b", "c", "d"][int(rng.integers(0, 4))], False),
            Event(v2, 1, base + drift + float(rng.normal(0, 2)), False),
        ]
        records.append(ParticipantRecord(f"p{i}", float(rng.uniform(40, 70)), "female", events, [t0, v2]))
    return records


class TestBaselines:
    def test_locf_copies_v1(self, vocab):
        """Each two-visit participant's last V1 value of each continuous
        modality it measures in both visits, and nothing for the categorical
        one."""
        records = two_visit_cohort(vocab, n=5)
        preds, skipped = baseline_predict("locf", [], records, vocab)
        assert preds == {1: {rec.participant_id: rec.events[0].value for rec in records}}
        assert skipped == []

    def test_locf_single_example(self, vocab):
        t0 = datetime(2021, 1, 4, 9, 0)
        v2 = t0 + timedelta(days=730)
        rec = ParticipantRecord(
            "p", 50.0, "male",
            [Event(t0, 1, 7.3 + 100, False), Event(v2, 1, 99.0, False)],
            [t0, v2],
        )
        preds, _ = baseline_predict("locf", [], [rec], vocab)
        assert preds[1]["p"] == 107.3

    def test_linear_near_identity_recovery(self, vocab):
        # V2 equals V1 exactly: regression on the V1 token recovers rank structure
        records = two_visit_cohort(vocab, n=80, seed=7, drift=0.0)
        for rec in records:
            v1 = [e for e in rec.events if e.modality == 1][0]
            v2ev = [e for e in rec.events if e.modality == 1][1]
            v2ev.value = v1.value
        preds, skipped = baseline_predict("linear", records, records, vocab)
        assert preds.keys() == {1} and preds[1].keys() == {rec.participant_id for rec in records}
        xs = [preds[1][rec.participant_id] for rec in records]
        ys = [rec.events[2].value for rec in records]
        from trajlm.stats import pearson_with_ci

        # 8-bin token quantization caps the recoverable correlation
        r, _, _ = pearson_with_ci(xs, ys)
        assert r > 0.95
        assert skipped == []

    def test_linear_skips_thin_modalities(self, vocab):
        test_records = two_visit_cohort(vocab, n=6)
        train_records = two_visit_cohort(vocab, n=2, seed=9)
        preds, skipped = baseline_predict("linear", train_records, test_records, vocab)
        assert "wide" in skipped
        assert preds == {}

    def test_linear_fits_on_the_bmi_token_when_named(self, monkeypatch):
        """The design's BMI column holds the last V1 token of the vocabulary's
        `bmi` modality; the same values under another name leave it 0."""
        rng = np.random.default_rng(11)
        wide, bmis = list(rng.normal(100, 10, 600)), list(rng.normal(28, 4, 600))
        t0 = datetime(2021, 1, 4, 9, 0)
        v2 = t0 + timedelta(days=730)
        records = []
        for i in range(40):
            base, bmi = float(rng.normal(100, 10)), float(rng.normal(28, 4))
            events = [Event(t0, 0, base), Event(t0, 1, bmi), Event(v2, 0, base + 3.0 * (bmi - 28.0))]
            records.append(ParticipantRecord(f"p{i}", 50.0, "female", events, [t0, v2]))
        designs = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond: designs.append(a) or lstsq(a, b, rcond=rcond))
        preds = {}
        for name in ("mass", "bmi"):
            vocab = build_vocabulary([
                RawModality("wide", "continuous", values=wide, bin_count=8),
                RawModality(name, "continuous", values=bmis, bin_count=8),
            ])
            preds[name], _ = baseline_predict("linear", records, records, vocab)
        # design columns: intercept, V1 token, age, sex, BMI token
        assert len(designs) == 2
        assert not designs[0][:, 4].any()
        assert designs[1][:, 4].tolist() == [encode_value(vocab, 1, rec.events[1].value) for rec in records]
        assert preds["bmi"][0] != preds["mass"][0]

    def test_unknown_kind(self, vocab):
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_predict("mean", [], [], vocab)


class TestModelEvaluation:
    def test_untrained_within_visit_near_zero_r(self, vocab, tiny_model):
        params, config = tiny_model
        records = []
        rng = np.random.default_rng(11)
        t0 = datetime(2021, 1, 4, 9, 0)
        for i in range(25):
            events = [
                Event(t0 + timedelta(hours=h), 1, float(rng.normal(100, 10)), False)
                for h in range(4)
            ]
            records.append(ParticipantRecord(f"p{i}", 50.0, "male", events, [t0]))
        report = pool_metrics(within_visit_pools(params, config, vocab, records)[0], vocab)
        (row,) = [row for row in report.rows if row.name == "wide"]
        assert abs(row.r) < 0.35  # untrained predictions carry no signal

    def test_single_token_excluded(self, vocab, tiny_model):
        params, config = tiny_model
        t0 = datetime(2021, 1, 4, 9, 0)
        records = [ParticipantRecord("p", 50.0, "male", [Event(t0, 1, 100.0, False)], [t0])]
        report = pool_metrics(within_visit_pools(params, config, vocab, records)[0], vocab)
        assert report.rows == []

    def test_longitudinal_runs_and_aligns(self, vocab, tiny_model):
        params, config = tiny_model
        records = two_visit_cohort(vocab, n=8)
        pools, counts = longitudinal_pools(params, config, vocab, records)
        assert counts["forecast"] == 8
        assert 1 in pools
        pids, preds, trues = pools[1]
        assert len(pids) == len(preds) == len(trues) == 8
        spec = vocab.modalities[1]
        for p in preds:
            assert min(spec.midpoints) <= p <= max(spec.midpoints)

    def test_longitudinal_empty_without_second_visits(self, vocab, tiny_model):
        params, config = tiny_model
        t0 = datetime(2021, 1, 4, 9, 0)
        records = [ParticipantRecord("p", 50.0, "male", [Event(t0, 1, 100.0, False)], [t0])]
        pools, counts = longitudinal_pools(params, config, vocab, records)
        assert pool_metrics(pools, vocab).rows == [] and pools == {}
        assert counts == {"forecast": 0, "single_visit": 1, "empty_visit1_context": 0, "no_visit2_target": 0}

    def test_longitudinal_counts_each_skip_by_its_reason(self, vocab, tiny_model):
        """Every participant read is counted once: forecast, single-visit,
        with no visit-1 event, or with no continuous visit-2 event."""
        params, config = tiny_model
        t0, v2 = datetime(2021, 1, 4, 9, 0), datetime(2023, 1, 4, 9, 0)
        forecast = two_visit_cohort(vocab, n=2)
        single = ParticipantRecord("s", 50.0, "male", [Event(t0, 1, 100.0, False)], [t0])
        no_v1 = ParticipantRecord("e", 50.0, "male", [Event(v2, 1, 100.0, False)], [t0, v2])
        no_target = ParticipantRecord("c", 50.0, "male", [Event(t0, 1, 100.0, False), Event(v2, 2, "a", False)], [t0, v2])
        pools, counts = longitudinal_pools(params, config, vocab, [single, *forecast, no_v1, no_target])
        assert counts == {"forecast": 2, "single_visit": 1, "empty_visit1_context": 1, "no_visit2_target": 1}
        assert pools[1][0] == ["p0", "p1"]

    def test_query_predictions_invariant_to_order_and_companions(self, vocab, tiny_model):
        from trajlm.corpus import assemble_sequence
        from trajlm.evalharness import predict_queries

        params, config = tiny_model
        rec = two_visit_cohort(vocab, n=1)[0]
        v1_events = [e for e in rec.events if e.timestamp < rec.visit_timestamps[1]]
        v1 = ParticipantRecord(rec.participant_id, rec.age, rec.sex, v1_events, rec.visit_timestamps[:1])
        seq = assemble_sequence(v1, vocab, 64)
        when = rec.visit_timestamps[1]
        ab = predict_queries(params, config, vocab, seq, rec.age, rec.sex, [(0, when), (1, when)])
        ba = predict_queries(params, config, vocab, seq, rec.age, rec.sex, [(1, when), (0, when)])
        assert ab[0] == ba[1] and ab[1] == ba[0]
        # same target, different companion query
        other = predict_queries(params, config, vocab, seq, rec.age, rec.sex,
                                [(0, when), (1, when + timedelta(days=200))])
        assert other[0] == ab[0]
        # nor on the companions' modalities, which set how many rows share
        # each range: 1 to 4 here, in passes of 5 queries
        for rec in two_visit_cohort(vocab, n=10):
            seq = assemble_sequence(ParticipantRecord(rec.participant_id, rec.age, rec.sex, rec.events[:2], []), vocab, 64)
            answers = set()
            for mix in itertools.product((0, 1), repeat=3):
                got = predict_queries(params, config, vocab, seq, rec.age, rec.sex,
                                      [(0, when), *[(m, when + timedelta(days=200)) for m in mix], (1, when)])
                answers.add((got[0], got[-1]))
            assert len(answers) == 1


def planner_context(vocab, n_events=8, seed=2):
    rng = np.random.default_rng(seed)
    t0 = datetime(2021, 1, 4, 9, 0)
    events = []
    for i in range(n_events):
        m = i % 3
        value = ["a", "b", "c", "d"][int(rng.integers(0, 4))] if m == 2 else float(rng.normal(15 if m == 0 else 100, 3))
        events.append(Event(t0 + timedelta(hours=i), m, value, False))
    rec = ParticipantRecord("p", 52.0, "male", events, [t0])
    return rec, assemble_sequence(rec, vocab, 64)


def cut(seq, n):
    """The sequence as if it ended after n positions."""
    return TokenSequence(
        seq.tokens[:n].copy(), seq.values[:n].copy(), seq.modalities[: n + 1].copy(),
        seq.times[: n + 1].copy(), min(seq.visit_boundary, n),
    )


def tolerance(vocab, m):
    """Packed and single passes agree within this share of the midpoint span."""
    mids = vocab.modalities[m].midpoints
    return 1e-5 * (max(mids) - min(mids))


@pytest.fixture
def passes(monkeypatch):
    """Every predict_queries call the planner makes, as (context, queries)."""
    calls = []
    inner = evalharness.predict_queries

    def counted(params, config, vocab, seq, age, sex, queries):
        calls.append((seq, list(queries)))
        return inner(params, config, vocab, seq, age, sex, queries)

    monkeypatch.setattr(evalharness, "predict_queries", counted)
    return calls


class TestQueryPlanner:
    def test_prefix_query_matches_cut_context(self, vocab, tiny_model):
        params, config = tiny_model
        rec, seq = planner_context(vocab)
        when = datetime(2021, 6, 1, 9, 0)
        packed = predict_queries(params, config, vocab, seq, rec.age, rec.sex, [(1, when, 5), (1, when)])
        alone = predict_queries(params, config, vocab, cut(seq, 5), rec.age, rec.sex, [(1, when)])[0]
        full = predict_queries(params, config, vocab, seq, rec.age, rec.sex, [(1, when)])[0]
        assert abs(packed[0] - alone) <= tolerance(vocab, 1)
        assert abs(packed[1] - full) <= tolerance(vocab, 1)
        assert packed[0] != packed[1]

    def test_nested_prefixes_share_one_pass(self, vocab, tiny_model, passes):
        params, config = tiny_model
        rec, seq = planner_context(vocab)
        w1, w2 = datetime(2021, 3, 1, 9, 0), datetime(2021, 9, 1, 9, 0)
        requests = [(cut(seq, 3), 0, w1), (seq, 1, w2), (cut(seq, 6), 1, w1), (cut(seq, 3), 1, w2)]
        got = plan_queries(params, config, vocab, rec.age, rec.sex, requests)
        assert len(passes) == 1 and passes[0][0] is seq
        for (ctx, m, when), value in zip(requests, got):
            single = predict_queries(params, config, vocab, ctx, rec.age, rec.sex, [(m, when)])[0]
            assert abs(value - single) <= tolerance(vocab, m)

    def test_duplicate_requests_answered_once(self, vocab, tiny_model, passes):
        params, config = tiny_model
        rec, seq = planner_context(vocab)
        when = datetime(2021, 6, 1, 9, 0)
        got = plan_queries(params, config, vocab, rec.age, rec.sex, [(seq, 1, when), (seq.copy(), 1, when), (seq, 1, when)])
        assert len(passes) == 1 and len(passes[0][1]) == 1
        assert got[0] == got[1] == got[2]

    def test_non_prefix_context_gets_its_own_pass(self, vocab, tiny_model, passes):
        params, config = tiny_model
        rec, seq = planner_context(vocab)
        edited = cut(seq, 6)
        edited.values[2] += 1.0  # same length-6 shape, different content
        when = datetime(2021, 6, 1, 9, 0)
        got = plan_queries(params, config, vocab, rec.age, rec.sex, [(seq, 1, when), (edited, 1, when)])
        assert len(passes) == 2
        for ctx, value in zip((seq, edited), got):
            assert value == predict_queries(params, config, vocab, ctx, rec.age, rec.sex, [(1, when)])[0]

    def test_empty_context_rejected(self, vocab, tiny_model):
        params, config = tiny_model
        rec, seq = planner_context(vocab)
        with pytest.raises(ValueError, match="empty context"):
            plan_queries(params, config, vocab, rec.age, rec.sex, [(cut(seq, 0), 1, datetime(2021, 6, 1))])

    @pytest.mark.parametrize("n, query", [(0, (1, datetime(2021, 6, 1))), (6, (1, datetime(2021, 6, 1), 0))],
                             ids=["empty", "empty prefix"])
    def test_query_on_an_empty_context_is_the_same_error_unplanned(self, vocab, tiny_model, n, query):
        """predict_queries holds the one empty-context rule: k queries on no
        context raise, as through the planner, and never return 0 answers."""
        params, config = tiny_model
        rec, seq = planner_context(vocab)
        with pytest.raises(ValueError, match="cannot answer a query on an empty context"):
            predict_queries(params, config, vocab, cut(seq, n), rec.age, rec.sex, [query])
        assert predict_queries(params, config, vocab, cut(seq, 0), rec.age, rec.sex, []) == []


class TestCrossmodal:
    def test_curve_shape_and_bounds(self, vocab, tiny_model):
        params, config = tiny_model
        xs, ys = crossmodal_sweep(params, config, vocab, 1, 0, datetime(2022, 3, 7, 9, 0))
        spec_in = vocab.modalities[1]
        spec_out = vocab.modalities[0]
        assert len(xs) == len(spec_in.midpoints)
        assert np.array_equal(xs, spec_in.midpoints)
        assert np.all(ys >= min(spec_out.midpoints)) and np.all(ys <= max(spec_out.midpoints))

    def test_untrained_curve_nearly_flat(self, vocab, tiny_model):
        params, config = tiny_model
        xs, ys = crossmodal_sweep(params, config, vocab, 1, 0, datetime(2022, 3, 7, 9, 0))
        spread = np.ptp(ys)
        midrange = np.ptp(vocab.modalities[0].midpoints)
        assert spread < 0.35 * midrange

    def test_categorical_target_rejected(self, vocab, tiny_model):
        params, config = tiny_model
        with pytest.raises(ValueError, match="continuous"):
            crossmodal_sweep(params, config, vocab, 1, 2, datetime(2022, 3, 7, 9, 0))


class TestPoolMetrics:
    def test_hand_built_pools(self, vocab):
        """Continuous rows come first.  A categorical pool of (rank, truth)
        reports top-1 and top-min(5, width): for the 4-category modality every
        truth is inside its top 5.  A longitudinal pool's (pid, prediction,
        truth) is read from its last two lists, and a one-pair pool is dropped."""
        preds, trues = [1.0, 2.0, 3.0, 5.0], [2.0, 1.0, 4.0, 6.0]
        pools = {
            2: ([0, 1, 3, 0, 2, 0, 3, 1], [1, 0, 2, 3, 0, 1, 2, 3]),
            1: (["p0", "p1", "p2", "p3"], preds, trues),
            0: ([7.0], [8.0]),
        }
        wide, cat4 = pool_metrics(pools, vocab).rows
        r, p, ci = pearson_with_ci(preds, trues)
        assert (wide.name, wide.n, wide.r, wide.p, wide.ci_low, wide.ci_high) == ("wide", 4, r, p, *ci)
        assert (cat4.name, cat4.n, cat4.top1, cat4.top5) == ("cat4", 8, 3 / 8, 1.0)
        assert math.isnan(cat4.r) and math.isnan(wide.top1)


class TestReportOutput:
    def test_csv_format(self, vocab, tiny_model, tmp_path):
        params, config = tiny_model
        records = two_visit_cohort(vocab, n=6)
        report = pool_metrics(within_visit_pools(params, config, vocab, records)[0], vocab)
        path = tmp_path / "r.csv"
        write_metric_csv(report, path, {"seed": 1, "config_hash": "ff", "version": "0.1.0"})
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_idx] == "modality,n,r,p,ci_low,ci_high,top1,top5"
        assert any("cat4" in line or "wide" in line for line in lines)


def reference_expected(row, vocab, m):
    """A full-width logits row decoded as the per-row decoder did: a float64
    softmax over the modality's range times its bin midpoints."""
    (a,), (k,), _ = vocab.head_ranges([m])
    z = np.asarray(row, dtype=np.float64)[a : a + k]
    p = np.exp(z - z.max())
    return float(p @ np.asarray(vocab.modalities[m].midpoints) / p.sum())


def reference_rank(row, vocab, m, truth):
    """Place of the true entry in a stable descending sort of the range."""
    (a,), (k,), _ = vocab.head_ranges([m])
    return int(np.flatnonzero(np.argsort(-np.asarray(row)[a : a + k], kind="stable") == truth)[0])


def ragged(full, starts, widths):
    """Each row's range of `full`, zero-padded as numerics.range_head pads it."""
    block = np.zeros((len(full), widths.max()))
    for i, (a, w) in enumerate(zip(starts, widths)):
        block[i, :w] = full[i, a : a + w]
    return block


def mixed_cohort(vocab, n=6, seed=3):
    """Participants with continuous and categorical events in one visit."""
    rng = np.random.default_rng(seed)
    t0 = datetime(2021, 1, 4, 9, 0)
    records = []
    for i in range(n):
        events = [
            Event(t0 + timedelta(hours=h), h % 3,
                  ["a", "b", "c", "d"][int(rng.integers(0, 4))] if h % 3 == 2 else float(rng.normal(15 if h % 3 == 0 else 100, 4)),
                  False)
            for h in range(7 + i)
        ]
        records.append(ParticipantRecord(f"p{i}", 50.0 + i, ["female", "male", "unknown"][i % 3], events, [t0]))
    return records


class TestRangedDecoding:
    """Inference asks `forward` for the (row, modality range) entries it
    decodes, and `decode_block` reads them."""

    def test_ragged_block_ranks_match_full_rows(self, vocab):
        """Rows of widths 2, 4 and 8 whose true entries have negative logits:
        the zero padding past a row's width must not beat its true entry."""
        rng = np.random.default_rng(8)
        mods = np.array([0, 2, 1, 2] * 6)
        starts, widths, mids = vocab.head_ranges(mods)
        truth = rng.integers(0, widths)
        full = rng.normal(-3.0, 1.0, size=(len(mods), vocab.total_tokens))
        full[np.arange(len(mods)), starts + truth] = -rng.uniform(0.5, 2.0, len(mods))
        full[1, starts[1] : starts[1] + 4] = full[1, starts[1] + truth[1]]  # a four-way tie
        expected, ranks = decode_block(ragged(full, starts, widths), widths, mids, truth)
        assert ranks.tolist() == [reference_rank(full[i], vocab, m, truth[i]) for i, m in enumerate(mods)]
        assert ranks[1] == truth[1]  # ties go to the lower token id
        for i, m in enumerate(mods):
            if m != 2:
                assert expected[i] == pytest.approx(reference_expected(full[i], vocab, m), rel=1e-12)

    def test_a_row_decodes_the_same_in_a_wider_block(self):
        """Pairwise sums over a zero-padded row group its entries differently
        from sums over the row alone; the decoder's sums must not, so a
        query's answer does not depend on the widths of its companions."""
        rng = np.random.default_rng(9)
        widths = rng.integers(9, 40, 20)
        block = rng.normal(0.0, 3.0, (20, 129))
        mids = np.sort(rng.normal(100.0, 20.0, (20, 129)), axis=1)
        wide, _ = decode_block(block, widths, mids * (np.arange(129) < widths[:, None]))
        alone = [decode_block(block[i : i + 1, :w], [w], mids[i : i + 1, :w])[0][0] for i, w in enumerate(widths)]
        assert wide.tolist() == alone

    def test_ranks_only_when_truth_is_given(self, vocab):
        starts, widths, mids = vocab.head_ranges([1, 0])
        block = np.array([[0.0] * 8, [3.0, -1.0] + [0.0] * 6])
        expected, ranks = decode_block(block, widths, mids)
        assert ranks is None and expected[0] == pytest.approx(np.mean(vocab.modalities[1].midpoints))
        _, ranks = decode_block(block, widths, mids, [7, 1])
        assert ranks.tolist() == [7, 1]

    def test_every_continuous_prediction_is_decoded_by_decode_expected(self, vocab, tiny_model, monkeypatch):
        """A wrapper on decode_expected sees every continuous value the readers
        report, as a checker of decoded ranges relies on."""
        params, config = tiny_model
        seen = []
        inner = evalharness.decode_expected

        def recorder(row, vocab_, m):
            seen.append(inner(row, vocab_, m))
            return seen[-1]

        monkeypatch.setattr(evalharness, "decode_expected", recorder)
        records = mixed_cohort(vocab)
        pools, _ = within_visit_pools(params, config, vocab, records)
        reported = [v for m in (0, 1) for v in pools[m][0]]
        seq = assemble_sequence(records[0], vocab, 64)
        when = datetime(2021, 6, 1)
        reported += predict_queries(params, config, vocab, seq, 50.0, "male", [(0, when), (1, when), (1, when, 3)])
        reported += crossmodal_sweep(params, config, vocab, 1, 0, when)[1].tolist()
        assert sorted(seen) == sorted(reported)

    def test_inference_never_computes_a_vocabulary_wide_head(self, vocab, tiny_model, monkeypatch):
        params, config = tiny_model
        v = vocab.total_tokens
        wide = []  # one entry per head evaluation: whether it was V wide
        inner_head = nm.range_head

        def range_head(*args, **kwargs):
            out = inner_head(*args, **kwargs)
            wide.append(out.data.shape[-1] == v)
            return out

        monkeypatch.setattr(nm, "range_head", range_head)
        records = mixed_cohort(vocab)
        seq = assemble_sequence(records[0], vocab, 64)
        when = datetime(2021, 6, 1)
        pools, scored = within_visit_pools(params, config, vocab, records)
        predict_queries(params, config, vocab, seq, 50.0, "male", [(0, when), (1, when), (1, when, 3)])
        crossmodal_sweep(params, config, vocab, 1, 0, when)
        n_bins = len(vocab.modalities[1].midpoints)
        assert scored == len(records) and {m for m in pools} == {0, 1, 2}
        assert wide == [False] * (len(records) + 1 + n_bins)
        # the full-width default, the tests' reference, is what the recorder flags
        forward(params, config, seq.tokens, seq.values, seq.modalities, seq.times, 50.0, "male",
                build_mask(Causal(), seq.length), value_scale_table(vocab))
        assert wide[-1:] == [True] and len(wide) == len(records) + 1 + n_bins + 1

    def test_pools_and_curve_match_the_full_head(self, vocab, tiny_model):
        _, config = tiny_model
        params = init_params(config, np.random.default_rng(4), dtype=np.float32)
        scales = value_scale_table(vocab)
        records = mixed_cohort(vocab, n=8, seed=6)
        pools, _ = within_visit_pools(params, config, vocab, records)
        seen = {m: 0 for m in pools}
        for rec in records:
            seq = assemble_sequence(rec, vocab, 64)
            logits = forward(params, config, seq.tokens, seq.values, seq.modalities, seq.times, rec.age, rec.sex,
                             build_mask(Causal(), seq.length), scales).data
            for j in range(1, seq.length):
                m = int(seq.modalities[j])
                got, true = pools[m][0][seen[m]], pools[m][1][seen[m]]
                seen[m] += 1
                spec = vocab.modalities[m]
                if spec.kind == "continuous":
                    span = max(spec.midpoints) - min(spec.midpoints)
                    assert abs(got - reference_expected(logits[j - 1], vocab, m)) <= 1e-5 * span
                    assert true == seq.values[j]
                else:
                    offset = int(seq.tokens[j]) - spec.cum_base
                    assert (got, true) == (reference_rank(logits[j - 1], vocab, m, offset), offset)
        assert seen == {m: len(p[0]) for m, p in pools.items()}

        when = datetime(2022, 3, 7, 9, 0)
        xs, ys = crossmodal_sweep(params, config, vocab, 1, 0, when)
        span = np.ptp(vocab.modalities[0].midpoints)
        for b, (x, y) in enumerate(zip(xs, ys)):
            tf = evalharness.time_features(when)
            logits = forward(params, config, np.array([vocab.modalities[1].cum_base + b]), np.array([x]),
                             np.array([1, 0]), np.array([tf, tf]), 50.0, "unknown", build_mask(Causal(), 1), scales).data
            assert abs(y - reference_expected(logits[0], vocab, 0)) <= 1e-5 * span
