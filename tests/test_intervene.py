import json
import math
import re
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import trajlm.evalharness as evalharness
import trajlm.intervene as intervene
from trajlm.corpus import Event, InputError, ParticipantRecord, assemble_sequence, features_to_datetime
from trajlm.intervene import (
    DURATIONS,
    FREQUENCIES,
    CategoricalAppend,
    ContinuousScale,
    EligibilityRule,
    Published,
    TrialSpec,
    TrialVariable,
    add_months,
    apply_intervention,
    concordance,
    dosing_schedule,
    read_trial_spec,
    sample_trial_population,
    simulate_cohort,
)
from trajlm.intervene import _sequence_end_time, _treated_contexts
from trajlm.evalharness import predict_queries
from trajlm.model import ModelConfig, init_params
from trajlm.vocab import RawModality, build_vocabulary, decode_token

FIXTURES = Path(__file__).parent / "data"
NOOP = ContinuousScale((0,), 1.0, label="noop")
SCALE_ARM = {"kind": "scale", "modalities": ["ldl"], "factor": 0.9}


def read_trial(tmp_path, doc, vocab):
    """`doc` written as the trial spec file t.json and read back by
    `read_trial_spec`, and the name its messages give that file."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return read_trial_spec(path, vocab)


def trial_where(tmp_path) -> str:
    """How `read_trial` names its file in a message, as a regex."""
    return re.escape(f"trial spec t.json {str(tmp_path / 't.json')!r}")


@pytest.fixture(scope="module")
def vocab():
    rng = np.random.default_rng(0)
    return build_vocabulary(
        [
            RawModality("ldl", "continuous", values=list(rng.normal(140, 25, 800)), bin_count=8),
            RawModality("sbp", "continuous", values=list(rng.normal(130, 15, 800)), bin_count=8),
            RawModality("statin", "categorical", categories=["low_dose", "high_dose"]),
        ]
    )


@pytest.fixture(scope="module")
def tiny_model(vocab):
    config = ModelConfig(
        vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
        d_model=16, n_layers=1, n_heads=2, d_head=4, cont_pe_dim=8, dropout=0.0, max_seq_len=512,
    )
    params = init_params(config, np.random.default_rng(1), dtype=np.float64)
    return params, config


def single_visit_record(vocab, ldl=160.0, pid="p0", seed=0):
    t0 = datetime(2021, 3, 1, 9, 0)
    rng = np.random.default_rng(seed)
    events = [
        Event(t0, 0, ldl, False),
        Event(t0 + timedelta(minutes=5), 1, float(rng.normal(130, 10)), False),
    ]
    return ParticipantRecord(pid, 55.0, "female", events, [t0])


class TestDosing:
    def test_daily_twelve_months(self, vocab):
        spec = CategoricalAppend(2, 1, frequency=10, duration=12)
        start = datetime(2021, 3, 1, 9, 0)
        sched = dosing_schedule(spec, start, vocab)
        assert len(sched) == 120
        gaps = [(b - a).total_seconds() for (a, _), (b, _) in zip(sched, sched[1:])]
        assert all(abs(g - 0.1 * 30.4375 * 86400) < 1 for g in gaps)
        m = vocab.modalities[2]
        assert all(tok == m.cum_base + 1 for _, tok in sched)
        # a course of `months` months is the first months * frequency doses
        assert dosing_schedule(spec, start, vocab, months=2) == sched[:20]

    def test_monthly_single_month(self, vocab):
        sched = dosing_schedule(CategoricalAppend(2, 0, 1, 1), datetime(2021, 3, 1), vocab)
        assert len(sched) == 1

    def test_grid_is_81_combinations(self):
        assert len(FREQUENCIES) * len(DURATIONS) == 81

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError, match="frequency"):
            CategoricalAppend(2, 0, frequency=5, duration=12)
        with pytest.raises(ValueError, match="duration"):
            CategoricalAppend(2, 0, frequency=10, duration=5)

    def test_dosing_on_continuous_rejected(self, vocab):
        with pytest.raises(ValueError, match="categorical"):
            dosing_schedule(CategoricalAppend(0, 0, 1, 1), datetime(2021, 3, 1), vocab)


class TestApplyIntervention:
    def test_scale_rebins(self, vocab):
        rec = single_visit_record(vocab, ldl=200.0)
        seq = assemble_sequence(rec, vocab, 100)
        out = apply_intervention(seq, ContinuousScale((0,), 0.70), vocab)
        assert out.values[0] == pytest.approx(140.0)
        m, b, _ = decode_token(vocab, int(out.tokens[0]))
        assert m == 0
        edges = vocab.modalities[0].bin_edges[1:-1]
        lo = -math.inf if b == 0 else edges[b - 1]
        hi = math.inf if b == len(edges) else edges[b]
        assert lo <= 140.0 < hi or (b == len(edges) and 140.0 >= edges[-1])
        # untouched modality unchanged
        assert out.values[1] == seq.values[1]

    def test_append_grows_by_exact_count(self, vocab):
        rec = single_visit_record(vocab)
        seq = assemble_sequence(rec, vocab, 512)
        out = apply_intervention(seq, CategoricalAppend(2, 0, 10, 12), vocab)
        assert out.length == seq.length + 120
        out.check()
        # the context first, as it was, then the doses in non-decreasing time
        for stream in ("tokens", "values", "modalities", "times"):
            assert np.array_equal(getattr(out, stream)[: seq.length], getattr(seq, stream)[: seq.length]), stream
        doses = [features_to_datetime(t) for t in out.times[seq.length : out.length]]
        assert all(a <= b for a, b in zip(doses, doses[1:]))
        assert doses[0] > _sequence_end_time(seq)

    def test_same_minute_events_keep_their_places(self, vocab):
        """Two visit-1 events in one minute, the earlier of a higher modality:
        the treated context holds them in the control's order, doses after."""
        t0 = datetime(2021, 3, 1, 9, 0)
        events = [Event(t0 + timedelta(seconds=30), 1, 130.0, False), Event(t0 + timedelta(seconds=45), 0, 160.0, False)]
        seq = assemble_sequence(ParticipantRecord("p", 55.0, "female", events, [t0]), vocab, 100)
        assert seq.modalities[: seq.length].tolist() == [1, 0]
        out = apply_intervention(seq, CategoricalAppend(2, 0, 1, 1), vocab)
        assert out.modalities[: out.length].tolist() == [1, 0, 2]
        assert np.array_equal(out.values[:2], seq.values)

    def test_second_visit_rejected(self, vocab):
        t0 = datetime(2021, 3, 1, 9, 0)
        v2 = datetime(2022, 3, 1, 9, 0)
        events = [Event(t0, 0, 160.0, False), Event(v2, 0, 150.0, False)]
        seq = assemble_sequence(ParticipantRecord("p", 55.0, "female", events, [t0, v2]), vocab, 100)
        assert seq.visit_boundary == 1
        for arm in (CategoricalAppend(2, 0, 1, 1), ContinuousScale((0,), 0.9)):
            with pytest.raises(ValueError, match="second visit"):
                apply_intervention(seq, arm, vocab)

    def test_identity_factor_bitwise(self, vocab):
        rec = single_visit_record(vocab)
        seq = assemble_sequence(rec, vocab, 100)
        out = apply_intervention(seq, ContinuousScale((0, 1), 1.0), vocab)
        assert np.array_equal(out.tokens, seq.tokens)
        assert np.array_equal(out.values, seq.values)
        assert np.array_equal(out.modalities, seq.modalities)
        assert np.array_equal(out.times, seq.times)

    def test_scale_categorical_rejected(self, vocab):
        rec = single_visit_record(vocab)
        seq = assemble_sequence(rec, vocab, 100)
        with pytest.raises(ValueError, match="categorical"):
            apply_intervention(seq, ContinuousScale((2,), 0.5), vocab)

    def test_factor_validation(self):
        """A spec file can carry NaN or Infinity, which JSON reads."""
        for factor in (0.0, -0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^factor must be finite and positive, got {factor!r}$"):
                ContinuousScale((0,), factor)


class TestSimulateArms:
    def test_noop_gives_zero_effect(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, pid=f"p{i}", seed=i) for i in range(6)]
        arm = simulate_cohort(params, config, vocab, records, ContinuousScale((0,), 1.0), 1, 12)
        assert np.array_equal(arm.control, arm.treatment)
        assert arm.mean_delta == 0.0
        assert arm.effect_percent == 0.0

    def test_effect_percent_fixture(self):
        from trajlm.intervene import ArmResult

        arm = ArmResult(np.full(5, 175.0), np.full(5, 110.0))
        assert arm.effect_percent == pytest.approx(100 * abs(110 - 175) / 175)
        assert arm.effect_percent == pytest.approx(37.142857, abs=1e-4)
        assert arm.signed_percent < 0

    def test_effect_percent_unsigned_for_negative_outcomes(self):
        from trajlm.intervene import ArmResult

        arm = ArmResult(np.array([-10.0, -12.0]), np.array([-8.0, -9.0]))
        assert arm.effect_percent == pytest.approx(22.727273, abs=1e-4)
        assert arm.effect_percent == abs(arm.signed_percent)

    def test_zero_control_mean_rejected(self):
        from trajlm.intervene import ArmResult

        arm = ArmResult(np.array([1.0, -1.0]), np.array([2.0, 0.0]))
        with pytest.raises(ZeroDivisionError, match="control mean"):
            arm.effect_percent

    def test_bootstrap_ci_brackets_point(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, ldl=140 + 5 * i, pid=f"p{i}", seed=i) for i in range(8)]
        arm = simulate_cohort(params, config, vocab, records, CategoricalAppend(2, 0, 1, 12), 0, 12)
        lo, hi = arm.bootstrap_ci(np.random.default_rng(0), resamples=200)
        assert lo <= arm.signed_percent <= hi

    @pytest.mark.parametrize("n", [1, 38, 39, 40, 41])
    def test_bootstrap_ci_is_the_per_resample_loop_bitwise(self, n):
        """One (resamples, n) draw gives the CI of `resamples` draws of n
        indices each, bit for bit, and leaves the rng where they leave it."""
        from trajlm.intervene import ArmResult

        values = np.random.default_rng(n).normal(50.0, 5.0, (2, n))
        arm = ArmResult(values[0], values[1])
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        stats = []
        for _ in range(300):
            idx = ref.integers(0, n, n)
            mc = arm.control[idx].mean()
            stats.append(100.0 * (arm.treatment[idx].mean() - mc) / mc)
        want = (float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5)))
        assert arm.bootstrap_ci(rng, resamples=300) == want
        assert rng.random() == ref.random()

    def test_horizon_cap(self, vocab, tiny_model):
        params, config = tiny_model
        with pytest.raises(ValueError, match="24"):
            simulate_cohort(params, config, vocab, [], ContinuousScale((0,), 1.0), 1, 36)


class TestEligibility:
    def test_rule_comparators(self):
        ge = EligibilityRule(0, ">=", 130.0)
        le = EligibilityRule(0, "<=", 40.0)
        assert ge.satisfied(160.0) and not ge.satisfied(100.0)
        assert le.satisfied(35.0) and not le.satisfied(45.0)

    @pytest.mark.parametrize("comparator", [">", "=>", "<", "=="])
    def test_unknown_comparator_rejected(self, comparator):
        with pytest.raises(ValueError, match="comparator"):
            EligibilityRule(0, comparator, 130.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            EligibilityRule(0, ">=", threshold)

    def test_v1_gate_excludes_low_baseline(self, vocab, tiny_model):
        params, config = tiny_model
        records = [
            single_visit_record(vocab, ldl=160.0, pid="hi"),
            single_visit_record(vocab, ldl=100.0, pid="lo"),
        ]
        # 'lo' fails the observed-baseline gate regardless of any prediction;
        # 'hi' passes V1 and is kept iff its control prediction also clears 130
        from trajlm.evalharness import predict_queries
        from trajlm.corpus import v1_context
        from trajlm.intervene import add_months, _sequence_end_time

        seq = assemble_sequence(v1_context(records[0]), vocab, config.max_seq_len)
        pred_hi = predict_queries(
            params, config, vocab, seq, records[0].age, records[0].sex,
            [(0, add_months(_sequence_end_time(seq), 12))],
        )[0]
        rule = EligibilityRule(0, ">=", 130.0)
        arm = simulate_cohort(params, config, vocab, records, NOOP, 0, 12, rule=rule)
        assert arm.counts["missing_rule_modality"] == 0
        assert "lo" not in arm.participants
        expected = ["hi"] if pred_hi >= 130.0 else []
        assert arm.participants == expected

    def test_control_prediction_gate(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, ldl=1e9 if False else 160.0, pid="hi")]
        # threshold above every decodable midpoint: criterion 2 always fails
        impossible = EligibilityRule(0, ">=", max(vocab.modalities[0].midpoints) + 1)
        arm = simulate_cohort(params, config, vocab, records, NOOP, 0, 12, rule=impossible)
        assert arm.participants == [] and arm.counts["missing_rule_modality"] == 0

    def test_missing_modality_counted(self, vocab, tiny_model):
        params, config = tiny_model
        t0 = datetime(2021, 3, 1, 9, 0)
        rec = ParticipantRecord("nomod", 50.0, "male", [Event(t0, 1, 130.0, False)], [t0])
        arm = simulate_cohort(params, config, vocab, [rec], NOOP, 0, 12, rule=EligibilityRule(0, ">=", 0.0))
        assert arm.participants == [] and arm.counts["missing_rule_modality"] == 1


class TestTrajectory:
    def test_noop_flat_zero(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, pid=f"p{i}", seed=i) for i in range(4)]
        series = simulate_cohort(params, config, vocab, records, NOOP, 1, 6, months=6).monthly()
        assert len(series) == 6
        assert all(mean == 0.0 for _, mean, _ in series)

    def test_dosing_extends_with_month(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, pid=f"p{i}", seed=i) for i in range(2)]
        series = simulate_cohort(params, config, vocab, records, CategoricalAppend(2, 0, 10, 12), 0, 3, months=3).monthly()
        assert [t for t, _, _ in series] == [1, 2, 3]


def v1_singles(params, config, vocab, rec, contexts, outcome, when):
    """One predict_queries pass per context, the reference the planner must match."""
    return [predict_queries(params, config, vocab, c, rec.age, rec.sex, [(outcome, when)])[0] for c in contexts]


def span_tolerance(vocab, m):
    mids = vocab.modalities[m].midpoints
    return 1e-5 * (max(mids) - min(mids))


@pytest.fixture
def pass_log(monkeypatch):
    calls = []
    inner = evalharness.predict_queries

    def counted(params, config, vocab, seq, age, sex, queries):
        calls.append(len(queries))
        return inner(params, config, vocab, seq, age, sex, queries)

    monkeypatch.setattr(evalharness, "predict_queries", counted)
    return calls


class TestQueryPlan:
    """Planned workloads against one-query-per-pass predictions on each
    separate context, within 1e-5 of the outcome's midpoint span."""

    @pytest.mark.parametrize("spec", [CategoricalAppend(2, 0, 2, 12), ContinuousScale((0, 1), 0.8)])
    def test_trajectory_matches_single_passes(self, vocab, tiny_model, spec):
        params, config = tiny_model
        records = [single_visit_record(vocab, ldl=140 + 10 * i, pid=f"p{i}", seed=i) for i in range(3)]
        months = 4
        series = simulate_cohort(params, config, vocab, records, spec, 0, months, months=months).monthly()
        for t, mean, _ in series:
            deltas = []
            for rec in records:
                seq = assemble_sequence(rec, vocab, config.max_seq_len)
                when = add_months(_sequence_end_time(seq), t)
                edited = apply_intervention(seq, spec, vocab, months=t)
                ctrl, treat = v1_singles(params, config, vocab, rec, [seq, edited], 0, when)
                deltas.append(treat - ctrl)
            assert abs(mean - float(np.mean(deltas))) <= span_tolerance(vocab, 0)

    def test_simulate_arms_matches_single_passes(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, ldl=150 + 5 * i, pid=f"p{i}", seed=i) for i in range(3)]
        spec = CategoricalAppend(2, 1, 10, 6)
        arm = simulate_cohort(params, config, vocab, records, spec, 0, 9)
        tol = span_tolerance(vocab, 0)
        for rec, ctrl, treat in zip(records, arm.control, arm.treatment):
            seq = assemble_sequence(rec, vocab, config.max_seq_len)
            when = add_months(_sequence_end_time(seq), 9)
            ref = v1_singles(params, config, vocab, rec, [seq, apply_intervention(seq, spec, vocab)], 0, when)
            assert abs(ctrl - ref[0]) <= tol and abs(treat - ref[1]) <= tol

    def test_tuple_arm_matches_single_passes(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, ldl=150 + 5 * i, pid=f"p{i}", seed=i) for i in range(3)]
        spec_a, spec_b = CategoricalAppend(2, 0, 2, 6), ContinuousScale((1,), 0.9)
        arm = simulate_cohort(params, config, vocab, records, (spec_a, spec_b), 0, 6)
        assert arm.label == f"{spec_a.label}+{spec_b.label}"
        tol = span_tolerance(vocab, 0)
        for i, rec in enumerate(records):
            seq = assemble_sequence(rec, vocab, config.max_seq_len)
            when = add_months(_sequence_end_time(seq), 6)
            both = apply_intervention(apply_intervention(seq, spec_a, vocab), spec_b, vocab)
            ctrl, ab = v1_singles(params, config, vocab, rec, [seq, both], 0, when)
            assert abs(arm.control[i] - ctrl) <= tol
            assert abs(arm.treatment[i] - ab) <= tol

    def test_dosing_trajectory_one_pass_per_participant(self, vocab, tiny_model, pass_log):
        params, config = tiny_model
        records = [single_visit_record(vocab, pid=f"p{i}", seed=i) for i in range(3)]
        simulate_cohort(params, config, vocab, records, CategoricalAppend(2, 0, 10, 12), 0, 12, months=12)
        # 12 control and 12 dosed queries, all on prefixes of the 12-month
        # context; the arms' pair at the 12-month horizon repeats month 12
        assert pass_log == [24, 24, 24]

    def test_paired_arms_share_one_pass(self, vocab, tiny_model, pass_log):
        params, config = tiny_model
        records = [single_visit_record(vocab, pid=f"p{i}", seed=i) for i in range(2)]
        simulate_cohort(params, config, vocab, records, CategoricalAppend(2, 0, 1, 12), 0, 12)
        assert pass_log == [2, 2]
        pass_log.clear()
        # the scaled context is not a prefix of the control: two passes each
        simulate_cohort(params, config, vocab, records, ContinuousScale((0,), 0.8), 0, 12)
        assert pass_log == [1, 1, 1, 1]


class TestOnePlan:
    """simulate_cohort: the screen, the arms and the trajectory of each
    participant in one query plan, dosed contexts cut from one course."""

    def test_one_pass_per_participant_past_the_observed_screen(self, vocab, tiny_model, pass_log):
        params, config = tiny_model
        records = [
            single_visit_record(vocab, ldl=ldl, pid=f"p{i}", seed=i)
            for i, ldl in enumerate([160.0, 100.0, 150.0, 170.0])
        ]
        rule = EligibilityRule(0, ">=", 130.0)
        sim = simulate_cohort(params, config, vocab, records, CategoricalAppend(2, 0, 1, 12), 1, 12, months=12, rule=rule)
        # the eligibility query, 12 control and 12 dosed outcome queries; the
        # arms' pair at 12 months repeats month 12 of the trajectory
        assert pass_log == [25, 25, 25]
        assert sim.counts["excluded_observed"] == 1
        assert sim.monthly_deltas.shape == (len(sim.participants), 12)

    @pytest.mark.parametrize("frequency", [1, 3, 20])
    def test_month_prefixes_equal_shorter_courses(self, vocab, frequency):
        """Each month's cut equals a course of that many months, for one
        course and for two courses (frequencies `frequency` and 3) plus a
        scale."""
        t0 = datetime(2021, 3, 1, 9, 0)
        events = [
            Event(t0, 0, 150.0, False),
            Event(t0, 2, "low_dose", False),
            Event(t0 + timedelta(minutes=5), 1, 128.0, False),
            Event(t0 + timedelta(hours=20), 1, 121.0, True),
        ]
        seq = assemble_sequence(ParticipantRecord("p", 50.0, "male", events, [t0]), vocab)
        drug = CategoricalAppend(2, 1, frequency, 9)
        combined = (drug, CategoricalAppend(2, 0, 3, 6), ContinuousScale((1,), 0.9))
        for arm, per_month in ((drug, frequency), (combined, frequency + 3)):
            contexts = _treated_contexts(seq, arm, vocab, 12)
            # the horizon context has each course's own duration
            refs = [apply_intervention(seq, arm, vocab)] + [apply_intervention(seq, arm, vocab, months=t) for t in range(1, 13)]
            assert [ctx.length for ctx in contexts[1:]] == [seq.length + t * per_month for t in range(1, 13)]
            for ctx, ref in zip(contexts, refs, strict=True):
                for stream in ("tokens", "values", "modalities", "times"):
                    assert np.array_equal(getattr(ctx, stream), getattr(ref, stream)), stream
                assert ctx.visit_boundary == ref.visit_boundary

    @pytest.mark.parametrize(
        "arm, calls",
        [
            (CategoricalAppend(2, 1, 1, 12), 1),
            (ContinuousScale((1,), 0.9), 1),
            ((CategoricalAppend(2, 1, 1, 12), ContinuousScale((1,), 0.9)), 1),
            (CategoricalAppend(2, 1, 1, 9), 2),
            ((CategoricalAppend(2, 1, 1, 12), CategoricalAppend(2, 0, 3, 6)), 2),
        ],
    )
    def test_horizon_context_built_once_when_courses_last_months(self, vocab, monkeypatch, arm, calls):
        """A context whose courses all last `months` months (or that doses
        nothing) is the horizon context too; any other duration builds both."""
        t0 = datetime(2021, 3, 1, 9, 0)
        events = [Event(t0, 0, 150.0, False), Event(t0 + timedelta(minutes=5), 1, 128.0, False)]
        seq = assemble_sequence(ParticipantRecord("p", 50.0, "male", events, [t0]), vocab)
        built = []

        def counted(seq, arm, vocab, months=None):
            built.append(months)
            return apply_intervention(seq, arm, vocab, months)

        monkeypatch.setattr(intervene, "apply_intervention", counted)
        contexts = _treated_contexts(seq, arm, vocab, 12)
        assert len(built) == calls
        ref = apply_intervention(seq, arm, vocab)
        for stream in ("tokens", "values", "modalities", "times"):
            assert np.array_equal(getattr(contexts[0], stream), getattr(ref, stream)), stream

    def test_counts_partition_the_cohort(self, vocab, tiny_model):
        params, config = tiny_model
        t0 = datetime(2021, 3, 1, 9, 0)
        high = [single_visit_record(vocab, ldl=250.0, pid=f"hi{i}", seed=i) for i in range(2)]
        preds = []
        for rec in high:
            seq = assemble_sequence(rec, vocab, config.max_seq_len)
            preds += predict_queries(params, config, vocab, seq, rec.age, rec.sex, [(0, add_months(_sequence_end_time(seq), 6))])
        assert preds[0] != preds[1]
        # both pass the observed screen; only the higher prediction passes the predicted one
        rule = EligibilityRule(0, ">=", sum(preds) / 2)
        records = [
            ParticipantRecord("empty", 50.0, "male", [], [t0]),
            ParticipantRecord("no-ldl", 50.0, "male", [Event(t0, 1, 130.0, False)], [t0]),
            single_visit_record(vocab, ldl=50.0, pid="low"),
            *high,
        ]
        sim = simulate_cohort(params, config, vocab, records, ContinuousScale((0,), 0.9), 1, 6, rule=rule)
        assert sim.counts == {
            "participants_read": 5, "no_visit1_context": 1, "missing_rule_modality": 1,
            "excluded_observed": 1, "excluded_predicted": 1, "simulated": 1,
        }
        assert sim.participants == [high[int(preds[1] > preds[0])].participant_id]


@pytest.mark.parametrize("horizon", [-6, 0, 6.5, 25])
class TestHorizonRejected:
    """A horizon is a whole number of months in [1, 24]; anything else is an
    error naming the value, never a silent truncation or an empty answer."""

    def test_simulate_arms(self, vocab, tiny_model, horizon):
        params, config = tiny_model
        with pytest.raises(ValueError, match=re.escape(f"got {horizon!r}")):
            simulate_cohort(params, config, vocab, [single_visit_record(vocab)], ContinuousScale((0,), 0.9), 1, horizon)

    def test_trajectory(self, vocab, tiny_model, horizon):
        # a trajectory as `simulate --trajectory` asks for it: months up to the horizon
        params, config = tiny_model
        with pytest.raises(ValueError, match=re.escape(f"got {horizon!r}")):
            simulate_cohort(
                params, config, vocab, [single_visit_record(vocab)], ContinuousScale((0,), 0.9), 1, horizon, months=horizon
            )

    def test_filter_eligible(self, vocab, tiny_model, horizon):
        params, config = tiny_model
        rule = EligibilityRule(0, ">=", 130.0)
        with pytest.raises(ValueError, match=re.escape(f"got {horizon!r}")):
            simulate_cohort(params, config, vocab, [single_visit_record(vocab)], NOOP, 1, horizon, rule=rule)

    def test_trial_spec(self, vocab, tmp_path, horizon):
        doc = {
            "name": "demo", "table1": [], "arms": [SCALE_ARM], "outcome": "ldl", "horizon_months": horizon,
            "published": {"point": -30.0, "ci_low": -35.0, "ci_high": -25.0},
        }
        with pytest.raises(ValueError, match=re.escape(f"got {horizon!r}")):
            read_trial(tmp_path, doc, vocab)


class TestSampler:
    @pytest.mark.parametrize("row", [
        {"modality": "x_core", "mean": math.nan, "sd": 5.0, "low": 60.0, "high": 140.0},
        {"modality": "x_core", "mean": 100.0, "sd": math.nan, "low": 60.0, "high": 140.0},
        {"modality": "age", "mean": 60.0, "sd": 5.0, "low": math.nan, "high": 80.0},
        {"modality": "x_core", "mean": "100", "sd": 5.0, "low": 60.0, "high": 140.0},
        {"modality": "age", "mean": 60.0, "sd": 5.0, "low": None, "high": 80.0},
    ])
    def test_nan_row_rejected(self, vocab, tmp_path, row):
        # a NaN passes the feasibility check and would stall the rejection
        # sampler; a string or a null must not reach it either
        doc = {
            "name": "demo", "table1": [row], "arms": [SCALE_ARM], "outcome": "ldl", "horizon_months": 12,
            "published": {"point": -30.0, "ci_low": -35.0, "ci_high": -25.0},
        }
        with pytest.raises(ValueError, match=row["modality"]):
            read_trial(tmp_path, doc, vocab)

    def test_degenerate_sd(self, vocab):
        trial = TrialSpec(
            name="t", table1=[TrialVariable("ldl", 50.0, 0.0, 0.0, 100.0)],
            arms=[], outcome="ldl", horizon_months=12,
            published=Published(-5.0, -6.0, -4.0), n=20,
        )
        records = sample_trial_population(trial, np.random.default_rng(0), vocab)
        assert len(records) == 20
        assert all(rec.events[0].value == 50.0 for rec in records)

    def test_default_n_is_200(self, vocab):
        trial = TrialSpec(
            name="t", table1=[TrialVariable("ldl", 150.0, 20.0, 50.0, 300.0)],
            arms=[], outcome="ldl", horizon_months=12,
            published=Published(-5.0, -6.0, -4.0),
        )
        assert trial.n == 200
        records = sample_trial_population(trial, np.random.default_rng(0), vocab)
        assert len(records) == 200

    def test_sample_mean_matches_quadrature_oracle(self, vocab):
        from scipy import integrate

        fixtures = [
            (150.0, 20.0, 100.0, 200.0),
            (0.0, 1.0, -0.5, 3.0),
            (80.0, 30.0, 70.0, 90.0),
            (5.7, 0.6, 5.0, 10.0),
            (130.0, 15.0, 60.0, 140.0),
        ]
        rng = np.random.default_rng(42)
        for mean, sd, lo, hi in fixtures:
            pdf = lambda x: math.exp(-0.5 * ((x - mean) / sd) ** 2)
            mass, _ = integrate.quad(pdf, lo, hi)
            ex, _ = integrate.quad(lambda x: x * pdf(x), lo, hi)
            exact_mean = ex / mass
            ex2, _ = integrate.quad(lambda x: x * x * pdf(x), lo, hi)
            exact_sd = math.sqrt(ex2 / mass - exact_mean**2)

            trial = TrialSpec(
                name="t", table1=[TrialVariable("ldl", mean, sd, lo, hi)],
                arms=[], outcome="ldl", horizon_months=12,
                published=Published(-5.0, -6.0, -4.0), n=400,
            )
            records = sample_trial_population(trial, rng, vocab)
            sample = np.array([rec.events[0].value for rec in records])
            se = exact_sd / math.sqrt(len(sample))
            assert abs(sample.mean() - exact_mean) <= 2 * se, (mean, sd, lo, hi)

    def test_infeasible_truncation(self):
        """A row whose bounds hold almost none of its normal's mass is
        rejected when the row is made, before any sampling."""
        with pytest.raises(ValueError, match=r"^mean must be such that .* at least 0\.1% of its mass in \[low 50\.0, high 51\.0\]"):
            TrialVariable("ldl", 0.0, 1.0, 50.0, 51.0)

    def test_age_row_sets_age(self, vocab):
        trial = TrialSpec(
            name="t",
            table1=[TrialVariable("age", 62.0, 5.0, 40.0, 80.0), TrialVariable("ldl", 150.0, 20.0, 60.0, 260.0)],
            arms=[], outcome="ldl", horizon_months=12,
            published=Published(-5.0, -6.0, -4.0), n=50,
        )
        records = sample_trial_population(trial, np.random.default_rng(3), vocab)
        ages = np.array([r.age for r in records])
        assert np.all((ages >= 40) & (ages <= 80))
        assert abs(ages.mean() - 62.0) < 3.0
        assert all(len(r.events) == 1 for r in records)


class TestConcordance:
    def test_direction_and_ci_hit(self):
        out = concordance([{"predicted": -7.9, "published": -7.5, "ci_low": -8.5, "ci_high": -6.5}])
        assert out["direction_hits"] == 1 and out["ci_hits"] == 1

    def test_direction_hit_ci_miss(self):
        out = concordance([{"predicted": -10.1, "published": -2.4, "ci_low": -3.3, "ci_high": -1.5}])
        assert out["direction_hits"] == 1 and out["ci_hits"] == 0

    @pytest.mark.parametrize("key", ["predicted", "published", "ci_low", "ci_high"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, key, value):
        rows = [
            {"trial": "ok", "predicted": -7.9, "published": -7.5, "ci_low": -8.5, "ci_high": -6.5},
            {"trial": "empty", "predicted": -7.9, "published": -7.5, "ci_low": -8.5, "ci_high": -6.5, key: value},
        ]
        with pytest.raises(ValueError, match="'empty'.*finite"):
            concordance(rows)

    def test_zero_prediction_is_direction_miss(self):
        out = concordance([{"predicted": 0.0, "published": -5.0, "ci_low": -6.0, "ci_high": -4.0}])
        assert out["direction_hits"] == 0

    def test_forty_one_row_fixture(self):
        doc = json.loads((FIXTURES / "concordance_rows.json").read_text())
        rows = doc["rows"]
        assert len(rows) == 41
        assert sum(r["panel"] == "primary" for r in rows) == 27
        assert sum(r["panel"] == "secondary" for r in rows) == 14
        out = concordance(rows)
        assert out["direction_hits"] == 41
        assert out["ci_hits"] == 30
        primary = concordance([r for r in rows if r["panel"] == "primary"])
        secondary = concordance([r for r in rows if r["panel"] == "secondary"])
        assert primary["ci_hits"] == 21
        assert secondary["ci_hits"] == 9


class TestFourArm:
    """Control, A, B and A+B: a two-spec arm is one tuple arm of
    simulate_cohort, and the order of its specs does not matter."""

    def test_noop_b_matches_a_bitwise(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, pid=f"p{i}", seed=i) for i in range(4)]
        spec_a = CategoricalAppend(2, 0, 1, 6, label="statin")
        noop = ContinuousScale((0,), 1.0, label="noop")
        a = simulate_cohort(params, config, vocab, records, spec_a, 1, 12)
        ab = simulate_cohort(params, config, vocab, records, (spec_a, noop), 1, 12)
        assert np.array_equal(a.treatment, ab.treatment)
        assert np.array_equal(a.control, ab.control)

    def test_all_noop_arms_equal(self, vocab, tiny_model):
        params, config = tiny_model
        records = [single_visit_record(vocab, pid=f"p{i}", seed=i) for i in range(3)]
        noop = ContinuousScale((0,), 1.0, label="noop")
        noop2 = ContinuousScale((1,), 1.0, label="noop2")
        for arm in (noop, noop2, (noop, noop2)):
            result = simulate_cohort(params, config, vocab, records, arm, 1, 12)
            assert np.array_equal(result.control, result.treatment)

    def test_two_dosing_courses_start_at_visit1(self, vocab, tiny_model, monkeypatch):
        """In A+B every course starts at the visit-1 context's last event, so
        the arm is the same whichever course is A."""
        params, config = tiny_model
        records = [single_visit_record(vocab, pid=f"p{i}", seed=i) for i in range(3)]
        spec_a, spec_b = CategoricalAppend(2, 0, 1, 6, label="a"), CategoricalAppend(2, 1, 1, 6, label="b")
        treated = []
        inner = intervene.plan_queries

        def recorded(params, config, vocab, age, sex, requests):
            treated.append(requests[-1][0])
            return inner(params, config, vocab, age, sex, requests)

        monkeypatch.setattr(intervene, "plan_queries", recorded)
        ab = simulate_cohort(params, config, vocab, records, (spec_a, spec_b), 0, 6)
        ba = simulate_cohort(params, config, vocab, records, (spec_b, spec_a), 0, 6)
        simulate_cohort(params, config, vocab, records, spec_b, 0, 6)
        assert np.array_equal(ab.treatment, ba.treatment)
        b_token = vocab.modalities[2].cum_base + 1
        n = len(records)
        for both, swapped, b in zip(treated[:n], treated[n : 2 * n], treated[2 * n :]):
            for stream in ("tokens", "values", "modalities", "times"):
                assert np.array_equal(getattr(both, stream), getattr(swapped, stream)), stream
            assert both.visit_boundary == swapped.visit_boundary
            # B's doses fall where they fall when B is given alone
            dose_times = [seq.times[: seq.length][seq.tokens == b_token] for seq in (both, b)]
            assert len(dose_times[0]) == 6 and np.array_equal(*dose_times)

    def test_conflicting_scale_targets_rejected(self, vocab, tiny_model):
        params, config = tiny_model
        arm = (ContinuousScale((0, 1), 0.9), ContinuousScale((1,), 0.8))
        with pytest.raises(ValueError, match="conflicting"):
            simulate_cohort(params, config, vocab, [], arm, 1, 12)
        seq = assemble_sequence(single_visit_record(vocab), vocab, 100)
        with pytest.raises(ValueError, match="conflicting"):
            apply_intervention(seq, arm, vocab)


class TestCatalogAndSpecs:
    @pytest.mark.parametrize("doc", [
        {"kind": "append", "modality": 2, "category_index": 0, "frequency": 1, "duration": 1},
        {"kind": "scale", "modalities": ["ldl", -1], "factor": 0.9},
    ])
    def test_spec_modality_is_a_name(self, vocab, doc):
        """A spec's modality id, or the last modality's -1, once picked a
        modality by index."""
        with pytest.raises(KeyError, match="a modality is named by a string"):
            intervene.parse_intervention(doc, vocab)
        assert vocab.modality("statin").id == 2

    @pytest.mark.parametrize("arm, key", [
        ({"kind": "append", "modality": "ldl", "category_index": 0, "frequency": 1, "duration": 1}, "modality"),
        ({"kind": "append", "modality": "statin", "category_index": 9, "frequency": 1, "duration": 1}, "category_index"),
        ({"kind": "scale", "modalities": ["ldl", "statin"], "factor": 0.9}, "modalities"),
        ({"kind": "append", "modality": "statin", "category_index": 0, "frequency": 5, "duration": 1}, "frequency"),
    ])
    def test_arm_rule_names_the_arm_and_key(self, vocab, tmp_path, arm, key):
        """A rule an arm keeps (a dose of a category of a categorical
        modality, a scale of continuous ones, the dosing grid) names the arm
        and the key, as the spec's table does."""
        doc = {
            "name": "demo", "table1": [], "arms": [arm], "outcome": "ldl", "horizon_months": 12,
            "published": {"point": -30.0, "ci_low": -35.0, "ci_high": -25.0},
        }
        with pytest.raises(InputError, match=rf"^{trial_where(tmp_path)}: 'arms'\[0\]: '{key}' must be "):
            read_trial(tmp_path, doc, vocab)

    def test_categorical_outcome_rejected_when_read(self, vocab, tmp_path):
        """An outcome is a continuous modality: a categorical one once passed
        the spec's table and failed later without naming the spec."""
        doc = {
            "name": "demo", "table1": [], "arms": [SCALE_ARM], "outcome": "statin", "horizon_months": 12,
            "published": {"point": -30.0, "ci_low": -35.0, "ci_high": -25.0},
        }
        with pytest.raises(InputError, match=f"^{trial_where(tmp_path)}: 'outcome' must be a continuous modality name, got \"statin\"$"):
            read_trial(tmp_path, doc, vocab)

    def test_trial_spec_roundtrip(self, vocab, tmp_path):
        doc = {
            "name": "demo",
            "table1": [{"modality": "ldl", "mean": 150, "sd": 20, "low": 60, "high": 260}],
            "arms": [
                {"kind": "append", "modality": "statin", "category_index": 1, "frequency": 10, "duration": 12}
            ],
            "outcome": "ldl",
            "horizon_months": 12,
            "published": {"point": -30.0, "ci_low": -35.0, "ci_high": -25.0},
        }
        trial = read_trial(tmp_path, doc, vocab)
        assert trial.name == "demo"
        assert isinstance(trial.arms[0], CategoricalAppend)
        assert trial.arms[0].frequency == 10

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "12"])
    def test_trial_size_must_be_whole_and_positive(self, vocab, tmp_path, n):
        doc = {
            "name": "demo", "table1": [], "arms": [SCALE_ARM], "outcome": "ldl", "horizon_months": 12, "n": n,
            "published": {"point": -30.0, "ci_low": -35.0, "ci_high": -25.0},
        }
        with pytest.raises(ValueError, match=re.escape(f"got {json.dumps(n)}")):
            read_trial(tmp_path, doc, vocab)

    def test_a_trial_has_1_or_2_arms(self, vocab, tmp_path):
        doc = {
            "name": "demo", "table1": [], "arms": [SCALE_ARM] * 3, "outcome": "ldl", "horizon_months": 12,
            "published": {"point": -30.0, "ci_low": -35.0, "ci_high": -25.0},
        }
        with pytest.raises(InputError, match=f"^{trial_where(tmp_path)}: 'arms' must be a list of 1 or 2 arms, got "):
            read_trial(tmp_path, doc, vocab)
        assert len(read_trial(tmp_path, {**doc, "arms": [SCALE_ARM] * 2}, vocab).arms) == 2

    def test_published_point_outside_ci_rejected(self, vocab, tmp_path):
        doc = {
            "name": "demo", "table1": [], "arms": [SCALE_ARM], "outcome": "ldl", "horizon_months": 12,
            "published": {"point": -30.0, "ci_low": -20.0, "ci_high": -10.0},
        }
        with pytest.raises(ValueError, match=r"'published': 'point' must be inside its own CI \[ci_low -20\.0, ci_high -10\.0\], got -30\.0"):
            read_trial(tmp_path, doc, vocab)

    def test_add_months(self):
        start = datetime(2021, 1, 1)
        out = add_months(start, 12)
        assert abs((out - start).days - 365.25) < 1
