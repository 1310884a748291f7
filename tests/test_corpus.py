import re
from datetime import datetime, timedelta

import numpy as np
import pytest

from trajlm.corpus import (
    AugmentConfig,
    Event,
    ParticipantRecord,
    TEMPORAL_VOCAB_SIZES,
    assemble_sequence,
    augment,
    features_to_datetime,
    read_cohort_jsonl,
    time_features,
    write_cohort_jsonl,
)
from trajlm.vocab import RawModality, build_vocabulary, decode_token


@pytest.fixture(scope="module")
def vocab():
    rng = np.random.default_rng(0)
    return build_vocabulary(
        [
            RawModality("a", "continuous", values=list(rng.normal(10, 2, 300)), bin_count=5),
            RawModality("b", "continuous", values=list(rng.normal(50, 5, 300)), bin_count=4),
            RawModality("c", "categorical", categories=["x", "y", "z"]),
        ]
    )


def record_with(events, visits=None, pid="p1"):
    return ParticipantRecord(pid, 52.0, "female", events, visits or [])


class TestTimeFeatures:
    def test_monday_midnight(self):
        vec = time_features(datetime(2020, 1, 6, 0, 0), False)
        assert vec == [0, 0, 0, 1, 120, 6, 0]

    def test_sunday_night_sleep(self):
        vec = time_features(datetime(2021, 8, 29, 23, 59), True)
        assert vec[0] == 6 and vec[1] == 23 and vec[2] == 59 and vec[6] == 1

    def test_tables_admit_all_features(self):
        sizes = TEMPORAL_VOCAB_SIZES
        maxima = [6, 23, 59, 12, 146, 31, 1]
        for size, mx in zip(sizes, maxima):
            assert mx < size

    def test_year_out_of_table(self):
        with pytest.raises(ValueError, match="year"):
            time_features(datetime(1899, 12, 31), False)

    def test_roundtrip(self):
        ts = datetime(2024, 2, 29, 13, 45)
        assert features_to_datetime(time_features(ts, True)) == ts


class TestAssemble:
    def test_secondary_sort_by_modality(self, vocab):
        t = datetime(2022, 5, 2, 9, 0)
        events = [
            Event(t, 1, 50.0, False),
            Event(t, 0, 10.0, False),
            Event(t, 2, "y", False),
        ]
        seq = assemble_sequence(record_with(events), vocab, 100)
        assert list(seq.modalities[: seq.length]) == [0, 1, 2]

    def test_visit_boundary(self, vocab):
        v1 = datetime(2022, 5, 2, 9, 0)
        v2 = datetime(2024, 5, 2, 9, 0)
        events = [Event(v1 + timedelta(hours=i), 0, 10.0 + i, False) for i in range(4)]
        events += [Event(v2 + timedelta(hours=i), 0, 11.0 + i, False) for i in range(3)]
        seq = assemble_sequence(record_with(events, [v1, v2]), vocab, 100)
        assert seq.length == 7
        assert seq.visit_boundary == 4

    def test_empty(self, vocab):
        seq = assemble_sequence(record_with([]), vocab, 100)
        assert seq.length == 0
        assert seq.visit_boundary == 0
        assert seq.modalities.shape == (1,)
        assert seq.times.shape == (1, 7)

    def test_deterministic_under_permutation(self, vocab):
        rng = np.random.default_rng(1)
        t0 = datetime(2021, 3, 1, 8, 0)
        events = [
            Event(t0 + timedelta(minutes=int(rng.integers(0, 500))), int(rng.integers(0, 2)), float(rng.normal(30, 10)), False)
            for _ in range(40)
        ]
        seq1 = assemble_sequence(record_with(list(events)), vocab, 100)
        perm = [events[i] for i in rng.permutation(len(events))]
        seq2 = assemble_sequence(record_with(perm), vocab, 100)
        assert np.array_equal(seq1.tokens, seq2.tokens)
        assert np.array_equal(seq1.values, seq2.values)
        assert np.array_equal(seq1.modalities, seq2.modalities)
        assert np.array_equal(seq1.times, seq2.times)

    def test_truncation_keeps_earliest(self, vocab):
        t0 = datetime(2021, 3, 1, 8, 0)
        events = [Event(t0 + timedelta(hours=i), 0, float(8 + i), False) for i in range(10)]
        seq = assemble_sequence(record_with(events), vocab, 4)
        assert seq.length == 4
        assert list(seq.values) == [8.0, 9.0, 10.0, 11.0]

    def test_unencodable_names_participant(self, vocab):
        # an unknown category, and a null measurement (JSON `"v": null`)
        t0 = datetime(2021, 1, 4)
        for event in (Event(t0, 2, "missing-cat", False), Event(t0, 0, None, False)):
            with pytest.raises(ValueError, match="p1"):
                assemble_sequence(record_with([event]), vocab, 10)

    def test_trailing_slot_initialized(self, vocab):
        t0 = datetime(2021, 3, 1, 8, 0)
        seq = assemble_sequence(record_with([Event(t0, 0, 9.0, False)]), vocab, 10)
        assert seq.modalities[-1] == vocab.n_modalities
        assert np.array_equal(seq.times[-1], seq.times[0])


class TestTokenSequence:
    @pytest.fixture
    def two_visits(self, vocab):
        v1, v2 = datetime(2022, 5, 2, 9, 0), datetime(2024, 5, 2, 9, 0)
        events = [Event(v1 + timedelta(hours=i), 0, 10.0 + i, False) for i in range(4)]
        events += [Event(v2 + timedelta(hours=i), 1, 50.0 + i, False) for i in range(3)]
        return assemble_sequence(record_with(events, [v1, v2]), vocab, 100)

    @pytest.mark.parametrize(
        "stream, bad",
        [("values", np.zeros(2)), ("modalities", np.zeros(7, np.int64)), ("times", np.zeros((8, 6), np.int64)),
         ("visit_boundary", 8)],
    )
    def test_check_raises_naming_the_stream(self, two_visits, stream, bad):
        setattr(two_visits, stream, bad)
        with pytest.raises(ValueError, match=stream):
            two_visits.check()

    def test_take(self, two_visits):
        """Kept positions keep their streams; the query slot keeps the
        modality and takes the last kept position's time; the boundary counts
        the kept visit-1 positions."""
        seq = two_visits
        seq.modalities[-1] = 2
        idx = [0, 2, 4, 5]
        cut = seq.take(idx)
        cut.check()
        assert np.array_equal(cut.tokens, seq.tokens[idx]) and np.array_equal(cut.values, seq.values[idx])
        assert cut.modalities.tolist() == [0, 0, 1, 1, 2]
        assert np.array_equal(cut.times, seq.times[[0, 2, 4, 5, 5]])
        assert cut.visit_boundary == 2
        empty = seq.take([])
        assert (empty.length, empty.visit_boundary, empty.modalities.tolist()) == (0, 0, [2])
        assert np.array_equal(empty.times, seq.times[-1:])


class TestAugment:
    @pytest.fixture
    def base(self, vocab):
        t0 = datetime(2021, 3, 1, 8, 0)
        events = []
        rng = np.random.default_rng(2)
        for i in range(30):
            m = int(rng.integers(0, 3))
            value = "y" if m == 2 else float(rng.normal(10 if m == 0 else 50, 3))
            events.append(Event(t0 + timedelta(minutes=i), m, value, False))
        return assemble_sequence(record_with(events, [t0, t0 + timedelta(days=700)]), vocab, 100)

    def test_disabled_is_identity(self, base, vocab):
        out = augment(base, AugmentConfig.disabled(), np.random.default_rng(0), vocab)
        assert np.array_equal(out.tokens, base.tokens)
        assert np.array_equal(out.values, base.values)
        assert np.array_equal(out.modalities, base.modalities)
        assert np.array_equal(out.times, base.times)
        assert out.visit_boundary == base.visit_boundary

    def test_full_removal_empties(self, base, vocab):
        cfg = AugmentConfig.disabled()
        cfg.token_removal_chance = 1.0
        cfg.token_removal_rate = 1.0
        out = augment(base, cfg, np.random.default_rng(0), vocab)
        assert out.length == 0
        assert out.modalities.shape == (1,)

    def test_noise_rebins_token(self, vocab):
        t0 = datetime(2021, 3, 1, 8, 0)
        seq = assemble_sequence(record_with([Event(t0, 0, 10.0, False)]), vocab, 10)
        cfg = AugmentConfig.disabled()
        cfg.noise_chance = 1.0
        cfg.noise_rate = 0.5
        for trial in range(20):
            out = augment(seq, cfg, np.random.default_rng(trial), vocab)
            m, b, _ = decode_token(vocab, int(out.tokens[0]))
            spec = vocab.modalities[0]
            edges = spec.bin_edges[1:-1]
            lo = -np.inf if b == 0 else edges[b - 1]
            hi = np.inf if b == len(edges) else edges[b]
            assert lo <= out.values[0] < hi or (b == len(edges) and out.values[0] >= edges[-1])

    def test_noise_never_touches_categorical(self, vocab):
        t0 = datetime(2021, 3, 1, 8, 0)
        seq = assemble_sequence(record_with([Event(t0, 2, "z", False)]), vocab, 10)
        cfg = AugmentConfig.disabled()
        cfg.noise_chance = 1.0
        out = augment(seq, cfg, np.random.default_rng(0), vocab)
        assert np.array_equal(out.tokens, seq.tokens)
        assert out.values[0] == 0.0

    def test_invariants_after_random_augment(self, base, vocab):
        cfg = AugmentConfig()
        for seed in range(60):
            out = augment(base, cfg, np.random.default_rng(seed), vocab)
            out.check()
            assert out.length <= base.length
            assert 0 <= out.visit_boundary <= out.length


class TestCohortIO:
    def test_jsonl_roundtrip(self, vocab, tmp_path):
        t0 = datetime(2021, 3, 1, 8, 0)
        records = [
            ParticipantRecord(
                "p9",
                61.5,
                "male",
                [Event(t0, 0, 9.25, False), Event(t0 + timedelta(hours=2), 2, "x", True)],
                [t0],
            )
        ]
        path = tmp_path / "c.jsonl"
        write_cohort_jsonl(records, vocab, path)
        loaded = read_cohort_jsonl(path, vocab)
        assert loaded[0].participant_id == "p9"
        assert loaded[0].age == 61.5
        assert loaded[0].events[0].value == 9.25
        assert loaded[0].events[1].value == "x"
        assert loaded[0].events[1].sleep_flag is True
        assert loaded[0].visit_timestamps == [t0]

    def test_malformed_line_reports_position(self, vocab, tmp_path):
        path = tmp_path / "bad.jsonl"
        for bad in ("not json", '{"id": "p", "age": null, "events": []}', '{"id": "p", "age": 1, "events": null}'):
            path.write_text('{"id": "o", "age": 1, "events": []}\n' + bad + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: "):
                read_cohort_jsonl(path, vocab)

    @pytest.mark.parametrize("key", ["0", "-1", "true"])
    def test_modality_id_in_place_of_a_name_reports_position(self, vocab, tmp_path, key):
        """An event names its modality: an id, the last modality's -1
        included, once read as an index into the vocabulary."""
        path = tmp_path / "bad.jsonl"
        event = '{"t": "2021-03-01T09:00:00", "m": %s, "v": 10.0}' % key
        path.write_text('{"id": "p", "age": 1, "events": [%s]}\n' % event, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: 'm' must be a modality name, got {key}")):
            read_cohort_jsonl(path, vocab)

    def test_unknown_modality_reports_its_own_rule(self, vocab, tmp_path):
        """An event naming a modality the vocabulary lacks once reported the
        rule before the lookup: `'m' must be non-empty, got "zz_nope"`."""
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p", "age": 1, "events": [{"t": "2021-03-01T09:00:00", "m": "zz_nope", "v": 1.0}]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"""{path}:1: 'm' must be a modality of the vocabulary, got "zz_nope\"""")):
            read_cohort_jsonl(path, vocab)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": "p", "age": 50, "sex": "Male", "events": []}', '\'sex\' must be one of female, male, unknown, got "Male"'),
            ('{"id": "p", "age": NaN, "sex": "male", "events": []}', "'age' must be finite, got NaN"),
            ('{"id": "p", "age": Infinity, "events": []}', "'age' must be finite, got Infinity"),
        ],
    )
    def test_bad_sex_or_age_reports_position(self, vocab, tmp_path, line, message):
        """json reads NaN and any string, but neither is a usable age or sex:
        an unlisted sex used to embed as `unknown`, a NaN age made every pass NaN."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "o", "age": 1, "events": []}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            read_cohort_jsonl(path, vocab)

    @pytest.mark.parametrize("sleep", ['"false"', '"0"', "1.5", "1", "null"])
    def test_sleep_flag_is_a_json_bool(self, vocab, tmp_path, sleep):
        """`"sleep": "false"` once set the time embedding's sleep column: the
        flag was read as `bool(...)`, so any non-empty string was true."""
        path = tmp_path / "c.jsonl"
        event = '{"t": "2021-03-01T09:00:00", "m": "a", "v": 10.0, "sleep": %s}' % sleep
        path.write_text('{"id": "p", "age": 1, "events": [%s]}\n' % event, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: event 'a': 'sleep' must be true or false, got {sleep}")):
            read_cohort_jsonl(path, vocab)

    def test_sleep_flag_defaults_to_false(self, vocab, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p", "age": 1, "events": [{"t": "2021-03-01T09:00:00", "m": "a", "v": 10.0}]}\n', encoding="utf-8")
        assert read_cohort_jsonl(path, vocab)[0].events[0].sleep_flag is False

    def test_participant_id_is_unique(self, vocab, tmp_path):
        """Two lines with one id once gave one participant's baselines and
        BMI feature to the other."""
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p", "age": 1, "events": []}\n{"id": "q", "age": 2, "events": []}\n'
                        '{"id": "p", "age": 3, "events": []}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"""{path}:3: 'id' must be unique in its file, got "p\"""")):
            read_cohort_jsonl(path, vocab)

    @pytest.mark.parametrize("line, message", [
        ('{"id": "p", "age": "58", "events": []}', """'age' must be a number, got "58\""""),
        ('{"id": "p", "age": true, "events": []}', "'age' must be a number, got true"),
        ('{"id": "", "age": 1, "events": []}', """'id' must be non-empty, got \"\""""),
        ('{"id": "p", "age": 1, "visits": "2021-01-01", "events": []}', """'visits' must be a list of ISO date-time strings, got "2021-01-01\""""),
        ('{"id": "p", "age": 1, "events": {}}', "'events' must be a list of objects, got {}"),
        ('{"id": "p", "age": 1, "events": [], "note": 1}', "has unknown key 'note': its keys are id, age, sex, visits, events"),
        ('{"id": "p", "age": 1, "events": [{"t": "2021-03-01T09:00:00", "m": "a", "v": true}]}',
         "event 'a': 'v' must be a number or a string, got true"),
        ('{"id": "p", "age": 1, "events": [{"t": "2021-13-01", "m": "a", "v": 1.0}]}',
         """event 'a': 't' must be an ISO date-time string, got "2021-13-01\""""),
    ], ids=["age-string", "age-bool", "id-empty", "visits-string", "events-object", "unknown-key", "value-bool", "bad-time"])
    def test_line_breaking_the_table_names_line_and_key(self, vocab, tmp_path, line, message):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1{'' if message.startswith('has') else ':'} {message}")):
            read_cohort_jsonl(path, vocab)
