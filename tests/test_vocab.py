import bisect
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlm.vocab import (
    DegenerateBinsWarning,
    InputError,
    RawModality,
    build_vocabulary,
    choose_bin_count,
    decode_token,
    encode_value,
    fit_bins,
    load_vocabulary,
    quantile_match,
    save_vocabulary,
    vocabulary_from_json,
    vocabulary_to_json,
)


def make_vocab(rng=None, bins=(4, 3, 2)):
    rng = rng or np.random.default_rng(0)
    raw = [
        RawModality(f"m{i}", "continuous", values=list(rng.normal(10 * i, 2, 500)), bin_count=k)
        for i, k in enumerate(bins)
    ]
    return build_vocabulary(raw)


class TestChooseBinCount:
    def test_override_wins(self):
        assert choose_bin_count(8_100_000, 30.0, override=129) == 129

    def test_lower_clamp(self):
        assert choose_bin_count(4, 1.0) == 2

    def test_sqrt_rule(self):
        assert choose_bin_count(10_000, 5.0) == 25

    def test_upper_clamp(self):
        assert choose_bin_count(10**9, 1.0) == 129

    def test_distinct_reduction(self):
        assert choose_bin_count(10_000, 5.0, n_distinct=3) == 3
        assert choose_bin_count(10_000, 5.0, n_distinct=1) == 1

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient data"):
            choose_bin_count(1, 1.0)


class TestFitBins:
    def test_equal_counts_1_to_8(self):
        values = list(range(1, 9))
        edges, mids, ranges, sd = fit_bins(values, 4)
        interior = edges[1:-1]
        counts = np.histogram(values, bins=[-np.inf] + interior + [np.inf])[0]
        assert list(counts) == [2, 2, 2, 2]
        assert len(mids) == 4 and len(ranges) == 4

    def test_degenerate_identical(self):
        with pytest.warns(DegenerateBinsWarning):
            edges, mids, ranges, sd = fit_bins([5.0, 5.0, 5.0, 5.0], 3)
        assert mids == [5.0]
        assert ranges == [(0.0, 1.0)]

    def test_uniform_counts(self):
        rng = np.random.default_rng(7)
        values = rng.random(10_000)
        edges, mids, ranges, _ = fit_bins(values, 10)
        interior = edges[1:-1]
        counts = np.histogram(values, bins=[-np.inf] + interior + [np.inf])[0]
        assert counts.min() >= 950 and counts.max() <= 1050

    def test_equal_frequency_within_2(self):
        rng = np.random.default_rng(3)
        values = rng.permutation(np.linspace(0, 1, 10_000))
        for k in (7, 10, 16):
            edges, *_ = fit_bins(values, k)
            counts = np.histogram(values, bins=[-np.inf] + edges[1:-1] + [np.inf])[0]
            assert np.all(np.abs(counts - 10_000 / k) <= 2), (k, counts)

    def test_midpoints_between_edges(self):
        edges, mids, _, _ = fit_bins(list(np.arange(100.0)), 5)
        for i, m in enumerate(mids):
            assert edges[i] <= m <= edges[i + 1]
            assert m == (edges[i] + edges[i + 1]) / 2

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit_bins([1.0, np.nan], 2)


class TestBuildVocabulary:
    def test_cumulative_offsets(self):
        vocab = make_vocab()
        assert [m.cum_base for m in vocab.modalities] == [0, 4, 7]
        assert vocab.total_tokens == 9
        assert vocab.pad_token == 9

    def test_total_is_sum_of_bins(self):
        rng = np.random.default_rng(5)
        bins = rng.integers(2, 30, size=40)
        vocab = make_vocab(rng, tuple(int(b) for b in bins))
        assert vocab.total_tokens == int(bins.sum())
        assert vocab.pad_token == vocab.total_tokens

    def test_single_categorical(self):
        vocab = build_vocabulary([RawModality("flag", "categorical", categories=["no", "yes"])])
        assert vocab.total_tokens == 2
        assert encode_value(vocab, 0, "no") == 0
        assert encode_value(vocab, 0, "yes") == 1

    def test_duplicate_names_rejected(self):
        raw = [
            RawModality("x", "continuous", values=[1.0, 2.0, 3.0]),
            RawModality("x", "categorical", categories=["a"]),
        ]
        with pytest.raises(ValueError, match="unique"):
            build_vocabulary(raw)

    def test_empty_continuous_names_modality(self):
        with pytest.raises(ValueError, match="empty_one"):
            build_vocabulary([RawModality("empty_one", "continuous", values=[])])


class TestEncodeDecode:
    @pytest.fixture
    def clip_vocab(self):
        # interior edges land at 10 and 20 for a 3-bin modality based at 5
        first = RawModality("pad5", "categorical", categories=list("abcde"))
        second = RawModality("m", "continuous", values=[0.0, 5.0, 15.0, 18.0, 25.0, 30.0], bin_count=3)
        return build_vocabulary([first, second])

    def test_last_bin(self, clip_vocab):
        m = clip_vocab.modalities[1]
        assert len(m.bin_edges[1:-1]) == 2
        assert encode_value(clip_vocab, 1, 25.0) == 5 + 2

    def test_clip_below(self, clip_vocab):
        assert encode_value(clip_vocab, 1, -999.0) == 5

    def test_category_offset(self):
        filler = RawModality("wide", "continuous", values=list(np.arange(400.0)), bin_count=40)
        exercise = RawModality("exercise", "categorical", categories=["resting", "running", "cycling"])
        vocab = build_vocabulary([filler, exercise])
        assert vocab.modalities[1].cum_base == 40
        assert encode_value(vocab, 1, "running") == 41

    def test_unknown_category(self, clip_vocab):
        with pytest.raises(ValueError, match="unknown category"):
            encode_value(clip_vocab, 0, "zzz")

    def test_nan_rejected(self, clip_vocab):
        with pytest.raises(ValueError, match="non-finite"):
            encode_value(clip_vocab, 1, float("nan"))

    def test_in_place_bisect_matches_the_interior_edges(self):
        """encode_value bisects bin_edges between its outer entries; the
        token is the bisect of the interior-edge copy it replaced, at every
        edge and midpoint, just beside each edge, beyond the observed range,
        and for one-bin, collapsed and hand-made short edge lists."""
        rng = np.random.default_rng(8)
        with pytest.warns(DegenerateBinsWarning):
            vocab = build_vocabulary([
                RawModality("pad5", "categorical", categories=list("abcde")),
                RawModality("m", "continuous", values=[0.0, 5.0, 15.0, 18.0, 25.0, 30.0], bin_count=3),
                RawModality("wide", "continuous", values=list(rng.normal(50.0, 20.0, 300)), bin_count=12),
                RawModality("one_bin", "continuous", values=[1.0, 2.0, 3.0], bin_count=1),
                RawModality("constant", "continuous", values=[5.0] * 6, bin_count=4),
            ])

        def check(m):
            probes = [*m.bin_edges, *m.midpoints, -1e9, 1e9]
            probes += [float(np.nextafter(e, side)) for e in m.bin_edges for side in (-np.inf, np.inf)]
            for x in probes:
                want = m.cum_base + bisect.bisect_right(m.bin_edges[1:-1], x)
                assert encode_value(vocab, m.id, x) == want, (m.name, m.bin_edges, x)

        for m in vocab.modalities[1:]:
            check(m)
        last = vocab.modalities[-1]
        for edges in ([7.0], []):  # shorter than any fitted modality's edges
            vocab.modalities[last.id] = replace(last, bin_edges=edges)
            check(vocab.modalities[last.id])

    def test_token_zero(self):
        vocab = make_vocab()
        m, b, mid = decode_token(vocab, 0)
        assert (m, b) == (0, 0)
        assert mid == vocab.modalities[0].midpoints[0]

    def test_pad_rejected(self):
        vocab = make_vocab()
        with pytest.raises(ValueError, match="non-measurement"):
            decode_token(vocab, vocab.pad_token)

    def test_roundtrip_exhaustive(self):
        rng = np.random.default_rng(1)
        vocab = make_vocab(rng, (6, 3, 9, 2, 5))
        for token in range(vocab.total_tokens):
            m, b, _ = decode_token(vocab, token)
            spec = vocab.modalities[m]
            assert spec.cum_base + b == token
            if spec.kind == "continuous":
                assert encode_value(vocab, m, spec.midpoints[b]) == token


class TestQuantileMatch:
    def test_median_maps_to_center(self):
        rng = np.random.default_rng(2)
        vocab = build_vocabulary(
            [RawModality("m", "continuous", values=list(rng.normal(0, 1, 4000)), bin_count=4)]
        )
        external = np.sort(rng.normal(100, 10, 1001))
        tokens = quantile_match(vocab, 0, external)
        median_token = tokens[500]
        assert median_token == 2  # the bin whose quantile range covers 0.5

    def test_minimum_maps_to_first_bin(self):
        rng = np.random.default_rng(2)
        vocab = build_vocabulary(
            [RawModality("m", "continuous", values=list(rng.normal(0, 1, 4000)), bin_count=5)]
        )
        external = rng.normal(50, 5, 400)
        tokens = quantile_match(vocab, 0, external)
        assert tokens[int(np.argmin(external))] == 0

    def test_shifted_distribution_occupancy(self):
        rng = np.random.default_rng(9)
        k = 8
        vocab = build_vocabulary(
            [RawModality("m", "continuous", values=list(rng.normal(0, 1, 8000)), bin_count=k)]
        )
        external = rng.normal(50, 1, 8000)
        tokens = np.array(quantile_match(vocab, 0, external))
        counts = np.bincount(tokens, minlength=k)
        expected = len(external) / k
        assert np.all(np.abs(counts - expected) <= 0.2 * expected), counts

    def test_rank_preserving(self):
        rng = np.random.default_rng(4)
        vocab = build_vocabulary(
            [RawModality("m", "continuous", values=list(rng.normal(0, 1, 2000)), bin_count=7)]
        )
        external = rng.standard_cauchy(1000)
        tokens = np.array(quantile_match(vocab, 0, external))
        order = np.argsort(external, kind="stable")
        assert np.all(np.diff(tokens[order]) >= 0)

    def test_categorical_rejected(self):
        vocab = build_vocabulary([RawModality("c", "categorical", categories=["a", "b"])])
        with pytest.raises(ValueError, match="continuous"):
            quantile_match(vocab, 0, [1.0])


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        vocab = make_vocab(rng, (5, 11, 3))
        path = tmp_path / "vocab.json"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        for a, b in zip(vocab.modalities, loaded.modalities):
            assert a.bin_edges == b.bin_edges
            assert a.midpoints == b.midpoints
            assert a.train_sd == b.train_sd
            assert a.quantile_ranges == b.quantile_ranges
            assert a.cum_base == b.cum_base
        assert loaded.total_tokens == vocab.total_tokens

    def test_serialization_is_deterministic(self):
        vocab = make_vocab()
        assert vocabulary_to_json(vocab) == vocabulary_to_json(vocab)
        again = vocabulary_from_json(vocabulary_to_json(vocab))
        assert vocabulary_to_json(again) == vocabulary_to_json(vocab)

    def test_seventeen_digit_floats(self):
        vocab = build_vocabulary(
            [RawModality("m", "continuous", values=[0.1, 0.2, 0.30000000000000004, 1 / 3], bin_count=2)]
        )
        text = vocabulary_to_json(vocab)
        assert "0.33333333333333331" in text or "0.1" in text
        reloaded = vocabulary_from_json(text)
        assert reloaded.modalities[0].bin_edges == vocab.modalities[0].bin_edges


    @pytest.mark.parametrize(
        "key, change, rule",
        [
            ("train_sd", {"train_sd": 0}, "finite and positive, got 0"),
            ("train_sd", {"train_sd": math.nan}, "finite and positive, got NaN"),
            ("train_sd", {"train_sd": -1}, "finite and positive, got -1"),
            ("cum_base", {"cum_base": 5}, "4, the token count of the modalities before it, got 5"),
            ("edges", {"edges": [0.0, 1.0, 2.0, 3.0, 4.0]}, "4 edges, one more than 'midpoints', got 5 edges"),
            ("edges", {"edges": [0.0, 1.0, 2.0]}, "4 edges, one more than 'midpoints', got 3 edges"),
        ],
        ids=["sd-zero", "sd-nan", "sd-negative", "cum-base-off-by-one", "edges-long", "edges-short"],
    )
    def test_broken_modality_rejected_at_load(self, tmp_path, key, change, rule):
        """A hand-edited file whose modality breaks what encoding and the loss
        rely on (a positive finite scale for the MAE weight and the value
        encoder, token ranges that tile the vocabulary, one more edge than
        bins) is one error at load naming the file, the modality and the key."""
        doc = json.loads(vocabulary_to_json(make_vocab()))
        doc["modalities"][1] |= change  # m1: three bins after m0's four tokens
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError) as e:
            load_vocabulary(path)
        assert str(e.value) == f"vocabulary {str(path)!r}: modality 'm1': {key!r} must be {rule}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["modalities"][1].pop("train_sd"), "modality 'm1' has no key 'train_sd'"),
            (lambda doc: "{" + json.dumps(doc), "malformed JSON in vocabulary"),
            (lambda doc: doc["modalities"][1].update(name=5), "'name' must be a string, got 5"),
            (lambda doc: doc["modalities"][1].update(name="m0"), """'name' must be unique in its file, got "m0\""""),
            (lambda doc: doc.update(modalities={}), "'modalities' must be a list of objects, got {}"),
            (lambda doc: doc["modalities"][1].update(note=1), "modality 'm1' has unknown key 'note'"),
            (lambda doc: doc["modalities"][1].update(quantile_ranges=[]), "'quantile_ranges' must be 3 pairs, one per midpoint, got 0 pairs"),
            (lambda doc: doc["modalities"].append({**doc["modalities"][0], "name": "c", "kind": "categorical", "edges": [], "midpoints": [],
                                                   "quantile_ranges": [], "categories": ["a", "a"], "cum_base": 9}),
             """modality 'c': 'categories' must be without a repeat, got ["a", "a"]"""),
        ],
        ids=["missing-key", "malformed", "name-number", "name-repeated", "modalities-object", "unknown-key", "ranges-missing",
             "category-repeated"],
    )
    def test_broken_file_is_one_error_naming_file_and_key(self, tmp_path, edit, message):
        """Each of these once passed the load or failed without naming the
        file: a missing key was a bare KeyError, malformed JSON a bare
        JSONDecodeError, a number or repeated name was accepted (and the
        cohort read then blamed the cohort), `"modalities": {}` was a token
        count mismatch, and an unknown key was ignored.  Without its quantile
        ranges a modality loaded, and `quantile_match` put its values on the
        token before its range; a repeated category loaded as a token no
        value encodes to."""
        doc = json.loads(vocabulary_to_json(make_vocab()))
        text = edit(doc)
        path = tmp_path / "vocab.json"
        path.write_text(text if isinstance(text, str) else json.dumps(doc), encoding="utf-8")
        with pytest.raises(InputError) as e:
            load_vocabulary(path)
        assert f"vocabulary {str(path)!r}" in str(e.value) and message in str(e.value), str(e.value)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(-1e5, 1e5), min_size=3, max_size=120),
        k=st.integers(1, 12),
        probe=st.floats(-2e5, 2e5),
    )
    def test_monotone_binning(self, values, k, probe):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vocab = build_vocabulary([RawModality("m", "continuous", values=values, bin_count=k)])
        lo = encode_value(vocab, 0, probe)
        hi = encode_value(vocab, 0, probe + abs(probe) * 0.1 + 1.0)
        assert lo <= hi

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=5, max_size=60), st.integers(2, 6))
    def test_decode_encode_identity(self, values, k):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vocab = build_vocabulary([RawModality("m", "continuous", values=values, bin_count=k)])
        for token in range(vocab.total_tokens):
            m, b, mid = decode_token(vocab, token)
            assert encode_value(vocab, m, mid) == token
