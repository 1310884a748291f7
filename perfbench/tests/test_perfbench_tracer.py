"""Arithmetic and patching rules the benchmark's reports rest on."""

import json
import statistics
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from tracer import ROOT, Patcher, Recorder, covered_ns, percentile, summarize, tail_percentile  # noqa: E402


class TestPercentileRule:
    @pytest.mark.parametrize(
        "n, q",
        [(1, None), (19, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
    )
    def test_tail_needs_ten_samples_beyond(self, n, q):
        assert tail_percentile(n) == q

    def test_summary_reports_count_and_only_supported_tail(self):
        small = summarize([5.0, 1.0, 3.0])
        assert small == {"n": 3, "p50": 3.0}
        big = summarize([float(i) for i in range(1, 201)])
        assert sorted(big) == ["n", "p50", "p90"]
        assert big["p90"] == pytest.approx(180.1)
        assert sorted(summarize([1.0] * 1000)) == ["n", "p50", "p90", "p99"]

    def test_linear_interpolation_matches_statistics(self):
        xs = [3.0, 9.0, 1.0, 4.0, 7.0, 2.0]
        assert percentile(xs, 50.0) == statistics.median(xs)
        q = statistics.quantiles(xs, n=4, method="inclusive")
        assert [percentile(xs, 25.0), percentile(xs, 75.0)] == pytest.approx([q[0], q[2]])

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)


class TestSelfTime:
    def test_nested_spans(self):
        rec = Recorder("r")
        # outer [0, 100) holds a [10, 30) and b [40, 90); b holds c [50, 60)
        rec.spans = [
            (2, 1, "a", 10, 30),
            (4, 3, "c", 50, 60),
            (3, 1, "b", 40, 90),
            (1, ROOT, "outer", 0, 100),
        ]
        assert rec.self_times() == {1: 30, 2: 20, 3: 40, 4: 10}
        stats = rec.by_name()
        assert stats["outer"]["self_s"] == pytest.approx(30e-9)
        assert stats["b"]["s"] == pytest.approx(50e-9)
        assert rec.descendants("outer", "c") == {1: [4]}

    def test_reentrant_name_counts_inclusive_time_once(self):
        rec = Recorder("r")
        rec.spans = [(2, 1, "f", 10, 20), (1, ROOT, "f", 0, 50)]
        stats = rec.by_name()["f"]
        assert stats["calls"] == 2
        assert stats["s"] == pytest.approx(50e-9)
        assert stats["self_s"] == pytest.approx(50e-9)

    def test_overlapping_children_are_covered_once(self):
        assert covered_ns(0, 100, [(10, 40), (30, 50), (90, 120)]) == 50

    def test_recorded_spans_nest_through_wrappers(self):
        rec = Recorder("r")

        def inner():
            time.sleep(0.002)

        w_inner = rec.wrap("inner", inner)

        def outer():
            w_inner()
            w_inner()

        rec.wrap("outer", outer)()
        (o,) = [s for s in rec.spans if s[2] == "outer"]
        kids = [s for s in rec.spans if s[1] == o[0]]
        assert len(kids) == 2 and all(s[2] == "inner" for s in kids)
        selfs = rec.self_times()
        assert selfs[o[0]] + sum(k[4] - k[3] for k in kids) == o[4] - o[3]


class TestPatcher:
    def _modules(self):
        def f(x):
            return x + 1

        home = types.ModuleType("home")
        home.f = f
        user = types.ModuleType("user")
        user.f = f  # imported by name
        user.other = len
        return f, home, user

    def test_wraps_every_binding_and_restores(self):
        f, home, user = self._modules()
        rec = Recorder("r")
        with Patcher() as patcher:
            hits = patcher.patch_everywhere([home, user], f, rec.wrap("home.f", f))
            assert hits == 2
            assert home.f(1) == 2 and user.f(2) == 3
            assert home.f is not f and user.other is len
        assert home.f is f and user.f is f
        assert [s[2] for s in rec.spans] == ["home.f", "home.f"]

    def test_restores_class_attribute_and_reports_nothing_left(self):
        class Arm:
            def ci(self):
                return 1

        original = vars(Arm)["ci"]
        patcher = Patcher()
        patcher.patch(Arm, "ci", lambda self: 2)
        assert Arm().ci() == 2
        assert patcher.restore() == []
        assert vars(Arm)["ci"] is original and Arm().ci() == 1

    def test_restores_after_an_exception(self):
        f, home, user = self._modules()
        with pytest.raises(KeyError):
            with Patcher() as patcher:
                patcher.patch_everywhere([home, user], f, lambda x: x)
                raise KeyError("boom")
        assert home.f is f and user.f is f


def test_benchmark_json_names_every_per_layer_metric():
    import layers

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER
