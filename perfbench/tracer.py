"""Span recorder, function patcher, and the arithmetic the benchmark reports.

This module imports nothing outside the standard library, so the benchmark's
own tests can exercise it without the package under test or numpy.

A span is a tuple ``(id, parent_id, name, start_ns, end_ns)``; the run id is
held once by the recorder and written out with every span.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict

ROOT = -1

# Standard percentiles, lowest first; the median is always reported.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest standard percentile above the median with at least ten of `n`
    samples beyond it, or None when no tail percentile is supported."""
    best = None
    for q in PERCENTILES[1:]:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            best = q
    return best


def summarize(values) -> dict:
    """The count, the median, and each standard percentile up to the highest
    one the sample count supports, keyed "p50", "p90", ..."""
    n = len(values)
    out = {"n": n, "p50": percentile(values, 50.0)}
    top = tail_percentile(n) or 0.0
    for q in PERCENTILES[1:]:
        if q <= top:
            out[f"p{q:g}"] = percentile(values, q)
    return out


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the part of [start, end) covered by the union of intervals."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s = max(s, cursor)
        e = min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


class Recorder:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: Counter = Counter()
        self.notes: dict[int, object] = {}  # span id -> value a probe attached
        self.stack: list[int] = []
        self.next_id = 0

    def wrap(self, name: str, fn, probe=None):
        """Return a wrapper that records one span per call of `fn`.

        `probe(recorder, span_id, args, kwargs, result, duration_ns)` runs after
        the span closes, so its own cost is never charged to `name`.
        """
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else ROOT
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if probe is not None:
                probe(self, sid, args, kwargs, result, end - start)
            return result

        traced.span_name = name
        return traced

    def children(self) -> dict[int, list[tuple]]:
        kids: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            kids[span[1]].append(span)
        return kids

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the part its child spans cover."""
        kids = self.children()
        out = {}
        for sid, _, _, start, end in self.spans:
            inner = [(c[3], c[4]) for c in kids.get(sid, ())]
            out[sid] = (end - start) - covered_ns(start, end, inner)
        return out

    def by_name(self) -> dict[str, dict]:
        """Per-name calls, inclusive seconds and self seconds.

        Inclusive time counts only outermost calls of a name, so a recursive
        or re-entrant call is not counted twice.
        """
        selfs = self.self_times()
        names = {s[0]: s[2] for s in self.spans}
        parent = {s[0]: s[1] for s in self.spans}
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _, name, start, end in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += selfs[sid] / 1e9
            p = parent[sid]
            while p != ROOT and names.get(p) != name:
                p = parent.get(p, ROOT)
            if p == ROOT:
                st["s"] += (end - start) / 1e9
        return dict(stats)

    def descendants(self, ancestor_name: str, name: str) -> dict[int, list[int]]:
        """For each span called `ancestor_name`: ids of the `name` spans under it."""
        names = {s[0]: s[2] for s in self.spans}
        parent = {s[0]: s[1] for s in self.spans}
        out: dict[int, list[int]] = {s[0]: [] for s in self.spans if s[2] == ancestor_name}
        for sid, _, n, _, _ in self.spans:
            if n != name:
                continue
            p = parent[sid]
            while p != ROOT:
                if names[p] == ancestor_name:
                    out[p].append(sid)
                p = parent[p]
        return out

    def write_jsonl(self, path, append: bool = False) -> None:
        with open(path, "a" if append else "w", encoding="utf-8") as f:
            for sid, parent, name, start, end in sorted(self.spans):
                f.write(json.dumps([self.run_id, sid, parent, name, start, end], separators=(",", ":")))
                f.write("\n")


class Patcher:
    """Rebinds attributes on modules or classes and restores every one.

    A function imported by name is bound in each importing module, so
    `patch_everywhere` replaces every binding that holds the same object.
    """

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch_everywhere(self, owners, original, new) -> int:
        hits = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self.patch(owner, attr, new)
                    hits += 1
        return hits

    def restore(self) -> list[str]:
        """Put every original back; return the bindings that did not restore."""
        done = []
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
            done.append((owner, attr, original))
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in done
            if vars(owner).get(attr) is not original
        ]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        bad = self.restore()
        if bad and exc[0] is None:
            raise RuntimeError(f"patched names not restored: {bad}")
        return False
