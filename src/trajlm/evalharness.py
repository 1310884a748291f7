"""Decoding and evaluation: expected-value decoding, within-visit and
longitudinal prediction pools and their per-modality report, forecasting
baselines, and cross-modal probes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .corpus import ParticipantRecord, SEX_INDEX, TokenSequence, assemble_sequence, event_order, time_features, v1_context
from .model import Causal, ModelConfig, ParallelV2, build_mask, forward, value_scale_table
from .numerics import Tensor
from .stats import bh_fdr, fisher_z_compare, pearson_with_ci
from .vocab import CONTINUOUS, Vocabulary, encode_value

__all__ = [
    "ModalityMetrics",
    "MetricReport",
    "decode_block",
    "decode_expected",
    "pool_metrics",
    "merge_pools",
    "within_visit_pools",
    "longitudinal_pools",
    "plan_queries",
    "baseline_predict",
    "compare_baseline",
    "crossmodal_sweep",
    "write_csv",
    "write_metric_csv",
]


@dataclass
class ModalityMetrics:
    modality_id: int
    name: str
    kind: str
    n: int
    r: float = math.nan
    p: float = math.nan
    ci_low: float = math.nan
    ci_high: float = math.nan
    top1: float = math.nan
    top5: float = math.nan


@dataclass
class MetricReport:
    rows: list[ModalityMetrics] = field(default_factory=list)

    def median_r(self) -> float:
        rs = [row.r for row in self.rows if not math.isnan(row.r)]
        return float(np.median(rs)) if rs else math.nan


def decode_block(block, widths, mids, truth=None):
    """Decode a ranged output-head block, as `forward(..., head=...)` returns it.

    Row i holds the logits of one modality's widths[i] tokens; the columns
    past widths[i] are padding and count as absent.  Returns (expected,
    ranks): expected[i] is the float64 softmax over the row's own entries
    times mids[i], the row's bin midpoints; ranks[i] is the number of the
    row's entries that beat entry truth[i], ties going to the lower token
    id, so truth[i] is in the top K exactly when ranks[i] < K (None when
    truth is).  widths=None is every row at full width.  The sums run left
    to right, so the padding's zeros come last and change nothing: a row
    decodes bitwise the same in a block of any width.
    """
    z = np.array(block, dtype=np.float64)
    col = np.arange(z.shape[1])
    if widths is not None:
        z[col >= np.asarray(widths)[:, None]] = -np.inf
    p = np.exp(z - z.max(axis=1, keepdims=True))
    expected = np.add.accumulate(p * mids, axis=1)[:, -1] / np.add.accumulate(p, axis=1)[:, -1]
    if truth is None:
        return expected, None
    truth = np.asarray(truth, dtype=np.int64)
    t = z[np.arange(len(z)), truth][:, None]
    return expected, np.sum((z > t) | ((z == t) & (col < truth[:, None])), axis=1)


def decode_expected(logits_row: np.ndarray, vocab: Vocabulary, modality_id: int) -> float:
    """Probability-weighted mean of bin midpoints of one logits row (decode_block):
    a full-width row, or one at the modality's range as `forward(..., head=...)` gives it."""
    spec = vocab.modalities[modality_id]
    if spec.kind != CONTINUOUS:
        raise ValueError(f"modality {spec.name!r} is categorical: use top-K accuracy")
    w = len(spec.midpoints)
    row = np.asarray(logits_row)
    a = 0 if row.shape[-1] == w else spec.cum_base
    return float(decode_block(row[None, a : a + w], None, spec.midpoints)[0][0])


def pool_metrics(pools, vocab: Vocabulary) -> MetricReport:
    """Per-modality metrics, continuous modalities first, from each pool's last
    two lists: Pearson r of a continuous (prediction, truth) pool, top-1 and
    top-min(5, width) of a categorical (rank, truth) one."""
    report = MetricReport()
    for m in sorted(pools, key=lambda m: (vocab.modalities[m].kind != CONTINUOUS, m)):
        got, trues = pools[m][-2:]
        spec = vocab.modalities[m]
        row = ModalityMetrics(m, spec.name, spec.kind, len(got))
        if spec.kind != CONTINUOUS:
            ranks = np.asarray(got)
            row.top1, row.top5 = (float(np.mean(ranks < k)) for k in (1, min(5, spec.n_tokens)))
        elif len(got) < 2:
            continue
        else:
            try:
                r, p, ci = pearson_with_ci(got, trues)
                row.r, row.p, row.ci_low, row.ci_high = r, p, ci[0], ci[1]
            except ValueError:
                pass
        report.rows.append(row)
    return report


def _pass(params, config, vocab: Vocabulary, seq, age, sex, kind, rows, mods, read=None, **streams):
    """The one inference forward: `seq` under a `kind` mask, with `forward`'s
    query streams and position ids in `streams`, head row i being rows[i] at
    the range of modality mods[i].  Returns the decoded head rows `read`
    (default all): `decode_expected` of a continuous one, and of a
    categorical one the rank (decode_block) of its true token seq.tokens[rows[i] + 1]."""
    starts, widths, mids = vocab.head_ranges(mods)
    block = forward(
        params, config, seq.tokens, seq.values, seq.modalities, seq.times, age, sex, build_mask(kind, seq.length),
        value_scale_table(vocab), **streams, head=(rows, starts, widths),
    ).data
    read = range(len(mods)) if read is None else read
    cat = [i for i in read if vocab.modalities[mods[i]].kind != CONTINUOUS]
    truth = seq.tokens[np.asarray(rows)[cat] + 1] - starts[cat]
    ranks = dict(zip(cat, decode_block(block[cat], widths[cat], mids[cat], truth)[1].tolist())) if cat else {}
    return [ranks[i] if i in ranks else decode_expected(block[i, : widths[i]], vocab, int(mods[i])) for i in read]


def within_visit_pools(
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab: Vocabulary,
    records: list[ParticipantRecord],
):
    """Per-modality pools under the causal mask, (expected value, true value)
    for a continuous modality and (rank, index) of the true category for a
    categorical one, plus the number of participants scored (a sequence
    shorter than 2 tokens has no target and is skipped).  Each pass computes
    only row j - 1 at the range of target j's modality."""
    pools: dict[int, tuple[list, list]] = {}
    scored = 0
    for rec in records:
        seq = assemble_sequence(rec, vocab, config.max_seq_len)
        if seq.length < 2:
            continue
        scored += 1
        mods = seq.modalities[1 : seq.length].tolist()
        got = _pass(params, config, vocab, seq, rec.age, rec.sex, Causal(), np.arange(seq.length - 1), mods)
        for j, (m, value) in enumerate(zip(mods, got), 1):
            spec = vocab.modalities[m]
            pool = pools.setdefault(m, ([], []))
            pool[0].append(value)
            pool[1].append(float(seq.values[j]) if spec.kind == CONTINUOUS else int(seq.tokens[j]) - spec.cum_base)
    return pools, scored


def merge_pools(parts):
    """Deterministic ordered merge of per-chunk pools."""
    merged: dict[int, tuple] = {}
    for part in parts:
        for m, lists in part.items():
            for dst, src in zip(merged.setdefault(m, tuple([] for _ in lists)), lists):
                dst.extend(src)
    return merged


def _visit_values(rec: ParticipantRecord, vocab: Vocabulary):
    """In a two-visit record, each modality's last visit-1 value and each
    continuous modality's first visit-2 (time, value), events taken in
    `event_order`."""
    v2_start = rec.visit_timestamps[1]
    last_v1: dict[int, float | str] = {}
    first_v2: dict[int, tuple[datetime, float]] = {}
    for ev in sorted(rec.events, key=event_order):
        if ev.timestamp < v2_start:
            last_v1[ev.modality] = ev.value
        elif ev.modality not in first_v2 and vocab.modalities[ev.modality].kind == CONTINUOUS:
            first_v2[ev.modality] = (ev.timestamp, float(ev.value))
    return last_v1, first_v2


def predict_queries(
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab: Vocabulary,
    seq,
    age: float,
    sex: str,
    queries: list[tuple[int, datetime] | tuple[int, datetime, int]],
) -> list[float]:
    """Expected values for several (modality, time) queries in one forward pass.

    The context is shared; every query rides in its own probe/prediction slot
    pair under the parallel mask, so predictions are mutually independent and
    invariant to query order.  A query given as (modality, time, n) is
    answered from the first n context positions only, as if the sequence
    ended there.  A query on an empty context (n = 0) is a ValueError.
    """
    n, k = seq.length, len(queries)
    if k == 0:
        return []
    lens = tuple(q[2] if len(q) > 2 else n for q in queries)
    if min(lens) == 0:
        raise ValueError("cannot answer a query on an empty context")
    q_ids = [q[0] for q in queries]
    q_times = np.array([time_features(q[1]) for q in queries], dtype=np.int64)
    # Each query's modality and time fill its probe and prediction slots, and
    # the query streams of its prediction slot preds[i]; the head reads no other row.
    preds = n + 1 + 2 * np.arange(k)
    mods = np.concatenate([seq.modalities[:n], np.repeat(q_ids, 2), [vocab.n_modalities]])
    times = np.concatenate([seq.times[:n], np.repeat(q_times, 2, axis=0), seq.times[n - 1 : n]])
    query_mods, query_times = mods[1:].copy(), times[1:].copy()
    query_mods[preds], query_times[preds] = q_ids, q_times
    packed = TokenSequence(np.append(seq.tokens, [vocab.pad_token] * (2 * k)), np.append(seq.values, np.zeros(2 * k)), mods, times, n)
    # Every queried range is read at all k prediction rows, so each answer comes from
    # row i of a k-row product whatever its companions' modalities (BLAS may round a
    # row differently as a product's row count changes).
    ranged, group = np.unique(q_ids, return_inverse=True)
    return _pass(
        params, config, vocab, packed, age, sex, ParallelV2(n, k, lens), np.tile(preds, len(ranged)),
        np.repeat(ranged, k), read=group * k + np.arange(k), query_modalities=query_mods, query_times=query_times,
        pos_ids=np.concatenate([np.arange(n), np.repeat(lens, 2) + np.tile([0, 1], k)]),
    )


def _is_prefix(short, long) -> bool:
    """Whether `short` equals the first positions of `long` in every stream."""
    n = short.length
    return (
        n <= long.length
        and np.array_equal(short.tokens, long.tokens[:n])
        and np.array_equal(short.values, long.values[:n])
        and np.array_equal(short.modalities[:n], long.modalities[:n])
        and np.array_equal(short.times[:n], long.times[:n])
    )


def plan_queries(
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab: Vocabulary,
    age: float,
    sex: str,
    requests: list[tuple],
) -> list[float]:
    """Answer one participant's (context, modality, time) requests with the
    fewest forward passes; returns one expected value per request, in order.

    A context whose streams equal the first n positions of a longer context
    rides in that context's pass with prefix length n, identical requests are
    answered once, and each remaining host context gets one predict_queries
    call.  Contexts are compared by content, so a context that is not a
    prefix costs a pass of its own, never a wrong answer.
    """
    contexts = list({id(seq): seq for seq, _, _ in requests}.values())
    hosts: list = []
    place: dict[int, tuple[int, int]] = {}  # id(context) -> (host index, prefix length)
    for seq in sorted(contexts, key=lambda s: -s.length):
        h = next((j for j, host in enumerate(hosts) if _is_prefix(seq, host)), len(hosts))
        if h == len(hosts):
            hosts.append(seq)
        place[id(seq)] = (h, seq.length)
    slots: list[dict] = [{} for _ in hosts]  # per host: (modality, time, n) -> slot
    where = []
    for seq, m, when in requests:
        h, n = place[id(seq)]
        where.append((h, slots[h].setdefault((int(m), when, n), len(slots[h]))))
    answers = [
        predict_queries(params, config, vocab, host, age, sex, list(slots[h]))
        for h, host in enumerate(hosts)
    ]
    return [answers[h][i] for h, i in where]


def longitudinal_pools(
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab: Vocabulary,
    records: list[ParticipantRecord],
):
    """Per-modality (pid, predicted, true) pools for the V1 -> V2 task, and
    the participants counted by what became of them: forecast, or skipped
    as single-visit, with an empty visit-1 context, or with no continuous
    visit-2 target."""
    pools: dict[int, tuple[list, list, list]] = {}
    counts = dict.fromkeys(("forecast", "single_visit", "empty_visit1_context", "no_visit2_target"), 0)
    for rec in records:
        if len(rec.visit_timestamps) < 2:
            counts["single_visit"] += 1
            continue
        seq = assemble_sequence(v1_context(rec), vocab, config.max_seq_len)
        if seq.length == 0:
            counts["empty_visit1_context"] += 1
            continue
        _, targets = _visit_values(rec, vocab)
        if not targets:
            counts["no_visit2_target"] += 1
            continue
        counts["forecast"] += 1
        mods = sorted(targets)
        requests = [(seq, m, targets[m][0]) for m in mods]
        predictions = plan_queries(params, config, vocab, rec.age, rec.sex, requests)
        for m, pred in zip(mods, predictions):
            pool = pools.setdefault(m, ([], [], []))
            pool[0].append(rec.participant_id)
            pool[1].append(pred)
            pool[2].append(targets[m][1])
    return pools, counts


def _baseline_pairs(records: list[ParticipantRecord], vocab: Vocabulary):
    """Each continuous modality's V1 -> V2 pairs (`_visit_values`) as (pids,
    V1 values, design rows, V2 values).  A design row is an intercept, the V1
    value's token, age, sex and the BMI token: the last V1 token of the
    vocabulary's `bmi` modality, 0 when there is none."""
    bmi = next((m.id for m in vocab.modalities if m.name == "bmi"), None)
    pairs: dict[int, tuple[list, list, list, list]] = {}
    for rec in records:
        if len(rec.visit_timestamps) < 2:
            continue
        last_v1, first_v2 = _visit_values(rec, vocab)
        bmi_token = float(encode_value(vocab, bmi, last_v1[bmi])) if bmi in last_v1 else 0.0
        for m in sorted(set(last_v1) & set(first_v2)):
            v1 = float(last_v1[m])
            pids, v1s, rows, v2s = pairs.setdefault(m, ([], [], [], []))
            pids.append(rec.participant_id)
            v1s.append(v1)
            rows.append([1.0, encode_value(vocab, m, v1), int(rec.age), SEX_INDEX[rec.sex], bmi_token])
            v2s.append(first_v2[m][1])
    return pairs


def baseline_predict(
    kind: str,
    train_records: list[ParticipantRecord],
    test_records: list[ParticipantRecord],
    vocab: Vocabulary,
):
    """Forecasting baselines for the V1 -> V2 task: 'locf' copies the V1
    value, 'linear' fits per-modality OLS on `_baseline_pairs`' design rows.
    Returns {modality_id: {pid: prediction}} and the skipped modalities'
    names: 'linear' skips a modality with fewer than 5 training pairs."""
    if kind not in ("locf", "linear"):
        raise ValueError(f"unknown baseline kind {kind!r}")
    test = _baseline_pairs(test_records, vocab)
    if kind == "locf":
        return {m: dict(zip(pids, v1s)) for m, (pids, v1s, _, _) in test.items()}, []
    train = _baseline_pairs(train_records, vocab)
    out: dict[int, dict[str, float]] = {}
    skipped: list[str] = []
    for m, (pids, _, rows, _) in test.items():
        _, _, train_rows, y = train.get(m, ((), (), [], []))
        if len(train_rows) < 5:
            skipped.append(vocab.modalities[m].name)
            continue
        coef, *_ = np.linalg.lstsq(np.array(train_rows, dtype=np.float64), np.array(y), rcond=None)
        out[m] = dict(zip(pids, map(float, np.array(rows, dtype=np.float64) @ coef)))
    return out, skipped


def compare_baseline(pools, preds, vocab: Vocabulary, kind: str):
    """(report, comparisons) of a baseline's `preds` on the model's own
    V1 -> V2 pairs `pools`: each modality with at least 4 pairs the baseline
    predicts gets a row, its Pearson r, and a Fisher z comparison with the
    model's r on those pairs, flagged `significant_fdr05` by BH at 5%."""
    report, comparisons = MetricReport(), []
    for m, (pids, model, trues) in sorted(pools.items()):
        keep = [i for i, pid in enumerate(pids) if pid in preds.get(m, ())]
        if len(keep) < 4:
            continue
        truth = [trues[i] for i in keep]
        try:
            r, p, ci = pearson_with_ci([preds[m][pids[i]] for i in keep], truth)
        except ValueError:
            continue
        name = vocab.modalities[m].name
        report.rows.append(ModalityMetrics(m, name, CONTINUOUS, len(keep), r, p, *ci))
        try:
            r_model = pearson_with_ci([model[i] for i in keep], truth)[0]
            z, zp = fisher_z_compare(*(float(np.clip(v, -0.999999, 0.999999)) for v in (r_model, r)), len(keep))
        except ValueError:
            continue
        comparisons.append({"modality": name, "model_r": r_model, f"{kind}_r": r, "z": z, "p": zp})
    for c, flag in zip(comparisons, bh_fdr([c["p"] for c in comparisons], 0.05)):
        c["significant_fdr05"] = bool(flag)
    return report, comparisons


def crossmodal_sweep(
    params: dict[str, Tensor],
    config: ModelConfig,
    vocab: Vocabulary,
    m_in: int,
    m_out: int,
    when: datetime,
):
    """Minimal 2-position probe: one input token, one query, per input bin,
    for a participant aged 50 of unknown sex.

    Returns (input midpoints, expected output values) over the input modality's
    full bin range.
    """
    spec_in = vocab.modalities[m_in]
    spec_out = vocab.modalities[m_out]
    if spec_out.kind != CONTINUOUS:
        raise ValueError(f"probe target {spec_out.name!r} must be continuous")
    if spec_in.kind != CONTINUOUS:
        raise ValueError(f"probe input {spec_in.name!r} must be continuous")
    xs = np.array(spec_in.midpoints)
    mods = np.array([m_in, m_out], dtype=np.int64)
    times = np.array([time_features(when)] * 2, dtype=np.int64)
    ys = [
        _pass(params, config, vocab, TokenSequence(np.array([spec_in.cum_base + b]), np.array([mid]), mods, times, 0),
              50.0, "unknown", Causal(), [0], [m_out])[0]
        for b, mid in enumerate(xs)
    ]
    return xs, np.array(ys)


def write_csv(path, meta: dict, columns, rows, notes=()) -> None:
    """Write one CSV artifact: `meta` as sorted `# key=value` lines, then the
    (key, value) pairs of `notes` the same way in their given order, then the
    column header and the rows."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("".join(f"# {k}={v}\n" for k, v in [*sorted(meta.items()), *notes]))
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)


def write_metric_csv(report: MetricReport, path, meta: dict | None = None) -> None:
    fields = ("r", "p", "ci_low", "ci_high", "top1", "top5")
    write_csv(
        path, meta or {}, ["modality", "n", *fields],
        ([row.name, row.n, *(_fmt_stat(getattr(row, k)) for k in fields)] for row in report.rows),
    )


def _fmt_stat(x: float) -> str:
    return "" if math.isnan(x) else format(x, ".10g")
