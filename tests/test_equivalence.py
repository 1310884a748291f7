"""The same numbers over many layouts: `model.forward` against the
plain-numpy oracle (`tests/oracle.py`), over drawn model shapes, lengths,
mask kinds, head selections and dtypes.

Lengths run from 1 to 300, across the 128-row attention blocks and GELU
chunks, and every parameter is drawn from N(0, 4 / d_model), so GELU
arguments are O(1) and the GELU rule shows in the logits (up to the clamp
of 50).  Each property's bound, and beside it the largest difference
measured over the examples drawn here (derandomized, `tests/conftest.py`)
and, in float32, over several hundred random draws of the same strategies:

- forward against the oracle: 1e-10 in float64 (measured 6.7e-14) and
  1e-3 in float32 (measured 7.8e-5 here, 2.5e-4 over 450 random draws;
  against the exact-erf GELU the same float32 logits read 3.2e-4 to 9e-2,
  above 1e-3 in 97% of draws);
- taped against tape-free outputs: byte for byte;
- a k-query `ParallelV2` pass against k single-query passes, each over its
  own context: 1e-10 in float64 (measured 2.1e-14) and 1e-4 in float32
  (measured 1.1e-5 here, 1.3e-5 over 200 random draws).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlm.corpus import SEX_INDEX
from trajlm.model import Causal, ModelConfig, ParallelV2, SplitContext, build_mask, forward, init_params
from trajlm.numerics import Tensor

import oracle

BOUND = {np.float64: 1e-10, np.float32: 1e-3}
PACKED_BOUND = {np.float64: 1e-10, np.float32: 1e-4}
MAX_T = 300
DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
KINDS = pytest.mark.parametrize("kind", ["causal", "split", "parallel"])


@st.composite
def models(draw, dtype):
    """(config, params, rng): a small model in `dtype` whose every parameter
    is drawn, and the generator that draws its inputs."""
    d_model = draw(st.sampled_from([4, 8, 16]))
    config = ModelConfig(
        vocab_size=draw(st.integers(2, 12)),
        n_modalities=draw(st.integers(1, 4)),
        d_model=d_model,
        n_layers=draw(st.integers(1, 2)),
        n_heads=draw(st.integers(1, 3)),
        d_head=draw(st.sampled_from([2, 4])),
        n_value_extras=draw(st.integers(0, 2)),
        cont_pe_dim=draw(st.sampled_from([4, 8])),
        dropout=0.0,
        max_seq_len=MAX_T,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(config, rng, dtype=dtype)
    for p in params.values():
        p.data[...] = rng.normal(0.0, 2.0 / np.sqrt(d_model), size=p.data.shape)
    return config, params, rng


def context(config, rng, t):
    """Random streams of a t-token context: tokens, values, and the t + 1
    modalities and time features `forward` takes."""
    sizes = config.temporal_vocab_sizes
    return (
        rng.integers(0, config.vocab_size, t),
        rng.normal(0.0, 2.0, t),
        rng.integers(0, config.n_modalities + 1, t + 1),
        np.column_stack([rng.integers(0, s, t + 1) for s in sizes]),
    )


def packed(config, ctx, lens, q_mods, q_times):
    """`forward`'s arguments for a `ParallelV2` pass over the context `ctx`
    with one probe/prediction slot pair per query, laid out as
    `evalharness.predict_queries` lays them out; and the prediction rows."""
    tokens, values, mods, times = ctx
    n, k = len(tokens), len(lens)
    preds = n + 1 + 2 * np.arange(k)
    mods = np.concatenate([mods[:n], np.repeat(q_mods, 2), [config.n_modalities]])
    times = np.concatenate([times[:n], np.repeat(q_times, 2, axis=0), times[n - 1 : n]])
    query_mods, query_times = mods[1:].copy(), times[1:].copy()
    query_mods[preds], query_times[preds] = q_mods, q_times
    streams = (np.append(tokens, [config.vocab_size] * (2 * k)), np.append(values, np.zeros(2 * k)), mods, times)
    layout = {
        "query_modalities": query_mods,
        "query_times": query_times,
        "pos_ids": np.concatenate([np.arange(n), np.repeat(lens, 2) + np.tile([0, 1], k)]),
    }
    return streams, build_mask(ParallelV2(n, k, tuple(lens)), n + 2 * k), layout, preds


def queries(config, rng, n, k):
    """k queries on an n-token context: context lengths, modalities and times."""
    lens = rng.integers(1, n + 1, k)
    lens[rng.integers(0, k)] = n
    q_times = np.column_stack([rng.integers(0, s, k) for s in config.temporal_vocab_sizes])
    return lens, rng.integers(0, config.n_modalities, k), q_times


@st.composite
def passes(draw, dtype, kind):
    """A model and one pass over it: (config, params, streams, mask, layout,
    head, demographics).  The mask `kind` is causal, a split context at a
    drawn boundary, or a packed `ParallelV2` pass of drawn queries; the head
    is every entry or a drawn selection of rows and column ranges."""
    config, params, rng = draw(models(dtype))
    if kind == "parallel":
        k = draw(st.integers(1, 6))
        n = draw(st.integers(1, MAX_T - 2 * k))
        streams, mask, layout, _ = packed(config, context(config, rng, n), *queries(config, rng, n, k))
    else:
        t = draw(st.integers(1, MAX_T))
        streams, layout = context(config, rng, t), {}
        mask = build_mask(Causal() if kind == "causal" else SplitContext(draw(st.integers(0, t))), t)
    head = None
    if draw(st.booleans()):
        rows = rng.integers(0, len(streams[0]), draw(st.integers(1, 8)))
        starts = rng.integers(0, config.vocab_size, len(rows))
        head = (rows, starts, rng.integers(1, config.vocab_size - starts + 1))
    sex = str(rng.choice(sorted(SEX_INDEX)))
    demographics = (float(rng.uniform(20.0, 80.0)), sex, rng.uniform(0.5, 3.0, config.n_modalities + 1))
    return config, params, streams, mask, layout, head, demographics


def run(params, config, streams, mask, layout, demographics, head=None) -> np.ndarray:
    age, sex, scales = demographics
    return forward(params, config, *streams, age, sex, mask, scales, **layout, head=head).data


def oracle_logits(params, config, streams, mask, layout, demographics) -> np.ndarray:
    age, sex, scales = demographics
    arrays = {name: p.data.astype(np.float64) for name, p in params.items()}
    return oracle.forward(
        arrays, config.n_heads, config.logit_clamp, *streams, age, SEX_INDEX[sex], scales, mask,
        query_modalities=layout.get("query_modalities"), query_times=layout.get("query_times"),
        positions=layout.get("pos_ids"),
    )


@DTYPES
@KINDS
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_forward_matches_the_oracle(dtype, kind, data):
    config, params, streams, mask, layout, head, demographics = data.draw(passes(dtype, kind))
    want = oracle_logits(params, config, streams, mask, layout, demographics)
    got = run(params, config, streams, mask, layout, demographics, head)
    assert got.dtype == dtype
    if head is None:
        assert np.max(np.abs(got - want)) <= BOUND[dtype]
    else:
        for row, (r, s, w) in zip(got, zip(*head)):
            assert np.max(np.abs(row[:w] - want[r, s : s + w])) <= BOUND[dtype]
            assert not row[w:].any()  # padded past the row's range


@DTYPES
@KINDS
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_taped_and_tape_free_outputs_are_the_same_bytes(dtype, kind, data):
    config, params, streams, mask, layout, head, demographics = data.draw(passes(dtype, kind))
    age, sex, scales = demographics
    untracked = {name: Tensor(p.data) for name, p in params.items()}
    taped = forward(params, config, *streams, age, sex, mask, scales, **layout, head=head)
    free = forward(untracked, config, *streams, age, sex, mask, scales, **layout, head=head)
    assert taped.requires_grad and not free.requires_grad
    assert taped.data.dtype == free.data.dtype and taped.data.tobytes() == free.data.tobytes()


@DTYPES
@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(1, MAX_T - 12), k=st.integers(1, 6))
def test_packed_queries_match_single_query_passes(dtype, data, n, k):
    """Each query of a k-query `ParallelV2` pass, answered from the first
    lens[j] context positions, against a one-query pass over that prefix."""
    config, params, rng = data.draw(models(dtype))
    ctx = context(config, rng, n)
    lens, q_mods, q_times = queries(config, rng, n, k)
    demographics = (float(rng.uniform(20.0, 80.0)), "female", rng.uniform(0.5, 3.0, config.n_modalities + 1))
    streams, mask, layout, preds = packed(config, ctx, lens, q_mods, q_times)
    together = run(params, config, streams, mask, layout, demographics)[preds]
    for j, m in enumerate(lens):
        prefix = (ctx[0][:m], ctx[1][:m], ctx[2][: m + 1], ctx[3][: m + 1])
        streams, mask, layout, pred = packed(config, prefix, lens[j : j + 1], q_mods[j : j + 1], q_times[j : j + 1])
        alone = run(params, config, streams, mask, layout, demographics)[pred[0]]
        assert np.max(np.abs(together[j] - alone)) <= PACKED_BOUND[dtype]
