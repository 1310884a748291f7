import json
import math
import re
import struct
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from trajlm.checkpoint import MAGIC, load_checkpoint, read_header, save_checkpoint
from trajlm import numerics as nm
from trajlm.corpus import SEX_INDEX, TEMPORAL_VOCAB_SIZES, Event, ParticipantRecord, assemble_sequence
from trajlm.model import (
    Causal,
    ModelConfig,
    ParallelV2,
    SplitContext,
    build_mask,
    embed_inputs,
    forward,
    init_params,
    param_count,
    param_manifest,
    value_scale_table,
)
from trajlm.numerics import ParamStore, sinusoid_features
from trajlm.vocab import RawModality, build_vocabulary

import oracle


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


@pytest.fixture(scope="module")
def config(vocab):
    return ModelConfig(
        vocab_size=vocab.total_tokens,
        n_modalities=vocab.n_modalities,
        d_model=32,
        n_layers=2,
        n_heads=2,
        d_head=8,
        cont_pe_dim=16,
        dropout=0.0,
        max_seq_len=128,
    )


def sample_sequence(vocab, n_events=10, seed=3, two_visits=False):
    rng = np.random.default_rng(seed)
    t0 = datetime(2021, 3, 1, 8, 0)
    visits = [t0]
    events = []
    for i in range(n_events):
        m = int(rng.integers(0, 3))
        v = "y" if m == 2 else float(rng.normal(10 if m == 0 else 50, 2))
        events.append(Event(t0 + timedelta(hours=i), m, v, False))
    if two_visits:
        v2 = t0 + timedelta(days=720)
        visits.append(v2)
        for i in range(n_events // 2):
            m = int(rng.integers(0, 2))
            events.append(Event(v2 + timedelta(hours=i), m, float(rng.normal(10 if m == 0 else 50, 2)), False))
    rec = ParticipantRecord("p", 48.0, "female", events, visits)
    return rec, assemble_sequence(rec, vocab, 128)


def run_forward(params, config, vocab, seq, age=48.0, sex="female", mask_kind=None, **kw):
    mask = build_mask(mask_kind or Causal(), seq.length)
    return forward(
        params, config, seq.tokens, seq.values, seq.modalities, seq.times,
        age, sex, mask, value_scale_table(vocab), **kw,
    )


class TestConfig:
    def test_ff_is_four_times_model_dim(self):
        c = ModelConfig(vocab_size=10, n_modalities=2, d_model=16, n_layers=1, n_heads=1, d_head=4, cont_pe_dim=8)
        assert c.d_ff == 64

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=0, n_modalities=2)

    @pytest.mark.parametrize(
        "sizes", [TEMPORAL_VOCAB_SIZES[:6], [*TEMPORAL_VOCAB_SIZES, 2], [7, *TEMPORAL_VOCAB_SIZES[1:]]]
    )
    def test_temporal_vocab_sizes_checked(self, sizes):
        with pytest.raises(ValueError, match="temporal_vocab_sizes"):
            ModelConfig(vocab_size=10, n_modalities=2, temporal_vocab_sizes=list(sizes))

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("vocab_size", 0, "positive"),
            ("dropout", 1.0, r"in \[0, 1\)"),
            ("dropout", -0.5, r"in \[0, 1\)"),
            ("dropout", math.nan, r"in \[0, 1\)"),
            ("logit_clamp", 0.0, "finite and positive"),
            ("logit_clamp", -5.0, "finite and positive"),
            ("logit_clamp", math.nan, "finite and positive"),
            ("logit_clamp", math.inf, "finite and positive"),
            ("n_value_extras", -1, "non-negative"),
        ],
    )
    def test_model_config_rejects_out_of_range_values(self, field, value, rule):
        """dropout 1.0 once ended training in a TrainingDiverged at step 1,
        logit_clamp 0 in a ZeroDivisionError, and dropout -0.5 trained with
        no dropout at all."""
        sizes = {"vocab_size": 10, "n_modalities": 2}
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
            ModelConfig(**sizes | {field: value})
        in_range = {"vocab_size": 1, "dropout": 0.0, "logit_clamp": 1e-3, "n_value_extras": 0}
        ModelConfig(**sizes | {field: in_range[field]})

    def test_round_trip_dict(self, config):
        assert ModelConfig.from_dict(config.to_dict()) == config


class TestMasks:
    def test_causal(self):
        m = build_mask(Causal(), 3)
        assert m.tolist() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]

    def test_split_context(self):
        m = build_mask(SplitContext(2), 3)
        assert m.tolist() == [[1, 1, 0], [1, 1, 0], [1, 1, 1]]

    def test_split_boundary_zero_is_causal(self):
        assert np.array_equal(build_mask(SplitContext(0), 4), build_mask(Causal(), 4))

    def test_split_boundary_too_large(self):
        with pytest.raises(ValueError, match="boundary"):
            build_mask(SplitContext(5), 3)

    def test_parallel_v2_rows(self):
        n, k = 2, 2
        m = build_mask(ParallelV2(n, k), n + 2 * k)
        # layout [V0, V1, F1, P1, F2, P2]
        assert m[2].tolist() == [0, 0, 1, 0, 0, 0]          # F1 sees only itself
        assert m[3].tolist() == [1, 1, 1, 1, 0, 0]          # P1 sees V, F1, itself
        assert m[4].tolist() == [0, 0, 0, 0, 1, 0]          # F2 sees only itself
        assert m[5].tolist() == [1, 1, 0, 0, 1, 1]          # P2 sees V, F2, itself
        assert m[0].tolist() == [1, 0, 0, 0, 0, 0]
        assert m[1].tolist() == [1, 1, 0, 0, 0, 0]

    def test_every_row_attends_itself(self):
        for kind, t in [(Causal(), 7), (SplitContext(3), 7), (ParallelV2(3, 2), 7)]:
            m = build_mask(kind, t)
            assert np.all(np.diag(m))

    def test_parallel_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            build_mask(ParallelV2(2, 2), 5)

    def test_parallel_v2_prefix_rows(self):
        n, lens = 4, (2, 4, 1)
        k = len(lens)
        m = build_mask(ParallelV2(n, k, lens), n + 2 * k)
        rows = {r: set(np.flatnonzero(m[r]).tolist()) for r in range(n + 2 * k)}
        # the context stays causal whatever the prefixes
        assert [rows[r] for r in range(n)] == [set(range(r + 1)) for r in range(n)]
        # layout [V0..V3, F1, P1, F2, P2, F3, P3]
        assert rows[4] == {4} and rows[6] == {6} and rows[8] == {8}
        assert rows[5] == {0, 1, 4, 5}
        assert rows[7] == {0, 1, 2, 3, 6, 7}
        assert rows[9] == {0, 8, 9}

    def test_parallel_v2_full_prefixes_equal_default(self):
        assert np.array_equal(build_mask(ParallelV2(3, 2, (3, 3)), 7), build_mask(ParallelV2(3, 2), 7))

    @pytest.mark.parametrize("lens", [(0, 2), (2, 4), (2,), (1, 2, 3)])
    def test_parallel_v2_bad_prefixes_rejected(self, lens):
        with pytest.raises(ValueError, match="context lengths"):
            build_mask(ParallelV2(3, 2, lens), 7)


class TestEmbedding:
    def test_positional_encoding_at_zero(self, config):
        pe = sinusoid_features(np.array([0]), config.d_model)
        assert np.all(pe[0, 0::2] == 0.0)
        assert np.all(pe[0, 1::2] == 1.0)

    def test_minute_only_difference(self, vocab, config):
        rng = np.random.default_rng(1)
        params = init_params(config, rng, dtype=np.float64)
        t0 = datetime(2021, 3, 1, 8, 0)
        events = [Event(t0, 0, 10.0, False), Event(t0 + timedelta(minutes=9), 0, 10.0, False)]
        seq = assemble_sequence(ParticipantRecord("p", 40, "male", events, [t0]), vocab, 10)
        h = embed_inputs(
            params, config, seq.tokens, seq.values, seq.modalities, seq.times,
            40.0, "male", value_scale_table(vocab), pos_ids=np.zeros(2, dtype=int),
        )
        delta = h.data[1] - h.data[0]
        table = params["time_embed_2"].data
        expected = table[9] - table[0]
        assert np.allclose(delta, expected, atol=1e-12)

    def test_categorical_value_component_constant(self, vocab, config):
        rng = np.random.default_rng(2)
        params = init_params(config, rng, dtype=np.float64)
        t0 = datetime(2021, 3, 1, 8, 0)
        events = [Event(t0, 2, "x", False), Event(t0, 2, "z", False)]
        seq = assemble_sequence(ParticipantRecord("p", 40, "male", events, [t0]), vocab, 10)
        h = embed_inputs(
            params, config, seq.tokens, seq.values, seq.modalities, seq.times,
            40.0, "male", value_scale_table(vocab), pos_ids=np.zeros(2, dtype=int),
        )
        delta = h.data[1] - h.data[0]
        tok = params["tok_embed"].data
        expected = tok[seq.tokens[1]] - tok[seq.tokens[0]]
        assert np.allclose(delta, expected, atol=1e-12)


class TestForward:
    def test_logit_clamp_strict(self, vocab, config):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_params(config, rng, dtype=np.float64)
            # inflate output weights to force saturation pressure
            params["out_w"].data *= 500.0
            _, seq = sample_sequence(vocab, seed=seed)
            logits = run_forward(params, config, vocab, seq)
            assert np.max(np.abs(logits.data)) <= config.logit_clamp

    def test_causal_faithfulness(self, vocab, config):
        rng = np.random.default_rng(7)
        params = init_params(config, rng, dtype=np.float64)
        _, seq = sample_sequence(vocab, n_events=8)
        base = run_forward(params, config, vocab, seq).data
        p = 3
        seq2 = seq.copy()
        seq2.tokens[p + 1 :] = vocab.pad_token
        seq2.values[p + 1 :] = 0.0
        out = run_forward(params, config, vocab, seq2).data
        assert np.array_equal(base[: p + 1], out[: p + 1])

    def test_zero_gate_equivalence(self, vocab, config):
        rng = np.random.default_rng(8)
        params = init_params(config, rng, dtype=np.float64)
        _, seq = sample_sequence(vocab)
        with_extras = run_forward(params, config, vocab, seq).data

        config0 = replace(config, n_value_extras=0)
        params0 = {
            name: params[name]
            for name, _ in param_manifest(config0)
            if "w_vx" not in name
        }
        params0 = dict(params0)
        params0.update({n: t for n, t in params.items() if n.endswith(".gates")})
        # gates tensor shape differs (max(n,1) x heads); rebuild zero gates
        for name, shape in param_manifest(config0):
            if name.endswith(".gates"):
                from trajlm.numerics import Tensor

                params0[name] = Tensor(np.zeros(shape), requires_grad=True)
        without = run_forward(params0, config0, vocab, seq).data
        assert np.array_equal(with_extras, without)

    def test_stream_length_mismatch(self, vocab, config):
        rng = np.random.default_rng(9)
        params = init_params(config, rng, dtype=np.float64)
        _, seq = sample_sequence(vocab)
        with pytest.raises(ValueError, match="one longer"):
            forward(
                params, config, seq.tokens, seq.values, seq.modalities[:-1], seq.times,
                40.0, "male", build_mask(Causal(), seq.length), value_scale_table(vocab),
            )

    def test_empty_sequence_rejected(self, vocab, config):
        params = init_params(config, np.random.default_rng(4), dtype=np.float64)
        with pytest.raises(ValueError, match="empty"):
            forward(
                params, config, np.zeros(0, dtype=np.int64), np.zeros(0),
                np.zeros(1, dtype=np.int64), np.zeros((1, 7), dtype=np.int64),
                40.0, "male", np.zeros((0, 0), dtype=bool), value_scale_table(vocab),
            )

    def test_parallel_target_isolation(self, vocab, config):
        """Perturbing one target's probe token leaves other targets' logits bit-identical."""
        rng = np.random.default_rng(10)
        params = init_params(config, rng, dtype=np.float64)
        _, seq = sample_sequence(vocab, n_events=6)
        n, k = seq.length, 3
        t = n + 2 * k
        tokens = np.concatenate([seq.tokens, np.full(2 * k, vocab.pad_token)])
        values = np.concatenate([seq.values, np.zeros(2 * k)])
        mods = np.concatenate([seq.modalities[:n], np.full(2 * k + 1, vocab.n_modalities)])
        times = np.concatenate([seq.times[:n], np.tile(seq.times[n - 1], (2 * k + 1, 1))], axis=0)
        mask = build_mask(ParallelV2(n, k), t)
        pos = np.concatenate([np.arange(n), np.tile([n, n + 1], k)])

        base = forward(
            params, config, tokens, values, mods, times, 40.0, "male", mask,
            value_scale_table(vocab), pos_ids=pos,
        ).data
        tokens2 = tokens.copy()
        tokens2[n] = 0  # F1 probe token
        out = forward(
            params, config, tokens2, values, mods, times, 40.0, "male", mask,
            value_scale_table(vocab), pos_ids=pos,
        ).data
        # P2 and P3 rows unchanged; P1 row changed
        assert np.array_equal(base[n + 3], out[n + 3])
        assert np.array_equal(base[n + 5], out[n + 5])
        assert not np.array_equal(base[n + 1], out[n + 1])


    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_one_tape_node_per_stage(self, vocab, config, n_layers):
        """The embedding, two sublayers per layer, the query injection and
        the head: a pass records 2L + 3 nodes."""
        config = replace(config, n_layers=n_layers)
        params = init_params(config, np.random.default_rng(12), dtype=np.float64)
        _, seq = sample_sequence(vocab)
        logits = run_forward(params, config, vocab, seq, dropout_rng=np.random.default_rng(1))
        assert len(nm._tape(logits)) == 2 * n_layers + 3

    @pytest.mark.parametrize("mask_kind", [Causal(), SplitContext(6)], ids=["causal", "split"])
    def test_head_selection_matches_full_head(self, vocab, config, mask_kind):
        params = init_params(config, np.random.default_rng(11), dtype=np.float64)
        _, seq = sample_sequence(vocab, n_events=10, two_visits=True)
        full = run_forward(params, config, vocab, seq, mask_kind=mask_kind).data
        rows = np.array([0, 3, 3, 7, seq.length - 1])
        starts, widths, _ = vocab.head_ranges([0, 2, 1, 0, 1])
        part = run_forward(params, config, vocab, seq, mask_kind=mask_kind, head=(rows, starts, widths)).data
        assert part.shape == (5, widths.max())
        for i, (r, s, k) in enumerate(zip(rows, starts, widths)):
            assert np.max(np.abs(part[i, :k] - full[r, s : s + k])) <= 1e-12
        whole_rows = run_forward(params, config, vocab, seq, mask_kind=mask_kind, head=(rows[::-1], None, None)).data
        assert np.max(np.abs(whole_rows - full[rows[::-1]])) <= 1e-12


class TestOracleForward:
    """`forward` against `oracle.forward`, plain numpy that shares no code
    with trajlm, within 1e-10 in float64."""

    def params(self, config, seed):
        """Parameters whose gates, biases and query-MLP output layers, which
        start at zero, are drawn too, so every component counts."""
        params = init_params(config, np.random.default_rng(seed), dtype=np.float64)
        rng = np.random.default_rng(seed + 1)
        for name, p in params.items():
            if name.startswith(("qmod_", "qtime_")) or name.endswith((".gates", "_b", "out_b")):
                p.data[...] = rng.normal(0.0, 0.1, size=p.shape)
        return params

    def oracle(self, params, config, vocab, tokens, values, mods, times, mask, **kw):
        arrays = {name: p.data for name, p in params.items()}
        return oracle.forward(
            arrays, config.n_heads, config.logit_clamp, tokens, values, mods, times, 48.0, SEX_INDEX["female"],
            value_scale_table(vocab), mask, **kw,
        )

    @pytest.mark.parametrize("mask_kind", [Causal(), SplitContext(6)], ids=["causal", "split"])
    def test_full_head_and_a_selection(self, vocab, config, mask_kind):
        params = self.params(config, 13)
        _, seq = sample_sequence(vocab, n_events=10, two_visits=True)
        want = self.oracle(params, config, vocab, seq.tokens, seq.values, seq.modalities, seq.times,
                           build_mask(mask_kind, seq.length))
        got = run_forward(params, config, vocab, seq, mask_kind=mask_kind).data
        assert np.max(np.abs(got - want)) <= 1e-10
        rows = np.array([0, 3, 3, seq.length - 1])
        starts, widths, _ = vocab.head_ranges([0, 2, 1, 1])
        part = run_forward(params, config, vocab, seq, mask_kind=mask_kind, head=(rows, starts, widths)).data
        for i, (r, s, k) in enumerate(zip(rows, starts, widths)):
            assert np.max(np.abs(part[i, :k] - want[r, s : s + k])) <= 1e-10

    def test_packed_queries(self, vocab, config):
        """A pass packed as `predict_queries` packs it: a ParallelV2 mask
        with nested context lengths, query streams overriding the +1
        alignment, and each slot pair's positions after its own context."""
        params = self.params(config, 14)
        _, seq = sample_sequence(vocab, n_events=8)
        n, lens, q_ids = seq.length, (seq.length, 3, 5), np.array([1, 0, 2])
        k = len(lens)
        q_times = np.array([[1, 9, 30, 5, 3, 12, 0], [4, 2, 0, 11, 2, 7, 1], [0, 23, 59, 0, 4, 30, 0]])
        preds = n + 1 + 2 * np.arange(k)
        tokens = np.append(seq.tokens, [vocab.pad_token] * (2 * k))
        values = np.append(seq.values, np.zeros(2 * k))
        mods = np.concatenate([seq.modalities[:n], np.repeat(q_ids, 2), [vocab.n_modalities]])
        times = np.concatenate([seq.times[:n], np.repeat(q_times, 2, axis=0), seq.times[n - 1 : n]])
        query_mods, query_times = mods[1:].copy(), times[1:].copy()
        query_mods[preds], query_times[preds] = q_ids, q_times
        pos = np.concatenate([np.arange(n), np.repeat(lens, 2) + np.tile([0, 1], k)])
        mask = build_mask(ParallelV2(n, k, lens), n + 2 * k)
        kw = {"query_modalities": query_mods, "query_times": query_times}
        want = self.oracle(params, config, vocab, tokens, values, mods, times, mask, positions=pos, **kw)
        got = forward(params, config, tokens, values, mods, times, 48.0, "female", mask, value_scale_table(vocab),
                      pos_ids=pos, **kw).data
        assert np.max(np.abs(got - want)) <= 1e-10


class TestTapeMemory:
    def held_by_tape(self, t):
        """Bytes a grad-on forward over T=t tokens leaves alive: its tape and
        the logits.  Four heads over d_model=8 make stored attention
        probabilities (4 x T^2 / 2 floats) dwarf every per-token array."""
        config = ModelConfig(
            vocab_size=20, n_modalities=3, d_model=8, n_layers=1, n_heads=4, d_head=2, cont_pe_dim=8,
            max_seq_len=4096,
        )
        params = init_params(config, np.random.default_rng(3), dtype=np.float32)
        rng = np.random.default_rng(4)
        inputs = (
            rng.integers(0, 20, t), rng.normal(size=t), rng.integers(0, 4, t + 1), np.zeros((t + 1, 7), dtype=np.int64),
            50.0, "female", build_mask(Causal(), t), np.ones(4),
        )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            logits = forward(params, config, *inputs)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert logits.requires_grad
        return held

    def test_tape_grows_linearly_with_context(self):
        """The blocks recompute attention probabilities in backward instead
        of keeping them, so doubling T about doubles what a training forward
        holds; a tape that kept the probabilities grows about 3.2x here."""
        ratio = self.held_by_tape(1024) / self.held_by_tape(512)
        assert 1.5 < ratio < 2.5

    def test_a_layer_keeps_its_sublayer_inputs_and_the_attention_output(self):
        """A sublayer's rule rebuilds layer norm from its input, the parent's
        output, then the attention projections (q, k, v and the value
        extras) or the FFN pre-activation from that, so per token and layer
        a grad-on forward holds the attention input, the attention output
        and the FFN input: (d + H d_head + d) floats.  The rest is per pass:
        the last layer's output and the query block's two MLP inputs,
        pre-activations and output (6 d floats), and in int64 or float64 the
        id columns of the embedding and the query block and the embedding's
        continuous values, from which its rule rebuilds their features
        (9 + 8 + 1).  Kept projections would add (3 + E) H d_head floats,
        one more xhat copy T d, a kept FFN pre-activation 4 T d."""
        t, d, n_layers, n_heads, d_head, extras, cont_pe_dim = 512, 64, 2, 2, 32, 2, 64
        config = ModelConfig(
            vocab_size=20, n_modalities=3, d_model=d, n_layers=n_layers, n_heads=n_heads, d_head=d_head,
            n_value_extras=extras, cont_pe_dim=cont_pe_dim, max_seq_len=t,
        )
        params = init_params(config, np.random.default_rng(3), dtype=np.float32)
        rng = np.random.default_rng(4)
        inputs = (
            rng.integers(0, 20, t), rng.normal(size=t), rng.integers(0, 4, t + 1), np.zeros((t + 1, 7), dtype=np.int64),
            50.0, "female", build_mask(Causal(), t), np.ones(4),
        )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            logits = forward(params, config, *inputs, head=([t - 1], None, None))
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert logits.requires_grad
        hd = n_heads * d_head
        per_layer = d + hd + d
        per_pass = 6 * d
        bound = t * ((n_layers * per_layer + per_pass) * 4 + (9 + 8 + 1) * 8)
        assert bound - t * d * 4 < held <= bound + (64 << 10)  # 64 KiB: Python objects and the one head row


class TestParameterAccounting:
    def test_manifest_matches_init(self, config):
        rng = np.random.default_rng(14)
        params = init_params(config, rng)
        manifest = param_manifest(config)
        assert list(params.keys()) == [name for name, _ in manifest]
        for name, shape in manifest:
            assert params[name].data.shape == tuple(shape)

    def test_gates_and_query_output_start_at_zero(self, config):
        rng = np.random.default_rng(15)
        params = init_params(config, rng)
        for l in range(config.n_layers):
            assert np.all(params[f"layer{l}.gates"].data == 0.0)
        assert np.all(params["qmod_w2"].data == 0.0)
        assert np.all(params["qtime_w2"].data == 0.0)

    def test_full_scale_count_reported(self, capsys):
        config = ModelConfig(
            vocab_size=13_056,
            n_modalities=667,
            d_model=768,
            n_layers=14,
            n_heads=12,
            d_head=64,
            n_value_extras=2,
            cont_pe_dim=512,
            max_seq_len=25_000,
        )
        total = param_count(config)
        print(f"full-scale configuration parameter count: {total:,}")
        assert total > 100_000_000  # order-of-magnitude sanity only


class TestCheckpoint:
    def test_roundtrip(self, vocab, config, tmp_path):
        rng = np.random.default_rng(16)
        params = init_params(config, rng, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, "abc123", {"seed": 5})
        loaded, config2, header = load_checkpoint(path)
        assert config2 == config
        assert header["vocab_sha256"] == "abc123"
        assert header["meta"]["seed"] == 5
        for name, p in params.items():
            assert np.array_equal(loaded[name].data, p.data.astype(np.float32))

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, vocab, config, tmp_path):
        rng = np.random.default_rng(17)
        params = init_params(config, rng, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, "h")
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_cut_inside_the_header_is_one_error_naming_the_file(self, vocab, config, tmp_path):
        """A file cut at any length short of its header's end, the magic
        included, once died in `struct.unpack` or `json.loads`."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(config, np.random.default_rng(23), dtype=np.float32), config, "h")
        data = path.read_bytes()
        end = 12 + struct.unpack("<I", data[8:12])[0]
        message = re.escape(f"checkpoint {str(path)!r} is truncated: the file ends inside its header")
        for n in range(end):
            path.write_bytes(data[:n])
            for read in (read_header, load_checkpoint):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    read(path)
        path.write_bytes(data[:end])
        assert read_header(path)["data_bytes"] == len(data) - end
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {str(path)!r} truncated or padded: 0 data bytes")):
            load_checkpoint(path)

    def test_flipped_data_byte_detected(self, vocab, config, tmp_path):
        rng = np.random.default_rng(20)
        params = init_params(config, rng, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, "h")
        assert len(read_header(path)["data_sha256"]) == 64
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"m\.ckpt.*data_sha256"):
            load_checkpoint(path)

    def test_header_readable_without_data(self, vocab, config, tmp_path):
        rng = np.random.default_rng(18)
        params = init_params(config, rng, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, "h")
        header = read_header(path)
        assert header["manifest"][0]["name"] == "tok_embed"
        assert header["manifest"][0]["offset"] == 0
        raw = path.read_bytes()
        assert raw[:8] == MAGIC

    def test_deterministic_bytes(self, vocab, config, tmp_path):
        rng = np.random.default_rng(19)
        params = init_params(config, rng, dtype=np.float32)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, config, "h", {"seed": 1})
        save_checkpoint(p2, params, config, "h", {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_parameters_view_one_buffer_and_resave_byte_identically(self, vocab, config, tmp_path):
        params = init_params(config, np.random.default_rng(21), dtype=np.float32)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(first, params, config, "h", {"seed": 1})
        loaded, config2, header = load_checkpoint(first)
        store = ParamStore.find(loaded)
        assert store is not None and store.data.size == param_count(config)
        for p in loaded.values():
            assert np.shares_memory(p.data, store.data) and p.requires_grad
        save_checkpoint(second, loaded, config2, header["vocab_sha256"], header["meta"])
        assert second.read_bytes() == first.read_bytes()

    def test_float64_parameters_save_as_float32(self, vocab, config, tmp_path):
        """Parameters outside a float32 store are concatenated and cast to
        float32 once."""
        params = init_params(config, np.random.default_rng(22), dtype=np.float64)
        single = {name: p.data.astype(np.float32) for name, p in params.items()}
        save_checkpoint(tmp_path / "d.ckpt", params, config, "h")
        loaded, _, _ = load_checkpoint(tmp_path / "d.ckpt")
        for name, p in loaded.items():
            assert np.array_equal(p.data, single[name])


def rewrite_manifest(path, edit) -> None:
    """Apply edit to a checkpoint's manifest in place; the data and its
    SHA-256 stay as they were, since the header is outside the hash."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    edit(header["manifest"])
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(hbytes)) + hbytes + raw[12 + hlen :])


class TestCheckpointManifest:
    """load_checkpoint checks the manifest against param_manifest(config)."""

    @pytest.fixture
    def saved(self, config, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(config, np.random.default_rng(23), dtype=np.float32), config, "h")
        return path

    def test_missing_parameter_is_named(self, saved):
        rewrite_manifest(saved, lambda m: m.remove(next(e for e in m if e["name"] == "qmod_w1")))
        with pytest.raises(ValueError, match=r"entry \d+ \('qmod_b1'\): name is 'qmod_b1', expected 'qmod_w1'"):
            load_checkpoint(saved)

    def test_wrong_shape_is_named(self, saved, config):
        def widen(m):
            m[0]["shape"] = [config.vocab_size + 1, config.d_model + 1]

        rewrite_manifest(saved, widen)
        with pytest.raises(ValueError, match=r"entry 0 \('tok_embed'\): shape is \[\d+, \d+\], expected"):
            load_checkpoint(saved)

    def test_bad_offset_is_named(self, saved):
        def shift(m):
            m[3]["offset"] = -4

        rewrite_manifest(saved, shift)
        with pytest.raises(ValueError, match=r"entry 3 \('time_embed_0'\): offset is -4, expected \d+"):
            load_checkpoint(saved)

    def test_extra_entry_is_named(self, saved):
        rewrite_manifest(saved, lambda m: m.append({"name": "stray", "shape": [1], "offset": 0}))
        with pytest.raises(ValueError, match="'stray'"):
            load_checkpoint(saved)
