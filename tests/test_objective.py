import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from trajlm import numerics as nm
from trajlm.corpus import AugmentConfig, Event, ParticipantRecord, assemble_sequence
from trajlm import evalharness, objective
from trajlm.model import Causal, ModelConfig, SplitContext, build_mask, forward, init_params, value_scale_table
from trajlm.numerics import Tensor
from trajlm.objective import (
    LossConfig,
    OptimizerState,
    TrainConfig,
    adamw_step,
    clip_gradients,
    lr_at,
    ntp_targets,
    parse_config_file,
    sequence_loss,
    soft_target,
    train,
)
from trajlm.vocab import RawModality, build_vocabulary

from test_numerics import gather_op


@pytest.fixture(scope="module")
def vocab():
    rng = np.random.default_rng(0)
    return build_vocabulary(
        [
            RawModality("a", "continuous", values=list(rng.normal(10, 2, 400)), bin_count=6),
            RawModality("b", "continuous", values=list(rng.normal(50, 5, 400)), bin_count=5),
            RawModality("c", "categorical", categories=["x", "y"]),
        ]
    )


@pytest.fixture(scope="module")
def config(vocab):
    return ModelConfig(
        vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
        d_model=24, n_layers=1, n_heads=2, d_head=6, cont_pe_dim=8, dropout=0.0, max_seq_len=64,
    )


def make_record(vocab, n=8, two_visits=True, seed=1):
    rng = np.random.default_rng(seed)
    t0 = datetime(2021, 2, 1, 9, 0)
    visits = [t0]
    events = [
        Event(t0 + timedelta(hours=i), int(rng.integers(0, 3)), 0, False) for i in range(n)
    ]
    for ev in events:
        ev.value = "x" if ev.modality == 2 else float(rng.normal(10 if ev.modality == 0 else 50, 3))
    if two_visits:
        v2 = t0 + timedelta(days=700)
        visits.append(v2)
        for i in range(n // 2):
            m = int(rng.integers(0, 2))
            events.append(Event(v2 + timedelta(hours=i), m, float(rng.normal(10 if m == 0 else 50, 3)), False))
    return ParticipantRecord("p", 50.0, "male", events, visits)


def token_range(vocab, m):
    """Inclusive [first, last] token ids of modality m."""
    spec = vocab.modalities[m]
    return spec.cum_base, spec.cum_base + spec.n_tokens - 1


def full_head_loss(logits, seq, vocab, sigma, min_target=0, soft_scale=1.0, mae_scale=1.0):
    """(loss, CE, MAE, n, n_mae) of `numerics.ntp_loss` over full (T, V)
    logits, each target's range gathered by `gather_op`: the reference the
    head-selected loss of `sequence_loss` is held to.  mae_scale=None scores
    no MAE."""
    t = ntp_targets(seq, vocab, sigma, min_target)
    mae = None if mae_scale is None else (t.mids, t.truth, t.mae_weight, t.n_mae)
    loss, ce, mae_value = nm.ntp_loss(gather_op(logits, *t.head), t.widths, t.soft, soft_scale, mae, mae_scale)
    return loss, ce, mae_value, len(t.rows), t.n_mae


class TestSoftTarget:
    def test_tiny_sigma_is_one_hot(self):
        q = soft_target(0, 9, 4, 0.01)
        assert q[4] >= 1.0 - 1e-12
        assert abs(q.sum() - 1.0) < 1e-12
        assert np.all(q[np.arange(10) != 4] < 1e-12)

    def test_huge_sigma_is_uniform(self):
        q = soft_target(3, 8, 5, 1e9)
        assert np.allclose(q, 1.0 / 6, atol=1e-12)

    def test_width_one(self):
        assert soft_target(7, 7, 7, 0.01).tolist() == [1.0]

    def test_sums_to_one(self):
        for sigma in (0.01, 0.5, 2.0, 100.0):
            q = soft_target(0, 20, 11, sigma)
            assert abs(q.sum() - 1.0) < 1e-12

    def test_center_outside_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            soft_target(0, 5, 6, 1.0)


class TestLoss:
    def test_tiny_sigma_equals_plain_ce(self, vocab, config):
        rng = np.random.default_rng(2)
        params = init_params(config, rng, dtype=np.float64)
        rec = make_record(vocab)
        seq = assemble_sequence(rec, vocab, 64)
        logits = forward(
            params, config, seq.tokens, seq.values, seq.modalities, seq.times,
            50.0, "male", build_mask(Causal(), seq.length), value_scale_table(vocab),
        )
        _, soft, _, n, _ = full_head_loss(logits, seq, vocab, sigma=0.01)
        # plain one-hot cross-entropy over the same restricted ranges
        total = 0.0
        for j in range(1, seq.length):
            m = int(seq.modalities[j])
            a, b = token_range(vocab, m)
            row = logits.data[j - 1, a : b + 1]
            row = row - row.max()
            logp = row - math.log(np.exp(row).sum())
            total += -logp[int(seq.tokens[j]) - a]
        assert abs(soft - total / n) < 1e-9

    def test_mae_zero_for_point_mass_on_true_midpoint(self, vocab):
        spec = vocab.modalities[0]
        a, b = token_range(vocab, 0)
        t = 3
        tokens = np.full(t + 1, a + 2, dtype=np.int64)
        from trajlm.corpus import TokenSequence

        seq = TokenSequence(
            tokens=tokens[: t],
            values=np.full(t, spec.midpoints[2]),
            modalities=np.full(t + 1, 0, dtype=np.int64),
            times=np.zeros((t + 1, 7), dtype=np.int64),
            visit_boundary=t,
        )
        logits = np.full((t, vocab.total_tokens), -300.0)
        logits[:, a + 2] = 300.0
        _, _, mae, _, n_mae = full_head_loss(Tensor(logits), seq, vocab, sigma=0.01)
        assert n_mae == t - 1
        assert mae < 1e-12

    def test_out_of_range_logits_ignored(self, vocab, config):
        rng = np.random.default_rng(3)
        params = init_params(config, rng, dtype=np.float64)
        rec = make_record(vocab)
        seq = assemble_sequence(rec, vocab, 64)
        logits = forward(
            params, config, seq.tokens, seq.values, seq.modalities, seq.times,
            50.0, "male", build_mask(Causal(), seq.length), value_scale_table(vocab),
        )
        _, soft1, mae1, *_ = full_head_loss(logits, seq, vocab, sigma=0.01)

        shifted = Tensor(logits.data.copy())
        # corrupt columns of modality 1 wherever the target is modality 0
        a0, b0 = token_range(vocab, 0)
        a1, b1 = token_range(vocab, 1)
        for j in range(1, seq.length):
            if int(seq.modalities[j]) == 0:
                shifted.data[j - 1, a1 : b1 + 1] += 1e6
        _, soft2, mae2, *_ = full_head_loss(shifted, seq, vocab, sigma=0.01)
        # losses for modality-0 targets unchanged; compare only via totals of mod-0 rows
        assert mae2 == pytest.approx(mae1, abs=1e-12)

    def test_single_visit_split_contributes_nothing(self, vocab, config):
        rng = np.random.default_rng(4)
        params = init_params(config, rng, dtype=np.float64)
        rec = make_record(vocab, two_visits=False)
        seq = assemble_sequence(rec, vocab, 64)
        assert seq.visit_boundary == seq.length
        _, parts = sequence_loss(params, config, vocab, seq, 50.0, "male", LossConfig())
        assert parts["split"] == 0.0
        assert parts["n_split_targets"] == 0

    def test_composite_gradient_matches_fd(self, vocab, config):
        rng = np.random.default_rng(5)
        params = init_params(config, rng, dtype=np.float64)
        rec = make_record(vocab, n=6)
        seq = assemble_sequence(rec, vocab, 64)
        lc = LossConfig()

        def f():
            loss, _ = sequence_loss(params, config, vocab, seq, 50.0, "male", lc)
            return loss

        # eps=1e-4 keeps central-difference roundoff below tolerance on the
        # model's smallest-gradient coordinates; 1e-5 is fine for O(1) grads
        err = nm.grad_check(f, params, eps=1e-4, max_coords=80)
        assert err < 1e-4


def full_logits(params, config, vocab, seq, mask_kind, dropout_rng=None):
    return forward(
        params, config, seq.tokens, seq.values, seq.modalities, seq.times,
        50.0, "male", build_mask(mask_kind, seq.length), value_scale_table(vocab), dropout_rng=dropout_rng,
    )


class TestHeadSelectedLoss:
    """sequence_loss scores only the head entries of its targets."""

    def test_matches_full_head_causal_and_split(self, vocab, config):
        params = init_params(config, np.random.default_rng(30), dtype=np.float64)
        seq = assemble_sequence(make_record(vocab, n=10), vocab, 64)
        assert 0 < seq.visit_boundary < seq.length
        lc = LossConfig(mae_scale=0.7, split_scale=1.3)
        total, parts = sequence_loss(params, config, vocab, seq, 50.0, "male", lc)
        nm.backward(total)
        grads = {name: p.grad.copy() for name, p in params.items()}  # the next backward reuses p.grad's memory
        for p in params.values():
            p.zero_grad()

        causal, soft, mae, n, _ = full_head_loss(
            full_logits(params, config, vocab, seq, Causal()), seq, vocab, lc.sl_sigma, mae_scale=0.7
        )
        split_loss, split, _, n_split, _ = full_head_loss(
            full_logits(params, config, vocab, seq, SplitContext(seq.visit_boundary)),
            seq, vocab, lc.sl_sigma, min_target=seq.visit_boundary, soft_scale=1.3, mae_scale=None,
        )
        ref = nm.add(causal, split_loss)
        assert (parts["n_targets"], parts["n_split_targets"]) == (n, n_split)
        assert n_split > 0
        for got, want in ((parts["soft"], soft), (parts["mae"], mae), (parts["split"], split), (total.data, ref.data)):
            assert abs(float(got) - float(want)) <= 1e-12
        nm.backward(ref)
        for name, p in params.items():
            assert np.max(np.abs(grads[name] - p.grad)) <= 1e-12, name

    def test_matches_per_target_loop(self, vocab, config):
        """The padded block against one target at a time over its own range."""
        params = init_params(config, np.random.default_rng(33), dtype=np.float64)
        seq = assemble_sequence(make_record(vocab, n=10), vocab, 64)
        logits = full_logits(params, config, vocab, seq, Causal())
        sigma = 0.7
        _, soft, mae, n, n_mae = full_head_loss(logits, seq, vocab, sigma, min_target=3)
        ce = dev = 0.0
        count = count_mae = 0
        for j in range(3, seq.length):
            m = int(seq.modalities[j])
            spec = vocab.modalities[m]
            a, b = token_range(vocab, m)
            row = logits.data[j - 1, a : b + 1]
            p = np.exp(row - row.max())
            p /= p.sum()
            ce -= float(soft_target(a, b, int(seq.tokens[j]), sigma) @ np.log(p))
            count += 1
            if spec.kind == "continuous":
                dev += abs(float(p @ np.asarray(spec.midpoints)) - float(seq.values[j])) / spec.train_sd
                count_mae += 1
        assert (n, n_mae) == (count, count_mae) and 0 < n_mae < n
        assert abs(soft - ce / count) <= 1e-12
        assert abs(mae - dev / count_mae) <= 1e-12

    def test_pass_without_targets_contributes_zero_and_runs(self, vocab, config, monkeypatch):
        seq = assemble_sequence(make_record(vocab, n=10), vocab, 64)
        b = seq.visit_boundary
        tokens = seq.tokens.copy()
        tokens[b:] = vocab.pad_token  # the split pass scores positions >= b only
        seq = replace(seq, tokens=tokens)
        cfg = replace(config, dropout=0.1)
        params = init_params(cfg, np.random.default_rng(31), dtype=np.float64)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("head"))
            return forward(*args, **kwargs)

        monkeypatch.setattr(objective, "forward", counted)
        rng = np.random.default_rng(32)
        total, parts = sequence_loss(params, cfg, vocab, seq, 50.0, "male", LossConfig(), dropout_rng=rng)
        assert len(calls) == 2 and len(calls[1][0]) == 0
        assert parts["split"] == 0.0 and parts["n_split_targets"] == 0
        assert float(total.data) == parts["soft"] + parts["mae"]
        # both passes drew their dropout masks, in order
        ref_rng = np.random.default_rng(32)
        full_logits(params, cfg, vocab, seq, Causal(), ref_rng)
        full_logits(params, cfg, vocab, seq, SplitContext(b), ref_rng)
        assert rng.random() == ref_rng.random()

    def test_float32_training_agrees_with_float64(self, vocab):
        """One set of double parameters cast to single: the -1e30 mask, tanh
        GELU and the padded loss keep the loss and gradient close."""
        config = ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
            d_model=32, n_layers=2, n_heads=2, d_head=8, cont_pe_dim=16, dropout=0.0, max_seq_len=64,
        )
        for seed in range(10):
            seq = assemble_sequence(make_record(vocab, n=8, seed=seed), vocab, 64)
            p64 = init_params(config, np.random.default_rng(100 + seed), dtype=np.float64)
            p32 = {name: Tensor(p.data.astype(np.float32), requires_grad=True) for name, p in p64.items()}
            results = []
            for params in (p64, p32):
                loss, _ = sequence_loss(params, config, vocab, seq, 50.0, "male", LossConfig())
                nm.backward(loss)
                grad = np.concatenate([p.grad.astype(np.float64).ravel() for p in params.values()])
                results.append((float(loss.data), grad))
            (l64, g64), (l32, g32) = results
            assert abs(l32 - l64) <= 1e-5 * abs(l64), seed
            assert np.linalg.norm(g32 - g64) <= 1e-4 * np.linalg.norm(g64), seed


    def test_single_precision_stays_single(self, vocab):
        """Every tensor on a float32 loss's tape, every gradient and the
        query logits stay float32: no float64 scalar promotes the stack."""
        config = ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
            d_model=32, n_layers=2, n_heads=2, d_head=8, cont_pe_dim=16, dropout=0.1, max_seq_len=64,
        )
        params = init_params(config, np.random.default_rng(7), dtype=np.float32)
        seq = assemble_sequence(make_record(vocab, n=8), vocab, 64)
        assert 0 < seq.visit_boundary < seq.length
        sublayers, loss_nodes = [], []

        def recorded(op, nodes, node_of=lambda out: out):
            def run(*args, **kwargs):
                out = op(*args, **kwargs)
                nodes.append(node_of(out))
                return out

            return run

        with pytest.MonkeyPatch.context() as mp:
            for name in ("attention_block", "ffn_block"):
                mp.setattr(nm, name, recorded(getattr(nm, name), sublayers))
            mp.setattr(nm, "ntp_loss", recorded(nm.ntp_loss, loss_nodes, lambda out: out[0]))
            loss, _ = sequence_loss(
                params, config, vocab, seq, 50.0, "male", LossConfig(), dropout_rng=np.random.default_rng(1)
            )
        tape = nm._tape(loss)
        # a full tape: the causal and the split pass each put two block nodes
        # per layer, the embedding, query and head nodes and one loss node on
        # it, and one add joins the two losses
        assert len(sublayers) == 2 * 2 * config.n_layers
        assert len(loss_nodes) == 2
        assert {id(node) for node in sublayers + loss_nodes} <= {id(node) for node in tape}
        n_nodes = len(tape)
        assert n_nodes == 2 * (2 * config.n_layers + 4) + 1
        assert sorted({str(node.dtype) for node in tape}) == ["float32"]
        # backward frees each intermediate's gradient once its rule has run,
        # so record the gradient every rule receives
        received = {}

        def recording(node, rule):
            def rule_with_record(g):
                received[id(node)] = str(g.dtype)
                rule(g)

            return rule_with_record

        for node in tape:
            if node._backward is not None:
                node._backward = recording(node, node._backward)
        del tape
        nm.backward(loss)
        assert len(received) == n_nodes and set(received.values()) == {"float32"}
        assert [received[id(node)] for node in loss_nodes] == ["float32"] * 2
        assert {str(p.grad.dtype) for p in params.values()} == {"float32"}

        blocks = []
        decode = evalharness.decode_block

        def capture(block, *args, **kwargs):
            blocks.append(block)
            return decode(block, *args, **kwargs)

        end = datetime(2021, 2, 1, 9, 0) + timedelta(days=800)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evalharness, "decode_block", capture)
            evalharness.predict_queries(params, config, vocab, seq, 50.0, "male", [(0, end), (1, end)])
        assert [(block.dtype, len(block)) for block in blocks] == [(np.float32, 1)] * 2


class TestBackwardMemory:
    def test_backward_peak_stays_below_tape_plus_parameter_gradients(self, vocab, config):
        """backward frees each node once its rule has run, so its traced peak
        stays below the live tape after forward plus the parameter gradients;
        a backward that kept the tape and every intermediate gradient to the
        end would hold about twice the tape."""
        params = init_params(config, np.random.default_rng(7), dtype=np.float64)
        seq = assemble_sequence(make_record(vocab, n=8), vocab, 64)

        def step():
            loss, _ = sequence_loss(params, config, vocab, seq, 50.0, "male", LossConfig())
            tape = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            nm.backward(loss)
            return tape, tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            step()  # first calls allocate once-only caches; measure the second step
            objective._zero_grads(params)
            tape, peak = step()
        finally:
            tracemalloc.stop()
        grads = sum(p.data.nbytes for p in params.values())
        assert peak < tape + grads


class TestSchedule:
    def test_warmup_endpoints(self):
        assert lr_at(0, 1000) == 0.0
        assert lr_at(100, 1000) == pytest.approx(3e-4)
        assert lr_at(1000, 1000) == pytest.approx(3e-5)

    def test_continuity_at_warmup(self):
        before = lr_at(100, 1000)
        after = lr_at(101, 1000)
        assert after < before
        assert before - after < 1e-6

    def test_monotone_after_warmup(self):
        values = [lr_at(s, 500) for s in range(100, 501)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestOptimizer:
    def test_zero_grads_no_change(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = OptimizerState()
        adamw_step({"p": p}, state, lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_clip_to_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.array([0.5, 0.5, 0.5, 0.5])
        norm = clip_gradients({"p": p}, 0.1)
        assert norm == pytest.approx(1.0)
        assert abs(np.linalg.norm(p.grad) - 0.1) < 1e-12

    def test_clip_preserves_direction(self):
        rng = np.random.default_rng(6)
        p = Tensor(np.zeros(50), requires_grad=True)
        g = rng.normal(size=50)
        p.grad = g.copy()
        clip_gradients({"p": p}, 0.1)
        cos = float(p.grad @ g / (np.linalg.norm(p.grad) * np.linalg.norm(g)))
        assert abs(cos - 1.0) < 1e-12

    def test_nonfinite_grad_names_parameter(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([np.nan, 1.0])
        with pytest.raises(FloatingPointError, match="'p'"):
            clip_gradients({"p": p}, 0.1)

    def test_toy_quadratic_converges(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimizerState()
        for _ in range(500):
            w.grad = 2.0 * w.data
            adamw_step({"w": w}, state, lr=1e-2)
        assert abs(float(w.data[0])) < 1e-3


def reference_adamw(data, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    """The per-tensor AdamW update the flat one must reproduce bit for bit."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in grads.items():
        if g is None:
            continue
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        if weight_decay:
            data[name] -= lr * weight_decay * data[name]
        data[name] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(data[name].dtype)


class TestFlatOptimizer:
    """clip_gradients and adamw_step over the parameters' one flat vector."""

    def backward_once(self, params, vocab, config, seed):
        seq = assemble_sequence(make_record(vocab, n=8, seed=seed), vocab, 64)
        objective._zero_grads(params)
        loss, _ = sequence_loss(params, config, vocab, seq, 50.0, "male", LossConfig())
        nm.backward(loss)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [None, 100])
    def test_adamw_is_bitwise_the_per_tensor_update(self, vocab, config, monkeypatch, dtype, chunk):
        """Five steps with weight decay on: data, m and v equal the per-tensor
        reference bit for bit, also when the passes are cut into chunks that
        straddle tensor boundaries."""
        if chunk is not None:
            monkeypatch.setattr(objective, "_CHUNK", chunk)
        params = init_params(config, np.random.default_rng(3), dtype=dtype)
        data = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros_like(a) for name, a in data.items()}
        v = {name: np.zeros_like(a) for name, a in data.items()}
        state = OptimizerState()
        for step in range(1, 6):
            self.backward_once(params, vocab, config, seed=step)
            grads = {name: None if p.grad is None else p.grad.copy() for name, p in params.items()}
            adamw_step(params, state, 1e-2, weight_decay=0.1)
            reference_adamw(data, grads, m, v, step, 1e-2, weight_decay=0.1)
        store = nm.ParamStore.find(params)
        for (name, p), a, b in zip(params.items(), store.bounds, store.bounds[1:]):
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, data[name]), name
            assert np.array_equal(state.m[a:b], m[name].ravel()), name
            assert np.array_equal(state.v[a:b], v[name].ravel()), name

    @pytest.mark.parametrize("chunk", [None, 100])
    def test_norm_matches_the_per_tensor_float64_norm(self, vocab, config, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(objective, "_CHUNK", chunk)
        params = init_params(config, np.random.default_rng(5), dtype=np.float32)
        self.backward_once(params, vocab, config, seed=2)
        grads = [p.grad for p in params.values() if p.grad is not None]
        ref = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads))
        norm = clip_gradients(params, 0.0)  # max_norm 0 never clips
        assert abs(norm - ref) <= 1e-15 * ref

    def test_training_step_leaves_a_parameter_without_gradient_alone(self, vocab, tmp_path, monkeypatch):
        """With n_value_extras=0 no gradient reaches `layer0.gates`: one `train`
        step with weight decay on moves every other parameter but not the
        gates, which start at 1 here so that decay would show."""
        records = [make_record(vocab, n=6, seed=10 + i) for i in range(4)]
        config = ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities, d_model=16, n_layers=1,
            n_heads=2, d_head=4, n_value_extras=0, cont_pe_dim=8, dropout=0.0, max_seq_len=64,
        )
        inner = objective.init_params
        start = {}

        def gates_at_one(config, rng, dtype):
            params = inner(config, rng, dtype)
            params["layer0.gates"].data[...] = 1.0
            start.update({name: p.data.copy() for name, p in params.items()})
            return params

        monkeypatch.setattr(objective, "init_params", gates_at_one)
        tc = TrainConfig(epochs=1, batch_size=4, peak_lr=1e-2, warmup_steps=1, weight_decay=0.5, seed=0)
        params, history, _ = train(records, vocab, config, LossConfig(), tc, None, tmp_path / "m.ckpt")
        assert len(history) == 1
        gates = params["layer0.gates"]
        assert gates.grad is None
        assert np.array_equal(gates.data, np.ones_like(gates.data))
        moved = [name for name, p in params.items() if not np.array_equal(p.data, start[name])]
        assert moved == [name for name in params if name != "layer0.gates"]

    def test_none_grad_keeps_data_and_moments_whatever_its_slice_holds(self, vocab, config):
        params = init_params(config, np.random.default_rng(7), dtype=np.float64)
        state = OptimizerState()
        self.backward_once(params, vocab, config, seed=1)
        adamw_step(params, state, 1e-2, weight_decay=0.1)
        self.backward_once(params, vocab, config, seed=2)
        store = nm.ParamStore.find(params)
        name = "layer0.w_q"
        i = list(params).index(name)
        a, b = store.bounds[i], store.bounds[i + 1]
        params[name].grad = None
        store.grad[a:b] = np.nan  # a stale slice is never read
        before = (params[name].data.copy(), state.m[a:b].copy(), state.v[a:b].copy())
        assert math.isfinite(clip_gradients(params, 0.1))
        adamw_step(params, state, 1e-2, weight_decay=0.1)
        assert np.array_equal(params[name].data, before[0])
        assert np.array_equal(state.m[a:b], before[1]) and np.array_equal(state.v[a:b], before[2])

    def test_gradients_stay_in_the_flat_vector_after_grad_none(self, vocab, config):
        """Setting every `.grad` to None between passes, as a hand-written
        training step does, still lands the next pass's gradients in the flat
        gradient."""
        params = init_params(config, np.random.default_rng(8), dtype=np.float32)
        store = nm.ParamStore.find(params)
        assert store is not None
        for seed in (1, 2):
            for p in params.values():
                p.grad = None
            loss, _ = sequence_loss(
                params, config, vocab, assemble_sequence(make_record(vocab, n=8, seed=seed), vocab, 64),
                50.0, "male", LossConfig(),
            )
            nm.backward(loss)
            with_grad = [p for p in params.values() if p.grad is not None]
            assert len(with_grad) == len(params)
            for p in with_grad:
                assert np.shares_memory(p.grad, store.grad) and p.grad is store.grad_view(p)

    def test_nonfinite_gradient_raises_before_any_update(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        a.grad, b.grad = np.array([1.0, 1.0]), np.array([np.inf])
        state = OptimizerState()
        with pytest.raises(FloatingPointError, match="'b'"):
            adamw_step({"a": a, "b": b}, state, lr=0.1)
        assert np.array_equal(a.data, [1.0, 2.0]) and state.step == 0

    def test_state_of_another_layout_is_rejected(self):
        state = OptimizerState()
        p, q = Tensor(np.zeros(2), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        p.grad, q.grad = np.ones(2), np.ones(3)
        adamw_step({"p": p}, state, lr=0.1)
        with pytest.raises(ValueError, match="optimizer state holds 2 values"):
            adamw_step({"q": q}, state, lr=0.1)


class TestTrainLoop:
    def small_setup(self, vocab, n_participants=6):
        records = [make_record(vocab, n=6, seed=10 + i) for i in range(n_participants)]
        for i, rec in enumerate(records):
            rec.participant_id = f"p{i}"
        config = ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
            d_model=16, n_layers=1, n_heads=2, d_head=4, cont_pe_dim=8, dropout=0.0, max_seq_len=64,
        )
        return records, config

    def test_memorization_drops_loss_tenfold(self, vocab, tmp_path):
        records, config = self.small_setup(vocab, n_participants=1)
        tc = TrainConfig(epochs=60, batch_size=1, peak_lr=2e-2, min_lr=2e-3,
                         warmup_steps=5, seed=3, clip_norm=1.0, val_fraction=0.2)
        lc = LossConfig(mae_scale=0.0)  # quantization floor is not memorizable
        _, history, _ = train(records, vocab, config, lc, tc, None, tmp_path / "m.ckpt")
        assert len(history) == 60
        assert history[-1]["loss"] <= history[0]["loss"] / 10.0

    def test_same_seed_identical_checkpoints(self, vocab, tmp_path):
        records, config = self.small_setup(vocab)
        out1, out2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (out1, out2):
            tc = TrainConfig(epochs=2, batch_size=2, peak_lr=1e-3, seed=11)
            train(records, vocab, config, LossConfig(), tc, AugmentConfig(), out)
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_differs(self, vocab, tmp_path):
        records, config = self.small_setup(vocab)
        tc1 = TrainConfig(epochs=1, seed=1)
        tc2 = TrainConfig(epochs=1, seed=2)
        train(records, vocab, config, LossConfig(), tc1, AugmentConfig(), tmp_path / "a.ckpt")
        train(records, vocab, config, LossConfig(), tc2, AugmentConfig(), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() != (tmp_path / "b.ckpt").read_bytes()

    def test_empty_cohort_rejected(self, vocab, tmp_path):
        _, config = self.small_setup(vocab)
        with pytest.raises(ValueError, match="empty"):
            train([], vocab, config, LossConfig(), TrainConfig(), None, tmp_path / "x.ckpt")

    def test_log_rows_have_schedule(self, vocab, tmp_path):
        records, config = self.small_setup(vocab)
        tc = TrainConfig(epochs=1, batch_size=3, peak_lr=1e-3, warmup_steps=2, seed=0)
        _, history, _ = train(records, vocab, config, LossConfig(), tc, None, tmp_path / "m.ckpt")
        assert history[0]["step"] == 1
        assert all({"step", "lr", "loss", "soft", "mae", "split", "val_loss"} <= set(r) for r in history)

    def test_log_rows_record_gradient_norm_and_clipping(self, vocab, tmp_path):
        records, config = self.small_setup(vocab)
        tc = TrainConfig(epochs=3, batch_size=2, peak_lr=1e-2, warmup_steps=2, seed=4, clip_norm=2.5)
        _, history, _ = train(records, vocab, config, LossConfig(), tc, None, tmp_path / "m.ckpt")
        norms = [row["grad_norm"] for row in history]
        assert all(math.isfinite(n) and n > 0 for n in norms)
        assert [row["clipped"] for row in history] == [int(n > tc.clip_norm) for n in norms]
        assert 0 < sum(row["clipped"] for row in history) < len(history), norms  # both outcomes occur

    def test_model_max_seq_len_bounds_training(self, vocab, tmp_path, monkeypatch):
        """`max_seq_length` (ModelConfig.max_seq_len) truncates every training
        and validation sequence."""
        records = [make_record(vocab, n=20, seed=10 + i) for i in range(4)]
        config = replace(self.small_setup(vocab)[1], max_seq_len=8)
        lengths = []
        inner = objective.sequence_loss

        def recorded(params, config, vocab, seq, *args, **kwargs):
            lengths.append(seq.length)
            return inner(params, config, vocab, seq, *args, **kwargs)

        monkeypatch.setattr(objective, "sequence_loss", recorded)
        train(records, vocab, config, LossConfig(), TrainConfig(epochs=1, seed=0), None, tmp_path / "m.ckpt")
        assert len(lengths) == len(records)  # three training steps and one validation pass
        assert max(lengths) <= 8 < min(assemble_sequence(r, vocab, 64).length for r in records)

    def test_validation_holds_one_loss_at_a_time(self, vocab, tmp_path, monkeypatch):
        """Every loss's tape, validation ones included, is freed before the
        next sequence_loss call records another."""
        records, config = self.small_setup(vocab)
        inner = objective.sequence_loss
        tapes, held = [], []

        def recorded(*args, **kwargs):
            held.append(sum(ref() is not None for ref in tapes))
            loss, parts = inner(*args, **kwargs)
            tapes.append(weakref.ref(loss._parents[0].data))  # an array on the loss's tape
            return loss, parts

        monkeypatch.setattr(objective, "sequence_loss", recorded)
        gc.disable()
        try:
            tc = TrainConfig(epochs=1, batch_size=1, val_fraction=0.5, seed=0)
            train(records, vocab, config, LossConfig(), tc, None, tmp_path / "m.ckpt")
        finally:
            gc.enable()
        assert len(held) == len(records)  # three training steps and three validation passes
        assert held == [0] * len(records)

    def test_zero_val_fraction_trains_on_every_sequence(self, vocab, tmp_path, monkeypatch):
        """val_fraction 0 holds out no sequence (it held out one): every
        sequence trains each epoch, no validation loss is computed or
        logged, every epoch is checkpointed and the best validation loss is
        NaN."""
        records, config = self.small_setup(vocab)
        calls, saves = [], []
        inner_loss, inner_save = objective.sequence_loss, objective.save_checkpoint

        def recorded(params, config, vocab, seq, *args, **kwargs):
            calls.append(seq.length)
            return inner_loss(params, config, vocab, seq, *args, **kwargs)

        def saved(path, params, config, vocab_sha256, info):
            saves.append(info["val_loss"])
            return inner_save(path, params, config, vocab_sha256, info)

        monkeypatch.setattr(objective, "sequence_loss", recorded)
        monkeypatch.setattr(objective, "save_checkpoint", saved)
        tc = TrainConfig(epochs=2, batch_size=1, val_fraction=0.0, seed=0)
        _, history, best = train(records, vocab, config, LossConfig(), tc, None, tmp_path / "m.ckpt")
        assert len(calls) == len(history) == 2 * len(records)
        assert [row["val_loss"] for row in history] == [""] * len(history)
        assert len(saves) == 2 and all(math.isnan(v) for v in saves)
        assert math.isnan(best)

    def test_skipped_sequence_leaves_the_mean_gradient(self, vocab):
        """A sequence too short to score drops out of the batch mean: the
        gradient of [1-event record, record] equals that of [record] alone."""
        _, config = self.small_setup(vocab)
        short = assemble_sequence(make_record(vocab, n=1, two_visits=False), vocab, 64)
        full = assemble_sequence(make_record(vocab, n=8, seed=4), vocab, 64)
        assert short.length < 2 <= full.length
        aug = AugmentConfig.disabled()
        grads = []
        for batch in ([(short, 50.0, "male"), (full, 50.0, "male")], [(full, 50.0, "male")]):
            params = init_params(config, np.random.default_rng(6), dtype=np.float32)
            sums, n_used = objective._batch_gradients(
                params, config, vocab, LossConfig(), aug, batch, np.random.default_rng(2)
            )
            assert n_used == 1
            grads.append({name: p.grad for name, p in params.items()})
        for name, g in grads[1].items():
            assert np.array_equal(grads[0][name], g), name

    def test_batch_gradient_is_the_mean_of_sequence_gradients(self, vocab):
        _, config = self.small_setup(vocab)
        seqs = [assemble_sequence(make_record(vocab, n=8, seed=s), vocab, 64) for s in (4, 5)]
        aug = AugmentConfig.disabled()
        params = init_params(config, np.random.default_rng(6), dtype=np.float64)
        singles = []
        for seq in seqs:
            objective._zero_grads(params)
            objective._batch_gradients(params, config, vocab, LossConfig(), aug, [(seq, 50.0, "male")], np.random.default_rng(0))
            singles.append({name: p.grad.copy() for name, p in params.items()})
        objective._zero_grads(params)
        _, n_used = objective._batch_gradients(
            params, config, vocab, LossConfig(), aug, [(s, 50.0, "male") for s in seqs], np.random.default_rng(0)
        )
        assert n_used == 2
        for name, p in params.items():
            assert np.allclose(p.grad, (singles[0][name] + singles[1][name]) / 2, rtol=1e-12, atol=1e-15), name


class TestConfigFile:
    def test_parse_key_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lr = 0.0003\n# comment\nSL_sigma=0.01\nepochs=18  # inline\n", encoding="utf-8")
        flat = parse_config_file(path)
        assert flat == {"lr": "0.0003", "SL_sigma": "0.01", "epochs": "18"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lr 0.0003\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(path)

    def test_key_set_twice_rejected(self, tmp_path):
        """A second `epochs` once won silently over the first."""
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 1\nlr = 0.001\nepochs = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: 'epochs' is set again, after {path}:1")):
            parse_config_file(path)

    @pytest.mark.parametrize("field, value, rule", [
        ("noise_chance", math.nan, r"in \[0, 1\]"),
        ("token_removal_rate", 5.0, r"in \[0, 1\]"),
        ("modality_subset_fraction", -0.1, r"in \[0, 1\]"),
        ("modality_exclusion_chance", 1.5, r"in \[0, 1\]"),
        ("block_removal_blocks", -3, "at least 0"),
    ])
    def test_augment_config_rejects_out_of_range_values(self, field, value, rule):
        """A NaN chance once switched its augmentation off without a word."""
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
            AugmentConfig(**{field: value})
        AugmentConfig(**{field: 0})  # an in-range value passes

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("epochs", 0, "at least 1"),
            ("epochs", -2, "at least 1"),
            ("batch_size", 0, "at least 1"),
            ("val_fraction", 1.5, r"in \[0, 1\)"),
            ("val_fraction", 1.0, r"in \[0, 1\)"),
            ("val_fraction", -0.1, r"in \[0, 1\)"),
            ("peak_lr", 0.0, "positive"),
            ("peak_lr", math.nan, "positive"),
            ("eps", -1e-8, "positive"),
            ("min_lr", -1e-5, "non-negative"),
            ("warmup_steps", -1, "non-negative"),
            ("weight_decay", -0.1, "non-negative"),
            ("clip_norm", -1.0, "non-negative"),
            ("beta1", 1.0, r"in \[0, 1\)"),
            ("beta2", -0.5, r"in \[0, 1\)"),
            ("peak_lr", math.inf, "finite"),
            ("eps", math.inf, "finite"),
            ("min_lr", math.inf, "finite"),
            ("weight_decay", math.inf, "finite"),
            ("seed", -1, "non-negative"),
        ],
    )
    def test_train_config_rejects_out_of_range_values(self, field, value, rule):
        """batch_size 0 once ended training in a ZeroDivisionError,
        val_fraction 1.5 trained on every sequence with no validation,
        epochs 0 wrote an untrained checkpoint, and lr inf trained until it
        diverged."""
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
            TrainConfig(**{field: value})
        TrainConfig(**{field: 1 if field in ("epochs", "batch_size") else 1e-3})  # an in-range value passes

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("sl_sigma", 0.0, "finite and positive"),
            ("sl_sigma", -0.01, "finite and positive"),
            ("sl_sigma", math.nan, "finite and positive"),
            ("sl_sigma", math.inf, "finite and positive"),
            ("soft_scale", -1.0, "finite and non-negative"),
            ("soft_scale", math.nan, "finite and non-negative"),
            ("mae_scale", -0.5, "finite and non-negative"),
            ("mae_scale", math.inf, "finite and non-negative"),
            ("split_scale", math.nan, "finite and non-negative"),
            ("split_scale", -math.inf, "finite and non-negative"),
        ],
    )
    def test_loss_config_rejects_out_of_range_values(self, field, value, rule):
        """A NaN weight once surfaced as a TrainingDiverged at step 1, and a
        negative one maximised its term."""
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
            LossConfig(**{field: value})
        LossConfig(**{field: 0.5})  # an in-range value passes
        LossConfig(soft_scale=0.0, mae_scale=0.0, split_scale=0.0)  # a term may be switched off
