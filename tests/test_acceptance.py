"""End-to-end acceptance criteria.

Each test prints one PASS line once its assertions hold; criteria 6-8 share a
single desk-scale model trained on the planted-truth cohort (a few minutes of
CPU, well inside the stated budget).
"""

import hashlib
import itertools
import json
import math
import time
from datetime import datetime, timedelta
from pathlib import Path

import mpmath
import numpy as np
import pytest

from trajlm import numerics as nm
from trajlm.corpus import AugmentConfig, Event, ParticipantRecord, assemble_sequence
from trajlm.evalharness import (
    baseline_predict,
    crossmodal_sweep,
    decode_expected,
    longitudinal_pools,
)
from trajlm.intervene import CategoricalAppend, concordance, sample_trial_population, TrialSpec, TrialVariable
from trajlm.model import (
    Causal,
    ModelConfig,
    ParallelV2,
    build_mask,
    forward,
    init_params,
    value_scale_table,
)
from trajlm.objective import LossConfig, TrainConfig, sequence_loss, soft_target, train
from trajlm.stats import bh_fdr, pearson_with_ci, student_t_p_value
from trajlm.synthcohort import build_synth_vocabulary, default_config, generate
from trajlm.vocab import RawModality, build_vocabulary, decode_token, encode_value, quantile_match

from test_objective import full_head_loss, token_range

mpmath.mp.dps = 40
FIXTURES = Path(__file__).parent / "data"

COHORT_SEED = 11
TRAIN_SEED = 5


def ok(n, detail):
    # write through pytest's capture so one line per criterion always surfaces
    import sys

    line = f"PASS criterion {n}: {detail}"
    print(line)
    print(line, file=sys.__stdout__)


@pytest.fixture(scope="session")
def desk():
    """Planted cohort plus a trained desk-scale model (same recipe as the CLI
    defaults: 500 participants, d=64, two layers)."""
    cfg = default_config(n_participants=500, seed=COHORT_SEED)
    records, truth = generate(cfg, np.random.default_rng(COHORT_SEED))
    vocab = build_synth_vocabulary(records, cfg)
    train_records, test_records = records[:400], records[400:]

    model_cfg = ModelConfig(
        vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
        d_model=64, n_layers=2, n_heads=2, d_head=32, cont_pe_dim=64,
        dropout=0.1, max_seq_len=512,
    )
    train_cfg = TrainConfig(
        epochs=16, batch_size=1, peak_lr=1e-3, min_lr=1e-4, warmup_steps=100,
        seed=TRAIN_SEED, val_fraction=0.2,
    )
    t0 = time.monotonic()
    params, history, best_val = train(
        train_records, vocab, model_cfg, LossConfig(), train_cfg, AugmentConfig(),
        out_path=Path("/tmp") / "acceptance_desk.ckpt",
    )
    minutes = (time.monotonic() - t0) / 60
    assert minutes < 20, f"desk training took {minutes:.1f} min"
    assert best_val < history[0]["loss"] * 0.7, "validation loss failed to drop 30% from start"
    return {
        "config": cfg, "records": records, "truth": truth, "vocab": vocab,
        "train": train_records, "test": test_records,
        "model_cfg": model_cfg, "params": params,
        "history": history, "best_val": best_val, "train_minutes": minutes,
    }


def build_toy_vocab(seed=0):
    rng = np.random.default_rng(seed)
    return build_vocabulary(
        [
            RawModality("a", "continuous", values=list(rng.normal(10, 2, 400)), bin_count=6),
            RawModality("b", "continuous", values=list(rng.normal(50, 5, 400)), bin_count=5),
            RawModality("c", "categorical", categories=["x", "y"]),
        ]
    )


def build_toy_sequence(vocab, seed=0, n_v1=8, n_v2=4):
    rng = np.random.default_rng(seed)
    t0 = datetime(2021, 2, 1, 9, 0)
    visits = [t0]
    events = []
    for i in range(n_v1):
        m = int(rng.integers(0, 3))
        v = "x" if m == 2 else float(rng.normal(10 if m == 0 else 50, 3))
        events.append(Event(t0 + timedelta(hours=i), m, v, False))
    v2 = t0 + timedelta(days=700)
    visits.append(v2)
    for i in range(n_v2):
        m = int(rng.integers(0, 2))
        events.append(Event(v2 + timedelta(hours=i), m, float(rng.normal(10 if m == 0 else 50, 3)), False))
    rec = ParticipantRecord("p", 50.0, "male", events, visits)
    return rec, assemble_sequence(rec, vocab, 64)


class TestCriterion1GradientFidelity:
    def test_full_model_gradcheck(self):
        vocab = build_toy_vocab()
        config = ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
            d_model=32, n_layers=2, n_heads=2, d_head=8, cont_pe_dim=16,
            dropout=0.0, max_seq_len=64,
        )
        rec, seq = build_toy_sequence(vocab)
        assert seq.length == 12
        params = init_params(config, np.random.default_rng(100), dtype=np.float64)
        lc = LossConfig()

        def f():
            loss, _ = sequence_loss(params, config, vocab, seq, rec.age, rec.sex, lc)
            return loss

        t0 = time.monotonic()
        # eps=1e-4 keeps central-difference roundoff below tolerance on the
        # smallest-gradient coordinates; composite loss includes the split term
        err = nm.grad_check(f, params, eps=1e-4, max_coords=220)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"grad check took {elapsed:.1f}s"
        assert err < 1e-4, f"max relative error {err:.3e}"
        ok(1, f"full-model gradient max rel error {err:.2e} in {elapsed:.1f}s (< 1e-4, < 60s)")


class TestCriterion2TokenizerOracle:
    def test_exhaustive_roundtrip_2000_tokens(self):
        rng = np.random.default_rng(1)
        raw = [
            RawModality(f"m{i}", "continuous", values=list(rng.normal(i, 1 + i % 3, 800)), bin_count=20)
            for i in range(100)
        ]
        vocab = build_vocabulary(raw)
        assert vocab.total_tokens == 2000
        for token in range(vocab.total_tokens):
            m, b, mid = decode_token(vocab, token)
            assert vocab.modalities[m].cum_base + b == token
            assert encode_value(vocab, m, mid) == token

    def test_equal_frequency_within_two(self):
        rng = np.random.default_rng(2)
        values = rng.permutation(np.linspace(0.0, 1.0, 10_000))
        for k in (10, 16, 25):
            vocab = build_vocabulary([RawModality("m", "continuous", values=list(values), bin_count=k)])
            edges = vocab.modalities[0].bin_edges[1:-1]
            counts = np.histogram(values, bins=[-np.inf] + edges + [np.inf])[0]
            assert np.all(np.abs(counts - 10_000 / k) <= 2), (k, counts)

    def test_rank_preservation_1000_externals(self):
        rng = np.random.default_rng(3)
        vocab = build_vocabulary(
            [RawModality("m", "continuous", values=list(rng.normal(0, 1, 5000)), bin_count=12)]
        )
        external = rng.standard_cauchy(1000) * 40 + 7
        tokens = np.array(quantile_match(vocab, 0, external))
        order = np.argsort(external, kind="stable")
        assert np.all(np.diff(tokens[order]) >= 0)
        ok(2, "2,000-token roundtrip exact; bin counts within +-2 of n/K; 1,000-sample rank preservation")


class TestCriterion3MaskCorrectness:
    def _random_setup(self, seed):
        rng = np.random.default_rng(seed)
        vocab = build_toy_vocab(seed % 7)
        config = ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
            d_model=16, n_layers=1, n_heads=2, d_head=4, cont_pe_dim=8,
            dropout=0.0, max_seq_len=64,
        )
        params = init_params(config, rng, dtype=np.float64)
        return rng, vocab, config, params

    def test_causal_faithfulness_100_trials(self):
        violations = 0
        for trial in range(100):
            rng, vocab, config, params = self._random_setup(trial)
            _, seq = build_toy_sequence(vocab, seed=trial, n_v1=6, n_v2=2)
            t = seq.length
            p = int(rng.integers(0, t - 1))
            base = forward(
                params, config, seq.tokens, seq.values, seq.modalities, seq.times,
                50.0, "male", build_mask(Causal(), t), value_scale_table(vocab),
            ).data
            seq2 = seq.copy()
            alt = seq2.copy()
            alt.tokens[p + 1 :] = (alt.tokens[p + 1 :] + 1) % vocab.total_tokens
            alt.values[p + 1 :] += 3.7
            out = forward(
                params, config, alt.tokens, alt.values, alt.modalities, alt.times,
                50.0, "male", build_mask(Causal(), t), value_scale_table(vocab),
            ).data
            if not np.array_equal(base[: p + 1], out[: p + 1]):
                violations += 1
        assert violations == 0

    def test_parallel_independence_100_trials(self):
        violations = 0
        for trial in range(100):
            rng, vocab, config, params = self._random_setup(1000 + trial)
            _, seq = build_toy_sequence(vocab, seed=trial, n_v1=5, n_v2=0)
            n, k = seq.length, 3
            t = n + 2 * k
            tokens = np.concatenate([seq.tokens, np.full(2 * k, vocab.pad_token)])
            values = np.concatenate([seq.values, np.zeros(2 * k)])
            mods = np.concatenate([seq.modalities[:n], np.full(2 * k + 1, vocab.n_modalities)])
            times = np.concatenate([seq.times[:n], np.tile(seq.times[n - 1], (2 * k + 1, 1))], axis=0)
            mask = build_mask(ParallelV2(n, k), t)
            pos = np.concatenate([np.arange(n), np.tile([n, n + 1], k)])
            args = (params, config, tokens, values, mods, times, 50.0, "male", mask, value_scale_table(vocab))
            base = forward(*args, pos_ids=pos).data

            j = int(rng.integers(0, k))
            tokens2 = tokens.copy()
            values2 = values.copy()
            tokens2[n + 2 * j] = int(rng.integers(0, vocab.total_tokens))
            values2[n + 2 * j] = 42.0
            out = forward(
                params, config, tokens2, values2, mods, times, 50.0, "male", mask,
                value_scale_table(vocab), pos_ids=pos,
            ).data
            for i in range(k):
                row = n + 2 * i + 1
                same = np.array_equal(base[row], out[row])
                if i == j:
                    continue
                if not same:
                    violations += 1
        assert violations == 0
        ok(3, "causal faithfulness and parallel-target independence: 0 violations in 100+100 bitwise trials")


class TestCriterion4LossLimits:
    def test_soft_loss_equals_onehot_ce(self):
        vocab = build_toy_vocab()
        config = ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
            d_model=16, n_layers=1, n_heads=2, d_head=4, cont_pe_dim=8,
            dropout=0.0, max_seq_len=64,
        )
        rec, seq = build_toy_sequence(vocab, seed=4)
        params = init_params(config, np.random.default_rng(4), dtype=np.float64)
        logits = forward(
            params, config, seq.tokens, seq.values, seq.modalities, seq.times,
            rec.age, rec.sex, build_mask(Causal(), seq.length), value_scale_table(vocab),
        )
        _, soft, _, n, _ = full_head_loss(logits, seq, vocab, sigma=0.01)
        manual = 0.0
        for j in range(1, seq.length):
            m = int(seq.modalities[j])
            a, b = token_range(vocab, m)
            row = logits.data[j - 1, a : b + 1]
            row = row - row.max()
            logp = row - math.log(np.exp(row).sum())
            manual += -logp[int(seq.tokens[j]) - a]
        assert abs(soft - manual / n) < 1e-9

    def test_soft_targets_sum_to_one(self):
        for a, b, k, sigma in [(0, 9, 3, 0.01), (5, 30, 17, 0.5), (0, 128, 64, 2.0), (2, 2, 2, 0.01)]:
            q = soft_target(a, b, k, sigma)
            assert abs(q.sum() - 1.0) < 1e-12

    def test_mae_zero_on_exact_midpoint_point_mass(self):
        vocab = build_toy_vocab()
        from trajlm.corpus import TokenSequence
        from trajlm.numerics import Tensor

        spec = vocab.modalities[0]
        a, _ = token_range(vocab, 0)
        t = 4
        seq = TokenSequence(
            tokens=np.full(t, a + 1, dtype=np.int64),
            values=np.full(t, spec.midpoints[1]),
            modalities=np.full(t + 1, 0, dtype=np.int64),
            times=np.zeros((t + 1, 7), dtype=np.int64),
            visit_boundary=t,
        )
        logits = np.full((t, vocab.total_tokens), -200.0)
        logits[:, a + 1] = 200.0
        _, _, mae, _, n_mae = full_head_loss(Tensor(logits), seq, vocab, sigma=0.01)
        assert n_mae == t - 1
        assert mae == 0.0
        ok(4, "sigma=0.01 soft loss == one-hot CE (1e-9); targets sum to 1 (1e-12); point-mass MAE = 0")


class TestCriterion5Bounds:
    def test_logit_clamp_and_decode_bounds(self):
        vocab = build_toy_vocab()
        config = ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities,
            d_model=16, n_layers=1, n_heads=2, d_head=4, cont_pe_dim=8,
            dropout=0.0, max_seq_len=64,
        )
        worst = 0.0
        for seed in range(20):
            params = init_params(config, np.random.default_rng(seed), dtype=np.float64)
            params["out_w"].data *= 1 + 50 * seed  # push toward saturation
            rec, seq = build_toy_sequence(vocab, seed=seed)
            logits = forward(
                params, config, seq.tokens, seq.values, seq.modalities, seq.times,
                rec.age, rec.sex, build_mask(Causal(), seq.length), value_scale_table(vocab),
            ).data
            worst = max(worst, float(np.max(np.abs(logits))))
            assert np.max(np.abs(logits)) < 50.0
            for m in (0, 1):
                spec = vocab.modalities[m]
                for row in logits:
                    val = decode_expected(row, vocab, m)
                    assert min(spec.midpoints) <= val <= max(spec.midpoints)
        ok(5, f"|logit| < 50 over saturated random models (worst {worst:.3f}); decoded values inside midpoint range")


class TestCriterion6CrossModalRecovery:
    def test_planted_linear_relation(self, desk):
        vocab = desk["vocab"]
        xs, ys = crossmodal_sweep(
            desk["params"], desk["model_cfg"], vocab,
            vocab.modality("x_core").id, vocab.modality("y_double").id,
            datetime(2022, 1, 10, 9, 0),
        )
        r, _, _ = pearson_with_ci(ys, 2.0 * xs)
        assert r >= 0.9, f"curve correlation {r:.3f}"
        ok(6, f"cross-modal probe tracks planted y=2x with Pearson {r:.3f} (>= 0.9), "
              f"trained in {desk['train_minutes']:.1f} min")


class TestCriterion7InterventionRecovery:
    def test_planted_effect_and_negative_control(self, desk):
        vocab = desk["vocab"]
        truth = desk["truth"]
        med = vocab.modality("medication").id
        target = vocab.modality("t_target").id
        control_mod = vocab.modality("b_control").id
        untreated = [r for r in desk["test"] if not truth.treated[r.participant_id]]
        assert len(untreated) >= 40
        spec = CategoricalAppend(med, 0, frequency=1, duration=24, label="drug_a")

        rule = truth.rules[0]
        planted_mean = rule.effect_fraction * 150.0  # -20% of the target's planted mean
        signs = []
        magnitudes = []
        control_deltas = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sub = [untreated[i] for i in rng.choice(len(untreated), size=40, replace=False)]
            arm = simulate(desk, sub, spec, target)
            signs.append(arm.mean_delta < 0)
            magnitudes.append(arm.mean_delta)
            control_deltas.append(simulate(desk, sub, spec, control_mod).mean_delta)

        sign_rate = np.mean(signs)
        pooled = float(np.mean(magnitudes))
        rel_err = abs(pooled - planted_mean) / abs(planted_mean)
        b_sd = vocab.modality("b_control").train_sd
        control_effect = abs(float(np.mean(control_deltas)))
        assert sign_rate >= 0.95, f"sign recovered in {sign_rate:.0%} of reruns"
        assert rel_err <= 0.50, f"magnitude off by {rel_err:.0%}"
        assert control_effect < 0.05 * b_sd, f"negative control {control_effect:.3f} vs {0.05 * b_sd:.3f}"
        ok(7, f"planted -20% effect: sign {sign_rate:.0%}/10 seeds, magnitude {pooled:.1f} vs {planted_mean:.1f} "
              f"({rel_err:.0%} err); negative control {control_effect:.3f} < {0.05 * b_sd:.3f}")


def simulate(desk, records, spec, outcome):
    from trajlm.intervene import simulate_cohort

    return simulate_cohort(desk["params"], desk["model_cfg"], desk["vocab"], records, spec, outcome, 24)


class TestCriterion8LongitudinalOrdering:
    def test_model_beats_locf_on_drift(self, desk):
        vocab = desk["vocab"]
        d_id = vocab.modality("d_drift").id
        pools, _ = longitudinal_pools(desk["params"], desk["model_cfg"], vocab, desk["test"])
        pids, preds, trues = pools[d_id]
        locf, _ = baseline_predict("locf", desk["train"], desk["test"], vocab)
        locf_preds = [locf[d_id][pid] for pid in pids]
        r_model, _, _ = pearson_with_ci(preds, trues)
        r_locf, _, _ = pearson_with_ci(locf_preds, trues)
        assert r_model - r_locf >= 0.05, f"model {r_model:.3f} vs LOCF {r_locf:.3f}"
        ok(8, f"drifting modality: model r={r_model:.3f} exceeds LOCF r={r_locf:.3f} by {r_model - r_locf:.3f} (>= 0.05)")


class TestCriterion9StatisticsOracles:
    def test_fisher_ci_fixture(self):
        z = mpmath.atanh(mpmath.mpf(1) / 2)
        se = 1 / mpmath.sqrt(100)
        lo_oracle = float(mpmath.tanh(z - mpmath.mpf("1.96") * se))
        hi_oracle = float(mpmath.tanh(z + mpmath.mpf("1.96") * se))
        lo = math.tanh(math.atanh(0.5) - 1.96 / math.sqrt(100))
        hi = math.tanh(math.atanh(0.5) + 1.96 / math.sqrt(100))
        assert abs(lo - lo_oracle) < 1e-9 and abs(hi - hi_oracle) < 1e-9

    def test_bh_exhaustive(self):
        def brute(p, q):
            m = len(p)
            ranked = sorted(p)
            k_star = max((k for k in range(1, m + 1) if ranked[k - 1] <= k * q / m), default=0)
            if k_star == 0:
                return [False] * m
            return [x <= ranked[k_star - 1] for x in p]

        grid = [0.0, 0.005, 0.01, 0.03, 0.2, 1.0]
        for m in range(1, 4):
            for combo in itertools.product(grid, repeat=m):
                assert bh_fdr(list(combo), 0.05).tolist() == brute(combo, 0.05)
        rng = np.random.default_rng(9)
        for m in range(1, 9):
            for _ in range(300):
                p = rng.random(m) ** 2
                assert bh_fdr(p, 0.05).tolist() == brute(list(p), 0.05)

    def test_t_pvalues_against_incomplete_beta_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            t = float(rng.uniform(-5, 5))
            df = int(rng.integers(3, 500))
            x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
            want = float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))
            assert abs(student_t_p_value(t, df) - want) < 1e-9
        ok(9, "Fisher-Z fixture, exhaustive BH-FDR (m<=8), and 20 t p-value fixtures all match oracles")


class TestCriterion10ConcordanceScorer:
    def test_published_rows_reproduce_reported_tallies(self):
        rows = json.loads((FIXTURES / "concordance_rows.json").read_text())["rows"]
        out = concordance(rows)
        assert out["n"] == 41
        assert out["direction_hits"] == 41
        assert out["ci_hits"] == 30
        ok(10, "concordance scorer reproduces 41/41 direction hits and 30/41 CI hits on the fixture rows")


class TestCriterion11TruncatedNormal:
    def test_sampler_mean_matches_quadrature(self):
        from scipy import integrate

        vocab = build_vocabulary(
            [RawModality("v", "continuous", values=list(np.random.default_rng(0).normal(100, 20, 500)))]
        )
        fixtures = [
            (150.0, 20.0, 100.0, 200.0),
            (0.0, 1.0, -0.5, 3.0),
            (80.0, 30.0, 70.0, 90.0),
            (5.7, 0.6, 5.0, 10.0),
            (130.0, 15.0, 60.0, 140.0),
        ]
        rng = np.random.default_rng(11)
        for mean, sd, lo, hi in fixtures:
            pdf = lambda x: math.exp(-0.5 * ((x - mean) / sd) ** 2)
            mass, _ = integrate.quad(pdf, lo, hi)
            ex, _ = integrate.quad(lambda x: x * pdf(x), lo, hi)
            ex2, _ = integrate.quad(lambda x: x * x * pdf(x), lo, hi)
            exact_mean = ex / mass
            exact_sd = math.sqrt(ex2 / mass - exact_mean**2)
            trial = TrialSpec(
                name="fx", table1=[TrialVariable("v", mean, sd, lo, hi)],
                arms=[], outcome="v", horizon_months=12,
                published_point=-1.0, published_ci=(-2.0, 0.0), n=400,
            )
            sample = np.array(
                [rec.events[0].value for rec in sample_trial_population(trial, rng, vocab)]
            )
            se = exact_sd / math.sqrt(len(sample))
            assert abs(sample.mean() - exact_mean) <= 2 * se, (mean, sd, lo, hi)
        ok(11, "truncated-normal sample means within 2 SE of quadrature oracle on all 5 fixtures")


class TestCriterion12Determinism:
    def test_byte_identical_artifacts(self, tmp_path):
        def digest(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        from trajlm.cli import main

        hashes = {}
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            cohort = base / "c.jsonl"
            vocab = base / "v.json"
            truth = base / "t.json"
            assert main(["synth", "--seed", "21", "--participants", "16",
                         "--out", str(cohort), "--truth", str(truth), "--vocab-out", str(vocab)]) == 0
            cfg = base / "train.cfg"
            cfg.write_text(
                "n_embd = 16\nn_layers = 1\nn_heads = 2\nd_head = 4\ncontinuous_pe_base_dim = 8\n"
                "dropout = 0.1\nmax_seq_length = 256\nlr = 0.002\nepochs = 1\nbatch_size = 4\n"
                "warmup_steps = 3\nseed = 2\n",
                encoding="utf-8",
            )
            ckpt = base / "m.ckpt"
            assert main(["train", "--cohort", str(cohort), "--vocab", str(vocab),
                         "--config", str(cfg), "--out", str(ckpt)]) == 0
            report = base / "r.csv"
            assert main(["eval-ntp", "--ckpt", str(ckpt), "--cohort", str(cohort),
                         "--vocab", str(vocab), "--report", str(report)]) == 0
            hashes[tag] = {
                "cohort": digest(cohort), "truth": digest(truth), "vocab": digest(vocab),
                "ckpt": digest(ckpt), "report": digest(report),
            }
        assert hashes["one"] == hashes["two"]
        ok(12, "same seed gives byte-identical cohort, ground truth, vocabulary, checkpoint, and report hashes")
