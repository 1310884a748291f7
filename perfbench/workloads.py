"""The three workloads: inputs built from the seed, the timed work, and the
checks on what the program returned.

Each workload offers
  setup(dir, seed)            -> context; builds every input from the seed,
  measure(ctx, dir, seconds, tally) -> (participant_ms, detail metrics),
  job(ctx, dir, tally)        -> one fixed repetition, outputs written to dir
                                 (the unit the traced run compares),
  expected(facts, detail)     -> completeness failures for a traced job.

The program under test only ever sees the generated files or objects.  The
load is a closed loop in one process: each call starts after the previous
one returned.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import time
from datetime import datetime, timedelta

import numpy as np

from trajlm import checkpoint, cli, corpus, evalharness, intervene, model, numerics, objective, synthcohort, vocab as vocab_mod

from tracer import Patcher, percentile, summarize


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems[:5])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One `trajlm` command in this process, its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def digests(directory, names) -> dict[str, str]:
    return {n: sha256_file(os.path.join(directory, n)) for n in names}


def csv_header(path) -> dict[str, str]:
    """The `# key=value` lines at the top of a trajlm CSV."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            out[key] = value
    return out


def data_rows(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line for line in f if not line.startswith("#")][1:]


class Stamps:
    """Timestamps from a wrapper on one name, where a caller looks it up."""

    def __init__(self, patcher: Patcher, owner, attr: str, at: str = "return", measure=None):
        self.times: list[float] = []
        self.total = 0
        inner = getattr(owner, attr)
        times = self.times
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if at == "call":
                times.append(clock())
            result = inner(*args, **kwargs)
            if at == "return":
                times.append(clock())
            if measure is not None:
                self.total += measure(result)
            return result

        patcher.patch(owner, attr, wrapper)


# --- desk scale ---------------------------------------------------------------

DESK_CONFIG = """\
n_embd = 64
n_layers = 2
n_heads = 2
d_head = 32
continuous_pe_base_dim = 64
dropout = 0.1
max_seq_length = 512
lr = 0.001
gamma = 0.1
epochs = 1
batch_size = 1
warmup_steps = 100
seed = 5
val_fraction = 0.2
SL_sigma = 0.01
"""


def _write_cohort(records, vocab, directory, name):
    corpus.write_cohort_jsonl(records, vocab, os.path.join(directory, name))


class DeskTrain:
    """`trajlm train` on the acceptance recipe: a planted 400-participant
    cohort, 20% validation hold-out, d=64, L=2, batch 1, augmentations on,
    dropout 0.1, one epoch per repetition."""

    name = "desk-train"
    participants = 400
    outputs = ("model.ckpt", "train_log.csv")

    def setup(self, d: str, seed: int) -> dict:
        cfg = synthcohort.default_config(n_participants=self.participants, seed=seed)
        records, _ = synthcohort.generate(cfg, np.random.default_rng(seed))
        vocab = synthcohort.build_synth_vocabulary(records, cfg)
        _write_cohort(records, vocab, d, "cohort.jsonl")
        vocab_mod.save_vocabulary(vocab, os.path.join(d, "vocab.json"))
        with open(os.path.join(d, "train.cfg"), "w", encoding="utf-8") as f:
            f.write(DESK_CONFIG)
        return {"dir": d, "inputs": ("cohort.jsonl", "vocab.json", "train.cfg")}

    def _train(self, ctx: dict, out: str):
        d = ctx["dir"]
        with Patcher() as patcher:
            steps = Stamps(patcher, objective, "adamw_step")
            saves = Stamps(patcher, objective, "save_checkpoint", at="call")
            aug = Stamps(patcher, objective, "augment", measure=lambda seq: seq.length)
            train_wall = [0.0]
            inner_train = cli.train

            def timed_train(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return inner_train(*args, **kwargs)
                finally:
                    train_wall[0] += time.perf_counter() - t0

            patcher.patch(cli, "train", timed_train)
            rc, console = run_cli([
                "train", "--cohort", os.path.join(d, "cohort.jsonl"), "--vocab", os.path.join(d, "vocab.json"),
                "--config", os.path.join(d, "train.cfg"),
                "--out", os.path.join(out, "model.ckpt"), "--log", os.path.join(out, "train_log.csv"),
            ])
        # an interval that holds a validation pass and checkpoint save is not a step
        intervals = [
            (b - a) * 1000.0
            for a, b in zip(steps.times, steps.times[1:])
            if not any(a < s < b for s in saves.times)
        ]
        return rc, console, intervals, train_wall[0], aug.total

    def _check(self, rc, console, out, first) -> tuple[list[str], dict]:
        if rc != 0:
            return [f"train exited {rc}: {console.strip()[-200:]}"], {}
        problems = []
        log = os.path.join(out, "train_log.csv")
        header = csv_header(log)
        meta = checkpoint.read_header(os.path.join(out, "model.ckpt"))["meta"]
        for key in ("seed", "config_hash", "version"):
            if not header.get(key):
                problems.append(f"train log header lacks {key}")
            if str(meta.get(key, "")) != header.get(key):
                problems.append(f"checkpoint meta {key}={meta.get(key)!r} disagrees with the log header")
        vals = [row.rstrip("\n").split(",")[-1] for row in data_rows(log)]
        vals = [float(v) for v in vals if v]
        val_loss = vals[-1] if vals else math.nan
        if not math.isfinite(val_loss):
            problems.append(f"validation loss {val_loss!r} is not finite")
        sig = {"val_loss": val_loss, **digests(out, self.outputs)}
        if first is not None and sig != first:
            problems.append(f"repetition differs from the first under a fixed seed: {sig} vs {first}")
        return problems, sig

    def measure(self, ctx: dict, d: str, seconds: float, tally: Tally):
        intervals, walls, tokens = [], [], 0
        first = None
        t_end = time.perf_counter() + seconds
        while True:
            gc.collect()
            rc, console, iv, wall, aug_tokens = self._train(ctx, d)
            problems, sig = self._check(rc, console, d, first)
            tally.op(problems)
            first = first or sig
            if not problems:
                intervals += iv
                walls.append(wall)
                tokens += aug_tokens
            if time.perf_counter() >= t_end:
                break
        steps = summarize(intervals)
        n = steps.pop("n")
        detail = {f"train.step_ms.{q}": (value, "ms", n) for q, value in steps.items()}
        detail.update({
            "train.tokens_per_s": (tokens / sum(walls), "tokens/s", len(walls)),
            "train.val_loss": (first.get("val_loss", math.nan) if first else math.nan, "nats", len(walls)),
        })
        return detail["train.step_ms.p50"][0], detail

    def job(self, ctx: dict, d: str, tally: Tally) -> list[str]:
        rc, console, _, _, _ = self._train(ctx, d)
        problems, _ = self._check(rc, console, d, None)
        tally.op(problems)
        return list(self.outputs)

    def expected(self, facts: dict, layer: dict) -> list[str]:
        return []


TRIALS = {
    "a_one_arm.json": {
        "name": "one-arm",
        "n": 40,
        "table1": [
            {"modality": "age", "mean": 60, "sd": 5, "low": 40, "high": 80},
            {"modality": "t_target", "mean": 160, "sd": 10, "low": 100, "high": 220},
            {"modality": "x_core", "mean": 100, "sd": 8, "low": 60, "high": 140},
        ],
        "arms": [{"kind": "append", "modality": "medication", "category_index": 0,
                  "frequency": 1, "duration": 12, "label": "drug_a"}],
        "outcome": "t_target",
        "horizon_months": 12,
        "published": {"point": -20.0, "ci_low": -25.0, "ci_high": -15.0},
    },
    "b_two_arm.json": {
        "name": "two-arm",
        "n": 40,
        "table1": [
            {"modality": "age", "mean": 55, "sd": 8, "low": 35, "high": 80},
            {"modality": "t_target", "mean": 150, "sd": 12, "low": 100, "high": 220},
            {"modality": "x_core", "mean": 104, "sd": 9, "low": 60, "high": 140},
            {"modality": "y_double", "mean": 208, "sd": 18, "low": 120, "high": 290},
        ],
        "arms": [
            {"kind": "append", "modality": "medication", "category_index": 0,
             "frequency": 2, "duration": 6, "label": "drug_a"},
            {"kind": "scale", "modalities": ["x_core"], "factor": 0.9, "label": "diet"},
        ],
        "outcome": "t_target",
        "horizon_months": 6,
        "published": {"point": -12.0, "ci_low": -18.0, "ci_high": -6.0},
    },
}

SIM_SPEC = {
    "intervention": {"kind": "append", "modality": "medication", "category_index": 0,
                     "frequency": 1, "duration": 12, "label": "drug_a"},
    "outcome": "t_target",
    "horizon_months": 12,
    "eligibility": {"modality": "x_core", "comparator": ">=", "threshold": 95.0},
}


class DeskQuery:
    """The query commands a user runs against a desk checkpoint, in sequence:
    eval-ntp and eval-longitudinal on the 100-participant test split,
    simulate --trajectory with an eligibility screen on 60 of them, and
    trial-run over a one-arm and a two-arm synthetic trial."""

    name = "desk-query"
    participants = 500          # 400 train, 100 test, as in the acceptance fixture
    test_participants = 100
    setup_train = 100           # the checkpoint trains on these, one epoch
    sim_participants = 60

    commands = {
        "eval-ntp": ("ntp.csv", "ntp.json"),
        "eval-longitudinal": ("long.csv", "long.csv.locf.csv", "long.csv.linear.csv", "long.json"),
        "simulate": ("sim.csv", "sim.csv.trajectory.csv"),
        "trial-run": ("forest.csv",),
    }
    metric = {"eval-ntp": "ntp", "eval-longitudinal": "longitudinal", "simulate": "simulate", "trial-run": "trial"}

    def setup(self, d: str, seed: int) -> dict:
        cfg = synthcohort.default_config(n_participants=self.participants, seed=seed)
        records, _ = synthcohort.generate(cfg, np.random.default_rng(seed))
        vocab = synthcohort.build_synth_vocabulary(records, cfg)
        _write_cohort(records[: self.setup_train], vocab, d, "setup_train.jsonl")
        test = records[self.participants - self.test_participants :]
        _write_cohort(records[: len(records) - len(test)], vocab, d, "train.jsonl")
        _write_cohort(test, vocab, d, "test.jsonl")
        _write_cohort(test[: self.sim_participants], vocab, d, "sim.jsonl")
        vocab_mod.save_vocabulary(vocab, os.path.join(d, "vocab.json"))
        with open(os.path.join(d, "train.cfg"), "w", encoding="utf-8") as f:
            f.write(DESK_CONFIG)
        with open(os.path.join(d, "spec.json"), "w", encoding="utf-8") as f:
            json.dump(SIM_SPEC, f, sort_keys=True)
        os.makedirs(os.path.join(d, "trials"), exist_ok=True)
        for fname, doc in TRIALS.items():
            with open(os.path.join(d, "trials", fname), "w", encoding="utf-8") as f:
                json.dump(doc, f, sort_keys=True)
        rc, console = run_cli([
            "train", "--cohort", os.path.join(d, "setup_train.jsonl"), "--vocab", os.path.join(d, "vocab.json"),
            "--config", os.path.join(d, "train.cfg"), "--out", os.path.join(d, "model.ckpt"),
        ])
        if rc != 0:
            raise RuntimeError(f"set-up training failed: {console.strip()[-300:]}")
        ranges = {
            m.id: (min(m.midpoints), max(m.midpoints))
            for m in vocab.modalities if m.kind == vocab_mod.CONTINUOUS
        }
        return {
            "dir": d, "seed": seed, "ranges": ranges,
            "inputs": ("train.jsonl", "test.jsonl", "sim.jsonl", "vocab.json", "model.ckpt", "spec.json"),
        }

    def _argv(self, ctx: dict, command: str, out: str) -> list[str]:
        d = ctx["dir"]
        common = ["--ckpt", os.path.join(d, "model.ckpt"), "--vocab", os.path.join(d, "vocab.json")]
        o = lambda name: os.path.join(out, name)  # noqa: E731
        if command == "eval-ntp":
            return ["eval-ntp", *common, "--cohort", os.path.join(d, "test.jsonl"),
                    "--report", o("ntp.csv"), "--json", o("ntp.json"), "--workers", "1"]
        if command == "eval-longitudinal":
            return ["eval-longitudinal", *common, "--cohort", os.path.join(d, "test.jsonl"),
                    "--baselines", "locf,linear", "--train-cohort", os.path.join(d, "train.jsonl"),
                    "--report", o("long.csv"), "--json", o("long.json"), "--workers", "1"]
        if command == "simulate":
            return ["simulate", *common, "--cohort", os.path.join(d, "sim.jsonl"), "--spec", os.path.join(d, "spec.json"),
                    "--out", o("sim.csv"), "--trajectory", "--seed", str(ctx["seed"]), "--workers", "1"]
        return ["trial-run", *common, "--trials", os.path.join(d, "trials"), "--out", o("forest.csv"),
                "--seed", str(ctx["seed"])]

    def _run(self, ctx: dict, command: str, out: str, first: dict, tally: Tally) -> tuple[float, int] | None:
        """One command, timed; returns (wall seconds, participants), None if it failed."""
        decoded = []
        with Patcher() as patcher:
            inner = evalharness.decode_expected

            def checked(logits_row, vocab, modality_id):
                value = inner(logits_row, vocab, modality_id)
                decoded.append((modality_id, value))
                return value

            patcher.patch(evalharness, "decode_expected", checked)
            t0 = time.perf_counter()
            rc, console = run_cli(self._argv(ctx, command, out))
            wall = time.perf_counter() - t0
        if rc != 0:
            tally.op([f"{command} exited {rc}: {console.strip()[-200:]}"])
            return None
        people = self.test_participants
        problems = []
        ranges = ctx["ranges"]
        outside = [(m, v) for m, v in decoded if not ranges[m][0] <= v <= ranges[m][1]]
        if outside:
            problems.append(f"{command}: {len(outside)} decoded predictions outside the midpoint range, e.g. {outside[0]}")
        sig = digests(out, self.commands[command])
        if command == "simulate":
            people = sig["kept"] = len(data_rows(os.path.join(out, "sim.csv")))
        if command == "trial-run":
            people = sum(doc["n"] for doc in TRIALS.values())
            header = csv_header(os.path.join(out, "forest.csv"))
            sig["tallies"] = (header.get("direction_hits"), header.get("ci_hits"))
        if command in first and first[command] != sig:
            problems.append(f"{command} differs from the first repetition: {sig} vs {first[command]}")
        first.setdefault(command, sig)
        tally.op(problems)
        return wall, people

    def measure(self, ctx: dict, d: str, seconds: float, tally: Tally):
        first: dict = {}
        runs = {c: [] for c in self.commands}
        t_end = time.perf_counter() + seconds
        while True:
            gc.collect()
            for command in self.commands:
                done = self._run(ctx, command, d, first, tally)
                if done is not None:
                    runs[command].append(done)
            if time.perf_counter() >= t_end:
                break
        rates = {c: percentile([p / w for w, p in r], 50.0) for c, r in runs.items()}
        detail = {f"{self.metric[c]}.participants_per_s": (rates[c], "1/s", len(runs[c])) for c in self.commands}
        detail["simulate.participants"] = (first.get("simulate", {}).get("kept", 0), "count", 1)
        # one participant through each of the four commands
        return sum(1000.0 / rate for rate in rates.values()), detail

    def job(self, ctx: dict, d: str, tally: Tally) -> list[str]:
        first: dict = {}
        for command in self.commands:
            self._run(ctx, command, d, first, tally)
        return [name for names in self.commands.values() for name in names]

    def expected(self, facts: dict, layer: dict) -> list[str]:
        problems = []
        if facts["ntp_passes_per_participant"] != 1:
            problems.append(f"eval-ntp ran {facts['ntp_passes_per_participant']} passes per participant, not 1")
        if layer["numerics.tape_nodes"] <= 0:
            problems.append("no tape nodes recorded during inference")
        return problems


# --- long context -------------------------------------------------------------

# 600 continuous modalities x 20 bins + 67 categorical ones (51 x 16 + 16 x 15)
# = 13,056 tokens over 667 modalities.
LONG_CONTINUOUS = 600
LONG_BINS = 20
LONG_CATEGORIES = (16,) * 51 + (15,) * 16
LONG_EVENTS = 1000
LONG_QUERIES = 12
LONG_QUERY_SHARE = 0.4      # of --seconds spent on packed query passes
LONG_MIN_QUERIES = 3
LONG_MIN_STEPS = 2
# Packed and single-query predictions agree within this share of the outcome
# modality's midpoint span (float32 BLAS blocks differently as T changes).
PACKED_TOLERANCE = 1e-5


class LongContext:
    """A synthetic float32 model (V=13,056 over 667 modalities, d=256, L=4)
    and one participant with a 1,000-event context: packed 12-query passes
    (T=1,024), then training steps on the same context."""

    name = "long-context"

    def setup(self, d: str, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        raw = []
        means = rng.uniform(10.0, 200.0, LONG_CONTINUOUS)
        for i, mean in enumerate(means):
            values = rng.normal(mean, 0.1 * mean, 200).tolist()
            raw.append(vocab_mod.RawModality(f"c{i:03d}", vocab_mod.CONTINUOUS, values=values, bin_count=LONG_BINS))
        for i, k in enumerate(LONG_CATEGORIES):
            raw.append(vocab_mod.RawModality(f"k{i:02d}", vocab_mod.CATEGORICAL, categories=[f"v{j}" for j in range(k)]))
        vocab = vocab_mod.build_vocabulary(raw)
        config = model.ModelConfig(
            vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities, d_model=256, n_layers=4,
            n_heads=4, d_head=64, cont_pe_dim=256, dropout=0.0, max_seq_len=2048,
        )
        params = model.init_params(config, rng, dtype=np.float32)

        start = datetime(2021, 3, 1, 7, 0)
        events = []
        for j in range(LONG_EVENTS):
            m = int(rng.integers(0, vocab.n_modalities))
            when = start + timedelta(minutes=20 * j)
            spec = vocab.modalities[m]
            value = float(rng.normal(means[m], 0.1 * means[m])) if m < LONG_CONTINUOUS else spec.categories[int(rng.integers(0, len(spec.categories)))]
            events.append(corpus.Event(when, m, value, False))
        record = corpus.ParticipantRecord("long-0", 58.0, "female", events, [start])
        seq = corpus.assemble_sequence(record, vocab, config.max_seq_len)
        outcome = int(rng.integers(0, LONG_CONTINUOUS))
        end = corpus.features_to_datetime(seq.times[seq.length - 1])
        queries = [(outcome, intervene.add_months(end, month)) for month in range(1, LONG_QUERIES + 1)]
        mids = vocab.modalities[outcome].midpoints
        return {
            "vocab": vocab, "config": config, "params": params, "record": record, "seq": seq,
            "queries": queries, "range": (min(mids), max(mids)), "optimizer": objective.OptimizerState(),
            "inputs": (),
        }

    def _query(self, ctx: dict, queries=None) -> list[float]:
        r = ctx["record"]
        return evalharness.predict_queries(
            ctx["params"], ctx["config"], ctx["vocab"], ctx["seq"], r.age, r.sex, queries or ctx["queries"]
        )

    def _check_query(self, ctx: dict, preds) -> list[str]:
        lo, hi = ctx["range"]
        bad = [p for p in preds if not (math.isfinite(p) and lo <= p <= hi)]
        if len(preds) != LONG_QUERIES or bad:
            return [f"packed pass returned {len(preds)} predictions, {len(bad)} outside [{lo}, {hi}]"]
        return []

    def _agreement(self, ctx: dict, packed) -> tuple[list[str], list[float]]:
        """First and last packed predictions against single-query passes."""
        lo, hi = ctx["range"]
        tol = PACKED_TOLERANCE * (hi - lo)
        singles = [self._query(ctx, [ctx["queries"][i]])[0] for i in (0, -1)]
        problems = [
            f"packed {p!r} vs single {s!r} differ by more than {tol:.3g}"
            for p, s in zip((packed[0], packed[-1]), singles)
            if not abs(p - s) <= tol
        ]
        return problems, singles

    def _train_step(self, ctx: dict) -> tuple[float, float]:
        params, r = ctx["params"], ctx["record"]
        for p in params.values():
            p.grad = None
        loss, _ = objective.sequence_loss(
            params, ctx["config"], ctx["vocab"], ctx["seq"], r.age, r.sex, objective.LossConfig()
        )
        value = float(loss.data)
        numerics.backward(loss)
        del loss  # free this step's tape before the next one is recorded
        norm = objective.clip_gradients(params, 0.1)
        objective.adamw_step(params, ctx["optimizer"], 1e-4)
        return value, norm

    def _check_step(self, loss: float, norm: float) -> list[str]:
        if math.isfinite(loss) and math.isfinite(norm):
            return []
        return [f"training step gave loss {loss!r}, gradient norm {norm!r}"]

    def measure(self, ctx: dict, d: str, seconds: float, tally: Tally):
        t_start = time.perf_counter()
        query_s, step_s = [], []
        packed = None
        while len(query_s) < LONG_MIN_QUERIES or time.perf_counter() - t_start < LONG_QUERY_SHARE * seconds:
            t0 = time.perf_counter()
            packed = self._query(ctx)
            query_s.append(time.perf_counter() - t0)
            tally.op(self._check_query(ctx, packed))
        query_rss = peak_rss_mb()
        paused = time.perf_counter()
        problems, _ = self._agreement(ctx, packed)  # outside the timed region
        tally.op(problems)
        t_start += time.perf_counter() - paused
        while len(step_s) < LONG_MIN_STEPS or time.perf_counter() - t_start < seconds:
            gc.collect()
            t0 = time.perf_counter()
            loss, norm = self._train_step(ctx)
            step_s.append(time.perf_counter() - t0)
            tally.op(self._check_step(loss, norm))
        detail = {
            "long.query_s": (percentile(query_s, 50.0), "s", len(query_s)),
            "long.train_step_s": (percentile(step_s, 50.0), "s", len(step_s)),
            "long.query_peak_rss_mb": (query_rss, "MB", 1),
        }
        return 1000.0 * (detail["long.query_s"][0] + detail["long.train_step_s"][0]), detail

    def job(self, ctx: dict, d: str, tally: Tally) -> list[str]:
        packed = self._query(ctx)
        tally.op(self._check_query(ctx, packed))
        problems, singles = self._agreement(ctx, packed)
        tally.op(problems)
        loss, norm = self._train_step(ctx)
        tally.op(self._check_step(loss, norm))
        digest = hashlib.sha256()
        for name, p in ctx["params"].items():
            digest.update(name.encode())
            digest.update(p.data.tobytes())
        with open(os.path.join(d, "long_outputs.json"), "w", encoding="utf-8") as f:
            json.dump({"packed": [repr(v) for v in packed], "single": [repr(v) for v in singles],
                       "loss": repr(loss), "grad_norm": repr(norm), "params_sha256": digest.hexdigest()}, f)
        return ["long_outputs.json"]

    def expected(self, facts: dict, layer: dict) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (DeskTrain(), DeskQuery(), LongContext())}
