"""Tracing of trajlm's layers from outside, and the per-layer metrics.

Every public function of each layer module is wrapped at every place it is
bound: a function imported by name (`forward`, `predict_queries`,
`assemble_sequence`, `save_checkpoint`, ...) is rebound in each importing
module, and `model`/`objective` reach `numerics` through `nm.<op>`, so the
numerics wrappers sit on the `trajlm.numerics` attributes.  Probes turn call
arguments and results into counts at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

from tracer import Patcher, Recorder

LAYERS = (
    "vocab", "corpus", "numerics", "model", "objective", "evalharness",
    "intervene", "stats", "checkpoint", "synthcohort", "cli",
)

# Ops whose calls and self time are reported one by one.
NUMERICS_OPS = (
    "matmul", "add", "mul", "scale", "softmax", "log_softmax", "layer_norm", "gelu",
    "tanh", "embedding", "take_rows", "slice_cols", "reshape", "transpose", "dropout",
)

# Numerics functions that are not tape operations.
_NOT_OPS = {"backward", "grad_check", "neg_inf"}

CLI_COMMANDS = ("train", "eval-ntp", "eval-longitudinal", "simulate", "trial-run")

_CALLS = ("count", "lower")
_SECONDS = ("s", "lower")


def _metric_table() -> list[tuple[str, str, str]]:
    rows = [
        ("numerics.ops", "count", "lower"),
        ("numerics.tape_nodes", "count", "lower"),
        ("numerics.bytes_out", "bytes", "lower"),
    ]
    for op in NUMERICS_OPS:
        rows.append((f"numerics.{op}.calls", *_CALLS))
        rows.append((f"numerics.{op}.self_s", *_SECONDS))
    rows += [
        ("numerics.backward.s", *_SECONDS),
        ("model.forward.calls", *_CALLS),
        ("model.forward.s", *_SECONDS),
        ("model.forward.tokens", "tokens", "lower"),
        ("model.embed_inputs.s", *_SECONDS),
        ("model.build_mask.calls", *_CALLS),
        ("model.build_mask.s", *_SECONDS),
        ("model.value_scale_table.calls", *_CALLS),
        ("model.attn_score_bytes", "bytes", "lower"),
        ("model.head_cols", "count", "lower"),
        ("objective.sequence_loss.calls", *_CALLS),
        ("objective.sequence_loss.s", *_SECONDS),
        ("objective.masked_ntp_loss.s", *_SECONDS),
        ("objective.clip_gradients.s", *_SECONDS),
        ("objective.adamw_step.s", *_SECONDS),
        ("objective.steps", *_CALLS),
        ("objective.sequences_skipped", *_CALLS),
        ("objective.targets", "count", "higher"),
        ("objective.validation_s", *_SECONDS),
        ("corpus.assemble_sequence.calls", *_CALLS),
        ("corpus.assemble_sequence.s", *_SECONDS),
        ("corpus.augment.calls", *_CALLS),
        ("corpus.augment.s", *_SECONDS),
        ("corpus.read_cohort_jsonl.s", *_SECONDS),
        ("vocab.encode_value.calls", *_CALLS),
        ("vocab.encode_value.s", *_SECONDS),
        ("vocab.load_vocabulary.s", *_SECONDS),
        ("evalharness.predict_queries.calls", *_CALLS),
        ("evalharness.predict_queries.s", *_SECONDS),
        ("evalharness.queries_per_pass", "queries/pass", "higher"),
        ("evalharness.decode_expected.calls", *_CALLS),
        ("evalharness.decode_expected.s", *_SECONDS),
        ("evalharness.within_visit_pools.s", *_SECONDS),
        ("evalharness.longitudinal_pools.s", *_SECONDS),
        ("evalharness.baseline_predict.s", *_SECONDS),
        ("evalharness.participants_skipped", *_CALLS),
        ("intervene.simulate_arms.s", *_SECONDS),
        ("intervene.filter_eligible.s", *_SECONDS),
        ("intervene.trajectory.s", *_SECONDS),
        ("intervene.four_arm.s", *_SECONDS),
        ("intervene.apply_intervention.calls", *_CALLS),
        ("intervene.apply_intervention.s", *_SECONDS),
        ("intervene.sample_trial_population.s", *_SECONDS),
        ("intervene.passes_per_participant", "pass/participant", "lower"),
        ("intervene.eligible_kept", "count", "higher"),
        ("stats.pearson_with_ci.calls", *_CALLS),
        ("stats.pearson_with_ci.s", *_SECONDS),
        ("stats.bh_fdr.s", *_SECONDS),
        ("stats.bootstrap_ci.s", *_SECONDS),
        ("checkpoint.load_checkpoint.calls", *_CALLS),
        ("checkpoint.load_checkpoint.s", *_SECONDS),
        ("checkpoint.save_checkpoint.calls", *_CALLS),
        ("checkpoint.save_checkpoint.s", *_SECONDS),
        ("checkpoint.bytes", "bytes", "lower"),
        ("synthcohort.generate.s", *_SECONDS),
    ]
    rows += [(f"cli.{cmd}.s", *_SECONDS) for cmd in CLI_COMMANDS]
    rows += [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return rows


PER_LAYER = _metric_table()


def span_name(layer: str, fname: str) -> str:
    if layer == "cli" and fname.startswith("cmd_"):
        return "cli." + fname[4:].replace("_", "-")
    return f"{layer}.{fname}"


def public_functions(module) -> dict[str, object]:
    """Functions a module defines and does not mark private."""
    return {
        name: value
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__ and not name.startswith("_")
    }


def trajlm_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "trajlm" or name.startswith("trajlm.")]


# --- probes: counts taken at the wrapped boundaries ---------------------------


def _probes(tensor_cls) -> dict:
    def op(rec, sid, args, kwargs, result, dur):
        if isinstance(result, tensor_cls):
            c = rec.counters
            c["numerics.ops"] += 1
            c["numerics.bytes_out"] += result.data.nbytes
            if result.requires_grad and result._parents and not any(result is a for a in args):
                c["numerics.tape_nodes"] += 1

    def forward(rec, sid, args, kwargs, result, dur):
        params, config, tokens = args[0], args[1], args[2]
        t = len(tokens)
        itemsize = params["tok_embed"].data.itemsize
        c = rec.counters
        c["model.forward.tokens"] += t
        c["model.attn_score_bytes"] += config.n_layers * config.n_heads * t * t * itemsize
        c["model.head_cols"] += t * config.vocab_size

    def sequence_loss(rec, sid, args, kwargs, result, dur):
        seq = args[3]
        c = rec.counters
        c["model.implied_passes"] += 1 + int(0 < seq.visit_boundary < seq.length)
        parts = result[1]
        c["objective.targets"] += parts["n_targets"] + parts["n_split_targets"]
        # train() passes dropout_rng by keyword on every training step and
        # never on a validation pass
        rec.notes[sid] = "dropout_rng" not in kwargs and len(args) < 9

    def adamw_step(rec, sid, args, kwargs, result, dur):
        rec.counters["objective.steps"] += 1

    def augment(rec, sid, args, kwargs, result, dur):
        if result.length < 2:
            rec.counters["objective.sequences_skipped"] += 1

    def predict_queries(rec, sid, args, kwargs, result, dur):
        seq, queries = args[3], args[6]
        rec.counters["evalharness.queries"] += len(queries)
        if seq.length and queries:
            rec.counters["model.implied_passes"] += 1

    def within_visit_pools(rec, sid, args, kwargs, result, dur):
        records = args[3]
        rec.notes[sid] = len(records)
        rec.counters["model.implied_passes"] += sum(1 for r in records if len(r.events) >= 2)

    def note_records(rec, sid, args, kwargs, result, dur):
        rec.notes[sid] = len(args[3])

    def filter_eligible(rec, sid, args, kwargs, result, dur):
        rec.counters["intervene.eligible_kept"] += len(result[0])

    def checkpoint_file(rec, sid, args, kwargs, result, dur):
        rec.counters["checkpoint.bytes"] += os.path.getsize(args[0])

    probes = {
        "model.forward": forward,
        "objective.sequence_loss": sequence_loss,
        "objective.adamw_step": adamw_step,
        "corpus.augment": augment,
        "evalharness.predict_queries": predict_queries,
        "evalharness.within_visit_pools": within_visit_pools,
        "evalharness.longitudinal_pools": note_records,
        "intervene.trajectory": note_records,
        "intervene.filter_eligible": filter_eligible,
        "checkpoint.save_checkpoint": checkpoint_file,
        "checkpoint.load_checkpoint": checkpoint_file,
    }
    return probes, op


def install(recorder: Recorder) -> tuple[Patcher, int]:
    """Wrap every public function of every layer at every binding.

    Returns the patcher (restore it when the traced region ends) and the
    number of bindings replaced.
    """
    modules = {layer: importlib.import_module(f"trajlm.{layer}") for layer in LAYERS}
    owners = trajlm_modules()
    probes, op_probe = _probes(modules["numerics"].Tensor)
    patcher = Patcher()
    bound = 0
    for layer, module in modules.items():
        for fname, fn in public_functions(module).items():
            name = span_name(layer, fname)
            probe = probes.get(name)
            if layer == "numerics" and fname not in _NOT_OPS:
                probe = op_probe
            bound += patcher.patch_everywhere(owners, fn, recorder.wrap(name, fn, probe))
    arm = modules["intervene"].ArmResult
    patcher.patch(arm, "bootstrap_ci", recorder.wrap("stats.bootstrap_ci", vars(arm)["bootstrap_ci"]))
    return patcher, bound + 1


def leftover_wrappers() -> list[str]:
    """Bindings in trajlm that still hold a tracing wrapper."""
    owners = trajlm_modules()
    owners.append(importlib.import_module("trajlm.intervene").ArmResult)
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in owners
        for attr, value in vars(owner).items()
        if hasattr(value, "span_name")
    ]


# --- per-layer metrics --------------------------------------------------------


def layer_metrics(rec: Recorder) -> tuple[dict[str, float], dict[str, float]]:
    """Every per-layer metric, plus the facts the completeness check needs."""
    st = rec.by_name()
    c = rec.counters

    def calls(name):
        return st[name]["calls"] if name in st else 0

    def secs(name):
        return st[name]["s"] if name in st else 0.0

    def self_s(name):
        return st[name]["self_s"] if name in st else 0.0

    wvp = rec.descendants("evalharness.within_visit_pools", "model.forward")
    longi = rec.descendants("evalharness.longitudinal_pools", "evalharness.predict_queries")
    skipped = sum(rec.notes[sid] - len(kids) for sid, kids in wvp.items())
    skipped += sum(rec.notes[sid] - len(kids) for sid, kids in longi.items())
    traj = rec.descendants("intervene.trajectory", "model.forward")
    traj_people = sum(rec.notes[sid] for sid in traj)
    traj_passes = sum(len(kids) for kids in traj.values())
    ntp_pools = [sid for kids in rec.descendants("cli.eval-ntp", "evalharness.within_visit_pools").values() for sid in kids]
    ntp_people = sum(rec.notes[sid] for sid in ntp_pools)
    ntp_passes = sum(len(wvp[sid]) for sid in ntp_pools)
    pq_calls = calls("evalharness.predict_queries")
    durations = {sid: end - start for sid, _, _, start, end in rec.spans}
    validation_s = sum(
        durations[sid]
        for kids in rec.descendants("objective.train", "objective.sequence_loss").values()
        for sid in kids
        if rec.notes[sid]
    ) / 1e9

    m: dict[str, float] = {
        "numerics.ops": c["numerics.ops"],
        "numerics.tape_nodes": c["numerics.tape_nodes"],
        "numerics.bytes_out": c["numerics.bytes_out"],
    }
    for op in NUMERICS_OPS:
        m[f"numerics.{op}.calls"] = calls(f"numerics.{op}")
        m[f"numerics.{op}.self_s"] = self_s(f"numerics.{op}")
    m.update(
        {
            "numerics.backward.s": secs("numerics.backward"),
            "model.forward.calls": calls("model.forward"),
            "model.forward.s": secs("model.forward"),
            "model.forward.tokens": c["model.forward.tokens"],
            "model.embed_inputs.s": secs("model.embed_inputs"),
            "model.build_mask.calls": calls("model.build_mask"),
            "model.build_mask.s": secs("model.build_mask"),
            "model.value_scale_table.calls": calls("model.value_scale_table"),
            "model.attn_score_bytes": c["model.attn_score_bytes"],
            "model.head_cols": c["model.head_cols"],
            "objective.sequence_loss.calls": calls("objective.sequence_loss"),
            "objective.sequence_loss.s": secs("objective.sequence_loss"),
            "objective.masked_ntp_loss.s": secs("objective.masked_ntp_loss"),
            "objective.clip_gradients.s": secs("objective.clip_gradients"),
            "objective.adamw_step.s": secs("objective.adamw_step"),
            "objective.steps": c["objective.steps"],
            "objective.sequences_skipped": c["objective.sequences_skipped"],
            "objective.targets": c["objective.targets"],
            "objective.validation_s": validation_s,
            "corpus.assemble_sequence.calls": calls("corpus.assemble_sequence"),
            "corpus.assemble_sequence.s": secs("corpus.assemble_sequence"),
            "corpus.augment.calls": calls("corpus.augment"),
            "corpus.augment.s": secs("corpus.augment"),
            "corpus.read_cohort_jsonl.s": secs("corpus.read_cohort_jsonl"),
            "vocab.encode_value.calls": calls("vocab.encode_value"),
            "vocab.encode_value.s": secs("vocab.encode_value"),
            "vocab.load_vocabulary.s": secs("vocab.load_vocabulary"),
            "evalharness.predict_queries.calls": pq_calls,
            "evalharness.predict_queries.s": secs("evalharness.predict_queries"),
            "evalharness.queries_per_pass": c["evalharness.queries"] / pq_calls if pq_calls else 0.0,
            "evalharness.decode_expected.calls": calls("evalharness.decode_expected"),
            "evalharness.decode_expected.s": secs("evalharness.decode_expected"),
            "evalharness.within_visit_pools.s": secs("evalharness.within_visit_pools"),
            "evalharness.longitudinal_pools.s": secs("evalharness.longitudinal_pools"),
            "evalharness.baseline_predict.s": secs("evalharness.baseline_predict"),
            "evalharness.participants_skipped": skipped,
            "intervene.simulate_arms.s": secs("intervene.simulate_arms"),
            "intervene.filter_eligible.s": secs("intervene.filter_eligible"),
            "intervene.trajectory.s": secs("intervene.trajectory"),
            "intervene.four_arm.s": secs("intervene.four_arm"),
            "intervene.apply_intervention.calls": calls("intervene.apply_intervention"),
            "intervene.apply_intervention.s": secs("intervene.apply_intervention"),
            "intervene.sample_trial_population.s": secs("intervene.sample_trial_population"),
            "intervene.passes_per_participant": traj_passes / traj_people if traj_people else 0.0,
            "intervene.eligible_kept": c["intervene.eligible_kept"],
            "stats.pearson_with_ci.calls": calls("stats.pearson_with_ci"),
            "stats.pearson_with_ci.s": secs("stats.pearson_with_ci"),
            "stats.bh_fdr.s": secs("stats.bh_fdr"),
            "stats.bootstrap_ci.s": secs("stats.bootstrap_ci"),
            "checkpoint.load_checkpoint.calls": calls("checkpoint.load_checkpoint"),
            "checkpoint.load_checkpoint.s": secs("checkpoint.load_checkpoint"),
            "checkpoint.save_checkpoint.calls": calls("checkpoint.save_checkpoint"),
            "checkpoint.save_checkpoint.s": secs("checkpoint.save_checkpoint"),
            "checkpoint.bytes": c["checkpoint.bytes"],
            "synthcohort.generate.s": secs("synthcohort.generate"),
            "trace.spans": len(rec.spans),
        }
    )
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = secs(f"cli.{cmd}")
    facts = {
        "implied_passes": c["model.implied_passes"],
        "ntp_passes_per_participant": ntp_passes / ntp_people if ntp_people else None,
        "trajectory_participants": traj_people,
    }
    return m, facts
