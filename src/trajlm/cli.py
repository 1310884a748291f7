"""Operator command line: vocabulary building, tokenization, training,
evaluation, cross-modal probes, intervention simulation, trial concordance,
and synthetic-cohort generation.

Every artifact embeds the seed, config hash, and library version; loading a
checkpoint against the wrong vocabulary fails before any inference runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from datetime import datetime
from functools import partial

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, read_header
from .corpus import AugmentConfig, assemble_sequence, read_cohort_jsonl, scan_modalities, write_cohort_jsonl
from .evalharness import (
    baseline_predict,
    compare_baseline,
    crossmodal_sweep,
    longitudinal_pools,
    merge_pools,
    pool_metrics,
    within_visit_pools,
    write_csv,
    write_metric_csv,
)
from .intervene import (
    SIMULATION_COUNTS,
    ArmResult,
    concordance,
    read_simulate_spec,
    read_trial_spec,
    sample_trial_population,
    simulate_cohort,
)
from .model import ModelConfig, param_count
from .objective import LossConfig, TrainConfig, TrainingDiverged, parse_config_file, train
from .synthcohort import build_synth_vocabulary, default_config, generate, save_ground_truth
from .vocab import FieldError, InputError, Must, build_vocabulary, load_vocabulary, save_vocabulary


class CliError(RuntimeError):
    pass


def _require_file(path, what: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"missing file: {what} not found at {path!r}")
    return path


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


_TEXT = {"int": ("an integer", int), "float": (Must.number[0], float)}  # how a field of each type reads a value


def resolve_seed(flag_seed: int | None, config_seed: int | None = None, default: int = 0) -> int:
    env = os.environ.get("TRAJLM_SEED")
    if env is not None:
        must, read = _TEXT["int"]
        try:
            return read(env)
        except ValueError:
            raise CliError(f"TRAJLM_SEED must be {must}, got {env!r}") from None
    if flag_seed is not None:
        return flag_seed
    if config_seed is not None:
        return config_seed
    return default


def _meta(seed: int, cfg_hash: str) -> dict:
    return {"seed": seed, "config_hash": cfg_hash, "version": __version__}


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, default=str)
        f.write("\n")


def _load_model(ckpt_path, vocab_path):
    """Load checkpoint + vocabulary, enforcing the vocabulary hash pin; returns
    (params, config, meta, vocab), meta being the checkpoint's seed and config
    hash as every artifact records them."""
    _require_file(ckpt_path, "checkpoint")
    _require_file(vocab_path, "vocabulary")
    params, config, header = load_checkpoint(ckpt_path)
    expected = header.get("vocab_sha256", "")
    actual = file_sha256(vocab_path)
    if expected and expected != actual:
        raise CliError(
            f"vocabulary hash mismatch: checkpoint was trained against {expected[:12]}..., "
            f"but {vocab_path!r} hashes to {actual[:12]}..."
        )
    vocab = load_vocabulary(vocab_path)
    if vocab.total_tokens != config.vocab_size:
        raise CliError(
            f"vocabulary/checkpoint mismatch: {vocab.total_tokens} tokens vs "
            f"model vocab_size {config.vocab_size}"
        )
    return params, config, _meta(header["meta"].get("seed", ""), header["meta"].get("config_hash", "")), vocab


# --- commands -------------------------------------------------------------------


def cmd_synth(args) -> int:
    seed = resolve_seed(args.seed)
    config = default_config(n_participants=args.participants, seed=seed)
    rng = np.random.default_rng(seed)
    records, truth = generate(config, rng)
    vocab = build_synth_vocabulary(records, config)
    write_cohort_jsonl(records, vocab, args.out)
    if args.truth:
        save_ground_truth(truth, args.truth)
    if args.vocab_out:
        save_vocabulary(vocab, args.vocab_out)
    _write_json(str(args.out) + ".meta.json", _meta(seed, config_hash({"n": args.participants, "seed": seed})))
    print(f"wrote {len(records)} participants to {args.out}")
    return 0


def cmd_build_vocab(args) -> int:
    raw = scan_modalities(_require_file(args.cohort, "cohort"))
    try:
        vocab = build_vocabulary(raw)
    except ValueError as e:
        raise InputError(f"{args.cohort}: {e}") from None
    save_vocabulary(vocab, args.out)
    print(f"built vocabulary: {vocab.n_modalities} modalities, {vocab.total_tokens} tokens (pad {vocab.pad_token})")
    return 0


def cmd_tokenize(args) -> int:
    vocab = load_vocabulary(_require_file(args.vocab, "vocabulary"))
    records = read_cohort_jsonl(_require_file(args.cohort, "cohort"), vocab)
    # encode everyone first: an event its modality cannot encode leaves no partial file
    seqs = [assemble_sequence(rec, vocab, args.max_len) for rec in records]
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        for rec, seq in zip(records, seqs):
            row = {
                "id": rec.participant_id,
                "tokens": seq.tokens.tolist(),
                "values": seq.values.tolist(),
                "modalities": seq.modalities.tolist(),
                "times": seq.times.tolist(),
                "visit_boundary": seq.visit_boundary,
            }
            f.write(json.dumps(row, separators=(",", ":")))
            f.write("\n")
    print(f"tokenized {len(records)} participants to {args.out}")
    return 0


def _config_value(flat, key: str, read: tuple, rules: tuple):
    """The value the line that sets `key` gives, read by `read`, a
    (wording, function) pair, and checked against `rules`; a value that
    breaks either is an InputError naming the line and the key."""
    must, parse = read
    try:
        value = parse(flat[key])
    except ValueError:
        raise InputError(f"{flat.where[key]}: {key!r} must be {must}, got {flat[key]!r}") from None
    for must, ok in rules:
        if not ok([value]):
            raise InputError(f"{flat.where[key]}: {key!r} must be {must}, got {value!r}")
    return value


def build_configs(flat: dict[str, str], vocab) -> tuple[ModelConfig, LossConfig, TrainConfig, AugmentConfig]:
    """The configs a `parse_config_file` result sets.  Each key is read and
    checked at its line by the config field that declares it, but `gamma`,
    which sets `min_lr` to gamma * lr where no line sets it; a key no field
    declares is an InputError naming the line."""
    kinds = (ModelConfig, TrainConfig, LossConfig, AugmentConfig)
    by_key = {f.metadata["key"] or f.name: (kind, f) for kind in kinds for f in fields(kind) if f.metadata.get("key") is not None}
    kw: dict = {kind: {} for kind in kinds}
    gamma = None
    for key in flat:
        if key == "gamma":
            gamma = _config_value(flat, key, _TEXT["float"], (Must.finite_non_negative,))
        elif key in by_key:
            kind, f = by_key[key]
            kw[kind][f.name] = _config_value(flat, key, f.metadata["walk"].get("read") or _TEXT[f.type], f.metadata["rules"])
        else:
            raise InputError(f"{flat.where[key]}: unknown config key {key!r}")
    train_kw = kw[TrainConfig]
    if gamma is not None:
        train_kw.setdefault("min_lr", gamma * train_kw.get("peak_lr", TrainConfig.peak_lr))
    try:
        train_cfg = TrainConfig(**train_kw)
    except FieldError as e:  # a line's value keeps its rules: this is min_lr, set from gamma
        raise InputError(f"{flat.where['gamma']}: min_lr = gamma * lr: {e}") from None
    model = ModelConfig(vocab_size=vocab.total_tokens, n_modalities=vocab.n_modalities, **kw[ModelConfig])
    return model, train_cfg, LossConfig(**kw[LossConfig]), AugmentConfig(**kw[AugmentConfig])


def cmd_train(args) -> int:
    vocab = load_vocabulary(_require_file(args.vocab, "vocabulary"))
    records = read_cohort_jsonl(_require_file(args.cohort, "cohort"), vocab)
    flat = parse_config_file(_require_file(args.config, "training config"))
    model_cfg, train_cfg, loss_cfg, aug_cfg = build_configs(flat, vocab)
    train_cfg.seed = resolve_seed(args.seed, train_cfg.seed)

    cfg_hash = config_hash(
        {
            "model": model_cfg.to_dict(),
            "train": vars(train_cfg),
            "loss": vars(loss_cfg),
            "aug": vars(aug_cfg),
        }
    )
    vocab_sha = file_sha256(args.vocab)

    def progress(epoch, step, val):
        print(f"epoch {epoch + 1}/{train_cfg.epochs} step {step}" + ("" if math.isnan(val) else f" val_loss {val:.6f}"))

    _, history, best = train(
        records, vocab, model_cfg, loss_cfg, train_cfg, aug_cfg,
        args.out, vocab_sha256=vocab_sha,
        meta=_meta(train_cfg.seed, cfg_hash), progress=progress,
    )
    if args.log:
        # the provenance lines in _meta's order, seed first
        columns = ["step", "lr", "loss", "soft", "mae", "split", "grad_norm", "clipped", "val_loss"]
        rows = ([row[c] for c in columns] for row in history)
        write_csv(args.log, {}, columns, rows, _meta(train_cfg.seed, cfg_hash).items())
    if math.isnan(best):
        print(f"no validation set was held out; checkpoint at {args.out}")
    else:
        print(f"best validation loss {best:.6f}; checkpoint at {args.out}")
    return 0


def map_participants(fn, records, workers: int) -> list:
    """Apply `fn` to `records` split in order into at most `workers` chunks;
    returns one result per chunk, in order.  A single chunk (one worker, or
    fewer than two records) runs in this process; otherwise each chunk goes
    to its own spawned worker process (forking a process that already runs
    BLAS threads can deadlock the child)."""
    size = max(1, math.ceil(len(records) / workers))
    chunks = [records[i : i + size] for i in range(0, len(records), size)] or [records]
    if len(chunks) == 1:
        return [fn(chunks[0])]
    with ProcessPoolExecutor(max_workers=len(chunks), mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, chunks))


def cmd_eval_ntp(args) -> int:
    params, config, meta, vocab = _load_model(args.ckpt, args.vocab)
    records = read_cohort_jsonl(_require_file(args.cohort, "cohort"), vocab)
    parts = map_participants(partial(within_visit_pools, params, config, vocab), records, args.workers)
    scored = sum(p[1] for p in parts)
    if not scored:
        raise CliError(f"no participant to score: {len(records)} read, none with 2 or more tokens")
    report = pool_metrics(merge_pools(p[0] for p in parts), vocab)
    write_metric_csv(report, args.report, meta)
    if args.json:
        _write_json(args.json, {"median_r": report.median_r(), "n_modalities": len(report.rows), **meta})
    print(
        f"within-visit report on {scored} participants, {len(records) - scored} skipped (fewer than 2 tokens) "
        f"-> {args.report} (median r {report.median_r():.3f})"
    )
    return 0


def cmd_eval_longitudinal(args) -> int:
    baselines = [b.strip() for b in args.baselines.split(",") if b.strip()]
    for kind in baselines:
        if kind not in ("locf", "linear"):
            raise CliError(f"unknown baseline kind {kind!r} in --baselines: choose from locf, linear")
    params, config, meta, vocab = _load_model(args.ckpt, args.vocab)
    records = read_cohort_jsonl(_require_file(args.cohort, "cohort"), vocab)
    parts = map_participants(partial(longitudinal_pools, params, config, vocab), records, args.workers)
    counts = {k: sum(p[1][k] for p in parts) for k in parts[0][1]}
    print("counts: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    if not counts["forecast"]:
        raise CliError(f"no participant to forecast: {len(records)} read, none with a visit-1 context and a visit-2 target")
    pools = merge_pools(p[0] for p in parts)
    report = pool_metrics(pools, vocab)
    write_metric_csv(report, args.report, meta)

    summary: dict = {"model_median_r": report.median_r(), **meta}
    train_records = None
    if args.train_cohort:
        train_records = read_cohort_jsonl(_require_file(args.train_cohort, "train cohort"), vocab)
    for kind in baselines:
        if kind == "linear" and train_records is None:
            print("skipping linear baseline: no --train-cohort given", file=sys.stderr)
            continue
        preds, skipped = baseline_predict(kind, train_records or [], records, vocab)
        rows, comparisons = compare_baseline(pools, preds, vocab, kind)
        out = f"{args.report}.{kind}.csv"
        write_metric_csv(rows, out, meta)
        summary[f"{kind}_median_r"] = rows.median_r()
        if skipped:
            summary[f"{kind}_skipped"] = skipped
        if comparisons:
            summary[f"{kind}_comparisons"] = comparisons
        print(f"{kind} baseline -> {out} (median r {rows.median_r():.3f})")
    if args.json:
        _write_json(args.json, summary)
    print(f"longitudinal report -> {args.report} (median r {report.median_r():.3f})")
    return 0


def cmd_probe_crossmodal(args) -> int:
    params, config, meta, vocab = _load_model(args.ckpt, args.vocab)
    m_in = vocab.modality(args.input).id
    m_out = vocab.modality(args.output).id
    when = datetime.fromisoformat(args.time)
    xs, ys = crossmodal_sweep(params, config, vocab, m_in, m_out, when)
    rows = ([format(x, ".10g"), format(y, ".10g")] for x, y in zip(xs, ys))
    write_csv(args.out, meta, ["input_midpoint", "expected_output"], rows)
    if args.plot:
        from .plots import scatter_svg

        scatter_svg(args.plot, xs, ys, title=f"{args.input} -> {args.output}", xlabel=args.input, ylabel=args.output)
    print(f"probe curve over {len(xs)} bins -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    if args.plot and not args.trajectory:
        raise CliError("--plot draws the trajectory: give --trajectory with it")
    params, config, meta, vocab = _load_model(args.ckpt, args.vocab)
    records = read_cohort_jsonl(_require_file(args.cohort, "cohort"), vocab)
    doc = read_simulate_spec(_require_file(args.spec, "intervention spec"), vocab)
    spec, horizon, rule = doc["intervention"], doc["horizon_months"], doc["eligibility"]
    outcome = vocab.modality(doc["outcome"]).id
    seed = resolve_seed(args.seed, doc["seed"], 0)
    rng = np.random.default_rng(seed)

    sim_fn = partial(
        simulate_cohort, params, config, vocab, arm=spec, outcome_modality=outcome,
        horizon_months=horizon, months=horizon if args.trajectory else 0, rule=rule,
    )
    arm = ArmResult.merge(map_participants(sim_fn, records, args.workers))
    counts = arm.counts
    if rule is not None:
        print(f"eligibility: {counts['simulated']} kept, {counts['missing_rule_modality']} missing the rule modality")
    print("counts: " + " ".join(f"{k}={counts[k]}" for k in SIMULATION_COUNTS))
    if not arm.participants:
        if records and counts["no_visit1_context"] == len(records):
            raise CliError("no participant to simulate has any visit-1 measurement")
        raise CliError("no eligible participants to simulate")
    arm.ci = arm.bootstrap_ci(rng)
    meta["seed"] = seed
    effect = {"mean_delta": arm.mean_delta, "effect_percent": arm.effect_percent, "ci_low": arm.ci[0], "ci_high": arm.ci[1]}
    notes = [
        ("label", spec.label), ("outcome", vocab.modalities[outcome].name), ("horizon_months", horizon),
        *((k, counts[k]) for k in SIMULATION_COUNTS), *((k, format(v, ".10g")) for k, v in effect.items()),
    ]
    rows = (
        [pid, format(c, ".10g"), format(t, ".10g"), format(t - c, ".10g")]
        for pid, c, t in zip(arm.participants, arm.control, arm.treatment)
    )
    write_csv(args.out, meta, ["participant", "predicted_control", "predicted_treatment", "delta"], rows, notes)
    if args.trajectory:
        series = arm.monthly()
        rows = ([t, format(mean, ".10g"), format(sem, ".10g")] for t, mean, sem in series)
        write_csv(f"{args.out}.trajectory.csv", meta, ["month", "mean_delta", "sem"], rows)
        if args.plot:
            from .plots import line_svg

            line_svg(args.plot, [s[0] for s in series], [s[1] for s in series], [s[2] for s in series],
                     title=spec.label, xlabel="months", ylabel="mean delta")
    print(f"simulated {len(arm.participants)} participants: effect {arm.effect_percent:.2f}% -> {args.out}")
    return 0


def cmd_trial_run(args) -> int:
    params, config, meta, vocab = _load_model(args.ckpt, args.vocab)
    if not os.path.isdir(args.trials):
        raise CliError(f"missing file: trials directory not found at {args.trials!r}")
    paths = sorted(p for p in os.listdir(args.trials) if p.endswith(".json"))
    if not paths:
        raise CliError(f"no trial specs (*.json) in {args.trials!r}")
    seed = resolve_seed(args.seed, None, 0)
    rows = []
    forest = []
    for i, name in enumerate(paths):
        path = os.path.join(args.trials, name)
        trial = read_trial_spec(path, vocab)
        rng = np.random.default_rng([seed, i])
        population = sample_trial_population(trial, rng, vocab)
        outcome = vocab.modality(trial.outcome).id
        arm = simulate_cohort(params, config, vocab, population, tuple(trial.arms), outcome, trial.horizon_months)
        if not arm.participants:
            raise CliError(f"trial spec {name} {path!r}: no participant has a visit-1 measurement: 'table1' measures nothing")
        arm.ci = arm.bootstrap_ci(rng)
        predicted = arm.signed_percent
        rows.append(
            {
                "trial": trial.name,
                "predicted": predicted,
                "pred_ci_low": arm.ci[0],
                "pred_ci_high": arm.ci[1],
                "published": trial.published_point,
                "ci_low": trial.published_ci[0],
                "ci_high": trial.published_ci[1],
                "participants_read": arm.counts["participants_read"],
                "simulated": arm.counts["simulated"],
            }
        )
        forest.append((trial.name, predicted, trial.published_point, trial.published_ci[0], trial.published_ci[1]))
    score = concordance(rows)
    meta["seed"] = seed
    columns = [
        "trial", "predicted", "pred_ci_low", "pred_ci_high", "published", "ci_low", "ci_high",
        "direction_hit", "ci_hit", "participants_read", "simulated",
    ]
    notes = [(k, f"{score[k]}/{score['n']}") for k in ("direction_hits", "ci_hits")]
    write_csv(args.out, meta, columns, ([row[c] for c in columns] for row in score["rows"]), notes)
    if args.plot:
        from .plots import forest_svg

        forest_svg(args.plot, forest, title="predicted vs published effects")
    print(f"{score['direction_hits']}/{score['n']} direction hits, {score['ci_hits']}/{score['n']} CI hits -> {args.out}")
    return 0


def cmd_inspect_checkpoint(args) -> int:
    header = read_header(_require_file(args.ckpt, "checkpoint"))
    config = ModelConfig.from_dict(header["config"])
    print(f"config: {json.dumps(header['config'], sort_keys=True)}")
    print(f"meta: {json.dumps(header.get('meta', {}), sort_keys=True)}")
    print(f"vocab_sha256: {header.get('vocab_sha256', '')}")
    total = 0
    for entry in header["manifest"]:
        n = int(np.prod(entry["shape"])) if entry["shape"] else 1
        total += n
        print(f"  {entry['name']:<24} {str(entry['shape']):<20} {n}")
    print(f"total parameters: {total}")
    expected = param_count(config)
    if expected != total:
        print(f"warning: manifest disagrees with config-derived count {expected}", file=sys.stderr)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trajlm", description=__doc__)
    p.add_argument("--version", action="version", version=f"trajlm {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, *required):
        """A subcommand running `func`, with a required `--flag` per name in `required`."""
        s = sub.add_parser(name, help=help)
        s.set_defaults(func=func)
        for flag in required:
            s.add_argument(f"--{flag}", required=True)
        return s

    s = command("synth", cmd_synth, "generate the planted-truth synthetic cohort", "out")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--participants", type=int, default=500)
    s.add_argument("--truth")
    s.add_argument("--vocab-out")

    command("build-vocab", cmd_build_vocab, "fit the tokenizer on a cohort file", "cohort", "out")

    s = command("tokenize", cmd_tokenize, "emit token streams for a cohort", "cohort", "vocab", "out")
    s.add_argument("--max-len", type=int, default=25_000)

    s = command("train", cmd_train, "train a model", "cohort", "vocab", "config", "out")
    s.add_argument("--log")
    s.add_argument("--seed", type=int, default=None)

    s = command("eval-ntp", cmd_eval_ntp, "within-visit next-token evaluation", "ckpt", "cohort", "vocab", "report")
    s.add_argument("--json")
    s.add_argument("--workers", type=int, default=1)

    s = command(
        "eval-longitudinal", cmd_eval_longitudinal, "visit-1 to visit-2 evaluation", "ckpt", "cohort", "vocab", "report"
    )
    s.add_argument("--baselines", default="locf")
    s.add_argument("--train-cohort")
    s.add_argument("--json")
    s.add_argument("--workers", type=int, default=1)

    s = command(
        "probe-crossmodal", cmd_probe_crossmodal, "2-position conditional probe", "ckpt", "vocab", "input", "output", "out"
    )
    s.add_argument("--time", default="2022-01-03T09:00:00")
    s.add_argument("--plot")

    s = command(
        "simulate", cmd_simulate, "intervention-conditioned arm simulation", "ckpt", "vocab", "cohort", "spec", "out"
    )
    s.add_argument("--trajectory", action="store_true")
    s.add_argument("--plot")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--workers", type=int, default=1)

    s = command("trial-run", cmd_trial_run, "synthetic-population trial concordance", "ckpt", "vocab", "trials", "out")
    s.add_argument("--plot")
    s.add_argument("--seed", type=int, default=None)

    command("inspect-checkpoint", cmd_inspect_checkpoint, "print the parameter manifest", "ckpt")
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("max_len", "participants", "workers"):
            must, ok = Must.at_least_1
            if not ok([getattr(args, flag, 1)]):
                raise CliError(f"--{flag.replace('_', '-')} must be {must}, got {getattr(args, flag)}")
        return args.func(args)
    except (CliError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TrainingDiverged) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
