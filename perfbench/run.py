"""trajlm benchmark.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With `--trace 0` the last line of standard output is the
end-to-end result; with `--trace 1` the same work runs once untraced and once
with every layer wrapped, and the last line holds the per-layer metrics.
The line before it carries the machine record and the per-workload detail.
Full results go to `.perfbench_out/`, scratch files to `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time

# One string-hash seed for every run: per-process hash randomisation alone
# moves the desk set-up time by up to 50% between otherwise identical runs.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import envinfo  # noqa: E402

envinfo.pin_threads()

# Set-ups per untraced run, setup_s being their median: at least SETUP_MIN,
# and more while they fit in SETUP_BUDGET_S, so a cheap set-up is sampled
# often enough for its median to hold still.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 30, 3.0


def import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "trajlm", "__init__.py")):
        raise SystemExit(f"error: no trajlm sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import trajlm

    if not os.path.abspath(trajlm.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported trajlm from {trajlm.__file__}, not from {src}")


def untraced(w, seed: int, seconds: float, work: str) -> dict:
    from workloads import Tally, digests, peak_rss_mb
    from tracer import percentile

    tally = Tally()
    setup_s, inputs = [], []
    i = 0
    while i < SETUP_MIN or (i < SETUP_MAX and sum(setup_s) < SETUP_BUDGET_S):
        d = os.path.join(work, f"setup{i}")
        i += 1
        os.makedirs(d)
        ctx = None  # release the previous set-up's inputs first
        gc.collect()
        t0 = time.perf_counter()
        ctx = w.setup(d, seed)
        setup_s.append(time.perf_counter() - t0)
        inputs.append(digests(d, ctx["inputs"]))
    tally.op([] if all(s == inputs[0] for s in inputs) else ["set-up outputs differ between repeats"])

    run_dir = os.path.join(work, "run")
    os.makedirs(run_dir)
    participant_ms, detail = w.measure(ctx, run_dir, seconds, tally)
    metrics = {
        "setup_s": (percentile(setup_s, 50.0), "s", len(setup_s)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "participant_ms": (participant_ms, "ms", None),
    }
    return {"tally": tally, "metrics": metrics, "detail": detail}


def traced(w, seed: int, work: str, out_dir: str) -> dict:
    import layers
    from tracer import Recorder
    from workloads import Tally, sha256_file

    tally = Tally()
    run_id = f"{w.name}-{seed}-{os.getpid()}"

    def plain_job(name: str) -> tuple[float, list[str]]:
        d = os.path.join(work, name)
        os.makedirs(d)
        ctx = w.setup(d, seed)
        gc.collect()
        t0 = time.perf_counter()
        names = w.job(ctx, d, tally)
        return time.perf_counter() - t0, names

    # Untraced before and after the traced job: the first run in a process
    # pays one-off costs (page faults, allocator growth) the others do not.
    first_s, names = plain_job("untraced")

    problems = []
    out = os.path.join(work, "traced")
    os.makedirs(out)
    recorders = []
    for phase in ("setup", "job"):
        rec = Recorder(f"{run_id}/{phase}")
        patcher, bound = layers.install(rec)
        try:
            if phase == "setup":
                ctx = w.setup(out, seed)
            else:
                gc.collect()
                t0 = time.perf_counter()
                w.job(ctx, out, tally)
                traced_s = time.perf_counter() - t0
        finally:
            not_restored = patcher.restore()
        recorders.append(rec)
        leftovers = layers.leftover_wrappers()
        if not_restored or leftovers or not bound:
            problems.append(f"{phase}: {bound} bindings patched; not restored {not_restored + leftovers}")
    setup_rec, job_rec = recorders

    metrics, facts = layers.layer_metrics(job_rec)
    metrics["synthcohort.generate.s"] = setup_rec.by_name().get("synthcohort.generate", {}).get("s", 0.0)
    metrics["trace.spans"] += len(setup_rec.spans)
    untraced_s = [first_s, plain_job("untraced-after")[0]]
    metrics["trace.overhead_ratio"] = traced_s / min(untraced_s)

    for other in ("traced", "untraced-after"):
        differ = [
            n for n in names
            if sha256_file(os.path.join(work, "untraced", n)) != sha256_file(os.path.join(work, other, n))
        ]
        if differ:
            problems.append(f"{other} outputs differ from the untraced ones: {differ}")
    if metrics["model.forward.calls"] != facts["implied_passes"]:
        problems.append(f"traced {metrics['model.forward.calls']} forward calls, the workload implies {facts['implied_passes']}")
    problems += w.expected(facts, metrics)
    tally.op(problems)

    spans_path = os.path.join(out_dir, f"spans_{w.name}.jsonl")
    with open(spans_path, "w", encoding="utf-8"):
        pass
    for rec in recorders:
        rec.write_jsonl(spans_path, append=True)

    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    result = {name: (metrics[name], units[name], None) for name, _, _ in layers.PER_LAYER}
    detail = {
        "trace.untraced_job_s": (min(untraced_s), "s", len(untraced_s)),
        "trace.traced_job_s": (traced_s, "s", 1),
        "trace.implied_passes": (facts["implied_passes"], "count", 1),
    }
    return {"tally": tally, "metrics": result, "detail": detail, "spans": spans_path}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("TRAJLM_SEED", None)  # inputs depend on --seed alone
    import_package()
    blas = envinfo.verify_pin()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    env = envinfo.describe(ROOT, blas)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = os.path.join(ROOT, ".perfbench_work", f"{w.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            res = traced(w, args.seed, work, out_dir)
        else:
            res = untraced(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = res["tally"]
    full = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in res["metrics"].items()},
        "detail": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in res["detail"].items()},
    }
    if "spans" in res:
        full["spans"] = os.path.relpath(res["spans"], ROOT)
    suffix = ".trace" if args.trace else ""
    with open(os.path.join(out_dir, f"BENCH_{w.name}{suffix}.json"), "w", encoding="utf-8") as f:
        json.dump(full, f, indent=1, sort_keys=True)
        f.write("\n")

    print(json.dumps({k: full[k] for k in ("workload", "env", "failed_frac", "failures", "detail")}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
