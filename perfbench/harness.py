"""One benchmark run of one workload: untraced (end-to-end metrics) or
traced (per-layer metrics).  ``run.py`` fixes the environment and the import
path before this module is imported."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import numpy as np
import scipy

import layers
import oracle
import workloads
from names import WORKLOADS
from spans import Tracer

SETUP_REPEATS = 3  # fresh imports per run; setup_s is their median
IMPORTTIME_REPEATS = 3  # -X importtime runs per traced run; medians per module


def environment_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (workloads.ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(path.relative_to(workloads.ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "szgl_threads_unset": "SZGL_THREADS" not in os.environ,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def high_percentile(values):
    """(p, value) for the highest whole percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    k = len(values)
    if k < 11:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / k))
    ordered = sorted(values)
    return p, ordered[max(0, math.ceil(p / 100.0 * k) - 1)]


def _timing_line(name, values, unit):
    med = statistics.median(values)
    hp = high_percentile(values)
    tail = f"p{hp[0]} = {hp[1]:.4f} {unit}" if hp else "no percentile has 10 samples above it"
    return f"{name:<14} = {med:.4f} {unit}  (median of {len(values)}; {tail})"


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def _untraced(args, wl, wl_ref, off):
    """End-to-end metrics: set-up, then closed-loop passes for --seconds."""
    setup = [workloads.fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    wl.warmup()
    # Peak memory is read once every operation has run, after the first
    # pass: later passes only add allocator fragmentation, which grows with
    # the number of passes and so with speed.
    peaks = []
    passes = workloads.measure(
        wl, args.seconds, off, wl_ref,
        after_first_pass=lambda: peaks.append(_peak_rss_mb(children=args.workload == "cli-mix")),
    )
    units = [r for p in passes for r in p.ops]
    walls = [p.op_seconds for p in passes if p.complete]
    wall = workloads.pass_seconds(passes)
    peak = peaks[0]
    failed = sum(bool(r.issues) for r in units)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    lines = [
        _timing_line("setup_s", setup, "s") + "  fresh-process import szegolab",
        f"{'wall_s':<14} = {wall:.4f} s  (sum of per-operation medians over {len(units)} "
        f"operations; {len(walls)} full passes)",
        _timing_line("full pass", walls, "s"),
        f"{'peak_rss_mb':<14} = {peak:.1f} MB",
        f"{'fail_frac':<14} = {failed / len(units):.4f} failed/attempted  ({failed} / {len(units)})",
    ]
    extras = {"fail_frac": failed / len(units), "setup_samples": setup, "wall_samples": walls}
    if args.workload == "study-ladder":
        extras["cost_exponent"] = workloads.cost_exponent(passes)
        lines.append(
            f"{'cost_exponent':<14} = {extras['cost_exponent']:.4f} dlog(s)/dlog(n)  "
            "(slope of log point time against log n)"
        )
    return passes, metrics, lines, extras, []


def _traced(args, config, built, reference, off, run_id):
    """Per-layer metrics: half the time untraced, half traced on the chosen
    workload, then one probe pass of every other workload and the import
    breakdown, so that every layer has samples."""
    tracer = Tracer(run_id, enabled=True)
    wl = built[args.workload]
    wl_ref = oracle.reference_for(reference, args.workload, args.seed)
    wl.warmup()
    plain = workloads.measure(wl, args.seconds / 2, off, wl_ref)
    traced = workloads.measure(wl, args.seconds / 2, tracer, wl_ref)
    passes = plain + traced
    for name, other in built.items():
        if name == args.workload:
            continue
        other.warmup()
        passes.append(workloads.run_pass(
            other, tracer, oracle.reference_for(reference, name, args.seed),
            run_ops=other.ops_in_probe_pass,
        ))
    problems = []
    for _ in range(IMPORTTIME_REPEATS):
        try:
            workloads.import_breakdown(tracer)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            problems.append(str(exc))
    wall_plain = workloads.pass_seconds(plain)
    wall_traced = workloads.pass_seconds(traced)
    values = layers.layer_values(tracer, config, wall_traced - wall_plain)
    problems += [f"metric {name} has no sample" for name, v in values.items() if v is None]
    workloads.OUT_DIR.mkdir(exist_ok=True)
    tracer.write(workloads.OUT_DIR / f"{run_id}.spans.jsonl")

    metrics, lines = {}, []
    for m in layers.metric_specs(config):
        v = values[m.name]
        metrics[m.name] = (v, m.unit)
        lines.append(f"{m.name:<44} = {'MISSING' if v is None else f'{v:.6g}'} {m.unit}")
    lines.append(
        f"tracing overhead on {args.workload}: traced wall_s {wall_traced:.4f} s "
        f"- untraced wall_s {wall_plain:.4f} s = {wall_traced - wall_plain:+.4f} s"
    )
    extras = {"wall_untraced_s": wall_plain, "wall_traced_s": wall_traced}
    return passes, metrics, lines, extras, problems


def run_one(args) -> int:
    """Run ``args.workload``; print its lines and the JSON result."""
    config = workloads.Config()
    reference = oracle.load_reference()
    names = [args.workload]
    if args.trace:
        names += [w for w in WORKLOADS if w != args.workload]
    built = {
        name: workloads.build(name, args.seed, config, oracle.reference_for(reference, name, args.seed))
        for name in names
    }
    try:
        workloads.preflight([(f"{n}/{op.key}", op.est_bytes) for n, w in built.items() for op in w.ops])
    except workloads.PreflightError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    off = Tracer(run_id, enabled=False)
    env = environment_stamp()
    if args.trace:
        passes, metrics, lines, extras, problems = _traced(
            args, config, built, reference, off, run_id
        )
    else:
        passes, metrics, lines, extras, problems = _untraced(
            args, built[args.workload],
            oracle.reference_for(reference, args.workload, args.seed), off,
        )
    units = [r for p in passes for r in p.ops + p.probes]
    failures = [f"{r.key}: {issue}" for r in units for issue in r.issues] + problems
    attempted = len(units) + len(problems)
    failed = sum(bool(r.issues) for r in units) + len(problems)

    workloads.OUT_DIR.mkdir(exist_ok=True)
    with open(workloads.OUT_DIR / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "environment": env, "attempted": attempted,
            "failed": failed, "failures": failures, "extras": extras,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "op_seconds": [[(r.key, r.seconds) for r in p.ops] for p in passes],
        }, fh, indent=1)

    print(f"perfbench {run_id}")
    print("environment " + json.dumps(env))
    print("\n".join(lines + [f"FAILED {msg}" for msg in failures[:20]]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


