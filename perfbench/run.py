"""szegolab benchmark: study ladder, CLI mix and Monte-Carlo paths.

    python3 perfbench/run.py --workload study-ladder --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one summary

Run from anywhere; it measures the sources in ``src/`` of the checkout that
holds this file.  An untraced run (``--trace 0``) prints the end-to-end
metrics; a traced run (``--trace 1``) prints the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (environment stamp, per-operation
times, every failure) go to ``perfbench/out/``; a traced run also writes its
spans there.

Exit codes: 0 measured (the verdict is in ``correct``), 2 the checkout's
sources cannot be imported or the configuration is refused by the memory
pre-flight.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from names import WORKLOADS

# The BLAS thread count is fixed here, before numpy loads, so both sides of a
# comparison run with the same count.  It is capped by the CPUs this process
# may use; one thread was measured slower, not steadier.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("SZGL_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_SEED = 1


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_harness():
    """Import szegolab from this checkout only, then the harness."""
    import szegolab

    where = Path(szegolab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"szegolab was imported from {where}, not from {ROOT / 'src'}")
    import harness

    return harness


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), then one
    summary of every metric by name with its unit."""
    import subprocess

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"perfbench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        fail_frac = result["failed"] / result["attempted"]
        table.append((name, "fail_frac", fail_frac, "failed/attempted"))
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
            table.append((name, metric, entry["value"], entry["unit"]))
        if name == "study-ladder" and not args.trace:
            out = json.loads((HERE / "out" / f"{name}-seed{args.seed}-trace0.json").read_text())
            table.append((name, "cost_exponent", out["extras"]["cost_exponent"], "dlog(s)/dlog(n)"))
    print("summary")
    for name, metric, value, unit in table:
        print(f"  {name:<13} {metric:<44} {value:.6g} {unit}")
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        harness = _import_harness()
    except ImportError as exc:
        print(f"perfbench: cannot import szegolab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    return harness.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
