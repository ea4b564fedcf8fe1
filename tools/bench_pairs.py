"""Alternating-pair benchmark of the working tree against a parent commit.

    python3 tools/bench_pairs.py --parent HEAD~1 --pr 30 --seeds 1:10,5:5

Both sides run from exported copies in a new temporary directory, removed at
the end: the parent from ``git archive``, the change from a copy of the
working tree's tracked and unignored files.  Every workload of
``BENCHMARK.json`` is run, each run being

    python3 perfbench/run.py --workload W --seed S --seconds SEC --trace 0

with SEC the benchmark's ``run_seconds``, as a subprocess, in its copy, with
``PYTHONDONTWRITEBYTECODE=1``; no ``__pycache__`` is there before any run,
and any found after one is counted and removed.  Pair i runs the parent first when i is even and the change
first when it is odd.  For each workload, seed and end-to-end metric of
``BENCHMARK.json`` the output holds both sides' runs, their medians and
inclusive quartiles, the pairs the change won, and a verdict against the
metric's bound; the file is rewritten after every pair, so an interrupted
run keeps what it measured.  The script uses the standard library only and
neither imports nor edits ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _export_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def _export_change(dest: Path) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _src_sha256(tree: Path) -> str:
    """SHA-256 over each src/szegolab/*.py path (relative) and its bytes,
    in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "szegolab").glob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _clear_pycache(tree: Path) -> int:
    """Remove every __pycache__ under ``tree``; returns how many there were."""
    found = [p for p in tree.rglob("__pycache__") if p.is_dir()]
    for path in found:
        shutil.rmtree(path)
    return len(found)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its final JSON line, or SystemExit."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name}: {' '.join(argv[1:])} exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _summary(parent: list[float], change: list[float], spec: dict) -> dict:
    """Both sides' statistics for one metric, and the verdict: "better" when
    every change run beats every parent run, else "unresolved" when the
    parent's quartile spread exceeds the bound (relative to its median),
    else "worse than bound" or "within bound" by the median's change."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
    for side, values in zip(SIDES, (parent, change)):
        q1, median, q3 = _quartiles(values)
        out.update({side: values, f"{side}_median": median, f"{side}_q1": q1,
                    f"{side}_q3": q3, f"{side}_iqr": q3 - q1})
    base = out["parent_median"]
    out["change_won"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out["change_vs_parent_median"] = out["change_median"] / base - 1.0 if base else None
    out["parent_iqr_over_median"] = out["parent_iqr"] / base if base else None
    if max(sign * c for c in change) < min(sign * p for p in parent):
        out["verdict"] = "better"
    elif out["parent_iqr_over_median"] is None or out["parent_iqr_over_median"] > spec["bound"]:
        out["verdict"] = "unresolved"
    elif sign * out["change_vs_parent_median"] > spec["bound"]:
        out["verdict"] = "worse than bound"
    else:
        out["verdict"] = "within bound"
    return out


def _seed_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for item in text.split(","):
        seed, count = item.split(":")
        pairs.append((int(seed), int(count)))
    return pairs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--pr", required=True, type=int, help="writes BENCH_<PR>.json at the root")
    p.add_argument("--seeds", default="1:10,5:5", help="seed:pairs items, comma-separated")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: work / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir()
    _export_parent(args.parent, trees["parent"])
    _export_change(trees["change"])
    for tree in trees.values():
        _clear_pycache(tree)

    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    ).stdout.strip()
    result = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "protocol": "tools/bench_pairs.py: alternating pairs, parent first in even-numbered "
                    "pairs; parent from git archive, change from a copy of the working tree; "
                    "PYTHONDONTWRITEBYTECODE=1 and no __pycache__ before any run; quartiles "
                    "inclusive; change_won counts pairs where the change read better",
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "parent": {"git_commit": _git("rev-parse", args.parent).decode().strip(),
                       "src_sha256": _src_sha256(trees["parent"])},
            "change": {"tree": "working tree", "src_sha256": _src_sha256(trees["change"])},
        },
        "claim": None,
        "end_to_end": {},
    }
    out_path = ROOT / f"BENCH_{args.pr}.json"
    for seed, pairs in _seed_pairs(args.seeds):
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            first, pycache = [], 0
            for i in range(pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    runs[side].append(_run(trees[side], workload, seed, seconds))
                    pycache += _clear_pycache(trees[side])
                entry = {"pairs": i + 1, "first": first, "pycache_dirs": pycache}
                for key in ("correct", "attempted", "failed"):
                    entry[key] = {side: [r[key] for r in runs[side]] for side in SIDES}
                entry["metrics"] = {}
                for name, spec in specs.items():
                    values = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
                    entry["metrics"][name] = _summary(*values, spec)
                result["end_to_end"][f"{workload} seed {seed}"] = entry
                out_path.write_text(json.dumps(result, indent=1) + "\n")
                print(f"{workload} seed {seed} pair {i + 1}/{pairs}", flush=True)
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
