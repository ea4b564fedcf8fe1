"""Correctness oracle: stored reference values and tolerant comparison.

``reference.json`` holds the outputs of the seed commit for the default
workload seed.  Deterministic values are compared with a relative tolerance
(a faster route that changes only the last bits still passes); Monte-Carlo
values are compared statistically, within ``STAT_Z`` combined standard
errors, so a sampler that draws other but exact streams also passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

REL_TOL = 1e-7
ABS_TOL = 1e-12
STAT_Z = 6.0


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def compare(got: dict, ref: dict) -> list[str]:
    """Issues found comparing one operation's outputs with its reference.

    Both sides are ``{"exact": {name: value}, "stat": {name: [value, se]}}``;
    every name in the reference must be present in ``got``.
    """
    issues = []
    for name, want in ref.get("exact", {}).items():
        have = got["exact"].get(name)
        if have is None:
            issues.append(f"{name}: missing (reference {want!r})")
        elif not close(float(have), float(want)):
            issues.append(f"{name}: {have!r} differs from reference {want!r}")
    for name, (want, want_se) in ref.get("stat", {}).items():
        pair = got["stat"].get(name)
        if pair is None:
            issues.append(f"{name}: missing (reference {want!r})")
            continue
        have, have_se = pair
        limit = STAT_Z * math.hypot(have_se, want_se)
        if not abs(have - want) <= limit:
            issues.append(
                f"{name}: {have!r} is more than {STAT_Z:g} standard errors "
                f"({limit:.3e}) from reference {want!r}"
            )
    return issues


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(reference: dict, workload: str, seed: int) -> dict:
    """Per-operation reference outputs that apply to this workload and seed.

    A seeded workload's reference holds only for the seed it was made with;
    an unseeded one (fixed inputs) holds for every seed.
    """
    entry = reference.get("workloads", {}).get(workload)
    if entry is None or (entry["seeded"] and entry["seed"] != seed):
        return {}
    return entry["ops"]
