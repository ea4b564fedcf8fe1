"""Regenerate ``reference.json`` from the current sources.

    python3 perfbench/make_reference.py

The stored file holds the outputs of the commit it was made on, for the
default workload seed; ``run.py`` compares every run against it.  Only
regenerate it when an output is meant to change, and say why in the commit.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread count and the import path first


def main() -> int:
    harness = run._import_harness()
    import oracle
    import workloads

    config = workloads.Config()
    doc = {"seed": run.DEFAULT_SEED, "environment": harness.environment_stamp(), "workloads": {}}
    for name in run.WORKLOADS:
        wl = workloads.build(name, run.DEFAULT_SEED, config, reference={})
        doc["workloads"][name] = {
            "seeded": wl.seeded,
            "seed": run.DEFAULT_SEED,
            "ops": workloads.reference_outputs(wl),
        }
    with open(oracle.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {oracle.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
