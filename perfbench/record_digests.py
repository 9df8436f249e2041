"""Record the output digests the train workloads are checked against.

    python3 perfbench/record_digests.py

Runs one untraced op of each train workload for each of the
``inputs.TRAIN_SEEDS`` seeds and writes the sha256 of its stdout, metrics
CSV and checkpoint files to ``digests.json``.  Run it only on a commit
whose outputs are known good: the benchmark then fails any later commit
whose train-toy bytes differ.
"""

from __future__ import annotations

import json
import sys

import inputs
import run
import workloads


def main() -> int:
    specs = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = {}
    for name in ("train_pagwn", "train_bq"):
        table[name] = {}
        for seed in range(inputs.TRAIN_SEEDS):
            record = run.run_workload(name, seed, 0.0, False, specs)
            errors = [p for p in record["problems"] if "recorded" not in p]
            if record["attempted"] != 1 or errors:
                print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                return 1
            table[name][str(seed)] = record["digest"]
            print(name, seed, record["digest"], flush=True)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
