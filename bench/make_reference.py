"""Recompute bench/reference.json, the recorded outcomes that bench/run.py
checks its scored operations against.

    python3 bench/make_reference.py

For each workload and each seed 0..REFERENCE_SEEDS-1 it stores the outcome of operations
0..SCORED_OPS-1. Run it only when a change to the library is meant to change
results, and say so with the change.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run

REFERENCE_SEEDS = 20


def main() -> int:
    error = run.load_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out = {}
    for name in run.WORKLOAD_NAMES:
        workload = WORKLOADS[name]
        out[name] = {}
        for seed in range(REFERENCE_SEEDS):
            base = workload.setup(seed)
            outcomes = []
            for i in range(run.SCORED_OPS):
                outcome = workload.run(workload.make_input(base, seed, i))
                problem = workload.check(outcome)
                if problem:
                    print(f"error: {name} seed {seed} op {i}: {problem}", file=sys.stderr)
                    return 1
                outcomes.append({k: v for k, v in dataclasses.asdict(outcome).items()
                                 if v is not None})
            out[name][str(seed)] = outcomes
            print(name, seed, outcomes, flush=True)
    (run.BENCH_DIR / "reference.json").write_text(dump(out))
    return 0


def dump(out: dict) -> str:
    """JSON with one line per workload seed, so a changed result is a
    one-line diff."""
    blocks = []
    for name, seeds in out.items():
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(ops)}" for seed, ops in seeds.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
