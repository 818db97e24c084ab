"""Paired benchmark runs of a base commit against a changed commit.

    python3 scripts/bench_pairs.py --base REF [--head REF] --label NAME [--seed0 40]

Exports both commits' committed files (`git archive`) into a temporary
directory, then runs `bench/run.py --trace 0` of each export in 10 pairs per
workload of `BENCHMARK.json`, each run `run_seconds` long, with seeds seed0,
seed0+1, ... and alternating which side runs first. Writes `BENCH_<label>.json` at the repository root: per workload
and end-to-end metric, each side's median and quartiles and every value, the
change's wins, ties and losses, and whether the gain rule and the metric's
regression bound (both from `BENCHMARK.json`) hold; plus the seeds, both
commits and the environment. An export, not a `git worktree`, leaves nothing
registered in the repository when the run is interrupted.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10


def quartiles(values) -> dict:
    """Median and quartiles, linear interpolation between order statistics
    (numpy's default percentile method)."""
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pair_counts(base, change, better: str) -> dict:
    """Pairs in which the change reads better, equal, or worse."""
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (c - b) for b, c in zip(base, change, strict=True)]
    return {"wins": sum(d < 0 for d in diffs), "ties": sum(d == 0 for d in diffs),
            "losses": sum(d > 0 for d in diffs)}


def compare(base, change, better: str, bound: float) -> dict:
    """One metric over paired runs. The gain rule: the change wins at least
    nine tenths of the pairs (ties count for neither) and its median is
    better than the base median by more than the base's interquartile range.
    `worse_by` is the change median's relative move in the worse direction;
    the metric is within its bound when that is at most `bound`."""
    b, c = quartiles(base), quartiles(change)
    counts = pair_counts(base, change, better)
    gap = b["median"] - c["median"] if better == "lower" else c["median"] - b["median"]
    worse_by = -gap / abs(b["median"]) if b["median"] else 0.0
    return {
        "better": better,
        "bound": bound,
        "base": {**b, "values": list(base)},
        "change": {**c, "values": list(change)},
        **counts,
        "median_gap": gap,
        "base_iqr": b["q3"] - b["q1"],
        "gain_rule_met": counts["wins"] >= 0.9 * len(base) and gap > b["q3"] - b["q1"],
        "worse_by": worse_by,
        "within_bound": worse_by <= bound,
    }


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {ref} failed")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(report, result) lines of one `bench/run.py --trace 0` run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git ref of the base (parent) commit")
    p.add_argument("--head", default="HEAD", help="git ref of the changed commit")
    p.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    p.add_argument("--seed0", type=int, default=40, help="seed of the first pair")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(args.seed0, args.seed0 + PAIRS))
    refs = {"base": args.base, "change": args.head}
    commits = {side: {"ref": ref, "sha": git("rev-parse", "--verify", f"{ref}^{{commit}}")}
               for side, ref in refs.items()}

    values = {w: {side: {m: [] for m in metrics} for side in SIDES} for w in workloads}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    env = None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side]["sha"], dirs[side])
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    report, result = run_bench(dirs[side], workload, seed, seconds)
                    commits[side]["src_sha256"] = report["env"]["src_sha256"]
                    env = env or {k: v for k, v in report["env"].items()
                                  if k not in ("git_sha", "src_sha256", "seed")}
                    runs[workload][side].append({
                        "seed": seed, "first": side == order[0],
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"], "trial_samples": report["trial_s"]["samples"],
                    })
                    for m in metrics:
                        values[workload][side][m].append(result["metrics"][m]["value"])
                    print(f"pair {i} seed {seed} {workload} {side}: "
                          + " ".join(f"{m}={v[-1]:.6g}"
                                     for m, v in values[workload][side].items()),
                          file=sys.stderr, flush=True)

    out = {
        "label": args.label,
        "command": "python3 scripts/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "base": commits["base"],
        "change": commits["change"],
        "seconds": seconds,
        "seeds": seeds,
        "first_side": [("base" if i % 2 == 0 else "change") for i in range(len(seeds))],
        "environment": env,
        "workloads": {
            w: {
                "runs": runs[w],
                "metrics": {m: compare(values[w]["base"][m], values[w]["change"][m],
                                       metrics[m]["better"], metrics[m]["bound"])
                            for m in metrics},
            }
            for w in workloads
        },
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
