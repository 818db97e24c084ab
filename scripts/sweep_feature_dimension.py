"""Sweep the PCA feature dimension for the localized-kernel SVM.

Writes one CSV row per dimension and prints a compact accuracy table.

Usage: python3 scripts/sweep_feature_dimension.py [--r-values 5,10,20,30,40]
"""
import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lockern.experiments import (
    ExperimentConfig,
    gen_synthetic_gestures,
    sweep_dimension,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r-values", default="5,10,20,30,40")
    ap.add_argument("--per-cell", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="dimension_sweep.csv")
    args = ap.parse_args()

    r_values = [int(r) for r in args.r_values.split(",")]
    dataset = gen_synthetic_gestures(per_cell=args.per_cell, seed=args.seed)
    config = ExperimentConfig(
        kernel_kind="localized", kernel_params={"N": 8.0, "q": 18},
        trials=3, seed=args.seed,
    )

    with open(args.out, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["r", "accuracy_mean", "accuracy_var"])
        for r, table in sweep_dimension(config, dataset, r_values):
            if isinstance(table, ValueError):
                print(f"r={r:3d}  skipped ({table})")
                continue
            row = table.rows[0]
            w.writerow([r, repr(row.accuracy_mean), repr(row.accuracy_var)])
            print(f"r={r:3d}  {row.accuracy_mean:6.2f}% (var {row.accuracy_var:.3f})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
