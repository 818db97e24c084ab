"""Command-line interface.

Subcommands: kernel-eval, verify, features, experiment, sweep-dim,
sweep-frac, holdout. Exit codes: 0 success, 1 data error, 2 usage error.
All output is CSV or plain tables; all randomness flows from --seed.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import os
import sys

import numpy as np

from . import diagnostics
from .experiments import (
    PREPROCESSING_MODES,
    ExperimentConfig,
    GestureSet,
    _check_fractions,
    _preprocessed_samples,
    _sweep_configs,
    gen_synthetic_gestures,
    holdout_subject,
    run_experiment,
    sweep_train_fraction,
)
from .features import svd_features
from .hermite import eval_localized
from .io import read_manifest, read_spectrogram_csv
from .kernels import DEFAULT_PARAMS, KernelSpec

class UsageError(Exception):
    pass


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lockern")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-dir", default=".")
    sub = p.add_subparsers(dest="command", required=True)

    ke = sub.add_parser("kernel-eval", help="tabulate the localized kernel on a grid")
    ke.add_argument("--N", type=float, required=True)
    ke.add_argument("--q", type=int, required=True)
    ke.add_argument("--gamma", type=float, default=DEFAULT_PARAMS["localized"]["gamma"])
    ke.add_argument("--x-max", type=float, default=5.0)
    ke.add_argument("--steps", type=int, default=100)
    ke.add_argument("--output", default="-")

    v = sub.add_parser("verify", help="run a named diagnostic benchmark, or all of them")
    v.add_argument("--benchmark", required=True)

    f = sub.add_parser("features", help="extract features for a manifest")
    f.add_argument("--manifest")
    f.add_argument("--synthetic", action="store_true")
    f.add_argument("--per-cell", type=int, default=25)
    f.add_argument("--preprocessing", choices=PREPROCESSING_MODES, default="binary")
    f.add_argument("--feature", choices=("pca-input", "svd"), default="svd")
    f.add_argument("--r", type=int, default=5)

    for name in ("experiment", "sweep-dim", "sweep-frac", "holdout"):
        e = sub.add_parser(name)
        e.add_argument("--config", help="key=value config file")
        e.add_argument("--manifest")
        e.add_argument("--synthetic", action="store_true")
        e.add_argument("--per-cell", type=int, default=25)
        if name == "sweep-dim":
            e.add_argument("--r-values", default=",".join(str(r) for r in range(1, 21)))
        if name == "sweep-frac":
            e.add_argument("--fractions", default="0.2,0.4,0.6,0.8")
    return p


def _parse_config_file(path, seed: int) -> ExperimentConfig:
    """Flat key=value file with # comments."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                k, v = line.split("=", 1)
                values[k.strip()] = (lineno, v.strip())
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    # every kernel parameter and every config field but the seed (an
    # option) is a key, cast to the type of its default
    param_casts = {k: type(v) for params in DEFAULT_PARAMS.values() for k, v in params.items()}
    field_casts = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)
                   if f.name not in ("seed", "kernel_params")}

    def cast(key, to):
        lineno, text = values.pop(key)
        try:
            return to(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from exc

    kernel_params = {k: cast(k, to) for k, to in param_casts.items() if k in values}
    kwargs = {k: cast(k, to) for k, to in field_casts.items() if k in values}
    if values:
        raise ValueError(f"{path}: unknown config keys {sorted(values)}")
    return ExperimentConfig(seed=seed, kernel_params=kernel_params, **kwargs)


def _load_dataset(args):
    if args.synthetic:
        return gen_synthetic_gestures(per_cell=args.per_cell, seed=args.seed)
    if not getattr(args, "manifest", None):
        raise UsageError("either --synthetic or --manifest is required")
    if not os.path.exists(args.manifest):
        raise UsageError(f"manifest not found: {args.manifest}")
    samples = [
        read_spectrogram_csv(p, label=label, subject=subject)
        for p, label, subject in read_manifest(args.manifest)
    ]
    if not samples:
        raise ValueError("manifest lists no samples")
    classes = len({s.label for s in samples})
    subjects = sorted({s.subject for s in samples})
    return GestureSet(samples=samples, classes=classes, subjects=subjects)


def _write_run_manifest(out_dir, args, config=None) -> None:
    """run-manifest.txt: the seed, and a hash of every parsed argument but
    --out-dir and of the config, so one config run into two directories
    records one hash."""
    payload = repr(sorted((k, v) for k, v in vars(args).items() if k != "out_dir"))
    payload += repr(config)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    with open(os.path.join(out_dir, "run-manifest.txt"), "w") as fh:
        fh.write(f"seed={args.seed}\nconfig_hash={digest}\n")


def _cmd_kernel_eval(args) -> int:
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    try:
        spec = KernelSpec("localized", {"N": args.N, "q": args.q, "gamma": args.gamma})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    xs = np.linspace(0.0, args.x_max, args.steps + 1)  # endpoints inclusive
    vals = eval_localized(spec.localized, spec.params["gamma"] * xs)
    out = sys.stdout if args.output == "-" else open(
        os.path.join(args.out_dir, args.output), "w", newline="\n"
    )
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["x", "phi"])
        for x, v in zip(xs, vals):
            w.writerow([repr(float(x)), repr(float(v))])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_verify(args) -> int:
    names = diagnostics.BENCHMARKS if args.benchmark == "all" else (args.benchmark,)
    if not set(names) <= set(diagnostics.BENCHMARKS):
        raise UsageError(
            f"unknown benchmark {args.benchmark!r}; choose from "
            f"{', '.join(diagnostics.BENCHMARKS)} or all"
        )
    ok = True
    for bench in names:
        for name, passed, detail in diagnostics.run_benchmark(bench):
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
            ok = ok and passed
    return 0 if ok else 1


def _cmd_features(args) -> int:
    if args.r < 1:
        raise UsageError(f"--r {args.r} is below 1")
    dataset = _load_dataset(args)
    target = max(s.data.shape[1] for s in dataset.samples)
    indices = range(len(dataset.samples))
    for i, spec in _preprocessed_samples(args.preprocessing, dataset.samples, indices):
        # each sample's features before its file, and the directory with the
        # first file: a refused sample leaves no file, a refused first one
        # no directory
        if args.feature == "svd":
            feat = svd_features(spec, args.r)
            rows = [["singular_values"] + [repr(float(s)) for s in feat.S]]
            rows += [[repr(float(v)) for v in row] for row in feat.U]
        else:
            # zero-padded on the right to the widest sample, column-major
            vec = np.zeros(spec.data.shape[0] * target)
            vec[:spec.data.size] = spec.data.ravel(order="F")
            rows = [["flat_vector"]] + [[repr(float(v))] for v in vec]
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, f"sample{i:04d}.csv")
        with open(path, "w", newline="\n") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    _write_run_manifest(args.out_dir, args)
    return 0


def _config(args) -> ExperimentConfig:
    """The config of an experiment command: its --config file, or the
    defaults."""
    return (_parse_config_file(args.config, args.seed) if args.config
            else ExperimentConfig(seed=args.seed))


def _dataset(args):
    """The data set, then --out-dir, in that order; called after every
    config check, so a refused config loads no data and creates no
    directory."""
    dataset = _load_dataset(args)
    os.makedirs(args.out_dir, exist_ok=True)
    return dataset


def _cmd_experiment(args) -> int:
    config, dataset = _config(args), _dataset(args)
    table = run_experiment(config, dataset)
    table.write_csv(os.path.join(args.out_dir, "results.csv"))
    table.write_csv(os.path.join(args.out_dir, "results_notiming.csv"), include_timing=False)
    _write_run_manifest(args.out_dir, args, config)
    for row in table.rows:
        print(f"{row.method}: {row.accuracy_mean:.2f}% (var {row.accuracy_var:.4f})")
    return 0


def _cmd_sweep_dim(args) -> int:
    try:
        r_values = [int(r) for r in args.r_values.split(",")]
    except ValueError as exc:
        raise UsageError("--r-values must be comma-separated integers") from exc
    config = _config(args)
    # each r's config, with its kernel, built once: a refused r is a usage
    # error before any data is read
    try:
        configs = [dataclasses.replace(config, r=r) for r in r_values]
    except ValueError as exc:
        raise UsageError(f"--r-values: {exc}") from exc
    dataset = _dataset(args)
    for r, table in _sweep_configs(configs, dataset):
        if isinstance(table, ValueError):
            print(f"r={r}: skipped ({table})")
            continue
        table.write_csv(os.path.join(args.out_dir, f"sweep_r{r:03d}.csv"), extra={"r_swept": r})
        print(f"r={r}: {table.rows[0].accuracy_mean:.2f}%")
    _write_run_manifest(args.out_dir, args, config)
    return 0


def _cmd_sweep_frac(args) -> int:
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
    except ValueError as exc:
        raise UsageError("--fractions must be comma-separated numbers") from exc
    try:
        _check_fractions(fractions)
    except ValueError as exc:
        raise UsageError(f"--fractions: {exc}") from exc
    names = [f"sweep_frac{round(100 * frac):03d}.csv" for frac in fractions]
    if len(set(names)) < len(names):
        raise UsageError(f"--fractions {args.fractions} name one output file twice "
                         "(file names hold the percentage, rounded)")
    config, dataset = _config(args), _dataset(args)
    for name, (frac, table) in zip(names, sweep_train_fraction(config, dataset, fractions)):
        if isinstance(table, ValueError):
            print(f"fraction={frac}: failed ({table})")
            continue
        table.write_csv(os.path.join(args.out_dir, name), extra={"fraction": frac})
        print(f"fraction={frac}: {table.rows[0].accuracy_mean:.2f}%")
    _write_run_manifest(args.out_dir, args, config)
    return 0


def _cmd_holdout(args) -> int:
    config, dataset = _config(args), _dataset(args)
    table = holdout_subject(config, dataset)
    table.write_csv(os.path.join(args.out_dir, "holdout.csv"))
    for row in table.rows:
        print(f"{row.method}: {row.accuracy_mean:.2f}%")
    _write_run_manifest(args.out_dir, args, config)
    return 0


_COMMANDS = {
    "kernel-eval": _cmd_kernel_eval,
    "verify": _cmd_verify,
    "features": _cmd_features,
    "experiment": _cmd_experiment,
    "sweep-dim": _cmd_sweep_dim,
    "sweep-frac": _cmd_sweep_frac,
    "holdout": _cmd_holdout,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
