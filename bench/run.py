"""Benchmark of the lockern library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory. One set-up (repeated to time it), one untimed warm-up
operation, then operations until S seconds have passed; set-up and operation
times are corrected for the host's speed (hostspeed.py). With --trace 0 the
last line of output carries the end-to-end metrics; with --trace 1 every
timed operation runs twice on the same input, untraced then traced, and the
last line carries the per-layer metrics. The line before it is a report with the
environment, sample counts, raw wall times and any errors. See bench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("gesture-loc", "holdout-grassmann", "manifold-circle")

E2E_UNITS = {"setup_s": "s", "trial_s": "s", "accuracy_pct": "%", "peak_rss_mb": "MiB"}

SCORED_OPS = 5  # operations 0..4 (the warm-up and four timed ones) always run
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
ACCURACY_ATOL = 1e-9
ERROR_RTOL = 1e-3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


@dataclasses.dataclass
class Attempt:
    op: int
    traced: bool
    seconds: float  # wall time
    scaled: float  # wall time at reference host speed (see hostspeed.py)
    outcome: object
    error: str | None


def tail_percentile(samples):
    """(p, value) for the highest of TAIL_PERCENTILES with at least
    MIN_BEYOND samples beyond it, or None when the run is too short."""
    import numpy as np  # only after load_library has fixed the BLAS threads

    n = len(samples)
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:  # 100 - 99.9 is inexact
            return p, float(np.percentile(samples, p))
    return None


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "hermite.points_per_call":
        return "points/call"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def git_sha(root: Path) -> str:
    """Commit of the checkout when it is a git clone with the branch ref as a
    loose file; "unknown" otherwise (src_sha256 identifies the code)."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head


def source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_sha": git_sha(ROOT),
        "src_sha256": source_sha256(ROOT / "src"),
        "seed": seed,
    }


def attempt(workload, inputs, op: int, speed, tracer=None, targets=()) -> Attempt:
    """Run one operation; an exception or a failed check becomes `error`."""
    outcome = error = None
    with speed.measure() as block:
        try:
            if tracer is None:
                outcome = workload.run(inputs)
            else:
                tracer.op = op
                with tracer.patched(targets), tracer.span("bench.op"):
                    outcome = workload.run(inputs)
        except Exception as exc:  # the run goes on; the failure is counted
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    if error is None:
        error = workload.check(outcome)
    if error is None and tracer is not None and tracer.counts.get((op, "nonfinite")):
        error = "non-finite Gram or kernel value"
    return Attempt(op, tracer is not None, block.wall, block.scaled, outcome, error)


def reference_error(outcome, ref: dict) -> str | None:
    want = ref.get("max_abs_error")
    if want is not None:  # accuracy_pct is derived from the error
        if not abs(outcome.max_abs_error - want) <= ERROR_RTOL * want:
            return f"max_abs_error {outcome.max_abs_error!r} != reference {want!r}"
        return None
    if abs(outcome.accuracy_pct - ref["accuracy_pct"]) > ACCURACY_ATOL:
        return f"accuracy {outcome.accuracy_pct!r} != reference {ref['accuracy_pct']!r}"
    return None


def load_library() -> str | None:
    """Import lockern from the checkout's src/; return an error or None."""
    src = ROOT / "src"
    if not (src / "lockern" / "__init__.py").is_file():
        return f"no lockern package under {src}"
    # fixed before numpy loads its BLAS; one thread keeps runs comparable
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import lockern

    if Path(lockern.__file__).resolve().parent != (src / "lockern").resolve():
        return f"imported lockern from {lockern.__file__}"
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from hostspeed import PROBE_REF_S, HostSpeed
    from layers import TARGETS, layer_metrics
    from spans import SETUP_OP, Tracer, per_operation
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    references = json.loads((BENCH_DIR / "reference.json").read_text())
    refs = references.get(args.workload, {}).get(str(args.seed))
    tracer = Tracer() if args.trace else None

    speed = HostSpeed()
    setup_blocks = []
    while (len(setup_blocks) < SETUP_MIN_REPEATS
           or sum(b.wall for b in setup_blocks) < SETUP_MIN_SECONDS):
        with speed.measure() as block:
            base = workload.setup(args.seed)
        setup_blocks.append(block)
    setup_samples = [b.scaled for b in setup_blocks]
    if tracer is not None:
        tracer.op = SETUP_OP
        with tracer.patched(TARGETS), tracer.span("bench.setup"):
            base = workload.setup(args.seed)

    attempts = []

    def operation(i: int) -> None:
        inputs = workload.make_input(base, args.seed, i)
        plain = attempt(workload, inputs, i, speed)
        if plain.error is None and refs is not None and i < len(refs):
            plain.error = reference_error(plain.outcome, refs[i])
        attempts.append(plain)
        if tracer is not None and i > 0:
            traced = attempt(workload, inputs, i, speed, tracer, TARGETS)
            if traced.error is None and plain.outcome != traced.outcome:
                traced.error = f"traced outcome {traced.outcome} != untraced {plain.outcome}"
            attempts.append(traced)

    warmup_start = time.perf_counter()
    operation(0)
    warmup_s = time.perf_counter() - warmup_start
    start = time.perf_counter()
    i = 1
    while i < SCORED_OPS or time.perf_counter() - start < args.seconds:
        operation(i)
        i += 1

    failed = [a for a in attempts if a.error is not None]
    plain_timed = [a for a in attempts if not a.traced and a.op > 0]
    trial_timed = [a for a in plain_timed if a.error is None] or plain_timed
    trial_samples = [a.scaled for a in trial_timed]
    scored = [a.outcome for a in attempts
              if not a.traced and a.op < SCORED_OPS and a.error is None]
    accuracy = sum(o.accuracy_pct for o in scored) / len(scored) if scored else 0.0
    errors = [o.max_abs_error for o in scored if o.max_abs_error is not None]
    tail = tail_percentile(trial_samples)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "setup_s": {
            "median": statistics.median(setup_samples),
            "samples": len(setup_samples),
            "wall_median": statistics.median(b.wall for b in setup_blocks),
        },
        "warmup_s": warmup_s,
        "trial_s": {
            "median": statistics.median(trial_samples),
            "samples": len(trial_samples),
            "values": trial_samples,
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            "wall_median": statistics.median(a.seconds for a in trial_timed),
        },
        "probe_s": {"reference": PROBE_REF_S, "median": statistics.median(speed.probes),
                    "min": min(speed.probes), "max": max(speed.probes),
                    "samples": len(speed.probes)},
        "accuracy_pct": accuracy,
        "max_abs_error": max(errors) if errors else None,
        "failure_rate": len(failed) / len(attempts),
        "reference_checked": refs is not None,
        "errors": [f"op {a.op}{' traced' if a.traced else ''}: {a.error}" for a in failed],
    }

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "trial_s": statistics.median(trial_samples),
            "accuracy_pct": accuracy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        traced_timed = [a for a in attempts if a.traced and a.op > 0]
        ops = [a.op for a in traced_timed if a.error is None] or [a.op for a in traced_timed]
        values = layer_metrics(per_operation(tracer.totals(), ops))
        values["trace.overhead"] = (
            statistics.median(a.scaled for a in traced_timed)
            / statistics.median(a.scaled for a in plain_timed)
            - 1.0
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["spans"] = len(tracer.spans)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
