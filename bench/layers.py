"""Where the traced run wraps the library, and the per-layer metrics it
derives from the spans.

Functions are wrapped as their calling module binds them: `gram` as
`lockern.experiments` and `lockern.approximation` import it, the per-pair
callable that `kernel_fn` returns in those two modules, and so on. Nested
calls (the Hermite evaluation inside a kernel pair or a Gram build) become
child spans, and every time below is self time.
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from lockern import approximation, experiments, kernels


def _finite_or_count(tracer, ok: bool) -> None:
    if not ok:
        tracer.add("nonfinite")


def _eval_result(tracer, out) -> None:
    if isinstance(out, float):
        tracer.add("hermite.eval_points", 1)
        _finite_or_count(tracer, math.isfinite(out))
    else:
        tracer.add("hermite.eval_points", np.size(out))
        _finite_or_count(tracer, bool(np.all(np.isfinite(out))))


def _gram_result(tracer, out) -> None:
    tracer.add("kernels.gram_entries", out.entries.size)
    _finite_or_count(tracer, bool(np.all(np.isfinite(out.entries))))


def _scalar_result(tracer, out) -> None:
    _finite_or_count(tracer, math.isfinite(out))


def _train_result(tracer, out) -> None:
    tracer.add("classify.n_sv", sum(len(m.support_ids) for m in out.models))


def _wrapper(name, on_result):
    return lambda tracer, fn: tracer.wrap(name, fn, on_result)


def _pair_wrapper(name, on_result):
    """kernel_fn whose returned per-pair callable records a span per call."""

    def make(tracer, kernel_fn):
        def traced_kernel_fn(spec):
            return tracer.wrap(name, kernel_fn(spec), on_result)

        return traced_kernel_fn

    return make


# (module, attribute, span name, on_result); kernel_fn is wrapped one level
# down, at the per-pair callable it returns
WRAPS = [
    (kernels, "eval_localized", "hermite.eval", _eval_result),
    (kernels, "build_localized_kernel", "hermite.build", None),
    (experiments, "gram", "kernels.gram", _gram_result),
    (approximation, "gram", "kernels.gram", _gram_result),
    (experiments, "kernel_fn", "kernels.pair", _scalar_result),
    (approximation, "kernel_fn", "kernels.pair", _scalar_result),
    (approximation, "psi_kernel", "kernels.psi", _scalar_result),
    (experiments, "stft", "features.stft", None),
    (experiments, "log_threshold", "features.log_threshold", None),
    (experiments, "normalize", "features.normalize", None),
    (experiments, "fit_pca", "features.pca_fit", None),
    (experiments, "pca_project", "features.pca_project", None),
    (experiments, "svd_features", "features.svd", None),
    (experiments, "one_vs_rest_train", "classify.train", _train_result),
    (experiments, "one_vs_rest_predict", "classify.predict", None),
    (approximation, "fit_empirical", "approximation.fit_empirical", None),
    (approximation, "fit_theoretical", "approximation.fit_theoretical", None),
    (approximation, "error_profile", "approximation.error_profile", None),
    (approximation, "sigma_n", "approximation.sigma_n", None),
    (approximation, "evaluate", "approximation.evaluate", None),
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "holdout_subject", "experiments.holdout_subject", None),
]

TARGETS = [
    (module, attr, (_pair_wrapper if attr == "kernel_fn" else _wrapper)(name, on_result))
    for module, attr, name, on_result in WRAPS
]

# spans reported only through the combined metrics in layer_metrics
COMBINED = {"features.log_threshold", "features.normalize",
            "experiments.run_experiment", "experiments.holdout_subject"}
REPORTED = [name for name in dict.fromkeys(w[2] for w in WRAPS) if name not in COMBINED]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict:
    """Per-layer metric values from per-operation totals (see
    spans.per_operation); absent keys are 0. Each reported span gives
    `<span>_calls` and its self time `<span>_s`."""
    t = defaultdict(float, totals)
    out = {}
    for name in REPORTED:
        out[name + "_calls"] = t[name + ".calls"]
        out[name + "_s"] = t[name + ".self_s"]
    out.update({
        "hermite.eval_points": t["hermite.eval_points"],
        "hermite.points_per_call": _ratio(t["hermite.eval_points"], t["hermite.eval.calls"]),
        "kernels.gram_entries": t["kernels.gram_entries"],
        "classify.n_sv": t["classify.n_sv"],
        "features.preprocess_calls": t["features.log_threshold.calls"],
        "features.preprocess_s": t["features.log_threshold.self_s"] + t["features.normalize.self_s"],
        "experiments.self_s": (t["experiments.run_experiment.self_s"]
                               + t["experiments.holdout_subject.self_s"]),
    })
    return {name: float(value) for name, value in out.items()}
