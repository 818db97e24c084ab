"""Numerical checks of the kernel's stated properties: Gaussian reduction at
N=1, Clenshaw-vs-direct agreement (far out too at high N), finite values far
out at high N, Hermite-function orthonormality, the localization envelope,
interpolation exactness on the circle benchmark, far-field decay and
diagonal dominance.

Each benchmark returns (name, passed, detail) tuples so both the test suite
and the CLI `verify` command can consume them.
"""
from __future__ import annotations

import numpy as np

from .approximation import dominance_diagnostic, error_profile, evaluate, fit_empirical
from .experiments import gen_circle
from .hermite import (
    build_localized_kernel,
    eval_localized,
    eval_localized_direct,
    _psi_values,
)
from .kernels import KernelSpec

__all__ = ["BENCHMARKS", "run_benchmark", "circle_fit", "circle_probes",
           "localization_constant", "overfit_errors"]


def localization_constant(N: float, q: int, S: int, x_max: float = 20.0, steps: int = 2000):
    """Empirical sup of |phi(x)| * max(1, (N x)^S) / N^q over an x-grid."""
    spec = build_localized_kernel(N, q)
    xs = np.linspace(0.0, x_max, steps + 1)
    vals = np.abs(eval_localized(spec, xs))
    envelope = np.maximum(1.0, (N * xs) ** S)
    return float(np.max(vals * envelope / N**q))


def circle_fit(N: float, M: int = 20, Q: int = 2, q: int = 2, gamma: float = 4.0, seed: int = 42):
    """Fit the localized-kernel interpolant to sin(3 theta) on M circle nodes."""
    data = gen_circle(Q=Q, M=M, noise_sigma=0.0, seed=seed)
    spec = KernelSpec(kind="localized", params={"N": N, "q": q, "gamma": gamma})
    nodes = [data.points[j] for j in range(M)]
    model = fit_empirical(spec, nodes, data.truth)
    return data, model


def circle_probes(data, n_probes: int = 400):
    """Dense probe set on the same embedded circle, with truth values."""
    Q = data.ambient_dim
    theta = 2.0 * np.pi * (np.arange(n_probes) + 0.5) / n_probes
    flat = np.zeros((n_probes, Q))
    flat[:, 0] = np.cos(theta)
    flat[:, 1] = np.sin(theta)
    # recover the embedding rotation from the noiseless points
    base = np.zeros((len(data.angles), Q))
    base[:, 0] = np.cos(data.angles)
    base[:, 1] = np.sin(data.angles)
    rot, _, _, _ = np.linalg.lstsq(base, data.points, rcond=None)
    probes = flat @ rot
    return [probes[i] for i in range(n_probes)], np.sin(3.0 * theta)


def _bench_reduction():
    out = []
    xs = np.linspace(0.0, 5.0, 201)
    for q in (1, 2, 18):
        spec = build_localized_kernel(1.0, q)
        ratio = eval_localized(spec, xs) * np.exp(xs**2 / 2.0) / eval_localized(spec, 0.0)
        dev = float(np.max(np.abs(ratio - 1.0)))
        out.append((f"gaussian-reduction q={q}", dev < 1e-10, f"max deviation {dev:.3e}"))
    return out


def _bench_clenshaw():
    out = []
    xs = np.linspace(0.0, 10.0, 201)
    for N in (1.0, 2.0, 4.0, 8.0):
        worst = 0.0
        for q in (1, 2, 10, 18):
            spec = build_localized_kernel(N, q)
            a = eval_localized(spec, xs)
            b = eval_localized_direct(spec, xs)
            worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
        out.append((f"clenshaw-vs-direct N={N}", worst < 1e-10, f"max rel dev {worst:.3e}"))
    far = np.linspace(0.0, 80.0, 801)
    for N in (24.0, 32.0):
        specs = [build_localized_kernel(N, q) for q in (1, 18)]
        vals = [eval_localized(spec, far) for spec in specs]
        bad = int(np.count_nonzero(~np.isfinite(vals)))
        out.append((f"clenshaw-finite N={N} on x in [0, 80]", bad == 0,
                    f"{bad} non-finite of {2 * far.size} (q = 1, 18)"))
        # relative to |Phi(0)|, the largest value; NaN fails the comparison
        worst = max(float(np.max(np.abs(a - eval_localized_direct(spec, far))) / abs(a[0]))
                    for spec, a in zip(specs, vals))
        out.append((f"clenshaw-vs-direct N={N} on x in [0, 80]", worst < 1e-10,
                    f"max dev / |Phi(0)| {worst:.3e} (q = 1, 18)"))
    return out


def _bench_orthonormality():
    xs = np.linspace(-20.0, 20.0, 8001)
    psis = _psi_values(20, xs)
    G = np.trapezoid(psis[:, None, :] * psis[None, :, :], xs, axis=2)
    dev = float(np.max(np.abs(G - np.eye(21))))
    return [("psi-orthonormality j,k<=20", dev < 1e-6, f"max |<psi_j,psi_k> - delta| {dev:.3e}")]


def _bench_localization():
    q, S = 2, 4
    c4 = localization_constant(4.0, q, S)
    c8 = localization_constant(8.0, q, S)
    ratio = max(c4, c8) / min(c4, c8)
    return [
        (
            f"localization-envelope q={q} S={S}",
            ratio < 3.0,
            f"constants {c4:.3f} (N=4), {c8:.3f} (N=8), ratio {ratio:.2f}",
        )
    ]


def _bench_interpolation():
    data, model = circle_fit(N=8.0)
    residuals = [abs(evaluate(model, p) - t) for p, t in zip(model.nodes, data.truth)]
    res = max(residuals)
    return [
        ("interpolation-residual", res < 1e-8, f"max node residual {res:.3e}"),
        (
            "dominance-at-fit",
            model.dominance_ratio < 0.5,
            f"dominance ratio {model.dominance_ratio:.4f}",
        ),
    ]


def _bench_decay():
    sups = {}
    for N in (4.0, 8.0):
        data, model = circle_fit(N=N)
        probes, truth = circle_probes(data)
        prof = error_profile(model, truth, probes)
        eta_t = min(1.0, model.eta / 3.0)
        far = prof.delta > eta_t / 3.0
        sups[N] = float(np.max(np.abs(prof.model_value[far])))
    ok = sups[8.0] < sups[4.0]
    return [
        (
            "far-field-decay",
            ok,
            f"sup |model| over far probes: {sups[4.0]:.3e} (N=4) -> {sups[8.0]:.3e} (N=8)",
        )
    ]


def overfit_errors(gamma: float = 0.6, n_grid=(2.0, 4.0, 8.0, 16.0)):
    """Measured sup-error over dense circle probes per bandwidth N.

    Fits refused by the condition-number guard count as unusable,
    i.e. infinite error.
    """
    errs = {}
    for N in n_grid:
        try:
            data, model = circle_fit(N=N, gamma=gamma)
            probes, truth = circle_probes(data)
            prof = error_profile(model, truth, probes)
            errs[N] = float(np.max(prof.abs_error))
        except ValueError:
            errs[N] = np.inf
    return errs


def _bench_dominance():
    spec_by_n = {N: KernelSpec(kind="localized", params={"N": N, "q": 2, "gamma": 4.0}) for N in (2.0, 4.0, 8.0)}
    data = gen_circle(Q=2, M=20, noise_sigma=0.0, seed=42)
    nodes = [data.points[j] for j in range(20)]
    ratios = {N: dominance_diagnostic(spec, nodes) for N, spec in spec_by_n.items()}
    monotone = ratios[2.0] > ratios[4.0] > ratios[8.0]
    certified = ratios[8.0] < 0.5
    detail = ", ".join(f"N={N}: {r:.4f}" for N, r in ratios.items())
    return [
        ("dominance-monotone-in-N", monotone, detail),
        ("dominance-below-half at N=8", certified, f"ratio {ratios[8.0]:.4f}"),
    ]


_BENCHES = {
    "reduction": _bench_reduction,
    "clenshaw": _bench_clenshaw,
    "localization": _bench_localization,
    "interpolation": _bench_interpolation,
    "decay": _bench_decay,
    "dominance": _bench_dominance,
    "orthonormality": _bench_orthonormality,
}

# the benchmark names, in the order `lockern verify --benchmark all` runs them
BENCHMARKS = tuple(_BENCHES)


def run_benchmark(name: str):
    if name not in _BENCHES:
        raise ValueError(f"unknown benchmark {name!r}")
    return _BENCHES[name]()
