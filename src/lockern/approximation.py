"""Empirical-risk and theoretical least-squares minimizers over the span of
kernel translates, plus the diagnostics (minimal separation, diagonal
dominance, pointwise error profiles) used to verify the pointwise error
behavior numerically.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kernels import (
    DiscreteQuadrature,
    KernelSpec,
    _cross_gram_statistics,
    _min_separation,
    _stack,
    cross_gram,
    gram,
)
# Unused here: the per-pair kernels stay importable from this module because
# the benchmark's traced run (bench/layers.py) wraps them by this name.
from .kernels import kernel_fn, psi_kernel  # noqa: F401

__all__ = [
    "CollocationModel",
    "ErrorProfile",
    "minimal_separation",
    "dominance_diagnostic",
    "fit_empirical",
    "fit_theoretical",
    "sigma_n",
    "evaluate",
    "error_profile",
]

COND_LIMIT = 1e12


@dataclass(frozen=True)
class CollocationModel:
    nodes: list
    coeffs: np.ndarray
    spec: KernelSpec
    eta: float  # minimal separation of the node set
    dominance_ratio: float


@dataclass(frozen=True)
class ErrorProfile:
    probe_points: list
    delta: np.ndarray  # distance to nearest node
    abs_error: np.ndarray
    model_value: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["delta", "abs_error", "model_value"])
            for d, e, v in zip(self.delta, self.abs_error, self.model_value):
                w.writerow([repr(float(d)), repr(float(e)), repr(float(v))])


def minimal_separation(points) -> float:
    """Smallest Euclidean distance between two distinct points of the set."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    return _min_separation(_stack([np.ravel(p) for p in points]))


def _collocation_matrix(spec: KernelSpec, nodes) -> np.ndarray:
    return gram(spec, list(nodes)).entries


def dominance_diagnostic(spec: KernelSpec, nodes) -> float:
    """max_k sum_{j != k} |K(y_j, y_k)| / K(y_k, y_k); below 1/2 certifies
    strict diagonal dominance of the collocation system."""
    if len(nodes) < 2:
        raise ValueError("need at least two nodes")
    return _dominance_ratio(_collocation_matrix(spec, nodes))


def _dominance_ratio(K: np.ndarray) -> float:
    """dominance_diagnostic of the collocation matrix K."""
    diag = np.diag(K)
    if np.any(diag == 0):
        raise ValueError("zero diagonal kernel value")
    off = np.sum(np.abs(K), axis=0) - np.abs(diag)
    return float(np.max(off / np.abs(diag)))


def fit_empirical(spec: KernelSpec, nodes, values) -> CollocationModel:
    """Interpolatory fit: solve sum_k a_k K(y_j, y_k) = f_j directly."""
    nodes = list(nodes)
    values = np.asarray(values, dtype=float)
    if len(nodes) != len(values):
        raise ValueError("nodes/values length mismatch")
    K = _collocation_matrix(spec, nodes)
    cond = np.linalg.cond(K)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ValueError(
            f"collocation matrix condition {cond:.2e} exceeds {COND_LIMIT:.0e}; "
            "increase the kernel bandwidth N or spread the nodes further apart"
        )
    coeffs = np.linalg.solve(K, values)
    eta = minimal_separation(nodes) if len(nodes) > 1 else np.inf
    ratio = _dominance_ratio(K) if len(nodes) > 1 else 0.0
    return CollocationModel(nodes=nodes, coeffs=coeffs, spec=spec, eta=eta, dominance_ratio=ratio)


def sigma_n(spec: KernelSpec, f_values, quad: DiscreteQuadrature, x) -> float:
    """Discretized kernel smoothing operator: sum_z w_z f(z) K(x, z)."""
    f_values = np.asarray(f_values, dtype=float)
    if len(f_values) != len(quad.nodes):
        raise ValueError("f values must align with quadrature nodes")
    return float(cross_gram(spec, [x], quad.nodes)[0] @ (quad.weights * f_values))


def _normal_equations(Kq: np.ndarray, f_values, quad: DiscreteQuadrature):
    """Psi matrix and right-hand side of the theoretical normal equations,
    from the kernel values K_q[j, z] = K(y_j, z) of the nodes y_j at the
    quadrature nodes z:
        Psi = K_q diag(w f0) K_q'   and   rhs = K_q (w f f0),
    that is Psi[j, l] = psi_kernel(y_j, y_l) and rhs[j] = sigma_n(f f0, y_j).
    """
    wf0 = quad.weights * quad.density_f0
    P = (Kq * wf0) @ Kq.T
    return 0.5 * (P + P.T), Kq @ (wf0 * f_values)


def fit_theoretical(spec: KernelSpec, nodes, f_values, quad: DiscreteQuadrature) -> CollocationModel:
    """Solve the normal equations of the least-squares problem in the span of
    kernel translates:  sum_l a_l Psi(y_l, y_j) = smoothing of f * f0 at y_j,
    with both sides realized on the same quadrature.

    One cross_gram of the nodes with the nodes and the quadrature nodes gives
    both the normal equations and the collocation matrix of the dominance
    ratio. For the flat kinds its node block is bitwise the `gram` of the
    nodes: their squared distances are exactly symmetric and the profile is
    elementwise.
    """
    nodes = list(nodes)
    f_values = np.asarray(f_values, dtype=float)
    if len(f_values) != len(quad.nodes):
        raise ValueError("f values must align with quadrature nodes")
    M = len(nodes)
    K = cross_gram(spec, nodes, nodes + list(quad.nodes))
    P, rhs = _normal_equations(K[:, M:], f_values, quad)
    cond = np.linalg.cond(P)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ValueError(f"normal-equation matrix condition {cond:.2e} exceeds {COND_LIMIT:.0e}")
    coeffs = np.linalg.solve(P, rhs)
    eta = minimal_separation(nodes) if M > 1 else np.inf
    ratio = _dominance_ratio(K[:, :M]) if M > 1 else 0.0
    return CollocationModel(nodes=nodes, coeffs=coeffs, spec=spec, eta=eta, dominance_ratio=ratio)


def evaluate(model: CollocationModel, x) -> float:
    return float(cross_gram(model.spec, [x], model.nodes)[0] @ model.coeffs)


def error_profile(model: CollocationModel, truth, probes) -> ErrorProfile:
    """Per-probe Euclidean distance to the nearest node, absolute error
    against the truth values, and raw model value, sorted by that distance.
    Model values and distances come from one distance pass: the pair
    statistics of a flat kind (localized or euclidean_rbf), which the
    model's kernel must be, are the squared distances."""
    truth = np.asarray(truth, dtype=float)
    if len(probes) == 0:
        raise ValueError("no probes")
    if model.spec.kind not in ("euclidean_rbf", "localized"):
        raise ValueError(f"{model.spec.kind} is not a kernel on flat vectors")
    K, d2 = _cross_gram_statistics(model.spec, probes, model.nodes)
    vals = K @ model.coeffs
    # sqrt is monotone and correctly rounded: the root of the least square
    # is the least root
    delta = np.sqrt(d2.min(axis=1))
    err = np.abs(vals - truth)
    order = np.argsort(delta, kind="stable")
    return ErrorProfile(
        probe_points=[probes[i] for i in order],
        delta=delta[order],
        abs_error=err[order],
        model_value=vals[order],
    )
