"""Kernel zoo over feature representations.

Implements the Grassmann projection-distance kernel, the Laplace and Gaussian
kernels on (U, Sigma) SVD features, the plain Euclidean RBF, the localized
Hermite kernel on flat vectors, batched kernel matrices (`cross_gram`, `gram`),
and the derived second-order kernel Psi used by the theoretical least-squares
normal equations.

`cross_gram` and `gram` are the paths that compute kernel values in bulk;
both refuse a matrix with a non-finite entry. The flat kinds (localized,
`euclidean_rbf`) are radial profiles of the squared Euclidean distance, and
their `gram` evaluates only the upper triangle. The scalar per-pair
functions (`grassmann_kernel`, ..., `kernel_fn`, `psi_kernel`) are kept as
the reference the batched path is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hermite import LocalizedKernelSpec, build_localized_kernel, eval_localized

__all__ = [
    "KernelSpec",
    "GramMatrix",
    "DiscreteQuadrature",
    "canonicalize_signs",
    "grassmann_kernel",
    "laplace_svd_kernel",
    "gaussian_svd_kernel",
    "euclidean_rbf",
    "localized_distance_kernel",
    "kernel_fn",
    "cross_gram",
    "gram",
    "psi_kernel",
]

KERNEL_KINDS = ("grassmann", "laplace_svd", "gaussian_svd", "euclidean_rbf", "localized")
# kinds on flat vectors whose value is a function of the squared distance
FLAT_KINDS = ("euclidean_rbf", "localized")

# Defaults from the experimental protocol this library reproduces.
DEFAULT_PARAMS = {
    "grassmann": {"gamma": 0.2},
    "laplace_svd": {"alpha": 0.2, "beta": 0.0042},
    "gaussian_svd": {"alpha": 0.2, "beta": 0.12},
    "euclidean_rbf": {"gamma": 2.1e-7},
    "localized": {"gamma": 0.8, "N": 4.0, "q": 2},
}


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use, with its hyperparameters."""

    kind: str
    params: dict = field(default_factory=dict)
    _localized: LocalizedKernelSpec | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        merged = dict(DEFAULT_PARAMS[self.kind])
        merged.update(self.params)
        object.__setattr__(self, "params", merged)
        if self.kind == "localized" and self._localized is None:
            spec = build_localized_kernel(
                N=merged["N"], q=int(merged["q"]), gamma=merged["gamma"]
            )
            object.__setattr__(self, "_localized", spec)

    @property
    def localized(self) -> LocalizedKernelSpec:
        if self._localized is None:
            raise ValueError("not a localized kernel")
        return self._localized


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray
    spec: KernelSpec
    point_ids: list


@dataclass(frozen=True)
class DiscreteQuadrature:
    """Nodes, positive weights and density values realizing d(tau) = f_0 d(mu)."""

    nodes: list
    weights: np.ndarray
    density_f0: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        f0 = np.asarray(self.density_f0, dtype=float)
        if len(self.nodes) == 0:
            raise ValueError("quadrature must have at least one node")
        if np.any(w <= 0) or not np.isfinite(w.sum()):
            raise ValueError("weights must be positive and finite")
        if np.any(f0 <= 0):
            raise ValueError("density must be strictly positive at every node")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "density_f0", f0)


def canonicalize_signs(U: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    SVD leaves per-column signs arbitrary; the Laplace/Gaussian SVD kernels
    use ||U1 - U2||_F, so a shared sign convention is required.
    """
    U = np.array(U, dtype=float)
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def _check_orthonormal(U: np.ndarray, tol: float = 1e-8) -> None:
    """Raise unless every basis in U (one n x r basis, or a stack of them
    along the first axis) has orthonormal columns to Frobenius error tol."""
    r = U.shape[-1]
    err = np.max(np.linalg.norm(np.swapaxes(U, -1, -2) @ U - np.eye(r), axis=(-2, -1)))
    if err > tol:
        raise ValueError(f"columns not orthonormal (||U'U - I|| = {err:.2e})")


def grassmann_kernel(U1: np.ndarray, U2: np.ndarray, gamma: float = 0.2) -> float:
    """exp(-gamma (r - ||U1' U2||_F^2)), the projection-distance kernel."""
    U1 = np.asarray(U1, dtype=float)
    U2 = np.asarray(U2, dtype=float)
    if U1.shape != U2.shape:
        raise ValueError("basis shape mismatch")
    _check_orthonormal(U1)
    _check_orthonormal(U2)
    r = U1.shape[1]
    # squared projection distance; clamp round-off so identical subspaces
    # yield exactly 1
    d = r - float(np.linalg.norm(U1.T @ U2) ** 2)
    d = 0.0 if abs(d) < 1e-12 else max(d, 0.0)
    return math.exp(-gamma * d)


def laplace_svd_kernel(U1, S1, U2, S2, alpha: float = 0.2, beta: float = 0.0042) -> float:
    """exp(-alpha ||U1-U2||_F - beta ||S1-S2||_2) on SVD features."""
    U1, U2 = np.asarray(U1, float), np.asarray(U2, float)
    S1, S2 = np.asarray(S1, float), np.asarray(S2, float)
    if U1.shape != U2.shape or S1.shape != S2.shape:
        raise ValueError("feature shape mismatch")
    return math.exp(-alpha * np.linalg.norm(U1 - U2) - beta * np.linalg.norm(S1 - S2))


def gaussian_svd_kernel(U1, S1, U2, S2, alpha: float = 0.2, beta: float = 0.12) -> float:
    """exp(-alpha ||U1-U2||_F^2 - beta ||S1-S2||_2^2) on SVD features."""
    U1, U2 = np.asarray(U1, float), np.asarray(U2, float)
    S1, S2 = np.asarray(S1, float), np.asarray(S2, float)
    if U1.shape != U2.shape or S1.shape != S2.shape:
        raise ValueError("feature shape mismatch")
    return math.exp(
        -alpha * np.linalg.norm(U1 - U2) ** 2 - beta * np.linalg.norm(S1 - S2) ** 2
    )


def euclidean_rbf(x, y, gamma: float = 2.1e-7) -> float:
    x = np.asarray(x, float).ravel()
    y = np.asarray(y, float).ravel()
    if x.shape != y.shape:
        raise ValueError("vector length mismatch")
    return math.exp(-gamma * float(np.sum((x - y) ** 2)))


def localized_distance_kernel(spec: LocalizedKernelSpec, x, y) -> float:
    """Localized kernel on the scaled Euclidean distance gamma*||x - y||."""
    x = np.asarray(x, float).ravel()
    y = np.asarray(y, float).ravel()
    if x.shape != y.shape:
        raise ValueError("vector length mismatch")
    return float(eval_localized(spec, spec.gamma * np.linalg.norm(x - y)))


def kernel_fn(spec: KernelSpec):
    """Binary kernel callable for a KernelSpec, on the matching feature kind."""
    p = spec.params
    if spec.kind == "grassmann":
        return lambda a, b: grassmann_kernel(a.U, b.U, p["gamma"])
    if spec.kind == "laplace_svd":
        return lambda a, b: laplace_svd_kernel(a.U, a.S, b.U, b.S, p["alpha"], p["beta"])
    if spec.kind == "gaussian_svd":
        return lambda a, b: gaussian_svd_kernel(a.U, a.S, b.U, b.S, p["alpha"], p["beta"])
    if spec.kind == "euclidean_rbf":
        return lambda a, b: euclidean_rbf(a, b, p["gamma"])
    loc = spec.localized
    return lambda a, b: localized_distance_kernel(loc, a, b)


# Floats in the largest temporary of one row block (512 KiB): the
# (rows, Mb, dim) differences or the (rows*r, Mb*r) basis overlaps. Larger
# blocks run no faster and raise the peak resident memory.
_BLOCK_ELEMS = 1 << 16


def _row_blocks(n_rows: int, row_elems: int):
    step = max(1, _BLOCK_ELEMS // max(row_elems, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _stack(values) -> np.ndarray:
    """Stack same-shape feature arrays along a new first axis."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    if not arrays:
        raise ValueError("no points")
    if any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("feature shape mismatch")
    return np.stack(arrays)


def _stacked_features(spec: KernelSpec, points: Sequence) -> tuple:
    """The points' features as stacked float arrays, each point validated
    once: transposed bases U' (Grassmann), U and S (SVD kernels), or flat
    vectors."""
    if spec.kind == "grassmann":
        Ut = _stack([np.transpose(pt.U) for pt in points])
        _check_orthonormal(np.swapaxes(Ut, 1, 2))
        return (Ut,)
    if spec.kind in ("laplace_svd", "gaussian_svd"):
        return _stack([pt.U for pt in points]), _stack([pt.S for pt in points])
    return (_stack([np.ravel(pt) for pt in points]),)


def _sq_dists(XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of XA and XB.

    Direct differences, not |x|^2 + |y|^2 - 2x'y, so coincident points get
    exactly 0 and near ones keep their relative precision.
    """
    out = np.empty((len(XA), len(XB)))
    for rows in _row_blocks(len(XA), XB.size):
        diff = XA[rows, None, :] - XB[None, :, :]
        out[rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _projection_overlaps(UtA: np.ndarray, UtB: np.ndarray) -> np.ndarray:
    """||UA[i]' UB[j]||_F^2 from stacks of transposed bases, (M, r, n).

    This is <UA[i] UA[i]', UB[j] UB[j]'>, the projector inner product of the
    Grassmann projection kernel. One matmul per row block forms all the
    r x r products UA[i]' UB[j] of the block at once.
    """
    Mb, r, n = UtB.shape
    B = UtB.reshape(Mb * r, n)
    out = np.empty((len(UtA), Mb))
    for rows in _row_blocks(len(UtA), Mb * r * r):
        C = UtA[rows].reshape(-1, n) @ B.T
        np.square(C, out=C)
        out[rows] = C.reshape(-1, r, Mb, r).sum(axis=(1, 3))
    return out


def _radial_profile(spec: KernelSpec, d2: np.ndarray) -> np.ndarray:
    """Kernel values of a flat kind at squared Euclidean distances d2."""
    if spec.kind == "euclidean_rbf":
        return np.exp(-spec.params["gamma"] * d2)
    loc = spec.localized
    return eval_localized(loc, loc.gamma * np.sqrt(d2))


def _kernel_matrix(spec: KernelSpec, FA: tuple, FB: tuple) -> np.ndarray:
    """K[i, j] = k(A[i], B[j]) from the stacked features of A and B, for the
    Grassmann and SVD kinds (flat kinds: `_cross_gram_sq_dists`)."""
    if any(a.shape[1:] != b.shape[1:] for a, b in zip(FA, FB)):
        raise ValueError("feature shape mismatch")
    p = spec.params
    if spec.kind == "grassmann":
        (UtA,), (UtB,) = FA, FB
        d = UtA.shape[1] - _projection_overlaps(UtA, UtB)
        # clamp round-off so identical subspaces yield exactly 1
        return np.exp(-p["gamma"] * np.where(d < 1e-12, 0.0, d))
    if spec.kind in ("laplace_svd", "gaussian_svd"):
        (UA, SA), (UB, SB) = FA, FB
        dU = _sq_dists(UA.reshape(len(UA), -1), UB.reshape(len(UB), -1))
        dS = _sq_dists(SA, SB)
        if spec.kind == "laplace_svd":
            return np.exp(-p["alpha"] * np.sqrt(dU) - p["beta"] * np.sqrt(dS))
        return np.exp(-p["alpha"] * dU - p["beta"] * dS)
    raise ValueError(f"{spec.kind} is a kernel on flat vectors")


def _flat_gram(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Gram matrix of a flat kind on the rows of X from its upper triangle.

    Each row block is paired with the columns from the block start, and only
    the entries on or above the diagonal are kept; one profile call maps them
    all, and the lower triangle is their mirror image. Direct differences
    give d2(i, j) and d2(j, i) bitwise equal, so the mirror is exactly what
    the full matrix would hold.
    """
    M = len(X)
    blocks, upper_d2 = [], []
    for rows in _row_blocks(M, X.size):
        d2 = _sq_dists(X[rows], X[rows.start:])
        upper = np.arange(d2.shape[1]) >= np.arange(d2.shape[0])[:, None]
        upper_d2.append(d2[upper])
        blocks.append((rows, upper, len(upper_d2[-1])))
    values = np.concatenate(upper_d2)
    del upper_d2  # only the block lengths are needed from here on
    values = _radial_profile(spec, values)
    K = np.empty((M, M))
    end = 0
    for rows, upper, n_upper in blocks:
        start, end = end, end + n_upper
        K[rows, rows.start:][upper] = values[start:end]
    for rows, upper, _ in blocks:
        s, n = rows.start, rows.stop - rows.start
        K[rows, :s] = K[:s, rows].T
        diag, lower = K[rows, rows], ~upper[:, :n]
        diag[lower] = diag.T[lower]
    return K


def _check_finite(spec: KernelSpec | None, K: np.ndarray) -> None:
    """Raise ValueError naming the kernel and the first non-finite entry of K."""
    finite = np.isfinite(K)
    if finite.all():
        return
    idx = np.unravel_index(np.argmin(finite), K.shape)
    where = f"at entry {tuple(int(i) for i in idx)}"
    if spec is None:
        raise ValueError(f"Gram matrix has a non-finite value {K[idx]} {where}")
    if spec.kind == "localized":
        loc = spec.localized
        raise ValueError(
            f"localized kernel (N={loc.N:g}, q={loc.q}, gamma={loc.gamma:g}, degree "
            f"{loc.degree}) gave a non-finite value {K[idx]} {where}: its Hermite "
            "recurrence overflows far from the origin; lower N or gamma"
        )
    params = ", ".join(f"{k}={v!r}" for k, v in sorted(spec.params.items()))
    raise ValueError(f"{spec.kind} kernel ({params}) gave a non-finite value {K[idx]} {where}")


def cross_gram(spec: KernelSpec, A: Sequence, B: Sequence) -> np.ndarray:
    """Kernel matrix K[i, j] = k(A[i], B[j]) over two feature sequences.

    Features are what `kernel_fn(spec)` takes: objects with `U` (Grassmann),
    `U` and `S` (SVD kernels), or flat vectors. Raises ValueError on an empty
    sequence, on features of unequal shape, on a non-orthonormal Grassmann
    basis, and on a non-finite kernel value.
    """
    if spec.kind in FLAT_KINDS:
        return _cross_gram_sq_dists(spec, A, B)[0]
    K = _kernel_matrix(spec, _stacked_features(spec, A), _stacked_features(spec, B))
    _check_finite(spec, K)
    return K


def _cross_gram_sq_dists(spec: KernelSpec, A: Sequence, B: Sequence) -> tuple:
    """(cross_gram(spec, A, B), squared Euclidean distances between the
    points of A and B) for a flat kind, from one distance pass."""
    if spec.kind not in FLAT_KINDS:
        raise ValueError(f"{spec.kind} is not a kernel on flat vectors")
    (XA,), (XB,) = _stacked_features(spec, A), _stacked_features(spec, B)
    if XA.shape[1:] != XB.shape[1:]:
        raise ValueError("feature shape mismatch")
    d2 = _sq_dists(XA, XB)
    K = _radial_profile(spec, d2)
    _check_finite(spec, K)
    return K, d2


def gram(spec: KernelSpec, points: Sequence, point_ids=None) -> GramMatrix:
    """Symmetric Gram matrix: cross_gram of the points with themselves, with
    K[i, j] == K[j, i] exactly. Features are stacked and validated once. The
    flat kinds evaluate the upper triangle only and mirror it; the other
    kinds symmetrise the full matrix."""
    features = _stacked_features(spec, points)
    if spec.kind in FLAT_KINDS:
        K = _flat_gram(spec, *features)
    else:
        K = _kernel_matrix(spec, features, features)
        K = 0.5 * (K + K.T)
    _check_finite(spec, K)
    ids = list(point_ids) if point_ids is not None else list(range(len(points)))
    return GramMatrix(entries=K, spec=spec, point_ids=ids)


def psi_kernel(spec: KernelSpec, quad: DiscreteQuadrature, x, y) -> float:
    """Discrete Psi(x, y) = sum_z w_z f0(z) k(x, z) k(y, z)."""
    k = kernel_fn(spec)
    kx = np.array([k(x, z) for z in quad.nodes])
    ky = np.array([k(y, z) for z in quad.nodes])
    return float(np.sum(quad.weights * quad.density_f0 * kx * ky))
