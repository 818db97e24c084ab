"""Kernel zoo over feature representations.

Implements the Grassmann projection-distance kernel, the Laplace and Gaussian
kernels on (U, Sigma) SVD features, the plain Euclidean RBF, the localized
Hermite kernel on flat vectors, batched kernel matrices (`cross_gram`, `gram`),
and the derived second-order kernel Psi used by the theoretical least-squares
normal equations.

Every kind is a profile of one pair statistic of its embedding: the squared
Euclidean distance (flat kinds: localized, `euclidean_rbf`), the projection
distance (Grassmann), or an exponent built from the distances of the U and
S features (SVD kinds). Subspace points carry `U` and `S` (the
`SubspaceFeature`s of SVD features and of ARMA embeddings alike), so every
subspace kind takes either. `cross_gram` and `gram` compute every kernel
value the library returns; both refuse a matrix with a non-finite entry.
`gram`, for every kind, walks the upper triangle once in row blocks, maps
the statistics with one profile call and writes them through one np.triu
mask to both triangles. The per-pair `kernel_fn(spec)(a, b)` is the one
entry of `cross_gram(spec, [a], [b])`, and `psi_kernel` sums one
`cross_gram` of its two points with the quadrature nodes. The scalar
per-pair kernels that the batched path is tested against live in the test
suite (`tests/kernel_oracle.py`).
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
    "kernel_fn",
    "cross_gram",
    "gram",
    "psi_kernel",
]

KERNEL_KINDS = ("grassmann", "laplace_svd", "gaussian_svd", "euclidean_rbf", "localized")
# the kinds on flat vectors, whose pair statistic is the squared distance;
# the others take subspace points
FLAT_KINDS = ("euclidean_rbf", "localized")

# Defaults from the experimental protocol this library reproduces.
DEFAULT_PARAMS = {
    "grassmann": {"gamma": 0.2},
    "laplace_svd": {"alpha": 0.2, "beta": 0.0042},
    "gaussian_svd": {"alpha": 0.2, "beta": 0.12},
    "euclidean_rbf": {"gamma": 2.1e-7},
    "localized": {"gamma": 0.8, "N": 4.0, "q": 18},
}


def _check_params(kind: str, params) -> None:
    """Refuse an unknown kernel kind, a parameter that its kind does not
    read (a key outside `DEFAULT_PARAMS[kind]`), or a scale parameter that
    is not positive and finite. The localized N and q are checked where the
    kernel's expansion is built (`build_localized_kernel`); its gamma, the
    scale at which it reads distances, is checked and held here only."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    unread = [key for key in params if key not in DEFAULT_PARAMS[kind]]
    if unread:
        raise ValueError(f"kernel {kind!r} does not read parameter "
                         f"{', '.join(map(repr, unread))}; it reads "
                         f"{', '.join(DEFAULT_PARAMS[kind])}")
    for key in ("gamma", "alpha", "beta"):
        if key in params and not 0 < params[key] < math.inf:  # NaN fails both
            raise ValueError(f"kernel {kind!r}: {key} must be positive and finite, "
                             f"got {params[key]}")


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use, with its hyperparameters, defaults filled in
    from `DEFAULT_PARAMS`. The localized kind's expansion depends on N and
    q only; its gamma, the scale at which it reads distances, is held in
    `params` alone."""

    kind: str
    params: dict = field(default_factory=dict)
    _localized: LocalizedKernelSpec | None = field(default=None, init=False, repr=False,
                                                   compare=False)

    def __post_init__(self):
        _check_params(self.kind, self.params)
        merged = dict(DEFAULT_PARAMS[self.kind])
        merged.update(self.params)
        object.__setattr__(self, "params", merged)
        if self.kind == "localized":
            spec = build_localized_kernel(N=merged["N"], q=int(merged["q"]))
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


# Floats in the largest temporary of one row block (512 KiB): the
# (rows, Mb, dim) differences or the (rows*r, Mb*r) basis overlaps. Larger
# blocks run no faster and raise the peak resident memory.
_BLOCK_ELEMS = 1 << 16


def _row_blocks(n_rows: int, row_elems: int):
    step = max(1, _BLOCK_ELEMS // max(row_elems, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _stack(values) -> np.ndarray:
    """Same-shape feature arrays as one float array along a new first axis,
    from one conversion: a sequence of them, or an array whose first axis
    runs over them, which passes through without a copy when it is already
    float."""
    try:
        stacked = np.asarray(values, dtype=float)
    except ValueError as exc:
        # numpy's "setting an array element with a sequence" for ragged input
        if "sequence" not in str(exc):
            raise
        raise ValueError("feature shape mismatch") from exc
    if len(stacked) == 0:
        raise ValueError("no points")
    return stacked


def _flat_rows(points) -> np.ndarray:
    """The points, each ravelled, as the rows of one (n, d) float matrix."""
    X = _stack(points)
    return X.reshape(len(X), -1)


def _stacked_features(spec: KernelSpec, points: Sequence) -> tuple:
    """The points' features as stacked float arrays, each point validated
    once: transposed bases U' (Grassmann), U and S (SVD kernels), or the
    rows of flat vectors (`_flat_rows`: an (n, d) array passes through)."""
    if spec.kind == "grassmann":
        Ut = _stack([np.transpose(pt.U) for pt in points])
        _check_orthonormal(np.swapaxes(Ut, 1, 2))
        return (Ut,)
    if spec.kind in ("laplace_svd", "gaussian_svd"):
        return _stack([pt.U for pt in points]), _stack([pt.S for pt in points])
    return (_flat_rows(points),)


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


def _statistic(spec: KernelSpec, FA: tuple, FB: tuple) -> np.ndarray:
    """The pair statistic s[i, j] of A[i] and B[j], from their stacked
    features, whose `_profile` is the kernel value: the squared distance
    (flat kinds), the clamped projection distance (Grassmann), or the
    exponent alpha dU^(1/2) + beta dS^(1/2) (Laplace SVD) or alpha dU +
    beta dS (Gaussian SVD), with dU and dS the squared distances of the U
    and S features."""
    p = spec.params
    if spec.kind == "grassmann":
        (UtA,), (UtB,) = FA, FB
        d = UtA.shape[1] - _projection_overlaps(UtA, UtB)
        # clamp round-off so identical subspaces yield exactly 1
        return np.where(d < 1e-12, 0.0, d)
    if spec.kind in ("laplace_svd", "gaussian_svd"):
        (UA, SA), (UB, SB) = FA, FB
        dU = _sq_dists(UA.reshape(len(UA), -1), UB.reshape(len(UB), -1))
        dS = _sq_dists(SA, SB)
        if spec.kind == "laplace_svd":
            return p["alpha"] * np.sqrt(dU) + p["beta"] * np.sqrt(dS)
        return p["alpha"] * dU + p["beta"] * dS
    (XA,), (XB,) = FA, FB
    return _sq_dists(XA, XB)


def _profile(spec: KernelSpec, s: np.ndarray) -> np.ndarray:
    """Kernel values at pair statistics s (see `_statistic`)."""
    if spec.kind == "localized":
        return eval_localized(spec.localized, spec.params["gamma"] * np.sqrt(s))
    if spec.kind in ("laplace_svd", "gaussian_svd"):
        return np.exp(-s)
    return np.exp(-spec.params["gamma"] * s)


def _upper_statistics(statistic, F: tuple, pair_elems: int, k: int = 0):
    """statistic(FA, FB) between the points of the stacked features F on
    and above the k-th diagonal (k as in np.triu), one row block at a time.

    Each row block is paired with the columns from the block start, and is
    sized so the statistic's largest temporary, `pair_elems` floats a pair,
    holds at most `_BLOCK_ELEMS` floats. Yields the block's wanted entries
    in row-major order, so the blocks concatenated are the matrix's entries
    under np.triu's mask, in the order a boolean mask reads and writes
    them. Only block-sized temporaries are made.
    """
    M = len(F[0])
    for rows in _row_blocks(M, M * pair_elems):
        s = statistic(tuple(f[rows] for f in F), tuple(f[rows.start:] for f in F))
        yield s[np.arange(s.shape[1]) >= np.arange(s.shape[0])[:, None] + k]


def _min_separation(X: np.ndarray) -> float:
    """Smallest Euclidean distance between two distinct rows of X (at least
    two rows). sqrt is monotone and correctly rounded, so the root of the
    least squared distance is the least distance."""
    blocks = _upper_statistics(lambda A, B: _sq_dists(A[0], B[0]), (X,), X.shape[1], 1)
    return float(np.sqrt(min(v.min() for v in blocks if v.size)))


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
            f"localized kernel (N={loc.N:g}, q={loc.q}, gamma={spec.params['gamma']:g}, degree "
            f"{loc.degree}) gave a non-finite value {K[idx]} {where}: the kernel is "
            "finite wherever gamma times the distance is a number, so a coordinate "
            "of that pair is not finite"
        )
    params = ", ".join(f"{k}={v!r}" for k, v in sorted(spec.params.items()))
    raise ValueError(f"{spec.kind} kernel ({params}) gave a non-finite value {K[idx]} {where}")


def cross_gram(spec: KernelSpec, A: Sequence, B: Sequence) -> np.ndarray:
    """Kernel matrix K[i, j] = k(A[i], B[j]) over two feature sequences: the
    profile of the pair statistics of A and B.

    Features are objects with `U` (Grassmann), `U` and `S` (SVD kernels), or
    flat vectors: a sequence of same-shape arrays, each ravelled, or an
    (n, d) matrix of rows. Raises ValueError on an empty sequence, on features of
    unequal shape, on a non-orthonormal Grassmann basis, and on a non-finite
    kernel value.
    """
    return _cross_gram_statistics(spec, A, B)[0]


def kernel_fn(spec: KernelSpec):
    """k(a, b) for one pair of features: the one entry of their cross_gram."""
    return lambda a, b: float(cross_gram(spec, [a], [b])[0, 0])


def _cross_gram_statistics(spec: KernelSpec, A: Sequence, B: Sequence) -> tuple:
    """(cross_gram(spec, A, B), the pair statistics it is the profile of),
    from one statistics pass."""
    FA, FB = _stacked_features(spec, A), _stacked_features(spec, B)
    if any(a.shape[1:] != b.shape[1:] for a, b in zip(FA, FB)):
        raise ValueError("feature shape mismatch")
    s = _statistic(spec, FA, FB)
    K = _profile(spec, s)
    _check_finite(spec, K)
    return K, s


def gram(spec: KernelSpec, points: Sequence) -> GramMatrix:
    """Symmetric Gram matrix: cross_gram of the points with themselves, with
    K[i, j] == K[j, i] exactly. Features are stacked and validated once.

    For every kind, one walk over the row blocks (`_upper_statistics`)
    reads the pair statistics on and above the diagonal, one profile call
    maps them, and one np.triu mask writes the values to the upper triangle
    and to its mirror image. The statistics of the flat and SVD kinds are
    bitwise symmetric (direct differences give d2(i, j) == d2(j, i)), so
    for them the mirror is exactly what the full matrix would hold.
    """
    features = _stacked_features(spec, points)
    M = len(features[0])
    # floats a pair in the statistic's largest temporary: the r x r basis
    # overlap (Grassmann) or the difference of the first feature
    pair_elems = (features[0].shape[1] ** 2 if spec.kind == "grassmann"
                  else features[0][0].size)
    blocks = _upper_statistics(lambda FA, FB: _statistic(spec, FA, FB), features, pair_elems)
    values = _profile(spec, np.concatenate(list(blocks)))
    upper = np.triu(np.ones((M, M), dtype=bool))
    K = np.empty((M, M))
    K[upper] = values
    K.T[upper] = values
    _check_finite(spec, K)
    return GramMatrix(entries=K, spec=spec)


def psi_kernel(spec: KernelSpec, quad: DiscreteQuadrature, x, y) -> float:
    """Discrete Psi(x, y) = sum_z w_z f0(z) k(x, z) k(y, z), from one
    cross_gram of x and y with the quadrature nodes."""
    kx, ky = cross_gram(spec, [x, y], quad.nodes)
    return float(np.sum(quad.weights * quad.density_f0 * kx * ky))
