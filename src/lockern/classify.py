"""Kernel classifiers: soft-margin SVM trained by pairwise dual decomposition
with greedy most-violating-pair selection, a one-vs-rest multiclass wrapper,
and a deterministic k-nearest-neighbor vote.
"""
from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix, KernelSpec, _check_finite

__all__ = [
    "SvmModel",
    "MulticlassModel",
    "label_indicators",
    "svm_train_binary",
    "svm_predict",
    "one_vs_rest_train",
    "one_vs_rest_predict",
    "knn_predict",
    "dump_model",
    "load_model",
]

KKT_TOL = 1e-3
MAX_PAIR_UPDATES = 10**6


@dataclass(frozen=True)
class SvmModel:
    support_coeffs: np.ndarray  # alpha_i * y_i for support vectors
    support_ids: np.ndarray  # indices into the training set
    bias: float
    spec: KernelSpec | None
    C: float


@dataclass(frozen=True)
class MulticlassModel:
    models: list  # one binary SvmModel per class, one-vs-rest
    classes: list


def label_indicators(labels, classes=None):
    """Signed class-membership targets: row c is +1 where the label equals
    classes[c] and -1 elsewhere. Returns (classes, indicator matrix)."""
    labels = np.asarray(labels)
    if classes is None:
        classes = sorted(np.unique(labels).tolist())
    elif not set(np.unique(labels).tolist()) <= set(classes):
        raise ValueError("labels contain classes outside the given list")
    signs = np.where(labels[None, :] == np.asarray(classes)[:, None], 1.0, -1.0)
    return list(classes), signs


def _gram_entries(gram: GramMatrix | np.ndarray):
    """(entries, spec) of a GramMatrix or a plain square array."""
    if isinstance(gram, GramMatrix):
        return gram.entries, gram.spec
    return np.asarray(gram, dtype=float), None


def _check_problem(K: np.ndarray, labels, C: float) -> np.ndarray:
    """Validated +-1 targets of one binary problem on the Gram K."""
    y = np.asarray(labels, dtype=float)
    M = len(y)
    if K.shape != (M, M):
        raise ValueError("gram/label size mismatch")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be in {-1, +1}")
    if len(np.unique(y)) < 2:
        raise ValueError("need at least one sample of each class")
    if C <= 0:
        raise ValueError("C must be positive")
    return y


def _warn_if_indefinite(K: np.ndarray) -> None:
    """Warn when the smallest eigenvalue of K is below -tol, with
    tol = 1e-3 * trace(K) / M.

    A Cholesky factorisation of K + tol*I is tried first. It succeeds when
    every eigenvalue of K is above -tol, and then no warning is due; only
    when it fails is the smallest eigenvalue computed (`eigvalsh`) and
    compared with -tol. The decision can differ from the `eigvalsh` test
    alone only for a smallest eigenvalue within the rounding error of the
    factorisation of -tol.
    """
    tol = 1e-3 * np.trace(K) / len(K)
    shifted = np.array(K, dtype=float)
    shifted.flat[:: len(K) + 1] += tol
    try:
        np.linalg.cholesky(shifted)
        return
    except np.linalg.LinAlgError:
        pass
    eigmin = np.linalg.eigvalsh(K)[0]
    if eigmin < -tol:
        warnings.warn(f"Gram matrix is noticeably indefinite (min eig {eigmin:.3e})")


def svm_train_binary(gram: GramMatrix | np.ndarray, labels, C: float = 1.0) -> SvmModel:
    """Solve the soft-margin dual on a precomputed Gram matrix.

    Greedy maximal-KKT-violating-pair updates until the violation gap drops
    below KKT_TOL or the pair-update cap is hit; deterministic (no RNG).
    Warns when the Gram matrix is noticeably indefinite.
    """
    K, spec = _gram_entries(gram)
    y = _check_problem(K, labels, C)
    _check_finite(spec, K)
    _warn_if_indefinite(K)
    return _smo(K, spec, y, C)


def _smo(K: np.ndarray, spec: KernelSpec | None, y: np.ndarray, C: float) -> SvmModel:
    """The dual solve of svm_train_binary on validated inputs.

    Carries yg = -y * grad, with grad the gradient of the dual objective
    1/2 a'Qa - 1'a and Q = K * yy'. As y is +-1, Q[:, i] * y_i = y * K[:, i]
    exactly, so a pair update is yg -= step * (K[:, i] - K[:, j]) and Q is
    never formed. gu and gl are yg masked to the up and low sets (-inf and
    +inf elsewhere); only entries i and j can change set in an update.
    """
    M = len(y)
    cols = K.T  # cols[i] is K[:, i], whatever the symmetry of K
    diag = K.diagonal().tolist()
    ys = y.tolist()
    alpha = [0.0] * M
    tau = 1e-12
    G = np.empty((3, M))  # rows yg, gu, gl: one in-place update moves all three
    yg, gu, gl = G
    yg[:] = y  # alpha = 0: grad = -1, up set = {y > 0}, low set = {y < 0}
    gu[:] = np.where(y > 0, y, -np.inf)
    gl[:] = np.where(y > 0, np.inf, y)
    delta = np.empty(M)
    for _ in range(MAX_PAIR_UPDATES):
        # first extremum over the masked set, as an argmax over that subset gives
        i = int(gu.argmax())
        j = int(gl.argmin())
        gap = yg.item(i) - yg.item(j)
        if gap < KKT_TOL:
            break
        # curvature along the feasible pair direction (da_i, da_j) = (y_i, -y_j)t
        eta = diag[i] + diag[j] - 2.0 * K.item(i, j)
        if eta <= 0:
            eta = tau
        # move alpha_i up and alpha_j down along the equality constraint
        yi, yj, ai, aj = ys[i], ys[j], alpha[i], alpha[j]
        max_i = C - ai if yi > 0 else ai
        max_j = aj if yj > 0 else C - aj
        step = min(gap / eta, max_i, max_j)
        alpha[i] = ai = ai + yi * step
        alpha[j] = aj = aj - yj * step
        np.subtract(cols[i], cols[j], out=delta)
        delta *= step
        G -= delta
        # only i and j can have changed sets
        gu[i] = yg.item(i) if (ai < C if yi > 0 else ai > 0) else -np.inf
        gl[i] = yg.item(i) if (ai > 0 if yi > 0 else ai < C) else np.inf
        gu[j] = yg.item(j) if (aj < C if yj > 0 else aj > 0) else -np.inf
        gl[j] = yg.item(j) if (aj > 0 if yj > 0 else aj < C) else np.inf
    else:
        gap = float(gu.max() - gl.min())
        if gap >= KKT_TOL:
            warnings.warn(
                f"SMO stopped at the update cap MAX_PAIR_UPDATES={MAX_PAIR_UPDATES} "
                f"with KKT gap {gap:.3e} >= KKT_TOL={KKT_TOL:g}",
                RuntimeWarning,
            )
    alpha = np.array(alpha)
    pos, neg = y > 0, y < 0
    up = (pos & (alpha < C)) | (neg & (alpha > 0))
    low = (pos & (alpha > 0)) | (neg & (alpha < C))
    hi = np.max(yg[up]) if up.any() else 0.0
    lo = np.min(yg[low]) if low.any() else 0.0
    bias = (hi + lo) / 2.0  # yg equals the bias at free support vectors

    sv = np.flatnonzero(alpha > 1e-12)
    return SvmModel(
        support_coeffs=alpha[sv] * y[sv],
        support_ids=sv,
        bias=float(bias),
        spec=spec,
        C=float(C),
    )


def svm_predict(model: SvmModel, gram_row) -> float:
    """Decision value for one sample given its kernel values vs. the support
    set (ordered as model.support_ids)."""
    gram_row = np.asarray(gram_row, dtype=float)
    if gram_row.shape != model.support_coeffs.shape:
        raise ValueError("kernel row length must match support set")
    return float(np.dot(model.support_coeffs, gram_row) + model.bias)


def one_vs_rest_train(gram: GramMatrix | np.ndarray, labels, C: float = 1.0) -> MulticlassModel:
    classes, signs = label_indicators(labels)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    K, spec = _gram_entries(gram)
    targets = [_check_problem(K, y, C) for y in signs]
    # once per Gram, not once per class
    _check_finite(spec, K)
    _warn_if_indefinite(K)
    models = [_smo(K, spec, y, C) for y in targets]
    return MulticlassModel(models=models, classes=classes)


def one_vs_rest_predict(mc: MulticlassModel, kernel_row: np.ndarray):
    """Predict from a full kernel row vs. the training set (length M).

    Highest decision value wins; ties break to the lowest class index.
    """
    kernel_row = np.asarray(kernel_row, dtype=float)
    scores = [svm_predict(m, kernel_row[m.support_ids]) for m in mc.models]
    return mc.classes[int(np.argmax(scores))]


def knn_predict(train_features, train_labels, x, k: int, metric):
    """Majority vote among the k nearest training points.

    Ties break by smaller mean distance among tied classes, then by lowest
    label; fully deterministic.
    """
    if len(train_features) == 0:
        raise ValueError("empty training set")
    if k < 1 or k > len(train_features):
        raise ValueError("k out of range")
    dists = np.array([metric(x, f) for f in train_features])
    order = np.argsort(dists, kind="stable")[:k]
    votes = {}
    for idx in order:
        lab = train_labels[idx]
        cnt, dsum = votes.get(lab, (0, 0.0))
        votes[lab] = (cnt + 1, dsum + dists[idx])
    ranked = sorted(votes.items(), key=lambda kv: (-kv[1][0], kv[1][1] / kv[1][0], str(kv[0])))
    return ranked[0][0]


def dump_model(model: SvmModel, path) -> None:
    """Plain-text dump: header lines, then one `index,coefficient` line per
    support vector."""
    with open(path, "w") as fh:
        kind = model.spec.kind if model.spec is not None else "none"
        params = model.spec.params if model.spec is not None else {}
        fh.write(f"kernel={kind}\n")
        fh.write("params=" + ",".join(f"{k}:{v!r}" for k, v in sorted(params.items())) + "\n")
        fh.write(f"C={model.C!r}\n")
        fh.write(f"bias={model.bias!r}\n")
        for idx, coef in zip(model.support_ids, model.support_coeffs):
            fh.write(f"{int(idx)},{float(coef)!r}\n")


def load_model(path) -> SvmModel:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = dict(ln.split("=", 1) for ln in lines[:4])
    kind = header["kernel"]
    spec = None
    if kind != "none":
        params = {}
        if header["params"]:
            for item in header["params"].split(","):
                k, v = item.split(":", 1)
                params[k] = ast.literal_eval(v)
        spec = KernelSpec(kind=kind, params=params)
    ids, coeffs = [], []
    for ln in lines[4:]:
        if not ln:
            continue
        i, c = ln.split(",")
        ids.append(int(i))
        coeffs.append(float(c))
    return SvmModel(
        support_coeffs=np.array(coeffs),
        support_ids=np.array(ids, dtype=int),
        bias=float(header["bias"]),
        spec=spec,
        C=float(header["C"]),
    )
