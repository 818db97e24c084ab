"""Kernel classifiers: soft-margin SVM trained by pairwise dual decomposition
with greedy most-violating-pair selection, a one-vs-rest multiclass wrapper,
and a deterministic k-nearest-neighbor vote.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix, _check_finite, _flat_rows, _sq_dists

__all__ = [
    "SvmModel",
    "MulticlassModel",
    "label_indicators",
    "svm_train_binary",
    "one_vs_rest_train",
    "one_vs_rest_predict",
    "knn_predict",
]

KKT_TOL = 1e-3
MAX_PAIR_UPDATES = 10**6


@dataclass(frozen=True)
class SvmModel:
    support_coeffs: np.ndarray  # alpha_i * y_i for support vectors
    support_ids: np.ndarray  # indices into the training set
    bias: float
    # the solve's report; a model built by hand keeps these defaults
    iterations: int = 0  # pair updates made
    kkt_gap: float = 0.0  # max violation yg[i] - yg[j] when the solve stopped
    converged: bool = True  # kkt_gap < KKT_TOL, not stopped at the update cap


@dataclass(frozen=True)
class MulticlassModel:
    models: list  # one binary SvmModel per class, one-vs-rest
    classes: list

    def support_union(self) -> np.ndarray:
        """The training samples that are a support vector of at least one
        class, in increasing order: the kernel columns prediction reads."""
        return np.unique(np.concatenate([m.support_ids for m in self.models]))


def label_indicators(labels):
    """Signed class-membership targets: row c is +1 where the label equals
    classes[c] and -1 elsewhere, with classes the sorted distinct labels.
    Returns (classes, indicator matrix)."""
    labels = np.asarray(labels)
    classes = sorted(np.unique(labels).tolist())
    signs = np.where(labels[None, :] == np.asarray(classes)[:, None], 1.0, -1.0)
    return classes, signs


def _gram_entries(gram: GramMatrix | np.ndarray):
    """(entries, spec) of a GramMatrix or a plain square array."""
    if isinstance(gram, GramMatrix):
        return np.asarray(gram.entries, dtype=float), gram.spec
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
    if not 0.0 < C < np.inf:  # NaN fails both comparisons
        raise ValueError(f"C must be positive and finite, got {C}")
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
    return _solve(gram, [labels], C)[0]


def _solve(gram: GramMatrix | np.ndarray, targets, C: float) -> list:
    """One SvmModel per row of `targets`, each a +-1 labelling of the
    Gram's samples, solved on the one Gram: every target is checked first,
    then the Gram, once, for a non-finite entry and for indefiniteness, and
    its columns are laid out once for every solve."""
    K, spec = _gram_entries(gram)
    targets = [_check_problem(K, y, C) for y in targets]
    _check_finite(spec, K)
    _warn_if_indefinite(K)
    cols = _column_rows(K)
    return [_smo(K, cols, y, C) for y in targets]


def _column_rows(K: np.ndarray) -> list:
    """Row views of one signed column table, 2M^2 floats: row i is
    [K[:, i], -K[:, i]], contiguous. The table is [K, -K] when K is C-ordered
    and bitwise symmetric, as every Gram of `kernels.gram` is; otherwise
    [K.T, -K.T] from one contiguous copy of K.T. One table serves every
    class solved on the Gram; its right half is negated in place, so no
    M x M temporary -K is made."""
    bits = K.view(np.uint64)
    if not (K.flags.c_contiguous and np.array_equal(bits, bits.T)):
        K = np.ascontiguousarray(K.T)
    table = np.concatenate([K, K], axis=1)
    np.negative(table[:, len(K):], out=table[:, len(K):])
    return list(table)


def _smo(K: np.ndarray, cols: list, y: np.ndarray, C: float) -> SvmModel:
    """The dual solve of `_solve` on validated inputs; cols[i] is
    [K[:, i], -K[:, i]] (`_column_rows`).

    Carries yg = -y * grad, with grad the gradient of the dual objective
    1/2 a'Qa - 1'a and Q = K * yy'. As y is +-1, Q[:, i] * y_i = y * K[:, i]
    exactly, so a pair update is yg -= step * (K[:, i] - K[:, j]) and Q is
    never formed. yg is held masked, as the two rows of H = [gu, -gl]: gu is
    yg on the up set and -gl is -yg on the low set, -inf outside each. With
    C > 0 every index is in one set or both, so its yg is read from a row
    where it is finite. One argmax per row gives i, the first maximum of gu,
    and j, the first minimum of gl. Negation is exact, so every value is
    the one that updating yg and masking it would give, and the gap gu[i] +
    (-gl)[j] is yg[i] - yg[j]. Only entries i and j can change set in an
    update. An update is three calls on the flat H: dd = cols[i] - cols[j],
    dd *= step and H -= dd, since (-a) - (-b) is exactly -(a - b), so the
    second half of dd is bitwise -(d * step) with d = K[:, i] - K[:, j].
    """
    M = len(y)
    diag = K.diagonal().tolist()
    ys = y.tolist()
    alpha = [0.0] * M
    tau = 1e-12
    # alpha = 0: yg = y, up set = {y > 0}, low set = {y < 0}
    H = np.where([y > 0, y < 0], 1.0, -np.inf)
    flat = H.reshape(-1)  # flat[i] is gu[i], flat[M + j] is -gl[j]
    dd = np.empty(2 * M)
    scale = np.empty(())  # the step, as a 0-d array: a faster multiplier than a float
    for iterations in range(MAX_PAIR_UPDATES):
        # first extremum over the masked set, as an argmax over that subset gives
        i, j = H.argmax(axis=1).tolist()
        gap = flat.item(i) + flat.item(M + j)
        if gap < KKT_TOL:
            break
        # curvature along the feasible pair direction (da_i, da_j) = (y_i, -y_j)t
        eta = diag[i] + diag[j] - 2.0 * K.item(i, j)
        if eta <= 0:
            eta = tau
        # move alpha_i up and alpha_j down along the equality constraint, by
        # min(gap / eta, max_i, max_j)
        yi, yj, ai, aj = ys[i], ys[j], alpha[i], alpha[j]
        max_i = C - ai if yi > 0 else ai
        max_j = aj if yj > 0 else C - aj
        step = gap / eta
        if max_i < step:
            step = max_i
        if max_j < step:
            step = max_j
        alpha[i] = ai = ai + yi * step
        alpha[j] = aj = aj - yj * step
        # H -= [d * step, -(d * step)], d the update direction K[:, i] - K[:, j]
        np.subtract(cols[i], cols[j], out=dd)
        scale[()] = step
        np.multiply(dd, scale, out=dd)
        np.subtract(flat, dd, out=flat)
        # i was in the up set and j in the low set, so gu[i] and -gl[j] are
        # finite; only i and j can have changed sets
        gi, gj = flat.item(i), -flat.item(M + j)
        if not (ai < C if yi > 0 else ai > 0):
            flat[i] = -np.inf
        flat[M + i] = -gi if (ai > 0 if yi > 0 else ai < C) else -np.inf
        flat[j] = gj if (aj < C if yj > 0 else aj > 0) else -np.inf
        if not (aj > 0 if yj > 0 else aj < C):
            flat[M + j] = -np.inf
    else:
        iterations = MAX_PAIR_UPDATES
    # yg equals the bias at free support vectors; an empty set counts as 0
    hi, neg_lo = H.max(axis=1).tolist()
    gap = hi + neg_lo
    converged = gap < KKT_TOL
    if not converged:
        warnings.warn(
            f"SMO stopped at the update cap MAX_PAIR_UPDATES={MAX_PAIR_UPDATES} "
            f"with KKT gap {gap:.3e} >= KKT_TOL={KKT_TOL:g}",
            RuntimeWarning,
        )
    bias = ((hi if hi > -np.inf else 0.0) + (-neg_lo if neg_lo > -np.inf else 0.0)) / 2.0

    alpha = np.array(alpha)
    sv = np.flatnonzero(alpha > 1e-12)
    return SvmModel(
        support_coeffs=alpha[sv] * y[sv],
        support_ids=sv,
        bias=float(bias),
        iterations=iterations,
        kkt_gap=gap,
        converged=converged,
    )


def one_vs_rest_train(gram: GramMatrix | np.ndarray, labels, C: float = 1.0) -> MulticlassModel:
    classes, signs = label_indicators(labels)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    return MulticlassModel(models=_solve(gram, signs, C), classes=classes)


def one_vs_rest_predict(mc: MulticlassModel, kernel_rows) -> list:
    """Labels of test samples from their kernel values against the support
    vectors: kernel_rows[k, c] is the kernel value of test sample k and
    training sample mc.support_union()[c]. One product per class scores
    every row; the highest decision value wins, and ties break to the lowest
    class index.
    """
    union = mc.support_union()
    K = np.asarray(kernel_rows, dtype=float)
    if K.ndim != 2 or K.shape[1] != len(union):
        raise ValueError(f"kernel rows must be an (n_test, {len(union)}) matrix, one "
                         f"column per support vector; got shape {K.shape}")
    scores = np.empty((len(mc.models), len(K)))
    for score, m in zip(scores, mc.models):
        np.add(K[:, np.searchsorted(union, m.support_ids)] @ m.support_coeffs, m.bias,
               out=score)
    return [mc.classes[c] for c in scores.argmax(axis=0).tolist()]


def knn_predict(train_features, train_labels, test_features, k: int) -> list:
    """Majority vote among the k nearest training points (Euclidean), one
    label per test vector. Each feature set is a sequence of same-shape
    arrays, each ravelled, or an (n, d) matrix of rows.

    Ties break by smaller mean distance among tied classes, then by lowest
    `str(label)`; fully deterministic.
    """
    n_train = len(train_features)
    if n_train == 0:
        raise ValueError("empty training set")
    if k < 1 or k > n_train:
        raise ValueError("k out of range")
    if len(test_features) == 0:
        return []
    X_train, X_test = _flat_rows(train_features), _flat_rows(test_features)
    if X_train.shape[1] != X_test.shape[1]:
        raise ValueError("feature shape mismatch")
    dists = np.sqrt(_sq_dists(X_test, X_train))
    preds = []
    for row, order in zip(dists, np.argsort(dists, axis=1, kind="stable")[:, :k]):
        votes = {}
        for idx in order:
            lab = train_labels[idx]
            cnt, dsum = votes.get(lab, (0, 0.0))
            votes[lab] = (cnt + 1, dsum + row[idx])
        ranked = sorted(votes.items(), key=lambda kv: (-kv[1][0], kv[1][1] / kv[1][0], str(kv[0])))
        preds.append(ranked[0][0])
    return preds
