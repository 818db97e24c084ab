"""The SMO pair-update loop that `classify._smo` replaced, kept as its
oracle: the signed gradient yg and its masked copies gu and gl as three rows
of one array, the update read from the columns of K, and an argmax and an
argmin per update. The library's two-row loop must give bitwise the same
support coefficients, support ids, bias, update count and KKT gap. The update cap is read from
`classify` at call time, so a test can lower it. Also the decision value of
one sample, the per-row oracle of `classify.one_vs_rest_predict`.
"""
from __future__ import annotations

import warnings

import numpy as np

from lockern import classify
from lockern.classify import KKT_TOL, SvmModel


def smo_loop_oracle(K: np.ndarray, y: np.ndarray, C: float):
    """The dual solve of svm_train_binary as the three-row loop wrote it.

    Carries yg = -y * grad, with grad the gradient of the dual objective
    1/2 a'Qa - 1'a and Q = K * yy'. As y is +-1, Q[:, i] * y_i = y * K[:, i]
    exactly, so a pair update is yg -= step * (K[:, i] - K[:, j]) and Q is
    never formed. gu and gl are yg masked to the up and low sets (-inf and
    +inf elsewhere); only entries i and j can change set in an update.
    Returns (support coefficients, support ids, bias, pair updates made,
    KKT gap max(gu) - min(gl) when the loop stopped).
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
    for iterations in range(classify.MAX_PAIR_UPDATES):
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
        iterations = classify.MAX_PAIR_UPDATES
        gap = float(gu.max() - gl.min())
        if gap >= KKT_TOL:
            warnings.warn(
                f"SMO stopped at the update cap MAX_PAIR_UPDATES={classify.MAX_PAIR_UPDATES} "
                f"with KKT gap {gap:.3e} >= KKT_TOL={KKT_TOL:g}",
                RuntimeWarning,
            )
    alpha = np.array(alpha)
    # yg equals the bias at free support vectors; an empty set counts as 0
    hi, lo = gu.max(), gl.min()
    bias = ((hi if hi > -np.inf else 0.0) + (lo if lo < np.inf else 0.0)) / 2.0

    sv = np.flatnonzero(alpha > 1e-12)
    return alpha[sv] * y[sv], sv, float(bias), iterations, float(hi - lo)


def svm_predict(model: SvmModel, gram_row) -> float:
    """Decision value for one sample given its kernel values vs. the support
    set (ordered as model.support_ids)."""
    gram_row = np.asarray(gram_row, dtype=float)
    if gram_row.shape != model.support_coeffs.shape:
        raise ValueError("kernel row length must match support set")
    return float(np.dot(model.support_coeffs, gram_row) + model.bias)
