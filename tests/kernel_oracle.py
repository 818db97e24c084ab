"""Reference bodies that the kernel layer replaced, kept as oracles: the
scalar per-pair kernels and the per-pair Psi sum, the allocating Clenshaw
pass and a 50-digit sum of the localized kernel's expansion, the full Gram
symmetrised after the fact, the two-pass error profile,
the minimal separation from the full distance matrix, the per-pair k-NN
vote, the `eigvalsh`-only indefiniteness test, and the STFT frames cut one
by one.
"""
from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

from lockern.hermite import _T_MAX, LocalizedKernelSpec, eval_localized
from lockern.kernels import DiscreteQuadrature, KernelSpec, _sq_dists, _stack, cross_gram

PI_QUARTER = math.pi ** (-0.25)


def pair_oracle(spec: KernelSpec):
    """k(a, b) of one pair by the scalar formula of its kind, every parameter
    from spec.params, nothing validated: Grassmann and the SVD kernels take
    objects with `U` (and `S`), the flat kinds take vectors."""
    p = spec.params

    def diff(a, b):
        return np.asarray(a, float).ravel() - np.asarray(b, float).ravel()

    def k(a, b):
        if spec.kind == "grassmann":
            # squared projection distance, round-off clamped as in the library
            d = a.U.shape[1] - float(np.linalg.norm(a.U.T @ b.U) ** 2)
            return math.exp(-p["gamma"] * (0.0 if abs(d) < 1e-12 else max(d, 0.0)))
        if spec.kind == "laplace_svd":
            dU, dS = np.linalg.norm(diff(a.U, b.U)), np.linalg.norm(diff(a.S, b.S))
            return math.exp(-p["alpha"] * dU - p["beta"] * dS)
        if spec.kind == "gaussian_svd":
            dU, dS = np.linalg.norm(diff(a.U, b.U)), np.linalg.norm(diff(a.S, b.S))
            return math.exp(-p["alpha"] * dU ** 2 - p["beta"] * dS ** 2)
        if spec.kind == "euclidean_rbf":
            return math.exp(-p["gamma"] * float(np.sum(diff(a, b) ** 2)))
        loc = spec.localized
        return float(eval_localized(loc, loc.gamma * np.linalg.norm(diff(a, b))))

    return k


def psi_oracle(spec: KernelSpec, quad: DiscreteQuadrature, x, y) -> float:
    """Discrete Psi(x, y) = sum_z w_z f0(z) k(x, z) k(y, z), one `pair_oracle`
    value per node."""
    k = pair_oracle(spec)
    kx = np.array([k(x, z) for z in quad.nodes])
    ky = np.array([k(y, z) for z in quad.nodes])
    return float(np.sum(quad.weights * quad.density_f0 * kx * ky))


def clenshaw_oracle(spec: LocalizedKernelSpec, x):
    """eval_localized without its buffers or rescales: the even-only
    Clenshaw pass in t = x^2 with a new array for every term of every step,
        b_l = alpha_l b_{l+1} + beta_{l+1} b_{l+2} + c_l e^{-t/4},
    alpha_l = (2t - (4l+1)) / sqrt((2l+1)(2l+2)),
    beta_l = -sqrt(2l(2l-1) / ((2l+1)(2l+2))),
    then b_0 e^{-t/4} pi^{-1/4}."""
    x_arr = np.asarray(x, dtype=float)
    t = np.minimum(x_arr * x_arr, _T_MAX)
    g = np.exp(t * -0.25)
    b1 = np.zeros_like(x_arr)
    b2 = np.zeros_like(x_arr)
    for ell in range(len(spec.coeffs) - 1, -1, -1):
        r = 1.0 / math.sqrt((2 * ell + 1) * (2 * ell + 2))
        alpha = t * (2.0 * r) - (4 * ell + 1) * r
        beta_next = -math.sqrt((2 * ell + 1) * (2 * ell + 2) / ((2 * ell + 3) * (2 * ell + 4)))
        b1, b2 = alpha * b1 + beta_next * b2 + g * spec.coeffs[ell], b1
    result = b1 * g * PI_QUARTER
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result


MP_DIGITS = 50


@lru_cache(maxsize=None)
def _mp_steps(degree: int) -> tuple:
    """(sqrt(2/k), sqrt((k-1)/k)) for k = 1..degree, at MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        return tuple((mpmath.sqrt(mpmath.mpf(2) / k), mpmath.sqrt(mpmath.mpf(k - 1) / k))
                     for k in range(1, degree + 1))


@lru_cache(maxsize=None)
def _mp_even_psi(degree: int, x: float) -> tuple:
    """psi_0(x), psi_2(x), ..., psi_degree(x) at MP_DIGITS digits, from the
    full three-term recurrence of the orthonormal h_k (odd ones included)
    times exp(-x^2/2)."""
    with mpmath.workdps(MP_DIGITS):
        xm = mpmath.mpf(x)
        prev, h = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25)
        even = [h]
        for k, (a, b) in enumerate(_mp_steps(degree), 1):
            prev, h = h, a * xm * h - b * prev
            if k % 2 == 0:
                even.append(h)
        gauss = mpmath.exp(-xm * xm / 2)
        return tuple(v * gauss for v in even)


def mpmath_oracle(spec: LocalizedKernelSpec, x: float) -> float:
    """Phi(x) = sum_l c_l psi_{2l}(x) at MP_DIGITS digits from the same
    float64 coefficients, rounded once to float."""
    psi = _mp_even_psi(spec.degree, float(x))
    with mpmath.workdps(MP_DIGITS):
        return float(mpmath.fsum(mpmath.mpf(float(c)) * p for c, p in zip(spec.coeffs, psi)))


def full_gram_oracle(spec: KernelSpec, points) -> np.ndarray:
    """Every entry evaluated, then 0.5 * (C + C')."""
    C = cross_gram(spec, points, points)
    return 0.5 * (C + C.T)


def distances(A, B) -> np.ndarray:
    """Euclidean distances between the (flattened) points of A and of B, as
    a full matrix."""
    XA = _stack([np.ravel(a) for a in A])
    XB = _stack([np.ravel(b) for b in B])
    return np.sqrt(_sq_dists(XA, XB))


def error_profile_oracle(model, probes):
    """(model values, nearest-node distances) in probe order, from two
    distance passes."""
    values = cross_gram(model.spec, probes, model.nodes) @ model.coeffs
    delta = distances(probes, model.nodes).min(axis=1)
    return values, delta


def minimal_separation_oracle(points) -> float:
    """The least entry above the diagonal of the full distance matrix."""
    d = distances(points, points)
    return float(d[np.triu_indices(len(points), 1)].min())


def knn_oracle(train, labels, x, k):
    """The k-NN vote of acceptance criterion 12: one `np.linalg.norm` per
    pair, a sort on (distance, index), ties by mean distance, then label."""
    def metric(a, b):
        return float(np.linalg.norm(a - b))

    dists = sorted(range(len(train)), key=lambda i: (metric(x, train[i]), i))[:k]
    votes = {}
    for i in dists:
        cnt, total = votes.get(labels[i], (0, 0.0))
        votes[labels[i]] = (cnt + 1, total + metric(x, train[i]))
    ranked = sorted(
        votes.items(), key=lambda kv: (-kv[1][0], kv[1][1] / kv[1][0], str(kv[0]))
    )
    return ranked[0][0]


def indefinite_oracle(K: np.ndarray) -> bool:
    """Whether the full-spectrum test warns."""
    return bool(np.linalg.eigvalsh(K)[0] < -1e-3 * np.trace(K) / len(K))


def stft_oracle(signal, window, hop: int, fft_size: int) -> np.ndarray:
    """`stft(...).data` with one sliced frame per list item."""
    signal = np.asarray(signal)
    window = np.asarray(window, dtype=float)
    win = len(window)
    n_frames = (len(signal) - win) // hop + 1
    frames = np.stack([signal[t * hop : t * hop + win] * window for t in range(n_frames)])
    return np.abs(np.fft.fft(frames, n=fft_size, axis=1)).T
