"""Univariate Hermite functions and the localized kernel built from them.

The kernel is a finite even expansion sum_l c_l * psi_{2l}(x) whose
coefficients depend on a bandwidth N, a dimension parameter q and a smooth
cutoff. Evaluation goes through Clenshaw summation; a direct
coefficient-times-basis evaluator is kept alongside as a cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

__all__ = [
    "LocalizedKernelSpec",
    "cutoff",
    "localized_degree",
    "build_localized_kernel",
    "eval_localized",
    "eval_localized_direct",
]

_PI_QUARTER = math.pi ** (-0.25)


def _hermite_values(k_max: int, x):
    """Orthonormal Hermite polynomials h_0..h_{k_max} at x (scalar or array).

    Upward three-term recurrence:
        h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2}
    with h_0 = pi^{-1/4}, h_1 = sqrt(2) pi^{-1/4} x.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((k_max + 1,) + x.shape, dtype=float)
    out[0] = _PI_QUARTER
    if k_max >= 1:
        out[1] = math.sqrt(2.0) * _PI_QUARTER * x
    for k in range(2, k_max + 1):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] - math.sqrt((k - 1) / k) * out[k - 2]
    return out


def _psi_values(k_max: int, x):
    """Hermite functions psi_k(x) = h_k(x) exp(-x^2/2), k = 0..k_max, at x
    (scalar or array)."""
    x = np.asarray(x, dtype=float)
    return _hermite_values(k_max, x) * np.exp(-x * x / 2.0)


def cutoff(t: float) -> float:
    """Smooth cutoff: 1 on [0,1/2], 0 on [1,inf), C-infinity bump in between."""
    t = float(t)
    if t < 0:
        raise ValueError("cutoff argument must be nonnegative")
    if t <= 0.5:
        return 1.0
    if t >= 1.0:
        return 0.0
    g_up = math.exp(-1.0 / (2.0 - 2.0 * t))
    g_dn = math.exp(-1.0 / (2.0 * t - 1.0))
    return g_up / (g_up + g_dn)


@dataclass(frozen=True)
class LocalizedKernelSpec:
    """Precomputed even-expansion coefficients of the localized kernel.

    coeffs[l] multiplies psi_{2l}; there are floor(N^2/2)+1 of them, so the
    polynomial degree of the expansion is 2*floor(N^2/2).
    """

    N: float
    q: int
    gamma: float
    coeffs: np.ndarray = field(repr=False)

    @property
    def degree(self) -> int:
        return 2 * (len(self.coeffs) - 1)


def localized_degree(N: float, q: int) -> int:
    """Polynomial degree 2*floor(N^2/2) of the localized kernel with
    bandwidth N and dimension parameter q. Raises ValueError for N < 1 or
    q < 1, as `build_localized_kernel` does."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if q < 1:
        raise ValueError("q must be a positive integer")
    return 2 * int(math.floor(N * N / 2.0))


def build_localized_kernel(N: float, q: int, gamma: float = 0.8) -> LocalizedKernelSpec:
    """Precompute the psi_{2l} coefficients of the localized kernel.

    For q >= 2 the coefficient of psi_{2l} is
        (pi^{-(q-1)/2}/Gamma((q-1)/2)) * sum_{m=l}^{L} H(sqrt(2m)/N)
            * Gamma((q-1)/2 + m - l)/(m-l)!  * psi_{2l}(0),
    with L = floor(N^2/2). For q = 1 it collapses to H(sqrt(2l)/N)*psi_{2l}(0).
    The prefactor is fixed so the expansion equals the defining sum of
    cutoff-weighted P_{m,q} terms exactly.
    """
    L = localized_degree(N, q) // 2
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    psi0 = _psi_values(2 * L, 0.0)  # psi_{2l}(0) carries the (-1)^l sign
    h_vals = np.array([cutoff(math.sqrt(2.0 * m) / N) for m in range(L + 1)])
    coeffs = np.empty(L + 1)
    if q == 1:
        for ell in range(L + 1):
            coeffs[ell] = h_vals[ell] * psi0[2 * ell]
    else:
        a = (q - 1) / 2.0
        prefactor = math.pi ** (-(q - 1) / 2.0) / math.gamma(a)
        for ell in range(L + 1):
            ms = np.arange(ell, L + 1)
            w = np.exp(gammaln(a + ms - ell) - gammaln(ms - ell + 1))
            coeffs[ell] = prefactor * float(np.dot(h_vals[ell:], w)) * psi0[2 * ell]
    return LocalizedKernelSpec(N=float(N), q=int(q), gamma=float(gamma), coeffs=coeffs)


def eval_localized(spec: LocalizedKernelSpec, x):
    """Evaluate the localized kernel at x (scalar or array) by Clenshaw.

    The even expansion is run through the full psi_k three-term recurrence
    with zero odd coefficients:
        psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1}.
    Each step forms b_k = (a_k x) b_{k+1} + c_k + beta_{k+1} b_{k+2} in three
    buffers that rotate, so no step allocates.
    """
    x_arr = np.asarray(x, dtype=float)
    n = spec.degree
    full = np.zeros(n + 1)
    full[::2] = spec.coeffs
    b1 = np.zeros_like(x_arr)
    b2 = np.zeros_like(x_arr)
    t = np.empty_like(x_arr)
    for k in range(n, -1, -1):
        np.multiply(x_arr, math.sqrt(2.0 / (k + 1)), out=t)
        t *= b1
        t += full[k]
        b2 *= -math.sqrt((k + 1) / (k + 2))
        t += b2
        b1, b2, t = t, b1, b2
    # b1 * pi^{-1/4} * exp(-x^2 / 2), in t
    np.negative(x_arr, out=t)
    t *= x_arr
    t /= 2.0
    np.exp(t, out=t)
    b1 *= _PI_QUARTER
    b1 *= t
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(b1)
    return b1


def eval_localized_direct(spec: LocalizedKernelSpec, x):
    """Direct coefficient-times-psi summation; cross-check for Clenshaw."""
    x_arr = np.asarray(x, dtype=float)
    psis = _psi_values(spec.degree, x_arr)
    result = np.tensordot(spec.coeffs, psis[::2], axes=(0, 0))
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result
