"""Univariate Hermite functions and the localized kernel built from them.

The kernel is a finite even expansion Phi(x) = sum_{l=0}^{L} c_l psi_{2l}(x),
psi_k = h_k e^{-x^2/2} with h_k the orthonormal Hermite polynomials, whose
coefficients depend on a bandwidth N, a dimension parameter q and a smooth
cutoff. Evaluation goes through Clenshaw summation; a direct
coefficient-times-basis evaluator is kept alongside as a cross-check.

Even-only recurrence. With p_l = h_{2l} and t = x^2, two steps of the h_k
recurrence fuse into
    p_{l+1} = alpha_l(t) p_l + beta_l p_{l-1},
    alpha_l = (2t - (4l+1)) / sqrt((2l+1)(2l+2)),
    beta_l = -sqrt(2l(2l-1) / ((2l+1)(2l+2))),
so Clenshaw's b_l = alpha_l b_{l+1} + beta_{l+1} b_{l+2} + c_l sums
sum_l c_l p_l = pi^{-1/4} b_0 in L+1 steps, not the 2L+1 of the full psi_k
recurrence with zero odd coefficients.

Gaussian split. Phi = pi^{-1/4} e^{-t/2} b_0, but b_0 grows like e^{t/2} and
overflows for N >= 24 at x near 40, where e^{-t/2} is already subnormal.
Carrying all of e^{-t/2} in the coefficients instead makes the c_l e^{-t/2}
subnormal from x = 37.6, and they lose digits where Phi still depends on
them. So g = e^{-t/4} goes into the recurrence (each step adds c_l g) and
the other e^{-t/4} multiplies b_0 at the end.

Rescaling. Past N of about 37, g b can still leave the float range near
x = 53, and g is subnormal for t in (2832, 2981) and 0 beyond. So a point
whose g is below the least normal float starts at g = 2^512 e^{-t/4} (one
exp), and the step table (`LocalizedKernelSpec._steps`) bounds max|b| step by
step from |c_l|, |beta_{l+1}| and the largest |alpha_l(t)| on [0, _T_MAX],
with g <= 1. Where that bound could pass 2^1020 it places a check, which
multiplies b_{l+1}, b_{l+2} and g by 2^-512 at every point where a |b|
exceeds 2^512. So no intermediate passes 2^1020. A point scaled k times
(k = -1 for the raised start), with b_0 = m 2^e, ends as
pi^{-1/4} m exp((e + 512 k) ln 2 - t/4). Every other point gets exactly the
plain split recurrence: rescales start past x = 45 at N = 32, and the raised
start past x = 53.2 at any N.

Clamp. t is clamped to _T_MAX = 4480 (|x| = 66.9). For t >= 4480,
2^512 e^{-t/4} <= e^{354.9 - 1120} < 2^-1103, far below half the least
subnormal (2^-1075), so both the plain and the raised g are exactly 0; then
every c_l g is 0, the b_l stay 0 (alpha_l is finite for finite t) and the
result is 0 whether t is clamped or not. The clamp only sends t = inf (|x|
above about 1.34e154, where x^2 overflows) to that same 0 instead of
inf * 0 = NaN, and np.minimum keeps a NaN t NaN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "LocalizedKernelSpec",
    "cutoff",
    "localized_degree",
    "build_localized_kernel",
    "eval_localized",
    "eval_localized_direct",
]

_PI_QUARTER = math.pi ** (-0.25)
# See "Rescaling" and "Clamp" in the module docstring.
_T_MAX = 4480.0
_RESCALE_BITS = 512
_RESCALE_AT = 2.0 ** _RESCALE_BITS
_B_LIMIT = 2.0 ** 1020
_TINY = np.finfo(float).tiny
# Most points in one Clenshaw pass of `eval_localized`. Its five buffers of
# 2^14 points take 640 KiB; on a 2-core x86 machine 1.84 M points took 157 ms
# in such chunks against 396 ms in one pass, and 18,528 points 1.7 against
# 2.2 ms in two chunks.
_CHUNK_POINTS = 2**14
# See `_psi_values`.
_PSI_X_MAX = 2.0 ** 20


def _psi_values(k_max: int, x):
    """Hermite functions psi_k(x) = h_k(x) exp(-x^2/2), k = 0..k_max, at x
    (scalar or array), with the Gaussian carried inside the recurrence.

    The start psi_0 = pi^{-1/4} e^{-x^2/2} is split as pi^{-1/4} 2^f times
    2^e, with e the integer nearest to log2 e^{-x^2/2} and |f| <= 1/2, so no
    point starts subnormal or at 0 (e^{-x^2/2} alone is subnormal from
    |x| = 37.6 and 0 from 38.6, where the h_k of a high degree overflow).
    |x| is clamped to _PSI_X_MAX first: past it every psi_k of a degree
    below 2^30 is exactly 0 in floating point, at x and at the clamp
    (log2 of the start is below -7.9e11, and each step multiplies by at most
    2^21), so the clamp only keeps x^2 and the steps finite. Every localized
    kernel's degree is below 2^30 (`localized_degree`).
    """
    x = np.clip(np.asarray(x, dtype=float), -_PSI_X_MAX, _PSI_X_MAX)  # NaN stays NaN
    log2_gauss = x * x * (-0.5 / math.log(2.0))
    e = np.rint(log2_gauss)
    start = _PI_QUARTER * np.exp2(log2_gauss - e)
    # a NaN point's exponent is never used: its values are NaN
    return _scaled_recurrence(k_max, x, start, np.nan_to_num(e).astype(np.int64))


def _even_psi_at_zero(L: int) -> list:
    """psi_0(0), psi_2(0), ..., psi_{2L}(0) as floats: at x = 0 the
    recurrence of `_scaled_recurrence` is psi_k = -sqrt((k-1)/k) psi_{k-2},
    and this loop gives its values bitwise."""
    values = [_PI_QUARTER]
    for k in range(2, 2 * L + 1, 2):
        values.append(-math.sqrt((k - 1) / k) * values[-1])
    return values


def _scaled_recurrence(k_max: int, x, start, exponent):
    """v_0..v_{k_max} of the orthonormal Hermite recurrence
        v_k = sqrt(2/k) x v_{k-1} - sqrt((k-1)/k) v_{k-2},  v_{-1} = 0,
    from v_0 = start 2^exponent (an integer array of x's shape).

    The recurrence runs on v_k 2^-E with a per-point integer E, which starts
    at `exponent` and grows by 512 at every point whose |v_k 2^-E| passes
    2^512 (that value and the one before it are multiplied by 2^-512, which
    is exact unless the one before becomes subnormal, and it is then
    negligible). Each v_k is returned as ldexp(v_k 2^-E, E): it overflows
    to inf or underflows to 0 only where v_k itself leaves the float range.
    """
    out = np.empty((k_max + 1,) + x.shape, dtype=float)
    E = exponent.copy()
    prev, cur = np.zeros_like(start), start
    out[0] = np.ldexp(cur, E)
    for k in range(1, k_max + 1):
        prev, cur = cur, math.sqrt(2.0 / k) * x * cur - math.sqrt((k - 1) / k) * prev
        over = np.abs(cur) > _RESCALE_AT
        if over.any():
            factor = np.where(over, 1.0 / _RESCALE_AT, 1.0)
            cur *= factor
            prev *= factor
            E += _RESCALE_BITS * over
        out[k] = np.ldexp(cur, E)
    return out


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
    coeffs: np.ndarray = field(repr=False)

    @property
    def degree(self) -> int:
        return 2 * (len(self.coeffs) - 1)

    @cached_property
    def _steps(self) -> tuple:
        """The Clenshaw steps of `eval_localized`, l = L down to 0: (a_l,
        s_l, beta_{l+1}, c_l, check) with alpha_l(t) = a_l t - s_l, and
        check true where a rescale must come first.

        a_l, s_l, beta_{l+1} and c_l are read-only 0-d float64 arrays, made
        once here: a ufunc takes a 0-d array as it is, while a Python float
        operand is converted again on every call, and `_clenshaw` makes
        seven calls a step. Their values are the float formulas', so every
        product is bitwise the same.

        A check goes wherever a bound on max(|b_{l+1}|, |b_{l+2}|), carried
        from the last check (after which it is 2^512) with g <= 1 and
        t in [0, _T_MAX], would pass 2^1020 at step l. The bound is carried
        in floats.
        """
        steps, bound = [], 0.0
        for ell in range(len(self.coeffs) - 1, -1, -1):
            r = 1.0 / math.sqrt((2 * ell + 1) * (2 * ell + 2))
            a, shift = 2.0 * r, (4 * ell + 1) * r
            beta = -math.sqrt((2 * ell + 1) * (2 * ell + 2) / ((2 * ell + 3) * (2 * ell + 4)))
            c = float(self.coeffs[ell])
            growth = max(a * _T_MAX - shift, shift) - beta
            check = abs(c) + growth * bound > _B_LIMIT
            if check:
                bound = _RESCALE_AT
            bound = max(bound, abs(c) + growth * bound)
            steps.append((*map(_operand, (a, shift, beta, c)), check))
        return tuple(steps)


def _operand(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array, a ufunc operand that needs
    no conversion."""
    out = np.array(value, dtype=np.float64)
    out.flags.writeable = False
    return out


def localized_degree(N: float, q: int) -> int:
    """Polynomial degree 2*floor(N^2/2) of the localized kernel with
    bandwidth N and dimension parameter q. Raises ValueError for an N that
    is below 1 or not finite, for N^2 >= 2^30 (degrees from 2^30 on are
    outside the range `_psi_values`' clamp is proven for), or for q < 1, as
    `build_localized_kernel` does."""
    if not 1 <= N < math.inf:  # NaN fails both comparisons
        raise ValueError(f"N must be >= 1 and finite, got {N}")
    if N * N >= 2.0 ** 30:
        raise ValueError(f"N must have N^2 < 2^30, got {N}")
    if q < 1:
        raise ValueError("q must be a positive integer")
    return 2 * int(math.floor(N * N / 2.0))


def build_localized_kernel(N: float, q: int) -> LocalizedKernelSpec:
    """Precompute the psi_{2l} coefficients of the localized kernel.

    For q >= 2 the coefficient of psi_{2l} is
        (pi^{-(q-1)/2}/Gamma((q-1)/2)) * sum_{m=l}^{L} H(sqrt(2m)/N)
            * Gamma((q-1)/2 + m - l)/(m-l)!  * psi_{2l}(0),
    with L = floor(N^2/2). For q = 1 it collapses to H(sqrt(2l)/N)*psi_{2l}(0).
    The prefactor is fixed so the expansion equals the defining sum of
    cutoff-weighted P_{m,q} terms exactly. The Gamma-ratio weights
    w_k = Gamma(a + k)/k!, a = (q-1)/2, depend on m - l only; they come from
    w_0 = Gamma(a) and w_k = w_{k-1} (a + k - 1)/k, one cumulative product,
    and the tails sum_k H(sqrt(2(l+k))/N) w_k for every l are one
    correlation of the cutoff values with them. For N up to 50 and q up to
    30 the coefficients are within 4 max(degree, 1) eps max_l |c_l| of the
    exact sum, which the tests take at 40 digits.
    The expansion does not depend on the scale at which the kernel reads
    distances; that scale is the `KernelSpec`'s gamma.
    """
    L = localized_degree(N, q) // 2
    psi0 = np.array(_even_psi_at_zero(L))  # psi_{2l}(0) carries the (-1)^l sign
    h_vals = np.array([cutoff(math.sqrt(2.0 * m) / N) for m in range(L + 1)])
    if q == 1:
        coeffs = h_vals * psi0
    else:
        a = (q - 1) / 2.0
        prefactor = math.pi ** (-(q - 1) / 2.0) / math.gamma(a)
        k = np.arange(1, L + 1)
        w = np.cumprod(np.concatenate(([math.gamma(a)], (a + k - 1) / k)))
        coeffs = prefactor * np.correlate(h_vals, w, "full")[L:] * psi0
    return LocalizedKernelSpec(N=float(N), q=int(q), coeffs=coeffs)


def eval_localized(spec: LocalizedKernelSpec, x):
    """Evaluate the localized kernel at x (scalar or array) by Clenshaw.

    A float for scalar input, an array of x's shape otherwise. The pass runs
    over the L+1 even terms only, in t = x^2 (see the module docstring), and
    forms each b_l = alpha_l(t) b_{l+1} + beta_{l+1} b_{l+2} + c_l g in three
    buffers that rotate, so no step allocates. n points are evaluated in
    ceil(n / _CHUNK_POINTS) near-equal chunks, one pass each; every point's
    arithmetic is its own, so the values are bitwise those of one pass.
    Finite for every N and every finite x; NaN input gives NaN.
    """
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.ravel()
    n = flat.size
    chunks = max(1, -(-n // _CHUNK_POINTS))
    out = np.empty(n)
    for k in range(chunks):
        lo, hi = k * n // chunks, (k + 1) * n // chunks
        out[lo:hi] = _clenshaw(spec, flat[lo:hi])
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


def _clenshaw(spec: LocalizedKernelSpec, x_arr: np.ndarray) -> np.ndarray:
    """`eval_localized` at each point of the 1-D array x_arr, in one pass.

    Each step is seven in-place ufunc calls on three rotating buffers, with
    the step's constants taken as the 0-d operands of `spec._steps`."""
    t = np.empty_like(x_arr)
    with np.errstate(over="ignore"):  # x^2 = inf is clamped next
        np.multiply(x_arr, x_arr, out=t)
    np.minimum(t, _T_MAX, out=t)  # NaN stays NaN
    g = np.multiply(t, -0.25, out=np.empty_like(t))
    np.exp(g, out=g)
    # per-point count of 2^-512 rescales, made once one happens; a point
    # whose e^{-t/4} is subnormal or 0 starts one rescale up, at -1
    halvings = None
    low = g < _TINY
    if low.any():
        halvings = -low.astype(np.int64)
        g[low] = np.exp(_RESCALE_BITS * math.log(2.0) - t[low] / 4.0)
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    tmp = np.empty_like(t)
    for a, shift, beta, c, check in spec._steps:
        if check:
            halvings = _rescale(b1, b2, g, tmp, halvings)
        np.multiply(t, a, out=tmp)
        tmp -= shift
        tmp *= b1
        b2 *= beta
        tmp += b2
        np.multiply(g, c, out=b2)
        tmp += b2
        b1, b2, tmp = tmp, b1, b2
    scaled = None
    if halvings is not None:
        # b_0 2^(512 k) e^{-t/4} pi^{-1/4}, the power of two in the exponent
        scaled = low | (halvings != 0)
        mant, expo = np.frexp(b1[scaled])
        expo = expo + _RESCALE_BITS * halvings[scaled]
        scaled_values = _PI_QUARTER * mant * np.exp(expo * math.log(2.0) - t[scaled] / 4.0)
    b1 *= g
    b1 *= _PI_QUARTER
    if scaled is not None:
        b1[scaled] = scaled_values
    return b1


def _rescale(b1, b2, g, tmp, halvings):
    """Multiply b1, b2 and g by 2^-512 at every point where |b1| or |b2|
    exceeds 2^512, counting the rescales in `halvings` (made on first use).
    Exact unless a result is subnormal, which only the already negligible
    terms can be."""
    np.abs(b1, out=tmp)
    over = tmp > _RESCALE_AT
    np.abs(b2, out=tmp)
    over |= tmp > _RESCALE_AT
    if not over.any():
        return halvings
    if halvings is None:
        halvings = np.zeros(over.shape, dtype=np.int64)
    halvings += over
    factor = np.where(over, 1.0 / _RESCALE_AT, 1.0)
    b1 *= factor
    b2 *= factor
    g *= factor
    return halvings


def eval_localized_direct(spec: LocalizedKernelSpec, x):
    """Direct coefficient-times-psi summation; cross-check for Clenshaw."""
    x_arr = np.asarray(x, dtype=float)
    psis = _psi_values(spec.degree, x_arr)
    result = np.tensordot(spec.coeffs, psis[::2], axes=(0, 0))
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result
