import math
import re
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import clenshaw_oracle, coeffs_oracle, hermite_oracle, mpmath_oracle

from lockern import hermite
from lockern.hermite import (
    _RESCALE_BITS,
    _T_MAX,
    _psi_values,
    build_localized_kernel,
    cutoff,
    eval_localized,
    eval_localized_direct,
    localized_degree,
)
from lockern.kernels import KernelSpec

PI_QUARTER = math.pi ** -0.25


def rodrigues_h(k, x):
    """Symbolic Rodrigues-formula oracle for the orthonormal h_k."""
    xs = sympy.symbols("x")
    expr = (
        (-1) ** k
        / (sympy.pi ** sympy.Rational(1, 4) * 2 ** sympy.Rational(k, 2) * sympy.sqrt(sympy.factorial(k)))
        * sympy.exp(xs**2)
        * sympy.diff(sympy.exp(-(xs**2)), xs, k)
    )
    return float(expr.subs(xs, sympy.Float(x, 30)))


class TestHermiteBatch:
    def test_h0(self):
        assert hermite_oracle(0, 3.7)[0] == pytest.approx(PI_QUARTER, abs=1e-15)

    def test_h1_at_zero(self):
        vals = hermite_oracle(1, 0.0)
        assert vals[0] == pytest.approx(PI_QUARTER)
        assert vals[1] == 0.0

    def test_h2_at_zero(self):
        # one recurrence step; agrees with the symbolic Rodrigues oracle
        vals = hermite_oracle(2, 0.0)
        assert vals[2] == pytest.approx(-PI_QUARTER / math.sqrt(2), abs=1e-14)
        assert vals[2] == pytest.approx(rodrigues_h(2, 0.0), abs=1e-12)

    @given(
        k=st.integers(min_value=2, max_value=200),
        frac=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_residual(self, k, frac):
        x = frac * math.sqrt(2 * k)
        vals = hermite_oracle(k, x)
        scale = np.max(np.abs(vals)) or 1.0
        for j in range(2, k + 1):
            expect = math.sqrt(2.0 / j) * x * vals[j - 1] - math.sqrt((j - 1) / j) * vals[j - 2]
            assert abs(vals[j] - expect) < 1e-10 * scale


class TestPsi:
    def test_psi0_at_zero(self):
        assert _psi_values(0, 0.0)[0] == pytest.approx(PI_QUARTER)

    def test_psi1_odd(self):
        assert _psi_values(1, 0.0)[1] == 0.0

    def test_psi5_rodrigues(self):
        expect = rodrigues_h(5, 2.0) * math.exp(-2.0)
        assert _psi_values(5, 2.0)[5] == pytest.approx(expect, abs=1e-10)

    def test_matches_unsplit_product_where_it_is_finite(self):
        # h_k e^{-x^2/2} formed apart agrees where neither factor leaves
        # the float range
        xs = np.linspace(-12.0, 12.0, 241)
        want = hermite_oracle(200, xs) * np.exp(-xs * xs / 2.0)
        assert np.max(np.abs(_psi_values(200, xs) - want)) < 1e-13

    def test_even_values_at_zero_are_the_recurrence(self):
        # the kernel's coefficients take psi_{2l}(0) from the short loop
        want = _psi_values(400, 0.0)[::2]
        assert np.array(hermite._even_psi_at_zero(200)).tobytes() == want.tobytes()

    def test_finite_past_gaussian_underflow(self):
        xs = np.linspace(36.0, 80.0, 177)
        psis = _psi_values(1024, xs)
        assert np.all(np.isfinite(psis))
        # psi_k peaks near its turning point sqrt(2k + 1): x = 60 is past it
        # for k < 1800, and there psi_k grows with k
        at_60 = psis[:, np.argmin(np.abs(xs - 60.0))]
        assert at_60[-1] > at_60[-2] > 0

    def test_clamp_and_nan(self):
        spec = cached_kernel(32.0, 18)
        far = np.array([2.0**20, 1e6, 1e200, np.inf, -np.inf])
        assert not np.any(eval_localized_direct(spec, far))
        assert np.isnan(eval_localized_direct(spec, np.nan))

    def test_orthonormality(self):
        # fixed high-resolution quadrature on [-20, 20]
        xs = np.linspace(-20.0, 20.0, 8001)
        psis = _psi_values(20, xs)
        G = np.trapezoid(psis[:, None, :] * psis[None, :, :], xs, axis=2)
        assert np.max(np.abs(G - np.eye(21))) < 1e-6


class TestCutoff:
    def test_plateau(self):
        assert cutoff(0.0) == 1.0
        assert cutoff(0.4) == 1.0
        assert cutoff(0.5) == 1.0

    def test_support(self):
        assert cutoff(1.0) == 0.0
        assert cutoff(1.2) == 0.0

    def test_transition_monotone(self):
        v = cutoff(0.75)
        assert 0.0 < v < 1.0
        ts = np.linspace(0.0, 1.5, 301)
        vals = [cutoff(t) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cutoff(-0.1)


def proj_naive(m, q, x):
    """Brute-force term-by-term sum of the defining expression."""
    if q == 1:
        return (
            math.pi ** -0.25
            * (-1) ** m
            * math.sqrt(math.factorial(2 * m))
            / (2**m * math.factorial(m))
            * _psi_values(2 * m, x)[2 * m]
        )
    a = (q - 1) / 2.0
    total = 0.0
    for ell in range(m + 1):
        total += (
            (-1) ** ell
            * math.gamma(a + m - ell)
            / math.factorial(m - ell)
            * math.sqrt(math.factorial(2 * ell))
            / (2**ell * math.factorial(ell))
            * _psi_values(2 * ell, x)[2 * ell]
        )
    return total / (math.pi ** ((2 * q - 1) / 4.0) * math.gamma(a))


class TestProjKernel:
    def test_m0_q1(self):
        assert proj_naive(0, 1, 0.0) == pytest.approx(math.pi**-0.5, abs=1e-14)

    def test_m0_q2(self):
        assert proj_naive(0, 2, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-14)


class TestBuildLocalizedKernel:
    def test_coefficient_counts(self):
        assert len(build_localized_kernel(1, 3).coeffs) == 1
        spec = build_localized_kernel(4, 2)
        assert len(spec.coeffs) == 9
        assert spec.degree == 16
        spec = build_localized_kernel(8, 18)
        assert len(spec.coeffs) == 33
        assert spec.degree == 64

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_localized_kernel(0.5, 2)
        with pytest.raises(ValueError):
            build_localized_kernel(4, 0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, -1.0, 0.0, -math.inf])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        # the kernel's scale is the KernelSpec's; its expansion has none
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            KernelSpec("localized", {"N": 8.0, "q": 18, "gamma": gamma})

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 10, 18, 30])
    def test_coefficients_match_per_l_oracle(self, q):
        # the recurrence weights and the one correlation stay within
        # 4 max(degree, 1) eps max|c| of a 40-digit sum; weights from
        # exp(gammaln) miss this bound at N = 1 and 1.5 with q = 30. The
        # 40-digit oracle takes seconds from N = 32 on, so only q = 18 runs it.
        grid = (1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24) + ((32, 50) if q == 18 else ())
        for N in grid:
            got = build_localized_kernel(N, q).coeffs
            want = coeffs_oracle(N, q)
            unit = max(localized_degree(N, q), 1) * np.finfo(float).eps
            assert np.abs(got - want).max() <= 4 * unit * np.abs(want).max(), N

    @pytest.mark.parametrize("N", [1.0, 1.5, 2.0, 3.7, 4.0, 8.0, 32.0])
    def test_degree_helper_matches_built_kernel(self, N):
        assert localized_degree(N, 18) == build_localized_kernel(N, 18).degree

    @pytest.mark.parametrize("N, q", [(0.5, 2), (4.0, 0), (0.5, 0)])
    def test_degree_helper_raises_as_build(self, N, q):
        with pytest.raises(ValueError) as built:
            build_localized_kernel(N, q)
        with pytest.raises(ValueError, match=f"^{built.value}$"):
            localized_degree(N, q)

    @pytest.mark.parametrize("N", [2.0 ** 15, 1e200, math.inf])
    def test_bandwidth_bounded_by_degree_range(self, N):
        # N^2 < 2^30 keeps every degree in the range of the recurrences'
        # clamp; inf keeps the below-1-or-not-finite message
        message = ("N must be >= 1 and finite" if N == math.inf
                   else f"N must have N^2 < 2^30, got {N}")
        with pytest.raises(ValueError, match=re.escape(message)):
            localized_degree(N, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_localized_kernel(N, 2)
        below = math.nextafter(2.0 ** 15, 0.0)
        assert localized_degree(below, 2) == 2 * math.floor(below * below / 2) < 2 ** 30

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_equals_cutoff_weighted_projection_sum(self, q):
        # the coefficient expansion must reproduce the defining sum exactly
        N = 3.0
        spec = build_localized_kernel(N, q)
        L = int(N * N / 2)
        for x in (0.0, 0.7, 2.3):
            direct = sum(
                cutoff(math.sqrt(2 * m) / N) * proj_naive(m, q, x) for m in range(L + 1)
            )
            assert eval_localized(spec, x) == pytest.approx(direct, rel=1e-12)


class TestEvalLocalized:
    @pytest.mark.parametrize("N, q", [(1.0, 1), (4.0, 2), (8.0, 18), (12.0, 5), (40.0, 18)])
    def test_in_place_pass_matches_allocating_oracle(self, monkeypatch, N, q):
        # N = 40 places rescale checks in the step table; none fires on
        # these points, so its pass stays the oracle's
        spec = build_localized_kernel(N, q)
        checks, real = [], hermite._rescale

        def spy(b1, b2, g, tmp, halvings):
            out = real(b1, b2, g, tmp, halvings)
            checks.append(out is not None)
            return out

        monkeypatch.setattr(hermite, "_rescale", spy)
        rng = np.random.default_rng(int(N * 100 + q))
        arrays = [
            rng.uniform(-15.0, 15.0, 257),
            rng.uniform(-6.0, 6.0, (9, 13)),
            np.array(2.5),
            np.array([0.0, -0.0]),
            np.linspace(0.0, 40.0, 81)[::2],  # non-contiguous
            np.zeros((0,)),
        ]
        for x in arrays:
            got, want = eval_localized(spec, x), clenshaw_oracle(spec, x)
            assert type(got) is type(want)
            assert np.asarray(got).shape == np.asarray(want).shape
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for x in (0.0, -0.0, 1.25, np.float64(-3.5), 7):
            got, want = eval_localized(spec, x), clenshaw_oracle(spec, x)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert not any(checks)
        assert bool(checks) == any(step[4] for step in spec._steps) == (N == 40.0)

    @pytest.mark.parametrize("N", [1.0, 8.0, 24.0, 40.0])
    @pytest.mark.parametrize("q", [1, 18])
    def test_step_constants_are_read_only_scalars(self, N, q):
        # each constant is a 0-d float64 operand, bitwise its float formula
        spec = build_localized_kernel(N, q)
        L = len(spec.coeffs) - 1
        assert len(spec._steps) == L + 1
        for ell, (a, shift, beta, c, check) in zip(range(L, -1, -1), spec._steps):
            r = 1.0 / math.sqrt((2 * ell + 1) * (2 * ell + 2))
            want = (2.0 * r, (4 * ell + 1) * r,
                    -math.sqrt((2 * ell + 1) * (2 * ell + 2) / ((2 * ell + 3) * (2 * ell + 4))),
                    float(spec.coeffs[ell]))
            for got, value in zip((a, shift, beta, c), want):
                assert type(got) is np.ndarray and got.shape == () and got.dtype == np.float64
                assert not got.flags.writeable
                assert got.tobytes() == np.float64(value).tobytes()
            assert type(check) is bool
        assert spec._steps is spec._steps  # made once

    @pytest.mark.parametrize("n", [1, 2**14 - 1, 2**14 + 1, 3 * 2**14 + 7])
    def test_chunks_match_one_pass(self, monkeypatch, n):
        # n points run in ceil(n / 2^14) near-equal passes, bitwise as one
        # pass; the points span the clamp and the rescaled far field
        spec = build_localized_kernel(12.0, 5)
        x = np.random.default_rng(n).uniform(-80.0, 80.0, n)
        x[::97] = np.nan
        chunked = eval_localized(spec, x)
        chunked_2d = eval_localized(spec, x.reshape(1, n))
        sizes = []
        clenshaw = hermite._clenshaw

        def recorded(spec, points):
            sizes.append(points.size)
            return clenshaw(spec, points)

        monkeypatch.setattr(hermite, "_clenshaw", recorded)
        monkeypatch.setattr(hermite, "_CHUNK_POINTS", n)
        whole = eval_localized(spec, x)
        assert sizes == [n]
        assert chunked.tobytes() == whole.tobytes()
        assert chunked_2d.shape == (1, n)
        assert chunked_2d.tobytes() == whole.tobytes()
        monkeypatch.setattr(hermite, "_CHUNK_POINTS", 2**14)
        sizes.clear()
        eval_localized(spec, x)
        assert len(sizes) == -(-n // 2**14) and sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        for k in range(min(n, 3)):
            assert np.float64(eval_localized(spec, x[k])).tobytes() == whole[k].tobytes()

    def test_input_array_unchanged(self):
        spec = build_localized_kernel(4.0, 2)
        x = np.linspace(-3.0, 3.0, 7)
        before = x.copy()
        eval_localized(spec, x)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("N", [1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("q", [1, 2, 10, 18])
    def test_clenshaw_matches_direct(self, N, q):
        spec = build_localized_kernel(N, q)
        xs = np.linspace(0.0, 10.0, 201)
        a = eval_localized(spec, xs)
        b = eval_localized_direct(spec, xs)
        assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(b))

    @pytest.mark.parametrize("q", [1, 2, 18])
    def test_gaussian_reduction_at_n1(self, q):
        spec = build_localized_kernel(1.0, q)
        xs = np.linspace(0.0, 5.0, 201)
        ratio = eval_localized(spec, xs) * np.exp(xs**2 / 2.0) / eval_localized(spec, 0.0)
        assert np.max(np.abs(ratio - 1.0)) < 1e-10

    def test_center_value_growth(self):
        # |Phi(0)| grows like N^q
        q = 2
        v4 = eval_localized(build_localized_kernel(4.0, q), 0.0)
        v8 = eval_localized(build_localized_kernel(8.0, q), 0.0)
        assert 2**q / 3 <= v8 / v4 <= 3 * 2**q

    def test_far_field_small(self):
        spec = build_localized_kernel(4.0, 2)
        assert abs(eval_localized(spec, 3.0)) <= eval_localized(spec, 0.0) / 50

    def test_localization_envelope(self):
        from lockern.diagnostics import localization_constant

        c4 = localization_constant(4.0, 2, 4)
        c8 = localization_constant(8.0, 2, 4)
        assert max(c4, c8) / min(c4, c8) < 3.0

    def test_derivative_growth(self):
        # finite-difference derivative bounded by a shared multiple of N^{q+1}
        q = 2
        h = 1e-5
        consts = {}
        for N in (4.0, 8.0):
            spec = build_localized_kernel(N, q)
            xs = np.linspace(0.0, 10.0, 501)
            d = (eval_localized(spec, xs + h) - eval_localized(spec, xs - h)) / (2 * h)
            consts[N] = np.max(np.abs(d)) / N ** (q + 1)
        assert max(consts.values()) / min(consts.values()) < 3.0


@lru_cache(maxsize=None)
def cached_kernel(N, q):
    return build_localized_kernel(N, q)


def oracle_bound_ratio(spec, xs, evaluate=eval_localized):
    """max |evaluate - mpmath_oracle| over xs, in units of
    max(degree, 1) * eps * |Phi(0)|."""
    got = evaluate(spec, np.asarray(xs, dtype=float))
    want = np.array([mpmath_oracle(spec, x) for x in xs])
    unit = max(spec.degree, 1) * np.finfo(float).eps * abs(mpmath_oracle(spec, 0.0))
    return float(np.max(np.abs(got - want))) / unit


class TestHighPrecisionOracle:
    # c = 4 in |eval_localized - oracle| <= c * max(degree, 1) * eps * |Phi(0)|
    C = 4.0
    # x in [0, 80]: steps of 4, of 0.25 on [36, 40] (where e^{-x^2/2} is
    # subnormal), the subnormal-e^{-x^2/4} band [53.25, 54.75], and the
    # kernel's turning point sqrt(2 degree + 1) +- {0.1, 1, 5}
    GRID = sorted(set(np.r_[np.arange(0.0, 80.01, 4.0), np.arange(36.0, 40.01, 0.25),
                            np.arange(53.25, 54.8, 0.5)].tolist()))

    def grid(self, spec):
        turn = math.sqrt(2 * spec.degree + 1)
        return self.GRID + [turn + d for d in (-5.0, -1.0, -0.1, 0.1, 1.0, 5.0) if turn + d > 0]

    @pytest.mark.parametrize("N", [1.0, 8.0, 24.0, 32.0, 40.0, 48.0])
    @pytest.mark.parametrize("q", [1, 18, 32])
    def test_within_bound(self, N, q):
        spec = cached_kernel(N, q)
        assert oracle_bound_ratio(spec, self.grid(spec)) <= self.C

    @pytest.mark.parametrize("N", [24.0, 32.0, 40.0, 48.0])
    @pytest.mark.parametrize("q", [1, 18])
    def test_direct_within_bound(self, N, q):
        # the cross-check evaluator, past x = 38 where e^{-x^2/2} alone is
        # subnormal or 0 and h_k of this degree overflows
        spec = cached_kernel(N, q)
        assert oracle_bound_ratio(spec, self.grid(spec), eval_localized_direct) <= self.C

    def test_rescaled_points_within_bound(self, monkeypatch):
        # at N = 40 the pass rescales points by 2^-512 from about x = 50
        rescaled, real = [], hermite._rescale

        def spy(*args):
            halvings = real(*args)
            rescaled.append(halvings is not None and bool(np.any(halvings > 0)))
            return halvings

        monkeypatch.setattr(hermite, "_rescale", spy)
        spec = cached_kernel(40.0, 1)
        assert oracle_bound_ratio(spec, np.arange(50.0, 56.01, 0.5)) <= self.C
        assert any(rescaled)


class TestFinite:
    @given(N=st.floats(min_value=1.0, max_value=32.0), q=st.integers(min_value=1, max_value=32),
           xs=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_finite_for_finite_x(self, N, q, xs):
        spec = cached_kernel(round(N * 4) / 4, q)
        assert np.all(np.isfinite(eval_localized(spec, np.array(xs))))
        assert math.isfinite(eval_localized(spec, xs[0]))

    @pytest.mark.parametrize("N", [40.0, 64.0, 100.0])
    def test_finite_past_n32(self, N):
        spec = cached_kernel(N, 18)
        xs = np.linspace(0.0, 100.0, 2001)
        assert np.all(np.isfinite(eval_localized(spec, xs)))

    def test_clamp_is_past_underflow(self):
        # at t >= _T_MAX even the 2^512-raised e^{-t/4} is exactly 0, in the
        # scalar and the vectorised exp, so clamping t changes no value
        arg = _RESCALE_BITS * math.log(2.0) - _T_MAX / 4.0
        assert np.exp(arg) == 0.0
        assert not np.any(np.exp(np.full(67, arg)))
        spec = cached_kernel(32.0, 18)
        edge = math.sqrt(_T_MAX)
        far = np.array([edge, np.nextafter(edge, np.inf), 1e100, 1e200, np.inf, -np.inf])
        assert not np.any(eval_localized(spec, far))
        assert np.isnan(eval_localized(spec, np.nan))
