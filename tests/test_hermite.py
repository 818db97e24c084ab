import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import clenshaw_oracle

from lockern.hermite import (
    _hermite_values,
    _psi_values,
    build_localized_kernel,
    cutoff,
    eval_localized,
    eval_localized_direct,
    localized_degree,
)

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
        assert _hermite_values(0, 3.7)[0] == pytest.approx(PI_QUARTER, abs=1e-15)

    def test_h1_at_zero(self):
        vals = _hermite_values(1, 0.0)
        assert vals[0] == pytest.approx(PI_QUARTER)
        assert vals[1] == 0.0

    def test_h2_at_zero(self):
        # one recurrence step; agrees with the symbolic Rodrigues oracle
        vals = _hermite_values(2, 0.0)
        assert vals[2] == pytest.approx(-PI_QUARTER / math.sqrt(2), abs=1e-14)
        assert vals[2] == pytest.approx(rodrigues_h(2, 0.0), abs=1e-12)

    @given(
        k=st.integers(min_value=2, max_value=200),
        frac=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_residual(self, k, frac):
        x = frac * math.sqrt(2 * k)
        vals = _hermite_values(k, x)
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
        assert len(build_localized_kernel(1, 3, 1.0).coeffs) == 1
        spec = build_localized_kernel(4, 2, 0.8)
        assert len(spec.coeffs) == 9
        assert spec.degree == 16
        spec = build_localized_kernel(8, 18, 0.8)
        assert len(spec.coeffs) == 33
        assert spec.degree == 64

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_localized_kernel(0.5, 2)
        with pytest.raises(ValueError):
            build_localized_kernel(4, 0)

    @pytest.mark.parametrize("N", [1.0, 1.5, 2.0, 3.7, 4.0, 8.0, 32.0])
    def test_degree_helper_matches_built_kernel(self, N):
        assert localized_degree(N, 18) == build_localized_kernel(N, 18).degree

    @pytest.mark.parametrize("N, q", [(0.5, 2), (4.0, 0), (0.5, 0)])
    def test_degree_helper_raises_as_build(self, N, q):
        with pytest.raises(ValueError) as built:
            build_localized_kernel(N, q)
        with pytest.raises(ValueError, match=f"^{built.value}$"):
            localized_degree(N, q)

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_equals_cutoff_weighted_projection_sum(self, q):
        # the coefficient expansion must reproduce the defining sum exactly
        N = 3.0
        spec = build_localized_kernel(N, q, 1.0)
        L = int(N * N / 2)
        for x in (0.0, 0.7, 2.3):
            direct = sum(
                cutoff(math.sqrt(2 * m) / N) * proj_naive(m, q, x) for m in range(L + 1)
            )
            assert eval_localized(spec, x) == pytest.approx(direct, rel=1e-12)


class TestEvalLocalized:
    @pytest.mark.parametrize("N, q", [(1.0, 1), (4.0, 2), (8.0, 18), (12.0, 5)])
    def test_in_place_pass_matches_allocating_oracle(self, N, q):
        spec = build_localized_kernel(N, q, 1.0)
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
