import math
import re
import tracemalloc

import numpy as np
import pytest
from kernel_oracle import (
    error_profile_oracle,
    minimal_separation_oracle,
    pair_oracle,
    psi_oracle,
)
from scipy.spatial.distance import pdist

from lockern import approximation, kernels
from lockern.approximation import (
    CollocationModel,
    _normal_equations,
    dominance_diagnostic,
    error_profile,
    evaluate,
    fit_empirical,
    fit_theoretical,
    minimal_separation,
    sigma_n,
)
from lockern.features import SubspaceFeature
from lockern.kernels import DiscreteQuadrature, KernelSpec, cross_gram


def circle_nodes(M):
    theta = 2.0 * np.pi * np.arange(M) / M
    pts = [np.array([math.cos(t), math.sin(t)]) for t in theta]
    return pts, np.sin(3.0 * theta)


def circle_quadrature(n):
    """Midpoint arclength rule on the unit circle with unit density."""
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    pts = [np.array([math.cos(t), math.sin(t)]) for t in theta]
    quad = DiscreteQuadrature(
        nodes=pts, weights=np.full(n, 2.0 * np.pi / n), density_f0=np.ones(n)
    )
    return quad, np.sin(3.0 * theta)


class TestMinimalSeparation:
    def test_hand_example(self):
        pts = [np.array([0.0]), np.array([3.0]), np.array([4.0])]
        assert minimal_separation(pts) == 1.0

    def test_matches_pdist(self):
        rng = np.random.default_rng(0)
        pts = [rng.standard_normal(3) for _ in range(25)]
        assert minimal_separation(pts) == pytest.approx(pdist(np.array(pts)).min(), rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            minimal_separation([np.zeros(2)])

    @pytest.mark.parametrize("points", [
        [np.array([0.0, 1.0]), np.array([2.0, -1.0])],
        [np.array([0.5]), np.array([2.0]), np.array([0.5]), np.array([-1.0])],
    ], ids=["two", "duplicate"])
    def test_equals_full_matrix_oracle(self, points):
        assert minimal_separation(points) == minimal_separation_oracle(points)

    @pytest.mark.parametrize("M", [49, 50])
    @pytest.mark.parametrize("block_elems", [600, 1])
    def test_row_blocks_equal_full_matrix_oracle(self, M, block_elems, monkeypatch):
        # 3-vectors: 600 elements give 4-row blocks; M = 49 ends on a block
        # of one row, which has no entry above the diagonal
        rng = np.random.default_rng(M)
        pts = list(rng.standard_normal((M, 3)))
        expected = minimal_separation_oracle(pts)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        assert minimal_separation(pts) == expected

    def test_gesture_scale_exact_and_block_sized(self):
        pts = list(np.random.default_rng(7).standard_normal((1920, 30)))
        tracemalloc.start()
        try:
            eta = minimal_separation(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eta == minimal_separation_oracle(pts)
        # the full 1920 x 1920 distance matrix alone is 28 MiB
        assert peak <= 8 * 2**20


class TestDominanceDiagnostic:
    def test_far_nodes_negligible(self):
        spec = KernelSpec("localized", {"N": 4.0, "q": 2, "gamma": 1.0})
        nodes = [np.array([0.0, 0.0]), np.array([40.0, 0.0])]
        assert dominance_diagnostic(spec, nodes) < 1e-6

    def test_duplicate_node_saturates(self):
        spec = KernelSpec("localized", {"N": 4.0, "q": 2, "gamma": 1.0})
        nodes = [np.zeros(2), np.zeros(2)]
        assert dominance_diagnostic(spec, nodes) >= 1.0

    def test_monotone_in_bandwidth(self):
        nodes, _ = circle_nodes(20)
        ratios = {
            N: dominance_diagnostic(
                KernelSpec("localized", {"N": N, "q": 2, "gamma": 4.0}), nodes
            )
            for N in (2.0, 4.0, 8.0)
        }
        assert ratios[2.0] > ratios[4.0] > ratios[8.0]
        assert ratios[8.0] < 0.5


class TestFitEmpirical:
    @pytest.mark.parametrize("N", [2.0, 4.0, 8.0])
    def test_ratio_matches_dominance_diagnostic(self, N):
        nodes, truth = circle_nodes(12)
        spec = KernelSpec("localized", {"N": N, "q": 1, "gamma": 1.0})
        model = fit_empirical(spec, nodes, truth)
        assert model.dominance_ratio == dominance_diagnostic(spec, nodes)

    def test_one_collocation_gram(self, monkeypatch):
        calls = []
        real = approximation.gram

        def counting(spec, points):
            calls.append(len(points))
            return real(spec, points)

        monkeypatch.setattr(approximation, "gram", counting)
        nodes, truth = circle_nodes(12)
        fit_empirical(KernelSpec("localized", {"N": 8.0, "q": 1, "gamma": 1.0}), nodes, truth)
        assert calls == [12]

    def test_single_node_closed_form(self):
        spec = KernelSpec("localized", {"N": 4.0, "q": 2, "gamma": 0.8})
        node = np.array([1.0, 2.0])
        model = fit_empirical(spec, [node], [5.0])
        from lockern.kernels import kernel_fn

        k0 = kernel_fn(spec)(node, node)
        assert model.coeffs[0] == pytest.approx(5.0 / k0, rel=1e-12)
        assert model.eta == np.inf
        assert model.dominance_ratio == 0.0

    def test_zero_values_give_zero_coeffs(self):
        spec = KernelSpec("euclidean_rbf", {"gamma": 0.5})
        rng = np.random.default_rng(4)
        nodes = [rng.standard_normal(2) for _ in range(8)]
        model = fit_empirical(spec, nodes, np.zeros(8))
        np.testing.assert_allclose(model.coeffs, 0.0, atol=1e-12)

    def test_interpolates_on_circle(self):
        nodes, truth = circle_nodes(10)
        spec = KernelSpec("localized", {"N": 8.0, "q": 2, "gamma": 4.0})
        model = fit_empirical(spec, nodes, truth)
        residuals = [abs(evaluate(model, y) - t) for y, t in zip(nodes, truth)]
        assert max(residuals) < 1e-8
        assert model.dominance_ratio < 0.5
        assert model.eta == pytest.approx(2.0 * math.sin(math.pi / 10.0), rel=1e-12)

    def test_linearity(self):
        nodes, truth = circle_nodes(10)
        spec = KernelSpec("localized", {"N": 8.0, "q": 2, "gamma": 4.0})
        other = np.cos(np.linspace(0.0, 1.0, 10))
        a = fit_empirical(spec, nodes, truth).coeffs
        b = fit_empirical(spec, nodes, other).coeffs
        c = fit_empirical(spec, nodes, truth + other).coeffs
        np.testing.assert_allclose(c, a + b, atol=1e-8)

    def test_condition_refusal(self):
        # near-duplicate nodes under a wide kernel are numerically singular
        spec = KernelSpec("euclidean_rbf", {"gamma": 1e-4})
        nodes = [np.array([0.0]), np.array([1e-8]), np.array([1.0])]
        with pytest.raises(ValueError, match="condition"):
            fit_empirical(spec, nodes, [1.0, 1.0, 2.0])

    def test_length_mismatch(self):
        spec = KernelSpec("euclidean_rbf")
        with pytest.raises(ValueError):
            fit_empirical(spec, [np.zeros(2)], [1.0, 2.0])


class TestSigmaN:
    def test_zero_function(self):
        quad, _ = circle_quadrature(50)
        spec = KernelSpec("localized", {"N": 4.0, "q": 1, "gamma": 1.0})
        assert sigma_n(spec, np.zeros(50), quad, quad.nodes[0]) == 0.0

    def test_single_node_hand_sum(self):
        spec = KernelSpec("euclidean_rbf", {"gamma": 1.0})
        quad = DiscreteQuadrature(nodes=[np.array([1.0])], weights=[0.5], density_f0=[1.0])
        val = sigma_n(spec, [3.0], quad, np.array([0.0]))
        assert val == pytest.approx(0.5 * 3.0 * math.exp(-1.0), rel=1e-12)

    def test_approximate_identity_improves_with_bandwidth(self):
        # smoothing a trig polynomial on the circle with the dimension-matched
        # kernel: the sup error over nodes drops as the bandwidth doubles
        quad, f = circle_quadrature(800)
        errs = {}
        for N in (2.0, 4.0, 8.0):
            spec = KernelSpec("localized", {"N": N, "q": 1, "gamma": 1.0})
            errs[N] = max(
                abs(sigma_n(spec, f, quad, quad.nodes[i]) - f[i]) for i in range(0, 800, 25)
            )
        assert errs[2.0] > errs[4.0] > errs[8.0]
        assert errs[4.0] < 0.1
        assert errs[8.0] < 0.03

    def test_alignment_check(self):
        quad, _ = circle_quadrature(10)
        spec = KernelSpec("euclidean_rbf")
        with pytest.raises(ValueError):
            sigma_n(spec, np.zeros(9), quad, quad.nodes[0])


class TestFitTheoretical:
    def test_single_node_closed_form(self):
        from lockern.kernels import psi_kernel

        spec = KernelSpec("euclidean_rbf", {"gamma": 0.7})
        quad = DiscreteQuadrature(
            nodes=[np.array([0.0]), np.array([1.0])],
            weights=[1.0, 1.0],
            density_f0=[2.0, 0.5],
        )
        node = np.array([0.3])
        f = np.array([1.0, -2.0])
        model = fit_theoretical(spec, [node], f, quad)
        rhs = sigma_n(spec, f * quad.density_f0, quad, node)
        psi = psi_kernel(spec, quad, node, node)
        assert model.coeffs[0] == pytest.approx(rhs / psi, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec("localized", {"N": 8.0, "q": 1, "gamma": 1.0}),
            KernelSpec("euclidean_rbf", {"gamma": 0.7}),
        ],
    )
    def test_normal_equations_match_pairwise_oracle(self, spec):
        rng = np.random.default_rng(4)
        quad, f = circle_quadrature(30)
        quad = DiscreteQuadrature(
            nodes=quad.nodes, weights=quad.weights, density_f0=rng.uniform(0.5, 2.0, 30)
        )
        nodes, _ = circle_nodes(7)
        P, rhs = _normal_equations(cross_gram(spec, nodes, quad.nodes), f, quad)
        expect_P = np.array([[psi_oracle(spec, quad, a, b) for b in nodes] for a in nodes])
        np.testing.assert_allclose(P, expect_P, rtol=1e-12, atol=1e-12)
        k = pair_oracle(spec)
        wff0 = quad.weights * f * quad.density_f0
        expect_rhs = [sum(c * k(y, z) for c, z in zip(wff0, quad.nodes)) for y in nodes]
        np.testing.assert_allclose(rhs, expect_rhs, rtol=1e-12, atol=1e-12)

    def test_zero_function(self):
        quad, _ = circle_quadrature(60)
        nodes, _ = circle_nodes(5)
        spec = KernelSpec("localized", {"N": 4.0, "q": 1, "gamma": 1.0})
        model = fit_theoretical(spec, nodes, np.zeros(60), quad)
        np.testing.assert_allclose(model.coeffs, 0.0, atol=1e-10)

    def test_eta_from_cross_gram_statistics(self):
        # eta comes from the squared distances of the fit's own cross_gram,
        # bitwise the separate distance pass of minimal_separation
        nodes, _ = circle_nodes(20)
        quad, f = circle_quadrature(24)
        spec = KernelSpec("localized", {"N": 8.0, "q": 1, "gamma": 1.0})
        eta = fit_theoretical(spec, nodes, f, quad).eta
        assert type(eta) is float
        assert np.float64(eta).tobytes() == np.float64(minimal_separation(nodes)).tobytes()
        # one pair 1e-9 apart: a scale that still tells the pair apart keeps
        # the normal equations solvable, with the nodes as quadrature
        rng = np.random.default_rng(29)
        nodes = [rng.standard_normal(3) for _ in range(30)]
        nodes[17] = nodes[4] + np.array([1e-9, 0.0, 0.0])
        quad = DiscreteQuadrature(nodes=nodes, weights=np.ones(30), density_f0=np.ones(30))
        spec = KernelSpec("euclidean_rbf", {"gamma": 1e16})
        eta = fit_theoretical(spec, nodes, rng.standard_normal(30), quad).eta
        assert eta < 2e-9
        assert np.float64(eta).tobytes() == np.float64(minimal_separation(nodes)).tobytes()

    @pytest.mark.parametrize("shape, count", [((23,), "23 values"), ((24, 1), "shape (24, 1)")])
    def test_value_vectors_checked(self, shape, count):
        # an (n, 1) column of f values gave fit_theoretical a 20 x 24 matrix
        # of coefficients; each fit and sigma_n refuse it, naming both counts
        nodes, _ = circle_nodes(24)
        quad, _ = circle_quadrature(24)
        spec = KernelSpec("localized", {"N": 8.0, "q": 1, "gamma": 1.0})
        values = np.zeros(shape)
        with pytest.raises(ValueError, match=re.escape(f"values has {count} for 24 nodes")):
            fit_empirical(spec, nodes, values)
        message = f"f values has {count} for 24 quadrature nodes"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_theoretical(spec, nodes[:20], values, quad)
        with pytest.raises(ValueError, match=re.escape(message)):
            sigma_n(spec, values, quad, nodes[0])

    def test_one_node_eta_is_inf(self):
        quad, f = circle_quadrature(24)
        spec = KernelSpec("localized", {"N": 8.0, "q": 1, "gamma": 1.0})
        assert fit_theoretical(spec, [np.array([1.0, 0.0])], f, quad).eta == math.inf

    def test_no_separate_distance_pass(self, monkeypatch):
        calls = []
        real = approximation._min_separation

        def counting(X):
            calls.append(len(X))
            return real(X)

        monkeypatch.setattr(approximation, "_min_separation", counting)
        nodes, truth = circle_nodes(20)
        quad, f = circle_quadrature(24)
        spec = KernelSpec("localized", {"N": 8.0, "q": 1, "gamma": 1.0})
        fit_theoretical(spec, nodes, f, quad)
        assert calls == []
        fit_empirical(spec, nodes, truth)  # the interpolatory fit keeps its pass
        assert calls == [20]

    @pytest.mark.parametrize("N,tol", [(4.0, 1e-9), (8.0, 1e-5)])
    def test_recovers_node_values_on_circle(self, N, tol):
        quad, f = circle_quadrature(400)
        nodes, truth = circle_nodes(20)
        spec = KernelSpec("localized", {"N": N, "q": 1, "gamma": 1.0})
        model = fit_theoretical(spec, nodes, f, quad)
        errs = [abs(evaluate(model, y) - t) for y, t in zip(nodes, truth)]
        assert max(errs) < tol


class TestEvaluateAndProfile:
    def _toy_model(self):
        spec = KernelSpec("euclidean_rbf", {"gamma": 1.0})
        nodes = [np.array([0.0]), np.array([2.0])]
        return CollocationModel(
            nodes=nodes,
            coeffs=np.array([2.0, -1.0]),
            spec=spec,
            eta=2.0,
            dominance_ratio=0.0,
        )

    def test_evaluate_hand_sum(self):
        model = self._toy_model()
        x = np.array([1.0])
        expect = 2.0 * math.exp(-1.0) - 1.0 * math.exp(-1.0)
        assert evaluate(model, x) == pytest.approx(expect, rel=1e-12)

    def test_profile_at_nodes(self):
        nodes, truth = circle_nodes(10)
        spec = KernelSpec("localized", {"N": 8.0, "q": 2, "gamma": 4.0})
        model = fit_empirical(spec, nodes, truth)
        prof = error_profile(model, truth, nodes)
        np.testing.assert_array_equal(prof.delta, 0.0)
        assert np.max(prof.abs_error) < 1e-8

    def test_profile_sorted_by_distance(self):
        model = self._toy_model()
        probes = [np.array([1.5]), np.array([0.1]), np.array([5.0])]
        prof = error_profile(model, np.zeros(3), probes)
        assert list(prof.delta) == sorted(prof.delta)
        assert prof.delta[0] == pytest.approx(0.1)
        assert prof.delta[-1] == pytest.approx(3.0)

    def test_empty_probes(self):
        with pytest.raises(ValueError):
            error_profile(self._toy_model(), [], [])

    def test_delta_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        nodes = [rng.standard_normal(3) for _ in range(15)]
        probes = [rng.standard_normal(3) for _ in range(40)]
        model = CollocationModel(
            nodes=nodes,
            coeffs=np.ones(15),
            spec=KernelSpec("euclidean_rbf", {"gamma": 1.0}),
            eta=minimal_separation(nodes),
            dominance_ratio=0.0,
        )
        oracle = np.array([min(np.linalg.norm(x - y) for y in nodes) for x in probes])
        assert len(np.unique(oracle)) == len(oracle)  # distinct, so the order is unique
        order = np.argsort(oracle)
        prof = error_profile(model, np.zeros(40), probes)
        np.testing.assert_allclose(prof.delta, oracle[order], rtol=1e-12, atol=0)
        for got, i in zip(prof.probe_points, order):
            assert got is probes[i]

    @pytest.mark.parametrize("kind", ["localized", "euclidean_rbf"])
    def test_one_pass_matches_two_pass_oracle(self, kind):
        rng = np.random.default_rng(4)
        nodes, truth = circle_nodes(20)
        spec = KernelSpec(kind, {"N": 8.0, "q": 1, "gamma": 1.0} if kind == "localized"
                          else {"gamma": 30.0})
        model = fit_empirical(spec, nodes, truth)
        probes = [rng.standard_normal(2) for _ in range(60)] + nodes[:3]
        values, delta = error_profile_oracle(model, probes)
        order = np.argsort(delta, kind="stable")
        prof = error_profile(model, np.zeros(len(probes)), probes)
        assert prof.model_value.tobytes() == values[order].tobytes()
        assert prof.delta.tobytes() == delta[order].tobytes()

    def test_one_distance_pass(self, monkeypatch):
        calls = []
        real = kernels._sq_dists

        def counting(XA, XB):
            calls.append((len(XA), len(XB)))
            return real(XA, XB)

        monkeypatch.setattr(kernels, "_sq_dists", counting)
        model = self._toy_model()
        error_profile(model, np.zeros(3), [np.array([0.5]), np.array([1.0]), np.array([3.0])])
        assert calls == [(3, 2)]

    @pytest.mark.parametrize("truth, count", [
        ([0.5], "1 values"), (np.zeros(3), "3 values"), (np.zeros(8), "8 values"),
        (np.zeros((7, 1)), "shape (7, 1)"), (0.5, "shape ()"),
    ])
    def test_truth_length_checked(self, monkeypatch, truth, count):
        # a truth of any other length is refused before a kernel value is
        # made: one value would be spread over the 7 probes, three would
        # fail in a broadcast that names no cause
        def no_kernel_values(*args):
            raise AssertionError("a kernel value was computed")

        monkeypatch.setattr(approximation, "_cross_gram_statistics", no_kernel_values)
        probes = [np.array([0.5 * k]) for k in range(7)]
        with pytest.raises(ValueError, match=re.escape(f"truth has {count} for 7 probes")):
            error_profile(self._toy_model(), truth, probes)

    def test_non_finite_kernel_value_named(self):
        # a NaN probe coordinate, the one way to a NaN localized kernel value
        model = CollocationModel(nodes=[np.array([0.0]), np.array([1.0])],
                                 coeffs=np.ones(2), eta=1.0, dominance_ratio=0.0,
                                 spec=KernelSpec("localized", {"N": 32.0, "q": 18, "gamma": 1.0}))
        with pytest.raises(ValueError, match=r"N=32, q=18.* at entry \(1, 0\)"):
            error_profile(model, np.zeros(2), [np.array([0.5]), np.array([np.nan])])

    def test_needs_flat_kernel(self, monkeypatch):
        # both fits refuse a subspace kernel before any kernel value is made
        spec = KernelSpec("grassmann")
        model = CollocationModel(nodes=[np.eye(3)[:, :1]], coeffs=np.ones(1),
                                 spec=spec, eta=np.inf, dominance_ratio=0.0)
        with pytest.raises(ValueError, match="grassmann is not a kernel on flat vectors"):
            error_profile(model, np.zeros(1), [np.eye(3)[:, :1]])

        def no_kernel_values(*args):
            raise AssertionError("a kernel value was computed")

        monkeypatch.setattr(approximation, "gram", no_kernel_values)
        monkeypatch.setattr(approximation, "cross_gram", no_kernel_values)
        monkeypatch.setattr(approximation, "_cross_gram_statistics", no_kernel_values)
        nodes = [SubspaceFeature(U=np.eye(3)[:, [k]], S=np.ones(1)) for k in range(3)]
        quad = DiscreteQuadrature(nodes=nodes, weights=np.ones(3), density_f0=np.ones(3))
        for fit in (lambda: fit_empirical(spec, nodes, np.zeros(3)),
                    lambda: fit_theoretical(spec, nodes, np.zeros(3), quad)):
            with pytest.raises(ValueError, match="grassmann is not a kernel on flat vectors"):
                fit()
