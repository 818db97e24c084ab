import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import full_gram_oracle, pair_oracle

from lockern import kernels
from lockern.features import SubspaceFeature
from lockern.kernels import (
    DiscreteQuadrature,
    KernelSpec,
    canonicalize_signs,
    cross_gram,
    gram,
    kernel_fn,
    psi_kernel,
)


def random_orthonormal(p, r, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((p, r)))
    return Q[:, :r]


def subspace(U, S=None):
    """A SubspaceFeature; the Grassmann kernel does not read S."""
    return SubspaceFeature(U=U, S=np.ones(np.shape(U)[1]) if S is None else S)


def grassmann_kernel(U1, U2, gamma=0.2):
    return kernel_fn(KernelSpec("grassmann", {"gamma": gamma}))(subspace(U1), subspace(U2))


def svd_kernel(kind, U1, S1, U2, S2, **params):
    return kernel_fn(KernelSpec(kind, params))(subspace(U1, S1), subspace(U2, S2))


class TestGrassmann:
    def test_identity_peak(self):
        rng = np.random.default_rng(0)
        U = random_orthonormal(6, 3, rng)
        assert grassmann_kernel(U, U, gamma=0.2) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_subspaces(self):
        U1 = np.eye(4)[:, :2]
        U2 = np.eye(4)[:, 2:]
        assert grassmann_kernel(U1, U2, gamma=0.5) == pytest.approx(math.exp(-0.5 * 2), abs=1e-12)

    def test_principal_angle_oracle(self):
        # r - ||U1'U2||_F^2 = sum_i sin^2(theta_i), theta_i from the SVD of U1'U2
        rng = np.random.default_rng(7)
        U1 = random_orthonormal(8, 3, rng)
        U2 = random_orthonormal(8, 3, rng)
        cosines = np.linalg.svd(U1.T @ U2, compute_uv=False)
        expect = math.exp(-0.2 * float(np.sum(1.0 - cosines**2)))
        assert grassmann_kernel(U1, U2, gamma=0.2) == pytest.approx(expect, rel=1e-12)

    def test_rotation_invariance(self):
        # the kernel depends only on the column span
        rng = np.random.default_rng(3)
        U1 = random_orthonormal(6, 3, rng)
        U2 = random_orthonormal(6, 3, rng)
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert grassmann_kernel(U1 @ R, U2) == pytest.approx(grassmann_kernel(U1, U2), abs=1e-10)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            grassmann_kernel(np.ones((4, 2)), np.eye(4)[:, :2])


class TestSvdKernels:
    def test_laplace_sigma_only(self):
        U = np.eye(3)[:, :2]
        val = svd_kernel("laplace_svd", U, [7.0, 2.0], U, [2.0, 2.0], alpha=0.2, beta=0.0042)
        assert val == pytest.approx(math.exp(-0.0042 * 5.0), rel=1e-12)

    def test_gaussian_sigma_only(self):
        U = np.eye(3)[:, :2]
        val = svd_kernel("gaussian_svd", U, [3.0, 1.0], U, [2.0, 1.0], alpha=0.2, beta=0.12)
        assert val == pytest.approx(math.exp(-0.12), rel=1e-12)

    def test_gaussian_basis_term(self):
        U1 = np.eye(2)
        U2 = np.eye(2)[:, ::-1]
        # ||U1 - U2||_F^2 = 4
        val = svd_kernel("gaussian_svd", U1, [1.0], U2, [1.0], alpha=0.06, beta=0.12)
        assert val == pytest.approx(math.exp(-0.24), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            svd_kernel("laplace_svd", np.eye(3), [1, 1, 1], np.eye(2), [1, 1])


class TestEuclideanRbf:
    def test_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        sq = sum((a - b) ** 2 for a, b in zip(x, y))
        k = kernel_fn(KernelSpec("euclidean_rbf", {"gamma": 0.03}))
        assert k(x, y) == pytest.approx(math.exp(-0.03 * sq), rel=1e-12)

    def test_identity(self):
        assert kernel_fn(KernelSpec("euclidean_rbf"))([1.0, 2.0], [1.0, 2.0]) == 1.0


class TestLocalizedDistance:
    def test_gaussian_at_n1(self):
        # N=1 collapses to a pure Gaussian of the scaled distance
        k = kernel_fn(KernelSpec("localized", {"N": 1.0, "q": 2, "gamma": 0.5}))
        x = np.array([1.0, 0.0, 2.0])
        y = np.array([0.0, 2.0, 0.0])
        d = np.linalg.norm(x - y)
        v0 = k(x, x)
        expect = v0 * math.exp(-((0.5 * d) ** 2) / 2.0)
        assert k(x, y) == pytest.approx(expect, rel=1e-10)

    def test_symmetry(self):
        k = kernel_fn(KernelSpec("localized", {"N": 4.0, "q": 2, "gamma": 0.8}))
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert k(x, y) == k(y, x)


class TestCanonicalizeSigns:
    def test_flips_negative_peak(self):
        U = np.array([[0.6, -0.8], [-0.8, -0.6]])
        out = canonicalize_signs(U)
        np.testing.assert_allclose(out, [[-0.6, 0.8], [0.8, 0.6]])

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        U = random_orthonormal(5, 3, rng)
        once = canonicalize_signs(U)
        np.testing.assert_array_equal(canonicalize_signs(once), once)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_sign_choice_is_invariant(self, seed):
        rng = np.random.default_rng(seed)
        U = random_orthonormal(6, 2, rng)
        flips = np.array([1.0, -1.0])
        np.testing.assert_allclose(canonicalize_signs(U * flips), canonicalize_signs(U))


class TestGram:
    def test_single_point(self):
        g = gram(KernelSpec("euclidean_rbf", {"gamma": 1.0}), [np.zeros(3)])
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0] == 1.0

    def test_duplicate_points(self):
        pts = [np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.0, 0.0])]
        g = gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), pts)
        assert g.entries[0, 1] == pytest.approx(1.0)
        np.testing.assert_allclose(g.entries[0], g.entries[1])

    def test_matches_pairwise_callable(self):
        rng = np.random.default_rng(21)
        pts = [rng.standard_normal(4) for _ in range(12)]
        spec = KernelSpec("localized", {"N": 4.0, "q": 2, "gamma": 0.8})
        g = gram(spec, pts)
        k = pair_oracle(spec)
        expect = np.array([[k(a, b) for b in pts] for a in pts])
        np.testing.assert_allclose(g.entries, expect, atol=1e-10)

    def test_psd_rbf(self):
        rng = np.random.default_rng(2)
        pts = [rng.standard_normal(3) for _ in range(30)]
        g = gram(KernelSpec("euclidean_rbf", {"gamma": 0.3}), pts)
        eigs = np.linalg.eigvalsh(g.entries)
        assert eigs.min() > -1e-8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram(KernelSpec("euclidean_rbf"), [])

    def test_grassmann_features(self):
        rng = np.random.default_rng(13)
        feats = [SubspaceFeature(U=random_orthonormal(6, 2, rng), S=np.ones(2)) for _ in range(5)]
        g = gram(KernelSpec("grassmann", {"gamma": 0.2}), feats)
        np.testing.assert_allclose(np.diag(g.entries), 1.0, atol=1e-12)
        np.testing.assert_allclose(g.entries, g.entries.T)


def random_subspace_features(count, rng, p=6, r=2):
    return [
        SubspaceFeature(U=random_orthonormal(p, r, rng), S=rng.uniform(1.0, 5.0, r))
        for _ in range(count)
    ]


CROSS_GRAM_SPECS = {
    "grassmann": KernelSpec("grassmann", {"gamma": 0.3}),
    "laplace_svd": KernelSpec("laplace_svd", {"alpha": 0.4, "beta": 0.2}),
    "gaussian_svd": KernelSpec("gaussian_svd", {"alpha": 0.4, "beta": 0.2}),
    "euclidean_rbf": KernelSpec("euclidean_rbf", {"gamma": 0.3}),
    "localized": KernelSpec("localized", {"N": 4.0, "q": 2, "gamma": 0.8}),
}


def cross_gram_points(kind, count, rng):
    if kind in ("grassmann", "laplace_svd", "gaussian_svd"):
        return random_subspace_features(count, rng)
    return [rng.standard_normal(4) for _ in range(count)]


class TestCrossGram:
    @pytest.mark.parametrize("block_elems", [None, 64])
    @pytest.mark.parametrize("kind", list(CROSS_GRAM_SPECS))
    def test_matches_pairwise_oracle(self, kind, block_elems, monkeypatch):
        # block_elems=64 splits the 7 rows of A into several row blocks
        if block_elems is not None:
            monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        rng = np.random.default_rng(31)
        spec = CROSS_GRAM_SPECS[kind]
        A = cross_gram_points(kind, 7, rng)
        B = cross_gram_points(kind, 5, rng) + A[:1]
        k = pair_oracle(spec)
        expect = np.array([[k(a, b) for b in B] for a in A])
        K = cross_gram(spec, A, B)
        assert K.shape == (7, 6)
        np.testing.assert_allclose(K, expect, rtol=1e-12, atol=1e-12)
        # kernel_fn is a 1 x 1 cross_gram. The projection overlaps' gemm
        # depends on the block shape, so a Grassmann pair may differ from
        # its entry of the full matrix in the last bits; the other kinds are
        # bitwise equal
        k = kernel_fn(spec)
        pairs = np.array([[k(a, b) for b in B] for a in A])
        if kind == "grassmann":
            np.testing.assert_allclose(pairs, K, rtol=0, atol=4 * np.finfo(float).eps)
        else:
            assert pairs.tobytes() == K.tobytes()

    @pytest.mark.parametrize("kind", list(CROSS_GRAM_SPECS))
    def test_gram_is_symmetrised_cross_gram(self, kind):
        rng = np.random.default_rng(32)
        spec = CROSS_GRAM_SPECS[kind]
        pts = cross_gram_points(kind, 9, rng)
        G = gram(spec, pts).entries
        np.testing.assert_array_equal(G, G.T)
        np.testing.assert_allclose(G, cross_gram(spec, pts, pts), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize(
        "case, block_elems",
        [("single", None), ("duplicates", None), ("blocks", 512), ("rows", 8),
         ("large", None)],
    )
    @pytest.mark.parametrize("kind", ["euclidean_rbf", "localized", "laplace_svd",
                                      "gaussian_svd"])
    def test_flat_gram_is_exactly_symmetrised_cross_gram(self, kind, case, block_elems,
                                                          monkeypatch):
        # the flat and SVD kinds' statistics are bitwise symmetric, so their
        # triangle Gram is exactly the symmetrised full matrix
        rng = np.random.default_rng(34)
        sizes = {"single": (1, 4), "duplicates": (9, 4), "blocks": (30, 4),
                 "rows": (13, 3), "large": (200, 30)}
        M, dim = sizes[case]
        if kind in ("laplace_svd", "gaussian_svd"):
            # one-column bases: a basis difference has dim floats, as a flat one
            pts = random_subspace_features(M, rng, p=dim, r=1)
        else:
            pts = [rng.standard_normal(dim) for _ in range(M)]
        if case == "duplicates":
            pts[5] = pts[2]
            pts[8] = pts[2]
        if block_elems is not None:
            monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        blocks = list(kernels._row_blocks(M, M * dim))
        if case in ("blocks", "large"):
            assert len(blocks) > 2 and blocks[0].stop - blocks[0].start > 1
        if case == "rows":
            assert all(b.stop - b.start == 1 for b in blocks)
        spec = CROSS_GRAM_SPECS[kind]
        G = gram(spec, pts).entries
        assert G.tobytes() == full_gram_oracle(spec, pts).tobytes()

    @pytest.mark.parametrize("block_elems", [None, 360, 8])
    def test_grassmann_gram_is_symmetrised_cross_gram(self, block_elems, monkeypatch):
        # the projection overlaps' gemm depends on the block shape, so the
        # triangle differs from the full matrix in the last bits only
        rng = np.random.default_rng(36)
        M = 30
        pts = random_subspace_features(M, rng)  # 2 x 2 overlaps, 4 floats a pair
        pts[7] = pts[3]
        if block_elems is not None:
            monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        rows = []
        statistic = kernels._statistic

        def recorded(spec, FA, FB):
            rows.append(len(FA[0]))
            return statistic(spec, FA, FB)

        monkeypatch.setattr(kernels, "_statistic", recorded)
        spec = CROSS_GRAM_SPECS["grassmann"]
        G = gram(spec, pts).entries
        assert rows == {None: [M], 360: [3] * 10, 8: [1] * M}[block_elems]
        np.testing.assert_array_equal(G, G.T)
        np.testing.assert_allclose(G, full_gram_oracle(spec, pts), rtol=0,
                                   atol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("M", [1, 2, 30])
    def test_localized_gram_evaluates_upper_triangle_once(self, M, monkeypatch):
        # every kind: one profile call on the M(M+1)/2 pair statistics on and
        # above the diagonal, over several row blocks at M = 30
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 512)
        calls, profiles = [], []
        real, real_profile = kernels.eval_localized, kernels._profile

        def counting(spec, x):
            calls.append(np.size(x))
            return real(spec, x)

        def counting_profile(spec, s):
            profiles.append((spec.kind, np.size(s)))
            return real_profile(spec, s)

        monkeypatch.setattr(kernels, "eval_localized", counting)
        monkeypatch.setattr(kernels, "_profile", counting_profile)
        rng = np.random.default_rng(35)
        for kind, spec in CROSS_GRAM_SPECS.items():
            gram(spec, cross_gram_points(kind, M, rng))
        assert calls == [M * (M + 1) // 2]
        assert profiles == [(kind, M * (M + 1) // 2) for kind in CROSS_GRAM_SPECS]

    def test_rejects_non_orthonormal_basis(self):
        rng = np.random.default_rng(33)
        spec = CROSS_GRAM_SPECS["grassmann"]
        good = random_subspace_features(3, rng)
        bad = [SubspaceFeature(U=np.ones((6, 2)), S=np.ones(2))]
        with pytest.raises(ValueError, match="orthonormal"):
            cross_gram(spec, good + bad, good)
        with pytest.raises(ValueError, match="orthonormal"):
            cross_gram(spec, good, bad)

    @pytest.mark.parametrize("kind", list(CROSS_GRAM_SPECS))
    def test_rejects_mismatched_shapes(self, kind):
        rng = np.random.default_rng(34)
        spec = CROSS_GRAM_SPECS[kind]
        if kind in ("euclidean_rbf", "localized"):
            A, wide = [rng.standard_normal(4)], [rng.standard_normal(5)]
        else:
            A = random_subspace_features(2, rng)
            wide = random_subspace_features(1, rng, p=7)
        with pytest.raises(ValueError, match="shape mismatch"):
            cross_gram(spec, A, wide)
        with pytest.raises(ValueError, match="shape mismatch"):
            cross_gram(spec, A + wide, A)

    def test_rejects_mismatched_singular_values(self):
        rng = np.random.default_rng(35)
        A = random_subspace_features(2, rng)
        B = [SubspaceFeature(U=A[0].U, S=np.ones(3))]
        with pytest.raises(ValueError, match="shape mismatch"):
            cross_gram(CROSS_GRAM_SPECS["laplace_svd"], A, B)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cross_gram(KernelSpec("euclidean_rbf"), [np.zeros(2)], [])


class TestNonFinite:
    # the localized kernel is finite at every finite distance, so a NaN
    # coordinate is what makes its value NaN
    SPEC = KernelSpec("localized", {"N": 32.0, "q": 18, "gamma": 1.0})
    PTS = [np.array([0.0]), np.array([1.0]), np.array([np.nan])]

    def test_gram_names_kernel_and_entry(self):
        with pytest.raises(ValueError, match=r"localized kernel \(N=32, q=18, gamma=1, "
                                             r"degree 1024\) gave a non-finite value nan "
                                             r"at entry \(0, 2\): .* a coordinate of that "
                                             r"pair is not finite"):
            gram(self.SPEC, self.PTS)

    def test_cross_gram_names_kernel_and_entry(self):
        with pytest.raises(ValueError, match=r"N=32, q=18.* at entry \(1, 0\)"):
            cross_gram(self.SPEC, self.PTS[:1] + [np.array([np.nan])], self.PTS[:1])

    def test_far_distances_finite_at_n32(self):
        # past x = 40, where an unscaled degree-1024 recurrence overflows
        pts = [np.array([0.0]), np.array([1.0]), np.array([41.0]), np.array([60.0])]
        G = gram(self.SPEC, pts)
        assert np.all(np.isfinite(G.entries))
        assert np.all(np.isfinite(cross_gram(self.SPEC, pts[2:], pts[:1])))

    def test_other_kinds_name_their_parameters(self):
        spec = KernelSpec("euclidean_rbf", {"gamma": 1.0})
        with pytest.raises(ValueError, match=r"euclidean_rbf kernel \(gamma=1.0\) gave a "
                                             r"non-finite value nan at entry \(0, 1\)"):
            gram(spec, [np.array([0.0]), np.array([np.nan])])

    def test_finite_far_field_accepted(self):
        pts = [np.array([0.0]), np.array([1.0]), np.array([41.0])]
        G = gram(KernelSpec("localized", {"N": 8.0, "q": 18, "gamma": 1.0}), pts)
        assert np.all(np.isfinite(G.entries))


class TestKernelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelSpec("fourier")

    def test_defaults_merged(self):
        spec = KernelSpec("laplace_svd", {"alpha": 0.5})
        assert spec.params["alpha"] == 0.5
        assert spec.params["beta"] == 0.0042

    def test_localized_property_guard(self):
        with pytest.raises(ValueError):
            _ = KernelSpec("grassmann").localized

    @pytest.mark.parametrize("kind, params, unread", [
        ("grassmann", {"N": 4.0}, "'N'"),
        ("laplace_svd", {"alpha": 0.5, "gamma": 1.0}, "'gamma'"),
        ("euclidean_rbf", {"q": 2, "beta": 0.1}, "'q', 'beta'"),
        ("localized", {"alpha": 0.1}, "'alpha'"),
    ])
    def test_unread_param_refused(self, kind, params, unread):
        # a parameter the kind does not read is named with the kind, not
        # merged into the spec and ignored
        with pytest.raises(ValueError, match=re.escape(f"kernel {kind!r} does not read "
                                                       f"parameter {unread}")):
            KernelSpec(kind, params)

    @pytest.mark.parametrize("kind, key", [
        ("grassmann", "gamma"), ("euclidean_rbf", "gamma"), ("localized", "gamma"),
        ("laplace_svd", "alpha"), ("laplace_svd", "beta"),
        ("gaussian_svd", "alpha"), ("gaussian_svd", "beta"),
    ])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_scale_param_refused(self, kind, key, value):
        # the rule the localized gamma follows holds for every scale parameter
        with pytest.raises(ValueError, match=re.escape(
                f"kernel {kind!r}: {key} must be positive and finite, got {value}")):
            KernelSpec(kind, {key: value})

    @pytest.mark.parametrize("q", [2.5, 0.5, math.nan, math.inf, -math.inf, "2"])
    def test_non_integral_q_refused(self, q):
        # 2.5 would build q = 2 under params naming 2.5; NaN and inf would
        # fail in int() with a message that does not name q
        with pytest.raises(ValueError, match=re.escape(
                f"kernel 'localized': q must be a finite integer, got {q!r}")):
            KernelSpec("localized", {"q": q})

    @pytest.mark.parametrize("q", [2.0, np.float64(3.0), np.int64(4), 5])
    def test_integral_q_held_as_built(self, q):
        spec = KernelSpec("localized", {"N": 4.0, "q": q})
        assert type(spec.params["q"]) is int
        assert spec.params["q"] == spec.localized.q == q

    def test_localized_expansion_is_built_not_passed(self):
        # the expansion always agrees with params: no caller can hand one in
        other = KernelSpec("localized", {"N": 8.0}).localized
        with pytest.raises(TypeError):
            KernelSpec("localized", {"N": 4.0}, _localized=other)
        spec = KernelSpec("localized", {"N": 4.0, "q": 3, "gamma": 0.5})
        loc = spec.localized
        assert (loc.N, loc.q, loc.degree, spec.params["gamma"]) == (4.0, 3, 16, 0.5)
        # the scale is the KernelSpec's alone: the expansion holds N and q
        assert not hasattr(loc, "gamma")


class TestPsiKernel:
    def test_single_node_hand_sum(self):
        spec = KernelSpec("euclidean_rbf", {"gamma": 1.0})
        quad = DiscreteQuadrature(nodes=[np.array([0.0])], weights=[2.0], density_f0=[3.0])
        x, y = np.array([1.0]), np.array([2.0])
        expect = 2.0 * 3.0 * math.exp(-1.0) * math.exp(-4.0)
        assert psi_kernel(spec, quad, x, y) == pytest.approx(expect, rel=1e-12)

    def test_two_node_hand_sum(self):
        spec = KernelSpec("euclidean_rbf", {"gamma": 0.5})
        nodes = [np.array([0.0]), np.array([1.0])]
        quad = DiscreteQuadrature(nodes=nodes, weights=[1.0, 0.5], density_f0=[1.0, 2.0])
        x, y = np.array([0.5]), np.array([1.5])

        def k(a, b):
            return math.exp(-0.5 * (a - b) ** 2)

        expect = 1.0 * 1.0 * k(0.5, 0.0) * k(1.5, 0.0) + 0.5 * 2.0 * k(0.5, 1.0) * k(1.5, 1.0)
        assert psi_kernel(spec, quad, x, y) == pytest.approx(expect, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        spec = KernelSpec("localized", {"N": 2.0, "q": 1, "gamma": 1.0})
        nodes = [rng.standard_normal(2) for _ in range(10)]
        quad = DiscreteQuadrature(nodes=nodes, weights=np.ones(10), density_f0=np.ones(10))
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert psi_kernel(spec, quad, x, y) == pytest.approx(psi_kernel(spec, quad, y, x), rel=1e-12)

    def test_far_apart_points_vanish(self):
        # both factors inherit the localization of the base kernel
        spec = KernelSpec("localized", {"N": 4.0, "q": 2, "gamma": 1.0})
        nodes = [np.array([float(i), 0.0]) for i in range(-2, 3)]
        quad = DiscreteQuadrature(nodes=nodes, weights=np.ones(5), density_f0=np.ones(5))
        near = psi_kernel(spec, quad, np.zeros(2), np.zeros(2))
        far = psi_kernel(spec, quad, np.array([30.0, 0.0]), np.zeros(2))
        assert abs(far) < 1e-6 * abs(near)

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            DiscreteQuadrature(nodes=[np.zeros(1)], weights=[-1.0], density_f0=[1.0])
        with pytest.raises(ValueError):
            DiscreteQuadrature(nodes=[np.zeros(1)], weights=[1.0], density_f0=[0.0])
        with pytest.raises(ValueError):
            DiscreteQuadrature(nodes=[], weights=[], density_f0=[])

    @pytest.mark.parametrize("name", ["weights", "density_f0"])
    @pytest.mark.parametrize("values, count", [
        (np.ones(1), "1 values"), (np.ones(5), "5 values"), (np.ones(25), "25 values"),
        (np.ones((24, 1)), "shape (24, 1)"), (np.float64(1.0), "shape ()"),
    ])
    def test_quadrature_lengths_checked(self, name, values, count):
        # one weight or density value per node: a single one would be
        # broadcast over all 24 nodes, five would fail later in a broadcast
        nodes = [np.array([float(i)]) for i in range(24)]
        arrays = {"weights": np.ones(24), "density_f0": np.ones(24), name: values}
        with pytest.raises(ValueError, match=re.escape(
                f"quadrature {name} has {count} for 24 nodes")):
            DiscreteQuadrature(nodes=nodes, **arrays)
