import warnings

import numpy as np
import pytest
from kernel_oracle import indefinite_oracle, knn_oracle

from lockern import classify, kernels
from lockern.classify import (
    KKT_TOL,
    MAX_PAIR_UPDATES,
    SvmModel,
    MulticlassModel,
    knn_predict,
    label_indicators,
    one_vs_rest_predict,
    one_vs_rest_train,
    svm_predict,
    svm_train_binary,
)
from lockern.experiments import (
    ExperimentConfig,
    _pca_fold,
    _pool_gram,
    _stratified_split,
    gen_synthetic_gestures,
)
from lockern.kernels import GramMatrix, KernelSpec, gram


def euclid(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def blobs(n_per, seed, spread=0.3, gap=4.0):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], spread, (n_per, 2))
    b = rng.normal([gap, 0.0], spread, (n_per, 2))
    X = np.vstack([a, b])
    y = np.array([-1.0] * n_per + [1.0] * n_per)
    return X, y


def smo_oracle(K, y, C):
    """Reference SMO with the selection step as first written: the extremum
    over the index subset picked with flatnonzero and fancy indexing."""
    M = len(y)
    alpha = np.zeros(M)
    grad = -np.ones(M)
    Q = K * np.outer(y, y)
    tau = 1e-12
    for _ in range(MAX_PAIR_UPDATES):
        yg = -y * grad
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        i = int(np.flatnonzero(up)[np.argmax(yg[up])])
        j = int(np.flatnonzero(low)[np.argmin(yg[low])])
        if yg[i] - yg[j] < KKT_TOL:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 0:
            eta = tau
        step = (yg[i] - yg[j]) / eta
        max_i = C - alpha[i] if y[i] > 0 else alpha[i]
        max_j = alpha[j] if y[j] > 0 else C - alpha[j]
        step = min(step, max_i, max_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * (Q[:, i] * y[i] - Q[:, j] * y[j]) * 1.0
    yg = -y * grad
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
    hi = np.max(yg[up]) if up.any() else 0.0
    lo = np.min(yg[low]) if low.any() else 0.0
    bias = (hi + lo) / 2.0
    sv = np.flatnonzero(alpha > 1e-12)
    return alpha[sv] * y[sv], sv, float(bias)


class TestLabelIndicators:
    def test_values(self):
        classes, signs = label_indicators([2, 0, 2, 1])
        assert classes == [0, 1, 2]
        np.testing.assert_array_equal(
            signs,
            [[-1.0, 1.0, -1.0, -1.0], [-1.0, -1.0, -1.0, 1.0], [1.0, -1.0, 1.0, -1.0]],
        )

    def test_explicit_classes(self):
        classes, signs = label_indicators(["a", "a"], classes=["a", "b"])
        assert classes == ["a", "b"]
        np.testing.assert_array_equal(signs, [[1.0, 1.0], [-1.0, -1.0]])

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            label_indicators([0, 3], classes=[0, 1])


class TestSvmBinary:
    def test_two_point_closed_form(self):
        # linear kernel on x = +-1: the dual maximum is alpha = 1/2 each,
        # decision f(x) = x with zero bias
        K = np.array([[1.0, -1.0], [-1.0, 1.0]])
        y = [1.0, -1.0]
        model = svm_train_binary(K, y, C=10.0)
        np.testing.assert_array_equal(model.support_ids, [0, 1])
        np.testing.assert_allclose(model.support_coeffs, [0.5, -0.5], atol=1e-6)
        assert abs(model.bias) < 1e-6
        assert svm_predict(model, K[0][model.support_ids]) == pytest.approx(1.0, abs=1e-3)
        assert svm_predict(model, K[1][model.support_ids]) == pytest.approx(-1.0, abs=1e-3)

    def test_contradictory_duplicates_hit_box(self):
        # one point with both labels: both duals saturate at C
        C = 0.7
        K = np.ones((2, 2))
        model = svm_train_binary(K, [1.0, -1.0], C=C)
        np.testing.assert_allclose(np.sort(model.support_coeffs), [-C, C], atol=1e-9)

    def test_separable_blobs(self):
        X, y = blobs(10, seed=0)
        spec = KernelSpec("euclidean_rbf", {"gamma": 0.5})
        g = gram(spec, list(X))
        model = svm_train_binary(g, y, C=10.0)
        preds = [
            np.sign(svm_predict(model, g.entries[i][model.support_ids])) for i in range(len(y))
        ]
        np.testing.assert_array_equal(preds, y)

    def test_dual_feasibility(self):
        X, y = blobs(15, seed=1, spread=1.5, gap=2.0)  # overlapping classes
        C = 1.0
        g = gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), list(X))
        model = svm_train_binary(g, y, C=C)
        # sum alpha_i y_i = 0 and 0 < alpha_i <= C on the support set
        assert abs(model.support_coeffs.sum()) < 1e-9
        assert np.all(np.abs(model.support_coeffs) <= C + 1e-9)
        assert np.all(np.abs(model.support_coeffs) > 1e-12)

    def test_kernel_scaling_invariance(self):
        # K -> lam*K with C -> C/lam rescales the duals but not the decisions
        X, y = blobs(8, seed=2)
        g = gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), list(X)).entries
        lam = 5.0
        m1 = svm_train_binary(g, y, C=1.0)
        m2 = svm_train_binary(lam * g, y, C=1.0 / lam)
        for i in range(len(y)):
            d1 = svm_predict(m1, g[i][m1.support_ids])
            d2 = svm_predict(m2, lam * g[i][m2.support_ids])
            assert d1 == pytest.approx(d2, abs=1e-3)

    def test_input_validation(self):
        K = np.eye(3)
        with pytest.raises(ValueError):
            svm_train_binary(K, [1.0, -1.0], C=1.0)
        with pytest.raises(ValueError):
            svm_train_binary(K, [1.0, 2.0, -1.0], C=1.0)
        with pytest.raises(ValueError):
            svm_train_binary(K, [1.0, 1.0, 1.0], C=1.0)
        with pytest.raises(ValueError):
            svm_train_binary(K, [1.0, -1.0, 1.0], C=0.0)

    @pytest.mark.parametrize("C", [float("nan"), float("inf"), 0.0])
    def test_C_positive_and_finite(self, C):
        K = np.eye(3)
        message = f"C must be positive and finite, got {C}"
        with pytest.raises(ValueError, match=message):
            svm_train_binary(K, [1.0, -1.0, 1.0], C=C)
        with pytest.raises(ValueError, match=message):
            one_vs_rest_train(K, [0, 1, 2], C=C)

    def test_indefinite_gram_warns(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # min eigenvalue -1
        with pytest.warns(UserWarning, match="indefinite"):
            svm_train_binary(K, [1.0, -1.0], C=1.0)

    def test_definite_gram_skips_eigvalsh(self, monkeypatch):
        def refuse(K):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        X, y = blobs(30, seed=8)
        G = gram(KernelSpec("localized", {"N": 8.0, "q": 2, "gamma": 1.0}), list(X))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svm_train_binary(G, y, C=1.0)
            one_vs_rest_train(G, y, C=1.0)

    @pytest.mark.parametrize("ratio", [-0.5, -2e-3, -5e-4, 0.0, 1e-6, 0.3])
    def test_warning_decision_matches_eigvalsh_oracle(self, ratio):
        # smallest eigenvalue ratio * (mean of the others): on either side of
        # the threshold -1e-3 * trace / M, away from its rounding band
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        eigs = np.linspace(1.0, 3.0, 40)
        eigs[0] = ratio * eigs[1:].mean()
        K = (Q * eigs) @ Q.T
        K = 0.5 * (K + K.T)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            classify._warn_if_indefinite(K)
        assert bool(caught) == indefinite_oracle(K) == (ratio < -1e-3)

    def test_non_finite_gram_named(self):
        K = np.eye(3)
        K[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"Gram matrix has a non-finite value nan "
                                             r"at entry \(1, 2\)"):
            svm_train_binary(K, [1.0, -1.0, 1.0], C=1.0)
        spec = KernelSpec("localized", {"N": 8.0, "q": 2, "gamma": 1.0})
        G = GramMatrix(entries=K, spec=spec)
        with pytest.raises(ValueError, match=r"localized kernel \(N=8, q=2"):
            one_vs_rest_train(G, [0, 1, 2], C=1.0)

    @staticmethod
    def _oracle_problem(case):
        """(K, labels, C) of one test_matches_selection_oracle case."""
        rng = np.random.default_rng(11)
        if case.startswith("rbf"):
            X, y = blobs(20, seed=5, spread=1.5, gap=2.0)
            K = gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), list(X)).entries
            C = {"rbf_overlap": 1.0, "rbf_small_C": 0.05, "rbf_large_C": 100.0}[case]
            return K, y, C
        if case == "localized":
            X = rng.normal(size=(40, 3))
            y = np.where(X[:, 0] + 0.5 * rng.normal(size=40) > 0, 1.0, -1.0)
            return gram(KernelSpec("localized", {"N": 4.0, "q": 3}), list(0.5 * X)).entries, y, 1.0
        if case == "linear":
            X = rng.normal(size=(30, 4))
            y = np.where(rng.uniform(size=30) < 0.4, 1.0, -1.0)
            return X @ X.T, y, 1.0
        if case == "duplicates":
            # y is 12 times -1, then 12 times +1. Points 0 and 12 coincide with
            # opposite labels; with yg = y at the start, ties pick them as the
            # first pair, whose curvature is 0
            X, y = blobs(12, seed=9, spread=1.0, gap=1.5)
            X[[12, 5, 20]] = X[[0, 3, 15]]
            return gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), list(X)).entries, y, 1.0
        # four classes on a localized-kernel Gram, trained one-vs-rest
        centers = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5], [1.5, 1.5]])
        X = np.vstack([rng.normal(c, 0.6, (12, 2)) for c in centers])
        K = gram(KernelSpec("localized", {"N": 4.0, "q": 3}), list(X)).entries
        return K, np.repeat([0, 1, 2, 3], 12), 1.0

    @pytest.mark.parametrize(
        "case",
        ["rbf_overlap", "rbf_small_C", "rbf_large_C", "localized", "linear",
         "duplicates", "four_class"],
    )
    def test_matches_selection_oracle(self, case):
        # the in-place pair update and masked selection must reproduce every
        # iterate, so the results are compared for exact equality
        K, labels, C = self._oracle_problem(case)
        if case == "four_class":
            models = one_vs_rest_train(K, labels, C=C).models
            targets = label_indicators(labels)[1]
            assert len(models) == 4
        else:
            models, targets = [svm_train_binary(K, labels, C=C)], [labels]
        for model, y in zip(models, targets):
            coeffs, ids, bias = smo_oracle(K, y, C)
            np.testing.assert_array_equal(model.support_ids, ids)
            np.testing.assert_array_equal(model.support_coeffs, coeffs)
            assert model.bias == bias
        if case == "rbf_small_C":
            assert np.any(np.abs(model.support_coeffs) == C)  # the box binds
        if case == "rbf_large_C":
            free = (np.abs(model.support_coeffs) > 1e-12) & (np.abs(model.support_coeffs) < C)
            assert free.sum() >= 5
        if case == "duplicates":
            i, j = np.flatnonzero(labels > 0)[0], np.flatnonzero(labels < 0)[0]
            assert K[i, i] + K[j, j] - 2.0 * K[i, j] <= 0  # the tau path runs

    def test_update_cap_warns(self, monkeypatch):
        X, y = blobs(10, seed=1, spread=1.5, gap=2.0)
        K = gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), list(X)).entries
        monkeypatch.setattr(classify, "MAX_PAIR_UPDATES", 1)
        with pytest.warns(RuntimeWarning, match=r"KKT gap .* >= KKT_TOL=0\.001"):
            svm_train_binary(K, y, C=1.0)

    def test_converged_solve_does_not_warn(self):
        X, y = blobs(10, seed=1, spread=1.5, gap=2.0)
        K = gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), list(X)).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svm_train_binary(K, y, C=1.0)

    def test_predict_row_length_checked(self):
        model = SvmModel(
            support_coeffs=np.array([0.5, -0.5]),
            support_ids=np.array([0, 1]),
            bias=0.0,
            spec=None,
            C=1.0,
        )
        assert svm_predict(model, [2.0, 1.0]) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            svm_predict(model, [1.0, 2.0, 3.0])


class TestOneVsRest:
    def test_two_class_matches_binary(self):
        X, y = blobs(8, seed=3)
        g = gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), list(X))
        mc = one_vs_rest_train(g, y, C=5.0)
        binary = svm_train_binary(g, y, C=5.0)
        for i in range(len(y)):
            pred = one_vs_rest_predict(mc, g.entries[i])
            assert pred == np.sign(svm_predict(binary, g.entries[i][binary.support_ids]))

    def test_three_class_blobs(self):
        rng = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        X = np.vstack([rng.normal(c, 0.3, (8, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 8)
        g = gram(KernelSpec("euclidean_rbf", {"gamma": 0.5}), list(X))
        mc = one_vs_rest_train(g, y, C=10.0)
        preds = [one_vs_rest_predict(mc, g.entries[i]) for i in range(len(y))]
        np.testing.assert_array_equal(preds, y)

    def test_tie_breaks_to_lowest_class(self):
        same = SvmModel(
            support_coeffs=np.array([1.0]),
            support_ids=np.array([0]),
            bias=0.0,
            spec=None,
            C=1.0,
        )
        mc = MulticlassModel(models=[same, same], classes=[3, 7])
        assert one_vs_rest_predict(mc, np.array([0.5])) == 3

    def test_indefinite_gram_warns_once(self):
        # one Gram shared by every class: checked once, not once per class
        rng = np.random.default_rng(6)
        A = rng.normal(size=(12, 12))
        K = (A + A.T) / 2.0 + 0.1 * np.eye(12)
        assert np.linalg.eigvalsh(K)[0] < -1e-3 * np.trace(K) / 12
        y = np.repeat([0, 1, 2, 3], 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mc = one_vs_rest_train(K, y, C=1.0)
        assert len(mc.models) == 4
        assert len(caught) == 1
        assert "indefinite" in str(caught[0].message)

    def test_single_class_rejected(self):
        g = gram(KernelSpec("euclidean_rbf"), [np.zeros(2), np.ones(2)])
        with pytest.raises(ValueError):
            one_vs_rest_train(g, [1, 1], C=1.0)


class TestKnn:
    def test_matches_nearest_neighbor_oracle(self):
        rng = np.random.default_rng(5)
        train = [rng.standard_normal(3) for _ in range(40)]
        labels = list(rng.integers(0, 4, 40))
        for _ in range(50):
            x = rng.standard_normal(3)
            nearest = int(np.argmin([euclid(x, f) for f in train]))
            assert knn_predict(train, labels, [x], k=1) == [labels[nearest]]

    def test_majority_vote(self):
        train = [np.array([0.0]), np.array([0.2]), np.array([5.0])]
        labels = ["a", "a", "b"]
        assert knn_predict(train, labels, [np.array([1.0])], k=3) == ["a"]

    def test_tie_breaks_by_mean_distance(self):
        train = [np.array([-1.0]), np.array([2.0])]
        labels = ["far", "near"]
        assert knn_predict(train, labels, [np.array([1.5])], k=2) == ["near"]

    def test_exact_tie_breaks_by_label(self):
        train = [np.array([-1.0]), np.array([1.0])]
        labels = ["b", "a"]
        assert knn_predict(train, labels, [np.array([0.0])], k=2) == ["a"]

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(6)
        train = [rng.standard_normal(2) for _ in range(20)]
        labels = [f"class{i % 3}" for i in range(20)]
        x = rng.standard_normal(2)
        first = knn_predict(train, labels, [x], k=5)
        for _ in range(5):
            assert knn_predict(train, labels, [x], k=5) == first

    def test_k_validation(self):
        train = [np.zeros(1)]
        for k in (0, 2):
            with pytest.raises(ValueError, match="k out of range"):
                knn_predict(train, [0], [np.zeros(1)], k=k)
        with pytest.raises(ValueError, match="empty training set"):
            knn_predict([], [], [np.zeros(1)], k=1)

    def test_unequal_lengths_rejected(self):
        train = [np.zeros(2), np.ones(2)]
        with pytest.raises(ValueError, match="feature shape mismatch"):
            knn_predict(train, [0, 1], [np.zeros(3)], k=1)
        with pytest.raises(ValueError, match="feature shape mismatch"):
            knn_predict([np.zeros(2), np.ones(3)], [0, 1], [np.zeros(2)], k=1)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gesture_folds_match_oracle(self, gesture_folds, k):
        for train_f, labels, test_f in gesture_folds:
            expected = [knn_oracle(train_f, labels, x, k) for x in test_f]
            assert knn_predict(train_f, labels, test_f, k) == expected

    @pytest.mark.parametrize("block_elems", [1000, 1])
    def test_row_blocks_give_same_labels(self, block_elems, monkeypatch):
        rng = np.random.default_rng(8)
        train = list(rng.standard_normal((40, 3)))
        labels = [int(v) for v in rng.integers(0, 4, 40)]
        test = list(rng.standard_normal((300, 3)))
        whole = knn_predict(train, labels, test, k=5)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        assert knn_predict(train, labels, test, k=5) == whole
        assert whole == [knn_oracle(train, labels, x, 5) for x in test]


@pytest.fixture(scope="module")
def gesture_folds():
    """(train features, train labels, test features) of four PCA r=30
    folds, built as run_experiment builds them: two gesture sets, two
    stratified splits each."""
    folds = []
    for seed in (0, 1):
        ds = gen_synthetic_gestures(per_cell=10, seed=seed)
        config = ExperimentConfig(classifier="knn", seed=seed)
        labels = np.array([s.label for s in ds.samples])
        pool_gram = _pool_gram(config, ds)
        for trial in range(2):
            rng = np.random.default_rng(seed + trial)
            train_idx, test_idx = _stratified_split(labels, config.train_ratio, rng)
            train_f, test_f = _pca_fold(pool_gram, config.r, train_idx, test_idx)
            folds.append((train_f, labels[train_idx].tolist(), test_f))
    return folds
