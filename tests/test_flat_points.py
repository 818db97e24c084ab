"""Flat point sets enter the library as one (n, d) float matrix. An (n, d)
array, a list of 1-D arrays and a list of equal-shape 2-D arrays (each
ravelled) are the same point set, and every entry point that takes flat
points gives byte-equal results for the three."""
import itertools

import numpy as np
import pytest

from lockern.approximation import minimal_separation
from lockern.classify import knn_predict
from lockern.features import fit_pca, pca_project
from lockern.kernels import KernelSpec, cross_gram, gram

FLAT_SPECS = {
    "euclidean_rbf": KernelSpec("euclidean_rbf", {"gamma": 0.3}),
    "localized": KernelSpec("localized", {"N": 4.0, "q": 2, "gamma": 0.8}),
}
FORMS = ("matrix", "vectors", "blocks")


def points(n, seed):
    """n points of R^6."""
    return np.random.default_rng(seed).standard_normal((n, 6))


def as_form(X, form):
    """The rows of X as a matrix, as 1-D arrays, or as 2 x 3 arrays whose
    ravel is the row."""
    if form == "matrix":
        return X
    if form == "vectors":
        return [x.copy() for x in X]
    return [x.reshape(2, 3).copy() for x in X]


def as_bytes(value) -> bytes:
    return np.asarray(value).tobytes()


class TestThreeForms:
    @pytest.mark.parametrize("kind", list(FLAT_SPECS))
    def test_cross_gram(self, kind):
        spec = FLAT_SPECS[kind]
        A, B = points(7, 1), points(5, 2)
        want = as_bytes(cross_gram(spec, A, B))
        for fa, fb in itertools.product(FORMS, FORMS):
            assert as_bytes(cross_gram(spec, as_form(A, fa), as_form(B, fb))) == want

    @pytest.mark.parametrize("kind", list(FLAT_SPECS))
    def test_gram(self, kind):
        spec = FLAT_SPECS[kind]
        X = points(9, 3)
        results = {as_bytes(gram(spec, as_form(X, form)).entries) for form in FORMS}
        assert len(results) == 1

    def test_minimal_separation(self):
        X = points(11, 4)
        results = {as_bytes(minimal_separation(as_form(X, form))) for form in FORMS}
        assert len(results) == 1

    def test_knn_predict(self):
        train, test = points(20, 5), points(8, 6)
        labels = [int(v) for v in np.random.default_rng(7).integers(0, 3, 20)]
        want = knn_predict(train, labels, test, k=3)
        for ftrain, ftest in itertools.product(FORMS, FORMS):
            assert knn_predict(as_form(train, ftrain), labels, as_form(test, ftest), k=3) == want


RAGGED = [np.zeros(6), np.zeros(5)]
SAME_SIZE_OTHER_SHAPE = [np.zeros(6), np.zeros((2, 3))]


class TestRefusals:
    @pytest.mark.parametrize("bad", [RAGGED, SAME_SIZE_OTHER_SHAPE], ids=["ragged", "shapes"])
    @pytest.mark.parametrize("kind", list(FLAT_SPECS))
    def test_kernels_refuse_mixed_shapes(self, kind, bad):
        spec = FLAT_SPECS[kind]
        with pytest.raises(ValueError, match="feature shape mismatch"):
            cross_gram(spec, bad, points(3, 9))
        with pytest.raises(ValueError, match="feature shape mismatch"):
            cross_gram(spec, points(3, 9), bad)
        with pytest.raises(ValueError, match="feature shape mismatch"):
            gram(spec, bad)

    def test_minimal_separation_and_knn_refuse_ragged(self):
        with pytest.raises(ValueError, match="feature shape mismatch"):
            minimal_separation(RAGGED)
        with pytest.raises(ValueError, match="feature shape mismatch"):
            knn_predict(RAGGED, [0, 1], [np.zeros(6)], k=1)
        with pytest.raises(ValueError, match="feature shape mismatch"):
            knn_predict(points(3, 10), [0, 1, 2], RAGGED, k=1)

    @pytest.mark.parametrize("empty", [[], np.empty((0, 6))], ids=["list", "matrix"])
    @pytest.mark.parametrize("kind", list(FLAT_SPECS))
    def test_empty_set_refused(self, kind, empty):
        spec = FLAT_SPECS[kind]
        with pytest.raises(ValueError, match="no points"):
            cross_gram(spec, empty, points(3, 11))
        with pytest.raises(ValueError, match="no points"):
            cross_gram(spec, points(3, 11), empty)
        with pytest.raises(ValueError, match="no points"):
            gram(spec, empty)

    def test_non_numeric_error_kept(self):
        # only numpy's ragged-sequence error becomes "feature shape mismatch"
        with pytest.raises(ValueError, match="could not convert"):
            gram(FLAT_SPECS["euclidean_rbf"], [["a", "b"]])


class TestPcaProjectRows:
    def basis(self):
        X = np.random.default_rng(12).standard_normal((40, 12)) * np.linspace(3.0, 0.5, 12)
        return fit_pca(X, 5), X

    def test_row_matrix_matches_per_row_calls(self):
        basis, X = self.basis()
        rows = pca_project(basis, X)
        per_row = np.array([pca_project(basis, x) for x in X])
        # the matrix-vector form each sample was once projected by
        oracle = np.array([basis.components.T @ (x - basis.mean) for x in X])
        assert rows.shape == (40, 5)
        for want in (per_row, oracle):
            assert np.max(np.abs(rows - want)) <= 1e-12 * np.max(np.abs(want))

    def test_vector_keeps_shape(self):
        basis, X = self.basis()
        assert pca_project(basis, X[0]).shape == (5,)
        assert pca_project(basis, X[0].tolist()).shape == (5,)

    @pytest.mark.parametrize("shape", [(11,), (3, 11), (2, 3, 12)])
    def test_wrong_shape_refused(self, shape):
        basis, _ = self.basis()
        with pytest.raises(ValueError, match="length 12"):
            pca_project(basis, np.zeros(shape))
