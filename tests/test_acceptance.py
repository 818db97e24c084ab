"""End-to-end acceptance checks for the library.

Each test is one named criterion with an explicit tolerance and a wall-clock
budget; a summary line per criterion is printed after the run.
"""
import math
import time

import numpy as np
import pytest

from lockern.approximation import dominance_diagnostic, error_profile, evaluate
from lockern.classify import knn_predict
from lockern.diagnostics import circle_fit, circle_probes, overfit_errors
from lockern.experiments import ExperimentConfig, gen_synthetic_gestures, run_experiment
from lockern.features import arma_fit
from lockern.hermite import (
    build_localized_kernel,
    eval_localized,
    eval_localized_direct,
)
from lockern.kernels import KernelSpec, gram, kernel_fn


class Budget:
    """Context manager asserting a wall-clock limit."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeds {self.limit}s budget"
        return False


@pytest.fixture(scope="module")
def gesture_dataset():
    return gen_synthetic_gestures(classes=4, subjects=6, per_cell=25, seed=42)


def test_criterion_01_gaussian_reduction():
    with Budget(1.0):
        xs = np.linspace(0.0, 5.0, 201)
        for q in (1, 2, 18):
            spec = build_localized_kernel(1.0, q)
            dev = np.abs(
                eval_localized(spec, xs) * np.exp(xs**2 / 2.0) / eval_localized(spec, 0.0) - 1.0
            )
            assert np.max(dev) < 1e-10


def test_criterion_02_clenshaw_correctness():
    with Budget(5.0):
        xs = np.linspace(0.0, 10.0, 201)
        for N in (1.0, 2.0, 4.0, 8.0):
            for q in (1, 2, 10, 18):
                spec = build_localized_kernel(N, q)
                a = eval_localized(spec, xs)
                b = eval_localized_direct(spec, xs)
                assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(b))


def test_criterion_03_orthonormality():
    from lockern.hermite import _psi_values

    with Budget(5.0):
        xs = np.linspace(-20.0, 20.0, 8001)
        psis = _psi_values(20, xs)
        G = np.trapezoid(psis[:, None, :] * psis[None, :, :], xs, axis=2)
        assert np.max(np.abs(G - np.eye(21))) < 1e-6


def test_criterion_04_localization_envelope():
    from lockern.diagnostics import localization_constant

    with Budget(5.0):
        c4 = localization_constant(4.0, q=2, S=4)
        c8 = localization_constant(8.0, q=2, S=4)
        assert max(c4, c8) / min(c4, c8) < 3.0


def test_criterion_05_interpolation_exactness():
    with Budget(10.0):
        data, model = circle_fit(N=8.0)
        residual = max(
            abs(evaluate(model, y) - t) for y, t in zip(model.nodes, data.truth)
        )
        assert residual < 1e-8
        assert model.dominance_ratio < 0.5


def test_criterion_06_far_field_decay():
    with Budget(10.0):
        sups = {}
        for N in (4.0, 8.0):
            data, model = circle_fit(N=N)
            probes, truth = circle_probes(data)
            prof = error_profile(model, truth, probes)
            eta_t = min(1.0, model.eta / 3.0)
            far = prof.delta > eta_t / 3.0
            sups[N] = float(np.max(np.abs(prof.model_value[far])))
        assert sups[8.0] < sups[4.0]


def test_criterion_07_overfitting_tradeoff():
    with Budget(30.0):
        errs = overfit_errors(gamma=0.6, n_grid=(2.0, 4.0, 8.0, 16.0))
        best = min(errs, key=errs.get)
        assert np.isfinite(errs[best])
        assert best != 16.0  # deterioration at the largest bandwidth
        assert errs[16.0] > errs[best]


def test_criterion_08_arma_recovery():
    with Budget(1.0):
        rng = np.random.default_rng(0)
        C0, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        raw = rng.standard_normal((3, 3))
        A0 = 0.9 * raw / np.abs(np.linalg.eigvals(raw)).max()
        x = rng.standard_normal(3)
        cols = []
        for _ in range(100):
            cols.append(C0 @ x)
            x = A0 @ x
        F = np.column_stack(cols)
        model = arma_fit(F, 3)
        cosines = np.linalg.svd(model.C.T @ C0, compute_uv=False)
        angle = math.acos(min(1.0, float(cosines.min())))
        assert angle < 1e-6
        pred = model.C @ (model.A @ (model.C.T @ F[:, :-1]))
        rel = np.max(np.abs(pred - F[:, 1:])) / np.max(np.abs(F))
        assert rel < 1e-6


def test_criterion_09_grassmann_kernel_properties():
    with Budget(1.0):
        rng = np.random.default_rng(1)
        Q1, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        Q2, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        U1, U2 = Q1[:, :3], Q2[:, :3]
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        from lockern.features import SubspaceFeature

        F1, F2, F1R = (SubspaceFeature(U=U, S=np.ones(3)) for U in (U1, U2, U1 @ R))
        k = kernel_fn(KernelSpec("grassmann"))
        assert abs(k(F1R, F2) - k(F1, F2)) < 1e-10
        assert k(F1, F1) == 1.0
        feats = [F1, F2, F1R]
        G = gram(KernelSpec("grassmann"), feats).entries
        assert np.array_equal(G, G.T)


def test_criterion_10_gesture_classification(gesture_dataset):
    with Budget(180.0):
        svm_cfg = ExperimentConfig(
            preprocessing="binary",
            feature="pca",
            r=30,
            kernel_kind="localized",
            kernel_params={"N": 8.0, "q": 18},
            classifier="svm",
            trials=5,
            seed=42,
        )
        svm_acc = run_experiment(svm_cfg, gesture_dataset).rows[0].accuracy_mean
        knn_cfg = ExperimentConfig(
            preprocessing="binary", feature="pca", r=30, classifier="knn",
            knn_k=5, trials=5, seed=42,
        )
        knn_acc = run_experiment(knn_cfg, gesture_dataset).rows[0].accuracy_mean
        assert svm_acc >= 90.0
        assert abs(svm_acc - knn_acc) <= 5.0


def test_criterion_11_determinism(tmp_path):
    with Budget(360.0):
        config = ExperimentConfig(
            preprocessing="binary",
            feature="pca",
            r=30,
            kernel_kind="localized",
            kernel_params={"N": 8.0, "q": 18},
            classifier="svm",
            trials=5,
            seed=42,
        )
        blobs = []
        for name in ("first", "second"):
            dataset = gen_synthetic_gestures(classes=4, subjects=6, per_cell=25, seed=42)
            table = run_experiment(config, dataset)
            path = tmp_path / f"{name}.csv"
            table.write_csv(path, include_timing=False)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def test_criterion_12_knn_oracle_equivalence():
    def metric(a, b):
        return float(np.linalg.norm(a - b))

    def oracle(train, labels, x, k):
        dists = sorted(range(len(train)), key=lambda i: (metric(x, train[i]), i))[:k]
        votes = {}
        for i in dists:
            cnt, total = votes.get(labels[i], (0, 0.0))
            votes[labels[i]] = (cnt + 1, total + metric(x, train[i]))
        ranked = sorted(
            votes.items(), key=lambda kv: (-kv[1][0], kv[1][1] / kv[1][0], str(kv[0]))
        )
        return ranked[0][0]

    with Budget(1.0):
        rng = np.random.default_rng(2)
        train = [rng.standard_normal(4) for _ in range(60)]
        labels = [int(v) for v in rng.integers(0, 4, 60)]
        for _ in range(200):
            x = rng.standard_normal(4)
            k = int(rng.integers(1, 8))
            assert knn_predict(train, labels, [x], k) == [oracle(train, labels, x, k)]
