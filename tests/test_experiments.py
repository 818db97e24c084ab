import math
import re
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from lockern import experiments, kernels
from lockern.experiments import (
    ExperimentConfig,
    MissingClassError,
    gen_circle,
    gen_synthetic_gestures,
    holdout_subject,
    run_experiment,
    sweep_dimension,
    sweep_train_fraction,
    _pca_fold,
    _PoolGram,
    _preprocessed,
    _preprocessed_samples,
    _single_blocks,
    _stratified_split,
)
from lockern.features import (
    RankError, Spectrogram, fit_pca, pca_project, svd_features, zero_pad_stack,
)
from preprocess_oracle import preprocess_oracle


def _padded_pool(specs, target_frames, binary=False):
    """`_PoolGram.of_padded` of a list of preprocessed spectrograms."""
    return _PoolGram.of_padded(_single_blocks(enumerate(specs)), len(specs), target_frames,
                               binary)


@pytest.fixture(scope="module")
def small_gestures():
    return gen_synthetic_gestures(per_cell=4, seed=42)


class TestGenCircle:
    def test_unit_norms(self):
        data = gen_circle(Q=5, M=16, noise_sigma=0.0, seed=0)
        np.testing.assert_allclose(np.linalg.norm(data.points, axis=1), 1.0, atol=1e-12)

    def test_antipodal_distance(self):
        data = gen_circle(Q=3, M=8, noise_sigma=0.0, seed=1)
        assert np.linalg.norm(data.points[0] - data.points[4]) == pytest.approx(2.0, abs=1e-12)

    def test_adjacent_chordal_distance(self):
        M = 20
        data = gen_circle(Q=4, M=M, noise_sigma=0.0, seed=2)
        d = np.linalg.norm(data.points[0] - data.points[1])
        assert d == pytest.approx(2.0 * math.sin(math.pi / M), rel=1e-12)

    def test_truth_values(self):
        data = gen_circle(Q=2, M=12, seed=3)
        np.testing.assert_allclose(data.truth, np.sin(3.0 * data.angles))

    def test_noise_perturbs(self):
        clean = gen_circle(Q=3, M=10, noise_sigma=0.0, seed=4)
        noisy = gen_circle(Q=3, M=10, noise_sigma=0.1, seed=4)
        assert np.max(np.abs(clean.points - noisy.points)) > 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_circle(Q=1, M=10)
        with pytest.raises(ValueError):
            gen_circle(Q=2, M=1)


class TestGenGestures:
    def test_counts_and_metadata(self, small_gestures):
        ds = small_gestures
        assert len(ds.samples) == 4 * 6 * 4
        assert ds.classes == 4
        assert ds.subjects == list("ABCDEF")
        labels = {s.label for s in ds.samples}
        assert labels == {0, 1, 2, 3}
        for s in ds.samples:
            assert s.state == "magnitude"
            assert s.data.shape[0] == 64

    def test_widths_vary(self, small_gestures):
        widths = {s.data.shape[1] for s in small_gestures.samples}
        assert len(widths) > 5

    def test_classes_are_separated(self, small_gestures):
        # mean within-class feature distance below mean between-class distance
        from lockern.features import zero_pad_stack

        ds = small_gestures
        target = max(s.data.shape[1] for s in ds.samples)
        feats, labels = [], []
        for i, spec in _preprocessed_samples("binary", ds.samples,
                                             range(0, len(ds.samples), 4)):
            feats.append(zero_pad_stack([spec], target)[0])
            labels.append(ds.samples[i].label)
        feats = np.stack(feats)
        labels = np.array(labels)
        within, between = [], []
        for i in range(len(feats)):
            for j in range(i + 1, len(feats)):
                d = np.linalg.norm(feats[i] - feats[j])
                (within if labels[i] == labels[j] else between).append(d)
        assert np.mean(within) < np.mean(between)

    def test_deterministic(self):
        a = gen_synthetic_gestures(per_cell=2, seed=7)
        b = gen_synthetic_gestures(per_cell=2, seed=7)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.data, sb.data)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_synthetic_gestures(classes=0)
        with pytest.raises(ValueError):
            gen_synthetic_gestures(classes=9)


class TestStratifiedSplit:
    def test_per_class_counts(self):
        labels = np.repeat([0, 1, 2], 10)
        rng = np.random.default_rng(0)
        train, test = _stratified_split(labels, 0.8, rng)
        assert len(train) == 24 and len(test) == 6
        for c in (0, 1, 2):
            assert np.sum(labels[train] == c) == 8
            assert np.sum(labels[test] == c) == 2

    def test_disjoint_cover(self):
        labels = np.repeat([0, 1], 7)
        rng = np.random.default_rng(1)
        train, test = _stratified_split(labels, 0.6, rng)
        assert set(train) & set(test) == set()
        assert sorted(list(train) + list(test)) == list(range(14))

    def test_keeps_one_test_sample(self):
        # rounding never empties either side of a multi-sample class
        labels = np.array([0, 0, 0, 1, 1, 1])
        rng = np.random.default_rng(2)
        train, test = _stratified_split(labels, 0.99, rng)
        for c in (0, 1):
            assert np.sum(labels[train] == c) >= 1
            assert np.sum(labels[test] == c) >= 1


class TestFeatureExtraction:
    def test_pca_fit_on_train_only(self, small_gestures):
        # a fold's training features never depend on its test fold: with the
        # test spectrograms replaced by random data of the same shapes, the
        # pool Gram's test rows change and the training features stay byte
        # for byte the same
        ds = small_gestures
        config = ExperimentConfig(r=5)
        target = max(s.data.shape[1] for s in ds.samples)
        labels = np.array([s.label for s in ds.samples])
        pairs = _preprocessed_samples(config.preprocessing, ds.samples, range(len(ds.samples)))
        per_sample = [spectrogram for _, spectrogram in pairs]
        train, test = _stratified_split(labels, config.train_ratio, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        randomised = list(per_sample)
        for i in test:
            randomised[i] = replace(per_sample[i], data=rng.random(per_sample[i].data.shape))
        fa, ta = _pca_fold(_padded_pool(per_sample, target), config.r, train, test)
        fb, tb = _pca_fold(_padded_pool(randomised, target), config.r, train, test)
        assert fa.tobytes() == fb.tobytes()
        assert not np.allclose(ta, tb)

    @pytest.mark.parametrize("seed, mode", [(0, "binary"), (1, "unit"), (2, "magnitude")])
    def test_pooled_features_match_public_path(self, seed, mode):
        # the fold's kernel PCA of the pool Gram spans fit_pca's subspace,
        # and its coordinates are pca_project's up to each column's sign,
        # both sides scaled by the training side's nearest-neighbor scale
        ds = gen_synthetic_gestures(per_cell=10, seed=seed)
        config = ExperimentConfig(preprocessing=mode, r=30)
        labels = np.array([s.label for s in ds.samples])
        target = max(s.data.shape[1] for s in ds.samples)
        pairs = _preprocessed_samples(config.preprocessing, ds.samples, range(len(ds.samples)))
        per_sample = [spectrogram for _, spectrogram in pairs]
        train, test = _stratified_split(labels, config.train_ratio, np.random.default_rng(seed))
        pool = _padded_pool(per_sample, target, binary=mode == "binary")
        got_train, got_test = _pca_fold(pool, config.r, train, test)
        train_mat = zero_pad_stack([per_sample[i] for i in train], target)
        basis = fit_pca(train_mat, config.r)
        want_train = pca_project(basis, train_mat)
        want_test = pca_project(basis, zero_pad_stack([per_sample[i] for i in test], target))
        scale = experiments._nn_scale(want_train)
        want_train *= scale
        want_test *= scale
        # the pooled path's directions in the padded space: Xc' times its
        # training coordinates
        directions = (train_mat - basis.mean).T @ got_train
        assert np.max(subspace_angles(directions, basis.components)) <= 1e-8
        signs = np.sign(np.sum(got_train * want_train, axis=0))
        tol = 1e-10 * max(np.abs(want_train).max(), np.abs(want_test).max())
        np.testing.assert_allclose(got_train * signs, want_train, rtol=0, atol=tol)
        np.testing.assert_allclose(got_test * signs, want_test, rtol=0, atol=tol)

    @pytest.mark.parametrize("seed", range(20))
    def test_pooled_rank_rule(self, seed):
        # fit_pca's refusals on the pooled path: r above min(m, D), and an
        # r-th eigenvalue at most m * eps * the largest. The data are rank
        # two, about a mean of zero and about a mean that dominates the
        # spread: there the pooled Gram's rounding, of the size of eps times
        # its largest uncentred entry, once passed the rule (seeds 18, 19)
        train, test = np.arange(8), np.arange(8, 10)
        for draw in (np.random.default_rng(seed).standard_normal,
                     np.random.default_rng(seed).random):
            A, B = draw((2, 4, 3))
            specs = [Spectrogram(a * A + b * B) for a, b in draw((10, 2))]
            pool = _padded_pool(specs, 3)
            assert [f.shape for f in _pca_fold(pool, 2, train, test)] == [(8, 2), (2, 2)]
            with pytest.raises(RankError, match=re.escape("data rank below r=3; lower r")):
                fit_pca(zero_pad_stack(specs[:8], 3), 3)
            with pytest.raises(RankError, match=re.escape("data rank below r=3; lower r")):
                _pca_fold(pool, 3, train, test)
            with pytest.raises(RankError, match=re.escape("r=13 out of range for 8x12 data")):
                _pca_fold(pool, 13, train, test)

    def test_svd_feature_shape(self, small_gestures):
        config = ExperimentConfig(feature="svd", kernel_kind="grassmann", r=4)
        pre = _preprocessed_samples(config.preprocessing, small_gestures.samples, range(6))
        per_sample = [svd_features(spectrogram, config.r) for _, spectrogram in pre]
        assert all(f.U.shape == (64, 4) and f.S.shape == (4,) for f in per_sample)

    def test_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature kind 'wavelet'"):
            ExperimentConfig(feature="wavelet")


def _record_calls(monkeypatch, name):
    """List of the first argument of each call to the `experiments` module
    attribute `name`, a list argument flattened into its items; holding them
    keeps their ids distinct."""
    args = []
    fn = getattr(experiments, name)

    def recorded(arg, *rest, **kwargs):
        args.extend(arg if isinstance(arg, list) else [arg])
        return fn(arg, *rest, **kwargs)

    monkeypatch.setattr(experiments, name, recorded)
    return args


def _once_each(args, objects) -> bool:
    return Counter(map(id, args)) == Counter(map(id, objects))


class TestPerSampleWorkOnce:
    def test_holdout_preprocesses_and_decomposes_each_sample_once(
            self, small_gestures, monkeypatch):
        preprocessed = _record_calls(monkeypatch, "preprocess")
        decomposed = _record_calls(monkeypatch, "svd_features")
        config = ExperimentConfig(feature="svd", r=3, kernel_kind="grassmann")
        holdout_subject(config, small_gestures)
        assert _once_each(preprocessed, small_gestures.samples)
        # svd_features sees the preprocessed copies: one call per copy
        assert len(decomposed) == len(small_gestures.samples)
        assert len(set(map(id, decomposed))) == len(decomposed)

    def test_trials_preprocess_each_sample_once(self, small_gestures, monkeypatch):
        preprocessed = _record_calls(monkeypatch, "preprocess")
        config = ExperimentConfig(classifier="knn", knn_k=1, r=6, trials=3, seed=42)
        run_experiment(config, small_gestures)
        assert _once_each(preprocessed, small_gestures.samples)

    def test_sweeps_preprocess_each_sample_once(self, small_gestures, monkeypatch):
        preprocessed = _record_calls(monkeypatch, "preprocess")
        decomposed = _record_calls(monkeypatch, "svd_features")
        config = ExperimentConfig(feature="svd", kernel_kind="grassmann", trials=1)
        out = sweep_dimension(config, small_gestures, [2, 3, 4, 5])
        assert all(isinstance(table, experiments.ResultTable) for _, table in out)
        assert _once_each(preprocessed, small_gestures.samples)
        # SVD features depend on r: once per sample and r value
        assert len(decomposed) == 4 * len(small_gestures.samples)

        preprocessed.clear()
        knn = ExperimentConfig(classifier="knn", knn_k=1, r=6, trials=2, seed=42)
        sweep_train_fraction(knn, small_gestures, fractions=(0.4, 0.6, 1.0))
        assert _once_each(preprocessed, small_gestures.samples)


class TestPreprocessed:
    @pytest.mark.parametrize("mode", ["binary", "unit", "magnitude"])
    def test_matches_per_sample_oracle(self, small_gestures, mode):
        samples = small_gestures.samples
        pairs = list(_preprocessed_samples(mode, samples, range(len(samples))))
        assert [i for i, _ in pairs] == list(range(len(samples)))
        for i, spec in pairs:
            expected = preprocess_oracle(samples[i], mode)
            assert spec.data.tobytes() == expected.data.tobytes()
            assert spec.state == expected.state

    @pytest.mark.parametrize("mode", ["binary", "unit"])
    def test_small_blocks_match_per_sample_oracle(self, small_gestures, monkeypatch, mode):
        # 64 x 15-63 spectrograms: with a 2,500-element bound the wider ones
        # form blocks alone and the narrower ones share blocks
        monkeypatch.setattr(experiments, "_PREPROCESS_BLOCK_ELEMS", 2500)
        blocks = []
        preprocess = experiments.preprocess

        def recorded(specs, mode):
            blocks.append(specs)
            return preprocess(specs, mode)

        monkeypatch.setattr(experiments, "preprocess", recorded)
        samples = small_gestures.samples
        indices = list(range(len(samples) - 1, -1, -3))
        pairs = list(_preprocessed_samples(mode, samples, indices))
        assert [i for i, _ in pairs] == indices
        for i, spec in pairs:
            assert spec.data.tobytes() == preprocess_oracle(samples[i], mode).data.tobytes()
        assert {len(b) == 1 for b in blocks} == {True, False}
        for block in blocks:
            elems = sum(s.data.size for s in block)
            assert len(block) == 1 or elems <= 2500

    def test_error_names_samples_of_block(self, small_gestures):
        samples = list(small_gestures.samples[:5])
        samples[3] = replace(samples[3], data=np.full(samples[3].data.shape, np.nan))
        with pytest.raises(ValueError, match="samples 0, 1, 2, 3, 4: sample 3: .*not finite"):
            list(_preprocessed("binary", samples, range(5)))


class TestRunExperiment:
    def test_knn_perfect_on_easy_data(self, small_gestures):
        config = ExperimentConfig(classifier="knn", knn_k=1, r=10, trials=1, seed=42)
        table = run_experiment(config, small_gestures)
        row = table.rows[0]
        assert row.method == "PCA KNN"
        assert row.accuracy_mean > 90.0
        assert row.accuracy_var == 0.0  # single trial
        assert row.train_time_s >= 0.0

    def test_localized_svm_runs(self, small_gestures):
        config = ExperimentConfig(
            kernel_kind="localized", kernel_params={"N": 8.0}, r=8, trials=1, seed=42
        )
        table = run_experiment(config, small_gestures)
        assert table.rows[0].method == "PCA LocSVM64"
        assert table.rows[0].accuracy_mean > 50.0

    def test_reproducible(self, small_gestures):
        config = ExperimentConfig(classifier="knn", knn_k=3, r=6, trials=2, seed=9)
        a = run_experiment(config, small_gestures).rows[0]
        b = run_experiment(config, small_gestures).rows[0]
        assert a.accuracy_mean == b.accuracy_mean
        assert a.accuracy_var == b.accuracy_var

    def test_acceptance_csv_bytes_pinned(self, tmp_path):
        # results_notiming.csv of acceptance criterion 11's configuration,
        # as written before preprocessing was batched (commit f854029)
        config = ExperimentConfig(
            preprocessing="binary", feature="pca", r=30, kernel_kind="localized",
            kernel_params={"N": 8.0, "q": 18}, classifier="svm", trials=5, seed=42,
        )
        dataset = gen_synthetic_gestures(classes=4, subjects=6, per_cell=25, seed=42)
        path = tmp_path / "results_notiming.csv"
        run_experiment(config, dataset).write_csv(path, include_timing=False)
        assert path.read_bytes() == (
            b"method,r,accuracy_mean,accuracy_var\n"
            b"PCA LocSVM64,30,99.66666666666667,0.16666666666666477\n"
        )

    @pytest.mark.parametrize("kwargs, message", [
        (dict(preprocessing="log"), "unknown preprocessing 'log'"),
        (dict(feature="wavelet"), "unknown feature kind 'wavelet'"),
        (dict(classifier="svn"), "unknown classifier 'svn'"),
        (dict(feature="svd", classifier="knn"), "classifier knn with feature svd"),
        (dict(classifier="knn", kernel_params={"q": 2}),
         "classifier knn uses no kernel, so kernel parameters 'q' would have no effect"),
        (dict(kernel_kind="fourier"), "unknown kernel kind 'fourier'"),
        (dict(kernel_params={"beta": 0.1}), "kernel 'localized' does not read parameter 'beta'"),
        (dict(feature="svd"), "kernel 'localized' does not take feature svd; "
                              "feature svd takes grassmann, laplace_svd, gaussian_svd"),
        (dict(feature="svd", kernel_kind="euclidean_rbf"),
         "kernel 'euclidean_rbf' does not take feature svd"),
        (dict(kernel_kind="laplace_svd"), "kernel 'laplace_svd' does not take feature pca; "
                                          "feature pca takes euclidean_rbf, localized"),
        (dict(r=0), "feature dimension r=0 is below 1"),
        (dict(trials=0), "trials must be >= 1"),
        (dict(train_ratio=0.0), "train_ratio 0.0 is outside (0, 1)"),
        (dict(train_ratio=1.0), "train_ratio 1.0 is outside (0, 1)"),
        (dict(train_ratio=1.5), "train_ratio 1.5 is outside (0, 1)"),
        (dict(train_ratio=float("nan")), "train_ratio nan is outside (0, 1)"),
        (dict(C=0.0), "C must be positive and finite, got 0.0"),
        (dict(C=-1.0), "C must be positive and finite, got -1.0"),
        (dict(C=float("nan")), "C must be positive and finite, got nan"),
        (dict(C=float("inf")), "C must be positive and finite, got inf"),
        (dict(classifier="knn", knn_k=0), "knn_k=0 is below 1"),
        (dict(kernel_params={"q": 0}), "q must be a positive integer"),
        (dict(kernel_params={"q": -3}), "q must be a positive integer"),
        (dict(kernel_params={"N": 0.5}), "N must be >= 1 and finite, got 0.5"),
        (dict(kernel_params={"N": 0.0}), "N must be >= 1 and finite, got 0.0"),
        (dict(kernel_params={"gamma": float("nan")}),
         "kernel 'localized': gamma must be positive and finite, got nan"),
        (dict(kernel_kind="euclidean_rbf", kernel_params={"gamma": -1.0}),
         "kernel 'euclidean_rbf': gamma must be positive and finite, got -1.0"),
        (dict(feature="svd", kernel_kind="grassmann", kernel_params={"gamma": -3.0}),
         "kernel 'grassmann': gamma must be positive and finite, got -3.0"),
        (dict(feature="svd", kernel_kind="laplace_svd", kernel_params={"alpha": -1.0}),
         "kernel 'laplace_svd': alpha must be positive and finite, got -1.0"),
        (dict(feature="svd", kernel_kind="gaussian_svd", kernel_params={"beta": float("inf")}),
         "kernel 'gaussian_svd': beta must be positive and finite, got inf"),
    ])
    def test_invalid_field_refused_at_construction(self, monkeypatch, kwargs, message):
        preprocessed = _record_calls(monkeypatch, "preprocess")
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**kwargs)
        assert str(info.value).startswith(message)
        assert preprocessed == []

    def test_svd_knn_rejected_before_preprocessing(self, small_gestures, monkeypatch):
        # a config that no fold can run is refused at construction, so no
        # entry point gets it; an r or a fraction passed to a sweep is
        # refused by the sweep before any sample is preprocessed
        preprocessed = _record_calls(monkeypatch, "preprocess")
        cases = [
            (dict(feature="svd", classifier="knn", r=3, trials=1),
             "classifier knn with feature svd"),
            (dict(classifier="svn", r=3, trials=1), "unknown classifier 'svn'"),
            (dict(feature="svd", kernel_kind="grassmann", r=3, trials=0),
             "trials must be >= 1"),
            (dict(r=0, trials=1), re.escape("feature dimension r=0 is below 1")),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**kwargs)
        config = ExperimentConfig(r=3, trials=1)
        for r in (0, -2):
            with pytest.raises(ValueError, match=re.escape(f"feature dimension r={r} is below 1")):
                sweep_dimension(config, small_gestures, [2, r])
        for frac in (-0.5, 0.0, 1.5, float("nan")):
            with pytest.raises(ValueError,
                               match=re.escape(f"training fraction {frac} is outside (0, 1]")):
                sweep_train_fraction(config, small_gestures, (0.5, frac))
        assert preprocessed == []

    def test_unread_kernel_params_rejected_before_preprocessing(self, small_gestures,
                                                                monkeypatch):
        # a kernel parameter that nothing reads: any under k-NN, which uses
        # no kernel, or one outside the SVM kernel's own parameters
        preprocessed = _record_calls(monkeypatch, "preprocess")
        cases = [
            (dict(classifier="knn", r=3, trials=1, kernel_params={"gamma": 0.5, "alpha": 0.1}),
             "classifier knn uses no kernel, so kernel parameters 'gamma', 'alpha'"),
            (dict(feature="svd", kernel_kind="grassmann", r=3, trials=1,
                  kernel_params={"N": 4.0}),
             "kernel 'grassmann' does not read parameter 'N'"),
            (dict(kernel_kind="fourier", r=3, trials=1), "unknown kernel kind 'fourier'"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                ExperimentConfig(**kwargs)
        assert preprocessed == []

    def test_localized_q_default_is_kernel_spec_default(self):
        assert ExperimentConfig(r=30).kernel.params["q"] == 18
        assert kernels.KernelSpec("localized").params["q"] == 18

    def test_trials_validated(self, small_gestures):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(trials=0), small_gestures)

    def test_method_names(self):
        assert ExperimentConfig(feature="pca", classifier="knn").method_name() == "PCA KNN"
        # the default localized kernel has N=4, so degree 2*floor(N^2/2) = 16
        assert ExperimentConfig().method_name() == "PCA LocSVM16"
        assert (
            ExperimentConfig(kernel_params={"N": 8.0}).method_name() == "PCA LocSVM64"
        )
        assert (
            ExperimentConfig(kernel_params={"N": 4.0}).method_name() == "PCA LocSVM16"
        )
        assert (
            ExperimentConfig(feature="svd", kernel_kind="grassmann").method_name()
            == "grassmann SVD SVM"
        )

    def test_method_name_builds_no_kernel(self, small_gestures, monkeypatch):
        # the config builds its one localized kernel; its method name and
        # the protocols that run it build none
        builds = []
        build = kernels.build_localized_kernel

        def counting(*args, **kwargs):
            builds.append(kwargs)
            return build(*args, **kwargs)

        monkeypatch.setattr(kernels, "build_localized_kernel", counting)
        config = ExperimentConfig(kernel_params={"N": 8.0, "q": 18}, r=6, trials=1)
        assert (len(builds), config.kernel.localized.q) == (1, 6)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel built")

        monkeypatch.setattr(kernels, "build_localized_kernel", refuse)
        assert config.method_name() == "PCA LocSVM64"
        run_experiment(config, small_gestures)
        holdout_subject(config, small_gestures)


class TestSweeps:
    def test_dimension_sweep_clamps_q(self, small_gestures):
        config = ExperimentConfig(
            kernel_kind="localized", kernel_params={"N": 4.0, "q": 18}, trials=1, seed=42
        )
        out = sweep_dimension(config, small_gestures, [2, 6])
        assert [r for r, _ in out] == [2, 6]
        for _, table in out:
            assert isinstance(table, experiments.ResultTable)
            assert table.rows[0].accuracy_mean >= 25.0

    def test_dimension_sweep_skips_invalid_svd_rank(self, small_gestures):
        config = ExperimentConfig(feature="svd", kernel_kind="grassmann", trials=1, seed=42)
        out = sweep_dimension(config, small_gestures, [2, 10_000])
        assert isinstance(out[0][1], experiments.ResultTable)
        assert isinstance(out[1][1], RankError)
        assert str(out[1][1]).startswith("r=10000 out of range for 64x")

    def test_dimension_sweep_skips_pca_rank(self, small_gestures):
        config = ExperimentConfig(classifier="knn", knn_k=1, trials=1, seed=42)
        out = sweep_dimension(config, small_gestures, [2, 10_000])
        assert isinstance(out[0][1], experiments.ResultTable)
        assert isinstance(out[1][1], RankError)
        # fit_pca's message: the training fold's size by the padded length
        frames = max(s.data.shape[1] for s in small_gestures.samples)
        assert str(out[1][1]) == f"r=10000 out of range for 76x{64 * frames} data"

    def test_sweeps_propagate_other_errors(self, small_gestures, monkeypatch):
        # a plain ValueError is not a rank or missing-class cause
        def failing(*args):
            raise ValueError("not a skip")

        monkeypatch.setattr(experiments, "_fit_and_score", failing)
        config = ExperimentConfig(trials=1, seed=42)
        with pytest.raises(ValueError, match="not a skip"):
            sweep_dimension(config, small_gestures, [2, 6])
        with pytest.raises(ValueError, match="not a skip"):
            sweep_train_fraction(config, small_gestures, fractions=(0.5,))

    def test_sweep_skips_missing_class(self, small_gestures, monkeypatch):
        def missing(*args):
            raise MissingClassError("a class is missing from the training fold")

        monkeypatch.setattr(experiments, "_fit_and_score", missing)
        config = ExperimentConfig(classifier="knn", knn_k=1, r=6, trials=1, seed=42)
        (out,) = sweep_train_fraction(config, small_gestures, fractions=(0.5,))
        assert isinstance(out[1], MissingClassError)

    def test_fraction_one_matches_plain_run(self, small_gestures):
        config = ExperimentConfig(classifier="knn", knn_k=1, r=6, trials=1, seed=42)
        out = sweep_train_fraction(config, small_gestures, fractions=(1.0,))
        plain = run_experiment(config, small_gestures)
        assert out[0][1].rows[0].accuracy_mean == plain.rows[0].accuracy_mean

    def test_fraction_sweep_shrinks_pool(self, small_gestures):
        config = ExperimentConfig(classifier="knn", knn_k=1, r=6, trials=1, seed=42)
        out = sweep_train_fraction(config, small_gestures, fractions=(0.3, 1.0))
        assert all(isinstance(table, experiments.ResultTable) for _, table in out)


def _noised_gestures(seed, scale=2.0):
    """A 120-sample gesture set with Rayleigh(scale) noise on every
    magnitude, which takes subject-holdout accuracy off the ceiling."""
    ds = gen_synthetic_gestures(per_cell=5, seed=seed)
    rng = np.random.default_rng(seed)
    samples = [replace(s, data=s.data + rng.rayleigh(scale, s.data.shape)) for s in ds.samples]
    return replace(ds, samples=samples)


class TestPoolGram:
    @pytest.mark.parametrize("kind", ["grassmann", "laplace_svd", "gaussian_svd"])
    def test_slices_match_per_fold_kernels(self, small_gestures, kind):
        # two pools: every sample with the subject-holdout folds, and a
        # training-fraction sweep's strict, non-contiguous subset with its
        # stratified splits; folds are positions in the pool
        config = ExperimentConfig(feature="svd", r=4, kernel_kind=kind, trials=3)
        samples = small_gestures.samples
        labels = np.array([s.label for s in samples])
        subjects = np.array([s.subject for s in samples])
        subset, _ = _stratified_split(labels, 0.6, np.random.default_rng(config.seed))
        pools = [
            (np.arange(len(samples)), [(np.flatnonzero(subjects != subject),
                                        np.flatnonzero(subjects == subject))
                                       for subject in small_gestures.subjects]),
            (subset, experiments._splits(config, labels[subset])),
        ]
        spec = config.kernel
        tol = 4 * np.finfo(float).eps
        for pool_idx, folds in pools:
            pairs = _preprocessed_samples(config.preprocessing, samples, pool_idx)
            per_sample = [svd_features(spectrogram, config.r) for _, spectrogram in pairs]
            pool = _PoolGram.of_kernel(spec, per_sample)
            for train, test in folds:
                train_f = [per_sample[i] for i in train]
                G = pool.train_block(train)
                assert np.array_equal(G, G.T)
                np.testing.assert_allclose(G, kernels.gram(spec, train_f).entries,
                                           rtol=0, atol=tol)
                np.testing.assert_allclose(
                    pool.test_block(test, train),
                    kernels.cross_gram(spec, [per_sample[i] for i in test], train_f),
                    rtol=0, atol=tol)

    def test_one_gram_per_call_for_svd_features(self, small_gestures, monkeypatch):
        grams = _record_calls(monkeypatch, "gram")
        crosses = _record_calls(monkeypatch, "cross_gram")
        svd = ExperimentConfig(feature="svd", r=3, kernel_kind="grassmann", trials=3)
        holdout_subject(svd, small_gestures)
        assert (len(grams), len(crosses)) == (1, 0)
        run_experiment(svd, small_gestures)
        assert (len(grams), len(crosses)) == (2, 0)
        sweep_dimension(svd, small_gestures, [2, 3])
        assert (len(grams), len(crosses)) == (4, 0)
        sweep_train_fraction(svd, small_gestures, fractions=(0.6, 1.0))
        assert (len(grams), len(crosses)) == (6, 0)

    @pytest.mark.parametrize("trials, train_ratio, bound_pooled", [
        (1, 0.8, False), (2, 0.5, True), (2, 0.4, False), (5, 0.2, True),
    ])
    def test_repeated_splits_pool_when_it_pays(self, small_gestures, monkeypatch,
                                               trials, train_ratio, bound_pooled):
        # the pool Gram's upper triangle costs about one 80/20 split's kernels,
        # so it pays whether or not the trials read all of it
        # (trials * train_ratio >= 1, the bound that `bound_pooled` gives)
        assert bound_pooled == (trials * train_ratio >= 1)
        grams = _record_calls(monkeypatch, "gram")
        crosses = _record_calls(monkeypatch, "cross_gram")
        slices = []
        train_block = _PoolGram.train_block

        def recorded(pool, train_idx):
            slices.append(len(train_idx))
            return train_block(pool, train_idx)

        monkeypatch.setattr(_PoolGram, "train_block", recorded)
        svd = ExperimentConfig(feature="svd", r=3, kernel_kind="grassmann",
                               trials=trials, train_ratio=train_ratio)
        run_experiment(svd, small_gestures)
        assert (len(grams), len(crosses), len(slices)) == (1, 0, trials)

    def test_one_pool_gram_per_call_for_pca_features(self, small_gestures, monkeypatch):
        # the whole pool is padded once per call, whatever the fold count or
        # the number of r values of a dimension sweep
        padded = []
        of_padded = _PoolGram.of_padded

        def recorded(*args):
            pool = of_padded(*args)
            padded.append(len(pool.entries))
            return pool

        monkeypatch.setattr(_PoolGram, "of_padded", recorded)
        M = len(small_gestures.samples)
        pca = ExperimentConfig(r=6, kernel_kind="localized", trials=3)
        run_experiment(pca, small_gestures)
        assert padded == [M]
        holdout_subject(pca, small_gestures)
        assert padded == [M, M]
        run_experiment(replace(pca, classifier="knn"), small_gestures)
        assert padded == [M, M, M]
        out = sweep_dimension(replace(pca, trials=1), small_gestures, [2, 3, 4, 5])
        assert all(isinstance(table, experiments.ResultTable) for _, table in out)
        assert padded == [M, M, M, M]

    def test_binary_pool_gram_is_the_float64_product(self, small_gestures):
        # binary P is formed in float32, and its P P' is bitwise the float64
        # product of the per-sample oracle's padded rows
        samples = small_gestures.samples
        target = max(s.data.shape[1] for s in samples)
        P = zero_pad_stack([preprocess_oracle(s, "binary") for s in samples], target)
        pool = experiments._pool_gram(ExperimentConfig(), small_gestures)
        assert pool.entries.dtype == np.float64
        assert pool.entries.tobytes() == (P @ P.T).tobytes()
        assert pool.width == P.shape[1]

    def test_float32_only_below_the_exact_width(self, monkeypatch):
        # data that float32 rounds, passed as binary, show which product
        # ran: float32 while the width D = 12 is below the limit, float64
        # from the limit down (and for data not marked binary)
        rng = np.random.default_rng(3)
        specs = [Spectrogram(rng.random((4, cols)) / 3.0) for cols in (3, 2, 3, 1)]
        P = zero_pad_stack(specs, 3)
        exact = (P @ P.T).tobytes()
        assert _padded_pool(specs, 3, binary=True).entries.tobytes() != exact
        assert _padded_pool(specs, 3, binary=False).entries.tobytes() == exact
        monkeypatch.setattr(experiments, "_FLOAT32_EXACT", 13)
        assert _padded_pool(specs, 3, binary=True).entries.tobytes() != exact
        monkeypatch.setattr(experiments, "_FLOAT32_EXACT", 12)
        assert _padded_pool(specs, 3, binary=True).entries.tobytes() == exact

    def test_pool_writer_refuses_other_shapes(self, small_gestures, monkeypatch):
        # the refused sample is named by its position in the pool, past the
        # blocks already written
        monkeypatch.setattr(experiments, "_PREPROCESS_BLOCK_ELEMS", 8000)
        samples = list(small_gestures.samples[:12])
        target = max(s.data.shape[1] for s in samples)
        narrow = replace(samples[9], data=samples[9].data[:32])
        wide = replace(samples[9], data=np.ones((64, target + 1)))
        for bad, message in [(narrow, "sample 9: spectrogram has 32 frequency bins, "
                                      "expected 64"),
                             (wide, f"sample 9: spectrogram has {target + 1} frames, "
                                    f"target is {target}")]:
            samples[9] = bad
            blocks = list(_preprocessed("magnitude", samples, range(12)))
            assert len(blocks) > 1 and 9 not in blocks[0].indices
            with pytest.raises(ValueError, match=re.escape(message)):
                _PoolGram.of_padded(iter(blocks), 12, target, False)

    def test_folds_are_charged_their_share_of_the_pool_gram(self, small_gestures,
                                                             monkeypatch):
        # a pool matrix of at least 0.2 s: each fold's columns hold at least
        # its blocks' share of it at the per-entry rate. SVD features pool
        # their kernel matrix, PCA features the padded samples' Gram, timed
        # over the writes of the blocks into P and the product. The first
        # call sleeps: the kernel matrix is one call, P is written per block.
        def slowed(fn):
            calls = []

            def slow(*args, **kwargs):
                if not calls:
                    time.sleep(0.2)
                calls.append(1)
                return fn(*args, **kwargs)
            return slow

        M = len(small_gestures.samples)
        for name, config in [
            ("gram", ExperimentConfig(feature="svd", r=3, kernel_kind="grassmann")),
            ("_pad_rows", ExperimentConfig(r=6, classifier="knn")),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(experiments, name, slowed(getattr(experiments, name)))
                rows = holdout_subject(config, small_gestures).rows
            for subject, row in zip(small_gestures.subjects, rows):
                n_test = sum(s.subject == subject for s in small_gestures.samples)
                n_train = M - n_test
                assert row.train_time_s >= 0.2 * n_train * n_train / M**2
                assert row.test_time_s >= 0.2 * n_test * n_train / M**2

    def test_pca_builds_kernels_per_fold(self, small_gestures, monkeypatch):
        # a Gram and a cross-Gram per fold, one localized kernel per config
        grams = _record_calls(monkeypatch, "gram")
        crosses = _record_calls(monkeypatch, "cross_gram")
        builds = []
        build = kernels.build_localized_kernel

        def counting(*args, **kwargs):
            builds.append(kwargs)
            return build(*args, **kwargs)

        monkeypatch.setattr(kernels, "build_localized_kernel", counting)
        pca = ExperimentConfig(r=6, kernel_kind="localized", trials=3)
        holdout_subject(pca, small_gestures)
        assert (len(grams), len(crosses), len(builds)) == (6, 6, 1)
        run_experiment(pca, small_gestures)
        assert (len(grams), len(crosses), len(builds)) == (9, 9, 1)

    @pytest.mark.parametrize("seed, points", [
        (1, [(95.83333333333333, 34.72222222222222), (93.75, 26.041666666666668),
             (87.5, 11.574074074074021)]),
        (2, [(83.33333333333333, 34.72222222222222), (83.33333333333333, 8.680555555555555),
             (86.11111111111113, 3.858024691358007)]),
    ])
    def test_noised_grassmann_fraction_sweep_pinned(self, seed, points):
        # (accuracy mean, variance) per fraction as computed at d6db0a5, where
        # the fraction pools (strict, non-contiguous subsets at 0.4 and 0.7)
        # were mapped to pool Gram rows by sample index
        config = ExperimentConfig(feature="svd", r=5, kernel_kind="grassmann", trials=3)
        out = sweep_train_fraction(config, _noised_gestures(seed), fractions=(0.4, 0.7, 1.0))
        assert [frac for frac, _ in out] == [0.4, 0.7, 1.0]
        assert [(t.rows[0].accuracy_mean, t.rows[0].accuracy_var) for _, t in out] == points

    @pytest.mark.parametrize("seed, accuracies", [
        (1, [75.0, 85.0, 95.0, 100.0, 90.0, 75.0]),
        (2, [75.0, 75.0, 95.0, 75.0, 85.0, 75.0]),
    ])
    def test_noised_grassmann_holdout_pinned(self, seed, accuracies):
        # per-fold accuracies as computed with one Gram and one cross-Gram
        # per fold (commit 42594c0)
        config = ExperimentConfig(feature="svd", r=5, kernel_kind="grassmann")
        rows = holdout_subject(config, _noised_gestures(seed)).rows
        assert [row.accuracy_mean for row in rows] == accuracies


    @pytest.mark.parametrize("seed, accuracies", [
        (1, [85.0, 95.0, 80.0, 90.0, 90.0, 75.0]),
        (2, [95.0, 85.0, 90.0, 100.0, 100.0, 85.0]),
    ])
    def test_noised_pca_locsvm_holdout_pinned(self, seed, accuracies):
        # per-fold accuracies as computed with a basis fit per fold by
        # fit_pca, its components sign-canonicalised (commit 4c5c488)
        config = ExperimentConfig(r=30, kernel_kind="localized",
                                  kernel_params={"N": 8.0, "q": 18})
        rows = holdout_subject(config, _noised_gestures(seed, scale=4.0)).rows
        assert rows[0].method == "PCA LocSVM64 holdout=A"
        assert [row.accuracy_mean for row in rows] == accuracies

    @pytest.mark.parametrize("seed, accuracies", [
        (1, [80.0, 90.0, 95.0, 90.0, 85.0, 80.0]),
        (2, [75.0, 75.0, 85.0, 90.0, 85.0, 90.0]),
    ])
    def test_noised_pca_knn_holdout_pinned(self, seed, accuracies):
        # as above, for k-NN (k = 5) on the same features (commit 4c5c488)
        config = ExperimentConfig(r=30, classifier="knn")
        rows = holdout_subject(config, _noised_gestures(seed, scale=4.0)).rows
        assert rows[0].method == "PCA KNN holdout=A"
        assert [row.accuracy_mean for row in rows] == accuracies


class TestHoldout:
    def test_one_row_per_subject(self, small_gestures):
        config = ExperimentConfig(classifier="knn", knn_k=1, r=6, seed=42)
        table = holdout_subject(config, small_gestures)
        assert len(table.rows) == 6
        for subject, row in zip("ABCDEF", table.rows):
            assert row.method.endswith(f"holdout={subject}")
            assert 0.0 <= row.accuracy_mean <= 100.0

    def test_needs_two_subjects(self):
        ds = gen_synthetic_gestures(per_cell=2, subjects=1, seed=0)
        with pytest.raises(ValueError):
            holdout_subject(ExperimentConfig(), ds)
