import math
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from lockern import experiments, kernels
from lockern.classify import one_vs_rest_train
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
    _stratified_split,
)
from lockern.features import (
    RankError, Spectrogram, fit_pca, pca_project, svd_features,
)
from kernel_oracle import stft_oracle
from preprocess_oracle import gesture_signal_oracle, preprocess_oracle, zero_pad_stack
from svm_oracle import svm_predict


def _padded_pool(specs, target_frames, binary=False):
    """`_PoolGram.of_padded` of a list of preprocessed spectrograms, one
    `_Block` per spectrogram."""
    blocks = (experiments._Block([i], spec.data.ravel(order="F"), np.array([spec.data.shape]))
              for i, spec in enumerate(specs))
    return _PoolGram.of_padded(blocks, len(specs), target_frames, binary)


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
        # one name per subject in SUBJECT_NAMES; refused before any draw
        with pytest.raises(ValueError, match="at most 6 subjects"):
            gen_synthetic_gestures(subjects=7)

    @pytest.mark.parametrize("label", sorted(experiments._GESTURE_TEMPLATES))
    def test_signal_matches_oracle_bitwise(self, label):
        template = experiments._GESTURE_TEMPLATES[label]
        for factor in (0.85, 0.94, 1.0, 1.09, 1.15):
            new_rng, oracle_rng = np.random.default_rng(label), np.random.default_rng(label)
            for _ in range(8):
                new = experiments._gesture_signal(template, factor, new_rng)
                old = gesture_signal_oracle(template, factor, oracle_rng)
                assert new.dtype == old.dtype and new.shape == old.shape
                assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
            # the two generators drew alike
            assert new_rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_gesture_set_matches_oracle_bitwise(self, seed):
        # the set as first written: the oracle signal, framed one slice at a time
        rng = np.random.default_rng(seed)
        window = np.hanning(64)
        oracle = []
        for label in range(4):
            for s in range(6):
                factor = 1.0 + 0.06 * (s - 2.5)
                for _ in range(5):
                    signal = gesture_signal_oracle(experiments._GESTURE_TEMPLATES[label],
                                                   factor, rng)
                    oracle.append((stft_oracle(signal, window, 32, 64), label, "ABCDEF"[s]))
        ds = gen_synthetic_gestures(per_cell=5, seed=seed)
        assert len(ds.samples) == len(oracle)
        for spec, (data, label, subject) in zip(ds.samples, oracle):
            assert spec.data.shape == data.shape
            assert spec.data.flags.f_contiguous == data.flags.f_contiguous
            assert np.array_equal(spec.data.view(np.uint64), data.view(np.uint64))
            assert (spec.label, spec.subject) == (label, subject)


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
        fa, ta = _own_pca_fold(_padded_pool(per_sample, target), config.r, train, test)
        fb, tb = _own_pca_fold(_padded_pool(randomised, target), config.r, train, test)
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
        got_train, got_test = _own_pca_fold(pool, config.r, train, test)
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
            assert [f.shape for f in _own_pca_fold(pool, 2, train, test)] == [(8, 2), (2, 2)]
            with pytest.raises(RankError, match=re.escape("data rank below r=3; lower r")):
                fit_pca(zero_pad_stack(specs[:8], 3), 3)
            with pytest.raises(RankError, match=re.escape("data rank below r=3; lower r")):
                _own_pca_fold(pool, 3, train, test)
            with pytest.raises(RankError, match=re.escape("r=13 out of range for 8x12 data")):
                _own_pca_fold(pool, 13, train, test)

    def test_svd_feature_shape(self, small_gestures):
        config = ExperimentConfig(feature="svd", kernel_kind="grassmann", r=4)
        pre = _preprocessed_samples(config.preprocessing, small_gestures.samples, range(6))
        per_sample = [svd_features(spectrogram, config.r) for _, spectrogram in pre]
        assert all(f.U.shape == (64, 4) and f.S.shape == (4,) for f in per_sample)

    def test_unknown_feature(self):
        with pytest.raises(ValueError, match="unknown feature kind 'wavelet'"):
            ExperimentConfig(feature="wavelet")


def _own_pca_fold(pool, r, train, test):
    """The fold's PCA features from its own eigenpairs at r, as a single
    run makes them."""
    return _pca_fold(pool, r, train, test, experiments._fold_eig(pool, train, r))


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


@pytest.fixture
def checked_predict(monkeypatch):
    """Wraps `experiments.one_vs_rest_predict` so that each call's labels
    must equal the argmax, per test row, of the per-row `svm_predict`
    decision values (ties to the lowest class); lists each call's row
    count."""
    calls = []
    predict = experiments.one_vs_rest_predict

    def checked(mc, rows):
        labels = predict(mc, rows)
        cols = mc.support_union()
        expected = []
        for row in rows:
            scores = [svm_predict(m, row[np.searchsorted(cols, m.support_ids)])
                      for m in mc.models]
            expected.append(mc.classes[int(np.argmax(scores))])
        assert labels == expected
        calls.append(len(rows))
        return labels

    monkeypatch.setattr(experiments, "one_vs_rest_predict", checked)
    return calls


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
        # one SVD per sample, at the largest r, which every r cuts
        assert len(decomposed) == len(small_gestures.samples)
        assert len(set(map(id, decomposed))) == len(decomposed)

        preprocessed.clear()
        knn = ExperimentConfig(classifier="knn", knn_k=1, r=6, trials=2, seed=42)
        sweep_train_fraction(knn, small_gestures, fractions=(0.4, 0.6, 1.0))
        assert _once_each(preprocessed, small_gestures.samples)

        # a fraction sweep's pools share one pool matrix: each used sample
        # (the largest pool's) is decomposed once, whatever the fractions
        preprocessed.clear()
        decomposed.clear()
        labels = np.array([s.label for s in small_gestures.samples])
        used, _ = _stratified_split(labels, 0.6, np.random.default_rng(config.seed))
        out = sweep_train_fraction(replace(config, r=5), small_gestures, fractions=(0.4, 0.6))
        assert all(isinstance(table, experiments.ResultTable) for _, table in out)
        assert _once_each(preprocessed, [small_gestures.samples[i] for i in used])
        assert len(decomposed) == len(used)


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

    def test_acceptance_csv_bytes_pinned(self, tmp_path, checked_predict):
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
        assert checked_predict == [120] * 5  # one call per trial

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

    @pytest.mark.parametrize("kind", ["grassmann", "laplace_svd"])
    def test_svd_sweep_cuts_match_each_r(self, small_gestures, monkeypatch, kind):
        # each r's pool matrix is bitwise the Gram of svd_features at r, and
        # an r past a sample's rank bound records svd_features' refusal of
        # the first such sample
        samples = small_gestures.samples
        specs = [spec for _, spec in _preprocessed_samples("binary", samples,
                                                           range(len(samples)))]
        past = min(spec.data.shape[1] for spec in specs) + 1
        first = next(spec for spec in specs if spec.data.shape[1] < past)
        with pytest.raises(RankError) as refusal:
            svd_features(first, past)
        grams = []

        def recorded(spec, points):
            grams.append(kernels.gram(spec, points))
            return grams[-1]

        monkeypatch.setattr(experiments, "gram", recorded)
        config = ExperimentConfig(feature="svd", kernel_kind=kind, trials=1)
        r_values = [1, 3, 7, past]
        out = sweep_dimension(config, small_gestures, r_values)
        assert len(grams) == 3
        for r, got in zip(r_values, grams):
            want = kernels.gram(config.kernel, [svd_features(spec, r) for spec in specs])
            assert got.entries.tobytes() == want.entries.tobytes()
        assert isinstance(out[-1][1], RankError)
        assert str(out[-1][1]) == str(refusal.value)

    def test_svd_sweep_records_a_sample_without_rows(self, small_gestures):
        # a magnitude spectrogram with no rows allows no r: every r records
        # its RankError, and nothing is decomposed at r = 0
        samples = list(small_gestures.samples)
        samples[3] = replace(samples[3], data=samples[3].data[:0])
        dataset = replace(small_gestures, samples=samples)
        config = ExperimentConfig(feature="svd", kernel_kind="grassmann",
                                  preprocessing="magnitude", trials=1)
        cols = samples[3].data.shape[1]
        assert [(r, str(err)) for r, err in sweep_dimension(config, dataset, [1, 2])] == [
            (r, f"r={r} out of range for 0x{cols} spectrogram") for r in (1, 2)]

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
        # each fraction's row is a plain run on a data set of its pool alone:
        # its blocks of the call's one pool matrix are that run's matrix
        samples = small_gestures.samples
        labels = np.array([s.label for s in samples])
        fractions = (0.4, 0.7, 1.0)
        for config in [
            ExperimentConfig(classifier="knn", knn_k=1, r=6, trials=3, seed=42),
            ExperimentConfig(feature="svd", r=4, kernel_kind="laplace_svd", trials=3, seed=42),
        ]:
            out = sweep_train_fraction(config, small_gestures, fractions)
            assert [frac for frac, _ in out] == list(fractions)
            for frac, table in out:
                pool = (_stratified_split(labels, frac, np.random.default_rng(config.seed))[0]
                        if frac < 1.0 else np.arange(len(samples)))
                plain = run_experiment(config, replace(small_gestures,
                                                       samples=[samples[i] for i in pool]))
                assert ([(row.method, row.r, row.accuracy_mean, row.accuracy_var)
                         for row in table.rows]
                        == [(row.method, row.r, row.accuracy_mean, row.accuracy_var)
                            for row in plain.rows])

    @pytest.mark.parametrize("mode", ["binary", "unit", "magnitude"])
    def test_fraction_block_of_shared_pool_matrix(self, small_gestures, mode):
        # a fraction's block of the sweep's shared PCA pool matrix against the
        # matrix of a plain run on the fraction's pool alone. A binary P P' is
        # exact, so bitwise. A float64 entry is a sum of D non-negative
        # products, whose rounding depends on the BLAS blocking and so on the
        # row count: each value is within D*eps/2 times the exact sum (to
        # first order), so the two lie within 2*D*eps times the entry.
        samples = small_gestures.samples
        labels = np.array([s.label for s in samples])
        config = ExperimentConfig(preprocessing=mode, r=6, trials=1, seed=42)
        pools = [_stratified_split(labels, frac, np.random.default_rng(config.seed))[0]
                 for frac in (0.2, 0.4, 0.6, 0.8)]
        used = np.unique(np.concatenate(pools))
        shared = experiments._pool_gram(config, small_gestures, used)
        for pool in pools:
            own = experiments._pool_gram(
                config, replace(small_gestures, samples=[samples[i] for i in pool]),
                range(len(pool)))
            at = np.searchsorted(used, pool)
            block = shared.train_block(at)
            alone = own.train_block(np.arange(len(pool)))
            if mode == "binary":
                assert np.array_equal(block, alone)
            else:
                bound = 2 * max(shared.width, own.width) * np.finfo(float).eps
                assert np.all(np.abs(block - alone) <= bound * np.maximum(block, alone))

    def test_fraction_sweep_rank_error_skips_every_fraction(self, small_gestures,
                                                             monkeypatch):
        # a spectrogram with fewer frames than r refuses the SVD features of
        # the data set: every fraction records the RankError, also those
        # whose pool does not hold that sample, and no kernel value is made
        grams = _record_calls(monkeypatch, "gram")
        config = ExperimentConfig(feature="svd", r=5, kernel_kind="grassmann", trials=2)
        samples = list(small_gestures.samples)
        labels = np.array([s.label for s in samples])
        smallest, _ = _stratified_split(labels, 0.3, np.random.default_rng(config.seed))
        narrow = min(set(range(len(samples))) - set(smallest))
        samples[narrow] = replace(samples[narrow], data=samples[narrow].data[:, :3])
        out = sweep_train_fraction(config, replace(small_gestures, samples=samples),
                                   fractions=(0.3, 0.7, 1.0))
        assert [frac for frac, _ in out] == [0.3, 0.7, 1.0]
        for _, error in out:
            assert isinstance(error, RankError)
            assert str(error) == "r=5 out of range for 64x3 spectrogram"
        assert grams == []

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
        assert (len(grams), len(crosses)) == (5, 0)

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
        # a fraction sweep pads the union of its pools, the largest, once
        labels = np.array([s.label for s in small_gestures.samples])
        used, _ = _stratified_split(labels, 0.7, np.random.default_rng(pca.seed))
        out = sweep_train_fraction(pca, small_gestures, fractions=(0.3, 0.7, 0.5))
        assert all(isinstance(table, experiments.ResultTable) for _, table in out)
        assert padded == [M, M, M, M, len(used)] and len(used) < M

    def test_binary_pool_gram_is_the_float64_product(self, small_gestures):
        # binary P and its P P' are float32, and the blocks read from it are
        # bitwise the float64 product of the per-sample oracle's padded rows
        samples = small_gestures.samples
        target = max(s.data.shape[1] for s in samples)
        P = zero_pad_stack([preprocess_oracle(s, "binary") for s in samples], target)
        pool = experiments._pool_gram(ExperimentConfig(), small_gestures, range(len(samples)))
        assert pool.entries.dtype == np.float32
        every = np.arange(len(samples))
        assert pool.train_block(every).dtype == np.float64
        assert pool.train_block(every).tobytes() == (P @ P.T).tobytes()
        assert pool.test_block(every[5:], every[:5]).tobytes() == (P[5:] @ P[:5].T).tobytes()
        assert pool.width == P.shape[1]

    def test_float32_only_below_the_exact_width(self, monkeypatch):
        # data in (0, 1/3), passed as binary, show which P was formed: while
        # the width D = 12 is below the limit P is held in bytes, where every
        # entry truncates to 0, so the product is not the float64 one; from
        # the limit down (and for data not marked binary) P is float64 and
        # the product is exact
        rng = np.random.default_rng(3)
        specs = [Spectrogram(rng.random((4, cols)) / 3.0) for cols in (3, 2, 3, 1)]
        P = zero_pad_stack(specs, 3)
        exact = (P @ P.T).tobytes()
        every = np.arange(len(specs))

        def read(binary):
            return _padded_pool(specs, 3, binary=binary).train_block(every).tobytes()

        assert read(True) != exact
        assert read(False) == exact
        monkeypatch.setattr(experiments, "_FLOAT32_EXACT", 13)
        assert read(True) != exact
        monkeypatch.setattr(experiments, "_FLOAT32_EXACT", 12)
        assert read(True) == exact

    @pytest.mark.parametrize("n,width", [(7, 4031), (7, 4034), (7, 3), (5, 1), (1, 97), (1, 1)],
                             ids=["ragged-panel", "short-last-panel", "three-panels",
                                  "one-column", "one-row", "one-entry"])
    def test_byte_panels_are_the_float32_product(self, n, width):
        # a byte P's four panels sum to the float32 product of the whole P
        # bitwise, whether or not the width is a multiple of the panel width;
        # a float64 P is one product, P P' itself
        P = (np.random.default_rng(width).random((n, width)) < 0.4).astype(np.uint8)
        P32 = P.astype(np.float32)
        entries = experiments._panel_gram(P)
        assert entries.dtype == np.float32
        assert entries.tobytes() == (P32 @ P32.T).tobytes()
        P64 = P * np.random.default_rng(n).random(width)
        assert experiments._panel_gram(P64).tobytes() == (P64 @ P64.T).tobytes()

    def test_binary_pool_peak_below_a_float32_P(self):
        # the traced peak of a binary pool matrix stays below n * D * 4
        # bytes, the float32 P that the byte P replaced
        ds = gen_synthetic_gestures(per_cell=10, seed=0)
        tracemalloc.start()
        try:
            pool = experiments._pool_gram(ExperimentConfig(), ds, range(len(ds.samples)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.entries.dtype == np.float32
        assert peak < len(ds.samples) * pool.width * 4

    def test_blocks_widen_without_a_float32_copy(self):
        # a fold's blocks of a float32 pool, read a row block at a time: the
        # gathered float32 entries widened bitwise, and a traced peak below
        # the float64 result plus a float32 copy of the whole block
        rng = np.random.default_rng(4)
        pool = _PoolGram(rng.integers(0, 4032, (700, 700)).astype(np.float32), 0.0)
        train, test = np.sort(rng.permutation(700)[:600]), np.arange(1, 700, 2)
        for rows, cols in ((train, train), (test, train)):
            want = pool.entries[np.ix_(rows, cols)].astype(float)
            tracemalloc.start()
            try:
                got = (pool.train_block(rows) if rows is cols else pool.test_block(rows, cols))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert peak < got.nbytes + len(rows) * len(cols) * 4

    @pytest.mark.parametrize("frames", [[5], [2], [3, 5, 1]],
                             ids=["one-sample-full-width", "one-sample", "full-width-in-block"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_pad_rows_match_zero_pad_stack(self, frames, dtype):
        # the slice writer against the oracle, past a first row it leaves
        # zero: a block of one sample, and a sample exactly target_frames
        # wide; a bool support into a byte P, float data into a float P
        rng = np.random.default_rng(len(frames))
        data = [rng.random((4, f)) for f in frames]
        if dtype == np.uint8:
            data = [d < 0.5 for d in data]
        block = experiments._Block(list(range(len(data))),
                                   np.concatenate([d.ravel(order="F") for d in data]),
                                   np.array([d.shape for d in data]))
        P = np.zeros((len(data) + 1, 4 * 5), dtype)
        experiments._pad_rows(P, 1, block, 4, 5)
        assert not P[0].any()
        want = zero_pad_stack([Spectrogram(d) for d in data], 5)
        assert P[1:].astype(float).tobytes() == want.tobytes()

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

    def test_pca_folds_are_charged_their_decomposition(self, small_gestures, monkeypatch):
        # every PCA fold's train_time_s holds its _fold_eig's seconds: in a
        # single run, in a holdout and in each r of a dimension sweep
        fold_eig = experiments._fold_eig
        monkeypatch.setattr(experiments, "_fold_eig",
                            lambda *args: replace(fold_eig(*args), seconds=100.0))
        config = ExperimentConfig(r=6, classifier="knn", trials=2)
        rows = (run_experiment(config, small_gestures).rows
                + holdout_subject(config, small_gestures).rows
                + [table.rows[0] for _, table in sweep_dimension(config, small_gestures, [2, 6])])
        assert len(rows) == 9
        assert all(100.0 <= row.train_time_s < 101.0 for row in rows)

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
    def test_noised_grassmann_fraction_sweep_pinned(self, seed, points, checked_predict):
        # (accuracy mean, variance) per fraction as computed at d6db0a5, where
        # the fraction pools (strict, non-contiguous subsets at 0.4 and 0.7)
        # were mapped to pool Gram rows by sample index
        config = ExperimentConfig(feature="svd", r=5, kernel_kind="grassmann", trials=3)
        out = sweep_train_fraction(config, _noised_gestures(seed), fractions=(0.4, 0.7, 1.0))
        assert [frac for frac, _ in out] == [0.4, 0.7, 1.0]
        assert [(t.rows[0].accuracy_mean, t.rows[0].accuracy_var) for _, t in out] == points
        assert len(checked_predict) == 9

    @pytest.mark.parametrize("seed, accuracies", [
        (1, [75.0, 85.0, 95.0, 100.0, 90.0, 75.0]),
        (2, [75.0, 75.0, 95.0, 75.0, 85.0, 75.0]),
    ])
    def test_noised_grassmann_holdout_pinned(self, seed, accuracies, checked_predict):
        # per-fold accuracies as computed with one Gram and one cross-Gram
        # per fold (commit 42594c0)
        config = ExperimentConfig(feature="svd", r=5, kernel_kind="grassmann")
        rows = holdout_subject(config, _noised_gestures(seed)).rows
        assert [row.accuracy_mean for row in rows] == accuracies
        assert checked_predict == [20] * 6


    @pytest.mark.parametrize("seed, accuracies", [
        (1, [85.0, 95.0, 80.0, 90.0, 90.0, 75.0]),
        (2, [95.0, 85.0, 90.0, 100.0, 100.0, 85.0]),
    ])
    def test_noised_pca_locsvm_holdout_pinned(self, seed, accuracies, checked_predict):
        # per-fold accuracies as computed with a basis fit per fold by
        # fit_pca, its components sign-canonicalised (commit 4c5c488)
        config = ExperimentConfig(r=30, kernel_kind="localized",
                                  kernel_params={"N": 8.0, "q": 18})
        rows = holdout_subject(config, _noised_gestures(seed, scale=4.0)).rows
        assert rows[0].method == "PCA LocSVM64 holdout=A"
        assert [row.accuracy_mean for row in rows] == accuracies
        assert checked_predict == [20] * 6

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


class TestSupportColumns:
    @pytest.mark.parametrize("kind", ["localized", "euclidean_rbf", "grassmann"])
    def test_test_columns_are_the_full_ones(self, kind):
        # the SVM's test kernel values against its support vectors only are
        # bitwise the full matrix's columns. PCA features compute them
        # (`cross_gram`), each value on its own pair; SVD features read
        # them from the pool matrix. Localized: the gesture-loc benchmark's
        # split, M = 192
        ds = gen_synthetic_gestures(per_cell=10, seed=3)
        labels = np.array([s.label for s in ds.samples])
        if kind == "grassmann":
            config = ExperimentConfig(feature="svd", r=5, kernel_kind="grassmann", seed=3000)
        else:
            params = {"N": 8.0, "q": 18} if kind == "localized" else {"gamma": 0.5}
            config = ExperimentConfig(r=30, kernel_kind=kind, kernel_params=params, seed=3000)
        ((train, test),) = experiments._splits(replace(config, trials=1), labels)
        pool = experiments._pool_gram(config, ds, range(len(ds.samples)))
        if kind == "grassmann":
            mc = one_vs_rest_train(pool.train_block(train), labels[train].tolist())
            sv = mc.support_union()
            full, support = pool.test_block(test, train), pool.test_block(test, train[sv])
        else:
            train_f, test_f = _own_pca_fold(pool, config.r, train, test)
            mc = one_vs_rest_train(kernels.gram(config.kernel, train_f), labels[train].tolist())
            sv = mc.support_union()
            full = kernels.cross_gram(config.kernel, test_f, train_f)
            support = kernels.cross_gram(config.kernel, test_f, train_f[sv])
        assert 0 < len(sv) < len(train)
        assert np.array_equal(support, full[:, sv])
        # and the prediction on those columns is the per-row svm_predict
        # argmax on the full rows
        assert experiments.one_vs_rest_predict(mc, support) == [
            mc.classes[int(np.argmax([svm_predict(m, row[m.support_ids]) for m in mc.models]))]
            for row in full]


class TestDimensionSweepEigh:
    def test_one_eigh_per_fold(self, small_gestures, monkeypatch):
        # each fold's centred Gram is decomposed once for every r, and each
        # r's table is byte-identical to the table of its own run
        config = ExperimentConfig(r=30, kernel_params={"N": 8.0, "q": 18}, trials=3)
        r_values = [2, 5, 9, 14]
        own = [run_experiment(replace(config, r=r), small_gestures) for r in r_values]
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        out = sweep_dimension(config, small_gestures, r_values)
        assert len(calls) == 3
        for (r, table), expected in zip(out, own):
            assert [(row.method, row.r, row.accuracy_mean, row.accuracy_var)
                    for row in table.rows] == [
                (row.method, row.r, row.accuracy_mean, row.accuracy_var)
                for row in expected.rows]

    def test_fold_eig_keeps_only_the_top_pairs(self, small_gestures):
        config = ExperimentConfig(r=6, classifier="knn")
        labels = np.array([s.label for s in small_gestures.samples])
        ((train, test),) = experiments._splits(replace(config, trials=1), labels)
        pool = experiments._pool_gram(config, small_gestures, range(len(labels)))
        eig = experiments._fold_eig(pool, train, 9)
        assert eig.values.shape == (9,) and eig.vectors.shape == (len(train), 9)
        assert eig.vectors.base is None  # not a view of the full eigenvector matrix
        for r in (1, 4, 9):
            shared = _pca_fold(pool, r, train, test, eig)
            for a, b in zip(shared, _own_pca_fold(pool, r, train, test)):
                assert np.array_equal(a, b)


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
