import math
import re
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

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
    _check_config,
    _fold_features,
    _preprocessed,
    _sample_features,
    _stratified_split,
)
from lockern.features import RankError, fit_pca, pca_project, zero_pad_stack
from preprocess_oracle import preprocess_oracle


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
        for i, spec in _preprocessed("binary", ds.samples, range(0, len(ds.samples), 4)):
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
        # identical training fold must give identical features regardless of
        # what is in the test fold
        ds = small_gestures
        config = ExperimentConfig(r=5)
        target = max(s.data.shape[1] for s in ds.samples)
        pairs = _preprocessed(config.preprocessing, ds.samples, range(70))
        per_sample = _sample_features(config, (spectrogram for _, spectrogram in pairs))
        train = range(40)
        fa, _ = _fold_features(config, per_sample, train, range(40, 44), target)
        fb, _ = _fold_features(config, per_sample, train, range(60, 70), target)
        for va, vb in zip(fa, fb):
            np.testing.assert_array_equal(va, vb)

    @pytest.mark.parametrize("seed", range(3))
    def test_fold_features_match_public_path(self, seed):
        # the fold centres its own padded matrices in place; its features are
        # byte for byte those of fit_pca then pca_project on each side, with
        # the same nearest-neighbor scale
        ds = gen_synthetic_gestures(per_cell=10, seed=seed)
        config = ExperimentConfig(r=30)
        labels = np.array([s.label for s in ds.samples])
        target = max(s.data.shape[1] for s in ds.samples)
        pairs = _preprocessed(config.preprocessing, ds.samples, range(len(ds.samples)))
        per_sample = _sample_features(config, (spectrogram for _, spectrogram in pairs))
        train, test = _stratified_split(labels, config.train_ratio, np.random.default_rng(seed))
        got_train, got_test = _fold_features(config, per_sample, train, test, target)
        train_mat = zero_pad_stack([per_sample[i] for i in train], target)
        basis = fit_pca(train_mat, config.r)
        want_train = pca_project(basis, train_mat)
        want_test = pca_project(basis, zero_pad_stack([per_sample[i] for i in test], target))
        scale = experiments._nn_scale(want_train)
        assert got_train.tobytes() == (want_train * scale).tobytes()
        assert got_test.tobytes() == (want_test * scale).tobytes()

    def test_svd_feature_shape(self, small_gestures):
        config = ExperimentConfig(feature="svd", r=4)
        pre = _preprocessed(config.preprocessing, small_gestures.samples, range(6))
        per_sample = _sample_features(config, (spectrogram for _, spectrogram in pre))
        assert all(f.U.shape == (64, 4) and f.S.shape == (4,) for f in per_sample)

    def test_unknown_feature(self):
        with pytest.raises(ValueError):
            _check_config(ExperimentConfig(feature="wavelet"))


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
        preprocessed = _record_calls(monkeypatch, "log_threshold")
        decomposed = _record_calls(monkeypatch, "svd_features")
        config = ExperimentConfig(feature="svd", r=3, kernel_kind="grassmann")
        holdout_subject(config, small_gestures)
        assert _once_each(preprocessed, small_gestures.samples)
        # svd_features sees the preprocessed copies: one call per copy
        assert len(decomposed) == len(small_gestures.samples)
        assert len(set(map(id, decomposed))) == len(decomposed)

    def test_trials_preprocess_each_sample_once(self, small_gestures, monkeypatch):
        preprocessed = _record_calls(monkeypatch, "log_threshold")
        config = ExperimentConfig(classifier="knn", knn_k=1, r=6, trials=3, seed=42)
        run_experiment(config, small_gestures)
        assert _once_each(preprocessed, small_gestures.samples)

    def test_sweeps_preprocess_each_sample_once(self, small_gestures, monkeypatch):
        preprocessed = _record_calls(monkeypatch, "log_threshold")
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
        pairs = list(_preprocessed(mode, samples, range(len(samples))))
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
        log_threshold = experiments.log_threshold

        def recorded(specs):
            blocks.append(specs)
            return log_threshold(specs)

        monkeypatch.setattr(experiments, "log_threshold", recorded)
        samples = small_gestures.samples
        indices = list(range(len(samples) - 1, -1, -3))
        pairs = list(_preprocessed(mode, samples, indices))
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

    def test_svd_knn_rejected_before_preprocessing(self, small_gestures, monkeypatch):
        preprocessed = _record_calls(monkeypatch, "log_threshold")
        splits = (run_experiment,
                  lambda config, ds: sweep_dimension(config, ds, [2, 3]),
                  lambda config, ds: sweep_train_fraction(config, ds, (0.5, 1.0)))
        cases = [
            (ExperimentConfig(feature="svd", classifier="knn", r=3, trials=1),
             "classifier knn with feature svd", splits + (holdout_subject,)),
            (ExperimentConfig(classifier="svn", r=3, trials=1),
             "unknown classifier 'svn'", splits + (holdout_subject,)),
            (ExperimentConfig(feature="svd", r=3, trials=0), "trials must be >= 1", splits),
            (ExperimentConfig(r=0, trials=1), re.escape("feature dimension r=0 is below 1"),
             splits + (holdout_subject,)),
        ]
        for r in (0, -2):
            sweep = (lambda config, ds, r=r: sweep_dimension(config, ds, [2, r]))
            cases.append((ExperimentConfig(r=3, trials=1),
                          re.escape(f"feature dimension r={r} is below 1"), (sweep,)))
        for frac in (-0.5, 0.0, 1.5, float("nan")):
            sweep = (lambda config, ds, frac=frac: sweep_train_fraction(config, ds, (0.5, frac)))
            cases.append((ExperimentConfig(r=3, trials=1),
                          re.escape(f"training fraction {frac} is outside (0, 1]"), (sweep,)))
        for config, message, entries in cases:
            for entry in entries:
                with pytest.raises(ValueError, match=message):
                    entry(config, small_gestures)
        assert preprocessed == []

    def test_localized_q_default_is_kernel_spec_default(self):
        assert experiments._kernel_spec(ExperimentConfig(r=30)).params["q"] == 18
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

    def test_method_name_builds_no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel built")

        monkeypatch.setattr(kernels, "build_localized_kernel", refuse)
        config = ExperimentConfig(kernel_params={"N": 8.0, "q": 18}, r=30)
        assert config.method_name() == "PCA LocSVM64"

    @pytest.mark.parametrize("N", [0.5, 0.0])
    def test_invalid_bandwidth_raises_before_any_row(self, small_gestures, N):
        config = ExperimentConfig(kernel_params={"N": N}, trials=1)
        with pytest.raises(ValueError, match="N must be >= 1"):
            config.method_name()
        with pytest.raises(ValueError, match="N must be >= 1"):
            run_experiment(config, small_gestures)
        with pytest.raises(ValueError, match="N must be >= 1"):
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

    def test_sweeps_propagate_other_errors(self, small_gestures):
        # an invalid bandwidth is not a rank or missing-class cause
        config = ExperimentConfig(kernel_params={"N": 0.5}, trials=1, seed=42)
        with pytest.raises(ValueError, match="N must be >= 1"):
            sweep_dimension(config, small_gestures, [2, 6])
        with pytest.raises(ValueError, match="N must be >= 1"):
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


def _noised_gestures(seed):
    """A 120-sample gesture set with Rayleigh(2.0) noise on every magnitude,
    which takes subject-holdout accuracy off the ceiling."""
    ds = gen_synthetic_gestures(per_cell=5, seed=seed)
    rng = np.random.default_rng(seed)
    samples = [replace(s, data=s.data + rng.rayleigh(2.0, s.data.shape)) for s in ds.samples]
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
        spec = experiments._kernel_spec(config)
        tol = 4 * np.finfo(float).eps
        for pool_idx, folds in pools:
            pairs = _preprocessed(config.preprocessing, samples, pool_idx)
            per_sample = _sample_features(config, (spectrogram for _, spectrogram in pairs))
            pool = experiments._PoolGram.timed(spec, per_sample)
            for train, test in folds:
                train_f = [per_sample[i] for i in train]
                G = pool.train_gram(train)
                assert G.spec == spec
                assert np.array_equal(G.entries, G.entries.T)
                np.testing.assert_allclose(G.entries, kernels.gram(spec, train_f).entries,
                                           rtol=0, atol=tol)
                np.testing.assert_allclose(
                    pool.test_rows(test, train),
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
        train_gram = experiments._PoolGram.train_gram

        def recorded(pool, train_idx):
            slices.append(len(train_idx))
            return train_gram(pool, train_idx)

        monkeypatch.setattr(experiments._PoolGram, "train_gram", recorded)
        svd = ExperimentConfig(feature="svd", r=3, kernel_kind="grassmann",
                               trials=trials, train_ratio=train_ratio)
        run_experiment(svd, small_gestures)
        assert (len(grams), len(crosses), len(slices)) == (1, 0, trials)

    def test_folds_are_charged_their_share_of_the_pool_gram(self, small_gestures,
                                                             monkeypatch):
        # a pool Gram of at least 0.2 s: each fold's columns hold at least
        # its blocks' share of it at the per-entry rate
        gram = experiments.gram

        def slow_gram(*args, **kwargs):
            time.sleep(0.2)
            return gram(*args, **kwargs)

        monkeypatch.setattr(experiments, "gram", slow_gram)
        config = ExperimentConfig(feature="svd", r=3, kernel_kind="grassmann")
        rows = holdout_subject(config, small_gestures).rows
        M = len(small_gestures.samples)
        for subject, row in zip(small_gestures.subjects, rows):
            n_test = sum(s.subject == subject for s in small_gestures.samples)
            n_train = M - n_test
            assert row.train_time_s >= 0.2 * n_train * n_train / M**2
            assert row.test_time_s >= 0.2 * n_test * n_train / M**2

    def test_pca_builds_kernels_per_fold(self, small_gestures, monkeypatch):
        # a Gram and a cross-Gram per fold, one localized kernel per call
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
        assert (len(grams), len(crosses), len(builds)) == (9, 9, 2)

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
