import math
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
    _fold_features,
    _preprocessed,
    _sample_features,
    _stratified_split,
)
from lockern.features import RankError
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
        from lockern.features import zero_pad_vectorize

        ds = small_gestures
        target = max(s.data.shape[1] for s in ds.samples)
        feats, labels = [], []
        for i, spec in _preprocessed("binary", ds.samples, range(0, len(ds.samples), 4)):
            feats.append(zero_pad_vectorize(spec, target))
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
        per_sample = _sample_features(config, _preprocessed(config.preprocessing, ds.samples, range(70)))
        train = range(40)
        fa, _ = _fold_features(config, per_sample, train, range(40, 44), target)
        fb, _ = _fold_features(config, per_sample, train, range(60, 70), target)
        for va, vb in zip(fa, fb):
            np.testing.assert_array_equal(va, vb)

    def test_svd_feature_shape(self, small_gestures):
        config = ExperimentConfig(feature="svd", r=4)
        pre = _preprocessed(config.preprocessing, small_gestures.samples, range(6))
        per_sample = _sample_features(config, pre)
        train_f, test_f = _fold_features(config, per_sample, range(4), range(4, 6), 100)
        assert all(f.U.shape == (64, 4) and f.S.shape == (4,) for f in train_f + test_f)

    def test_unknown_feature(self):
        with pytest.raises(ValueError):
            _sample_features(ExperimentConfig(feature="wavelet"), [])


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
