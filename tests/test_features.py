from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from lockern import experiments
from lockern.experiments import gen_synthetic_gestures
from lockern.features import (
    ArmaModel,
    YEN_BINS,
    Spectrogram,
    _yen_thresholds,
    arma_fit,
    fit_pca,
    grassmann_embed,
    log_threshold,
    normalize,
    preprocess,
    pca_project,
    stft,
    svd_features,
)
from lockern.kernels import KernelSpec, gram
from kernel_oracle import pair_oracle, stft_oracle
from preprocess_oracle import (
    db_oracle, log_threshold_oracle, preprocess_oracle, yen_oracle, zero_pad_stack,
)


class TestStft:
    def test_pure_tone_concentrates(self):
        n = 1024
        t = np.arange(n)
        signal = np.cos(2.0 * np.pi * 8.0 * t / 64.0)
        spec = stft(signal, window=np.ones(64), hop=32, fft_size=64)
        energy = spec.data**2
        tone = energy[8].sum() + energy[64 - 8].sum()
        assert tone >= 0.99 * energy.sum()

    def test_frame_count(self):
        spec = stft(np.zeros(100), window=np.ones(32), hop=16, fft_size=32)
        assert spec.data.shape == (32, (100 - 32) // 16 + 1)

    def test_zero_signal(self):
        spec = stft(np.zeros(128), window=np.hanning(64), hop=32, fft_size=64)
        assert np.all(spec.data == 0.0)
        assert spec.state == "magnitude"

    def test_chirp_ridge_moves(self):
        # increasing instantaneous frequency moves the spectral peak upward
        n = 4096
        t = np.arange(n) / n
        signal = np.cos(2.0 * np.pi * (2.0 + 14.0 * t) * t * 64.0)
        spec = stft(signal, window=np.hanning(128), hop=64, fft_size=128)
        half = spec.data[:64]
        peaks = np.argmax(half, axis=0)
        assert peaks[-1] > peaks[0]

    def test_gesture_set_matches_frame_oracle(self, monkeypatch):
        calls = []

        def checked(signal, window, hop, fft_size, **kwargs):
            spec = stft(signal, window, hop, fft_size, **kwargs)
            calls.append(signal)
            assert np.array_equal(spec.data, stft_oracle(signal, window, hop, fft_size))
            return spec

        monkeypatch.setattr(experiments, "stft", checked)
        gen_synthetic_gestures(per_cell=10, seed=3)
        assert len(calls) == 240

    @pytest.mark.parametrize("n, win, hop", [(64, 64, 32), (64, 64, 1), (500, 32, 45),
                                             (97, 16, 40)])
    def test_edge_framings_match_frame_oracle(self, n, win, hop):
        # len(signal) == win gives one frame; hop > win skips samples between frames
        signal = np.random.default_rng(n + hop).normal(size=n)
        window = np.hanning(win)
        spec = stft(signal, window, hop=hop, fft_size=64)
        assert spec.data.shape[1] == (n - win) // hop + 1
        assert np.array_equal(spec.data, stft_oracle(signal, window, hop, 64))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stft(np.zeros(16), window=np.ones(32), hop=8, fft_size=32)
        with pytest.raises(ValueError):
            stft(np.zeros(64), window=np.ones(32), hop=0, fft_size=32)
        with pytest.raises(ValueError):
            stft(np.zeros(64), window=np.ones(32), hop=8, fft_size=16)
        # each refusal names its own cause, not the length check's
        with pytest.raises(ValueError, match="signal must be 1-D, got 2-D"):
            stft(np.ones((3, 100)), np.hanning(8), 4, 8)
        with pytest.raises(ValueError, match="signal must be 1-D, got 0-D"):
            stft(np.float64(1.0), np.hanning(8), 4, 8)
        with pytest.raises(ValueError, match="window is empty"):
            stft(np.ones(100), np.array([]), 4, 8)
        with pytest.raises(ValueError, match="window must be 1-D, got 2-D"):
            stft(np.ones(100), np.ones((2, 4)), 4, 8)
        with pytest.raises(ValueError, match="hop must be an integer >= 1, got 2.5"):
            stft(np.ones(100), np.hanning(8), 2.5, 8)
        # a float fft_size of at least the window length passes the length
        # check, and np.fft named no parameter
        with pytest.raises(ValueError, match="fft_size must be an integer, got 8.5"):
            stft(np.ones(100), np.hanning(8), 4, 8.5)
        with pytest.raises(ValueError, match="fft_size must be an integer, got 16.0"):
            stft(np.ones(100), np.hanning(8), 4, 16.0)
        assert stft(np.ones(100), np.hanning(8), 4, np.int64(16)).data.shape == (16, 24)


def yen_naive(values):
    """Per-threshold loop evaluation of the same correlation criterion."""
    values = np.asarray(values, dtype=float).ravel()
    lo, hi = values.min(), values.max()
    counts, edges = np.histogram(values, bins=YEN_BINS, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    pmf = counts / counts.sum()
    best, best_t = -np.inf, lo
    for i in range(YEN_BINS - 1):
        p1 = pmf[: i + 1].sum()
        a = (pmf[: i + 1] ** 2).sum()
        b = (pmf[i + 1 :] ** 2).sum()
        if a <= 0 or b <= 0 or p1 <= 0 or p1 >= 1:
            continue
        crit = -np.log(a * b) + 2.0 * np.log(p1 * (1 - p1))
        if crit > best:
            best, best_t = crit, centers[i]
    return best_t


@st.composite
def ragged_blocks(draw):
    """1-8 segments of the kinds that reach every branch of the histogram:
    one element, constant, two values, values on the edges of the YEN_BINS
    bins or one float to either side of them (where np.histogram corrects
    the computed bin), and spread."""
    kinds = draw(st.lists(
        st.sampled_from(["one", "constant", "two_valued", "on_edges", "beside_edges", "spread"]),
        min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = []
    for kind in kinds:
        lo, hi = np.sort(rng.normal(-40.0, 30.0, 2))
        n = int(rng.integers(2, 300))
        edges = np.linspace(lo, hi, YEN_BINS + 1)
        if kind == "one":
            seg = np.array([lo])
        elif kind == "constant":
            seg = np.full(n, lo)
        elif kind == "two_valued":
            seg = rng.choice([lo, hi], n)
            seg[:2] = lo, hi
        elif kind == "on_edges":
            seg = rng.choice(edges, n)
            seg[:2] = lo, hi
        elif kind == "beside_edges":
            inner = rng.choice(edges, n)
            seg = np.clip(np.nextafter(inner, np.where(rng.random(n) < 0.5, -np.inf, np.inf)),
                          lo, hi)
            seg[:2] = lo, hi
        else:
            seg = rng.normal(lo, hi - lo, n)
        segments.append(seg)
    return segments


def yen_block(*segments):
    return _yen_thresholds(np.concatenate(segments), np.array([len(seg) for seg in segments]))


class TestYenThreshold:
    def test_matches_naive_on_bimodal(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(-40, 3, 3000), rng.normal(0, 3, 500)])
        assert yen_block(values)[0] == pytest.approx(yen_naive(values))

    def test_separates_two_levels(self):
        rng = np.random.default_rng(1)
        mask = rng.random((32, 32)) < 0.2
        img = np.where(mask, 10.0, 0.0) + rng.normal(0, 1.0, mask.shape)
        t = yen_block(img.ravel())[0]
        # lands between the cluster means, keeps all planted signal pixels
        assert 0.0 < t < 10.0
        assert np.all(img[mask] > t)
        assert np.mean((img > t) == mask) > 0.9

    def test_db_bimodal(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([rng.normal(-80, 5, 3000), rng.normal(-20, 5, 600)])
        t = yen_block(values)[0]
        assert -80.0 < t < -20.0
        assert np.all(values[values > -40.0] > t)

    def test_constant_input(self):
        assert yen_block(np.full(100, 7.0))[0] == 7.0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_threshold_within_range(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500)
        t = yen_block(values)[0]
        assert values.min() <= t <= values.max()

    @pytest.mark.parametrize("seed", range(20))
    def test_batched_matches_oracle_on_gesture_sets(self, seed):
        # clean, and with the Rayleigh(2.0) noise of the benchmark's holdout
        # workload added to every magnitude
        clean = gen_synthetic_gestures(per_cell=10, seed=seed).samples
        rng = np.random.default_rng(seed)
        noisy = [replace(s, data=s.data + rng.rayleigh(2.0, s.data.shape)) for s in clean]
        for samples in (clean, noisy):
            db = [db_oracle(s) for s in samples]
            expected = np.array([yen_oracle(d) for d in db])
            values = np.concatenate([d.ravel(order="F") for d in db])
            got = _yen_thresholds(values, np.array([d.size for d in db]))
            assert got.tobytes() == expected.tobytes()

    def test_values_at_and_just_below_hi_match_oracle(self):
        # segments that hold hi many times, the float just below it, and lo:
        # each value at hi, and at -1, 1 and -120, 0 the float below it too,
        # computes to position YEN_BINS, the edge table's +inf column, and is
        # moved back into the last bin, as np.histogram bins it
        rng = np.random.default_rng(11)
        segments = []
        for lo, hi in [(-1.0, 1.0), (-3.0, 5.0), (-93.7, -12.1), (0.0, 1.0),
                       (-120.0, 0.0), (-1e-300, 1e-300), (1.0, 1.0 + 2**-44)]:
            below = np.nextafter(hi, -np.inf)
            seg = np.concatenate([np.full(40, hi), np.full(9, below), [lo],
                                  rng.uniform(lo, hi, 25)])
            segments.append(rng.permutation(seg))
        got = yen_block(*segments)
        expected = np.array([yen_oracle(seg) for seg in segments])
        assert got.tobytes() == expected.tobytes()

    @given(ragged_blocks())
    @settings(max_examples=200, deadline=None)
    def test_ragged_blocks_match_oracle(self, segments):
        got = yen_block(*segments)
        expected = np.array([yen_oracle(seg) for seg in segments])
        assert got.tobytes() == expected.tobytes()


# 10 and the next float or so above it: too few floats between them for 256
# bins; and a range with an infinite end
NARROW = np.array([10.0, 10.0 * (1.0 + 4e-16)])
NOT_FINITE = np.array([1.0, np.inf])
# a range of 100 subnormals: its step (hi - lo) / 256 underflows to 0
ZERO_STEP = np.array([0.0, 100 * 5e-324])
# 384 subnormals: the step rounds to 2 of them, and the 255th edge lands
# past hi. The per-segment histogram refuses it, though the other linspace
# arithmetic, (j / 256) * delta + lo, would give increasing edges.
ROUNDED_STEP = np.array([-600 * 5e-324, -216 * 5e-324])
SPREAD = np.arange(-30.0, 2.0)


class TestYenErrors:
    @pytest.mark.parametrize("first,second,match", [
        (NARROW, NOT_FINITE, "sample 1: .* too narrow for 256"),
        (NOT_FINITE, NARROW, "sample 1: .* is not finite"),
    ])
    def test_first_bad_segment_named_with_its_cause(self, first, second, match):
        with pytest.raises(ValueError, match=match):
            yen_block(SPREAD, first, second, SPREAD)

    @pytest.mark.parametrize("seg", [ZERO_STEP, ROUNDED_STEP])
    def test_oracle_refuses_subnormal_ranges(self, seg):
        with pytest.raises(ValueError, match="Too many bins"):
            yen_oracle(seg)

    def test_zero_step_segment_named(self):
        with pytest.raises(ValueError, match="sample 1: .* too narrow for 256"):
            yen_block(SPREAD, ZERO_STEP, SPREAD)

    def test_zero_step_segment_keeps_earlier_edges(self):
        # each segment's edges are its own: the zero step of a later segment
        # does not switch an earlier one to the other arithmetic, which would
        # let the earlier one pass where np.histogram refuses it
        with pytest.raises(ValueError, match="sample 1: .* too narrow for 256"):
            yen_block(SPREAD, ROUNDED_STEP, ZERO_STEP)


class TestLogThreshold:
    def test_state_and_sparsity(self):
        rng = np.random.default_rng(3)
        data = np.where(rng.random((64, 40)) < 0.1, 5.0, 1e-4)
        spec = Spectrogram(data=data)
        out = log_threshold([spec])[0]
        assert out.state == "thresholded"
        # the loud 10 percent survives, the quiet background is zeroed
        kept = out.data != 0
        assert kept.mean() < 0.2
        assert np.all(out.data[data > 1.0] != 0)

    def test_rejects_wrong_state(self):
        spec = Spectrogram(data=np.ones((4, 4)), state="binary")
        with pytest.raises(ValueError):
            log_threshold([spec])

    def test_matches_oracle_per_sample(self):
        samples = gen_synthetic_gestures(per_cell=2, seed=5).samples
        samples.append(Spectrogram(data=np.full((64, 3), 3.0)))  # constant
        for got, spec in zip(log_threshold(samples), samples):
            expected = log_threshold_oracle(spec)
            assert got.data.tobytes() == expected.data.tobytes()
            assert got.data.shape == spec.data.shape
            assert got.state == "thresholded"
            assert (got.label, got.subject) == (spec.label, spec.subject)

    def test_constant_sample_keeps_its_value(self):
        quiet = Spectrogram(data=np.where(np.eye(8) > 0, 5.0, 1e-4))
        out = log_threshold([quiet, Spectrogram(data=np.full((4, 3), 3.0))])
        np.testing.assert_array_equal(out[1].data, np.full((4, 3), 20.0 * np.log10(3.0)))

    def test_wrong_state_names_position(self):
        good = Spectrogram(data=np.ones((4, 4)))
        with pytest.raises(ValueError, match="sample 1: expected magnitude state"):
            log_threshold([good, Spectrogram(data=np.ones((4, 4)), state="binary")])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_names_position(self, bad):
        good = Spectrogram(data=np.arange(1.0, 17.0).reshape(4, 4))
        data = np.arange(1.0, 17.0).reshape(4, 4)
        data[2, 1] = bad
        with pytest.raises(ValueError):
            log_threshold_oracle(Spectrogram(data=data))
        with pytest.raises(ValueError, match="sample 2: .* is not finite"):
            log_threshold([good, good, Spectrogram(data=data), good])

    def test_narrow_range_names_position(self):
        # 20 dB and the next float or so above it: too few floats between
        # them for 256 bins
        good = Spectrogram(data=np.arange(1.0, 17.0).reshape(4, 4))
        narrow = Spectrogram(data=np.array([[10.0, 10.0 * (1.0 + 4e-16)]]))
        with pytest.raises(ValueError, match="Too many bins"):
            log_threshold_oracle(narrow)
        with pytest.raises(ValueError, match="sample 1: .* too narrow for 256"):
            log_threshold([good, narrow, good])

    def test_empty_sequence(self):
        assert log_threshold([]) == []


class TestPreprocess:
    @pytest.mark.parametrize("mode", ["binary", "unit", "magnitude"])
    def test_matches_per_sample_oracle(self, mode):
        # gesture samples, clean and Rayleigh-noised, and the edge cases of
        # unit: a support of one distinct value, an empty support (every
        # kept value is 0 dB) and a constant sample
        ds = gen_synthetic_gestures(per_cell=2, seed=6)
        rng = np.random.default_rng(6)
        samples = ds.samples + [Spectrogram(data=s.data + rng.rayleigh(2.0, s.data.shape))
                                for s in ds.samples[::5]]
        samples += [
            Spectrogram(data=np.where(np.eye(6) > 0, 10.0, 0.1)),
            Spectrogram(data=np.where(np.eye(6) > 0, 1.0, 1e-3)),
            Spectrogram(data=np.full((4, 3), 3.0)),
        ]
        flat, sizes = preprocess(samples, mode)
        assert sizes.tolist() == [s.data.size for s in samples]
        assert flat.size == sizes.sum()
        assert flat.dtype == (bool if mode == "binary" else float)
        for spec, size, end in zip(samples, sizes, np.cumsum(sizes)):
            got = flat[end - size:end].reshape(spec.data.shape, order="F")
            assert got.astype(float).tobytes() == preprocess_oracle(spec, mode).data.tobytes()

    def test_binary_is_the_bool_support(self):
        # the support itself, equal in value to normalize's float indicator
        samples = gen_synthetic_gestures(per_cell=1, seed=8).samples
        flat, sizes = preprocess(samples, "binary")
        assert flat.dtype == bool
        for spec, size, end in zip(samples, sizes, np.cumsum(sizes)):
            want = normalize(log_threshold([spec])[0], "binary").data
            np.testing.assert_array_equal(flat[end - size:end], want.ravel(order="F"))

    def test_unit_edge_cases(self):
        one_value, empty = (Spectrogram(data=np.where(np.eye(6) > 0, level, low))
                            for level, low in ((10.0, 0.1), (1.0, 1e-3)))
        flat, _ = preprocess([one_value, empty], "unit")
        np.testing.assert_array_equal(flat, np.concatenate([np.eye(6).ravel(), np.zeros(36)]))

    def test_wrong_state_names_position(self):
        good = Spectrogram(data=np.ones((4, 4)))
        for mode in ("binary", "unit", "magnitude"):
            with pytest.raises(ValueError, match="sample 1: expected magnitude state"):
                preprocess([good, Spectrogram(data=np.ones((4, 4)), state="binary")], mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown preprocessing mode 'zscore'"):
            preprocess([Spectrogram(data=np.ones((2, 2)))], "zscore")

    def test_empty_sequence(self):
        for mode, dtype in (("binary", bool), ("unit", float)):
            flat, sizes = preprocess([], mode)
            assert flat.size == 0 and sizes.size == 0 and flat.dtype == dtype


class TestNormalize:
    def _thresholded(self):
        data = np.array([[0.0, 3.0], [5.0, 0.0]])
        return Spectrogram(data=data, state="thresholded")

    def test_binary(self):
        out = normalize(self._thresholded(), "binary")
        np.testing.assert_array_equal(out.data, [[0.0, 1.0], [1.0, 0.0]])
        assert out.state == "binary"

    def test_unit(self):
        out = normalize(self._thresholded(), "unit")
        np.testing.assert_allclose(out.data, [[0.0, 0.0], [1.0, 0.0]])
        assert out.state == "unit_normalized"
        assert out.data.max() == 1.0

    def test_unit_constant_support(self):
        spec = Spectrogram(data=np.array([[0.0, 4.0], [4.0, 0.0]]), state="thresholded")
        out = normalize(spec, "unit")
        np.testing.assert_array_equal(out.data, [[0.0, 1.0], [1.0, 0.0]])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalize(self._thresholded(), "zscore")

    def test_wrong_state(self):
        with pytest.raises(ValueError):
            normalize(Spectrogram(data=np.ones((2, 2))), "binary")


class TestSvdFeatures:
    def test_rank_one(self):
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        spec = Spectrogram(data=6.0 * np.outer(u, v))
        feat = svd_features(spec, 1)
        assert feat.S[0] == pytest.approx(6.0)
        np.testing.assert_allclose(np.abs(feat.U[:, 0]), np.abs(u), atol=1e-12)

    def test_matches_gram_eigendecomposition(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 8))
        feat = svd_features(Spectrogram(data=X), 4)
        eigs = np.sort(np.linalg.eigvalsh(X @ X.T))[::-1]
        np.testing.assert_allclose(feat.S**2, eigs[:4], rtol=1e-10)
        np.testing.assert_allclose(feat.U.T @ feat.U, np.eye(4), atol=1e-10)

    def test_r_out_of_range(self):
        spec = Spectrogram(data=np.ones((4, 3)))
        with pytest.raises(ValueError):
            svd_features(spec, 4)
        with pytest.raises(ValueError):
            svd_features(spec, 0)


class TestPca:
    def test_line_direction(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal(200)
        direction = np.array([2.0, 1.0]) / np.sqrt(5.0)
        X = np.outer(t, direction) + np.array([5.0, -3.0])
        basis = fit_pca(X, 1)
        np.testing.assert_allclose(np.abs(basis.components[:, 0]), np.abs(direction), atol=1e-10)
        np.testing.assert_allclose(basis.mean, X.mean(axis=0))

    def test_covariance_eigen_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((50, 6))
        basis = fit_pca(X, 3)
        cov = np.cov(X, rowvar=False)
        eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(basis.explained, eigs[:3], rtol=1e-10)

    def test_projection_centers(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 5))
        basis = fit_pca(X, 5)
        projected = np.array([pca_project(basis, x) for x in X])
        np.testing.assert_allclose(projected.mean(axis=0), 0.0, atol=1e-10)
        # full-rank projection preserves pairwise distances
        d_orig = np.linalg.norm(X[0] - X[1])
        d_proj = np.linalg.norm(projected[0] - projected[1])
        assert d_proj == pytest.approx(d_orig, rel=1e-10)

    @pytest.mark.parametrize("M,D", [(40, 120), (120, 40)])
    def test_svd_oracle(self, M, D):
        # M <= D goes through the M x M sample Gram, M > D through the D x D one
        rng = np.random.default_rng(12)
        X = rng.standard_normal((M, D)) * np.linspace(3.0, 0.5, D) + rng.standard_normal(D)
        r = 6
        basis = fit_pca(X, r)
        Xc = X - X.mean(axis=0)
        _, S, Vt = np.linalg.svd(Xc, full_matrices=False)
        assert np.max(subspace_angles(basis.components, Vt[:r].T)) < 1e-8
        np.testing.assert_allclose(basis.components.T @ basis.components, np.eye(r), atol=1e-12)
        np.testing.assert_allclose(basis.explained, S[:r] ** 2 / (M - 1), rtol=1e-10)

    @pytest.mark.parametrize("M,D", [(40, 120), (120, 40)])
    def test_centred_fit_matches_fit_and_project(self, M, D):
        # both Gram branches: fit_pca centres a copy, so its input is left as
        # it was, and the centred rows times the components are pca_project
        # of the rows, byte for byte
        rng = np.random.default_rng(13)
        X = rng.standard_normal((M, D)) * np.linspace(3.0, 0.5, D) + rng.standard_normal(D)
        before = X.tobytes()
        basis = fit_pca(X, 6)
        assert X.tobytes() == before
        assert basis.mean.tobytes() == X.mean(axis=0).tobytes()
        assert ((X - basis.mean) @ basis.components).tobytes() == pca_project(basis, X).tobytes()

    def test_rank_deficient_refused(self):
        X = np.zeros((10, 4))
        X[:, 0] = np.arange(10.0)
        with pytest.raises(ValueError):
            fit_pca(X, 2)

    @pytest.mark.parametrize("M,D", [(10, 4), (6, 30)])
    def test_rank_two_data_refused_at_r3(self, M, D):
        X = np.zeros((M, D))
        X[:, 0] = np.arange(float(M))
        X[:, 1] = 0.5 * np.arange(float(M)) ** 2
        with pytest.raises(ValueError):
            fit_pca(X, 3)
        fit_pca(X, 2)

    def test_project_length_mismatch(self):
        basis = fit_pca(np.random.default_rng(0).standard_normal((10, 4)), 2)
        with pytest.raises(ValueError):
            pca_project(basis, np.zeros(5))


class TestZeroPad:
    def test_column_major_order(self):
        spec = Spectrogram(data=np.array([[1.0, 3.0], [2.0, 4.0]]))
        np.testing.assert_array_equal(
            zero_pad_stack([spec], 3)[0], [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]
        )

    def test_exact_width(self):
        spec = Spectrogram(data=np.eye(3))
        assert len(zero_pad_stack([spec], 3)[0]) == 9

    def test_too_wide(self):
        with pytest.raises(ValueError):
            zero_pad_stack([Spectrogram(data=np.ones((2, 5)))], 4)

    def test_stack_rows_match_padding_oracle(self):
        rng = np.random.default_rng(4)
        specs = [Spectrogram(data=rng.random((3, cols))) for cols in (1, 4, 2)]
        X = zero_pad_stack(specs, 4)
        assert X.shape == (3, 12)
        for row, spec in zip(X, specs):
            padded = np.pad(spec.data, ((0, 0), (0, 4 - spec.data.shape[1])))
            assert row.tobytes() == padded.ravel(order="F").tobytes()

    def test_stack_refuses_other_bin_count(self):
        specs = [Spectrogram(data=np.ones((2, 2))), Spectrogram(data=np.ones((3, 2)))]
        with pytest.raises(ValueError, match="3 frequency bins, expected 2"):
            zero_pad_stack(specs, 2)


def make_lds(p, d, tau, seed):
    """Noiseless stable linear dynamical system observed through C0."""
    rng = np.random.default_rng(seed)
    C0, _ = np.linalg.qr(rng.standard_normal((p, d)))
    raw = rng.standard_normal((d, d))
    A0 = 0.9 * raw / np.abs(np.linalg.eigvals(raw)).max()
    x = rng.standard_normal(d)
    cols = []
    for _ in range(tau):
        cols.append(C0 @ x)
        x = A0 @ x
    return np.column_stack(cols), C0


def subspace_angle(U1, U2):
    s = np.linalg.svd(U1.T @ U2, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


class TestArmaFit:
    def test_recovers_lds(self):
        F, C0 = make_lds(p=8, d=3, tau=100, seed=0)
        model = arma_fit(F, 3)
        assert subspace_angle(model.C, C0) < 1e-6
        # one-step prediction in the recovered state space
        states = model.C.T @ F
        pred = model.C @ (model.A @ states[:, :-1])
        assert np.max(np.abs(pred - F[:, 1:])) < 1e-6 * np.max(np.abs(F))
        assert not model.regularized

    def test_constant_series(self):
        F = np.tile(np.array([[1.0], [2.0]]), (1, 20))
        model = arma_fit(F, 1)
        np.testing.assert_allclose(model.A, [[1.0]], atol=1e-10)

    def test_rank_reconstruction(self):
        F, _ = make_lds(p=6, d=2, tau=50, seed=1)
        model = arma_fit(F, 2)
        np.testing.assert_allclose(model.C @ (model.C.T @ F), F, atol=1e-8)

    def test_rank_deficient_refused(self):
        F = np.zeros((4, 10))
        F[0] = np.arange(10.0)
        with pytest.raises(ValueError):
            arma_fit(F, 2)

    def test_short_series_refused(self):
        with pytest.raises(ValueError):
            arma_fit(np.ones((3, 1)), 1)


class TestGrassmannEmbed:
    def test_m1_is_c(self):
        F, _ = make_lds(p=8, d=3, tau=60, seed=2)
        model = arma_fit(F, 3)
        point = grassmann_embed(model, 1)
        s = np.linalg.svd(point.U.T @ model.C, compute_uv=False)
        np.testing.assert_allclose(s, 1.0, atol=1e-10)

    def test_identity_dynamics(self):
        C = np.eye(4)[:, :2]
        model = ArmaModel(A=np.eye(2), C=C, d=2)
        point = grassmann_embed(model, 3)
        assert point.U.shape == (12, 2)
        np.testing.assert_allclose(point.U.T @ point.U, np.eye(2), atol=1e-12)

    def test_distinguishes_dynamics(self):
        Fa, _ = make_lds(p=8, d=2, tau=80, seed=3)
        Fb, _ = make_lds(p=8, d=2, tau=80, seed=30)
        pa = grassmann_embed(arma_fit(Fa, 2), 4)
        pa2 = grassmann_embed(arma_fit(Fa * 2.0, 2), 4)  # scaling leaves the subspace alone
        pb = grassmann_embed(arma_fit(Fb, 2), 4)
        d_same = subspace_angle(pa.U, pa2.U)
        d_diff = subspace_angle(pa.U, pb.U)
        assert d_same < 1e-8
        assert d_diff > 1e-3

    @pytest.mark.parametrize("kind", ["grassmann", "laplace_svd", "gaussian_svd"])
    def test_gram_on_embeddings(self, kind):
        # ARMA embeddings are subspace points of every subspace kernel
        points = [grassmann_embed(arma_fit(make_lds(p=8, d=2, tau=80, seed=s)[0], 2), 4)
                  for s in (3, 30, 31)]
        spec = KernelSpec(kind)
        K = gram(spec, points).entries
        k = pair_oracle(spec)
        oracle = [[k(a, b) for b in points] for a in points]
        np.testing.assert_allclose(K, oracle, rtol=1e-12)
        np.testing.assert_array_equal(np.diag(K), 1.0)
        assert np.all(K[~np.eye(3, dtype=bool)] < 1.0)

    def test_s_is_singular_values_of_stack(self):
        F, _ = make_lds(p=8, d=3, tau=60, seed=2)
        model = arma_fit(F, 3)
        blocks = [model.C]
        for _ in range(3):
            blocks.append(blocks[-1] @ model.A)
        expected = np.linalg.svd(np.vstack(blocks), compute_uv=False)
        np.testing.assert_allclose(grassmann_embed(model, 4).S, expected, rtol=1e-12, atol=0)

    def test_zero_observation_refused(self):
        model = ArmaModel(A=np.eye(2), C=np.zeros((4, 2)), d=2)
        with pytest.raises(ValueError, match="observability stack is rank deficient"):
            grassmann_embed(model, 3)

    def test_invalid_m(self):
        model = ArmaModel(A=np.eye(1), C=np.ones((2, 1)) / np.sqrt(2.0), d=1)
        with pytest.raises(ValueError):
            grassmann_embed(model, 0)
