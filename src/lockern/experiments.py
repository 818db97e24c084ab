"""Synthetic data generators and the experiment harness: repeated stratified
splits, feature-dimension sweeps, training-fraction sweeps and
hold-one-subject-out evaluation.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .classify import knn_predict, one_vs_rest_predict, one_vs_rest_train
from .features import PREPROCESSING_MODES, RankError, Spectrogram, preprocess, stft, svd_features
from .kernels import DEFAULT_PARAMS, FLAT_KINDS, GramMatrix, KernelSpec, cross_gram, gram
# Unused here: kernel_fn, fit_pca, pca_project, log_threshold and normalize
# stay importable from this module because the benchmark's traced run
# (bench/layers.py) wraps them by these names.
from .features import fit_pca, log_threshold, normalize, pca_project  # noqa: F401
from .kernels import kernel_fn  # noqa: F401

__all__ = [
    "SyntheticManifoldSet",
    "GestureSet",
    "ExperimentConfig",
    "MissingClassError",
    "ResultRow",
    "ResultTable",
    "gen_circle",
    "gen_synthetic_gestures",
    "run_experiment",
    "sweep_dimension",
    "sweep_train_fraction",
    "holdout_subject",
]

SUBJECT_NAMES = "ABCDEF"

# Most spectrogram elements one `preprocess` call takes in `_preprocessed`.
# Of 2^13-2^16, 2^15 (about fifteen 64-bin gesture spectrograms)
# preprocessed a gesture set fastest; smaller blocks pay more per-call
# overhead, and 2^16 was no faster but raised peak memory.
_PREPROCESS_BLOCK_ELEMS = 2**15

# the state of a spectrogram preprocessed in each mode
_STATES = {"binary": "binary", "unit": "unit_normalized", "magnitude": "magnitude"}

# A binary P (every entry 0 or 1) narrower than this is formed in float32:
# each entry of P P' is an integer count of at most its width, which float32
# holds exactly, as it does every partial sum, so the product is bitwise the
# float64 one.
_FLOAT32_EXACT = 2**24


class MissingClassError(ValueError):
    """A class has no sample in a training fold."""


@dataclass(frozen=True)
class SyntheticManifoldSet:
    ambient_dim: int
    points: np.ndarray  # M x Q
    angles: np.ndarray  # circle parameters of the noiseless points
    truth: np.ndarray
    noise_sigma: float


@dataclass(frozen=True)
class GestureSet:
    """Labelled spectrograms: a synthetic set or one read from a manifest."""

    samples: list  # of Spectrogram with label/subject set
    classes: int
    subjects: list


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment grid. A config that no fold can run is
    refused here, at construction, with a ValueError that names the cause,
    so every protocol starts only on a runnable config.

    `kernel`, derived at construction and not a field, is the SVM's
    KernelSpec, built once (None for k-NN, which uses no kernel). Building
    it is the kernel check: the kind, the keys and every parameter value.
    The localized q is clamped to r, since the manifold dimension never
    exceeds the feature-space dimension; a q below 1 is refused."""

    preprocessing: str = "binary"  # binary | unit | magnitude
    feature: str = "pca"  # pca | svd
    r: int = 30
    kernel_kind: str = "localized"
    kernel_params: dict = field(default_factory=dict)
    classifier: str = "svm"  # svm | knn
    knn_k: int = 5
    C: float = 1.0
    train_ratio: float = 0.8
    trials: int = 5
    seed: int = 42

    def __post_init__(self):
        if self.preprocessing not in PREPROCESSING_MODES:
            raise ValueError(f"unknown preprocessing {self.preprocessing!r}")
        if self.feature not in ("pca", "svd"):
            raise ValueError(f"unknown feature kind {self.feature!r}")
        if self.classifier not in ("svm", "knn"):
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.feature == "svd" and self.classifier == "knn":
            raise ValueError("classifier knn with feature svd: k-NN takes flat vectors "
                             "(feature pca), and SVD features are subspace bases")
        if self.classifier == "knn" and self.kernel_params:
            raise ValueError(f"classifier knn uses no kernel, so kernel parameters "
                             f"{', '.join(map(repr, self.kernel_params))} would have no effect")
        if self.r < 1:
            raise ValueError(f"feature dimension r={self.r} is below 1")
        kernel = None
        if self.classifier == "svm":
            params = dict(self.kernel_params)
            if self.kernel_kind == "localized":
                params["q"] = min(params.get("q", DEFAULT_PARAMS["localized"]["q"]), self.r)
            kernel = KernelSpec(self.kernel_kind, params)
            # PCA features are flat vectors, SVD features subspace bases
            flat = self.feature == "pca"
            if (self.kernel_kind in FLAT_KINDS) != flat:
                takes = [kind for kind in DEFAULT_PARAMS if (kind in FLAT_KINDS) == flat]
                raise ValueError(f"kernel {self.kernel_kind!r} does not take feature "
                                 f"{self.feature}; feature {self.feature} takes {', '.join(takes)}")
        object.__setattr__(self, "kernel", kernel)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.train_ratio < 1.0:  # NaN fails both comparisons
            raise ValueError(f"train_ratio {self.train_ratio} is outside (0, 1)")
        if not 0.0 < self.C < math.inf:
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if self.knn_k < 1:
            raise ValueError(f"knn_k={self.knn_k} is below 1")

    def method_name(self) -> str:
        if self.feature == "pca":
            if self.classifier == "knn":
                return "PCA KNN"
            if self.kernel_kind == "localized":
                return f"PCA LocSVM{self.kernel.localized.degree}"
            return f"PCA {self.kernel_kind} SVM"
        return f"{self.kernel_kind} SVD SVM"


@dataclass(frozen=True)
class ResultRow:
    """One result line. The two times cover per-fold work only:
    `train_time_s` the fold's features (for PCA: the kernel PCA fit, the
    coordinates of both sides and the scaling) and, for the SVM, the
    training Gram and SMO; `test_time_s` the test cross-Gram and prediction.
    Neither holds the kernel's build, which runs with the config's
    construction. Per-call work runs once, before the folds, and is in
    neither: preprocessing, SVD features, and the pool matrix
    (`_PoolGram`) that every call makes, whose rows are the pool's samples in
    pool order: the SVD features' kernel matrix, or the PCA inputs' linear
    Gram. The pool matrix's seconds are its own work: for PCA, the writes of
    the preprocessed blocks into P and the product, not the preprocessing,
    which runs between those writes. A fold, given as positions in the pool,
    reads its training block and test block from it and is charged that
    matrix's seconds at its per-entry rate for the entries it reads, the
    training block in `train_time_s` and the test block in `test_time_s`."""

    method: str
    r: int
    accuracy_mean: float  # percent
    accuracy_var: float
    train_time_s: float
    test_time_s: float


@dataclass
class ResultTable:
    rows: list

    def write_csv(self, path, include_timing: bool = True, extra: dict | None = None) -> None:
        extra = extra or {}
        cols = list(extra) + ["method", "r", "accuracy_mean", "accuracy_var"]
        if include_timing:
            cols += ["train_time_s", "test_time_s"]
        with open(path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(cols)
            for row in self.rows:
                out = list(extra.values()) + [
                    row.method,
                    row.r,
                    repr(row.accuracy_mean),
                    repr(row.accuracy_var),
                ]
                if include_timing:
                    out += [repr(row.train_time_s), repr(row.test_time_s)]
                w.writerow(out)


def gen_circle(Q: int, M: int, noise_sigma: float = 0.0, seed: int = 42) -> SyntheticManifoldSet:
    """M equispaced points on a unit circle embedded in R^Q by a fixed random
    rotation, with optional isotropic noise; truth is sin(3 theta)."""
    if Q < 2 or M < 2:
        raise ValueError("need Q >= 2 and M >= 2")
    rng = np.random.default_rng(seed)
    theta = 2.0 * math.pi * np.arange(M) / M
    flat = np.zeros((M, Q))
    flat[:, 0] = np.cos(theta)
    flat[:, 1] = np.sin(theta)
    rot, _ = np.linalg.qr(rng.normal(size=(Q, Q)))
    pts = flat @ rot.T
    if noise_sigma > 0:
        pts = pts + rng.normal(scale=noise_sigma, size=pts.shape)
    return SyntheticManifoldSet(
        ambient_dim=Q,
        points=pts,
        angles=theta,
        truth=np.sin(3.0 * theta),
        noise_sigma=float(noise_sigma),
    )


# class templates: (duration frames, chirp rate, doppler offset, oscillation depth, pulses)
_GESTURE_TEMPLATES = {
    0: dict(duration=700, rate=8e-5, offset=0.10, osc=0.0, pulses=1),  # short up-chirp
    1: dict(duration=1600, rate=0.0, offset=0.18, osc=0.12, pulses=1),  # long oscillation
    2: dict(duration=1100, rate=0.0, offset=0.26, osc=0.0, pulses=2),  # double pulse
    3: dict(duration=900, rate=-8e-5, offset=0.34, osc=0.0, pulses=1),  # down-chirp
}


def _gesture_signal(template: dict, subject_factor: float, rng) -> np.ndarray:
    dur = int(template["duration"] * subject_factor * rng.uniform(0.85, 1.15))
    t = np.arange(dur, dtype=float)
    n_comp = rng.integers(2, 5)  # up to 4 scatterer components
    sig = np.zeros(dur, dtype=complex)
    for c in range(n_comp):
        rate = template["rate"] * subject_factor * rng.uniform(0.9, 1.1)
        offset = template["offset"] * subject_factor * rng.uniform(0.95, 1.05) + 0.01 * c
        osc = template["osc"] * rng.uniform(0.9, 1.1)
        phase = 2.0 * math.pi * (offset * t + 0.5 * rate * t * t)
        if osc > 0:
            phase = phase + 2.0 * math.pi * osc * dur / (2 * math.pi * 8) * np.sin(
                2.0 * math.pi * 8 * t / dur
            )
        amp = np.ones(dur)
        if template["pulses"] == 2:
            # two bursts separated by a quiet gap
            amp = np.where((t < dur * 0.35) | (t > dur * 0.6), 1.0, 0.05)
        sig = sig + (amp / (1 + c)) * np.exp(1j * phase)
    noise = rng.normal(scale=0.05, size=dur) + 1j * rng.normal(scale=0.05, size=dur)
    return sig + noise


def gen_synthetic_gestures(
    classes: int = 4,
    subjects: int = 6,
    per_cell: int = 10,
    seed: int = 42,
    fft_size: int = 64,
    hop: int = 32,
) -> GestureSet:
    """Synthetic chirp-mixture gesture set: class-specific templates, subject-
    specific multiplicative perturbations, varying spectrogram widths."""
    if classes < 1 or subjects < 1 or per_cell < 1:
        raise ValueError("counts must be >= 1")
    if classes > len(_GESTURE_TEMPLATES):
        raise ValueError(f"at most {len(_GESTURE_TEMPLATES)} gesture classes available")
    rng = np.random.default_rng(seed)
    window = np.hanning(fft_size)
    samples = []
    subject_ids = [SUBJECT_NAMES[s] for s in range(subjects)]
    for label in range(classes):
        for s in range(subjects):
            factor = 1.0 + 0.06 * (s - (subjects - 1) / 2.0)
            for _ in range(per_cell):
                sig = _gesture_signal(_GESTURE_TEMPLATES[label], factor, rng)
                spec = stft(sig, window, hop=hop, fft_size=fft_size,
                            label=label, subject=subject_ids[s])
                samples.append(spec)
    return GestureSet(samples=samples, classes=classes, subjects=subject_ids)


def _stratified_split(labels, train_ratio: float, rng):
    labels = np.asarray(labels)
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        n_train = int(round(train_ratio * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1) if len(idx) > 1 else len(idx)
        train_idx.extend(idx[:n_train])
        test_idx.extend(idx[n_train:])
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


@dataclass(frozen=True)
class _Block:
    """Preprocessed samples in one buffer: `flat` holds the data of each,
    column-major, one after another."""

    indices: list  # the samples' indices in the data set
    flat: np.ndarray
    shapes: np.ndarray  # one (frequency bins, frames) row per sample


def _preprocessed(mode: str, samples, indices):
    """The preprocessed samples of `indices`, lazily, one `_Block` of
    consecutive indices (`_blocks`) at a time, each from one `preprocess`
    call: binary, unit or magnitude (`mode`). A caller that writes each block
    into a pool matrix, or keeps only SVD features, never holds every
    preprocessed sample. Errors name the samples of the block."""
    for block in _blocks(samples, indices):
        specs = [samples[i] for i in block]
        try:
            flat, _ = preprocess(specs, mode)
        except ValueError as exc:
            raise ValueError(f"samples {', '.join(map(str, block))}: {exc}") from exc
        yield _Block(block, flat, np.array([spec.data.shape for spec in specs]))


def _preprocessed_samples(mode: str, samples, indices):
    """(index, preprocessed Spectrogram) pairs of `_preprocessed`'s blocks, in
    order. Each Spectrogram's data is an F-ordered view of its block's
    buffer, with the sample's label and subject."""
    state = _STATES[mode]
    for block in _preprocessed(mode, samples, indices):
        segments = np.split(block.flat, np.cumsum(block.shapes.prod(axis=1))[:-1])
        for i, shape, segment in zip(block.indices, block.shapes, segments):
            yield i, Spectrogram(segment.reshape(shape, order="F"), state,
                                 samples[i].label, samples[i].subject)


def _single_blocks(pairs):
    """One `_Block` per (index, preprocessed Spectrogram) pair, a view of its
    data: the blocks of a pool that `_preprocessed` did not make in order."""
    for i, spec in pairs:
        yield _Block([i], spec.data.ravel(order="F"), np.array([spec.data.shape]))


def _blocks(samples, indices):
    """Runs of consecutive `indices` whose samples hold at most
    _PREPROCESS_BLOCK_ELEMS elements in all; a larger sample is a run alone."""
    block, elems = [], 0
    for i in indices:
        size = samples[i].data.size
        if block and elems + size > _PREPROCESS_BLOCK_ELEMS:
            yield block
            block, elems = [], 0
        block.append(i)
        elems += size
    if block:
        yield block


@dataclass(frozen=True)
class _PoolGram:
    """A matrix of one value per pair of pool samples, in pool order, made
    once per call, whatever the number of folds; a fold's positions in the
    pool are its rows and columns. For SVD features it is their kernel
    matrix: SVD features are per-sample and have no fitted parameters, so
    every kernel value a fold needs, training or test, is an entry of it. For
    PCA features it is the uncentred linear Gram P P' of the zero-padded
    samples P, from which each fold fits its kernel PCA (`_pca_fold`); P is
    written from the preprocessing's block buffers as they are made, with no
    per-sample object between them. Either costs about what one 80/20
    split's own Gram and cross-Gram cost."""

    entries: np.ndarray  # M x M, symmetric
    seconds: float  # wall time of building it
    width: int = 0  # PCA: the padded length D of the rows of P

    @classmethod
    def of_kernel(cls, spec: KernelSpec, features: list) -> _PoolGram:
        """The kernel matrix of the SVD features, timed."""
        t0 = time.perf_counter()
        entries = gram(spec, features).entries
        return cls(entries, time.perf_counter() - t0)

    @classmethod
    def of_padded(cls, blocks, n_samples: int, target_frames: int, binary: bool) -> _PoolGram:
        """P P' of `n_samples` preprocessed samples, given in pool order as a
        stream of `_Block`s: row k of P is sample k zero-padded on the right
        to target_frames frames and flattened column-major, as
        `zero_pad_stack` pads it (`_pad_rows`). P is float32 when the samples
        are `binary` (every entry 0 or 1) and its width is below
        _FLOAT32_EXACT, where the product is exact; float64 otherwise. Timed:
        the writes into P and the product, not the making of the blocks,
        which the stream does between the writes. P is freed on return."""
        seconds, P, row = 0.0, None, 0
        for block in blocks:
            t0 = time.perf_counter()
            if P is None:
                n_freq = int(block.shapes[0, 0])
                width = n_freq * target_frames
                exact = binary and width < _FLOAT32_EXACT
                P = np.zeros((n_samples, width), np.float32 if exact else float)
            _pad_rows(P, row, block, n_freq, target_frames)
            row += len(block.shapes)
            seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        if P is None:
            P = np.zeros((0, 0))
        entries = (P @ P.T).astype(float, copy=False)
        return cls(entries, seconds + time.perf_counter() - t0, P.shape[1])

    def seconds_for(self, n_rows: int, n_cols: int) -> float:
        """The pool matrix's seconds at its per-entry rate for an n_rows x
        n_cols block: what a fold that reads the block is charged."""
        return self.seconds * n_rows * n_cols / len(self.entries) ** 2

    def train_block(self, train) -> np.ndarray:
        """A new array of the training fold's entries; exactly symmetric, as
        the pool's are."""
        return self.entries[np.ix_(train, train)]

    def test_block(self, test, train) -> np.ndarray:
        """A new array of the entries of each test sample against the
        training fold."""
        return self.entries[np.ix_(test, train)]


def _pad_rows(P: np.ndarray, row: int, block: _Block, n_freq: int, target_frames: int) -> None:
    """Write the block's samples into rows row, row + 1, ... of P, each
    zero-padded on the right to target_frames frames and flattened
    column-major, with one boolean-mask assignment. A sample with more than
    target_frames frames, or with other than n_freq frequency bins, is
    refused, named by its row."""
    bins, frames = block.shapes.T
    bad = np.flatnonzero((frames > target_frames) | (bins != n_freq))
    if bad.size:
        k = bad[0]
        if frames[k] > target_frames:
            raise ValueError(f"sample {row + k}: spectrogram has {frames[k]} frames, "
                             f"target is {target_frames}")
        raise ValueError(f"sample {row + k}: spectrogram has {bins[k]} frequency bins, "
                         f"expected {n_freq}")
    mask = np.arange(P.shape[1]) < (bins * frames)[:, None]
    P[row:row + len(bins)][mask] = block.flat


def _pca_fold(pool: _PoolGram, r: int, train, test):
    """PCA features of one fold by kernel PCA of the pool's linear Gram
    (Schoelkopf, Smola and Mueller, Neural Computation 1998), the basis and
    its scale fit on the training fold only. With m training samples and c
    the column means of their Gram S, the centred Gram is S - c1' - 1c' +
    mean(c), and of its top r eigenpairs (lambda, V) the training
    coordinates are V sqrt(lambda). A test row of the pool, centred the same
    way, times V / sqrt(lambda) gives its test coordinates; only the c term
    of that centring is applied, because the other two are constant along
    the row and V's columns, eigenvectors of a matrix whose rows sum to 0,
    sum to 0 themselves. The r-th eigenvalue must exceed m * eps times the
    larger of the first and the training block's largest diagonal entry.
    The coordinates are `pca_project(fit_pca(X, r), .)`
    of the padded rows up to the sign of each column and rounding: no
    D-dimensional component is formed, so none is sign-canonicalised, and
    the radial kernels, k-NN and the scale read squared distances, which a
    column's sign leaves bitwise unchanged. Returns the (train, test)
    feature matrices, one row per sample."""
    m, D = len(train), pool.width
    if r > min(m, D):
        raise RankError(f"r={r} out of range for {m}x{D} data")
    G = pool.train_block(train)
    # the centring's rounding scales with the largest uncentred entry
    largest_norm2 = G.diagonal().max()
    c = G.mean(axis=0)
    G -= c
    G -= c[:, None]
    G += c.mean()
    eigvals, eigvecs = np.linalg.eigh(G)  # reads the lower triangle only
    eigvals, eigvecs = eigvals[::-1][:r], eigvecs[:, ::-1][:, :r]
    # fit_pca's rule, with the uncentred entries' rounding as a floor
    if eigvals[-1] <= m * np.finfo(float).eps * max(eigvals[0], largest_norm2):
        raise RankError(f"data rank below r={r}; lower r")
    root = np.sqrt(eigvals)
    train_f = eigvecs * root
    cross = pool.test_block(test, train)
    cross -= c
    test_f = cross @ (eigvecs / root)
    # put typical nearest-neighbor distances at the scale the localized
    # kernel's bump expects; the scale derives from the training fold only
    scale = _nn_scale(train_f)
    train_f *= scale
    test_f *= scale
    return train_f, test_f


def _nn_scale(X: np.ndarray) -> float:
    """1 / median nearest-neighbor distance of the rows of the training
    feature matrix X."""
    # Gram trick, not kernels._sq_dists: 0.9 vs 3.1 ms at M = 192, d = 30 (2-core x86)
    sq = np.sum(X * X, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * X @ X.T, 0.0)
    np.fill_diagonal(d2, np.inf)
    nn = np.sqrt(np.min(d2, axis=1))
    med = float(np.median(nn))
    # 0.4 places the median neighbor well inside the localized kernel's bump
    return 0.4 / med if med > 0 else 1.0


def _splits(config: ExperimentConfig, labels) -> list:
    """The repeated-split protocol's folds of a pool with these labels:
    `config.trials` seeded stratified splits, as positions in the pool."""
    return [_stratified_split(labels, config.train_ratio, np.random.default_rng(config.seed + t))
            for t in range(config.trials)]


def _pool_gram(config: ExperimentConfig, dataset: GestureSet, pairs=None) -> _PoolGram:
    """The call's pool matrix (`_PoolGram`). `pairs` gives the pool's
    preprocessed samples as (index, Spectrogram) pairs, in pool order.
    Without it the pool is every sample of the data set, preprocessed here
    one block at a time: SVD features keep only each sample's features, and
    PCA inputs are written into P block by block, so no per-sample
    spectrogram is held. PCA inputs are padded to the data set's widest."""
    mode = config.preprocessing
    every = range(len(dataset.samples))
    if config.feature == "svd":
        if pairs is None:
            pairs = _preprocessed_samples(mode, dataset.samples, every)
        return _PoolGram.of_kernel(config.kernel,
                                   [svd_features(spec, config.r) for _, spec in pairs])
    if pairs is None:
        blocks, n_samples = _preprocessed(mode, dataset.samples, every), len(every)
    else:
        blocks, n_samples = _single_blocks(pairs), len(pairs)
    target_frames = max(s.data.shape[1] for s in dataset.samples)
    return _PoolGram.of_padded(blocks, n_samples, target_frames, mode == "binary")


def _scores(config: ExperimentConfig, classes: int, labels, pool_gram: _PoolGram,
            folds) -> list:
    """(accuracy %, train seconds, test seconds) of each fold, scored in one
    loop. `labels` and the `pool_gram` are the pool's, in pool order, made
    once per call before the first fold, and each fold is a (train, test)
    pair of positions in the pool. The kernel is the config's, built with
    it."""
    return [_fit_and_score(config, classes, labels, pool_gram, train, test)
            for train, test in folds]


def _fit_and_score(config: ExperimentConfig, classes: int, labels, pool_gram: _PoolGram,
                   train, test):
    """Per-fold work on the call's pool matrix. Returns
    (accuracy %, train seconds, test seconds)."""
    train_labels = labels[train].tolist()
    if len(set(train_labels)) < classes:
        raise MissingClassError("a class is missing from the training fold")

    pca = config.feature == "pca"
    t0 = time.perf_counter()
    if pca:
        train_f, test_f = _pca_fold(pool_gram, config.r, train, test)

    if config.classifier == "svm":
        spec = config.kernel
        G = gram(spec, train_f) if pca else GramMatrix(pool_gram.train_block(train), spec)
        model = one_vs_rest_train(G, train_labels, C=config.C)
        train_time = time.perf_counter() - t0
        t1 = time.perf_counter()
        rows = cross_gram(spec, test_f, train_f) if pca else pool_gram.test_block(test, train)
        preds = [one_vs_rest_predict(model, row) for row in rows]
    else:
        train_time = time.perf_counter() - t0
        t1 = time.perf_counter()
        preds = knn_predict(train_f, train_labels, test_f, config.knn_k)
    test_time = time.perf_counter() - t1
    # the pool entries this fold reads, at the pool matrix's rate, so every
    # fold counts its share of the per-call matrix
    train_time += pool_gram.seconds_for(len(train), len(train))
    test_time += pool_gram.seconds_for(len(test), len(train))

    acc = 100.0 * float(np.mean(np.asarray(preds) == labels[test]))
    return acc, train_time, test_time


def _split_table(config: ExperimentConfig, scores) -> ResultTable:
    """One row: mean and variance of the folds' accuracies and their mean
    times."""
    accs, train_s, test_s = zip(*scores)
    accs = np.array(accs)
    return ResultTable(rows=[ResultRow(
        method=config.method_name(),
        r=config.r,
        accuracy_mean=float(accs.mean()),
        accuracy_var=float(accs.var()),
        train_time_s=sum(train_s) / len(scores),
        test_time_s=sum(test_s) / len(scores),
    )])


def run_experiment(config: ExperimentConfig, dataset: GestureSet) -> ResultTable:
    """Mean/variance accuracy and wall-clock times over repeated stratified
    splits (one row)."""
    labels = np.array([s.label for s in dataset.samples])
    folds = _splits(config, labels)
    scores = _scores(config, dataset.classes, labels, _pool_gram(config, dataset), folds)
    return _split_table(config, scores)


# the errors a sweep records for its point and goes on past
_SWEEP_SKIPS = (RankError, MissingClassError)


def sweep_dimension(config: ExperimentConfig, dataset: GestureSet, r_values):
    """(r, result) per feature dimension r: the ResultTable, or the
    RankError or MissingClassError that skipped this r. Any other error
    propagates. Each sample is preprocessed once per call and the splits are
    drawn once. PCA features take one pool matrix for every r, since P P'
    does not depend on r; SVD features, which do, take theirs once per r.
    Every r's config, with its kernel, is built before any sample is
    preprocessed, so an r below 1 is refused first; the localized kernel's
    q is clamped to each r as its config is built."""
    configs = [replace(config, r=r) for r in r_values]
    labels = np.array([s.label for s in dataset.samples])
    folds = _splits(config, labels)
    if config.feature == "pca":
        pool_gram = _pool_gram(config, dataset)
    else:
        pairs = list(_preprocessed_samples(config.preprocessing, dataset.samples,
                                           range(len(dataset.samples))))
    out = []
    for config_r in configs:
        try:
            if config.feature == "svd":
                pool_gram = _pool_gram(config_r, dataset, pairs)
            scores = _scores(config_r, dataset.classes, labels, pool_gram, folds)
            out.append((config_r.r, _split_table(config_r, scores)))
        except _SWEEP_SKIPS as exc:
            out.append((config_r.r, exc))
    return out


def _check_fractions(fractions) -> None:
    """Refuse a training fraction outside (0, 1], NaN included."""
    for frac in fractions:
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"training fraction {frac} is outside (0, 1]")


def sweep_train_fraction(config: ExperimentConfig, dataset: GestureSet,
                         fractions=(0.2, 0.4, 0.6, 0.8)):
    """(fraction, result) per fraction: a stratified subsample of the
    training pool, then the usual repeated-split protocol on it. The result
    is the ResultTable, or the RankError or MissingClassError that skipped
    this fraction; any other error propagates. Each sample is preprocessed
    once per call, and each fraction's pool takes one pool matrix. A
    fraction outside (0, 1], NaN included, is refused before any sample is
    preprocessed."""
    _check_fractions(fractions)
    labels = np.array([s.label for s in dataset.samples])
    pools = [_stratified_split(labels, frac, np.random.default_rng(config.seed))[0]
             if frac < 1.0 else np.arange(len(labels)) for frac in fractions]
    folds = [_splits(config, labels[pool]) for pool in pools]
    used = np.unique(np.concatenate(pools)) if pools else []
    preprocessed = dict(_preprocessed_samples(config.preprocessing, dataset.samples, used))
    out = []
    for frac, pool, pool_folds in zip(fractions, pools, folds):
        try:
            pool_gram = _pool_gram(config, dataset, [(i, preprocessed[i]) for i in pool])
            scores = _scores(config, dataset.classes, labels[pool], pool_gram, pool_folds)
            out.append((frac, _split_table(config, scores)))
        except _SWEEP_SKIPS as exc:
            out.append((frac, exc))
    return out


def holdout_subject(config: ExperimentConfig, dataset: GestureSet) -> ResultTable:
    """Train on all subjects but one, test on the held-out subject; one row
    per fold. Each sample is preprocessed (and, for SVD features, decomposed)
    once per call, and one pool matrix is made per call; only the PCA basis
    and its scale are refit per fold."""
    if len(dataset.subjects) < 2:
        raise ValueError("need at least two subjects")
    subjects = np.array([s.subject for s in dataset.samples])
    folds = [(np.flatnonzero(subjects != subject), np.flatnonzero(subjects == subject))
             for subject in dataset.subjects]
    labels = np.array([s.label for s in dataset.samples])
    scores = _scores(config, dataset.classes, labels, _pool_gram(config, dataset), folds)
    method = config.method_name()
    return ResultTable(rows=[
        ResultRow(method=f"{method} holdout={subject}", r=config.r, accuracy_mean=acc,
                  accuracy_var=0.0, train_time_s=tt, test_time_s=te)
        for subject, (acc, tt, te) in zip(dataset.subjects, scores)
    ])
