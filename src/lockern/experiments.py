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
from .features import (
    RankError,
    Spectrogram,
    _centre_and_fit_pca,
    log_threshold,
    normalize,
    stft,
    svd_features,
    zero_pad_stack,
)
from .hermite import localized_degree
from .kernels import DEFAULT_PARAMS, GramMatrix, KernelSpec, cross_gram, gram
# Unused here: kernel_fn, fit_pca and pca_project stay importable from this
# module because the benchmark's traced run (bench/layers.py) wraps them by
# these names.
from .features import fit_pca, pca_project  # noqa: F401
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

# Most spectrogram elements one log_threshold call takes in
# `_preprocessed`. Of 2^13-2^16, 2^15 (about fifteen 64-bin gesture
# spectrograms) preprocessed a gesture set fastest; smaller blocks pay more
# per-call overhead, and 2^16 was no faster but raised peak memory.
_PREPROCESS_BLOCK_ELEMS = 2**15


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

    def method_name(self) -> str:
        if self.feature == "pca":
            if self.classifier == "knn":
                return "PCA KNN"
            if self.kernel_kind == "localized":
                params = {**DEFAULT_PARAMS["localized"], **_kernel_params(self)}
                return f"PCA LocSVM{localized_degree(params['N'], params['q'])}"
            return f"PCA {self.kernel_kind} SVM"
        return f"{self.kernel_kind} SVD SVM"


@dataclass(frozen=True)
class ResultRow:
    """One result line. The two times cover per-fold work only:
    `train_time_s` the fold's features (for PCA: basis fit, projection of
    both folds, scaling) and, for the SVM, the training Gram and SMO;
    `test_time_s` the test cross-Gram and prediction. Per-call work runs
    once, before the folds, and is in neither: preprocessing, the kernel
    spec, and SVD features. Every call pools the SVD features' kernel
    matrix (`_PoolGram`), whose rows are the pool's samples in pool order:
    a fold, given as positions in the pool, slices its training Gram and
    test rows from it and is charged that matrix's seconds at its per-entry
    rate for the entries it reads, the training block in `train_time_s` and
    the test block in `test_time_s`."""

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


def _preprocessed(mode: str, samples, indices):
    """(index, preprocessed Spectrogram) pairs, made lazily, one block of
    consecutive indices at a time: a caller that keeps only SVD features
    never holds every preprocessed spectrogram. `mode` is binary, unit
    (normalizations after `log_threshold`) or magnitude (unchanged)."""
    if mode == "magnitude":
        yield from ((i, samples[i]) for i in indices)
        return
    for block in _blocks(samples, indices):
        try:
            thresholded = log_threshold([samples[i] for i in block])
        except ValueError as exc:
            raise ValueError(f"samples {', '.join(map(str, block))}: {exc}") from exc
        for i, spec in zip(block, thresholded):
            yield i, normalize(spec, mode)


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


def _check_config(config: ExperimentConfig) -> None:
    """Refuse a config that no fold can run, before any per-sample work."""
    if config.feature not in ("pca", "svd"):
        raise ValueError(f"unknown feature kind {config.feature!r}")
    if config.classifier not in ("svm", "knn"):
        raise ValueError(f"unknown classifier {config.classifier!r}")
    if config.feature == "svd" and config.classifier == "knn":
        raise ValueError("classifier knn with feature svd: k-NN takes flat vectors "
                         "(feature pca), and SVD features are subspace bases")
    _check_dimensions([config.r])


def _check_dimensions(r_values) -> None:
    """Refuse a feature dimension r below 1."""
    for r in r_values:
        if r < 1:
            raise ValueError(f"feature dimension r={r} is below 1")


def _sample_features(config: ExperimentConfig, spectrograms) -> list:
    """Per-sample features of preprocessed spectrograms, in their order: the
    spectrograms themselves for PCA features (the basis is fit per fold), or
    their `svd_features` for SVD features."""
    if config.feature == "svd":
        return [svd_features(spec, config.r) for spec in spectrograms]
    return list(spectrograms)


@dataclass(frozen=True)
class _PoolGram:
    """The kernel matrix of the SVD features of every pool sample, in pool
    order, made once per call, whatever the number of folds. A fold's
    positions in the pool are its rows. SVD features are per-sample and have
    no fitted parameters, so every kernel value a fold needs, training or
    test, is an entry of it; PCA features are fit per fold and cannot pool.
    Its upper triangle costs about what one 80/20 split's own Gram and
    cross-Gram cost."""

    gram: GramMatrix
    seconds: float  # wall time of the `gram` call that built it

    @classmethod
    def timed(cls, spec: KernelSpec, features: list) -> _PoolGram:
        t0 = time.perf_counter()
        pool_gram = gram(spec, features)
        return cls(pool_gram, time.perf_counter() - t0)

    def seconds_for(self, n_rows: int, n_cols: int) -> float:
        """The pool Gram's seconds at its per-entry rate for an n_rows x
        n_cols block: what a fold that reads the block is charged."""
        return self.seconds * n_rows * n_cols / len(self.gram.entries) ** 2

    def train_gram(self, train) -> GramMatrix:
        """Training Gram of a fold; exactly symmetric, as the pool's is."""
        return GramMatrix(self.gram.entries[np.ix_(train, train)], self.gram.spec)

    def test_rows(self, test, train) -> np.ndarray:
        """Kernel values of each test sample against the training fold."""
        return self.gram.entries[np.ix_(test, train)]


def _fold_features(config: ExperimentConfig, features: list, train, test,
                   target_frames: int):
    """PCA features of one fold from the per-sample spectrograms, the basis
    and its scale fit on the training fold only. Returns the (train, test)
    feature matrices, one row per sample."""
    # pad within the fold: padded vectors of every sample at once would
    # raise peak memory. The fold owns both padded matrices and centres each
    # in place, the training one by the fit; each side is then projected by
    # its own matrix product, bitwise `pca_project` of the padded rows, so
    # the training features never depend on the test fold.
    train_mat = zero_pad_stack([features[i] for i in train], target_frames)
    basis = _centre_and_fit_pca(train_mat, config.r)
    train_f = train_mat @ basis.components
    test_mat = zero_pad_stack([features[i] for i in test], target_frames)
    test_mat -= basis.mean
    test_f = test_mat @ basis.components
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


def _kernel_params(config: ExperimentConfig) -> dict:
    params = dict(config.kernel_params)
    if config.kernel_kind == "localized":
        # manifold dimension never exceeds the feature-space dimension
        q = int(params.get("q", DEFAULT_PARAMS["localized"]["q"]))
        params["q"] = max(1, min(q, config.r))
    return params


def _kernel_spec(config: ExperimentConfig) -> KernelSpec | None:
    """The kernel of the config, built once per call; None for k-NN, which
    uses no kernel."""
    if config.classifier == "knn":
        return None
    return KernelSpec(kind=config.kernel_kind, params=_kernel_params(config))


def _splits(config: ExperimentConfig, labels) -> list:
    """The repeated-split protocol's folds of a pool with these labels:
    `config.trials` seeded stratified splits, as positions in the pool."""
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    return [_stratified_split(labels, config.train_ratio, np.random.default_rng(config.seed + t))
            for t in range(config.trials)]


def _scores(config: ExperimentConfig, dataset: GestureSet, labels, spectrograms,
            folds) -> list:
    """(accuracy %, train seconds, test seconds) of each fold, scored in one
    loop. `labels` and the preprocessed `spectrograms` are the pool's, in
    pool order, and each fold is a (train, test) pair of positions in the
    pool. Per-call work runs once, before the first fold: the pool's
    features, the kernel spec, the padding width and, for SVD features, the
    `_PoolGram`."""
    features = _sample_features(config, spectrograms)
    spec = _kernel_spec(config)
    pool_gram = _PoolGram.timed(spec, features) if config.feature == "svd" else None
    target_frames = max(s.data.shape[1] for s in dataset.samples)
    return [_fit_and_score(config, spec, dataset.classes, target_frames, features, labels,
                           pool_gram, train, test)
            for train, test in folds]


def _fit_and_score(config: ExperimentConfig, spec, classes: int, target_frames: int,
                   features: list, labels, pool_gram, train, test):
    """Per-fold work on the per-call results of `_scores`. Returns
    (accuracy %, train seconds, test seconds)."""
    train_labels = labels[train].tolist()
    if len(set(train_labels)) < classes:
        raise MissingClassError("a class is missing from the training fold")

    t0 = time.perf_counter()
    if pool_gram is None:
        train_f, test_f = _fold_features(config, features, train, test, target_frames)

    if config.classifier == "svm":
        G = gram(spec, train_f) if pool_gram is None else pool_gram.train_gram(train)
        model = one_vs_rest_train(G, train_labels, C=config.C)
        train_time = time.perf_counter() - t0
        t1 = time.perf_counter()
        rows = (cross_gram(spec, test_f, train_f) if pool_gram is None
                else pool_gram.test_rows(test, train))
        preds = [one_vs_rest_predict(model, row) for row in rows]
        test_time = time.perf_counter() - t1
        if pool_gram is not None:
            # the kernel values this fold reads, at the pool Gram's rate, so
            # SVD rows count their kernel work as PCA rows do
            train_time += pool_gram.seconds_for(len(train), len(train))
            test_time += pool_gram.seconds_for(len(test), len(train))
    else:
        train_time = time.perf_counter() - t0
        t1 = time.perf_counter()
        preds = knn_predict(train_f, train_labels, test_f, config.knn_k)
        test_time = time.perf_counter() - t1

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


def _pool_spectrograms(config: ExperimentConfig, dataset: GestureSet):
    """Preprocessed spectrograms of every sample, lazily, in sample order."""
    pairs = _preprocessed(config.preprocessing, dataset.samples, range(len(dataset.samples)))
    return (spec for _, spec in pairs)


def run_experiment(config: ExperimentConfig, dataset: GestureSet) -> ResultTable:
    """Mean/variance accuracy and wall-clock times over repeated stratified
    splits (one row)."""
    _check_config(config)
    labels = np.array([s.label for s in dataset.samples])
    folds = _splits(config, labels)
    scores = _scores(config, dataset, labels, _pool_spectrograms(config, dataset), folds)
    return _split_table(config, scores)


# the errors a sweep records for its point and goes on past
_SWEEP_SKIPS = (RankError, MissingClassError)


def sweep_dimension(config: ExperimentConfig, dataset: GestureSet, r_values):
    """(r, result) per feature dimension r: the ResultTable, or the
    RankError or MissingClassError that skipped this r. Any other error
    propagates. The localized kernel's q is clamped to r inside the run. Each
    sample is preprocessed once per call and the splits are drawn once; SVD
    features and their kernel matrix are taken once per r. An r below 1 is
    refused before any sample is preprocessed."""
    _check_config(config)
    _check_dimensions(r_values)
    labels = np.array([s.label for s in dataset.samples])
    folds = _splits(config, labels)
    spectrograms = list(_pool_spectrograms(config, dataset))
    out = []
    for r in r_values:
        config_r = replace(config, r=r)
        try:
            scores = _scores(config_r, dataset, labels, spectrograms, folds)
            out.append((r, _split_table(config_r, scores)))
        except _SWEEP_SKIPS as exc:
            out.append((r, exc))
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
    once per call; for SVD features, each fraction's pool takes one kernel
    matrix. A fraction outside (0, 1], NaN included, is refused before any
    sample is preprocessed."""
    _check_config(config)
    _check_fractions(fractions)
    labels = np.array([s.label for s in dataset.samples])
    pools = [_stratified_split(labels, frac, np.random.default_rng(config.seed))[0]
             if frac < 1.0 else np.arange(len(labels)) for frac in fractions]
    folds = [_splits(config, labels[pool]) for pool in pools]
    used = np.unique(np.concatenate(pools)) if pools else []
    preprocessed = dict(_preprocessed(config.preprocessing, dataset.samples, used))
    out = []
    for frac, pool, pool_folds in zip(fractions, pools, folds):
        try:
            scores = _scores(config, dataset, labels[pool], [preprocessed[i] for i in pool],
                             pool_folds)
            out.append((frac, _split_table(config, scores)))
        except _SWEEP_SKIPS as exc:
            out.append((frac, exc))
    return out


def holdout_subject(config: ExperimentConfig, dataset: GestureSet) -> ResultTable:
    """Train on all subjects but one, test on the held-out subject; one row
    per fold. Each sample is preprocessed (and, for SVD features, decomposed)
    once per call, the kernel spec is built once, and SVD features take one
    kernel matrix per call; only the PCA basis and its scale are refit per
    fold."""
    if len(dataset.subjects) < 2:
        raise ValueError("need at least two subjects")
    _check_config(config)
    subjects = np.array([s.subject for s in dataset.samples])
    folds = [(np.flatnonzero(subjects != subject), np.flatnonzero(subjects == subject))
             for subject in dataset.subjects]
    labels = np.array([s.label for s in dataset.samples])
    scores = _scores(config, dataset, labels, _pool_spectrograms(config, dataset), folds)
    method = config.method_name()
    return ResultTable(rows=[
        ResultRow(method=f"{method} holdout={subject}", r=config.r, accuracy_mean=acc,
                  accuracy_var=0.0, train_time_s=tt, test_time_s=te)
        for subject, (acc, tt, te) in zip(dataset.subjects, scores)
    ])
