"""Feature extraction: spectrograms, preprocessing, SVD/PCA features and
ARMA-based Grassmann embeddings of multivariate time series.

Preprocessing order is fixed: magnitude -> dB -> Yen threshold -> binary or
unit normalization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import canonicalize_signs

__all__ = [
    "Spectrogram",
    "SubspaceFeature",
    "PcaBasis",
    "ArmaModel",
    "RankError",
    "stft",
    "yen_threshold",
    "log_threshold",
    "normalize",
    "preprocess",
    "svd_features",
    "fit_pca",
    "pca_project",
    "zero_pad_stack",
    "arma_fit",
    "grassmann_embed",
]

DB_FLOOR = 1e-12  # magnitude clamp before log to avoid -inf
PREPROCESSING_MODES = ("binary", "unit", "magnitude")  # the modes of `preprocess`


class RankError(ValueError):
    """The data have rank below the requested feature dimension r."""


@dataclass(frozen=True)
class Spectrogram:
    data: np.ndarray  # freq_bins x time_frames, real
    state: str = "magnitude"  # magnitude | log_db | thresholded | binary | unit_normalized
    label: int | None = None
    subject: str | None = None

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] < 1:
            raise ValueError("spectrogram must be 2-D with at least one frame")


@dataclass(frozen=True)
class SubspaceFeature:
    """A subspace point of the Grassmann and SVD kernels: an SVD feature
    (`svd_features`) or an ARMA observability embedding (`grassmann_embed`)."""

    U: np.ndarray  # n x r, orthonormal, sign-canonicalized
    S: np.ndarray  # length r, nonincreasing


@dataclass(frozen=True)
class PcaBasis:
    mean: np.ndarray
    components: np.ndarray  # D x r, orthonormal columns
    explained: np.ndarray  # length r, nonincreasing variances


@dataclass(frozen=True)
class ArmaModel:
    A: np.ndarray  # d x d
    C: np.ndarray  # p x d, orthonormal columns
    d: int
    regularized: bool = False  # set when the shift Gram needed a ridge


def stft(signal, window, hop: int, fft_size: int, label=None, subject=None) -> Spectrogram:
    """Magnitude short-time Fourier transform.

    Column t is |FFT(window * frame_t)| with frame_t starting at t*hop;
    the frame count is floor((len - win)/hop) + 1.
    """
    signal = np.asarray(signal)
    window = np.asarray(window, dtype=float)
    win = len(window)
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if win > fft_size:
        raise ValueError("window longer than fft_size")
    if len(signal) < win:
        raise ValueError("signal shorter than window")
    frames = sliding_window_view(signal, win)[::hop] * window
    spec = np.abs(np.fft.fft(frames, n=fft_size, axis=1)).T
    return Spectrogram(data=spec, state="magnitude", label=label, subject=subject)


def yen_threshold(values: np.ndarray, nbins: int = 256) -> float:
    """Yen's maximum-correlation threshold on a uniform histogram.

    Ties in the criterion break toward the lower threshold (keeps more
    signal). A degenerate (constant) input returns that constant.
    """
    values = np.asarray(values, dtype=float).ravel()
    return float(_yen_thresholds(values, np.array([values.size]), nbins)[0])


def _yen_thresholds(values: np.ndarray, sizes: np.ndarray, nbins: int = 256) -> np.ndarray:
    """`yen_threshold` of each consecutive segment of `values` (lengths
    `sizes`), bitwise, from one segmented histogram pass.

    Each segment's bins are those of `np.histogram(segment, nbins,
    range=(min, max))`: the same edges, the same uniform-bin arithmetic and
    the same +-1 corrections at the edges. Its errors are raised too, for
    the first segment that meets one, naming the segment's position.
    """
    if nbins < 1:
        raise ValueError("nbins must be positive")
    if np.any(sizes == 0):
        raise ValueError(f"sample {np.argmax(sizes == 0)} is empty")
    starts = np.cumsum(sizes) - sizes
    lo = np.minimum.reduceat(values, starts)
    hi = np.maximum.reduceat(values, starts)
    thresholds = lo.copy()  # a constant segment returns its value
    varying = ~(hi <= lo)  # a NaN range counts as varying, and is refused below
    rows = np.flatnonzero(varying)
    if rows.size == 0:
        return thresholds
    if rows.size < sizes.size:
        values = values[np.repeat(varying, sizes)]
        sizes, lo, hi = sizes[rows], lo[rows], hi[rows]
    n = rows.size

    # each row's edges as np.linspace(lo, hi, nbins + 1) gives them for that
    # row alone: j * step + lo, the last edge hi. (Given every row at once,
    # linspace switches all rows to (j / nbins) * delta + lo when one row's
    # step underflows to 0; that row is refused either way, but the switch
    # can pass an earlier row that np.histogram refuses.) A non-finite row's
    # edges are NaN or inf, and it is refused.
    delta = hi - lo
    with np.errstate(invalid="ignore"):
        edges = np.arange(nbins + 1, dtype=float) * (delta / nbins)[:, None]
        edges += lo[:, None]
    edges[:, -1] = hi
    narrow = ~np.all(edges[:, :-1] < edges[:, 1:], axis=1)
    if narrow.any():
        k = np.argmax(narrow)
        if not (np.isfinite(lo[k]) and np.isfinite(hi[k])):
            raise ValueError(f"sample {rows[k]}: range [{lo[k]}, {hi[k]}] is not finite")
        raise ValueError(f"sample {rows[k]}: range [{lo[k]}, {hi[k]}] is too narrow "
                         f"for {nbins} finite-sized bins")
    if nbins == 1:
        return thresholds  # no threshold to test: the criterion is empty

    # Flat (n, nbins + 1) edge table, read at each value's position (row
    # offset plus bin) as the bin's lower edge and, one further on, its
    # upper edge. Column nbins starts no bin; as +inf it is the upper edge of
    # the last bin, which keeps the values on its right edge.
    edges[:, -1] = np.inf
    lower = edges.ravel()
    upper = lower[1:]
    x = np.repeat(lo, sizes)
    np.subtract(values, x, out=x)
    x /= np.repeat(delta, sizes)
    x *= nbins
    np.minimum(x, nbins - 1, out=x)  # a value on the last edge is in the last bin
    pos = x.astype(np.intp)
    pos += np.repeat(np.arange(0, lower.size, nbins + 1), sizes)
    pos -= values < lower.take(pos)
    pos += values >= upper.take(pos)
    counts = np.bincount(pos, minlength=lower.size).reshape(n, nbins + 1)

    # The criterion at each split, bins-major: each cumulative sum runs down
    # axis 0. The first bin holds the segment's minimum and the last its
    # maximum, so both sums of squares are positive and 0 < p1 < 1 (the
    # rounding of p1, about nbins * eps, is far below 1 / size): the
    # criterion is defined at every split, with no NaN for np.nanargmax to
    # skip, and argmax finds the same first maximum.
    pmf = counts[:, :-1].T / sizes
    sq = pmf**2
    p1 = np.cumsum(pmf[:-1], axis=0)
    p1_sq = np.cumsum(sq[:-1], axis=0)
    p2_sq = np.cumsum(sq[:0:-1], axis=0)[::-1]
    crit = np.log(1.0 / (p1_sq * p2_sq)) + 2.0 * np.log(p1 * (1 - p1))
    left = np.arange(0, lower.size, nbins + 1) + crit.argmax(axis=0)
    thresholds[rows] = 0.5 * (lower[left] + lower[left + 1])
    return thresholds


def _flat_magnitudes(specs: list) -> np.ndarray:
    """The data of every spectrogram of `specs`, each flattened column-major,
    in one new float buffer. Each must be in magnitude state; an error names
    the first that is not by its position in `specs`."""
    for k, spec in enumerate(specs):
        if spec.state != "magnitude":
            raise ValueError(f"sample {k}: expected magnitude state, got {spec.state!r}")
    # column-major, so the F-ordered STFT output is read without a copy
    return np.concatenate([spec.data.ravel(order="F") for spec in specs], dtype=float)


def _db_and_thresholds(specs: list, sizes: np.ndarray):
    """20*log10 magnitude of `specs` in one buffer (`_flat_magnitudes`), and
    each spectrogram's Yen threshold of its own dB values
    (`_yen_thresholds`). Errors name the offending position in `specs`."""
    db = _flat_magnitudes(specs)
    np.maximum(db, DB_FLOOR, out=db)
    np.log10(db, out=db)
    db *= 20.0
    return db, _yen_thresholds(db, sizes)


def log_threshold(specs) -> list[Spectrogram]:
    """20*log10 magnitude of each spectrogram, then zero everything below its
    own Yen threshold.

    The thresholds of the whole sequence come from one segmented histogram
    pass (`_yen_thresholds`); each is bitwise `yen_threshold` of that
    spectrogram's dB values. The returned arrays are views of one buffer.
    Errors name the offending position in `specs`. `preprocess` is the
    block path that the experiments take; this per-sample form is its
    oracle, on the same dB values and thresholds.
    """
    specs = list(specs)
    if not specs:
        return []
    sizes = np.array([spec.data.size for spec in specs])
    db, thresholds = _db_and_thresholds(specs, sizes)
    kept = np.where(db >= np.repeat(thresholds, sizes), db, 0.0)
    ends = np.cumsum(sizes)
    return [
        replace(spec, data=kept[end - size:end].reshape(spec.data.shape, order="F"),
                state="thresholded")
        for spec, size, end in zip(specs, sizes, ends)
    ]


def preprocess(specs, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The preprocessed data of a block of magnitude spectrograms in one
    flat buffer, each spectrogram column-major, and each one's size.

    `mode` is binary (the indicator of the kept support), unit (the kept
    support's dB values rescaled to [0, 1] per spectrogram) or magnitude
    (the data unchanged). Each spectrogram's segment is bitwise the data of
    `normalize(log_threshold([spec])[0], mode)`, or for magnitude of the
    spectrogram itself. Errors name the offending position in `specs`.
    """
    if mode not in PREPROCESSING_MODES:
        raise ValueError(f"unknown preprocessing mode {mode!r}")
    specs = list(specs)
    sizes = np.array([spec.data.size for spec in specs], dtype=np.intp)
    if not specs:
        return np.zeros(0), sizes
    if mode == "magnitude":
        return _flat_magnitudes(specs), sizes
    db, thresholds = _db_and_thresholds(specs, sizes)
    # log_threshold keeps db >= threshold, and normalize's support is the
    # kept values that are not 0
    support = db >= np.repeat(thresholds, sizes)
    support &= db != 0
    if mode == "binary":
        return support.astype(float), sizes
    starts = np.cumsum(sizes) - sizes
    lo = np.minimum.reduceat(np.where(support, db, np.inf), starts)
    hi = np.maximum.reduceat(np.where(support, db, -np.inf), starts)
    # normalize's (v - lo) / (hi - lo), whose largest value is exactly 1, and
    # 1 on a support of one distinct value; an empty support stays 0
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (db - np.repeat(lo, sizes)) / np.repeat(hi - lo, sizes)
    out[np.repeat(hi <= lo, sizes)] = 1.0
    out[~support] = 0.0
    return out, sizes


def normalize(spec: Spectrogram, mode: str) -> Spectrogram:
    """Binary indicator of the kept support, or affine rescale of it to [0,1]."""
    if spec.state != "thresholded":
        raise ValueError(f"expected thresholded state, got {spec.state!r}")
    support = spec.data != 0
    if mode == "binary":
        return replace(spec, data=support.astype(float), state="binary")
    if mode != "unit":
        raise ValueError(f"unknown normalization mode {mode!r}")
    if not support.any():
        return replace(spec, state="unit_normalized")
    vals = spec.data[support]
    lo, hi = vals.min(), vals.max()
    out = np.zeros_like(spec.data)
    if hi > lo:
        out[support] = (spec.data[support] - lo) / (hi - lo)
    else:
        out[support] = 1.0
    # ensure the maximum of a nonzero image is exactly 1
    out[np.unravel_index(np.argmax(out), out.shape)] = 1.0
    return replace(spec, data=out, state="unit_normalized")


def svd_features(spec: Spectrogram, r: int) -> SubspaceFeature:
    """Top-r left singular vectors (sign-canonicalized) and singular values."""
    rows, cols = spec.data.shape
    if r < 1:
        raise ValueError(f"r={r} out of range for {rows}x{cols} spectrogram")
    if r > min(rows, cols):
        raise RankError(f"r={r} out of range for {rows}x{cols} spectrogram")
    U, S, _ = np.linalg.svd(spec.data, full_matrices=False)
    return SubspaceFeature(U=canonicalize_signs(U[:, :r]), S=S[:r].copy())


def fit_pca(train_matrix: np.ndarray, r: int) -> PcaBasis:
    """Top-r principal directions of the M x D row-sample matrix.

    Eigendecomposition (`eigh`) of the smaller centred Gram: Xc Xc' (M x M)
    when M <= D, whose eigenvectors u give the directions Xc' u normalised,
    else Xc' Xc (D x D), whose eigenvectors are the directions. The
    eigenvalues are the squared singular values of Xc.

    The data count as rank-deficient, and are refused, when the r-th
    eigenvalue is at most n * eps * (largest eigenvalue), with n the Gram
    size and eps the float64 machine epsilon: below that an eigenvalue
    cannot be told from round-off in the Gram and its eigendecomposition.

    The input is not modified: the fit centres a copy of it.
    """
    X = np.array(train_matrix, dtype=float)
    M, D = X.shape
    if r < 1:
        raise ValueError(f"r={r} out of range for {M}x{D} data")
    if r > min(M, D):
        raise RankError(f"r={r} out of range for {M}x{D} data")
    mean = X.mean(axis=0)
    X -= mean
    sample_gram = M <= D
    G = X @ X.T if sample_gram else X.T @ X
    eigvals, eigvecs = np.linalg.eigh(G)
    eigvals, eigvecs = eigvals[::-1][:r], eigvecs[:, ::-1][:, :r]
    if eigvals[-1] <= len(G) * np.finfo(float).eps * eigvals[0]:
        raise RankError(f"data rank below r={r}; lower r")
    components = eigvecs
    if sample_gram:
        components = X.T @ eigvecs
        components /= np.linalg.norm(components, axis=0)
    explained = eigvals / max(M - 1, 1)
    return PcaBasis(mean=mean, components=canonicalize_signs(components), explained=explained)


def pca_project(basis: PcaBasis, x: np.ndarray) -> np.ndarray:
    """Coordinates (x - mean) @ components of one D-vector, shape (r,), or
    of each row of an (n, D) matrix, shape (n, r), in one matrix product.

    The product for a matrix may differ from one-vector calls on its rows in
    the last bits, as the two products may sum in different orders.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != basis.mean.size:
        raise ValueError(f"expected vectors of length {basis.mean.size}, got shape {x.shape}")
    return (x - basis.mean) @ basis.components


def zero_pad_stack(specs, target_frames: int) -> np.ndarray:
    """Row k is specs[k] padded with zero columns on the right to
    target_frames, then flattened column-major. The rows are written into
    one preallocated zero matrix, one copy per spectrogram."""
    specs = list(specs)
    n_freq = specs[0].data.shape[0] if specs else 0
    out = np.zeros((len(specs), n_freq * target_frames))
    for row, spec in zip(out, specs):
        rows, cols = spec.data.shape
        if cols > target_frames:
            raise ValueError(f"spectrogram has {cols} frames, target is {target_frames}")
        if rows != n_freq:
            raise ValueError(f"spectrogram has {rows} frequency bins, expected {n_freq}")
        row[: spec.data.size] = spec.data.ravel(order="F")
    return out


def arma_fit(series: np.ndarray, d: int, ridge_cond: float = 1e12) -> ArmaModel:
    """Closed-form ARMA(A, C) estimate from the truncated SVD of the series.

    With [f(1)..f(tau)] = U S V', C = U and
    A = S V' D1 V (V' D2 V)^{-1} S^{-1}, where D1 shifts columns forward and
    D2 selects the first tau-1 columns.
    """
    F = np.asarray(series, dtype=float)
    p, tau = F.shape
    if tau < 2:
        raise ValueError("need at least two time steps")
    if d < 1 or d > min(p, tau):
        raise ValueError(f"d={d} out of range")
    U, S, Vt = np.linalg.svd(F, full_matrices=False)
    U, S, V = U[:, :d], S[:d], Vt[:d].T  # V: tau x d
    if S[-1] <= 1e-12 * max(S[0], 1.0):
        raise ValueError(f"series rank below d={d}")
    # V' D1 V and V' D2 V without forming the tau x tau selectors
    G1 = V[1:].T @ V[:-1]
    G2 = V[:-1].T @ V[:-1]
    regularized = False
    if np.linalg.cond(G2) > ridge_cond:
        G2 = G2 + 1e-10 * np.eye(d)
        regularized = True
    A = np.diag(S) @ G1 @ np.linalg.inv(G2) @ np.diag(1.0 / S)
    return ArmaModel(A=A, C=U, d=d, regularized=regularized)


def grassmann_embed(model: ArmaModel, m: int) -> SubspaceFeature:
    """Stack [C; CA; ...; CA^{m-1}] and orthonormalize its columns: U is the
    stack's sign-canonicalized QR basis and S its singular values."""
    if m < 1:
        raise ValueError("m must be >= 1")
    blocks = []
    block = model.C
    for _ in range(m):
        blocks.append(block)
        block = block @ model.A
    stacked = np.vstack(blocks)
    Q, R = np.linalg.qr(stacked)
    if np.min(np.abs(np.diag(R))) <= 1e-10 * max(np.max(np.abs(np.diag(R))), 1.0):
        raise ValueError("observability stack is rank deficient")
    return SubspaceFeature(U=canonicalize_signs(Q), S=np.linalg.svd(R, compute_uv=False))
