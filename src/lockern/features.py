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
    "GrassmannPoint",
    "RankError",
    "stft",
    "yen_threshold",
    "log_threshold",
    "normalize",
    "svd_features",
    "fit_pca",
    "pca_project",
    "zero_pad_stack",
    "arma_fit",
    "grassmann_embed",
]

DB_FLOOR = 1e-12  # magnitude clamp before log to avoid -inf


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


@dataclass(frozen=True)
class GrassmannPoint:
    basis: np.ndarray  # (m*p) x d, orthonormal columns


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

    finite = np.isfinite(lo) & np.isfinite(hi)
    # np.linspace takes other arithmetic for every row once one row's step
    # underflows to 0, but such a row holds too few floats for nbins bins:
    # it is refused below, so no edges it changes are ever used
    edges = np.linspace(lo[finite], hi[finite], nbins + 1, axis=1)
    increasing = np.zeros(n, dtype=bool)
    increasing[finite] = np.all(edges[:, :-1] < edges[:, 1:], axis=1)
    if not increasing.all():
        k = np.argmin(increasing)
        if not finite[k]:
            raise ValueError(f"sample {rows[k]}: range [{lo[k]}, {hi[k]}] is not finite")
        raise ValueError(f"sample {rows[k]}: range [{lo[k]}, {hi[k]}] is too narrow "
                         f"for {nbins} finite-sized bins")

    # position of each value's first edge in the flat (n, nbins + 1) edges
    first_edge = np.repeat(np.arange(0, n * (nbins + 1), nbins + 1), sizes)
    edges = edges.ravel()
    x = values - np.repeat(lo, sizes)
    x /= np.repeat(hi - lo, sizes)
    x *= nbins
    bins = x.astype(np.intp)
    bins -= bins == nbins
    bins -= values < edges[first_edge + bins]
    bins += (values >= edges[first_edge + bins + 1]) & (bins != nbins - 1)
    # column nbins of each row is the last edge, which starts no bin: always 0
    counts = np.bincount(first_edge + bins, minlength=edges.size).reshape(n, nbins + 1)
    counts = counts[:, :-1]

    pmf = counts / sizes[:, None]
    p1 = np.cumsum(pmf, axis=1)[:, :-1]
    p1_sq = np.cumsum(pmf**2, axis=1)
    p2_sq = np.cumsum(pmf[:, ::-1] ** 2, axis=1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = np.log(
            np.where(p1_sq[:, :-1] * p2_sq[:, 1:] > 0, 1.0 / (p1_sq[:, :-1] * p2_sq[:, 1:]), np.nan)
        ) + 2.0 * np.log(np.where((p1 > 0) & (p1 < 1), p1 * (1 - p1), np.nan))
    # the first maximum, as np.nanargmax finds it; a segment whose criterion
    # is NaN throughout keeps its minimum
    defined = ~np.isnan(crit)
    found = np.flatnonzero(defined.any(axis=1))
    if found.size:
        best = np.where(defined[found], crit[found], -np.inf).argmax(axis=1)
        left = found * (nbins + 1) + best
        thresholds[rows[found]] = 0.5 * (edges[left] + edges[left + 1])
    return thresholds


def log_threshold(specs) -> list[Spectrogram]:
    """20*log10 magnitude of each spectrogram, then zero everything below its
    own Yen threshold.

    The thresholds of the whole sequence come from one segmented histogram
    pass (`_yen_thresholds`); each is bitwise `yen_threshold` of that
    spectrogram's dB values. The returned arrays are views of one buffer.
    Errors name the offending position in `specs`.
    """
    specs = list(specs)
    for k, spec in enumerate(specs):
        if spec.state != "magnitude":
            raise ValueError(f"sample {k}: expected magnitude state, got {spec.state!r}")
    if not specs:
        return []
    # column-major, so the F-ordered STFT output is read without a copy
    db = np.concatenate([spec.data.ravel(order="F") for spec in specs], dtype=float)
    np.maximum(db, DB_FLOOR, out=db)
    np.log10(db, out=db)
    db *= 20.0
    sizes = np.array([spec.data.size for spec in specs])
    thresholds = _yen_thresholds(db, sizes)
    kept = np.where(db >= np.repeat(thresholds, sizes), db, 0.0)
    ends = np.cumsum(sizes)
    return [
        replace(spec, data=kept[end - size:end].reshape(spec.data.shape, order="F"),
                state="thresholded")
        for spec, size, end in zip(specs, sizes, ends)
    ]


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
    """
    X = np.asarray(train_matrix, dtype=float)
    M, D = X.shape
    if r < 1:
        raise ValueError(f"r={r} out of range for {M}x{D} data")
    if r > min(M, D):
        raise RankError(f"r={r} out of range for {M}x{D} data")
    mean = X.mean(axis=0)
    Xc = X - mean
    sample_gram = M <= D
    G = Xc @ Xc.T if sample_gram else Xc.T @ Xc
    eigvals, eigvecs = np.linalg.eigh(G)
    eigvals, eigvecs = eigvals[::-1][:r], eigvecs[:, ::-1][:, :r]
    if eigvals[-1] <= len(G) * np.finfo(float).eps * eigvals[0]:
        raise RankError(f"data rank below r={r}; lower r")
    components = eigvecs
    if sample_gram:
        components = Xc.T @ eigvecs
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


def grassmann_embed(model: ArmaModel, m: int) -> GrassmannPoint:
    """Stack [C; CA; ...; CA^{m-1}] and orthonormalize its columns."""
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
    return GrassmannPoint(basis=canonicalize_signs(Q))
