"""Feature extraction: spectrograms, preprocessing, SVD/PCA features and
ARMA-based Grassmann embeddings of multivariate time series.

Preprocessing order is fixed: magnitude -> dB -> Yen threshold -> binary or
unit normalization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import canonicalize_signs

__all__ = [
    "Spectrogram",
    "SubspaceFeature",
    "PcaBasis",
    "ArmaModel",
    "GrassmannPoint",
    "stft",
    "yen_threshold",
    "log_threshold",
    "normalize",
    "svd_features",
    "fit_pca",
    "pca_project",
    "zero_pad_vectorize",
    "arma_fit",
    "grassmann_embed",
]

DB_FLOOR = 1e-12  # magnitude clamp before log to avoid -inf


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
    n_frames = (len(signal) - win) // hop + 1
    frames = np.stack([signal[t * hop : t * hop + win] * window for t in range(n_frames)])
    spec = np.abs(np.fft.fft(frames, n=fft_size, axis=1)).T
    return Spectrogram(data=spec, state="magnitude", label=label, subject=subject)


def yen_threshold(values: np.ndarray, nbins: int = 256) -> float:
    """Yen's maximum-correlation threshold on a uniform histogram.

    Ties in the criterion break toward the lower threshold (keeps more
    signal). A degenerate (constant) input returns that constant.
    """
    values = np.asarray(values, dtype=float).ravel()
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return float(lo)
    counts, edges = np.histogram(values, bins=nbins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    pmf = counts / counts.sum()
    p1 = np.cumsum(pmf)
    p1_sq = np.cumsum(pmf**2)
    p2_sq = np.cumsum(pmf[::-1] ** 2)[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = np.log(
            np.where(p1_sq[:-1] * p2_sq[1:] > 0, 1.0 / (p1_sq[:-1] * p2_sq[1:]), np.nan)
        ) + 2.0 * np.log(np.where((p1[:-1] > 0) & (p1[:-1] < 1), p1[:-1] * (1 - p1[:-1]), np.nan))
    if np.all(np.isnan(crit)):
        return float(lo)
    return float(centers[np.nanargmax(crit)])


def log_threshold(spec: Spectrogram) -> Spectrogram:
    """20*log10 magnitude, then zero everything below the Yen threshold."""
    if spec.state != "magnitude":
        raise ValueError(f"expected magnitude state, got {spec.state!r}")
    db = 20.0 * np.log10(np.maximum(spec.data, DB_FLOOR))
    t = yen_threshold(db)
    out = np.where(db >= t, db, 0.0)
    return replace(spec, data=out, state="thresholded")


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
    if r < 1 or r > min(rows, cols):
        raise ValueError(f"r={r} out of range for {rows}x{cols} spectrogram")
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
    if r < 1 or r > min(M, D):
        raise ValueError(f"r={r} out of range for {M}x{D} data")
    mean = X.mean(axis=0)
    Xc = X - mean
    sample_gram = M <= D
    G = Xc @ Xc.T if sample_gram else Xc.T @ Xc
    eigvals, eigvecs = np.linalg.eigh(G)
    eigvals, eigvecs = eigvals[::-1][:r], eigvecs[:, ::-1][:, :r]
    if eigvals[-1] <= len(G) * np.finfo(float).eps * eigvals[0]:
        raise ValueError(f"data rank below r={r}; lower r")
    components = eigvecs
    if sample_gram:
        components = Xc.T @ eigvecs
        components /= np.linalg.norm(components, axis=0)
    explained = eigvals / max(M - 1, 1)
    return PcaBasis(mean=mean, components=canonicalize_signs(components), explained=explained)


def pca_project(basis: PcaBasis, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != basis.mean.shape:
        raise ValueError("vector length mismatch")
    return basis.components.T @ (x - basis.mean)


def zero_pad_vectorize(spec: Spectrogram, target_frames: int) -> np.ndarray:
    """Pad with zero columns on the right to target_frames, then flatten
    column-major."""
    rows, cols = spec.data.shape
    if cols > target_frames:
        raise ValueError(f"spectrogram has {cols} frames, target is {target_frames}")
    padded = np.zeros((rows, target_frames))
    padded[:, :cols] = spec.data
    return padded.ravel(order="F")


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
