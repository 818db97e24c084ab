"""Reference bodies that the kernel layer replaced, kept as oracles: the
scalar per-pair kernels and the per-pair Psi sum, the allocating Clenshaw
pass, the full Gram symmetrised after the fact, the two-pass error profile,
the minimal separation from the full distance matrix, the per-pair k-NN
vote, the `eigvalsh`-only indefiniteness test, and the STFT frames cut one
by one.
"""
from __future__ import annotations

import math

import numpy as np

from lockern.hermite import LocalizedKernelSpec, eval_localized
from lockern.kernels import DiscreteQuadrature, KernelSpec, _sq_dists, _stack, cross_gram

PI_QUARTER = math.pi ** (-0.25)


def pair_oracle(spec: KernelSpec):
    """k(a, b) of one pair by the scalar formula of its kind, every parameter
    from spec.params, nothing validated: Grassmann and the SVD kernels take
    objects with `U` (and `S`), the flat kinds take vectors."""
    p = spec.params

    def diff(a, b):
        return np.asarray(a, float).ravel() - np.asarray(b, float).ravel()

    def k(a, b):
        if spec.kind == "grassmann":
            # squared projection distance, round-off clamped as in the library
            d = a.U.shape[1] - float(np.linalg.norm(a.U.T @ b.U) ** 2)
            return math.exp(-p["gamma"] * (0.0 if abs(d) < 1e-12 else max(d, 0.0)))
        if spec.kind == "laplace_svd":
            dU, dS = np.linalg.norm(diff(a.U, b.U)), np.linalg.norm(diff(a.S, b.S))
            return math.exp(-p["alpha"] * dU - p["beta"] * dS)
        if spec.kind == "gaussian_svd":
            dU, dS = np.linalg.norm(diff(a.U, b.U)), np.linalg.norm(diff(a.S, b.S))
            return math.exp(-p["alpha"] * dU ** 2 - p["beta"] * dS ** 2)
        if spec.kind == "euclidean_rbf":
            return math.exp(-p["gamma"] * float(np.sum(diff(a, b) ** 2)))
        loc = spec.localized
        return float(eval_localized(loc, loc.gamma * np.linalg.norm(diff(a, b))))

    return k


def psi_oracle(spec: KernelSpec, quad: DiscreteQuadrature, x, y) -> float:
    """Discrete Psi(x, y) = sum_z w_z f0(z) k(x, z) k(y, z), one `pair_oracle`
    value per node."""
    k = pair_oracle(spec)
    kx = np.array([k(x, z) for z in quad.nodes])
    ky = np.array([k(y, z) for z in quad.nodes])
    return float(np.sum(quad.weights * quad.density_f0 * kx * ky))


def clenshaw_oracle(spec: LocalizedKernelSpec, x):
    """eval_localized with a new array for every term of every step."""
    x_arr = np.asarray(x, dtype=float)
    n = spec.degree
    full = np.zeros(n + 1)
    full[::2] = spec.coeffs
    b1 = np.zeros_like(x_arr)
    b2 = np.zeros_like(x_arr)
    for k in range(n, -1, -1):
        a_k = math.sqrt(2.0 / (k + 1)) * x_arr
        beta_next = -math.sqrt((k + 1) / (k + 2))
        b1, b2 = full[k] + a_k * b1 + beta_next * b2, b1
    result = b1 * PI_QUARTER * np.exp(-x_arr * x_arr / 2.0)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result


def full_gram_oracle(spec: KernelSpec, points) -> np.ndarray:
    """Every entry evaluated, then 0.5 * (C + C')."""
    C = cross_gram(spec, points, points)
    return 0.5 * (C + C.T)


def distances(A, B) -> np.ndarray:
    """Euclidean distances between the (flattened) points of A and of B, as
    a full matrix."""
    XA = _stack([np.ravel(a) for a in A])
    XB = _stack([np.ravel(b) for b in B])
    return np.sqrt(_sq_dists(XA, XB))


def error_profile_oracle(model, probes):
    """(model values, nearest-node distances) in probe order, from two
    distance passes."""
    values = cross_gram(model.spec, probes, model.nodes) @ model.coeffs
    delta = distances(probes, model.nodes).min(axis=1)
    return values, delta


def minimal_separation_oracle(points) -> float:
    """The least entry above the diagonal of the full distance matrix."""
    d = distances(points, points)
    return float(d[np.triu_indices(len(points), 1)].min())


def knn_oracle(train, labels, x, k):
    """The k-NN vote of acceptance criterion 12: one `np.linalg.norm` per
    pair, a sort on (distance, index), ties by mean distance, then label."""
    def metric(a, b):
        return float(np.linalg.norm(a - b))

    dists = sorted(range(len(train)), key=lambda i: (metric(x, train[i]), i))[:k]
    votes = {}
    for i in dists:
        cnt, total = votes.get(labels[i], (0, 0.0))
        votes[labels[i]] = (cnt + 1, total + metric(x, train[i]))
    ranked = sorted(
        votes.items(), key=lambda kv: (-kv[1][0], kv[1][1] / kv[1][0], str(kv[0]))
    )
    return ranked[0][0]


def indefinite_oracle(K: np.ndarray) -> bool:
    """Whether the full-spectrum test warns."""
    return bool(np.linalg.eigvalsh(K)[0] < -1e-3 * np.trace(K) / len(K))


def stft_oracle(signal, window, hop: int, fft_size: int) -> np.ndarray:
    """`stft(...).data` with one sliced frame per list item."""
    signal = np.asarray(signal)
    window = np.asarray(window, dtype=float)
    win = len(window)
    n_frames = (len(signal) - win) // hop + 1
    frames = np.stack([signal[t * hop : t * hop + win] * window for t in range(n_frames)])
    return np.abs(np.fft.fft(frames, n=fft_size, axis=1)).T
