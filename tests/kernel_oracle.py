"""Reference bodies that the kernel layer replaced, kept as exact-equality
oracles: the allocating Clenshaw pass, the full flat Gram symmetrised after
the fact, the two-pass error profile, and the `eigvalsh`-only
indefiniteness test.
"""
from __future__ import annotations

import math

import numpy as np

from lockern import approximation
from lockern.hermite import LocalizedKernelSpec
from lockern.kernels import KernelSpec, cross_gram

PI_QUARTER = math.pi ** (-0.25)


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


def error_profile_oracle(model, probes):
    """(model values, nearest-node distances) in probe order, from two
    distance passes."""
    values = cross_gram(model.spec, probes, model.nodes) @ model.coeffs
    delta = approximation._distances(probes, model.nodes).min(axis=1)
    return values, delta


def indefinite_oracle(K: np.ndarray) -> bool:
    """Whether the full-spectrum test warns."""
    return bool(np.linalg.eigvalsh(K)[0] < -1e-3 * np.trace(K) / len(K))
