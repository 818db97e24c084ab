"""Per-sample preprocessing as first written: one np.histogram and one Yen
criterion per spectrogram. The batched path in `lockern.features` must match
it bitwise."""
from dataclasses import replace

import numpy as np

from lockern.features import DB_FLOOR, normalize


def yen_oracle(values, nbins=256):
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


def db_oracle(spec):
    return 20.0 * np.log10(np.maximum(spec.data, DB_FLOOR))


def log_threshold_oracle(spec):
    if spec.state != "magnitude":
        raise ValueError(f"expected magnitude state, got {spec.state!r}")
    db = db_oracle(spec)
    t = yen_oracle(db)
    return replace(spec, data=np.where(db >= t, db, 0.0), state="thresholded")


def preprocess_oracle(spec, mode):
    if mode == "magnitude":
        return spec
    return normalize(log_threshold_oracle(spec), mode)


def preprocess_per_sample(specs, mode):
    """`preprocess`'s signature, one oracle call per spectrogram."""
    data = [preprocess_oracle(spec, mode).data.ravel(order="F") for spec in specs]
    return np.concatenate(data, dtype=float), np.array([d.size for d in data])
