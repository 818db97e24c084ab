"""Per-sample preprocessing as first written: one np.histogram and one Yen
criterion per spectrogram, and the zero padding of PCA inputs one row at a
time; and the synthetic gesture signal as first written, with every
per-sample term recomputed per component. The batched paths in
`lockern.features` and `lockern.experiments` must match them bitwise."""
import math
from dataclasses import replace

import numpy as np

from lockern.features import DB_FLOOR, YEN_BINS, normalize


def yen_oracle(values):
    values = np.asarray(values, dtype=float).ravel()
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return float(lo)
    counts, edges = np.histogram(values, bins=YEN_BINS, range=(lo, hi))
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


def zero_pad_stack(specs, target_frames: int) -> np.ndarray:
    """Row k is specs[k] padded with zero columns on the right to
    target_frames, then flattened column-major: the reference for the pool
    writer `experiments._pad_rows`. The rows are written into one
    preallocated zero matrix, one copy per spectrogram."""
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


def gesture_signal_oracle(template: dict, subject_factor: float, rng) -> np.ndarray:
    """`experiments._gesture_signal` as first written: the same draws from
    `rng` in the same order, each component's oscillation term and envelope
    made inside the component loop, and the sum built on a zeros array."""
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
