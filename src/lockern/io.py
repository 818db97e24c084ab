"""CSV interfaces: spectrogram files, dataset manifests and result tables.

CSV dialect everywhere: comma separator, `.` decimal, LF line endings,
mandatory header row.
"""
from __future__ import annotations

import csv
import os

import numpy as np

from .features import Spectrogram

__all__ = [
    "read_spectrogram_csv",
    "write_spectrogram_csv",
    "read_manifest",
    "write_manifest",
]


def write_spectrogram_csv(spec: Spectrogram, path, complex_pairs: bool = False) -> None:
    """One row per frequency bin. With complex_pairs, columns are interleaved
    real,imag pairs and the header flags it."""
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["complex" if complex_pairs else "real", spec.state])
        for row in spec.data:
            if complex_pairs:
                out = []
                for v in row:
                    out.extend([repr(float(np.real(v))), repr(float(np.imag(v)))])
                w.writerow(out)
            else:
                w.writerow([repr(float(v)) for v in row])


def read_spectrogram_csv(path, label=None, subject=None) -> Spectrogram:
    """One row per frequency bin, each as long as the first; a `complex`
    header marks rows of real,imag pairs, read as their magnitudes. A
    malformed row is refused with its `path:line`, and a file without data
    rows with its path."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty spectrogram file")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows after the header")
    header = rows[0]
    is_complex = header and header[0] == "complex"
    state = header[1] if len(header) > 1 else "magnitude"
    data_rows = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[1]):
            raise ValueError(f"{path}:{lineno}: row has {len(row)} values, "
                             f"the first row {len(rows[1])}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed CSV row") from exc
        if is_complex:
            if len(vals) % 2:
                raise ValueError(f"{path}:{lineno}: complex row has {len(vals)} values, "
                                 "not real,imag pairs")
            re, im = vals[0::2], vals[1::2]
            vals = list(np.abs(np.array(re) + 1j * np.array(im)))
            state = "magnitude"
        data_rows.append(vals)
    return Spectrogram(data=np.array(data_rows), state=state, label=label, subject=subject)


def read_manifest(path):
    """One line per sample: path,label,subject. Paths resolve relative to the
    manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty manifest")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected path,label,subject")
            p, label, subject = row
            if not os.path.isabs(p):
                p = os.path.join(base, p)
            samples.append((p, int(label), subject))
    return samples


def write_manifest(samples, path) -> None:
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["path", "label", "subject"])
        for p, label, subject in samples:
            w.writerow([p, label, subject])
