"""Plain-text matrix files.

Format, one value per line after a single header line:

    structnorm-matrix v1 <rows> <cols> complex
    <re> <im>
    ...

Entries are stored in column-major order and printed with 17 significant
digits, which round-trips IEEE binary64 values exactly.  A file must hold
exactly rows * cols finite entries.
"""
from __future__ import annotations

import numpy as np

_MAGIC = "structnorm-matrix"
_VERSION = "v1"


class MatrixFileError(ValueError):
    """Malformed matrix file."""


def write_matrix(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    rows, cols = a.shape
    lines = [f"{_MAGIC} {_VERSION} {rows} {cols} complex"]
    for v in a.flatten(order="F"):
        lines.append(f"{v.real:.17g} {v.imag:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != _MAGIC or header[1] != _VERSION \
                or header[4] != "complex":
            raise MatrixFileError(f"{path}: bad header")
        try:
            rows, cols = int(header[2]), int(header[3])
        except ValueError as exc:
            raise MatrixFileError(f"{path}: bad dimensions") from exc
        if rows < 1 or cols < 1:
            raise MatrixFileError(f"{path}: bad dimensions")
        values = np.empty(rows * cols, dtype=np.complex128)
        for k in range(rows * cols):
            line = fh.readline()
            if not line:
                raise MatrixFileError(f"{path}: truncated after {k} entries")
            parts = line.split()
            if len(parts) != 2:
                raise MatrixFileError(f"{path}: bad entry on line {k + 2}")
            try:
                values[k] = complex(float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise MatrixFileError(f"{path}: bad entry on line {k + 2}") from exc
        if fh.read().strip():
            raise MatrixFileError(f"{path}: data after the {rows * cols} entries")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise MatrixFileError(f"{path}: non-finite entry on line {bad[0] + 2}")
    return values.reshape((rows, cols), order="F")
