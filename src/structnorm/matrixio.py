"""Plain-text matrix files.

Format, one value per line after a single header line:

    structnorm-matrix v1 <rows> <cols> complex
    <re> <im>
    ...

Entries are stored in column-major order and printed with 17 significant
digits, which round-trips IEEE binary64 values exactly.  The reader takes
one ``<re> <im>`` pair per line, split on any run of whitespace (so tabs and
CRLF line ends are fine); the dimensions must be plain ASCII digits, from 1
to 999999999; the file must hold exactly rows * cols finite entries, with
nothing but whitespace after them; and every byte must be ASCII.  Any other
file raises :class:`MatrixFileError` naming the file (exit code 2 in the
CLI).  The reader hands the entry lines to numpy's parser, which takes
them in chunks, so nothing is allocated from the header and a header
cannot make it reserve memory.  That parser accepts a subset of what
``float`` does, with the same bits; for any file it does not take whole
(a bad or blank line, ``1_0``, too few lines, trailing data) or one that
cannot be reread, such as a pipe, the entries are parsed line by line, and
that loop names the first bad line.  The writer formats one column at a
time.
"""
from __future__ import annotations

import warnings
from array import array
from itertools import islice

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
    column = "%.17g %.17g\n" * rows
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {rows} {cols} complex\n")
        for c in range(cols):
            # (re, im) pairs of column c, in order
            fh.write(column % tuple(
                np.ascontiguousarray(a[:, c]).view(np.float64).tolist()))


def _dimension(token: str, path) -> int:
    # the file is decoded as ASCII, so isdigit() admits exactly 0-9, where
    # int() alone would also take "+2" and "1_0".  At most 9 digits keeps
    # rows * cols within what islice() counts to, and int() within its limit.
    if not token.isdigit() or len(token) > 9 or int(token) < 1:
        raise MatrixFileError(f"{path}: bad dimensions")
    return int(token)


def read_matrix(path) -> np.ndarray:
    # a byte outside ASCII decodes to a lone surrogate, which no check below
    # accepts, so it fails the header, entry or trailing data it is in
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != _MAGIC or header[1] != _VERSION \
                or header[4] != "complex":
            raise MatrixFileError(f"{path}: bad header")
        rows, cols = _dimension(header[2], path), _dimension(header[3], path)
        parts = _parse_entries(fh, rows * cols, path)
    entries = parts.view(np.complex128).ravel()
    bad = np.flatnonzero(~np.isfinite(entries))
    if bad.size:
        raise MatrixFileError(f"{path}: non-finite entry on line {bad[0] + 2}")
    return entries.reshape((rows, cols), order="F")


def _parse_entries(fh, size: int, path) -> np.ndarray:
    """The ``size`` entries after the header, as a (size, 2) float64 array of
    (re, im) rows: parsed by ``np.loadtxt`` when it takes the file whole,
    else by ``_parse_entry_lines``, which names the first bad line."""
    if not fh.seekable():  # a pipe cannot be reread from its first entry
        return _parse_entry_lines(fh, size, path)
    try:
        with warnings.catch_warnings():  # "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            parts = np.loadtxt(islice(fh, size), dtype=np.float64,
                               comments=None, ndmin=2)
    except ValueError:
        parts = None
    # loadtxt skips a blank line, so a short result may hide a bad line
    if parts is not None and parts.shape == (size, 2) and not fh.read().strip():
        return parts
    fh.seek(0)
    fh.readline()
    return _parse_entry_lines(fh, size, path)


def _parse_entry_lines(fh, size: int, path) -> np.ndarray:
    """``_parse_entries`` one line at a time, with ``str.split`` and
    ``float``: the reference, and the parser that names a bad line."""
    values = array("d")  # re, im, re, im, ...
    append = values.append
    for line in islice(fh, size):
        try:
            real, imag = line.split()
            append(float(real))
            append(float(imag))
        except ValueError as exc:
            # entries before this line hold 2 * (line - 2) values, plus a
            # real part when only the imaginary part failed
            raise MatrixFileError(
                f"{path}: bad entry on line {len(values) // 2 + 2}") from exc
    if len(values) < 2 * size:
        raise MatrixFileError(
            f"{path}: truncated after {len(values) // 2} entries")
    if fh.read().strip():
        raise MatrixFileError(f"{path}: data after the {size} entries")
    return np.frombuffer(values, dtype=np.float64).reshape(size, 2)
