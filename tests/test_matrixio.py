import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import structnorm as sn
from structnorm import matrixio


def _reference_write(path, a):
    # the writer's one-f-string-per-entry form; write_matrix must match it
    # byte for byte
    a = np.asarray(a, dtype=np.complex128)
    rows, cols = a.shape
    lines = [f"structnorm-matrix v1 {rows} {cols} complex"]
    for v in a.flatten(order="F"):
        lines.append(f"{v.real:.17g} {v.imag:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "m.mat"
    sn.write_matrix(path, a)
    b = sn.read_matrix(path)
    assert b.dtype == np.complex128
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_writer_rejects_a_zero_dimension_before_opening(tmp_path, shape):
    # the reader rejects such a header as "bad dimensions"
    path = tmp_path / "m.mat"
    with pytest.raises(ValueError, match=r"^matrix must not be empty \(\d+x\d+\)$"):
        sn.write_matrix(path, np.zeros(shape))
    assert not path.exists()


def test_round_trip_awkward_values(tmp_path):
    a = np.array([[0.0, -0.0 + 1j * 2 ** -1074],
                  [1e308 + 1e-308j, -1.7976931348623157e308 + 0j]])
    path = tmp_path / "m.mat"
    sn.write_matrix(path, a)
    np.testing.assert_array_equal(sn.read_matrix(path), a)


def test_header_format(tmp_path):
    path = tmp_path / "m.mat"
    sn.write_matrix(path, np.eye(2, dtype=complex))
    first = path.read_text().splitlines()[0]
    assert first == "structnorm-matrix v1 2 2 complex"


def test_column_major_order(tmp_path):
    a = np.array([[1 + 0j, 3 + 0j], [2 + 0j, 4 + 0j]])
    path = tmp_path / "m.mat"
    sn.write_matrix(path, a)
    lines = path.read_text().splitlines()
    res = [float(line.split()[0]) for line in lines[1:]]
    assert res == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("content", [
    "bogus header\n0 0\n",
    "structnorm-matrix v2 1 1 complex\n0 0\n",
    "structnorm-matrix v1 1 1 real\n0 0\n",
    "structnorm-matrix v1 2 2 complex\n0 0\n",        # truncated
    "structnorm-matrix v1 1 1 complex\n0\n",          # missing imag part
    "structnorm-matrix v1 1 1 complex\nx y\n",        # non-numeric
    "structnorm-matrix v1 0 1 complex\n",             # bad dims
    "structnorm-matrix v1 1_0 1 complex\n" + "0 0\n" * 10,  # int() reads 10
    "structnorm-matrix v1 +2 1 complex\n0 0\n0 0\n",  # int() reads 2
    "structnorm-matrix v1 1 1 complex\n0 0\n1 2\n",   # trailing entry
    "structnorm-matrix v1 1 1 complex\n0 0\nx\n",     # trailing junk
    "structnorm-matrix v1 1 1 complex\nnan 0\n",      # non-finite
    "structnorm-matrix v1 2 1 complex\n0 0\n0 inf\n",
    "structnorm-matrix v1 1 1 complex\n-inf 0\n",
])
def test_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(sn.MatrixFileError):
        sn.read_matrix(path)


@pytest.mark.parametrize("dims", ["1_0 1", "+2 1", "1 -1", "2 0x1", "1 1.0",
                                  "1 1000000000", "1" * 5000 + " 1"])
def test_dimensions_are_one_to_nine_plain_digits(tmp_path, dims):
    path = tmp_path / "bad.mat"
    path.write_text(f"structnorm-matrix v1 {dims} complex\n" + "0 0\n" * 10)
    with pytest.raises(sn.MatrixFileError, match="bad dimensions"):
        sn.read_matrix(path)


def test_huge_declared_size_reports_truncation(tmp_path):
    # 10^16 entries cannot be allocated; the reader must not try
    path = tmp_path / "huge.mat"
    path.write_text("structnorm-matrix v1 100000000 100000000 complex\n0 0\n")
    with pytest.raises(sn.MatrixFileError, match="truncated after 1 entries"):
        sn.read_matrix(path)


@pytest.mark.parametrize("content, line", [
    ("structnorm-matrix v1 3 1 complex\n1 2\n\n3 4\n", 3),   # blank line
    ("structnorm-matrix v1 3 1 complex\n1 2\n3 4\n5 6 7\n", 4),
    ("structnorm-matrix v1 2 1 complex\n1 2 3\n4 5\n", 2),
])
def test_bad_entry_names_its_line(tmp_path, content, line):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(sn.MatrixFileError, match=f"bad entry on line {line}$"):
        sn.read_matrix(path)


_FAR = [b"0 0\n"] * 3000  # 12 kB: past the first block the decoder reads
_FAR[2499] = b"0\xc2\xa00\n"


@pytest.mark.parametrize("content, message", [
    (b"structnorm-matrix\xc2\xa0v1 2 1 complex\n1 2\n3 4\n", "bad header"),
    (b"structnorm-matrix v1 2 1 compl\xe9x\n1 2\n3 4\n", "bad header"),
    # U+00B2 (superscript two) would pass str.isdigit() if it were decoded
    (b"structnorm-matrix v1 2\xc2\xb2 1 complex\n1 2\n3 4\n",
     "bad dimensions"),
    (b"structnorm-matrix v1 2 1 complex\n1 2\n3\xc2\xa04\n",
     "bad entry on line 3"),
    (b"structnorm-matrix v1 2 1 complex\n\xff1 2\n3 4\n",
     "bad entry on line 2"),
    (b"structnorm-matrix v1 3000 1 complex\n" + b"".join(_FAR),
     "bad entry on line 2501"),
    (b"structnorm-matrix v1 2 1 complex\n1 2\n3 4\n\xc2\xa0\n",
     "data after the 2 entries"),
])
def test_non_ascii_byte_is_a_file_error_naming_the_path(tmp_path, content,
                                                        message):
    path = tmp_path / "bad.mat"
    path.write_bytes(content)
    with pytest.raises(sn.MatrixFileError) as info:
        sn.read_matrix(path)
    assert str(info.value) == f"{path}: {message}"


def test_non_finite_entry_names_its_line(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("structnorm-matrix v1 3 1 complex\n1 2\n3 4\n5 nan\n")
    with pytest.raises(sn.MatrixFileError, match="non-finite entry on line 4$"):
        sn.read_matrix(path)


@pytest.mark.parametrize("content", [
    "structnorm-matrix v1 2 2 complex\n1 -2\n3.5 0\n-0 1e-300\n7 8\n",
    "structnorm-matrix\tv1\t2\t2\tcomplex\n1\t-2\n3.5\t0\n-0 \t1e-300\n7\t8\n",
    "structnorm-matrix   v1 2  2 complex  \n  1    -2\n3.5  0   \n-0 1e-300\n7 8\n",
    "structnorm-matrix v1 2 2 complex\r\n1 -2\r\n3.5 0\r\n-0 1e-300\r\n7 8\r\n",
    "structnorm-matrix v1 2 2 complex\n1 -2\n3.5 0\n-0 1e-300\n7 8",
    "structnorm-matrix v1 2 2 complex\n1 -2\n3.5 0\n-0 1e-300\n7 8\n\n  \n",
])
def test_reader_accepts_any_whitespace_and_line_end(tmp_path, content):
    path = tmp_path / "m.mat"
    path.write_bytes(content.encode("ascii"))
    want = np.array([[1 - 2j, complex(-0.0, 1e-300)], [3.5 + 0j, 7 + 8j]])
    got = sn.read_matrix(path)
    assert got.dtype == np.complex128
    assert got.shape == (2, 2)
    assert got.tobytes() == want.tobytes()


def _complex(parts):
    # real and imaginary parts set directly: x + 1j * y loses the sign of a
    # -0.0 imaginary part
    a = np.empty(parts.shape[:-1], dtype=np.complex128)
    a.real, a.imag = parts[..., 0], parts[..., 1]
    return a


def _awkward_matrix(rng, rows, cols):
    special = np.array([0.0, -0.0, 2.0 ** -1074, -2.0 ** -1074,
                        1.7976931348623157e308, -1.7976931348623157e308])
    parts = rng.standard_normal((rows, cols, 2)) * 10.0 ** rng.integers(
        -300, 300, size=(rows, cols, 2))
    mask = rng.random((rows, cols, 2)) < 0.2
    parts[mask] = rng.choice(special, size=int(mask.sum()))
    return _complex(parts)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (96, 96)])
def test_writer_bytes_equal_the_f_string_writer(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    a = _awkward_matrix(rng, *shape)
    a.flat[0] = complex(-0.0, 2.0 ** -1074)
    a.flat[-1] = complex(1.7976931348623157e308, -0.0)
    # C order, Fortran order and a strided view take different copies
    for m in (a, np.asfortranarray(a), a[::-1, ::-1], a.T):
        got, want = tmp_path / "got.mat", tmp_path / "want.mat"
        sn.write_matrix(got, m)
        _reference_write(want, m)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6),
                                        st.just(2)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_write_then_read_is_bitwise_identity(tmp_path_factory, parts):
    a = _complex(parts)
    path = tmp_path_factory.mktemp("rt") / "m.mat"
    sn.write_matrix(path, a)
    b = sn.read_matrix(path)
    assert b.shape == a.shape
    assert b.tobytes() == a.tobytes()


def _read_by_lines(path):
    # read_matrix with the line loop in place of the bulk parse
    with mock.patch.object(matrixio, "_parse_entries",
                           matrixio._parse_entry_lines):
        return sn.read_matrix(path)


def _outcome(read, path):
    try:
        a = read(path)
    except sn.MatrixFileError as exc:
        return str(exc)
    return a.dtype, a.shape, a.flags.f_contiguous, a.tobytes()


_KEPT_WHOLE = {"none", "tab", "crlf", "formfeed"}  # numpy takes these whole


@st.composite
def _edited_files(draw):
    """(edit, bytes) of a matrix file of random finite entries, changed by
    one edit."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=2 * rows * cols, max_size=2 * rows * cols))
    lines = ["%.17g %.17g" % pair for pair in zip(parts[::2], parts[1::2])]
    edit = draw(st.sampled_from([
        "none", "blank", "third", "lone", "underscore", "non-ascii", "tab",
        "crlf", "formfeed", "trailing", "missing", "header-only"]))
    k = draw(st.integers(0, len(lines) - 1))
    sep, end = " ", "\n"
    if edit == "blank":
        lines.insert(k, draw(st.sampled_from(["", " ", "\t", "\x0c"])))
    elif edit == "third":
        lines[k] += " 7"
    elif edit == "lone":
        lines[k] = lines[k].split()[draw(st.integers(0, 1))]
    elif edit == "underscore":
        lines[k] = "1_0 " + lines[k].split()[1]
    elif edit == "tab":
        sep = "\t"
    elif edit == "crlf":
        end = "\r\n"
    elif edit == "formfeed":
        sep = "\x0c"
    elif edit == "trailing":
        lines.append(draw(st.sampled_from(["1 2", "x", "0"])))
    elif edit == "missing":
        del lines[k:]
    elif edit == "header-only":
        lines = []
    body = "".join(line.replace(" ", sep) + end for line in lines)
    data = f"structnorm-matrix v1 {rows} {cols} complex\n{body}".encode("ascii")
    if edit == "non-ascii":
        at = draw(st.integers(data.index(b"\n") + 1, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    return edit, data


@settings(max_examples=300, deadline=None)
@given(_edited_files())
def test_bulk_parse_agrees_with_the_line_loop(tmp_path_factory, edited):
    # the same array, bitwise and in the same layout, or the same message;
    # the loop runs only where numpy does not take the file whole, and no
    # read lets a warning out (the header-only file makes loadtxt warn)
    edit, data = edited
    path = tmp_path_factory.mktemp("edit") / "m.mat"
    path.write_bytes(data)
    with mock.patch.object(matrixio, "_parse_entry_lines",
                           wraps=matrixio._parse_entry_lines) as loop:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(sn.read_matrix, path)
    assert got == _outcome(_read_by_lines, path)
    assert loop.called == (edit not in _KEPT_WHOLE)


def test_header_only_file_is_truncated_without_a_warning(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("structnorm-matrix v1 2 2 complex\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sn.MatrixFileError,
                           match="truncated after 0 entries$"):
            sn.read_matrix(path)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_pipe_is_read_line_by_line(tmp_path):
    # a pipe cannot be reread, so the line loop parses it from the start
    path = tmp_path / "h.mat"
    sn.write_matrix(path, sn.gen_structured(sn.StructureTag.HAMILTONIAN, 2, 0))
    text = path.read_text()
    env = dict(os.environ, PYTHONPATH=str(Path(sn.__file__).parent.parent))
    verify = [sys.executable, "-W", "error", "-m", "structnorm", "verify",
              "--in", "/dev/stdin", "--structure", "hamiltonian"]
    for stdin, code, err in ((text, 0, ""), (text + "1 2\n", 2, (
            "error: /dev/stdin: data after the 16 entries\n"))):
        proc = subprocess.run(verify, input=stdin, capture_output=True,
                              text=True, env=env)
        assert (proc.returncode, proc.stderr) == (code, err)
