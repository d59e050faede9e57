import numpy as np
import pytest

import structnorm as sn


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "m.mat"
    sn.write_matrix(path, a)
    b = sn.read_matrix(path)
    assert b.dtype == np.complex128
    np.testing.assert_array_equal(a, b)


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
