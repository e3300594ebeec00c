"""LIBSVM format I/O: parsing, round-trips, validation."""

import io

import numpy as np
import pytest
from scipy import sparse

from repro.data.blocks import Csr
from repro.data.libsvm import dump_libsvm, load_libsvm, loads_libsvm
from repro.errors import DataError
from test_blocks import to_scipy

SAMPLE = """\
1 1:0.5 3:1.25
-1 2:2.0
1 1:-1.0 2:0.25 4:3.0
"""


def test_parse_basic():
    X, y = loads_libsvm(SAMPLE)
    assert type(X) is Csr and X.shape == (3, 4)
    assert np.array_equal(y, [1.0, -1.0, 1.0])
    assert X.indices.dtype == X.indptr.dtype == np.int32  # as scipy's
    dense = to_scipy(X).toarray()
    assert dense[0, 0] == 0.5
    assert dense[0, 2] == 1.25
    assert dense[1, 1] == 2.0
    assert dense[2, 3] == 3.0


def test_parse_respects_n_features():
    X, _ = loads_libsvm(SAMPLE, n_features=10)
    assert X.shape == (3, 10)


def test_n_features_too_small_rejected():
    with pytest.raises(DataError):
        loads_libsvm(SAMPLE, n_features=2)


def test_comments_and_blank_lines_skipped():
    text = "# header\n\n1 1:1.0  # trailing\n\n"
    X, y = loads_libsvm(text)
    assert X.shape == (1, 1)
    assert y[0] == 1.0


def test_zero_based_indices():
    X, _ = loads_libsvm("1 0:5.0\n", zero_based=True)
    assert to_scipy(X).toarray()[0, 0] == 5.0


def test_bad_label_raises():
    with pytest.raises(DataError):
        loads_libsvm("abc 1:1\n")


def test_bad_token_raises():
    with pytest.raises(DataError):
        loads_libsvm("1 nonsense\n")


@pytest.mark.parametrize("text, where", [
    ("1 1:nan\n", "line 1: feature value 'nan'"),
    ("-1 1:1\n1 2:-inf\n", "line 2: feature value '-inf'"),
    ("1 1:1e999\n", "line 1: feature value '1e999'"),
    ("1 1:1\ninf 1:1\n", "line 2: label 'inf'"),
    ("NaN 1:1\n", "line 1: label 'NaN'"),
    ("-1e400 1:1\n", "line 1: label '-1e400'"),
])
def test_non_finite_label_or_value_raises(text, where):
    """``float`` parses these; a NaN or infinite entry would turn the
    reference optimum and every error into NaN without an error."""
    with pytest.raises(DataError, match=where):
        loads_libsvm(text)


def test_nonincreasing_indices_raise():
    with pytest.raises(DataError):
        loads_libsvm("1 2:1.0 2:2.0\n")
    with pytest.raises(DataError):
        loads_libsvm("1 3:1.0 2:2.0\n")


def test_empty_input_raises():
    with pytest.raises(DataError):
        loads_libsvm("")


def test_roundtrip_sparse(tmp_path):
    rng = np.random.default_rng(0)
    X = sparse.random(20, 15, density=0.3, format="csr", random_state=1)
    y = rng.integers(0, 2, 20) * 2.0 - 1.0
    path = tmp_path / "data.svm"
    dump_libsvm(X, y, path)
    X2, y2 = load_libsvm(path, n_features=15)
    assert np.array_equal(y, y2)
    assert np.allclose(X.toarray(), to_scipy(X2).toarray())


def test_roundtrip_dense_matrix(tmp_path):
    X = np.array([[1.0, 0.0, 2.5], [0.0, 0.0, -1.0]])
    y = np.array([1.0, -1.0])
    buf = io.StringIO()
    dump_libsvm(X, y, buf)
    X2, y2 = loads_libsvm(buf.getvalue(), n_features=3)
    assert np.allclose(X, to_scipy(X2).toarray())
    assert np.array_equal(y, y2)


def test_dump_validates_lengths(tmp_path):
    with pytest.raises(DataError):
        dump_libsvm(np.zeros((3, 2)), np.zeros(2), tmp_path / "x.svm")


def test_float_labels_preserved():
    buf = io.StringIO()
    dump_libsvm(np.array([[1.0]]), np.array([2.5]), buf)
    _, y = loads_libsvm(buf.getvalue())
    assert y[0] == 2.5
