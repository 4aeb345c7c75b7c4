"""Contract of ``scipy.sparse._sparsetools`` as the CSR adapter uses it.

``repro.formats._compiled`` runs the CSR family's numeric plane on
SciPy's private compiled loops. Every property the adapter and its
callers rely on is pinned here, so a SciPy upgrade that changes one
fails in this file rather than inside a solver.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.experiments.bench_batched import measure_steady_allocs
from repro.formats import _compiled
from repro.formats.base import trust_out_buffer

NROWS, NCOLS, K = 700, 500, 5


@pytest.fixture(scope="module")
def S():
    S = sp.random(NROWS, NCOLS, density=0.03, random_state=3, format="csr")
    S.sort_indices()
    return S


@pytest.fixture(scope="module")
def arrays(S):
    indptr, indices = _compiled.index_arrays(
        S.indptr.astype(np.int64), S.indices, S.shape
    )
    return indptr, indices, S.data, S.shape


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(9)
    return (rng.standard_normal(NCOLS), rng.standard_normal((NCOLS, K)),
            rng.standard_normal(NROWS))


def test_index_pair_has_one_dtype(arrays):
    indptr, indices, _, _ = arrays
    assert indptr.dtype == indices.dtype == np.int32
    assert indptr.flags.c_contiguous and indices.flags.c_contiguous


def test_loops_accumulate_into_prefilled_output(arrays, operands, S):
    indptr, indices, data, (m, n) = arrays
    x, X, xt = operands
    y = np.ones(m)
    _sparsetools.csr_matvec(m, n, indptr, indices, data, x, y)
    np.testing.assert_allclose(y, 1.0 + S @ x, rtol=1e-13, atol=1e-13)
    Y = np.ones((m, K))
    _sparsetools.csr_matvecs(m, n, K, indptr, indices, data, X, Y)
    np.testing.assert_allclose(Y, 1.0 + S @ X, rtol=1e-13, atol=1e-13)
    yt = np.ones(n)
    _sparsetools.csc_matvec(n, m, indptr, indices, data, xt, yt)
    np.testing.assert_allclose(yt, 1.0 + S.T @ xt, rtol=1e-13, atol=1e-13)


def test_adapter_zero_fills_and_matches_scipy_bitwise(arrays, operands, S):
    x, X, xt = operands
    y = np.full(NROWS, np.nan)
    assert _compiled.csr_matvec(*arrays, x, y) is y
    assert np.array_equal(y, S @ x)
    Y = np.full((NROWS, K), np.nan)
    assert _compiled.csr_matvecs(*arrays, X, Y) is Y
    assert np.array_equal(Y, S @ X)
    yt = np.full(NCOLS, np.nan)
    assert _compiled.csc_matvec(*arrays, xt, yt) is yt
    assert np.array_equal(yt, S.T @ xt)


def test_matvecs_columns_equal_matvec_bitwise(arrays, operands):
    _, X, _ = operands
    Y = _compiled.csr_matvecs(*arrays, X, np.empty((NROWS, K)))
    for j in range(K):
        col = _compiled.csr_matvec(*arrays, np.ascontiguousarray(X[:, j]),
                                   np.empty(NROWS))
        assert np.array_equal(Y[:, j], col)


def test_int64_index_pair_matches_int32(S, operands):
    x, X, xt = operands
    wide = (S.indptr.astype(np.int64), S.indices.astype(np.int64),
            S.data, S.shape)
    assert np.array_equal(_compiled.csr_matvec(*wide, x, np.empty(NROWS)),
                          S @ x)
    assert np.array_equal(
        _compiled.csr_matvecs(*wide, X, np.empty((NROWS, K))), S @ X)
    assert np.array_equal(_compiled.csc_matvec(*wide, xt, np.empty(NCOLS)),
                          S.T @ xt)


def test_steady_apply_allocates_nothing(arrays, operands):
    x, X, xt = operands
    y, Y, yt = np.empty(NROWS), np.empty((NROWS, K)), np.empty(NCOLS)
    for fn in (lambda: _compiled.csr_matvec(*arrays, x, y),
               lambda: _compiled.csr_matvecs(*arrays, X, Y),
               lambda: _compiled.csc_matvec(*arrays, xt, yt)):
        fn()
        stats = measure_steady_allocs(fn)
        assert stats["count"] == 0
        # Far below the smallest output (NCOLS float64s): no temporary.
        assert stats["peak_bytes"] < 1024


def test_trusted_views_and_row_slices_are_written_in_place(S, operands):
    x, X, _ = operands
    lo, hi = 100, 400
    sub = S[lo:hi]
    pair = _compiled.index_arrays(sub.indptr, sub.indices, sub.shape)
    args = (*pair, sub.data, sub.shape)

    out = np.full(NROWS, np.nan)
    view = trust_out_buffer(out)[lo:hi]
    assert _compiled.csr_matvec(*args, x, view) is view
    assert np.array_equal(out[lo:hi], (S @ x)[lo:hi])
    assert np.isnan(out[:lo]).all() and np.isnan(out[hi:]).all()

    OUT = np.full((NROWS, K), np.nan)
    _compiled.csr_matvecs(*args, X, OUT[lo:hi])
    assert np.array_equal(OUT[lo:hi], (S @ X)[lo:hi])
    assert np.isnan(OUT[:lo]).all() and np.isnan(OUT[hi:]).all()


@pytest.mark.parametrize("rowptr,colind,shape", [
    ([0, 2, 1], [0, 1], (2, 3)),      # decreasing offsets
    ([0, 1, 3], [0, 1], (2, 3)),      # ends past nnz
    ([0, 1], [0], (2, 3)),            # wrong length
    ([0, 1, 2], [0, 3], (2, 3)),      # column past ncols
    ([0, 1, 2], [-1, 0], (2, 3)),     # negative column
])
def test_index_arrays_rejects_malformed_structure(rowptr, colind, shape):
    with pytest.raises(ValueError):
        _compiled.index_arrays(np.array(rowptr, dtype=np.int64),
                               np.array(colind, dtype=np.int32), shape)
