"""Adapter over SciPy's compiled CSR loops.

The CSR family's numeric plane runs ``csr_matvec``, ``csr_matvecs`` and
``csc_matvec`` from ``scipy.sparse._sparsetools``: the C++ loops behind
SciPy's own ``A @ x``, ``A @ X`` and ``A.T @ x`` (the in-repo stand-in
for the vendor CSR the paper measures against). Each loop adds ``A x``
into a caller-owned buffer without allocating, sums every row on its
own in stored column order, and releases the GIL while it runs. So:

* the adapter zero-fills ``out`` and then accumulates into it;
* a row's result does not depend on which other rows share the call,
  which is what keeps serial, parallel (per-chunk row slices) and every
  fallback path bit-identical;
* pool threads run the loops concurrently.

``_sparsetools`` is private to SciPy. ``tests/formats/
test_compiled_contract.py`` pins every property relied on here, so an
upgrade that changes one fails there instead of inside a solver.

The loops do no bounds checking. Callers pass arrays that
:func:`index_arrays` accepted, ``values`` of length nnz, and C-contiguous
float64 operands and outputs of the matrix's shape.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

__all__ = ["csc_matvec", "csr_matvec", "csr_matvecs", "index_arrays"]

_INT32_MAX = int(np.iinfo(np.int32).max)


def index_arrays(rowptr: np.ndarray, colind: np.ndarray,
                 shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(indptr, indices)`` in one dtype for the compiled loops.

    The loops take their index type from ``indptr`` and cast every other
    index array to it on each call, so mismatched dtypes cost an
    nnz-sized temporary per apply. The pair is int32 while every offset
    and dimension fits, int64 otherwise.

    The loops trust these arrays, so they are checked here, once per
    matrix: a malformed structure raises ``ValueError`` instead of
    reading out of bounds.
    """
    nnz = int(colind.size)
    if (rowptr.size != shape[0] + 1 or rowptr[0] != 0
            or rowptr[-1] != nnz or np.any(rowptr[1:] < rowptr[:-1])):
        raise ValueError("rowptr is not a valid offset array for colind")
    if nnz and (int(colind.min()) < 0 or int(colind.max()) >= shape[1]):
        raise ValueError("column index out of bounds")
    if max(nnz, *shape) <= _INT32_MAX:
        dtype = np.int32
    else:
        dtype = np.int64
    return (np.ascontiguousarray(rowptr, dtype=dtype),
            np.ascontiguousarray(colind, dtype=dtype))


def csr_matvec(indptr, indices, values, shape, x, out):
    """``out = A @ x`` for the CSR arrays of ``A``; returns ``out``."""
    out.fill(0.0)
    _sparsetools.csr_matvec(shape[0], shape[1], indptr, indices, values,
                            x, out)
    return out


def csr_matvecs(indptr, indices, values, shape, X, out):
    """``out = A @ X`` for a C-contiguous ``(ncols, k)`` block ``X``.

    One pass over the index arrays serves all ``k`` columns, the
    multi-RHS SpMM of Saule et al. (arXiv:1302.1078)."""
    out.fill(0.0)
    _sparsetools.csr_matvecs(shape[0], shape[1], X.shape[1], indptr,
                             indices, values, X, out)
    return out


def csc_matvec(indptr, indices, values, shape, x, out):
    """``out = A.T @ x`` for the CSR arrays of ``A``; returns ``out``.

    The CSR arrays of ``A`` are the CSC arrays of ``A.T``."""
    out.fill(0.0)
    _sparsetools.csc_matvec(shape[1], shape[0], indptr, indices, values,
                            x, out)
    return out
