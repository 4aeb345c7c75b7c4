"""Coordinate (COO) sparse format.

COO is the interchange format of this library: matrix generators and the
Matrix Market reader produce COO, which is then converted to
:class:`repro.formats.csr.CSRMatrix` (the canonical execution format) or
to one of the optimized formats.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_shape_2d, ensure_1d
from .base import SparseFormat, check_out_buffer, contiguous_operand

__all__ = ["COOMatrix"]


class COOMatrix(SparseFormat):
    """Sparse matrix in coordinate format.

    Parameters
    ----------
    rows, cols : array_like of int
        Row/column index of each stored element.
    values : array_like of float
        Value of each stored element.
    shape : (int, int)
        Logical matrix dimensions.
    sum_duplicates : bool
        When True (default), duplicate ``(row, col)`` entries are summed
        during canonicalization, mirroring ``scipy.sparse`` semantics.
    trusted : bool
        When True, the triplets are taken as already canonical (sorted
        by ``(row, col)``, duplicates merged, indices in bounds) and the
        O(nnz log nnz) canonicalization pass is skipped. Only for arrays
        produced by our own converters.
    """

    format_name = "coo"

    _derived_slots = ("_seg",)
    __slots__ = ("rows", "cols", "values", "_shape") + _derived_slots

    def __init__(self, rows, cols, values, shape, *,
                 sum_duplicates: bool = True, trusted: bool = False):
        self._shape = check_shape_2d("shape", shape)
        rows = ensure_1d("rows", rows, dtype=np.int64)
        cols = ensure_1d("cols", cols, dtype=np.int64)
        values = ensure_1d("values", values, dtype=np.float64)
        if not trusted:
            if not (rows.size == cols.size == values.size):
                raise ValueError(
                    "rows, cols and values must have equal length, got "
                    f"{rows.size}, {cols.size}, {values.size}"
                )
            if rows.size:
                if rows.min(initial=0) < 0 or rows.max(initial=0) >= self._shape[0]:
                    raise ValueError("row index out of bounds")
                if cols.min(initial=0) < 0 or cols.max(initial=0) >= self._shape[1]:
                    raise ValueError("column index out of bounds")
            # Canonicalize: sort by (row, col), optionally merging
            # duplicates.
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            if sum_duplicates and rows.size:
                key_change = np.empty(rows.size, dtype=bool)
                key_change[0] = True
                key_change[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
                group = np.cumsum(key_change) - 1
                ngroups = int(group[-1]) + 1
                merged = np.zeros(ngroups, dtype=np.float64)
                np.add.at(merged, group, values)
                rows = rows[key_change]
                cols = cols[key_change]
                values = merged
        self.rows = rows
        self.cols = cols
        self.values = values
        self._reset_derived()

    # -- SparseFormat interface ---------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def _validate_structure(self, report) -> None:
        from .base import check_equal_length, check_index_bounds

        check_equal_length(report, "rows", self.rows, "cols", self.cols)
        check_equal_length(report, "rows", self.rows,
                           "values", self.values)
        rows_ok = check_index_bounds(report, "rows", self.rows, self.nrows)
        cols_ok = check_index_bounds(report, "cols", self.cols, self.ncols)
        if (rows_ok and cols_ok and self.rows.size > 1
                and self.rows.size == self.cols.size):
            # Canonical COO is sorted by (row, col) with duplicates
            # merged; the batched kernel builds row segments from runs.
            key = self.rows * np.int64(self.ncols) + self.cols
            bad = np.flatnonzero(np.diff(key) <= 0)
            if bad.size:
                p = int(bad[0]) + 1
                report.add(
                    "entries-unsorted",
                    f"entries not in strict (row, col) order at position "
                    f"{p} (row {int(self.rows[p])}, col {int(self.cols[p])})",
                )

    def _row_segments(self):
        """Cached row-run segmentation of the canonical entry order:
        ``(seg_rows, segptr, plan)`` where run ``s`` covers entries
        ``segptr[s]:segptr[s+1]`` of output row ``seg_rows[s]``."""
        if self._seg is None:
            from .csr import _SegmentPlan

            change = np.empty(self.rows.size, dtype=bool)
            if self.rows.size:
                change[0] = True
                change[1:] = np.diff(self.rows) != 0
            starts = np.flatnonzero(change)
            segptr = np.append(starts, self.rows.size)
            self._seg = (self.rows[starts], segptr, _SegmentPlan(segptr))
        return self._seg

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        """``y = A @ x`` via the cached row-run segmentation.

        Canonical sorting makes each output row a contiguous run, so
        the same reduceat reduction as CSR applies — no ``np.add.at``
        scatter is needed.
        """
        from .csr import _segment_sums_into

        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
        if out is None:
            y = np.zeros(self.nrows, dtype=np.float64)
        else:
            y = check_out_buffer(out, (self.nrows,), operand=x)
            y[:] = 0.0
        if self.values.size == 0:
            return y
        x = contiguous_operand(x, workspace, "coo.x")
        seg_rows, segptr, plan = self._row_segments()
        if workspace is not None:
            products = workspace.buffer("coo.products", self.values.size)
            sums = workspace.buffer("coo.sums", seg_rows.size)
        else:
            products = np.empty(self.values.size, dtype=np.float64)
            sums = np.empty(seg_rows.size, dtype=np.float64)
        np.take(x, self.cols, out=products, mode="clip")
        np.multiply(products, self.values, out=products)
        _segment_sums_into(products, plan, sums, workspace, "coo")
        y[seg_rows] = sums
        return y

    def matmat(self, X: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        """Batched ``Y = A @ X``: one gather pass serves all columns.

        Entries are canonically sorted by ``(row, col)``, so runs of
        equal row index form contiguous segments and the CSR segmented
        batched kernel applies directly — no scatter-add over ``k``-wide
        rows is needed.
        """
        from .csr import _segment_matmat

        X = self._check_matmat_input(X)
        k = X.shape[1]
        if out is None:
            Y = np.zeros((self.nrows, k), dtype=np.float64)
        else:
            Y = check_out_buffer(out, (self.nrows, k), operand=X)
            Y[:] = 0.0
        if self.values.size == 0 or k == 0:
            return Y
        seg_rows, segptr, plan = self._row_segments()
        if workspace is not None:
            sums = workspace.buffer("coo.matmat.sums", (seg_rows.size, k))
        else:
            sums = np.empty((seg_rows.size, k), dtype=np.float64)
        _segment_matmat(
            self.cols, self.values, segptr, X, seg_rows.size,
            out=sums, workspace=workspace, plan=plan, name="coo",
        )
        Y[seg_rows] = sums
        return Y

    def index_nbytes(self) -> int:
        return int(self.rows.nbytes + self.cols.nbytes)

    def value_nbytes(self) -> int:
        return int(self.values.nbytes)

    # -- constructors & conversions -----------------------------------

    @classmethod
    def from_dense(cls, dense) -> "COOMatrix":
        """Build from a dense 2-D array, keeping exact nonzeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix."""
        coo = mat.tocoo()
        return cls(coo.row, coo.col, coo.data, coo.shape)

    def to_scipy(self):
        """Return a ``scipy.sparse.coo_matrix`` copy."""
        import scipy.sparse as sp

        return sp.coo_matrix(
            (self.values, (self.rows, self.cols)), shape=self._shape
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array (small matrices only)."""
        out = np.zeros(self._shape, dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.values)
        return out
