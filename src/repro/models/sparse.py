"""A NumPy-only sparse propagation operator for the GCN-based models.

KG adjacency is extremely sparse (a ZH-EN benchmark at scale 2.5 has
~12k nonzeros among ~4.6M cells), so a dense ``(n, n)`` propagation
matrix wastes both memory — 7.2 GB at the paper's ~30k nodes — and the
time of every product.  :class:`SparseAdjacency` stores the matrix in
compressed sparse row (CSR) form and offers exactly the two operations
:class:`~repro.models.gcn.GCNEncoder` needs: ``A @ X`` for a dense
``X`` and the transpose ``A.T``.

``A @ X`` gathers ``value * X[col]`` for every stored entry and sums the
products per row with one ``np.bincount`` over the flattened
``row * width + column`` index.  The operand is processed in column
blocks of at most :data:`COLUMN_BLOCK` columns, so the gathered products
of a wide operand (GCN-Align's seed channel multiplies by one column per
seed pair) never exceed ``nnz * COLUMN_BLOCK`` floats.
"""

from __future__ import annotations

import numpy as np

#: Widest column block one ``np.bincount`` pass of ``A @ X`` gathers.
COLUMN_BLOCK = 64


class SparseAdjacency:
    """Square ``(n, n)`` matrix in CSR form, multiplied against dense matrices.

    Build one with :meth:`from_coo` or :meth:`identity`.  Within each row
    the stored entries are sorted by column and every ``(row, column)``
    cell appears once.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int) -> None:
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.n = n
        #: the row of each stored entry, parallel to ``indices``
        self.rows = np.repeat(np.arange(n), np.diff(indptr))
        self._transpose: SparseAdjacency | None = None
        self._flat_indices: dict[int, np.ndarray] = {}

    @classmethod
    def from_coo(
        cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int
    ) -> "SparseAdjacency":
        """The ``(n, n)`` matrix whose cell ``(i, j)`` sums the *values* at ``(i, j)``.

        Duplicate entries are summed in their input order, the order
        ``np.add.at`` on a zero dense matrix would add them in.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        for ids in (rows, cols):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise ValueError(f"entry index out of range for an ({n}, {n}) matrix")
        keys, inverse = np.unique(rows * n + cols, return_inverse=True)
        data = np.bincount(inverse, weights=values, minlength=len(keys))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(indptr, keys % n, data, n)

    @classmethod
    def identity(cls, n: int) -> "SparseAdjacency":
        """The ``(n, n)`` identity."""
        diagonal = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1, dtype=np.int64), diagonal, np.ones(n), n)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    @property
    def T(self) -> "SparseAdjacency":
        """The transpose, built on first use and cached."""
        if self._transpose is None:
            # No link back from the transpose: a reference cycle would keep
            # every replaced operator and its caches alive until the cyclic
            # garbage collector happens to run.
            self._transpose = SparseAdjacency.from_coo(self.indices, self.rows, self.data, self.n)
        return self._transpose

    def row_sums(self) -> np.ndarray:
        """Sum of every row's stored entries, in column order."""
        return np.bincount(self.rows, weights=self.data, minlength=self.n)

    def with_data(self, data: np.ndarray) -> "SparseAdjacency":
        """A matrix with this one's sparsity pattern and the stored values *data*."""
        return SparseAdjacency(self.indptr, self.indices, data, self.n)

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """``A @ other`` for a dense ``(n, k)`` array."""
        other = np.asarray(other, dtype=np.float64)
        if other.ndim != 2 or other.shape[0] != self.n:
            raise ValueError(f"operand has shape {other.shape}, expected ({self.n}, k)")
        width = other.shape[1]
        if width <= COLUMN_BLOCK:
            return self._multiply_block(other)
        result = np.empty((self.n, width))
        for start in range(0, width, COLUMN_BLOCK):
            stop = min(start + COLUMN_BLOCK, width)
            result[:, start:stop] = self._multiply_block(other[:, start:stop])
        return result

    def _multiply_block(self, block: np.ndarray) -> np.ndarray:
        """``A @ block`` for a block of at most :data:`COLUMN_BLOCK` columns."""
        width = block.shape[1]
        products = np.take(block, self.indices, axis=0)
        products *= self.data[:, None]
        sums = np.bincount(
            self._flat_index(width), weights=products.ravel(), minlength=self.n * width
        )
        return sums.reshape(self.n, width)

    def _flat_index(self, width: int) -> np.ndarray:
        """Output cell ``row * width + column`` of every gathered product, cached per width.

        Building it costs more than the rest of a product, and
        training multiplies by operands of one or two widths hundreds of
        times.
        """
        flat = self._flat_indices.get(width)
        if flat is None:
            flat = ((self.rows * width)[:, None] + np.arange(width)).ravel()
            self._flat_indices[width] = flat
        return flat
