"""Row oracles: integer CSR arrays under a checked contract.

A row oracle is its CSR arrays (``indptr``, ``indices`` and int64
``data``) together with the contract every reduction in this package
declares for them: at most ``sparsity_d`` entries per row, each at most
``entry_bound_k`` in magnitude, checked once, on all rows at once,
when the oracle is constructed; from then on the declared bounds, not
the entries, set downstream parameters such as the verifier's
evolution time.  The path-sum recogniser reads the arrays as they
stand, in numpy; the row products A x of the witness's residual and of
the Taylor sum read them padded once (``PaddedRows``); the
scipy kernels (determinants, symmetry checks, the energy band) read
them through ``csr``, a scipy CSR matrix on the same buffers.  A
reduction is held in ``spectral`` as records that are no row oracles
(``SuccessorAdjacency`` and ``GappedInstance``), and nothing in the
package forms its rows or its Gram.  Building an oracle and checking it
take numpy alone; scipy is imported when a CSR view is first asked for,
by a kernel.  This module reads no files (``rtm`` reads
instance files).  Dense materialization is a desk-scale debugging
and ground-truth device, refused above DENSE_CAP rows.

Integer-valued oracles stay integer-valued until a spectral operation
converts them to floats.  No float arithmetic happens in construction.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, ResourceLimitError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Most rows of a dense matrix or Hamiltonian: materialize(), the dense
# solvers and the clock block refuse larger ones before allocating them.
DENSE_CAP = 2**14


def _index_dtype(dim: int, nnz: int) -> type:
    """The index dtype scipy keeps for a dim x dim CSR matrix: int32 while dim and nnz fit."""
    return np.int32 if max(dim, nnz) <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True, eq=False)
class RowOracleMatrix:
    """Square integer matrix as CSR arrays, with a declared row contract.

    ``indptr`` and ``indices`` are stored in the index dtype scipy keeps
    for the matrix's size (int32 while dim and nnz fit), so the CSR
    view ``csr`` wraps them and ``data`` (int64, required) without a
    copy.  ``data`` may be a read-only view: a 0/1 pattern's is one
    zero-stride int64 one (``_ones``), whose ``nbytes`` still reports
    8 bytes per entry though it holds one.  Every row holds at most
    ``sparsity_d`` entries, sorted by column, nonzero and at most
    ``entry_bound_k`` in magnitude.  Construction checks all of it and
    raises ContractError naming the first offending row.  The arrays
    are shared by every reader of ``csr``, which must not modify them
    in place.  Equality is identity.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sparsity_d: int
    entry_bound_k: int

    def __post_init__(self) -> None:
        vals, d, k = self.data, self.sparsity_d, self.entry_bound_k
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.int64 and vals.ndim == 1):
            raise ContractError("row oracles carry exact integer entries in an int64 data array")
        indptr, cols = np.asarray(self.indptr), np.asarray(self.indices)
        for name, arr in (("indptr", indptr), ("indices", cols)):
            if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
                raise ContractError(f"{name} must be a one-dimensional integer array")
        dim, nnz = len(indptr) - 1, len(vals)
        if dim <= 0:
            raise ValueError("expected a nonempty square matrix, got no rows")
        counts = np.diff(indptr)
        if len(cols) != nnz or indptr[0] != 0 or indptr[-1] != nnz or counts.min() < 0:
            raise ValueError(
                f"malformed CSR arrays: indptr from {indptr[0]} to {indptr[-1]},"
                f" {len(cols)} indices, {nnz} values"
            )
        if d < 0 or k < 0:
            raise ValueError("sparsity and entry bounds must be nonnegative")

        def row_of(entry: np.ndarray) -> int:
            """Row of the first entry the mask flags."""
            return int(np.searchsorted(indptr, entry.argmax(), side="right")) - 1

        # Each check reduces first and builds an nnz-long mask only to name a
        # failing row; the one mask a valid oracle pays is the sort check's,
        # made after the row counts are let go.
        if counts.max() > d:
            raise ContractError(f"row {int((counts > d).argmax())} has more than {d} entries")
        del counts
        if nnz and (cols.min() < 0 or cols.max() >= dim):
            raise ContractError(
                f"row {row_of((cols < 0) | (cols >= dim))} references a column outside [0, {dim})"
            )
        # Every index now lies in [0, max(dim, nnz)], so narrowing loses nothing.
        index = _index_dtype(dim, nnz)
        indptr, cols = indptr.astype(index, copy=False), cols.astype(index, copy=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", cols)
        # descending[j]: entry j is not above the entry before it.  A row's
        # first entry has no such pair; the slot past the end takes the starts
        # of trailing empty rows.
        descending = np.zeros(nnz + 1, dtype=bool)
        np.less_equal(cols[1:], cols[:-1], out=descending[1:nnz])
        descending[indptr] = False
        if descending.any():
            raise ContractError(f"row {row_of(descending)} entries not sorted by column")
        del descending
        if np.count_nonzero(vals) < nnz:
            raise ContractError(f"row {row_of(vals == 0)} contains an explicit zero")
        low, high = (int(vals.min()), int(vals.max())) if nnz else (0, 0)
        if low < -k or high > k:
            row = row_of((vals < -k) | (vals > k))
            raise ContractError(f"row {row} exceeds declared bound {k}")

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def csr(self) -> csr_matrix:
        """The scipy CSR matrix on the oracle's own arrays; nothing is copied."""
        from scipy.sparse import csr_matrix

        view = csr_matrix((self.data, self.indices, self.indptr), shape=(self.dim, self.dim))
        view.has_canonical_format = True  # the contract: sorted columns, no repeats
        return view

    @cached_property
    def padded(self) -> PaddedRows:
        """``_padded_rows``, built once: the witness's residual and its phase read both take them."""
        return _padded_rows(self)


class PaddedRows(NamedTuple):
    """A matrix's rows padded to one width: row i is column i of two C-contiguous (width, dim) arrays.

    ``columns`` (intp, which numpy gathers by without a copy) and
    ``entries`` (float64) keep each row's entries in column order; a pad
    is entry 0 at column dim, read as a zero appended to x, so a padded
    product is exactly +0.0.  ``_padded_rows`` and
    ``spectral._path_witness`` write it; ``padded`` is the record
    itself, so the products take a row oracle or a record.
    """

    columns: np.ndarray
    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    @property
    def padded(self) -> PaddedRows:
        return self


def _padded_rows(matrix: RowOracleMatrix) -> PaddedRows:
    """The oracle's rows as a ``PaddedRows`` record, as wide as its longest row (at least 1)."""
    counts = np.diff(matrix.indptr)
    dim = len(counts)
    columns = np.full((max(int(counts.max()), 1), dim), dim, dtype=np.intp)
    entries = np.zeros(columns.shape)
    starts = matrix.indptr[:-1].astype(np.intp)
    for slot, (column, entry) in enumerate(zip(columns, entries)):
        rows = np.flatnonzero(counts > slot)
        at = starts[rows] + slot
        column[rows], entry[rows] = matrix.indices[at], matrix.data[at]
    return PaddedRows(columns, entries)


def _product_table(rows: PaddedRows, x: np.ndarray) -> np.ndarray:
    """The products a_ij x_j of ``rows`` for a vector or column block x (``_products_into``)."""
    padded = np.zeros((rows.dim + 1,) + x.shape[1:], dtype=np.result_type(np.float64, x))
    padded[:-1] = x
    return _products_into(np.empty(rows.columns.shape + x.shape[1:], dtype=padded.dtype), rows, padded)


def _products_into(table: np.ndarray, rows: PaddedRows, padded: np.ndarray) -> np.ndarray:
    """``table`` overwritten with the products a_ij x_j, x being ``padded`` but its last row, a zero.

    A product is the float64 entry times x_j, as in a float64 CSR
    product; the columns of a block ride along a trailing axis.
    """
    padded.take(rows.columns, 0, table, "clip")  # no column is out of range; clip writes unbuffered
    table *= rows.entries.reshape(rows.entries.shape + (1,) * (padded.ndim - 1))  # x_j a_ij, the same bits
    return table


def _row_sums(table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row's products added in column order onto 0, into ``out`` if given: bit for bit scipy's CSR row loop.

    numpy adds the slots one after another, as the table's first axis is
    outermost in memory; it would add pairwise only along an inner axis,
    which it reduces only when dim is 1, and then there is one slot.
    """
    return np.add.reduce(table, axis=0, initial=0, out=out)


def _rounded_once_sums(table: np.ndarray) -> np.ndarray:
    """Each row's products summed in twice the working precision, then rounded.

    A TwoSum cascade along the table (Ogita, Rump and Oishi, SIAM J.
    Sci. Comput. 26:1955, 2005) keeps the exact error of each addition,
    so the row's sum is as accurate as if it were carried in twice the
    working precision and then rounded.  When every product is exact,
    as for entries +-1 and +-2, each row is rounded once; otherwise the
    result is never less accurate than plain sums of the same products.
    """
    total, error = table[0], np.zeros_like(table[0])
    for term in table[1:]:
        partial = total + term
        back = partial - total
        error += (total - (partial - back)) + (term - back)
        total = partial
    return total + error


def _rounded_once_products(matrix: RowOracleMatrix | PaddedRows, x: np.ndarray) -> np.ndarray:
    """A x for a vector or column block x, each row's sum rounded once (``_rounded_once_sums``)."""
    return _rounded_once_sums(_product_table(matrix.padded, x))


def norm_bound(matrix: RowOracleMatrix) -> int:
    """Cheap operator-norm bound: entry bound times row sparsity."""
    return matrix.entry_bound_k * matrix.sparsity_d


def materialize(matrix: RowOracleMatrix, dtype: type = np.int64) -> np.ndarray:
    """Expand an oracle to a dense array of ``dtype``, refused above DENSE_CAP rows."""
    dim = matrix.dim
    if dim > DENSE_CAP:
        raise ResourceLimitError(f"dim {dim} exceeds dense materialization cap {DENSE_CAP}")
    dense = np.zeros((dim, dim), dtype=dtype)
    dense[np.repeat(np.arange(dim), np.diff(matrix.indptr)), matrix.indices] = matrix.data
    return dense


def _ones(indptr: np.ndarray, indices: np.ndarray) -> RowOracleMatrix:
    """0/1 row oracle with a one at each listed column, at most two per row.

    ``data`` is one int64 one broadcast to every entry: a read-only,
    zero-stride view, so the oracle keeps its index arrays and no
    nnz-long buffer of ones; its ``nbytes`` overstates it.  The row
    contract checks it like any other.
    """
    ones = np.broadcast_to(np.int64(1), (len(indices),))
    return RowOracleMatrix(indptr, indices, ones, sparsity_d=2, entry_bound_k=1)


def from_dense(dense: np.ndarray) -> RowOracleMatrix:
    """Wrap an explicit integer matrix as a row oracle (round-trip helper)."""
    arr = np.asarray(dense)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ContractError("row oracles carry exact integer entries")
    i, j = np.nonzero(arr)
    return from_entries(arr.shape[0], zip(i, j, arr[i, j]))


def _integer(value, key: str) -> int:
    """``value`` as an int within int64; a bool, a float, even 2.0, or anything else is a ContractError.

    The error names ``key``, the instance-file field read.  JSON's true
    and false are refused although Python's bool is an int, and an int
    outside int64, which numpy could not hold, is refused before any
    array is built.
    """
    what = f"{key!r} must be an integer"
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if -(2**63) <= number < 2**63:
                return number
            what += " within int64"
    raise ContractError(f"{what}, got {value!r}")


def from_entries(dim: int, triplets: Iterable[Sequence[int]]) -> RowOracleMatrix:
    """Build an oracle from an (i, j, value) triplet list of integers.

    The declared bounds are the tightest the entries satisfy.  A number
    that is not an integer within int64 is a ContractError naming
    'entries', the instance-file key the triplets are read from.
    """
    t = np.array([
        (_integer(i, "entries"), _integer(j, "entries"), _integer(v, "entries"))
        for i, j, v in triplets
    ], dtype=np.int64)
    i, j, v = t.reshape(-1, 3).T
    outside = np.flatnonzero((i < 0) | (i >= dim) | (j < 0) | (j >= dim))
    if outside.size:
        k = outside[0]
        raise ValueError(f"entry ({i[k]}, {j[k]}) outside a {dim} x {dim} matrix")
    i, j, v = i[v != 0], j[v != 0], v[v != 0]
    position = i * dim + j
    order = np.argsort(position)  # row-major: the CSR order
    position = position[order]
    repeated = np.flatnonzero(position[1:] == position[:-1])
    if repeated.size:
        raise ValueError(f"duplicate entry at {divmod(int(position[repeated[0]]), dim)}")
    counts = np.bincount(i, minlength=dim)
    return RowOracleMatrix(
        np.concatenate(([0], np.cumsum(counts))),
        j[order],
        v[order],
        sparsity_d=max(int(counts.max(initial=0)), 1),
        entry_bound_k=max(int(np.abs(v).max(initial=0)), 1),
    )


def path_adjacency(ell: int) -> RowOracleMatrix:
    """Lower-bidiagonal block: a directed path with a self-loop on every vertex.

    Row 0 holds the lone self-loop of the path's sink; row i >= 1 holds
    the edge to vertex i - 1 plus the self-loop.
    """
    if ell < 1:
        raise ValueError(f"path block needs 'ell' >= 1, got {ell}")
    i = np.arange(ell)
    cols = np.column_stack((i - 1, i)).ravel()[1:]  # row 0 has no edge to -1
    return _ones(np.maximum(2 * np.arange(ell + 1) - 1, 0), cols)


def cycle_adjacency(ell: int) -> RowOracleMatrix:
    """Cycle block: a directed cycle with self-loops on all but two vertices.

    Vertex 0 (back-edge source) points at vertex ell - 1 and the cycle
    runs back down through the self-looped interior.  Vertices 0 and
    ell - 1 carry no self-loop.
    """
    if ell < 3:
        raise ValueError(f"cycle block needs 'ell' >= 3, got {ell}")
    i = np.arange(1, ell - 1)
    cols = np.concatenate(([ell - 1], np.column_stack((i - 1, i)).ravel(), [ell - 2]))
    return _ones(np.concatenate(([0], 2 * np.arange(ell - 1) + 1, [2 * ell - 2])), cols)


def _field(spec: dict, key: str, kind: type):
    """spec[key] as a JSON integer, number, string or array (``kind`` int, float, str or list).

    A missing key, a value of another type or a number that is not
    finite is a ContractError naming the key, so a malformed file is
    refused in one line.
    """
    if key not in spec:
        raise ContractError(f"missing key {key!r}")
    value = spec[key]
    if kind is int:
        return _integer(value, key)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ContractError(f"{key!r} must be a JSON number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond the floats
            raise ContractError(f"{key!r} must be finite, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
        name = "string" if kind is str else "array"
        raise ContractError(f"{key!r} must be a JSON {name}, got {value!r}")
    return value
