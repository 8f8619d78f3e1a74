"""Row oracles: integer CSR arrays under a checked contract.

A row oracle is its CSR arrays (``indptr``, ``indices`` and int64
``data``) together with the contract every reduction in this package
declares for them: at most ``sparsity_d`` entries per row, each at most
``entry_bound_k`` in magnitude.  The contract is checked once,
on all rows at once, when the oracle is constructed; from then on every
consumer (determinant checks, spectral bounds, evolution operators)
reads the arrays through ``to_csr``, a scipy CSR matrix built on the
same buffers, and the declared bounds, not the entries, set downstream
parameters such as the verifier's evolution time.  Building an oracle
from triplets, a structured block or a machine reduction, checking it
and materializing it take numpy alone; scipy is imported when the CSR
view is first asked for, by the Gram product or a kernel.  Dense
materialization exists only as a desk-scale debugging and ground-truth
device, refused above DENSE_CAP rows.

Integer-valued oracles stay integer-valued until a spectral operation
converts them to floats.  No float arithmetic happens in construction
or Gram-matrix assembly.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

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
    copy.  Every row holds at most ``sparsity_d`` entries, sorted by
    column, nonzero and at most ``entry_bound_k`` in magnitude.
    Construction checks all of it and raises ContractError naming the
    first offending row.  The arrays are shared by every caller of
    ``to_csr``, which must not modify them in place.  Equality is
    identity.
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
        # failing row; the one mask a valid oracle pays is the sort check's.
        if counts.max() > d:
            raise ContractError(f"row {int((counts > d).argmax())} has more than {d} entries")
        if nnz and (cols.min() < 0 or cols.max() >= dim):
            raise ContractError(
                f"row {row_of((cols < 0) | (cols >= dim))} references a column outside [0, {dim})"
            )
        # Every index now lies in [0, max(dim, nnz)], so narrowing loses nothing.
        index = _index_dtype(dim, nnz)
        indptr, cols = indptr.astype(index, copy=False), cols.astype(index, copy=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", cols)
        descending = cols[1:] <= cols[:-1]
        starts = indptr[1:-1]
        descending[starts[(starts > 0) & (starts < nnz)] - 1] = False  # pairs across rows
        if descending.any():
            row = row_of(np.append(False, descending))  # the pair's second entry
            raise ContractError(f"row {row} entries not sorted by column")
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


def to_csr(matrix: RowOracleMatrix) -> csr_matrix:
    """The oracle's CSR matrix, a view on its arrays: the form every full pass reads."""
    return matrix.csr


def norm_bound(matrix: RowOracleMatrix) -> int:
    """Cheap operator-norm bound: entry bound times row sparsity."""
    return matrix.entry_bound_k * matrix.sparsity_d


def principal_rows(matrix: RowOracleMatrix, rows: np.ndarray) -> RowOracleMatrix:
    """The rows at ascending indices ``rows``, renumbered 0..len(rows) - 1, under the same contract.

    Every entry of those rows must lie in a column among ``rows``, as
    on a connected component of a symmetric pattern; ValueError
    otherwise.  The rows are cut from ``indptr`` slices, and the
    renumbering keeps each row's column order, so a product with the
    result sums every row's terms in the order the whole matrix does.
    The declared d and k carry over, and with them every parameter
    derived from them.
    """
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    indptr, _ = _index_arrays(counts)
    entries = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    cols = matrix.indices[entries]
    local = np.searchsorted(rows, cols)
    if np.any(rows[np.minimum(local, len(rows) - 1)] != cols):
        raise ValueError("the rows hold an entry outside their own columns")
    return RowOracleMatrix(
        indptr,
        local,
        matrix.data[entries],
        sparsity_d=matrix.sparsity_d,
        entry_bound_k=matrix.entry_bound_k,
    )


def materialize(matrix: RowOracleMatrix) -> np.ndarray:
    """Expand an oracle to a dense int64 array, refused above DENSE_CAP rows."""
    dim = matrix.dim
    if dim > DENSE_CAP:
        raise ResourceLimitError(f"dim {dim} exceeds dense materialization cap {DENSE_CAP}")
    dense = np.zeros((dim, dim), dtype=np.int64)
    dense[np.repeat(np.arange(dim), np.diff(matrix.indptr)), matrix.indices] = matrix.data
    return dense


def _ones(indptr: np.ndarray, indices: np.ndarray) -> RowOracleMatrix:
    """0/1 row oracle with a one at each listed column, at most two per row."""
    return RowOracleMatrix(
        indptr, indices, np.ones(len(indices), dtype=np.int64), sparsity_d=2, entry_bound_k=1
    )


def _index_arrays(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` for per-row entry counts and an unfilled ``indices`` to write into.

    Both come in the oracle's index dtype, so a producer that fills
    ``indices`` hands the constructor arrays it keeps as they are.
    """
    dim, nnz = len(counts), int(counts.sum())
    index = _index_dtype(dim, nnz)
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.empty(nnz, dtype=index)


def from_dense(dense: np.ndarray) -> RowOracleMatrix:
    """Wrap an explicit integer matrix as a row oracle (round-trip helper)."""
    arr = np.asarray(dense)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ContractError("row oracles carry exact integer entries")
    i, j = np.nonzero(arr)
    return from_entries(arr.shape[0], zip(i, j, arr[i, j]))


def _integer(value, key: str | None = None) -> int:
    """``value`` as an int; a bool, a float, even 2.0, or any other type is a ContractError.

    The error names ``key``, the instance-file field read, when given.
    JSON's true and false are refused although Python's bool is an int.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    what = f"{key!r} must be an integer" if key else "expected an integer"
    raise ContractError(f"{what}, got {value!r}")


def from_entries(dim: int, triplets: Iterable[Sequence[int]]) -> RowOracleMatrix:
    """Build an oracle from an (i, j, value) triplet list of integers.

    The declared bounds are the tightest the entries satisfy.
    """
    t = np.array(
        [(_integer(i), _integer(j), _integer(v)) for i, j, v in triplets], dtype=np.int64
    )
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


def ata_oracle(matrix: RowOracleMatrix) -> RowOracleMatrix:
    """Row oracle for A^T A, for +-1 matrices with at most two nonzeros per column.

    The product is taken once, over int64, on the CSR form, and the
    oracle keeps the product's arrays, less any entry that +-1 terms
    cancel to zero.  A diagonal entry counts the nonzeros of column i,
    so a column with more than two puts an entry above the declared
    bound 2 and the Gram's own contract check refuses it.  Row i
    touches only columns that share a row with column i; the declared
    sparsity min(dim, 4d) gives every reduction's Gram the evolution
    time pi/16.  The result is symmetric and positive semidefinite by
    construction.
    """
    if matrix.entry_bound_k > 1:
        raise ContractError("Gram construction requires entries in {-1, 0, 1}")

    a = to_csr(matrix)
    gram = (a.T @ a).tocsr()
    gram.eliminate_zeros()
    gram.sort_indices()
    return RowOracleMatrix(
        gram.indptr,
        gram.indices,
        gram.data,
        sparsity_d=min(matrix.dim, 4 * matrix.sparsity_d),
        entry_bound_k=2,
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


def _read_spec(source: str | os.PathLike | dict) -> tuple[dict, str]:
    """Parsed instance description and the directory its paths are relative to."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            spec, base = json.load(fh), os.path.dirname(os.path.abspath(source))
    else:
        spec, base = source, os.getcwd()
    if not isinstance(spec, dict):
        raise ContractError(f"an instance is a JSON object, got {type(spec).__name__}")
    return spec, base


def _field(spec: dict, key: str, kind: type):
    """spec[key] as a JSON integer, number, string or array (``kind`` int, float, str or list).

    A missing key or a value of another type is a ContractError naming
    the key, so a malformed file is refused in one line.
    """
    if key not in spec:
        raise ContractError(f"missing key {key!r}")
    value = spec[key]
    if kind is int:
        return _integer(value, key)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ContractError(f"{key!r} must be a JSON number, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
        name = "string" if kind is str else "array"
        raise ContractError(f"{key!r} must be a JSON {name}, got {value!r}")
    return value


def reduction_input(spec: dict, base: str):
    """Machine and input string of a {"kind": "rtm"} description.

    ``machine`` is a machine file's path relative to ``base`` when one
    exists there, and otherwise a corpus name; ``space``, if given,
    replaces the machine's tape size.
    """
    from . import rtm  # deferred: rtm depends on this module

    machine_ref = _field(spec, "machine", str)
    x = _field(spec, "input", str)
    candidate = os.path.join(base, machine_ref)
    if os.path.exists(candidate):
        machine = rtm.load_machine(candidate)
    else:
        machine = rtm.corpus_machine(machine_ref)
    if "space" in spec:
        machine = rtm.with_space(machine, _field(spec, "space", int))
    return machine, x


def load_instance(source: str | os.PathLike | dict) -> RowOracleMatrix:
    """Load a matrix instance from JSON (path or already-parsed dict).

    Formats:
      {"dim": N, "entries": [[i, j, v], ...]}        triplet matrix
      {"dim": N, "rows": [[...], ...]}                dense integer matrix
      {"kind": "path" | "cycle", "ell": L}            structured block
      {"kind": "rtm", "machine": PATH-OR-NAME,
       "input": STR, "space": S?}                     machine reduction
                                                      (its augmented adjacency)

    Every number (values, indices, dim, ell, space) must be a JSON
    integer, ``machine`` and ``input`` strings, and a ``rows`` matrix
    N x N; a missing key or anything else is a ContractError.
    """
    spec, base = _read_spec(source)
    if "rows" in spec:
        rows = _field(spec, "rows", list)
        dim = _field(spec, "dim", int) if "dim" in spec else len(rows)
        if len(rows) != dim:
            raise ContractError(f"instance declares dim {dim} but has {len(rows)} rows")
        for r in rows:
            if not isinstance(r, list) or len(r) != dim:
                raise ContractError(f"instance declares dim {dim} but has the row {r!r}")
        return from_dense(np.array([[_integer(v) for v in r] for r in rows], dtype=np.int64))
    if "entries" in spec:
        dim, entries = _field(spec, "dim", int), _field(spec, "entries", list)
        for t in entries:
            if not isinstance(t, list) or len(t) != 3:
                raise ContractError(f"'entries' must hold [i, j, value] triplets, got {t!r}")
        return from_entries(dim, entries)

    kind = spec.get("kind")
    if kind == "path":
        return path_adjacency(_field(spec, "ell", int))
    if kind == "cycle":
        return cycle_adjacency(_field(spec, "ell", int))
    if kind == "rtm":
        from . import rtm

        return rtm.augmented_adjacency(*reduction_input(spec, base))
    raise ValueError(f"unrecognized instance description: {sorted(spec)}")


def load_gapped_instance(
    source: str | os.PathLike | dict,
) -> tuple[RowOracleMatrix, int | None]:
    """The matrix ``verify`` decides from an instance file, with its certified g.

    A machine reduction yields the Gram A^T A of its augmented adjacency
    and the reduction's own gap exponent; every other shape yields the
    matrix ``load_instance`` reads and no gap exponent.
    """
    spec, base = _read_spec(source)
    if spec.get("kind") == "rtm":
        from . import rtm

        instance = rtm.reduce_to_gapped(*reduction_input(spec, base))
        return instance.gram, instance.g
    return load_instance(spec), None
