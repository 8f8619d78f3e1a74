"""Row oracles: integer CSR matrices under a checked contract.

A row oracle is an int64 CSR matrix together with the contract every
reduction in this package declares for it: at most ``sparsity_d``
entries per row, each at most ``entry_bound_k`` in magnitude, and
optionally at most ``column_ones_bound`` ones per column.  The contract
is checked once, on all rows at once, when the oracle is constructed;
from then on every consumer (determinant checks, spectral bounds,
evolution operators) reads the stored matrix through ``to_csr``, and
the declared bounds, not the entries, set downstream parameters such as
the verifier's evolution time.  Dense materialization exists only as a
desk-scale debugging and ground-truth device, gated by an explicit cap.

Integer-valued oracles stay integer-valued until a spectral operation
converts them to floats.  No float arithmetic happens in construction
or Gram-matrix assembly.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ContractError, ResourceLimitError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Largest dimension materialize() expands unless the caller passes a cap.
DENSE_CAP = 2**14

Entry = tuple[int, int]


@dataclass(frozen=True, eq=False)
class RowOracleMatrix:
    """Square int64 CSR matrix with a declared row contract.

    Every row holds at most ``sparsity_d`` entries, sorted by column,
    nonzero and at most ``entry_bound_k`` in magnitude.
    ``column_ones_bound`` is an optional declared bound on the number of
    ones per column, required by the Gram construction below.
    Construction checks all of it and raises ContractError naming the
    first offending row.  The matrix is shared by every caller of
    ``to_csr``, which must not modify it in place.  Equality is identity.
    """

    csr: csr_matrix
    sparsity_d: int
    entry_bound_k: int
    column_ones_bound: int | None = None

    def __post_init__(self) -> None:
        from scipy.sparse import csr_matrix

        csr, d, k = self.csr, self.sparsity_d, self.entry_bound_k
        if not (isinstance(csr, csr_matrix) and csr.dtype == np.int64):
            raise ContractError("row oracles carry exact integer entries in an int64 CSR matrix")
        dim = csr.shape[0]
        if csr.shape != (dim, dim) or dim <= 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {csr.shape}")
        if d < 0 or k < 0:
            raise ValueError("sparsity and entry bounds must be nonnegative")
        indptr, cols, vals = csr.indptr, csr.indices, csr.data
        counts = np.diff(indptr)
        entry_row = np.repeat(np.arange(dim), counts)
        position = entry_row * dim + cols  # strictly increasing iff rows are sorted
        for bad_row, what in (
            (np.flatnonzero(counts > d), f"has more than {d} entries"),
            (entry_row[(cols < 0) | (cols >= dim)], f"references a column outside [0, {dim})"),
            (entry_row[1:][np.diff(position) <= 0], "entries not sorted by column"),
            (entry_row[vals == 0], "contains an explicit zero"),
            (entry_row[np.abs(vals) > k], f"exceeds declared bound {k}"),
        ):
            if bad_row.size:
                raise ContractError(f"row {bad_row[0]} {what}")
        ones = self.column_ones_bound
        if ones is not None and np.bincount(cols[vals == 1], minlength=dim).max() > ones:
            raise ContractError(f"a column holds more than {ones} ones")

    @property
    def dim(self) -> int:
        return self.csr.shape[0]


def to_csr(matrix: RowOracleMatrix) -> csr_matrix:
    """The oracle's int64 CSR matrix: the form every full pass reads."""
    return matrix.csr


def row(matrix: RowOracleMatrix, i: int) -> list[Entry]:
    """Nonzero entries of row i as (column, value) pairs, sorted by column."""
    if not 0 <= i < matrix.dim:
        raise IndexError(f"row index {i} out of range for dim {matrix.dim}")
    a = to_csr(matrix)
    lo, hi = a.indptr[i], a.indptr[i + 1]
    return list(zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist()))


def norm_bound(matrix: RowOracleMatrix) -> int:
    """Cheap operator-norm bound: entry bound times row sparsity."""
    return matrix.entry_bound_k * matrix.sparsity_d


def materialize(matrix: RowOracleMatrix, cap: int = DENSE_CAP) -> np.ndarray:
    """Expand an oracle to a dense int64 array, gated by the cap."""
    if matrix.dim > cap:
        raise ResourceLimitError(
            f"dim {matrix.dim} exceeds dense materialization cap {cap}"
        )
    return to_csr(matrix).toarray()


def _ones(cols: np.ndarray, indptr: np.ndarray) -> csr_matrix:
    """Square int64 CSR matrix with a one at each listed column."""
    from scipy.sparse import csr_matrix

    dim = len(indptr) - 1
    return csr_matrix((np.ones(len(cols), dtype=np.int64), cols, indptr), shape=(dim, dim))


def identity_oracle(dim: int) -> RowOracleMatrix:
    """Row oracle of the dim x dim identity."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    return RowOracleMatrix(
        _ones(np.arange(dim), np.arange(dim + 1)),
        sparsity_d=1,
        entry_bound_k=1,
        column_ones_bound=1,
    )


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
    """``value`` as an int; a float, even 2.0, or any other type is a ContractError.

    The error names ``key``, the instance-file field read, when given.
    """
    try:
        return operator.index(value)
    except TypeError:
        what = f"{key!r} must be an integer" if key else "expected an integer"
        raise ContractError(f"{what}, got {value!r}") from None


def from_entries(dim: int, triplets: Iterable[Sequence[int]]) -> RowOracleMatrix:
    """Build an oracle from an (i, j, value) triplet list of integers.

    The declared bounds are the tightest the entries satisfy; a column
    bound is declared only for 0/1 matrices.
    """
    from scipy.sparse import coo_matrix

    t = np.array(
        [(_integer(i), _integer(j), _integer(v)) for i, j, v in triplets], dtype=np.int64
    )
    i, j, v = t.reshape(-1, 3).T
    outside = np.flatnonzero((i < 0) | (i >= dim) | (j < 0) | (j >= dim))
    if outside.size:
        k = outside[0]
        raise ValueError(f"entry ({i[k]}, {j[k]}) outside a {dim} x {dim} matrix")
    i, j, v = i[v != 0], j[v != 0], v[v != 0]
    position, count = np.unique(i * dim + j, return_counts=True)
    if np.any(count > 1):
        raise ValueError(f"duplicate entry at {divmod(int(position[count > 1][0]), dim)}")
    csr = coo_matrix((v, (i, j)), shape=(dim, dim)).tocsr()
    ones = np.bincount(j, minlength=dim).max(initial=0)
    return RowOracleMatrix(
        csr,
        sparsity_d=max(int(np.diff(csr.indptr).max(initial=0)), 1),
        entry_bound_k=max(int(np.abs(v).max(initial=0)), 1),
        column_ones_bound=int(ones) if np.all(v == 1) else None,
    )


def ata_oracle(matrix: RowOracleMatrix) -> RowOracleMatrix:
    """Row oracle for A^T A, for 0/1 matrices with <= 2 ones per column.

    Row i of the Gram matrix touches only columns j that share a
    supporting row with column i, which bounds its sparsity; the product
    is taken once, over int64, on the CSR form.  Entries land in {0, 1, 2}:
    a diagonal entry counts the ones in column i, an off-diagonal entry
    counts shared rows.  The result is symmetric and positive
    semidefinite by construction.
    """
    if matrix.column_ones_bound is None or matrix.column_ones_bound > 2:
        raise ContractError(
            "Gram construction requires a declared column bound of at most 2 ones"
        )
    if matrix.entry_bound_k > 1:
        raise ContractError("Gram construction requires 0/1 entries")

    a = to_csr(matrix)
    gram = (a.T @ a).tocsr()
    gram.eliminate_zeros()
    gram.sort_indices()
    return RowOracleMatrix(
        gram,
        sparsity_d=min(matrix.dim, 2 * matrix.sparsity_d * matrix.column_ones_bound),
        entry_bound_k=2,
    )


def path_adjacency(ell: int) -> RowOracleMatrix:
    """Lower-bidiagonal block: a directed path with a self-loop on every vertex.

    Row 0 holds the lone self-loop of the path's sink; row i >= 1 holds
    the edge to vertex i - 1 plus the self-loop.
    """
    if ell < 1:
        raise IndexError(f"path block needs length >= 1, got {ell}")
    i = np.arange(ell)
    cols = np.column_stack((i - 1, i)).ravel()[1:]  # row 0 has no edge to -1
    indptr = np.maximum(2 * np.arange(ell + 1) - 1, 0)
    return RowOracleMatrix(
        _ones(cols, indptr), sparsity_d=2, entry_bound_k=1, column_ones_bound=2
    )


def cycle_adjacency(ell: int) -> RowOracleMatrix:
    """Cycle block: a directed cycle with self-loops on all but two vertices.

    Vertex 0 (back-edge source) points at vertex ell - 1 and the cycle
    runs back down through the self-looped interior.  Vertices 0 and
    ell - 1 carry no self-loop.
    """
    if ell < 3:
        raise IndexError(f"cycle block needs length >= 3, got {ell}")
    i = np.arange(1, ell - 1)
    cols = np.concatenate(([ell - 1], np.column_stack((i - 1, i)).ravel(), [ell - 2]))
    indptr = np.concatenate(([0], 2 * np.arange(ell - 1) + 1, [2 * ell - 2]))
    return RowOracleMatrix(
        _ones(cols, indptr), sparsity_d=2, entry_bound_k=1, column_ones_bound=2
    )


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
