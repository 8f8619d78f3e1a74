"""Row-sparse matrix oracles and their desk-scale dense counterparts.

A row oracle answers "give me the nonzero entries of row i" without ever
holding the full matrix.  That is the access model under which all
reductions in this package are built: the matrix dimension may in
principle be exponential in the description size, and every consumer
(determinant checks, spectral bounds, evolution operators) is written
against the oracle interface first.  Dense materialization exists only
as a desk-scale debugging and ground-truth device, gated by an explicit
cap.

Every full pass reads one cached int64 CSR form: ``to_csr`` builds it
once through the checks of ``row``, and constructors that already hold
the whole matrix hand theirs to ``from_csr``, which checks the declared
contract on all rows at once.

Integer-valued oracles stay integer-valued until a spectral operation
converts them to floats.  No float arithmetic happens inside row
construction or Gram-matrix assembly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ResourceLimitError

# Largest dimension materialize() will expand by default.  Override per
# call, or process-wide through the environment variable below.
DEFAULT_DENSE_CAP = 2**14
DENSE_CAP_ENV_VAR = "GAPLAB_DENSE_CAP"

Entry = tuple[int, int]
RowFn = Callable[[int], Sequence[Entry]]


def dense_cap() -> int:
    """Effective materialization cap (environment override wins)."""
    raw = os.environ.get(DENSE_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DENSE_CAP
    cap = int(raw)
    if cap <= 0:
        raise ValueError(f"{DENSE_CAP_ENV_VAR} must be positive, got {raw}")
    return cap


@dataclass(frozen=True)
class RowOracleMatrix:
    """Succinct square matrix described by a row function.

    ``row_fn(i)`` returns the nonzero entries of row ``i`` as
    ``(column, value)`` pairs with integer values, sorted by column.
    ``sparsity_d`` bounds the number of entries per row and
    ``entry_bound_k`` bounds their magnitude; both are part of the
    declared contract and are enforced on every query.
    ``column_ones_bound`` is an optional declared bound on the number of
    ones per column, required by the Gram construction below.
    ``row_fn`` must be pure: its rows are cached by ``to_csr``.
    """

    dim: int
    sparsity_d: int
    entry_bound_k: int
    row_fn: RowFn
    column_ones_bound: int | None = None
    _csr: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.sparsity_d < 0 or self.entry_bound_k < 0:
            raise ValueError("sparsity and entry bounds must be nonnegative")


@dataclass
class DenseMatrix:
    """Explicit square matrix with verification flags.

    ``symmetric`` and ``psd`` start False and are set only once the
    property is known (by ``check_symmetric``, or by a constructor);
    they are the one exception to the otherwise immutable value types
    in this package.
    """

    dim: int
    entries: np.ndarray
    symmetric: bool = False
    psd: bool = False

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries)
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match dim {self.dim}"
            )

    def check_symmetric(self, tol: float = 1e-12) -> bool:
        """Set the symmetric flag iff max |A - A^T| <= tol."""
        a = self.entries
        dev = np.max(np.abs(a - a.T)) if self.dim > 1 else 0.0
        self.symmetric = bool(dev <= tol)
        return self.symmetric


def row(matrix: RowOracleMatrix, i: int) -> list[Entry]:
    """Query one row of the oracle, enforcing the declared contract."""
    if not 0 <= i < matrix.dim:
        raise IndexError(f"row index {i} out of range for dim {matrix.dim}")
    entries = list(matrix.row_fn(i))
    if len(entries) > matrix.sparsity_d:
        raise ContractError(
            f"row {i} has {len(entries)} entries, declared sparsity {matrix.sparsity_d}"
        )
    prev_col = -1
    for col, val in entries:
        if not 0 <= col < matrix.dim:
            raise ContractError(f"row {i} references column {col} outside [0, {matrix.dim})")
        if col <= prev_col:
            raise ContractError(f"row {i} entries not sorted by column")
        if val == 0:
            raise ContractError(f"row {i} contains an explicit zero at column {col}")
        if abs(val) > matrix.entry_bound_k:
            raise ContractError(
                f"row {i} entry {val} exceeds declared bound {matrix.entry_bound_k}"
            )
        prev_col = col
    return entries


def norm_bound(matrix: RowOracleMatrix) -> int:
    """Cheap operator-norm bound: entry bound times row sparsity."""
    return matrix.entry_bound_k * matrix.sparsity_d


def materialize(matrix: RowOracleMatrix, cap: int | None = None) -> DenseMatrix:
    """Expand an oracle to a dense integer matrix, gated by the cap."""
    limit = dense_cap() if cap is None else cap
    if matrix.dim > limit:
        raise ResourceLimitError(
            f"dim {matrix.dim} exceeds dense materialization cap {limit}"
        )
    dm = DenseMatrix(dim=matrix.dim, entries=to_csr(matrix).toarray())
    dm.check_symmetric()
    return dm


def identity_oracle(dim: int) -> RowOracleMatrix:
    """Row oracle of the dim x dim identity."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    return RowOracleMatrix(
        dim=dim,
        sparsity_d=1,
        entry_bound_k=1,
        row_fn=lambda i: [(i, 1)],
        column_ones_bound=1,
    )


def to_csr(matrix: RowOracleMatrix):
    """The oracle as an int64 scipy CSR matrix, built once and cached.

    This is the only code that sweeps ``row_fn``: every row passes the
    contract checks of ``row`` on the way in.  The cached matrix is
    shared by every later caller, which must not modify it in place.
    """
    if matrix._csr is None:
        from scipy.sparse import csr_matrix

        rows = [row(matrix, i) for i in range(matrix.dim)]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        cols, vals = np.array([e for r in rows for e in r], dtype=np.int64).reshape(-1, 2).T
        csr = csr_matrix((vals, cols, indptr), shape=(matrix.dim, matrix.dim))
        object.__setattr__(matrix, "_csr", csr)
    return matrix._csr


def from_csr(
    csr, sparsity_d: int, entry_bound_k: int, column_ones_bound: int | None = None
) -> RowOracleMatrix:
    """Wrap an existing integer CSR matrix as a row oracle.

    Checks on all rows at once the contract ``row`` enforces per query,
    plus the declared ones-per-column bound; the matrix then becomes the
    oracle's cached CSR form and answers its row queries.
    """
    from scipy.sparse import csr_matrix

    csr = csr_matrix(csr)
    if not np.issubdtype(csr.dtype, np.integer):
        raise ContractError("row oracles carry exact integer entries")
    csr = csr.astype(np.int64, copy=False)
    dim = csr.shape[0]
    if csr.shape != (dim, dim):
        raise ValueError(f"expected a square matrix, got shape {csr.shape}")
    indptr, cols, vals = csr.indptr, csr.indices, csr.data
    counts = np.diff(indptr)
    entry_row = np.repeat(np.arange(dim), counts)
    position = entry_row * dim + cols  # strictly increasing iff rows are sorted
    for bad_row, what in (
        (np.flatnonzero(counts > sparsity_d), f"has more than {sparsity_d} entries"),
        (entry_row[(cols < 0) | (cols >= dim)], f"references a column outside [0, {dim})"),
        (entry_row[1:][np.diff(position) <= 0], "entries not sorted by column"),
        (entry_row[vals == 0], "contains an explicit zero"),
        (entry_row[np.abs(vals) > entry_bound_k], f"exceeds declared bound {entry_bound_k}"),
    ):
        if bad_row.size:
            raise ContractError(f"row {bad_row[0]} {what}")
    if column_ones_bound is not None and (
        np.bincount(cols[vals == 1], minlength=dim).max() > column_ones_bound
    ):
        raise ContractError(f"a column holds more than {column_ones_bound} ones")

    def row_fn(i: int) -> list[Entry]:
        lo, hi = indptr[i], indptr[i + 1]
        return list(zip(cols[lo:hi].tolist(), vals[lo:hi].tolist()))

    oracle = RowOracleMatrix(dim, sparsity_d, entry_bound_k, row_fn, column_ones_bound)
    object.__setattr__(oracle, "_csr", csr)
    return oracle


def from_dense(dense: DenseMatrix | np.ndarray) -> RowOracleMatrix:
    """Wrap an explicit matrix as a row oracle (round-trip helper)."""
    arr = dense.entries if isinstance(dense, DenseMatrix) else np.asarray(dense)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ContractError("row oracles carry exact integer entries")
    i, j = np.nonzero(arr)
    return from_entries(arr.shape[0], zip(i, j, arr[i, j]))


def from_entries(dim: int, triplets: Iterable[Sequence[int]]) -> RowOracleMatrix:
    """Build an oracle from an (i, j, value) triplet list.

    The declared bounds are the tightest the entries satisfy; a column
    bound is declared only for 0/1 matrices.
    """
    from scipy.sparse import coo_matrix

    t = np.array([(int(i), int(j), int(v)) for i, j, v in triplets], dtype=np.int64)
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
    return from_csr(
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
    return from_csr(
        gram,
        sparsity_d=min(matrix.dim, 2 * matrix.sparsity_d * matrix.column_ones_bound),
        entry_bound_k=2,
        column_ones_bound=None,
    )


def path_adjacency(ell: int) -> RowOracleMatrix:
    """Lower-bidiagonal block: a directed path with a self-loop on every vertex.

    Row 0 holds the lone self-loop of the path's sink; row i >= 1 holds
    the self-loop plus the edge to vertex i - 1.
    """
    if ell < 1:
        raise IndexError(f"path block needs length >= 1, got {ell}")

    def row_fn(i: int) -> list[Entry]:
        if i == 0:
            return [(0, 1)]
        return [(i - 1, 1), (i, 1)]

    return RowOracleMatrix(
        dim=ell, sparsity_d=2, entry_bound_k=1, row_fn=row_fn, column_ones_bound=2
    )


def cycle_adjacency(ell: int) -> RowOracleMatrix:
    """Cycle block: a directed cycle with self-loops on all but two vertices.

    Vertex 0 (back-edge source) points at vertex ell - 1 and the cycle
    runs back down through the self-looped interior.  Vertices 0 and
    ell - 1 carry no self-loop.
    """
    if ell < 3:
        raise IndexError(f"cycle block needs length >= 3, got {ell}")

    def row_fn(i: int) -> list[Entry]:
        if i == 0:
            return [(ell - 1, 1)]
        if i == ell - 1:
            return [(ell - 2, 1)]
        return [(i - 1, 1), (i, 1)]

    return RowOracleMatrix(
        dim=ell, sparsity_d=2, entry_bound_k=1, row_fn=row_fn, column_ones_bound=2
    )


def _read_spec(source: str | os.PathLike | dict) -> tuple[dict, str]:
    """Parsed instance description and the directory its paths are relative to."""
    if isinstance(source, dict):
        return source, os.getcwd()
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh), os.path.dirname(os.path.abspath(source))


def _reduction_input(spec: dict, base: str):
    """Machine and input string of a {"kind": "rtm"} description."""
    from . import rtm  # deferred: rtm depends on this module

    machine_ref = spec["machine"]
    candidate = os.path.join(base, machine_ref)
    if os.path.exists(candidate):
        machine = rtm.load_machine(candidate)
    else:
        machine = rtm.corpus_machine(machine_ref)
    if "space" in spec:
        machine = rtm.with_space(machine, int(spec["space"]))
    return machine, spec["input"]


def load_instance(source: str | os.PathLike | dict) -> RowOracleMatrix:
    """Load a matrix instance from JSON (path or already-parsed dict).

    Formats:
      {"dim": N, "entries": [[i, j, v], ...]}        triplet matrix
      {"dim": N, "rows": [[...], ...]}                dense integer matrix
      {"kind": "path" | "cycle", "ell": L}            structured block
      {"kind": "rtm", "machine": PATH-OR-NAME,
       "input": STR, "space": S?}                     machine reduction
                                                      (its augmented adjacency)
    """
    spec, base = _read_spec(source)
    if "rows" in spec:
        return from_dense(np.asarray(spec["rows"], dtype=np.int64))
    if "entries" in spec:
        return from_entries(int(spec["dim"]), spec["entries"])

    kind = spec.get("kind")
    if kind == "path":
        return path_adjacency(int(spec["ell"]))
    if kind == "cycle":
        return cycle_adjacency(int(spec["ell"]))
    if kind == "rtm":
        from . import rtm

        return rtm.augmented_adjacency(*_reduction_input(spec, base))
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

        instance = rtm.reduce_to_gapped(*_reduction_input(spec, base))
        return instance.gram, instance.g
    return load_instance(spec), None
