"""Small-size reference implementations the tests check gaplab against.

Each function here is a second, independent route to an answer the
package computes another way, or a fixture the test batteries share.
None of them is on a production path: they enumerate, build dense
operators or simulate registers term by term, so they are cheap only at
the desk-scale sizes the tests use.

* determinants: dense fraction-free elimination, the cycle-cover sum
  and the permutation expansion, against ``spectral.det_exact``.  The
  two enumerations compute the same quantity through different sign
  bookkeeping, which makes each a check on the other;
* spectra: the Chebyshev recurrence and characteristic polynomial of
  the path block, its dense integer Gram and a tridiagonal eigensolver,
  against ``gram_bands`` and ``closed_form_eigenvalues``; a walk of
  every block of a direct sum of paths with its textbook least
  eigenvalue in 50-digit arithmetic, against ``min_eigenvalue_sparse``;
* simulation: the dense circuit unitary, the Taylor sum as a dense
  operator, one-bit phase estimation from a dense unitary and
  acceptance from a simulated run of one padded witness, against
  ``phase_read``, ``expm_taylor_minus_identity`` and ``accept_operator``;
* amplification: the two reflections as dense operators and the
  phase-estimation register simulated branch by branch, against the
  closed form of ``nwz_amplify``;
* machines: the successor array by decoding and re-encoding every
  configuration, and the audit's witnesses from a scan in index order
  and pointer jumping run for every round, against ``successors`` and
  ``_audit``;
* CSR construction: the COO-to-CSR route through scipy that built row
  oracles before they were written as arrays, and the augmented
  adjacency assembled triplet by triplet from its definition, by
  stepping the machine or from a successor array, against
  ``from_entries``, the structured blocks, ``adjacency_arrays`` and
  ``ata_oracle``, the Gram A^T A of a +-1 row oracle formed at once by
  scipy's product; a reduction's adjacency formed as rows at once
  (``adjacency_arrays``, ``adjacency_rows``) and its Gram by
  ``ata_oracle`` of them (``formed``), for the routes its chain table
  replaced, which the package no longer has; a Gram's formed arrays
  rebuilt from triplets, whose reading a reduction's chain table and a
  formed Gram must equal, and the principal rows of a component cut
  from CSR slices, against the least block the spectral routines write
  from a path sum's edges;
* clock Hamiltonians: the dense 2^(n+T) sum of a compiled instance's
  terms and its least eigenvalue, and the indices of the legal clock
  strings in it, against the legal-clock block that ``ground_energy``
  solves;
* fixtures: row listing, the identity oracle, a machine's JSON form
  (the inverse of ``rtm.machine_from_dict``), random circuits, the
  named verifier set, the clock history state, the tracemalloc peak
  of one call and the traced transient of each stage of a run.
"""

from __future__ import annotations

import tracemalloc
from math import sqrt
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import coo_matrix

from gaplab import rtm
from gaplab.errors import ContractError, ResourceLimitError
from gaplab.protocols import (
    ClockInstance,
    Verifier,
    pe_verifier,
    rotation_verifier,
    toy_gapped_instances,
)
from gaplab.rtm import MOVES, ReversibleTM
from gaplab.simulator import (
    DENSE_QUBIT_CAP,
    GATE_MATRICES,
    QuantumCircuit,
    _apply_to_columns,
    expm_taylor_minus_identity,
    run_circuit,
)
from gaplab import spectral
from gaplab.sparse_oracle import PaddedRows, RowOracleMatrix, _index_dtype, _ones, from_entries
from gaplab.spectral import gram_bands


# ---------------------------------------------------------------------------
# row oracles


Entry = tuple[int, int]


def row(matrix: RowOracleMatrix, i: int) -> list[Entry]:
    """Nonzero entries of row i as (column, value) pairs, sorted by column."""
    if not 0 <= i < matrix.dim:
        raise IndexError(f"row index {i} out of range for dim {matrix.dim}")
    a = matrix.csr
    lo, hi = a.indptr[i], a.indptr[i + 1]
    return list(zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist()))


def identity_oracle(dim: int) -> RowOracleMatrix:
    """Row oracle of the dim x dim identity."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    return RowOracleMatrix(np.arange(dim + 1), np.arange(dim), np.ones(dim, dtype=np.int64), 1, 1)


def coo_csr(dim: int, triplets):
    """The scipy CSR matrix of nonzero, distinct (i, j, value) triplets, by way of COO."""
    t = np.array(list(triplets), dtype=np.int64).reshape(-1, 3)
    i, j, v = t[t[:, 2] != 0].T
    return coo_matrix((v, (i, j)), shape=(dim, dim)).tocsr()


def coo_gram(a):
    """A^T A of a scipy CSR matrix, canonical, as scipy's product gives it."""
    gram = (a.T @ a).tocsr()
    gram.eliminate_zeros()
    gram.sort_indices()
    return gram


def principal_rows(matrix: RowOracleMatrix, rows: np.ndarray) -> RowOracleMatrix:
    """The rows at ascending indices ``rows``, renumbered 0..len(rows) - 1, under the same contract.

    Every entry of those rows must lie in a column among ``rows``, as
    on a connected component of a symmetric pattern; ValueError
    otherwise.  The rows are cut from ``indptr`` slices of the matrix's
    own arrays, and the renumbering keeps each row's column order: the
    reference for the least block ``spectral._path_witness`` writes from
    a path sum's edges.
    """
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    indptr, _ = index_arrays(counts)
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


def unpadded(rows: PaddedRows, sparsity_d: int, entry_bound_k: int) -> RowOracleMatrix:
    """The row oracle of padded rows, their pads dropped, under the declared d and k.

    The record's own layout is asserted first: C-contiguous intp
    columns and float64 entries of one (width, dim) shape, each row's
    pads (column dim, entry 0) after its entries, and integer entries.
    The row contract then checks the rest, as it checked the block
    ``spectral._path_witness`` once built as a row oracle.
    """
    columns, entries = rows.columns, rows.entries
    assert columns.dtype == np.intp and entries.dtype == np.float64
    assert columns.shape == entries.shape and columns.flags.c_contiguous and entries.flags.c_contiguous
    keep = columns != rows.dim
    assert not np.any(keep[1:] & ~keep[:-1]) and not np.any(entries[~keep])
    data = entries.T[keep.T]
    assert np.array_equal(data, np.round(data))
    return RowOracleMatrix(
        np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=0)))),
        columns.T[keep.T],
        data.astype(np.int64),
        sparsity_d=sparsity_d,
        entry_bound_k=entry_bound_k,
    )


def ata_oracle(matrix: RowOracleMatrix) -> RowOracleMatrix:
    """Row oracle of A^T A, formed at once, for a +-1 matrix A with at most two nonzeros per column.

    The declared bounds are those of every reduction's Gram: row i
    touches only columns that share a row of A with column i, so the
    sparsity is min(dim, 4d) for A's row bound d, and the entry bound
    is 2, which give every reduction's Gram the evolution time pi/16.
    scipy's product drops the entries +-1 terms cancel, and a column of
    more than two nonzeros puts a diagonal entry above the bound 2,
    which the row contract refuses in its own words.
    """
    if matrix.entry_bound_k > 1:
        raise ContractError("Gram construction requires entries in {-1, 0, 1}")
    a = matrix.csr
    gram = (a.T @ a).tocsr()
    gram.sort_indices()
    d = min(matrix.dim, 4 * matrix.sparsity_d)
    return RowOracleMatrix(gram.indptr, gram.indices, gram.data, sparsity_d=d, entry_bound_k=2)


def formed(matrix: RowOracleMatrix | spectral.GappedInstance) -> RowOracleMatrix:
    """The matrix as a row oracle: a reduction's Gram formed by ``ata_oracle`` of its adjacency's rows, any other as it is."""
    if isinstance(matrix, spectral.GappedInstance):
        return ata_oracle(adjacency_rows(matrix.adjacency))
    return matrix


def explicit_gram(gram: RowOracleMatrix | spectral.GappedInstance) -> RowOracleMatrix:
    """A Gram's formed arrays (``formed``) as a plain row oracle, built from their (i, j, value) triplets.

    The spectral routines read it from its CSR arrays, as they read any
    matrix but a reduction's Gram, which they read from its chain table.
    """
    a = formed(gram).csr.tocoo()
    return from_entries(gram.dim, zip(a.row.tolist(), a.col.tolist(), a.data.tolist()))


def assert_reading_is_explicit(gram: RowOracleMatrix | spectral.GappedInstance) -> None:
    """A Gram reads as its formed arrays rebuilt from triplets do, bit for bit.

    lambda_min, the least block's rows and arrays, the witness and its
    residual equal those of ``explicit_gram(gram)``, and the block
    equals ``principal_rows`` of the formed arrays.  A reduction's Gram
    is read from its chain table, which is all the package holds of it,
    before its arrays are formed here for the comparison.
    """

    def bits(x) -> bytes:
        return np.asarray(x, dtype=np.float64).tobytes()

    lam = spectral.min_eigenvalue_sparse(gram)
    pair = spectral._bottom_block_eigenpair(gram)
    explicit = explicit_gram(gram)
    want = spectral._bottom_block_eigenpair(explicit)
    assert bits(lam) == bits(pair.lam) == bits(want.lam)
    assert bits(spectral.min_eigenvalue_sparse(explicit)) == bits(lam)
    assert (pair.rows is None) == (want.rows is None)
    assert pair.rows is None or np.array_equal(pair.rows, want.rows)
    cut = explicit if want.rows is None else principal_rows(explicit, want.rows)
    mine = unpadded(pair.block, gram.sparsity_d, gram.entry_bound_k)
    theirs = unpadded(want.block, explicit.sparsity_d, explicit.entry_bound_k)
    for part in ("indptr", "indices", "data"):
        a, b = getattr(mine, part), getattr(theirs, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
        assert b.dtype == getattr(cut, part).dtype
        assert np.array_equal(b, getattr(cut, part)), part
    assert bits(pair.psi) == bits(want.psi)
    assert bits(pair.residual) == bits(want.residual)


def adjacency_triplets(machine: ReversibleTM, input_str: str) -> list[tuple[int, int, int]]:
    """The augmented adjacency's entries by its definition, stepping the machine with ``step``.

    Every configuration has a self-loop and an edge to its successor,
    except that the start configuration has no self-loop and the
    accepting configuration's row is the lone back edge to the start.
    """
    s_idx = rtm.encode_configuration(machine, rtm.start_configuration(machine, input_str))
    t_idx = rtm.encode_configuration(machine, rtm.accept_configuration(machine, input_str))
    entries = {(t_idx, s_idx)}
    for i in range(machine.dim):
        if i == t_idx:
            continue
        if i != s_idx:
            entries.add((i, i))
        nxt = rtm.step(machine, rtm.decode_configuration(machine, i))
        if nxt is not None:
            entries.add((i, rtm.encode_configuration(machine, nxt)))
    return sorted((i, j, 1) for i, j in entries)


def index_arrays(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` for per-row entry counts and an unfilled ``indices`` to write into.

    Both come in the oracle's index dtype, so a producer that fills
    ``indices`` hands the constructor arrays it keeps as they are.
    """
    dim, nnz = len(counts), int(counts.sum())
    index = _index_dtype(dim, nnz)
    indptr = np.zeros(dim + 1, dtype=index)
    indptr[1:] = counts
    np.cumsum(indptr[1:], out=indptr[1:])  # in place: no cast copy of narrow counts
    return indptr, np.empty(nnz, dtype=index)


def adjacency_arrays(succ: np.ndarray, s_idx: int, t_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of a reduction's augmented adjacency, from its audited (acyclic) successor array.

    Row i holds i and its successor, so it counts 1 + (succ >= 0); the
    start row drops the self-loop and may be empty, and the accept row
    is the back edge alone.  Two scatters write min(succ, i) into each
    row's first slot and then max(succ, i) into its last, so a halting
    row's one slot ends at i.  The start row takes neither, since an
    empty one would write into its neighbours' slots.  Each column is
    computed in place in a fresh array of the row indices, dropped
    before the next, and the last slots are read from ``indptr``
    itself, lowered by one and restored; so the one dim-long temporary
    is that array, in the index dtype.
    """
    moves = succ >= 0
    counts = moves.view(np.int8) + np.int8(1)
    counts[s_idx], counts[t_idx] = moves[s_idx], 1
    del moves
    indptr, indices = index_arrays(counts)
    del counts
    parts = (slice(0, s_idx), slice(s_idx + 1, None))
    column = np.arange(len(succ), dtype=indices.dtype)
    np.minimum(succ, column, out=column)
    for part in parts:
        indices[indptr[:-1][part]] = column[part]
    del column
    column = np.arange(len(succ), dtype=indices.dtype)
    np.maximum(succ, column, out=column)
    indptr[1:] -= 1  # each row's last slot
    for part in parts:
        indices[indptr[1:][part]] = column[part]
    indptr[1:] += 1
    del column
    indices[indptr[s_idx]:indptr[s_idx + 1]] = succ[s_idx]
    indices[indptr[t_idx]] = s_idx
    return indptr, indices


def adjacency_rows(adjacency: spectral.SuccessorAdjacency) -> RowOracleMatrix:
    """A reduction's adjacency as a row oracle, formed at once: the rows its Gram's product reads.

    The reduction itself forms none: ``det_exact`` and the Gram read its
    chain table.  These are the routes it no longer takes, the closed
    form of ``_successor_det`` and the CSR reading, fed the same matrix.
    """
    return _ones(*adjacency_arrays(adjacency.succ, adjacency.start, adjacency.accept))


def successor_adjacency(succ: np.ndarray, s_idx: int, t_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """The augmented adjacency's (indptr, indices) from a successor array, by its definition.

    A self-loop on every row but the start's, and the successor edge
    (where one exists) on every row but the accept's, whose row holds
    only the back edge (accept, start); assembled through scipy's COO
    route, against ``adjacency_arrays``.
    """
    entries = {(t_idx, s_idx)}
    for i, j in enumerate(succ.tolist()):
        if i == t_idx:
            continue
        if i != s_idx:
            entries.add((i, i))
        if j >= 0:
            entries.add((i, j))
    a = coo_csr(len(succ), [(i, j, 1) for i, j in entries])
    return a.indptr, a.indices


# ---------------------------------------------------------------------------
# machines


MOVE_NAMES = {v: k for k, v in MOVES.items()}


def machine_to_dict(machine: ReversibleTM) -> dict:
    """JSON form of a machine (inverse of machine_from_dict)."""
    return {
        "name": machine.name,
        "states": list(machine.states),
        "start": machine.start,
        "accept": machine.accept,
        "alphabet": list(machine.alphabet),
        "blank": machine.blank,
        "space": machine.space,
        "transitions": [
            [q, a, q2, a2, MOVE_NAMES[mv]]
            for (q, a), (q2, a2, mv) in sorted(machine.transitions.items())
        ],
    }


def decoded_successors(machine: ReversibleTM) -> np.ndarray:
    """Successor array by decoding and re-encoding every configuration, against ``successors``.

    The vectorized ``step`` as the reduction first computed it: state,
    head and the symbol under the head from each index, the (state,
    symbol) rule from the transition table, and the moved configuration
    packed again; int64, -1 where the machine halts.
    """
    nq, na, space = len(machine.states), len(machine.alphabet), machine.space
    table = np.array([[-1, 0, 0]] * (nq * na), dtype=np.int64)  # new state, written, move
    for (q, a), (q2, a2, mv) in machine.transitions.items():
        table[machine._qidx[q] * na + machine._aidx[a]] = machine._qidx[q2], machine._aidx[a2], mv
    rest, state = np.divmod(np.arange(machine.dim, dtype=np.int64), nq)
    tape, head = np.divmod(rest, space)
    weight = (na ** np.arange(space, dtype=np.int64))[head]
    symbol = tape // weight % na
    state2, written, move = table[state * na + symbol].T
    head2 = head + move
    out = state2 + nq * (head2 + space * (tape + (written - symbol) * weight))
    out[(state2 < 0) | (head2 < 0) | (head2 >= space)] = -1
    return out


def audit_witnesses(succ: np.ndarray) -> tuple[tuple[int, int] | None, tuple[int, ...] | None]:
    """(collision, cycle) of a successor array, as indices, against ``rtm._audit``.

    The collision is the first one a scan in index order meets: the
    configuration that steps onto a target already taken, with the
    target's first preimage.  The cycle comes from pointer jumping run
    for all dim.bit_length() rounds, with no early exit: the loop
    reached from the smallest configuration that is not then on the
    sink appended at index dim.
    """
    collision = None
    first: dict[int, int] = {}
    for i, t in enumerate(succ.tolist()):
        if t >= 0:
            if t in first:
                collision = (first[t], i)
                break
            first[t] = i
    dim = len(succ)
    jump = np.append(np.where(succ >= 0, succ, dim), dim)
    for _ in range(dim.bit_length()):
        jump = jump[jump]
    stuck = np.flatnonzero(jump[:-1] != dim)
    if not stuck.size:
        return collision, None
    seen: list[int] = []
    v = int(stuck[0])
    while v not in seen:
        seen.append(v)
        v = int(succ[v])
    return collision, tuple(seen[seen.index(v):])


# ---------------------------------------------------------------------------
# determinants and structured spectra


# Factorial-time methods refuse to run above this dimension.
ENUMERATION_CAP = 10


def det_cycle_cover(matrix: RowOracleMatrix) -> int:
    """Determinant as a signed sum over cycle covers of the digraph.

    Each permutation with nonzero weight is a vertex-disjoint union of
    directed cycles (self-loops count as 1-cycles), and its sign is
    (-1)^(number of even-length cycles).  Enumeration walks cycles from
    the smallest uncovered vertex, so runtime is bounded by the number
    of covers rather than n!, but the dimension cap still applies.
    """
    a = matrix.csr.toarray().tolist()
    n = len(a)
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"cycle-cover enumeration capped at dim {ENUMERATION_CAP}, got {n}"
        )
    succ = [[j for j in range(n) if a[i][j] != 0] for i in range(n)]
    covered = [False] * n
    total = 0

    def visit(weight: int, even_cycles: int) -> None:
        nonlocal total
        try:
            v0 = covered.index(False)
        except ValueError:
            total += weight if even_cycles % 2 == 0 else -weight
            return
        # Walk every cycle through v0 using only uncovered vertices.
        path: list[int] = []

        def extend(v: int, w: int) -> None:
            covered[v] = True
            path.append(v)
            for u in succ[v]:
                if u == v0:
                    cyc_len = len(path)
                    visit(w * a[v][v0], even_cycles + (1 - cyc_len % 2))
                elif not covered[u]:
                    extend(u, w * a[v][u])
            path.pop()
            covered[v] = False

        extend(v0, weight)

    visit(1, 0)
    return total


def det_permutation_expansion(matrix: RowOracleMatrix) -> int:
    """Determinant by recursive expansion along rows.

    The sign of each term is tracked by the position of the chosen
    column among the still-available columns, which is the parity of
    the transposition sequence sorting the permutation.  Independent of
    the cycle-cover bookkeeping above.
    """
    a = matrix.csr.toarray().tolist()
    n = len(a)
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"permutation expansion capped at dim {ENUMERATION_CAP}, got {n}"
        )

    def expand(i: int, cols: list[int]) -> int:
        if not cols:
            return 1
        acc = 0
        for pos, j in enumerate(cols):
            v = a[i][j]
            if v == 0:
                continue
            sub = expand(i + 1, cols[:pos] + cols[pos + 1 :])
            term = v * sub
            acc += term if pos % 2 == 0 else -term
        return acc

    return expand(0, list(range(n)))


def det_bareiss(matrix: RowOracleMatrix) -> int:
    """Fraction-free elimination over Python integers.

    Every intermediate entry is an exact minor of the input, so there
    is no rounding and no coefficient blowup beyond Hadamard's bound.
    Rows whose pivot-column entry is zero need no elimination; when the
    current and previous pivots agree they need no rescaling either and
    are skipped outright, which makes the sweep near-quadratic on the
    almost-triangular matrices the reductions emit.
    """
    a = matrix.csr.toarray().tolist()
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        same_scale = pivot == prev
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            if f == 0:
                if same_scale:
                    continue
                for j in range(k + 1, n):
                    row_i[j] = row_i[j] * pivot // prev
            else:
                row_k = a[k]
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
                row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def chebyshev_q(n: int, x):
    """Recurrence q_0 = 1, q_1 = x, q_n = x q_{n-1} - q_{n-2}.

    Exact over ints and Fractions; at x = 2 cos(theta) this evaluates
    to sin((n+1) theta) / sin(theta).
    """
    if n < 0:
        raise ValueError(f"recurrence index must be nonnegative, got {n}")
    if n == 0:
        return x**0  # one, in the arithmetic of x
    prev, cur = x**0, x
    for _ in range(n - 1):
        prev, cur = cur, x * cur - prev
    return cur


def char_poly_p(ell: int, lam):
    """det(G - lam I) for the path Gram block of size ell.

    Expanding the tridiagonal determinant by its last row gives
    p_ell(lam) = q_ell(2 - lam) - q_{ell-1}(2 - lam).
    """
    if ell < 1:
        raise ValueError(f"path block needs size >= 1, got {ell}")
    y = 2 - lam
    return chebyshev_q(ell, y) - chebyshev_q(ell - 1, y)


def structured_matrix(kind: str, ell: int) -> np.ndarray:
    """Exact integer Gram matrix A^T A of a structured block, as an int64 array."""
    diag, off = gram_bands(kind, ell)
    n = len(diag)
    out = np.diag(diag.astype(np.int64))
    idx = np.arange(n - 1)
    out[idx, idx + 1] = off.astype(np.int64)
    out[idx + 1, idx] = off.astype(np.int64)
    return out


def min_eigenvalue_banded(diag: np.ndarray, off: np.ndarray) -> float:
    """Least eigenvalue of a symmetric tridiagonal matrix.

    Uses the banded eigensolver with index selection, so sizes in the
    thousands stay cheap.
    """
    if len(diag) == 1:
        return float(diag[0])
    w = eigh_tridiagonal(
        np.asarray(diag, dtype=np.float64),
        np.asarray(off, dtype=np.float64),
        eigvals_only=True,
        select="i",
        select_range=(0, 0),
    )
    return float(w[0])


def path_sum_bottom(matrix: RowOracleMatrix):
    """lambda_min of a symmetric direct sum of path blocks, as an mpmath number.

    Each block is walked in plain Python from one end to the other
    through the stored rows.  A block that is not a path with
    off-diagonals +-1, interior diagonals 2 and end diagonals 1 or 2,
    nor an isolated vertex with a nonnegative diagonal d, raises
    ValueError.  A path of ell >= 2 vertices has the textbook least
    eigenvalue, taken at 50 decimal digits: 0 with both ends 1
    (the path Laplacian), 2 - 2 cos(pi / (2 ell + 1)) with one end 1
    (the path Gram, a root of ``char_poly_p``) and
    2 - 2 cos(pi / (ell + 1)) with no end 1 (tridiag(-1, 2, -1)); an
    isolated vertex has d.
    """
    import mpmath

    a = matrix.csr
    n = a.shape[0]
    ptr, cols, vals = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    diag, neighbours = [0] * n, [[] for _ in range(n)]
    for i in range(n):
        for j, v in zip(cols[ptr[i] : ptr[i + 1]], vals[ptr[i] : ptr[i + 1]]):
            if j == i:
                diag[i] = v
            elif v in (1, -1):
                neighbours[i].append(j)
            else:
                raise ValueError(f"off-diagonal entry {v} at ({i}, {j})")
    seen, isolated, paths = [False] * n, set(), set()
    for start in range(n):
        if seen[start] or len(neighbours[start]) > 1:
            continue  # walks start at an end
        walk, seen[start] = [start], True
        while True:
            ahead = [j for j in neighbours[walk[-1]] if len(walk) == 1 or j != walk[-2]]
            if not ahead:
                break
            if len(ahead) > 1 or seen[ahead[0]]:
                raise ValueError(f"vertex {walk[-1]} branches or closes a cycle")
            walk.append(ahead[0])
            seen[ahead[0]] = True
        ends = (diag[walk[0]], diag[walk[-1]])
        if len(walk) == 1:
            if ends[0] < 0:
                raise ValueError(f"isolated vertex {start} has diagonal {ends[0]}")
            isolated.add(ends[0])
        elif any(diag[i] != 2 for i in walk[1:-1]) or not set(ends) <= {1, 2}:
            raise ValueError(f"path from vertex {start} has diagonals outside the form")
        else:
            paths.add((ends.count(1), len(walk)))
    if not all(seen):
        raise ValueError("a component holds a cycle")
    with mpmath.workdps(50):
        bottoms = [mpmath.mpf(d) for d in isolated]
        for ones, ell in paths:
            if ones == 2:
                bottoms.append(mpmath.mpf(0))
            else:
                bottoms.append(2 - 2 * mpmath.cos(mpmath.pi / (2 * ell + 1 if ones else ell + 1)))
        return min(bottoms)


# ---------------------------------------------------------------------------
# dense simulation and phase reading


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense unitary of the whole circuit (at most DENSE_QUBIT_CAP qubits)."""
    if circuit.num_qubits > DENSE_QUBIT_CAP:
        raise ResourceLimitError(
            f"dense circuit unitary capped at {DENSE_QUBIT_CAP} qubits"
        )
    dim = 2**circuit.num_qubits
    cols = np.eye(dim, dtype=complex)
    for qubits, matrix in circuit.gates:
        cols = _apply_to_columns(cols, circuit.num_qubits, matrix, qubits)
    return cols


def random_circuit(
    num_qubits: int, gate_count: int, rng: np.random.Generator
) -> QuantumCircuit:
    """Uniformly random circuit over the fixed gate set (for tests)."""
    circuit = QuantumCircuit(num_qubits)
    names = sorted(GATE_MATRICES)
    for _ in range(gate_count):
        name = names[rng.integers(len(names))]
        one_qubit = len(GATE_MATRICES[name]) == 2
        if one_qubit or num_qubits == 1:
            name = name if one_qubit else "H"
            circuit.append(name, int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(name, int(a), int(b))
    return circuit


def expm_taylor(matrix: RowOracleMatrix, evo_time: float, order: int) -> np.ndarray:
    """Degree-``order`` Taylor sum for e^{-i A t} as a dense operator.

    I plus ``expm_taylor_minus_identity`` applied to the identity: a
    small-dimension oracle for tests; the verifier applies the sum to
    its witness only.
    """
    eye = np.eye(matrix.dim)
    return eye + expm_taylor_minus_identity(matrix, evo_time, order, eye)


def one_bit_pe(u: np.ndarray, psi, unitarity_tol: float = 1e-8) -> float:
    """Outcome-0 probability of the Hadamard, controlled-U, Hadamard circuit.

    For an eigenstate with U psi = e^{-i theta} psi this is
    (1 + cos theta)/2; in general it is affine in the eigenbasis
    weights.  Computed directly as ||(I + U) psi||^2 / 4 from a dense U:
    the small-dimension reference for ``phase_read``.

    ``unitarity_tol`` exists because truncated-Taylor operators are
    unitary only up to their tail bound; callers that know their tail
    pass it explicitly.
    """
    u = np.asarray(u, dtype=complex)
    vec = np.asarray(psi, dtype=complex)
    if u.shape != (len(vec), len(vec)):
        raise ContractError(f"operator shape {u.shape} does not fit state of {len(vec)}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(len(vec)))))
    if dev > unitarity_tol:
        raise ContractError(f"operator not unitary within {unitarity_tol:.1e} (dev {dev:.3e})")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise ContractError("state is not normalized")
    return float(np.linalg.norm(vec + u @ vec) ** 2 / 4.0)


def pad_with_ancillas(witness, ancilla_k: int) -> np.ndarray:
    """witness (x) |0^k>, ancillas as the high qubits: one column of ``_witness_images``' block."""
    vec = np.asarray(witness)
    out = np.zeros(len(vec) * 2**ancilla_k, dtype=complex)
    out[: len(vec)] = vec
    return out


def measure_probability(state, qubit: int, outcome: int) -> float:
    """Probability that one qubit reads the given value."""
    amps = np.asarray(state)
    n = amps.shape[0]
    idx = np.arange(n)
    mask = ((idx >> qubit) & 1) == outcome
    return float(np.sum(np.abs(amps[mask]) ** 2))


def acceptance_probability(verifier, witness) -> float:
    """Exact probability the verifier's output qubit reads 1.

    ``witness`` may be an amplitude vector on the witness qubits or a
    density operator (square array); acceptance is linear in the
    density operator, so mixed witnesses average their eigenvector
    acceptances.
    """
    m = verifier.witness_qubits
    dim = 2**m
    raw = np.asarray(witness, dtype=complex)
    if raw.ndim == 2:
        if raw.shape != (dim, dim):
            raise ContractError(f"density operator shape {raw.shape}, want {(dim, dim)}")
        if np.max(np.abs(raw - raw.conj().T)) > 1e-10:
            raise ContractError("density operator is not Hermitian")
        if abs(np.trace(raw).real - 1) > 1e-9:
            raise ContractError("density operator must have unit trace")
        probs, vecs = np.linalg.eigh(raw)
        return float(
            sum(
                p * acceptance_probability(verifier, vecs[:, i])
                for i, p in enumerate(probs)
                if p > 1e-15
            )
        )
    if raw.shape != (dim,):
        raise ContractError(f"witness length {raw.shape} does not fit {m} qubits")
    if abs(np.linalg.norm(raw) - 1.0) > 1e-9:
        raise ContractError("witness is not normalized")
    padded = pad_with_ancillas(raw, verifier.ancilla_k)
    final = run_circuit(verifier.circuit, padded)
    return measure_probability(final, verifier.output_qubit, 1)


# ---------------------------------------------------------------------------
# reflections, registers and verifier fixtures


def reflections(verifier: Verifier) -> tuple[np.ndarray, np.ndarray]:
    """R0 = 2 Pi0 - I (ancillas blank) and R1 = 2 Pi1 - I (circuit accepts).

    Dense, on all n circuit qubits: the reference for the walk R1 R0
    whose eigenphases ``nwz_amplify`` takes from Jordan's lemma.
    """
    n = verifier.circuit.num_qubits
    m = verifier.witness_qubits
    idx = np.arange(2**n)
    ancilla_mask = (idx >> m) == 0  # all ancilla bits zero
    r0 = np.where(ancilla_mask, 1.0, -1.0)
    u = circuit_unitary(verifier.circuit)
    out_mask = ((idx >> verifier.output_qubit) & 1) == 1
    p1 = (u.conj().T * np.where(out_mask, 1.0, 0.0)) @ u
    r1 = 2.0 * p1 - np.eye(2**n)
    return np.diag(r0), r1


def qpe_register_distribution(
    w_op: np.ndarray, initial: np.ndarray, register_bits: int
) -> np.ndarray:
    """Outcome distribution of phase estimation of w_op on a state, simulated.

    Builds all 2^b controlled-power branches by sequential application,
    applies the inverse Fourier transform across the register axis, and
    traces out the system.  No sampling anywhere.  This is the test
    oracle of the closed form in ``nwz_amplify``: it costs 2^b dense
    products and 2^b state vectors of memory, and its rounding grows
    with the 2^b powers (about 4e-11 in a register mass at b = 19).
    """
    n = 2**register_bits
    dim = len(initial)
    branches = np.empty((n, dim), dtype=complex)
    v = np.asarray(initial, dtype=complex) / sqrt(n)
    for j in range(n):
        branches[j] = v
        if j + 1 < n:
            v = w_op @ v
    transformed = np.fft.fft(branches, axis=0, norm="ortho")
    probs = np.sum(np.abs(transformed) ** 2, axis=1)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"register distribution sums to {total}, not 1")
    return probs


def folded_phases(register_bits: int) -> np.ndarray:
    """Phase value |j|/2^b in [0, 1/2] read from each register outcome.

    The outcomes whose folded phase lies below a cut form the arc
    |j| <= w (mod 2^b), which is how ``nwz_amplify`` sums them.
    """
    n = 2**register_bits
    j = np.arange(n)
    return np.minimum(j, n - j) / n


def passthrough_verifier() -> Verifier:
    """Output is the witness qubit itself; accept operator diag(0, 1)."""
    return Verifier(
        circuit=QuantumCircuit(1),
        witness_qubits=1,
        ancilla_k=0,
        output_qubit=0,
        completeness_c=1.0,
        soundness_s=0.0,
    )


def corpus_verifiers() -> dict[str, Verifier]:
    """The named verifier set exercised by the protocol test batteries."""
    singular, gapped, g = toy_gapped_instances()
    rng = np.random.default_rng(20260815)
    random_circuit = QuantumCircuit(2)
    for _ in range(12):
        pick = rng.integers(4)
        if pick == 0:
            random_circuit.append("H", int(rng.integers(2)))
        elif pick == 1:
            random_circuit.append("T", int(rng.integers(2)))
        elif pick == 2:
            random_circuit.append("X", int(rng.integers(2)))
        else:
            a, b = rng.permutation(2)
            random_circuit.append("CNOT", int(a), int(b))
    return {
        "passthrough": passthrough_verifier(),
        "rotation_high": rotation_verifier(0.9, 0.9, 0.1),
        "rotation_low": rotation_verifier(0.1, 0.9, 0.1),
        "gap_singular": pe_verifier(singular, g),
        "gap_bounded": pe_verifier(gapped, g),
        "random_2q": Verifier(
            circuit=random_circuit,
            witness_qubits=1,
            ancilla_k=1,
            output_qubit=1,
            completeness_c=0.9,
            soundness_s=0.1,
        ),
    }


def history_state(verifier: Verifier, witness) -> np.ndarray:
    """Uniform superposition of the partial computations, clock in unary."""
    t_count = verifier.circuit.gate_count
    w = verifier.circuit.num_qubits
    state = pad_with_ancillas(witness, verifier.ancilla_k)
    dim = 2 ** (w + t_count)
    out = np.zeros(dim, dtype=complex)
    clock_value = 0
    for step in range(t_count + 1):
        if step > 0:
            qubits, matrix = verifier.circuit.gates[step - 1]
            state = _apply_to_columns(state.reshape(-1, 1), w, matrix, qubits).reshape(-1)
            clock_value |= 1 << (step - 1)
        out[(clock_value << w) : (clock_value << w) + 2**w] += state
    return out / sqrt(t_count + 1)


def dense_ground_energy(instance: ClockInstance) -> float:
    """Least eigenvalue of the dense 2^num_qubits sum of the compiled instance's terms."""
    return float(np.linalg.eigvalsh(instance.terms().materialize())[0])


def legal_clock_indices(circuit_qubits: int, gate_count: int) -> np.ndarray:
    """Dense indices of |1^t 0^(T-t)> (x) |x>, in the legal block's order t 2^n + x."""
    clocks = (1 << np.arange(gate_count + 1)) - 1
    return ((clocks[:, None] << circuit_qubits) | np.arange(2**circuit_qubits)).ravel()


# ---------------------------------------------------------------------------
# memory


def traced_peak(fn: Callable[[], object]) -> tuple[object, int]:
    """(fn(), the tracemalloc peak in bytes while it ran).

    Only what the call allocates through Python's and numpy's
    allocators counts, not what was live before it; tracing stops
    even when the call raises.
    """
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_stages(fn: Callable[[], object], stages) -> tuple[object, dict[str, list[int]]]:
    """(fn(), each stage's traced transients): the bytes above what a call keeps, per call.

    ``stages`` lists (owner, name) pairs of functions or methods that
    ``fn`` reaches through their owner's attribute; each is wrapped for
    the run.  A call's transient is its peak less the larger of what
    was live before it and after it, so a stage that frees its input is
    not credited with it.  Stages may nest: an inner call resets the
    peak, and its own peak is carried up to the call around it.
    """
    transients: dict[str, list[int]] = {}
    open_peaks: list[int] = []
    originals = [(owner, name, getattr(owner, name)) for owner, name in stages]

    def traced(name, original):
        def call(*args, **kwargs):
            before, outer = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            open_peaks.append(0)
            try:
                return original(*args, **kwargs)
            finally:
                inner = open_peaks.pop()
                after, peak = tracemalloc.get_traced_memory()
                peak = max(peak, inner)
                transients.setdefault(name, []).append(peak - max(before, after))
                if open_peaks:
                    open_peaks[-1] = max(open_peaks[-1], outer, peak)
        return call

    for owner, name, original in originals:
        setattr(owner, name, traced(name, original))
    try:
        result, _ = traced_peak(fn)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return result, transients
