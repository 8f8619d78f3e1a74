"""Exact determinants and spectra for the structured blocks.

Three concerns live here:

* a reduction, held here alone: its adjacency is one frozen record
  (``SuccessorAdjacency``) of the audited successor array and the
  chain table walked from it once (``_chain_table``), which answers
  its det and its Gram's lambda_min and least block; its Gram
  (``GramOracle``) is held as that record and forms its rows only
  when they are read;
* integer determinants that certify singularity exactly, with no
  floating point on the value path.  A matrix with at most one entry
  off the diagonal in each row, as the path and cycle blocks are, has
  a closed form: the diagonal product off the cycles of its successor
  map, times one factor per cycle, the rows on cycles found in numpy
  by pointer jumping (``_endless``), which then names the cycles by
  their least rows (``_jump``).  Any other matrix goes through
  fraction-free elimination confined to the band of its reverse
  Cuthill-McKee order.  The dense elimination and the two
  enumerations both routes are checked against live with the tests,
  in ``tests/oracles.py``;
* eigenvalue machinery for symmetric Gram matrices, including the
  closed-form spectrum of the path block and the tridiagonal fast
  path.  A direct sum of path blocks is recognised from exact integer
  tests on the diagonal and the +-1 edges of its CSR arrays; a
  reduction's Gram is read from its factor's chain table instead, and
  never formed.  lambda_min is the closed form of its longest path of
  each kind, and the bottom eigenvector the closed form of one block
  that attains it.  The paths are walked in numpy from their ends
  until their walkers meet.  Any other matrix is materialized, up to
  DENSE_CAP rows, for one dense ``eigh`` of its bottom eigenpair and
  one Cholesky factorization whose existence certifies the matrix
  positive semidefinite up to a margin at the scale of rounding in
  ||A||.

Each function imports the scipy routines it calls when it runs, and the
module imports none: ``eigh_tridiagonal`` loads with the first
``spectrum_report``, the sparse, graph and dense routines with the
first determinant off the closed form, symmetry check or dense
eigenpair.  A process that only amplifies, builds clock Hamiltonians,
or reduces a machine, takes its adjacency's determinant and decides
its Gram loads no scipy at all.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from math import pi, prod, sin
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ContractError
from .sparse_oracle import (
    RowOracleMatrix,
    _adjacency_arrays,
    _index_dtype,
    _ones,
    _rounded_once_products,
    ata_oracle,
    from_dense,
    materialize,
    norm_bound,
    to_csr,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

SYMMETRY_TOL = 1e-12

# The PSD certificate factors A - sigma I at least this many times
# eps ||A|| below lambda_min.  On random integer Grams M^T M (entries of
# M up to 3000), dense eigh's lambda erred by at most 1.2 eps ||A||_1
# (450 at dim up to 400, singular ones against 0; 120 regular ones at
# dim up to 40 against 40 digits), and every singular one had a factor
# within 0.25 eps ||A||_1 below lambda.
CHOLESKY_MARGIN = 64

# _chain_table folds its halted chains in batches of at least this many:
# a batch's arrays stay a few tens of kilobytes, and its folds few.
_ROW_BLOCK = 2**13


# ---------------------------------------------------------------------------
# exact determinants


def _rcm(a: csr_matrix, graph: csr_matrix) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The reverse Cuthill-McKee order P of ``graph``, and where it puts A's entries.

    ``graph`` is A's pattern made symmetric, as a canonical CSR matrix:
    |A| + |A^T|, or A itself when its pattern is symmetric.  Returns P's
    order, each stored entry's column in P A P^T, the lower bandwidth,
    and each entry's offset below the diagonal there (negative above),
    the largest of which is the bandwidth.  On a configuration graph, a
    disjoint union of chains, the order gives bandwidth 1 or 2.  No
    permuted copy of A is built.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
    position = np.empty_like(perm)
    position[perm] = np.arange(len(perm), dtype=perm.dtype)
    col = position[a.indices]
    offset = np.repeat(position, np.diff(a.indptr)) - col
    return perm, col, int(np.max(offset, initial=0)), offset


def _rcm_band(a: csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK lower band storage of the RCM-ordered symmetric or Hermitian A, and the order.

    band[i - j, j] = (P A P^T)[i, j] for 0 <= i - j <= lo, the form
    ``cholesky_banded`` reads with ``lower=True``, in float64
    (complex128 for complex A) and in Fortran order, which LAPACK
    factors in place.  A must be a canonical CSR matrix with a
    symmetric pattern, whose own order ``_rcm`` gives; each stored
    entry goes straight to its band slot.
    """
    perm, col, lo, offset = _rcm(a, a)
    lower = np.flatnonzero(offset >= 0)
    band = np.zeros((lo + 1, a.shape[0]), dtype=np.result_type(a.dtype, np.float64), order="F")
    band[offset[lower], col[lower]] = a.data[lower]
    return band, perm


def _banded_bareiss(a: csr_matrix, perm: np.ndarray, col: np.ndarray, lo: int) -> int:
    """Fraction-free elimination of P A P^T, of lower bandwidth lo, read from A.

    Row i of P A P^T is A's row perm[i], each entry in the column
    ``col`` holds for it (``_rcm``).  Bareiss's recurrence, with its
    exact-integer guarantees: every intermediate entry is an exact minor
    of the input.  Column k has entries only in rows k..k+lo, row swaps
    stay among them, and rows below are untouched except for Bareiss's
    rescale of every later row by pivot/previous pivot at each step.
    That rescale telescopes to the last pivot, so a row enters the
    window of lo + 1 live dictionary rows from A already multiplied by
    it.  While that pivot is 1, a pivot alone in its row or column is
    a factor of det (Laplace expansion) and scales nothing, so a
    triangular matrix costs its diagonal's product, not entries that
    grow at every step.  Time is O(n * lo * row length).
    """
    n = a.shape[0]
    cols, vals, ptr, order = col.tolist(), a.data.tolist(), a.indptr.tolist(), perm.tolist()
    window: list[dict[int, int]] = []
    sign = prev = lone = 1
    for i in range(n + lo):
        if i < n:  # row i enters, carrying the rescale of every step so far
            p = order[i]
            entries = zip(cols[ptr[p] : ptr[p + 1]], vals[ptr[p] : ptr[p + 1]])
            window.append({j: v * prev for j, v in entries})
        k = i - lo
        if k < 0:
            continue
        if k not in window[0]:
            r = next((r for r, row_r in enumerate(window) if k in row_r), None)
            if r is None:
                return 0
            window[0], window[r] = window[r], window[0]
            sign = -sign
        row_k = window.pop(0)
        pivot = row_k.pop(k)
        if prev == 1 and (not row_k or not any(k in row_i for row_i in window)):
            lone *= pivot  # expanded along its row or column; nothing is rescaled
            for row_i in window:
                row_i.pop(k, None)
            continue
        for r, row_i in enumerate(window):
            f = row_i.pop(k, 0)
            if f:
                merged = {j: v * pivot for j, v in row_i.items()}
                for j, v in row_k.items():
                    merged[j] = merged.get(j, 0) - f * v
                window[r] = {j: v // prev for j, v in merged.items() if v}
            elif pivot != prev:
                # Exact: the rescaled entries are minors of the input too.
                window[r] = {j: v * pivot // prev for j, v in row_i.items()}
        prev = pivot
    return sign * lone * prev  # the last Bareiss pivot is the rest's determinant


def det_bareiss_sparse(matrix: RowOracleMatrix) -> int:
    """Exact determinant by banded Bareiss on the reverse Cuthill-McKee order of |A| + |A^T|.

    The order P (``_rcm``) is a symmetric permutation, so
    det P A P^T = det A, and it confines P A P^T to a lower bandwidth
    lo; ``_banded_bareiss`` eliminates it with lo + 1 rows alive,
    reading A's rows through the order.  Only the order uses scipy;
    every value is an exact Python integer.  ``det_exact`` sends here
    only the matrices its closed form (``_successor_det``) leaves: a
    Gram, or any matrix with a row of two entries off the diagonal or a
    successor walk that enters a cycle from outside it.
    """
    a = to_csr(matrix)
    perm, col, lo = _rcm(a, (abs(a) + abs(a.T)).tocsr())[:3]  # the offsets, freed here
    return _banded_bareiss(a, perm, col, lo)


def _jump(succ: np.ndarray, out: np.ndarray, least: np.ndarray | None = None) -> np.ndarray:
    """The entries ``out`` whose walk along ``succ`` never ends, by pointer jumping on them alone.

    ``succ`` maps each entry to its successor and the sink, its last
    entry, to itself; an entry in ``out`` must map elsewhere, and any
    other to the sink.  Each round sets succ[v] = succ[succ[v]] on the
    entries still out and lets go of those that reach the sink (Wyllie,
    1979), so after r rounds succ[v] is the sink exactly when the walk
    from v ends within 2^r steps.  Once 2^r > len - 1, the entries left
    lie on a cycle or run into one.  Only the sink ends a walk: a cycle
    of 2^k entries maps each to itself after k rounds.  Before each jump
    an entry takes its successor's ``least`` label where it is lesser,
    so the label covers the entries from it to the one it points at.
    Both arrays are overwritten, each in its dtype.
    """
    sink = len(succ) - 1
    for _ in range(sink.bit_length()):
        if not len(out):
            break
        ahead = succ[out]
        if least is not None:
            label = least[ahead]
            least[out] = np.minimum(label, least[out], out=label)
            del label
        far = succ[ahead]
        del ahead
        succ[out] = far
        out = out[far != sink]
    return out


def _endless(succ: np.ndarray) -> np.ndarray:
    """The entries of a successor map (-1: halts) whose walk never halts, ascending.

    The map is copied into ``_jump``'s form, in the index dtype, with
    every halting entry sent to a sink past the last, and ``_jump``
    walks the entries that do not halt at once.
    """
    sink = len(succ)
    jump = np.empty(sink + 1, dtype=_index_dtype(sink, 0))
    jump[:-1], jump[-1] = succ, sink
    # Read as unsigned, a halting -1 is the largest value, so it clips to the sink.
    unsigned = jump.view(jump.dtype.str.replace("i", "u"))
    np.minimum(unsigned, sink, out=unsigned)
    return _jump(jump, np.flatnonzero(jump[:-1] != sink))


def _successor_det(matrix: RowOracleMatrix) -> int | None:
    """det A for A = D + F, F with at most one entry per row, off the diagonal; else None.

    Row v holds D_v on the diagonal and at most one entry c_v in
    column succ(v) != v.  A permutation with a nonzero term sends each
    v to v or to succ(v), and the v it moves are closed under succ and
    permuted by it: they are a union of cycles of succ.  So
      det A = prod of D_v over the v on no cycle
              * prod over cycles C of (prod_C D - (-1)^|C| prod_C c),
    a k-cycle's permutation having sign (-1)^(k-1).  Every reduction's
    augmented adjacency has this form (its self-loops, its successor
    arcs and the one back edge), read from its chain table instead.

    The successors are read from each row's first and last column, -1
    for a row with no successor, and an empty row gives 0 at once.
    ``_endless`` finds the rows whose walk never ends, and a zero
    diagonal entry among the others gives 0: every term of det A has a
    zero factor.  Those rows lie on cycles when succ permutes them;
    where a walk runs into a cycle from outside it, A is left to
    ``det_bareiss_sparse`` (None).  ``_jump`` names the cycles by the
    least position on each, on that permutation alone.  The products
    are exact Python integers over the entries other than 1.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    dim = matrix.dim
    spare = np.diff(indptr)
    if spare.max() > 2:
        return None
    if spare.min() == 0:
        return 0
    del spare
    rows = np.arange(dim, dtype=indices.dtype)
    first, last = indices[indptr[:-1]], indices[indptr[1:] - 1]
    at_first = first == rows
    loop = at_first | (last == rows)
    if not np.all(loop | (first == last)):
        return None  # a row with two entries off the diagonal
    zeros = np.flatnonzero(~loop)
    del loop
    succ = np.where(at_first, last, first)  # the column that is not the row's own
    del first, last, at_first
    succ[succ == rows] = -1
    del rows
    cycle = _endless(succ)
    del succ
    if not np.all(np.isin(zeros, cycle)):
        return 0
    det = 1
    special = np.flatnonzero(data != 1)
    if len(special):
        row = np.searchsorted(indptr, special.astype(indptr.dtype), side="right") - 1
        off_cycle = (indices[special] == row) & ~np.isin(row, cycle)
        det = prod(data[special[off_cycle]].tolist())
    first, last = indptr[cycle], indptr[cycle + 1] - 1
    at_first = indices[first] == cycle
    arc = np.where(at_first, last, first)
    if not np.array_equal(np.sort(indices[arc]), cycle):
        return None  # a walk runs into a cycle from outside it
    around = np.searchsorted(cycle, np.append(indices[arc], dim))  # positions in `cycle`, and a sink
    name = np.arange(len(around))
    _jump(around, np.arange(len(cycle)), least=name)  # each cycle named by its least position
    name = name[:-1]
    on_diagonal = at_first | (indices[last] == cycle)
    diagonal = np.where(on_diagonal, data[np.where(at_first, first, last)], 0)
    coupling = data[arc]
    names, sizes = np.unique(name, return_counts=True)
    products = {key: [1, 1] for key in names.tolist()}  # (prod D, prod c) of each cycle
    nonunit = (diagonal != 1) | (coupling != 1)
    for key, d, c in zip(*(a[nonunit].tolist() for a in (name, diagonal, coupling))):
        products[key][0] *= d
        products[key][1] *= c
    for key, k in zip(names.tolist(), sizes.tolist()):
        d, c = products[key]
        det *= d - (-1) ** k * c
    return det


def det_exact(matrix: SuccessorAdjacency | RowOracleMatrix | np.ndarray) -> int:
    """Exact integer determinant; an array is wrapped by ``from_dense`` first.

    A reduction's adjacency (``SuccessorAdjacency``) carries its det in
    its chain table (``_chain_table``).  Any other matrix with at most
    one entry off the diagonal in each row takes the closed form of
    ``_successor_det``, in numpy alone, and any other
    ``det_bareiss_sparse``: banded fraction-free elimination in the
    reverse Cuthill-McKee order.
    """
    if isinstance(matrix, SuccessorAdjacency):
        return matrix.det
    if not isinstance(matrix, RowOracleMatrix):
        matrix = from_dense(matrix)
    det = _successor_det(matrix)
    return det_bareiss_sparse(matrix) if det is None else det


# ---------------------------------------------------------------------------
# closed-form spectra


def closed_form_eigenvalues(ell: int, index_form: str = "odd") -> np.ndarray:
    """Closed-form spectrum of the path Gram block, ascending.

    ``odd`` (the validated form) places the k-th eigenvalue at
    2 (1 - cos((2k - 1) pi / (2 ell + 1))); these are exactly the roots
    of char_poly_p.  ``even`` substitutes 2k in the numerator and is
    retained only for comparison runs; it disagrees already at ell = 1
    (3 instead of 1).
    """
    if ell < 1:
        raise ValueError(f"path block needs size >= 1, got {ell}")
    k = np.arange(1, ell + 1, dtype=np.float64)
    if index_form == "odd":
        num = 2.0 * k - 1.0
    elif index_form == "even":
        num = 2.0 * k
    else:
        raise ValueError(f"unknown index form {index_form!r}")
    return 2.0 * (1.0 - np.cos(num * pi / (2.0 * ell + 1.0)))


def _chain_floor(m: int) -> float:
    """4 sin^2(pi / (2 m)): the least eigenvalue of the m - 1 vertex chain tridiag(-1, 2, -1).

    The path Gram with one end 1 of size ell has the same least
    eigenvalue at m = 2 ell + 1.  The sine form has no cancellation: its
    relative error stays within a few ulp at every m, where
    2 (1 - cos(pi / m)) loses a relative 1e-3 at m = 2 * 10^7.
    """
    s = sin(pi / (2 * m))
    return 4.0 * s * s


def min_eigenvalue_bound(dim: int) -> float:
    """Smallest possible nonzero Gram eigenvalue at a given dimension.

    Equals the bottom of the closed-form path spectrum at ell = dim,
    4 sin^2(pi / (2 (2 dim + 1))); any reduction output of this
    dimension with nonzero determinant has its least eigenvalue at or
    above this value.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return _chain_floor(2 * dim + 1)


# ---------------------------------------------------------------------------
# structured Gram matrices and eigensolvers


def gram_bands(kind: str, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, offdiagonal) of the Gram matrix A^T A of a block.

    Path: diag (2, ..., 2, 1), offdiag all ones.  Cycle: the Gram is
    block diagonal, a size ell - 1 path-like block with diag
    (1, 2, ..., 2) plus an isolated unit eigenvalue, so the bands are
    diag (1, 2, ..., 2, 1) with a zero closing the offdiagonal.
    """
    if kind == "path":
        if ell < 1:
            raise ValueError(f"path block needs size >= 1, got {ell}")
        diag = np.full(ell, 2.0)
        diag[-1] = 1.0
        off = np.ones(max(ell - 1, 0))
        return diag, off
    if kind == "cycle":
        if ell < 3:
            raise ValueError(f"cycle block needs size >= 3, got {ell}")
        diag = np.full(ell, 2.0)
        diag[0] = 1.0
        diag[-1] = 1.0
        off = np.ones(ell - 1)
        off[-1] = 0.0
        return diag, off
    raise ValueError(f"unknown block kind {kind!r}")


def _require_hermitian(matrix) -> np.ndarray:
    """``matrix`` as a square array of its own dtype, once max |A - A^H| <= SYMMETRY_TOL holds.

    The dtype is kept, so a complex Hermitian matrix keeps its
    imaginary part; numpy's eigensolvers take real input, integer
    included, in float64 and complex input in complex128.  A NaN or
    infinite entry makes the deviation NaN or inf, and is refused.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN deviation, refused below
        dev = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if not dev <= SYMMETRY_TOL:
        raise ContractError(f"matrix is not Hermitian: max deviation {dev:.3e} > {SYMMETRY_TOL:.0e}")
    return arr


@dataclass(frozen=True)
class SpectrumReport:
    """Eigensolver spectrum of one block, with its closed form beside it."""

    kind: str
    ell: int
    eigenvalues: np.ndarray
    closed_form: np.ndarray

    @property
    def max_abs_discrepancy(self) -> float:
        return float(np.max(np.abs(self.closed_form - self.eigenvalues)))

    def rows(self) -> list[tuple[int, float, float, float]]:
        closed = self.closed_form
        return [
            (k + 1, float(closed[k]), float(self.eigenvalues[k]),
             abs(float(closed[k] - self.eigenvalues[k])))
            for k in range(len(self.eigenvalues))
        ]


def spectrum_report(kind: str, ell: int, index_form: str = "odd") -> SpectrumReport:
    """Compare the closed-form block spectrum against the eigensolver.

    The cycle Gram decomposes as a path Gram of size ell - 1 plus an
    isolated unit eigenvalue, so its closed form reuses the path one.
    """
    from scipy.linalg import eigh_tridiagonal

    diag, off = gram_bands(kind, ell)
    numeric = np.sort(
        eigh_tridiagonal(diag, off, eigvals_only=True)
        if len(diag) > 1
        else np.asarray(diag, dtype=np.float64)
    )
    if kind == "path":
        closed = closed_form_eigenvalues(ell, index_form)
    else:
        closed = np.sort(
            np.concatenate([closed_form_eigenvalues(ell - 1, index_form), [1.0]])
        )
    return SpectrumReport(kind=kind, ell=ell, eigenvalues=numeric, closed_form=closed)


def _symmetric_csr(matrix: RowOracleMatrix) -> csr_matrix:
    """The oracle's CSR matrix, once it is checked to equal its transpose entry for entry.

    The CSR arrays are canonical, and so are A^T's after ``tocsr``, so
    equal arrays are equal matrices.  For integer entries the exact test
    is the same as a float tolerance below one.  A reduction's Gram
    (``GramOracle``) is its product A^T A, symmetric by construction,
    and is returned unchecked.
    """
    a = to_csr(matrix)
    if isinstance(matrix, GramOracle):
        return a
    t = a.T.tocsr()
    if not all(np.array_equal(getattr(a, part), getattr(t, part))
               for part in ("indptr", "indices", "data")):
        raise ContractError("matrix is not symmetric")
    return a


def _certified_bottom(matrix: RowOracleMatrix) -> tuple[float, np.ndarray, float]:
    """(lambda_min, unit eigenvector, residual) of a symmetric matrix, densely, certified PSD.

    The certification is the one ``bottom_eigenpair`` describes.
    """
    from scipy.linalg import cho_factor, eigh

    dense = materialize(matrix, np.float64)
    w, v = eigh(dense, subset_by_index=[0, 0], check_finite=False)
    lam, psi = float(w[0]), v[:, 0]
    residual = float(np.linalg.norm(dense @ psi - lam * psi))
    sigma = max(lam, 0.0) - CHOLESKY_MARGIN * np.finfo(np.float64).eps * norm_bound(matrix)
    dense.flat[:: len(dense) + 1] -= sigma
    try:  # A is symmetric, so its transpose is A in Fortran order, which LAPACK factors in place
        cho_factor(dense.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise ContractError(
            f"A - sigma I is not positive definite at sigma = {sigma:.6g}"
            f" (least eigenvalue about {lam:.3e})"
        ) from None
    return lam, psi, residual


Report = Callable[[np.ndarray, np.ndarray, "np.ndarray | int", np.ndarray], None]


def _path_forest(
    degree: np.ndarray, near: np.ndarray, report: Report
) -> Callable[[int, int, int], np.ndarray] | None:
    """The paths of a graph of degree <= 2, each walked in from its ends until its walkers meet; None on a cycle.

    ``degree`` counts each vertex's edges and ``near`` holds the sum of
    its neighbours, wrapping in the index dtype.  Each path of two or
    more vertices goes to ``report(first, last, size, least)`` in
    batches: its ends ``first`` < ``last``, its vertex count (an array,
    or one int for the batch) and its least vertex.  A path of three or
    more sends a walker in from each end, all stepping at once to the
    neighbour sum less the vertex they came from, each marking where it
    stands after k steps 1 + k % 2 (its end at k = -1).  A path's two
    walkers step until the next vertex bears the other's mark: its
    current vertex (an even path) or the one before (odd), told apart
    by parity, and meet on the middle edge or vertex; a path of ell
    vertices takes about ell / 2 steps.  The walks never enter a cycle,
    which has no end, so the edges the paths account for fall short of
    all of them exactly when one is there.
    Returns ``order(end, other, size)``, the path's vertices from
    ``end`` to ``other`` by the same walk in Python.
    """
    n = len(degree)
    m = int(degree.sum(dtype=np.int64)) // 2
    end = np.flatnonzero(degree == 1).astype(near.dtype)
    other = near[end]
    pair = degree[other] == 1
    first = end[pair & (end < other)]
    report(first, near[first], 2, first)
    covered = len(first)  # the edges on the paths reported so far
    # Each path of three or more vertices has two walkers and is reported by one.
    start, cur = end[~pair], other[~pair]
    del end, other, pair, first
    seen = np.zeros(n, dtype=np.int8)
    seen[start], seen[cur] = 2, 1
    found = []  # (first, last, size, least) of the paths whose walkers meet
    prev, low, step = start.copy(), np.minimum(start, cur), 1
    while len(cur):
        ahead = np.subtract(near[cur], prev, out=prev)
        mark = seen[ahead]
        if np.count_nonzero(mark):
            met = np.flatnonzero(mark)
            odd = mark[met] == 1 + step % 2  # the partner stood there a step before its vertex
            pairing = np.argsort(np.where(odd, cur[met], np.minimum(cur[met], ahead[met])))
            one, two = met[pairing[0::2]], met[pairing[1::2]]
            size = (2 * step + 2 - odd[pairing[0::2]]).astype(near.dtype)
            found.append((np.minimum(start[one], start[two]), np.maximum(start[one], start[two]),
                          size, np.minimum(low[one], low[two])))
            covered += int(np.sum(size, dtype=np.int64)) - len(size)
            go = mark == 0
            start, cur, ahead, low = start[go], cur[go], ahead[go], low[go]
        seen[ahead] = 1 + step % 2
        prev, cur = cur, ahead
        np.minimum(low, cur, out=low)
        step += 1
    del prev, low, seen
    if found:
        report(*(np.concatenate(part) for part in zip(*found)))
    if covered != m:
        return None  # some edge lies on no path

    def order(end: int, other: int, ell: int) -> np.ndarray:
        walk, wrap = [end], 1 << (8 * near.itemsize)
        for _ in range(ell - 1):  # an end's neighbour sum is its one neighbour
            walk.append((int(near[walk[-1]]) - (walk[-2] if len(walk) > 1 else 0)) % wrap)
        return np.array(walk, dtype=np.intp)

    return order


@dataclass(frozen=True)
class _LeastPath:
    """The block of a path sum that attains its lambda_min, before it is written.

    ``kind`` names its closed form: "vertex" (isolated), "constant"
    (both ends 1), "cos" (one end 1) or "sin" (none).  ``block()`` gives
    its vertices in path order from the end the closed form counts from
    (for "cos" the end at 1, else the lesser end), the diagonal along
    them, and its edges (u, v) with their int64 +-1 couplings.
    """

    lam: float
    kind: str
    block: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


# A chosen path: (size, least vertex, one end, the other end, the end its block is ordered from).
_Path = tuple[int, int, int, int, int]

def _fold(chosen: dict[int, _Path], n: int, one_a, one_b, a, b, size, least) -> None:
    """Fold a batch of paths into ``chosen``: of each kind the longest, on ties the least vertex.

    Path i has ends a[i] and b[i] (at 1 where ``one_a``, ``one_b``),
    size[i] vertices (or one int) and least vertex least[i] < n; its
    kind is its ends at 1, its block ordered from the end at 1 of a
    "cos" path, else from the lesser end.  Any batching chooses alike.
    """
    ends = one_a.astype(np.int8) + one_b
    if not np.isscalar(size):  # keep the longest of each kind; a Laplacian's lambda is 0 at any length
        longest = np.zeros(3, dtype=size.dtype)
        np.maximum.at(longest, ends, size)
        longest[2] = 0
        keep = np.flatnonzero(size >= longest[ends])
        ends, one_a, a, b, size, least = (x[keep] for x in (ends, one_a, a, b, size, least))
    lowest = np.full(3, n, dtype=least.dtype)  # ufunc.at is fast on one dtype
    np.minimum.at(lowest, ends, least)
    for kind in np.flatnonzero(lowest < n).tolist():
        # Of the kind's paths, the one with the least vertex: no two share one.
        p = int(np.argmax(least == lowest[kind]))
        a_p, b_p = int(a[p]), int(b[p])
        end = (a_p if one_a[p] else b_p) if kind == 1 else min(a_p, b_p)
        path = (int(size) if np.isscalar(size) else int(size[p]), int(lowest[kind]), a_p, b_p, end)
        held = chosen.get(kind, path)
        if (0 if kind == 2 else -path[0], path[1]) <= (0 if kind == 2 else -held[0], held[1]):
            chosen[kind] = path


def _least_block(chosen: dict[int, _Path], vertex: tuple[int, int] | None,
                 path: Callable[[float, str, _Path], _LeastPath]) -> _LeastPath:
    """The block attaining lambda_min of a path sum, from ``_fold``'s paths and the least isolated (diagonal, vertex).

    ``path(lam, kind, chosen path)`` makes a path's block.  A path of
    ell >= 2 vertices has least eigenvalue
      0 with both ends 1 (the path Laplacian),
      4 sin^2(pi / (2 (2 ell + 1))) with one end 1 (the path Gram),
      4 sin^2(pi / (2 (ell + 1))) with no end 1 (tridiag(-1, 2, -1)),
    and an isolated vertex its diagonal; ties go to the vertex, then "cos".
    """
    if 2 in chosen:
        return path(0.0, "constant", chosen[2])
    candidates = []
    if vertex is not None:
        d, v = vertex
        candidates.append(_LeastPath(float(d), "vertex",
                                     lambda: (np.array([v]), np.array([d]), *[np.zeros(0, np.int64)] * 3)))
    for kind, ends in (("cos", 1), ("sin", 0)):
        if ends in chosen:
            ell = chosen[ends][0]
            lam = min_eigenvalue_bound(ell) if ends else _chain_floor(ell + 1)
            candidates.append(path(lam, kind, chosen[ends]))
    return min(candidates, key=lambda c: c.lam)


@dataclass(frozen=True, eq=False)
class SuccessorAdjacency:
    """A reduction's augmented adjacency A: its audited successor array and the chain table walked from it.

    ``succ`` holds every configuration's successor (-1: halts); A's row
    i is {i, succ i}, the ``start`` row {succ start} and the ``accept``
    row {start}.  ``_chain_table`` writes the rest: ``covered`` counts
    the vertices on chains, ``det`` is det A, ``cut`` is the start's
    successor (-1 for none), and ``paths`` and ``vertex`` are
    ``_fold``'s choice for A^T A, each path's ends its chain's head and
    tail.  No row of A is formed: ``det_exact`` reads ``det``, and a
    Gram (``GramOracle``) reads ``bottom()``.  Equality is identity, and
    the repr leaves out ``succ``.
    """

    succ: np.ndarray = field(repr=False)
    start: int
    accept: int
    covered: int
    det: int
    cut: int
    paths: dict[int, _Path]
    vertex: tuple[int, int] | None

    @property
    def dim(self) -> int:
        return len(self.succ)

    def bottom(self) -> _LeastPath:
        """The least block of A^T A, its path ordered by a walk of ``succ``."""
        succ = self.succ

        def path(lam: float, kind: str, pick: _Path) -> _LeastPath:
            ell, _, head, tail, end = pick

            def block():
                chain = [head]
                for _ in range(ell - 1):  # a chain steps along succ from its head
                    chain.append(int(succ[chain[-1]]))
                order = np.array(chain if end == head else chain[::-1], dtype=np.intp)
                along = np.full(ell, 2, dtype=np.int64)
                ends = 1 + (head == self.cut), 2 - (tail == self.accept)
                along[[0, -1]] = ends if end == head else ends[::-1]
                return order, along, order[:-1], order[1:], np.ones(ell - 1, dtype=np.int64)

            return _LeastPath(lam, kind, block)

        return _least_block(self.paths, self.vertex, path)


def _chain_table(succ: np.ndarray, start: int = -1, accept: int = -1) -> SuccessorAdjacency | None:
    """The adjacency of a successor map (-1: halts), its chains cut at ``start`` and walked from their heads; None if not injective.

    The audit (``rtm._audit``) walks it once, and a valid machine's
    record is its reduction's adjacency (``rtm.augmented_adjacency``).
    A has rows {v, succ v}, the start row {succ start} and the accept
    row {start}, so A^T A couples v with succ v except the start, at
    diagonal (v != accept) + [v is hit]: its paths are the chains cut
    there, the heads at 1 but the cut (the start's successor) at 2,
    the tails at 2 but the accept at 1.  A start that is hit, or -1,
    cuts nothing.  One mask of the hit vertices tells injectivity and
    the heads; the start and each head that halts stand alone, every
    other head sends a walker, and all step at once until they halt.
    Halted chains go to ``_fold`` in batches of ``_ROW_BLOCK`` or more.
    The cut's walker stays first: where it halts at the accept after k
    vertices, det A = (-1)^k.
    """
    dim = len(succ)
    hit = np.zeros(dim + 1, dtype=bool)
    hit[succ] = True  # a halting -1 lands on the spare last slot
    alone = succ < 0
    if np.count_nonzero(hit[:-1]) < dim - np.count_nonzero(alone):
        return None
    cuts = start >= 0 and not hit[start]
    cut = int(succ[start]) if cuts else -1
    walk = np.logical_not(hit[:-1], out=hit[:-1])
    alone &= walk
    walk ^= alone
    if cuts:
        walk[start], alone[start] = False, True
    covered, vertex = int(np.count_nonzero(alone)), None  # each alone at 1, or the accept at 0
    if covered:
        vertex = (0, accept) if accept >= 0 and alone[accept] else (1, int(np.argmax(alone)))
    head = np.flatnonzero(walk)  # intp, which numpy gathers by fastest
    del hit, walk, alone
    cur = succ[head]
    head = head.astype(succ.dtype)
    det, tracking = 0, cut >= 0 and succ[cut] >= 0
    if tracking:
        head, cur = np.insert(head, 0, cut), np.insert(cur, 0, succ[cut])
    elif cut >= 0:
        det, covered = -int(cut == accept), covered + 1
        vertex = min(vertex or (2, cut), (2 - (cut == accept), cut))
    paths: dict[int, _Path] = {}
    halted = []  # (heads, tails, size, least vertices) of chains not yet folded

    def fold() -> None:  # one batch as it is, with its one size; several joined
        first, last, size, least = halted[0]
        if len(halted) > 1:
            first, last, size, least = zip(*halted)
            size = np.repeat(np.array(size, dtype=succ.dtype), [len(part) for part in first])
            first, last, least = (np.concatenate(part) for part in (first, last, least))
        halted.clear()
        _fold(paths, dim, first != cut, last == accept, first, last, size, least)

    low, size = np.minimum(head, cur), 2
    while len(cur):
        ahead = succ.take(cur)
        stop = ahead < 0
        count = np.count_nonzero(stop)
        if count:
            if tracking and stop[0]:
                det, tracking = (-1) ** size if cur[0] == accept else 0, False
            # Two index lists, not six masks: take on an intp index is the fastest split.
            done, going = np.flatnonzero(stop), np.flatnonzero(~stop)
            first, head = head.take(done), head.take(going)
            last, cur = cur.take(done), ahead.take(going)
            least, low = low.take(done), low.take(going)
            del ahead, stop, done, going
            halted.append((first, last, size, least))
            covered += size * count
            if sum(len(part[0]) for part in halted) >= _ROW_BLOCK:
                fold()
        else:
            cur = ahead
        np.minimum(low, cur, out=low)
        size += 1
    if halted:
        fold()
    return SuccessorAdjacency(succ, start, accept, int(covered), det, cut, paths, vertex)


class GramOracle(RowOracleMatrix):
    """A reduction's Gram A^T A, held as its factor A (``SuccessorAdjacency``), whose chain table answers for it.

    The spectral routines read lambda_min and the least block from the
    factor (``bottom``) and never form the Gram, so construction only
    refuses any other factor.  The audit that wrote the table proves the
    Gram's contract: column v of A holds v's self-loop and at most one
    arc into v, the successor map being injective, and the start's
    column holds only the back edge, since no rule enters the start
    state.  ``indptr``, ``indices``, ``data`` and ``csr`` are those of
    ``ata_oracle(_ones(*_adjacency_arrays(succ, start, accept)))``,
    formed on first access and kept, for ``energy`` and the tests.  No
    attribute can be assigned; ``dataclasses.replace`` does not apply.
    """

    factor: SuccessorAdjacency

    def __init__(self, factor: SuccessorAdjacency) -> None:
        if not isinstance(factor, SuccessorAdjacency):
            raise ContractError("a Gram held as its factor needs the factor's chain table")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "sparsity_d", min(factor.dim, 4 * 2))  # A's rows hold at most two
        object.__setattr__(self, "entry_bound_k", 2)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def dim(self) -> int:
        return self.factor.dim

    @cached_property
    def _product(self) -> RowOracleMatrix:
        a = self.factor
        return ata_oracle(_ones(*_adjacency_arrays(a.succ, a.start, a.accept)))

    indptr = property(lambda self: self._product.indptr)
    indices = property(lambda self: self._product.indices)
    data = property(lambda self: self._product.data)

    def __repr__(self) -> str:
        formed = "formed" if "_product" in vars(self) else "not formed"
        return (
            f"GramOracle(dim={self.dim}, start={self.factor.start}, accept={self.factor.accept},"
            f" sparsity_d={self.sparsity_d}, entry_bound_k={self.entry_bound_k}, {formed})"
        )


def _path_sum_bottom(matrix: RowOracleMatrix) -> _LeastPath | None:
    """lambda_min of a symmetric integer A that is a direct sum of path blocks, and a block attaining it; None for any other A.

    A reduction's Gram is read from its factor's chain table.  Any other
    A is read from exact integer tests on its CSR arrays, once they are
    checked to equal their transpose (``_symmetric_csr``).  A row of
    more than 3 entries has more than two neighbours, so it gives None
    at once.  Every off-diagonal entry must then be +-1, and the edges
    (u, v) are the entries above the diagonal.  A vertex's degree is
    its row length less its diagonal entry, and its neighbours are
    summed in the index dtype.  No vertex may have more than two
    neighbours, the edges must form a forest of paths (``_path_forest``),
    an interior vertex has diagonal 2, an end 1 or 2 and an isolated one
    d >= 0; the signs do not matter on a tree.  Every block is then
    positive semidefinite, so passing the tests is the certification.
    """
    if isinstance(matrix, GramOracle):
        return matrix.factor.bottom()
    a = _symmetric_csr(matrix)
    indptr, indices, data = a.indptr, a.indices, a.data
    n = len(indptr) - 1
    degree = np.diff(indptr)
    if degree.max(initial=0) > 3:
        return None
    row = np.repeat(np.arange(n, dtype=indices.dtype), degree)
    loop = indices == row
    if np.any(np.abs(data[~loop]) != 1):
        return None
    diag = np.zeros(n, dtype=data.dtype)
    diag[row[loop]] = data[loop]
    degree -= diag != 0  # entries are nonzero, so a row's diagonal entry is one when stored
    upper = np.flatnonzero(indices > row)
    u, v, coupling = row[upper], indices[upper], data[upper]
    del row, loop, upper
    near = np.zeros(n, dtype=u.dtype)
    for end, other in ((u, v), (v, u)):
        np.add.at(near, end, other)
    if degree.max(initial=0) > 2:
        return None
    # An end's diagonal is 1 or 2, an interior one 2, an isolated one d >= 0.
    if np.any(diag < degree) or np.any((diag > 2) & (degree > 0)):
        return None
    chosen: dict[int, _Path] = {}

    def report(first, last, size, least) -> None:
        _fold(chosen, n, diag[first] == 1, diag[last] == 1, first, last, size, least)

    order = _path_forest(degree, near, report)
    if order is None:  # a component holds a cycle
        return None

    def block(path: np.ndarray):
        # The block is a whole component, so its edges are those with u on it.
        on_block = np.zeros(n, dtype=bool)
        on_block[path] = True
        picked = np.flatnonzero(on_block[u])
        return path, diag[path], u[picked], v[picked], coupling[picked]

    def path(lam: float, kind: str, pick: _Path) -> _LeastPath:
        ell, _, a, b, end = pick
        return _LeastPath(lam, kind, lambda: block(order(end, a + b - end, ell)))

    isolated = degree == 0  # a mask, not an index array
    vertex = None
    if isolated.any():
        lone = int(np.argmax(isolated & (diag == diag[isolated].min())))
        vertex = (diag[lone], lone)
    return _least_block(chosen, vertex, path)


def _path_witness(least: _LeastPath, matrix: RowOracleMatrix) -> tuple[np.ndarray, RowOracleMatrix, np.ndarray]:
    """The least block's rows (ascending), the block, and its unit eigenvector at least.lam, in closed form.

    A path sum's component holds its diagonal and its own edges'
    couplings (``least.block``), so the block needs none of the
    matrix's arrays; each row's columns come out sorted, the rows are
    renumbered 0..ell - 1, and the declared d and k carry over.  Along
    the path order of ``least.block()``, j = 0 .. ell - 1, the
    eigenvector with every coupling -1 is (Yueh 2005; Strang and
    MacNamara, SIAM Review 56, 2014)
      1                              with both ends 1,
      cos((j + 1/2) pi / (2 ell + 1)) counted from the end that is 1,
      sin((j + 1) pi / (ell + 1))     with no end 1,
    and the signs s_{j+1} = -a_{j, j+1} s_j, one cumulative product of
    the gathered couplings, carry it to the block's own: diag(s) A
    diag(s) has every coupling -1.
    """
    order, along, u, v, coupling = least.block()
    rank = np.argsort(order)
    rows, diag, ell = order[rank], along[rank], len(order)
    u, v = np.searchsorted(rows, u), np.searchsorted(rows, v)
    loops = np.flatnonzero(diag)
    row, col = np.concatenate((loops, u, v)), np.concatenate((loops, v, u))
    entries = np.lexsort((col, row))
    block = RowOracleMatrix(
        np.concatenate(([0], np.cumsum(np.bincount(row, minlength=ell)))),
        col[entries],
        np.concatenate((diag[loops], coupling, coupling), dtype=np.int64)[entries],
        sparsity_d=matrix.sparsity_d,
        entry_bound_k=matrix.entry_bound_k,
    )
    if least.kind == "vertex":
        return rows, block, np.ones(1)
    j = np.arange(ell)
    if least.kind == "constant":
        phi = np.ones(ell)
    elif least.kind == "cos":
        phi = np.cos((j + 0.5) * (pi / (2 * ell + 1)))
    else:
        phi = np.sin((j + 1) * (pi / (ell + 1)))
    position = rank  # each local row's place on the path
    step = np.empty(ell - 1, dtype=np.int64)  # each edge's coupling, at its nearer place
    step[np.minimum(position[u], position[v])] = coupling
    signs = np.cumprod(np.concatenate(([1], -step)))
    psi = (signs * phi)[position]
    return rows, block, psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class _BlockEigenpair:
    """lambda_min and a unit eigenvector with its residual, on ``block``.

    ``block`` is the matrix's principal block on ``rows`` (ascending)
    and ``psi`` lives on it; ``rows`` is None when the block is the
    whole matrix.
    """

    lam: float
    psi: np.ndarray
    residual: float
    block: RowOracleMatrix
    rows: np.ndarray | None


def _bottom_block_eigenpair(matrix: RowOracleMatrix) -> _BlockEigenpair:
    """``bottom_eigenpair`` on the least block of a path sum, or on the whole matrix otherwise.

    On a path sum the residual is taken on the block's rows, each row's
    sum rounded once (``_rounded_once_products``): A psi is exactly 0
    off a connected component, so that is the whole residual.  The
    block is written from the recogniser's edges (``_path_witness``),
    so a reduction's Gram is never formed.
    """
    least = _path_sum_bottom(matrix)
    if least is None:
        return _BlockEigenpair(*_certified_bottom(matrix), block=matrix, rows=None)
    rows, block, psi = _path_witness(least, matrix)
    product = _rounded_once_products(block, psi)
    residual = float(np.linalg.norm(product - least.lam * psi))
    return _BlockEigenpair(least.lam, psi, residual, block, rows)


def bottom_eigenpair(matrix: RowOracleMatrix) -> tuple[float, np.ndarray, float]:
    """(lambda_min, unit eigenvector, ||A psi - lambda psi||) of a sparse PSD matrix.

    The symmetry check is exact on the integer entries.  A direct sum of
    path blocks (a reduction's Gram, ``GramOracle``, is read from its
    factor's chain table, never formed) is recognised by
    ``_path_sum_bottom`` and answered in closed form: lambda_min is
    ``min_eigenvalue_sparse``'s, bit for bit, and the eigenvector the
    closed form of one block that attains it (``_path_witness``), zero
    elsewhere.  No dense matrix is built, and the cost is O(dim + nnz).
    On a rejecting reduction's Gram lambda_min is exactly 0.0 and the
    witness a signed constant on a path, whose residual is exactly 0.

    Any other matrix is materialized, and refused with
    ResourceLimitError above DENSE_CAP rows before its dim^2 array is
    allocated.  One dense ``eigh`` selects the least eigenvalue lam and
    its eigenvector, accurate to rounding in ||A||.  Then A - sigma I,
    sigma = max(lam, 0) - tau, is Cholesky-factored once.  The factor
    exists exactly when A - sigma I is positive definite (Sylvester's
    law of inertia), so success certifies A > sigma >= -tau and failure
    raises ContractError.  The margin tau is CHOLESKY_MARGIN eps times
    the contract's bound on ||A|| (``norm_bound``): it covers the
    rounding in lam and in the factorization, which scales with ||A||,
    so a PSD matrix, singular or not, is accepted at any norm.
    """
    pair = _bottom_block_eigenpair(matrix)
    if pair.rows is None:
        return pair.lam, pair.psi, pair.residual
    psi = np.zeros(matrix.dim)
    psi[pair.rows] = pair.psi
    return pair.lam, psi, pair.residual


def min_eigenvalue_sparse(matrix: RowOracleMatrix) -> float:
    """Least eigenvalue of a large symmetric PSD oracle matrix, exact in form or certified.

    The symmetry check is ``bottom_eigenpair``'s.  A direct sum of path
    blocks (a reduction's Gram is read from its chain table) is
    recognised from its diagonal and edges and answered in closed form
    (``_path_sum_bottom``) in O(dim + nnz), at any dim: a rejecting
    reduction's singular Gram gives exactly 0.0, and no block is ordered
    and no eigenvector is written.  Any other matrix takes
    ``bottom_eigenpair``'s dense route, so the value equals
    ``bottom_eigenpair(matrix)[0]`` bit for bit, and an indefinite
    matrix or one above DENSE_CAP rows is refused alike.
    """
    least = _path_sum_bottom(matrix)
    return _certified_bottom(matrix)[0] if least is None else least.lam
