"""Exact determinants and spectra for the structured blocks.

Two independent concerns live here:

* integer determinants that certify singularity exactly, with no
  floating point on the value path.  The production path first splits
  the matrix by its pattern: a maximum transversal either proves it
  structurally singular or puts a zero-free diagonal in place, and the
  strong components of that matrix's digraph give a block-triangular
  form.  Its 1 x 1 blocks are diagonal entries; only the larger blocks,
  the core, go through fraction-free elimination confined to the band
  of their reverse Cuthill-McKee order.  It is the one determinant
  route; the dense elimination and the two enumerations it is checked
  against live with the tests, in ``tests/oracles.py``;
* eigenvalue machinery for the symmetric Gram matrices the reductions
  produce, including the closed-form spectrum of the path block and the
  tridiagonal fast path.  A direct sum of path blocks (every
  reduction's Gram) is recognised from exact integer tests on its CSR
  arrays: lambda_min is the closed form of its longest path of each
  kind, and the bottom eigenvector the closed form of one block that
  attains it, put in path order by a breadth-first walk.  Any other
  matrix is materialized, up to DENSE_CAP rows, for one dense ``eigh``
  of its bottom eigenpair and one Cholesky factorization whose
  existence certifies the matrix positive semidefinite up to a margin
  at the scale of rounding in ||A||.

Each function imports the scipy routines it calls when it runs, and the
module imports none: ``eigh_tridiagonal`` loads with the first
``spectrum_report``, the sparse, graph and dense routines with the
first kernel on a CSR matrix.  A process that only amplifies or builds
clock Hamiltonians loads no scipy at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, prod, sin
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError
from .sparse_oracle import (
    RowOracleMatrix,
    from_dense,
    materialize,
    norm_bound,
    principal_rows,
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


# ---------------------------------------------------------------------------
# exact determinants


def _rcm_ordered(a: csr_matrix) -> tuple[csr_matrix, np.ndarray, int]:
    """(P A P^T, P's order, lower bandwidth) for the reverse Cuthill-McKee order of |A| + |A^T|.

    The order reads the sparsity pattern alone.  On a configuration
    graph, a disjoint union of chains, it gives bandwidth 1 or 2.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee((abs(a) + abs(a.T)).tocsr(), symmetric_mode=True)
    b = a[perm][:, perm]
    rows = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))
    return b, perm, int(np.max(rows - b.indices, initial=0))


def _rcm_band(a: csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK lower band storage of the RCM-ordered symmetric or Hermitian A, and the order.

    band[i - j, j] = (P A P^T)[i, j] for 0 <= i - j <= lo, the form
    ``cholesky_banded`` reads with ``lower=True``, in float64
    (complex128 for complex A).  A must be a canonical CSR matrix with a
    symmetric pattern: the order is reverse Cuthill-McKee on that
    pattern as it stands, and each stored entry goes straight to its
    band slot through the inverse permutation, so no permuted copy of A
    is built.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = a.shape[0]
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    position = np.empty_like(perm)
    position[perm] = np.arange(n, dtype=perm.dtype)
    col = position[a.indices]
    offset = np.repeat(position, np.diff(a.indptr)) - col
    lo = int(np.max(offset, initial=0))
    lower = np.flatnonzero(offset >= 0)
    band = np.zeros((lo + 1, n), dtype=np.result_type(a.dtype, np.float64))
    band[offset[lower], col[lower]] = a.data[lower]
    return band, perm


def _banded_bareiss(b: csr_matrix, lo: int) -> int:
    """Fraction-free elimination of a CSR matrix of lower bandwidth lo.

    Bareiss's recurrence, with its exact-integer guarantees: every
    intermediate entry is an exact minor of the input.  Column k has
    entries only in rows k..k+lo, row swaps stay among them, and rows
    below are untouched except for Bareiss's rescale of every later row
    by pivot/previous pivot at each step.  That rescale
    telescopes to the last pivot, so a row enters the window of lo + 1
    live dictionary rows from the CSR already multiplied by it.  Time is
    O(n * lo * row length).
    """
    n = b.shape[0]
    cols, vals, ptr = b.indices.tolist(), b.data.tolist(), b.indptr.tolist()
    window: list[dict[int, int]] = []
    sign = prev = 1
    for i in range(n + lo):
        if i < n:  # row i enters, carrying the rescale of every step so far
            entries = zip(cols[ptr[i] : ptr[i + 1]], vals[ptr[i] : ptr[i + 1]])
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
    return sign * prev  # the last Bareiss pivot is the determinant, up to the swaps


def det_bareiss_sparse(matrix: RowOracleMatrix) -> int:
    """Exact determinant by block-triangular split, then banded Bareiss on the core.

    1. A maximum transversal (Hopcroft-Karp on the bipartite row/column
       graph) matches each row to a column.  If a row stays unmatched,
       every term of the permutation expansion has a zero factor: the
       matrix is structurally singular and the determinant is 0.
    2. Otherwise the matched columns, put on the diagonal, give
       B = A P with no zero there, and det A = sgn(P) det B.  The parity
       of P is read from its moved points alone: k moved points in c
       cycles give parity k - c, and the cycles are counted on the
       k x k permutation they form.  On an accepting reduction the
       moved points are the configurations of the computation cycle
       (6 for ``unary_counter`` on ``11``), however large the matrix.
    3. The strong components of B's digraph are the diagonal blocks of
       a block-triangular form of B, so det B is the product of their
       determinants: each singleton contributes its diagonal entry, and
       the nontrivial components, cross-component entries dropped, form
       a block-diagonal core.  Only B's diagonal entries other than 1
       enter the product, found among the entries other than 1.
    4. The core alone goes through ``_banded_bareiss`` on its reverse
       Cuthill-McKee order.

    Only the combinatorial steps use scipy; every value is an exact
    Python integer.  On a reduction's matrix the transversal already
    decides a rejecting input.  An accepting one has a single cycle
    cover, so its transversal is unique, B is triangular and no core is
    left: the determinant is the sign, with no nnz-long pass beyond the
    strong components.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

    a = to_csr(matrix)
    n = a.shape[0]
    match = maximum_bipartite_matching(a, perm_type="column")
    if np.any(match < 0):
        return 0

    def digraph(indices: np.ndarray, indptr: np.ndarray) -> csr_matrix:
        # The graph routines convert to float64 first; ones of that type skip a copy.
        m = len(indptr) - 1
        return csr_matrix((np.ones(len(indices)), indices, indptr), shape=(m, m))

    moved = np.flatnonzero(match != np.arange(n))
    k = len(moved)
    cycles = connected_components(
        digraph(np.searchsorted(moved, match[moved]), np.arange(k + 1)), return_labels=False
    ) if k else 0
    sign = (-1) ** ((k - cycles) % 2)
    # Entry (row, col) of B = A P, with B[i, i] = A[i, match[i]].
    position = np.empty_like(match)
    position[match] = np.arange(n)
    col = position[a.indices]
    count, labels = connected_components(digraph(col, a.indptr), connection="strong")
    # B's diagonal entries other than 1; the ones, nearly all of a reduction's
    # diagonal, stay out of the Python product.
    nonunit = np.flatnonzero(a.data != 1)
    nonunit = nonunit[col[nonunit] == np.searchsorted(a.indptr, nonunit, side="right") - 1]
    if count == n:  # every component is one vertex: det B is B's diagonal product
        return sign * prod(a.data[nonunit].tolist())
    single = np.bincount(labels, minlength=count)[labels] == 1
    det = sign * prod(a.data[nonunit[single[col[nonunit]]]].tolist())
    # Core: the nontrivial components' rows and columns, renumbered, with
    # only the entries inside one component.
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    keep = ~single[row] & (labels[row] == labels[col])
    index = np.cumsum(~single) - 1
    m = int(index[-1]) + 1
    core = csr_matrix((a.data[keep], (index[row[keep]], index[col[keep]])), shape=(m, m))
    ordered, _, lo = _rcm_ordered(core)
    return det * _banded_bareiss(ordered, lo)


def det_exact(matrix: RowOracleMatrix | np.ndarray) -> int:
    """Exact integer determinant; an array is wrapped by ``from_dense`` first.

    The route is ``det_bareiss_sparse``: the block-triangular split
    ahead of banded fraction-free elimination.
    """
    if not isinstance(matrix, RowOracleMatrix):
        matrix = from_dense(matrix)
    return det_bareiss_sparse(matrix)


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


def _require_hermitian(matrix, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """``matrix`` as a square array of its own dtype, once max |A - A^H| <= tol is checked.

    The dtype is kept, so a complex Hermitian matrix keeps its
    imaginary part; numpy's eigensolvers take real input, integer
    included, in float64 and complex input in complex128.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    dev = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if dev > tol:
        raise ContractError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.0e}")
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
    is the same as a float tolerance below one.
    """
    a = to_csr(matrix)
    t = a.T.tocsr()
    if not all(np.array_equal(getattr(a, part), getattr(t, part))
               for part in ("indptr", "indices", "data")):
        raise ContractError("matrix is not symmetric")
    return a


def _certified_bottom(matrix: RowOracleMatrix) -> tuple[float, np.ndarray, float]:
    """(lambda_min, unit eigenvector, residual) of a symmetric matrix, densely, certified PSD.

    The certification is the one ``bottom_eigenpair`` describes.
    """
    from scipy.linalg import eigh

    dense = materialize(matrix).astype(np.float64)
    w, v = eigh(dense, subset_by_index=[0, 0], check_finite=False)
    lam, psi = float(w[0]), v[:, 0]
    residual = float(np.linalg.norm(dense @ psi - lam * psi))
    sigma = max(lam, 0.0) - CHOLESKY_MARGIN * np.finfo(np.float64).eps * norm_bound(matrix)
    dense.flat[:: len(dense) + 1] -= sigma
    try:
        np.linalg.cholesky(dense)
    except np.linalg.LinAlgError:
        raise ContractError(
            f"A - sigma I is not positive definite at sigma = {sigma:.6g}"
            f" (least eigenvalue about {lam:.3e})"
        ) from None
    return lam, psi, residual


@dataclass(frozen=True)
class _LeastPath:
    """The block of a recognised path sum that attains its lambda_min, before it is ordered.

    ``kind`` names the block's closed form: "vertex" (an isolated
    vertex), "constant" (a path with both ends 1), "cos" (one end 1) or
    "sin" (no end 1).  The arrays are the recogniser's own, so finding
    the block costs no more than its lambda_min.
    """

    lam: float
    kind: str
    component: int
    labels: np.ndarray
    degree: np.ndarray
    diag: np.ndarray
    pattern: csr_matrix


def _path_sum_bottom(a: csr_matrix) -> _LeastPath | None:
    """lambda_min of a symmetric integer A that is a direct sum of path blocks, and a block attaining it; None for any other A.

    The form is read from exact integer tests on the CSR arrays: every
    off-diagonal entry is +-1, no vertex has more than two off-diagonal
    neighbours, and the off-diagonal pattern has dim - #components
    edges, so it is a forest of paths.  A degree-2 (interior) vertex
    has diagonal 2, a degree-1 (end) vertex diagonal 1 or 2, and an
    isolated vertex diagonal d >= 0.  The signs do not matter: on a
    tree a diagonal +-1 similarity flips any edge.  A path of ell >= 2
    vertices then has least eigenvalue
      0 with both ends 1 (the path Laplacian),
      4 sin^2(pi / (2 (2 ell + 1))) with one end 1 (the path Gram),
      4 sin^2(pi / (2 (ell + 1))) with no end 1 (tridiag(-1, 2, -1)),
    and an isolated vertex d.  Every block is positive semidefinite, so
    passing the tests is the certification, and only the longest path
    of each kind is evaluated.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n, nnz = a.shape[0], a.nnz
    diag = a.diagonal()
    degree = np.diff(a.indptr) - (diag != 0)  # the row contract stores no zeros
    off = nnz - np.count_nonzero(diag)  # stored off-diagonal entries, two per edge
    unit = np.count_nonzero(a.data == 1) + np.count_nonzero(a.data == -1)
    if unit - np.count_nonzero(np.abs(diag) == 1) != off or degree.max() > 2:
        return None
    # An end's diagonal is 1 or 2, an interior one 2, an isolated one d >= 0.
    if np.any(diag < degree) or np.any((diag > 2) & (degree > 0)):
        return None
    # On a symmetric pattern the strong components are the connected ones, and
    # need no transpose; the graph routines convert to float64, so ones of that
    # type skip a copy.
    pattern = csr_matrix((np.ones(nnz), a.indices, a.indptr), shape=(n, n))
    count, labels = connected_components(pattern, connection="strong")
    if off != 2 * (n - count):  # some component holds a cycle
        return None
    size = np.bincount(labels)
    ends_one = np.bincount(labels[(degree == 1) & (diag == 1)], minlength=count)
    path = size > 1

    def least(lam: float, kind: str, component) -> _LeastPath:
        return _LeastPath(lam, kind, int(component), labels, degree, diag, pattern)

    laplacians = np.flatnonzero(path & (ends_one == 2))
    if laplacians.size:
        return least(0.0, "constant", laplacians[0])
    candidates = []
    isolated = np.flatnonzero(degree == 0)
    if isolated.size:
        vertex = isolated[np.argmin(diag[isolated])]
        candidates.append(least(float(diag[vertex]), "vertex", labels[vertex]))
    for kind, ends in (("cos", 1), ("sin", 0)):
        blocks = np.flatnonzero(path & (ends_one == ends))
        if blocks.size:
            longest = blocks[np.argmax(size[blocks])]
            ell = int(size[longest])
            lam = min_eigenvalue_bound(ell) if ends else _chain_floor(ell + 1)
            candidates.append(least(lam, kind, longest))
    return min(candidates, key=lambda c: c.lam)


def _path_eigenvector(block: RowOracleMatrix, rows: np.ndarray, least: _LeastPath) -> np.ndarray:
    """Unit eigenvector at least.lam of the block on ``rows`` (ascending), in closed form.

    A breadth-first walk on the pattern from an end of a path visits its
    vertices in path order, j = 0 .. ell - 1, in one C pass.  With every
    coupling -1 the eigenvector is (Yueh 2005; Strang and MacNamara,
    SIAM Review 56, 2014)
      1                              with both ends 1,
      cos((j + 1/2) pi / (2 ell + 1)) counted from the end that is 1,
      sin((j + 1) pi / (ell + 1))     with no end 1,
    and the signs s_{j+1} = -a_{j, j+1} s_j, one cumulative product of
    +-1, carry it to the block's own couplings: diag(s) A diag(s) has
    every coupling -1.
    """
    from scipy.sparse.csgraph import breadth_first_order

    ell = len(rows)
    if least.kind == "vertex":
        return np.ones(1)
    ends = rows[least.degree[rows] == 1]
    start = ends[np.argmin(least.diag[ends])]  # for "cos", the end whose diagonal is 1
    walk = breadth_first_order(least.pattern, int(start), return_predecessors=False)
    j = np.arange(ell)
    if least.kind == "constant":
        phi = np.ones(ell)
    elif least.kind == "cos":
        phi = np.cos((j + 0.5) * (pi / (2 * ell + 1)))
    else:
        phi = np.sin((j + 1) * (pi / (ell + 1)))
    position = np.empty(ell, dtype=np.int64)  # each local row's place on the path
    position[np.searchsorted(rows, walk)] = j
    row = position[np.repeat(j, np.diff(block.indptr))]
    forward = position[block.indices] == row + 1
    coupling = np.empty(ell - 1, dtype=np.int64)
    coupling[row[forward]] = block.data[forward]
    signs = np.cumprod(np.concatenate(([1], -coupling)))
    psi = (signs * phi)[position]
    return psi / np.linalg.norm(psi)


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

    On a path sum the residual is taken on the block's rows: A psi is
    exactly 0 off a connected component, so that is the whole
    residual.
    """
    a = _symmetric_csr(matrix)
    least = _path_sum_bottom(a)
    if least is None:
        return _BlockEigenpair(*_certified_bottom(matrix), block=matrix, rows=None)
    rows = np.flatnonzero(least.labels == least.component)
    block = principal_rows(matrix, rows)
    psi = _path_eigenvector(block, rows, least)
    residual = float(np.linalg.norm(to_csr(block).astype(np.float64) @ psi - least.lam * psi))
    return _BlockEigenpair(least.lam, psi, residual, block, rows)


def bottom_eigenpair(matrix: RowOracleMatrix) -> tuple[float, np.ndarray, float]:
    """(lambda_min, unit eigenvector, ||A psi - lambda psi||) of a sparse PSD matrix.

    The symmetry check is exact on the integer entries.  A direct sum
    of path blocks, the form of every reversible machine's reduction
    Gram, is recognised by ``_path_sum_bottom`` and answered in closed
    form: lambda_min is ``min_eigenvalue_sparse``'s, bit for bit, and
    the eigenvector is the closed form of one block that attains it
    (``_path_eigenvector``), zero elsewhere.  No dense matrix is built,
    and the cost is O(dim + nnz).  On a rejecting reduction's Gram
    lambda_min is exactly 0.0 and the witness a signed constant on a
    path, whose residual is exactly 0.

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
    blocks, the form of every reversible machine's reduction Gram, is
    recognised from its CSR arrays and answered in closed form
    (``_path_sum_bottom``) in O(dim + nnz), at any dim: a rejecting
    reduction's singular Gram gives exactly 0.0, and no block is ordered
    and no eigenvector is written.  Any other matrix takes
    ``bottom_eigenpair``'s dense route, so the value equals
    ``bottom_eigenpair(matrix)[0]`` bit for bit, and an indefinite
    matrix or one above DENSE_CAP rows is refused alike.
    """
    a = _symmetric_csr(matrix)
    least = _path_sum_bottom(a)
    return _certified_bottom(matrix)[0] if least is None else least.lam
