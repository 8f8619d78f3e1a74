"""Exact determinants and spectra for the structured blocks.

Two independent concerns live here:

* integer determinants that certify singularity exactly, with no
  floating point on the value path.  The production path first splits
  the matrix by its pattern: a maximum transversal either proves it
  structurally singular or puts a zero-free diagonal in place, and the
  strong components of that matrix's digraph give a block-triangular
  form.  Its 1 x 1 blocks are diagonal entries; only the larger blocks,
  the core, go through fraction-free elimination confined to the band
  of their reverse Cuthill-McKee order.  Dense elimination, the
  cycle-cover sum and the permutation expansion stay as small-size
  references;
* eigenvalue machinery for the symmetric Gram matrices the reductions
  produce, including the closed-form spectrum of the path block and the
  tridiagonal fast path.  At large sizes the bottom eigenpair comes
  from the same reverse Cuthill-McKee order, as a lower band: a banded
  eigenvalue solve, one banded Cholesky factorization whose existence
  certifies the matrix positive semidefinite up to a margin at the
  scale of rounding in ||A||, and a few steps of inverse iteration on
  that factor.

The reference determinants deliberately overlap: the cycle-cover sum and
the permutation expansion compute the same quantity through different
sign bookkeeping, which makes each a check on the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, prod
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ContractError, ResourceLimitError
from .sparse_oracle import RowOracleMatrix, from_dense, to_csr

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Factorial-time methods refuse to run above this dimension.
ENUMERATION_CAP = 10

SYMMETRY_TOL = 1e-12

# Banded kernels refuse a (lo + 1) x dim band above this many entries
# (256 MiB of float64 for the band itself; eig_banded and the factor
# each take about as much again, and the eigenvalue solver 7 dim
# doubles of workspace).
BAND_CAP = 2**25

# Inverse-iteration solves per eigenpair at most; the residual stops
# falling after a few (see bottom_eigenpair).
INVERSE_ITERATIONS = 8

# bottom_eigenpair factors A - sigma I at least this many times
# eps ||A|| below lambda_min.  On 450 random integer Grams M^T M (dim
# up to 400, entries of M up to 3000), eig_banded's lambda erred by at
# most 1.4 eps ||A||_1, and every singular one had a factor within
# eps ||A||_1 below lambda.
CHOLESKY_MARGIN = 64


# ---------------------------------------------------------------------------
# exact determinants


def det_cycle_cover(matrix: RowOracleMatrix) -> int:
    """Determinant as a signed sum over cycle covers of the digraph.

    Each permutation with nonzero weight is a vertex-disjoint union of
    directed cycles (self-loops count as 1-cycles), and its sign is
    (-1)^(number of even-length cycles).  Enumeration walks cycles from
    the smallest uncovered vertex, so runtime is bounded by the number
    of covers rather than n!, but the dimension cap still applies.
    """
    a = to_csr(matrix).toarray().tolist()
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
    a = to_csr(matrix).toarray().tolist()
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
    a = to_csr(matrix).toarray().tolist()
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


def _rcm_band(a: csr_matrix, capped: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK lower band storage of the RCM-ordered symmetric or Hermitian A, and the order.

    band[i - j, j] = (P A P^T)[i, j] for 0 <= i - j <= lo, the form
    ``eig_banded`` and ``cholesky_banded`` read with ``lower=True``.
    The (lo + 1) x dim band is refused above BAND_CAP entries before it
    is allocated, unless ``capped`` is False: a caller that already
    holds A densely holds more than its band.
    """
    from scipy.sparse import tril

    ordered, perm, lo = _rcm_ordered(a)
    n = ordered.shape[0]
    if capped and n * (lo + 1) > BAND_CAP:
        raise ResourceLimitError(
            f"band of {lo + 1} x {n} = {n * (lo + 1)} entries exceeds the cap of {BAND_CAP}"
        )
    lower = tril(ordered, format="coo")
    band = np.zeros((lo + 1, n), dtype=ordered.dtype)
    band[lower.row - lower.col, lower.col] = lower.data
    return band, perm


def _banded_bareiss(b: csr_matrix, lo: int) -> int:
    """Fraction-free elimination of a CSR matrix of lower bandwidth lo.

    Same recurrence and exact-integer guarantees as det_bareiss.  Column
    k has entries only in rows k..k+lo, row swaps stay among them, and
    rows below are untouched except for Bareiss's rescale of every
    later row by pivot/previous pivot at each step.  That rescale
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
       B = A P with no zero there, and det A = sgn(P) det B, where the
       parity of P is n minus its number of cycles.
    3. The strong components of B's digraph are the diagonal blocks of
       a block-triangular form of B, so det B is the product of their
       determinants: each singleton contributes its diagonal entry, and
       the nontrivial components, cross-component entries dropped, form
       a block-diagonal core.
    4. The core alone goes through ``_banded_bareiss`` on its reverse
       Cuthill-McKee order.

    Only the combinatorial steps use scipy; every value is an exact
    Python integer.  On a reduction's matrix the transversal already
    decides a rejecting input.  An accepting one has a single cycle
    cover, so its transversal is unique, B is triangular and no core is
    left: the determinant is the sign.
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
        return csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))

    cycles = connected_components(digraph(match, np.arange(n + 1)), return_labels=False)
    # Entry (row, col) of B = A P, with B[i, i] = A[i, match[i]].
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    position = np.empty_like(match)
    position[match] = np.arange(n)
    col = position[a.indices]
    count, labels = connected_components(digraph(col, a.indptr), connection="strong")
    single = np.bincount(labels, minlength=count)[labels] == 1
    diagonal = a.data[row == col][single]
    # Ones, nearly all of a reduction's diagonal, stay out of the Python product.
    det = (-1) ** ((n - cycles) % 2) * prod(diagonal[diagonal != 1].tolist())
    if single.all():
        return det
    # Core: the nontrivial components' rows and columns, renumbered, with
    # only the entries inside one component.
    keep = ~single[row] & (labels[row] == labels[col])
    index = np.cumsum(~single) - 1
    m = int(index[-1]) + 1
    core = csr_matrix((a.data[keep], (index[row[keep]], index[col[keep]])), shape=(m, m))
    ordered, _, lo = _rcm_ordered(core)
    return det * _banded_bareiss(ordered, lo)


def det_exact(matrix: RowOracleMatrix | np.ndarray, method: str = "auto") -> int:
    """Dispatch to an exact determinant method; an array is wrapped by ``from_dense``.

    ``auto`` (and ``bareiss_sparse``) is the block-triangular split
    ahead of banded fraction-free elimination, the one production path.
    Dense elimination and the two enumerations are available by name as
    small-size references.
    """
    if not isinstance(matrix, RowOracleMatrix):
        matrix = from_dense(matrix)
    if method in ("auto", "bareiss_sparse"):
        return det_bareiss_sparse(matrix)
    if method == "bareiss":
        return det_bareiss(matrix)
    if method == "cycle_cover":
        return det_cycle_cover(matrix)
    if method == "permutation":
        return det_permutation_expansion(matrix)
    raise ValueError(f"unknown determinant method {method!r}")


# ---------------------------------------------------------------------------
# polynomial recurrences and closed-form spectra


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


def min_eigenvalue_bound(dim: int) -> float:
    """Smallest possible nonzero Gram eigenvalue at a given dimension.

    Equals the bottom of the closed-form path spectrum at ell = dim;
    any reduction output of this dimension with nonzero determinant has
    its least eigenvalue at or above this value.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return 2.0 * (1.0 - cos(pi / (2.0 * dim + 1.0)))


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


def structured_matrix(kind: str, ell: int) -> np.ndarray:
    """Exact integer Gram matrix A^T A of a structured block, as an int64 array."""
    diag, off = gram_bands(kind, ell)
    n = len(diag)
    out = np.diag(diag.astype(np.int64))
    idx = np.arange(n - 1)
    out[idx, idx + 1] = off.astype(np.int64)
    out[idx + 1, idx] = off.astype(np.int64)
    return out


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


def min_eigenvalue(matrix: np.ndarray, tol: float = SYMMETRY_TOL) -> float:
    """Least eigenvalue of a symmetric or Hermitian matrix (the symmetry is a contract)."""
    return float(np.linalg.eigvalsh(_require_hermitian(matrix, tol))[0])


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


def eigensystem(
    matrix: np.ndarray, tol: float = SYMMETRY_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvector columns) of a symmetric or Hermitian matrix."""
    return np.linalg.eigh(_require_hermitian(matrix, tol))


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


def bottom_eigenpair(matrix: RowOracleMatrix) -> tuple[float, np.ndarray, float]:
    """(lambda_min, unit eigenvector, ||A psi - lambda psi||) of a sparse PSD matrix.

    The matrix is taken once into its reverse Cuthill-McKee lower band
    (bandwidth 1 on the reductions' Grams), a permutation similarity
    that leaves the spectrum alone.  ``eig_banded`` selects the least
    eigenvalue lam of the band, without eigenvectors; that is the
    lambda_min returned, accurate to rounding in ||A||.  The band of
    A - sigma I, sigma = max(lam, 0) - tau, is Cholesky-factored once.
    The factor exists exactly when A - sigma I is positive definite
    (Sylvester's law of inertia), so success certifies A > sigma >= -tau
    and failure raises ContractError.  The margin tau is CHOLESKY_MARGIN
    eps times a bound on ||A||: it covers the rounding in lam and in the
    factorization, which scales with ||A||, so a PSD matrix, singular or
    not, is accepted at any norm.

    Inverse iteration on that factor, from a seeded start so that the
    result does not depend on earlier calls, then gives the
    eigenvector; it stops when the residual on the unpermuted A stops
    falling, or after INVERSE_ITERATIONS solves, and keeps the step with
    the least residual.  Each solve shrinks a component at eigenvalue
    lambda_min + gap, relative to the bottom one, by tau / (gap + tau),
    so a component weighs at most about tau / (e k) in the residual
    after k solves, whatever its gap.  On the reductions' Grams tau is
    8.5e-14, and the residual falls to rounding in 3-5 solves.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded, eig_banded

    a = to_csr(matrix).astype(np.float64)
    dev = abs(a - a.T)
    if dev.nnz and dev.max() > SYMMETRY_TOL:
        raise ContractError("matrix is not symmetric")
    band, perm = _rcm_band(a)
    # Every row of |A| sums to at most (2 lo + 1) max |a_ij|, which bounds ||A||;
    # the entries are integers, so a nonzero matrix has max |a_ij| >= 1.
    norm = (2 * len(band) - 1) * max(float(band.max()), -float(band.min()), 1.0)
    tau = CHOLESKY_MARGIN * np.finfo(np.float64).eps * norm
    lam = float(
        eig_banded(
            band, lower=True, eigvals_only=True, select="i", select_range=(0, 0),
            check_finite=False,
        )[0]
    )
    sigma = max(lam, 0.0) - tau
    band[0] -= sigma
    try:
        factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise ContractError(
            f"A - sigma I is not positive definite at sigma = {sigma:.6g}"
            f" (least eigenvalue about {lam:.3e})"
        ) from None
    x = np.random.default_rng(0).standard_normal(len(perm))[perm]
    residual = np.inf
    for _ in range(INVERSE_ITERATIONS):
        x = cho_solve_banded((factor, True), x, check_finite=False)
        x /= np.linalg.norm(x)
        step = np.empty_like(x)
        step[perm] = x
        step_residual = float(np.linalg.norm(a @ step - lam * step))
        if step_residual >= residual:
            break
        psi, residual = step, step_residual
    return lam, psi, residual


def min_eigenvalue_sparse(matrix: RowOracleMatrix) -> float:
    """Least eigenvalue of a large symmetric PSD oracle matrix (``bottom_eigenpair``).

    Runs on the matrix's reverse Cuthill-McKee band, so the cost is
    O(dim * band^2) and no dense matrix is built; the dense path
    remains the ground truth at small sizes.
    """
    return bottom_eigenpair(matrix)[0]
