"""Exact determinants, closed-form spectra, and eigenvalue floors."""

import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import protocols as pr
from gaplab import rtm, sparse_oracle as so
from gaplab import spectral as sp
from gaplab.errors import ContractError, PromiseViolation, ResourceLimitError

import oracles


# --- determinants ---------------------------------------------------------


def test_det_examples():
    assert sp.det_exact(np.array([[0, 1], [1, 0]])) == -1
    assert sp.det_exact(np.eye(3, dtype=np.int64)) == 1
    assert sp.det_exact(np.zeros((2, 2), dtype=np.int64)) == 0


def test_det_methods_agree_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        arr = rng.integers(-3, 4, size=(n, n))
        oracle = so.from_dense(arr)
        reference = oracles.det_bareiss(oracle)
        assert oracles.det_permutation_expansion(oracle) == reference
        assert oracles.det_cycle_cover(oracle) == reference
        assert sp.det_bareiss_sparse(oracle) == reference
        assert sp.det_exact(arr) == reference


def test_det_sparse_handles_pivot_growth():
    # Pivots above 1 exercise the fraction-free rescaling of untouched rows.
    gram = so.from_dense(np.array([[2, 1], [1, 1]]))
    assert sp.det_bareiss_sparse(gram) == 1
    big = oracles.ata_oracle(so.path_adjacency(40))
    assert sp.det_bareiss_sparse(big) == 1


def test_det_sparse_column_swaps():
    arr = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert sp.det_exact(so.from_dense(arr)) == 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_sparse_equals_dense_elimination(rows):
    oracle = so.from_dense(np.array(rows, dtype=np.int64))
    assert sp.det_bareiss_sparse(oracle) == oracles.det_bareiss(oracle)


@st.composite
def permuted_banded(draw):
    """Integer matrix of bandwidth 0-3, entries -3..3, under a random symmetric permutation."""
    n = draw(st.integers(1, 40))
    width = draw(st.integers(0, 3))
    arr = np.zeros((n, n), dtype=np.int64)
    for offset in range(-min(width, n - 1), min(width, n - 1) + 1):
        size = n - abs(offset)
        arr += np.diag(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)), offset)
    perm = np.array(draw(st.permutations(range(n))))
    return arr[np.ix_(perm, perm)]


@settings(max_examples=150, deadline=None)
@given(permuted_banded())
def test_det_sparse_window_on_permuted_bands(arr):
    oracle = so.from_dense(arr)
    det = sp.det_bareiss_sparse(oracle)
    assert det == oracles.det_bareiss(oracle)
    if len(arr) <= 7:
        assert det == oracles.det_permutation_expansion(oracle)


@st.composite
def permuted_block_triangular(draw):
    """Block upper-triangular integer matrix under independent row and column permutations.

    Diagonal blocks of size 1-5, some made singular; couplings above the
    blocks; sometimes an all-zero row or column (structurally singular).
    """
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    n = sum(sizes)
    entries = st.integers(-3, 3)
    arr = np.zeros((n, n), dtype=np.int64)
    start = 0
    for size in sizes:
        end = start + size
        cells = draw(st.lists(entries, min_size=size * n, max_size=size * n))
        rows = np.array(cells, dtype=np.int64).reshape(size, n)
        rows[:, :start] = 0
        if draw(st.booleans()):  # singular block: last row a multiple of the first, or 0
            rows[-1, start:end] = draw(st.integers(-2, 2)) * rows[0, start:end] if size > 1 else 0
        arr[start:end] = rows
        start = end
    zero = draw(st.sampled_from([None, None, None, None, "row", "column"]))
    line = draw(st.integers(0, n - 1))
    if zero == "row":
        arr[line] = 0
    elif zero == "column":
        arr[:, line] = 0
    row_perm = draw(st.permutations(range(n)))
    col_perm = draw(st.permutations(range(n)))
    return arr[np.ix_(row_perm, col_perm)]


@settings(max_examples=300, deadline=None)
@given(permuted_block_triangular())
def test_det_bareiss_sparse_on_permuted_block_triangular_matrices(arr):
    oracle = so.from_dense(arr)
    det = sp.det_bareiss_sparse(oracle)
    assert det == oracles.det_bareiss(oracle)
    if len(arr) <= 7:
        assert det == oracles.det_permutation_expansion(oracle)


@st.composite
def transversal_splits(draw):
    """(A, matched column of each row, whether a core is left) with a known transversal.

    B is lower triangular with a nonzero diagonal (entries -3..3, units
    or not, on and off it), so its one perfect transversal is the
    diagonal.  Its columns go to sigma: the identity, one transposition
    or an n-cycle, moving 0, 2 or all points.  With ``core``, a few
    diagonal blocks of size 2-3 are filled with nonzeros, which makes
    them nontrivial strong components.
    """
    n = draw(st.integers(1, 9))
    nonzero = st.integers(-3, 3).filter(bool)
    b = np.tril(np.array(draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)),
                         dtype=np.int64).reshape(n, n), -1)
    b[np.arange(n), np.arange(n)] = draw(st.lists(nonzero, min_size=n, max_size=n))
    core = n >= 2 and draw(st.booleans())
    if core:
        start = 0
        while start < n - 1:
            size = min(draw(st.integers(2, 3)), n - start)
            block = draw(st.lists(nonzero, min_size=size * size, max_size=size * size))
            b[start : start + size, start : start + size] = np.reshape(block, (size, size))
            start += size + draw(st.integers(0, 2))
    moves = draw(st.sampled_from(["none", "two", "all"])) if n >= 2 else "none"
    order = np.array(draw(st.permutations(range(n))))
    sigma = np.arange(n)
    if moves == "two":
        sigma[order[:2]] = order[1::-1]
    elif moves == "all":
        sigma[order] = np.roll(order, -1)
    a = np.zeros_like(b)
    a[:, sigma] = b
    return a, sigma, core


@settings(max_examples=400, deadline=None)
@given(transversal_splits())
def test_det_on_known_transversals_takes_bareiss_only_off_the_successor_form(split):
    a, _, _ = split
    oracle = so.from_dense(a)
    calls = []
    kernel = sp._banded_bareiss

    def recorded(b, perm, col, lo):
        calls.append(b.shape)
        return kernel(b, perm, col, lo)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sp, "_banded_bareiss", recorded)
        det = sp.det_exact(oracle)
    assert det == oracles.det_bareiss(oracle)
    if len(a) <= 7:
        assert det == oracles.det_permutation_expansion(oracle)
    # The kernel runs exactly on the matrices the successor form leaves.
    assert bool(calls) == (not _successor_form(a))


def _successor_form(a: np.ndarray) -> bool:
    """Whether ``spectral._successor_det`` answers for the dense integer matrix ``a``.

    Every row must hold at most one entry off the diagonal, its
    successor; and the vertices whose walk along successors never ends
    must be permuted by them, so that no walk enters a cycle from
    outside it.  Read from the definition, one walk per vertex.
    """
    succ = {}
    for i, row in enumerate(a):
        off = [j for j in np.flatnonzero(row) if j != i]
        if len(off) > 1:
            return False
        if off:
            succ[i] = int(off[0])
    endless = []
    for v in range(len(a)):
        w = v
        for _ in range(len(a)):
            w = succ.get(w)
            if w is None:
                break
        else:
            endless.append(v)
    return sorted(succ[v] for v in endless) == endless


@st.composite
def successor_sums(draw):
    """D + P for a partial permutation P, relabelled.

    The vertices split into blocks: cycles of 2..n vertices and paths,
    isolated vertices among them, each path or cycle running through
    its block in order.  D draws zeros, ones and entries up to 2^35 in
    magnitude, P's entries the same without zeros, so products need
    Python integers.  A random symmetric relabelling Q A Q^T, which
    keeps the determinant, scatters the blocks.
    """
    n = draw(st.integers(1, 10))
    big = 2 ** 35
    value = st.one_of(st.sampled_from([1, 1, -1, 2]), st.integers(-big, big))
    diagonal = draw(st.lists(st.one_of(st.just(0), value), min_size=n, max_size=n))
    a = np.diag(np.array(diagonal, dtype=np.int64))
    start = 0
    while start < n:
        size = draw(st.integers(1, n - start))
        cycle = size >= 2 and draw(st.booleans())
        block = list(range(start, start + size))
        for v, w in zip(block, block[1:] + ([start] if cycle else [])):
            a[v, w] = draw(value.filter(bool))
        start += size
    order = draw(st.permutations(range(n)))
    return a[np.ix_(order, order)]


@settings(max_examples=400, deadline=None)
@given(successor_sums())
def test_successor_det_matches_elimination(a):
    oracle = so.from_dense(a)
    det = sp._successor_det(oracle)
    assert det is not None
    assert det == oracles.det_bareiss(oracle) == sp.det_bareiss_sparse(oracle)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-1, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3).filter(bool), min_size=n, max_size=n),
)))
def test_successor_det_on_any_successor_map(drawn):
    # Any map, so a column may hold several entries off the diagonal and a
    # walk may run into a cycle from outside it.  Only the latter is left to
    # the split, unless an empty row or a walk from a zero diagonal entry to
    # a row with no successor already gives 0.
    succ, diagonal, coupling = drawn
    a = np.diag(np.array(diagonal, dtype=np.int64))
    for v, (w, c) in enumerate(zip(succ, coupling)):
        if w >= 0 and w != v:
            a[v, w] = c
    oracle = so.from_dense(a)
    det = sp._successor_det(oracle)
    reference = oracles.det_bareiss(oracle)
    if _successor_form(a):
        assert det == reference
    else:
        assert det is None or det == reference == 0


def test_det_exact_sends_other_matrices_to_the_split(monkeypatch):
    calls = []
    split = sp.det_bareiss_sparse

    def recorded(matrix):
        calls.append(matrix.dim)
        return split(matrix)

    monkeypatch.setattr(sp, "det_bareiss_sparse", recorded)
    others = {
        "a row with two entries off the diagonal": [[1, 0, 0], [1, 0, 2], [0, 1, 0]],
        "a row of three entries": [[1, 1, 1], [1, 1, 0], [0, 1, 1]],
        "a walk into a cycle, its column holding two":
            [[1, 1, 0], [0, 2, 1], [0, 1, 3]],
    }
    for name, rows in others.items():
        a = np.array(rows, dtype=np.int64)
        calls.clear()
        assert sp.det_exact(a) == oracles.det_bareiss(so.from_dense(a)), name
        assert calls == [3], name
    members = {
        "a path": so.path_adjacency(6),
        "a cycle": so.cycle_adjacency(5),
        "two walks ending in one column": so.from_dense(
            np.array([[2, 0, 1], [0, 3, 1], [0, 0, 5]], dtype=np.int64)),
    }
    calls.clear()
    for name, oracle in members.items():
        assert sp.det_exact(oracle) == oracles.det_bareiss(oracle), name
    assert calls == []


def test_det_exact_regime_skips_the_banded_kernel(monkeypatch):
    # unary_counter at space 8: 262,440 configurations.  Every reduction's
    # augmented adjacency has at most one entry off the diagonal in each
    # row, so the closed form of _successor_det decides it, accepting or
    # rejecting, and the banded kernel never runs.
    calls = []
    kernel = sp._banded_bareiss

    def recorded(b, perm, col, lo):
        calls.append(b.shape)
        return kernel(b, perm, col, lo)

    monkeypatch.setattr(sp, "_banded_bareiss", recorded)
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 8)
    for x, accepted in (("11", True), ("1", False)):
        adjacency = rtm.augmented_adjacency(machine, x)
        assert adjacency.dim == 262_440
        det = sp.det_exact(adjacency)
        assert rtm.simulate(machine, x).accepted == accepted
        assert abs(det) == (1 if accepted else 0)
        assert calls == []
    # The kernel still runs on what the closed form leaves: a Gram has rows of three entries.
    assert sp.det_exact(oracles.ata_oracle(so.path_adjacency(5))) == 1
    assert calls == [(5, 5)]


def test_rejecting_reductions_are_decided_before_any_labelling(monkeypatch):
    # The start row has no diagonal entry and, on a rejecting input, a walk
    # that ends; an accepting one's start row lies on the computation cycle,
    # and only that cycle's rows are labelled.  det_exact reads a reduction
    # from its chain table, so the closed form is called on its rows, formed at once.
    calls = []
    jump = sp._jump

    def recorded(succ, out, least=None):
        if least is not None:  # a labelling: the cycles are named
            calls.append(len(out))
        return jump(succ, out, least)

    monkeypatch.setattr(sp, "_jump", recorded)
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 6)
    assert sp._successor_det(oracles.adjacency_rows(rtm.augmented_adjacency(machine, "1"))) == 0
    assert calls == []
    assert sp._successor_det(oracles.adjacency_rows(rtm.augmented_adjacency(machine, "11"))) == -1
    assert calls == [rtm.simulate(machine, "11").steps + 1]


@st.composite
def sink_maps(draw):
    """(succ, least): maps on 1-200 entries and a sink past them, with labels.

    The entries split into chains that end at the sink, cycles of 2^k
    entries (1-cycles among them) and cycles of any length; then up to
    three entries are sent anywhere, themselves included, which puts
    tails into cycles and cuts chains.  Index dtype int32 or int64.
    """
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    succ = np.full(n + 1, n, dtype=draw(st.sampled_from([np.int32, np.int64])))
    start = 0
    while start < n:
        kind = draw(st.sampled_from(["chain", "power", "cycle"]))
        size = 2 ** draw(st.integers(0, 7)) if kind == "power" else draw(st.integers(1, n))
        part = order[start : start + size]
        if kind == "chain":
            succ[part[:-1]] = part[1:]
        else:
            succ[part] = np.roll(part, -1)
        start += len(part)
    for _ in range(draw(st.integers(0, 3))):
        succ[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    least = rng.integers(0, 3 * n, n + 1).astype(succ.dtype)
    return succ, least


@settings(max_examples=300, deadline=None)
@given(sink_maps())
@example((np.array([1, 2, 1, 3]), np.array([0, 5, 7, 9])))  # a tail into a 2-cycle
@example((np.array([1, 1, 2]), np.array([4, 0, 9])))  # a tail into a 1-cycle
@example((np.append(np.roll(np.arange(128), -1), 128), np.arange(129)[::-1].copy()))  # a cycle of 2^7 entries
def test_jump_matches_a_plain_walk(drawn):
    # Each entry still out covers the first 2^rounds entries of its walk, or
    # all of them up to the sink; the entries that never reach it come back.
    succ, least = drawn
    sink = len(succ) - 1
    plain, label = succ.tolist(), least.tolist()
    out = np.flatnonzero(succ[:-1] != sink)
    want_least, endless = list(label), []
    for v in out.tolist():
        walk = [v]
        while len(walk) < 2 ** sink.bit_length() and plain[walk[-1]] != sink:
            walk.append(plain[walk[-1]])
        if plain[walk[-1]] != sink:
            endless.append(v)
        want_least[v] = min(label[w] for w in walk)
    got = sp._jump(succ, out, least)
    assert got.tolist() == endless
    assert least.tolist() == want_least
    assert np.all(np.delete(succ[:-1], got) == sink)


def test_det_sparse_zero_bandwidth_rescales_the_last_row():
    # At bandwidth 0 no row is ever eliminated: each pivot is alone in its
    # row and column, so each, the last one included, is a factor as it stands.
    assert sp.det_bareiss_sparse(so.from_dense(np.diag([2, 3, -5, 7]))) == -210
    assert sp.det_bareiss_sparse(so.from_dense(np.diag([3, 1, 1, 2]))) == 6


def test_det_exact_decides_unary_counter_acceptance():
    for space in (5, 6, 7):
        machine = rtm.with_space(rtm.corpus_machine("unary_counter"), space)
        for x in ("", "1", "11", "111"):
            det = sp.det_exact(rtm.augmented_adjacency(machine, x))
            assert (det != 0) == rtm.simulate(machine, x).accepted


def test_det_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        oracles.det_cycle_cover(oracles.identity_oracle(11))
    with pytest.raises(ResourceLimitError):
        oracles.det_permutation_expansion(oracles.identity_oracle(11))


def test_det_exact_values_stay_python_ints():
    # 64-bit overflow territory: 2^70 on the diagonal.
    oracle = so.from_entries(2, [(0, 0, 2 ** 35), (1, 1, 2 ** 35)])
    assert oracles.det_bareiss(oracle) == 2 ** 70
    assert sp.det_bareiss_sparse(oracle) == 2 ** 70


def test_det_of_a_relabelled_triangular_matrix_is_its_diagonal_product():
    # Two subdiagonals, so rows of three entries and no closed form; in RCM
    # order the matrix is triangular, each pivot alone in its row (lower) or
    # its column (upper), and the determinant runs to thousands of bits.
    rng = np.random.default_rng(7)
    n = 3000
    diagonal = rng.choice([-3, -2, 2, 3], n)
    below = [(i, i - d, int(rng.choice([-2, -1, 1, 2]))) for d in (1, 2) for i in range(d, n)]
    relabel = rng.permutation(n)
    for lower in (True, False):
        entries = [(i, i, int(v)) for i, v in enumerate(diagonal)]
        entries += [(i, j, v) if lower else (j, i, v) for i, j, v in below]
        oracle = so.from_entries(n, [(relabel[i], relabel[j], v) for i, j, v in entries])
        assert sp.det_exact(oracle) == prod(diagonal.tolist())


# --- orthogonal polynomials and closed forms ------------------------------


def test_chebyshev_small_orders():
    assert oracles.chebyshev_q(0, 7.0) == 1.0
    assert oracles.chebyshev_q(1, 2.5) == 2.5
    assert oracles.chebyshev_q(2, 2.0) == 3.0


def test_chebyshev_sine_identity():
    theta = 0.37
    got = oracles.chebyshev_q(5, 2 * np.cos(theta)) * np.sin(theta)
    assert got == pytest.approx(np.sin(6 * theta), abs=1e-12)


def test_char_poly_roots():
    assert oracles.char_poly_p(1, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert oracles.char_poly_p(2, (3 - np.sqrt(5)) / 2) == pytest.approx(0.0, abs=1e-12)
    # The closed form is exactly the root set of the recurrence's polynomial.
    for ell in range(1, 13):
        for lam in sp.closed_form_eigenvalues(ell):
            assert oracles.char_poly_p(ell, lam) == pytest.approx(0.0, abs=1e-12)


def test_char_poly_at_zero_is_one():
    for ell in range(1, 21):
        assert oracles.char_poly_p(ell, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_closed_form_small_blocks():
    np.testing.assert_allclose(sp.closed_form_eigenvalues(1), [1.0])
    np.testing.assert_allclose(
        sp.closed_form_eigenvalues(2),
        [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2],
    )


def test_index_form_changes_first_block_only():
    odd = sp.spectrum_report("path", 1, index_form="odd")
    even = sp.spectrum_report("path", 1, index_form="even")
    np.testing.assert_allclose(odd.closed_form, [1.0])
    np.testing.assert_allclose(even.closed_form, [3.0])
    # The eigensolver column is form-independent.
    np.testing.assert_allclose(odd.eigenvalues, even.eigenvalues)


def test_closed_form_matches_eigensolver():
    for ell in (1, 2, 3, 8, 17):
        rep = sp.spectrum_report("path", ell)
        assert rep.max_abs_discrepancy < 1e-12


# --- structured blocks ----------------------------------------------------


def test_structured_path_block():
    np.testing.assert_array_equal(
        oracles.structured_matrix("path", 2), [[2, 1], [1, 1]]
    )


def test_structured_cycle_block():
    np.testing.assert_array_equal(
        oracles.structured_matrix("cycle", 3),
        [[1, 1, 0], [1, 2, 0], [0, 0, 1]],
    )


def test_structured_equals_gram_of_adjacency():
    for ell in (1, 2, 3, 5, 12, 32):
        left = oracles.structured_matrix("path", ell)
        right = so.materialize(oracles.ata_oracle(so.path_adjacency(ell)))
        np.testing.assert_array_equal(left, right)


def test_cycle_min_eig_equals_shorter_path():
    for ell in (3, 5, 9):
        cyc = np.linalg.eigvalsh(oracles.structured_matrix("cycle", ell))[0]
        pat = np.linalg.eigvalsh(oracles.structured_matrix("path", ell - 1))[0]
        assert cyc == pytest.approx(pat, abs=1e-12)


def test_gram_bands_shape():
    diag, off = sp.gram_bands("path", 4)
    np.testing.assert_allclose(diag, [2.0, 2.0, 2.0, 1.0])
    np.testing.assert_allclose(off, [1.0, 1.0, 1.0])


# --- eigenvalue floors ----------------------------------------------------


def test_min_eigenvalue_requires_symmetry():
    with pytest.raises(ContractError):
        pr.ground_energy(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ground_energy_takes_complex_hermitian_input():
    h = np.array([[1, 1j], [-1j, 1]])  # eigenvalues 0 and 2
    assert abs(pr.ground_energy(h)) <= 1e-12
    with pytest.raises(ContractError, match="not Hermitian"):
        pr.ground_energy(np.array([[1, 1j], [1j, 1]]))  # symmetric, not Hermitian


def test_min_eigenvalue_banded_matches_dense():
    for ell in (1, 2, 3, 10, 64):
        banded = oracles.min_eigenvalue_banded(*sp.gram_bands("path", ell))
        dense = np.linalg.eigvalsh(oracles.structured_matrix("path", ell))[0]
        assert banded == pytest.approx(dense, abs=1e-10)


def test_min_eigenvalue_sparse_matches_dense():
    gram = oracles.ata_oracle(so.path_adjacency(50))
    sparse = sp.min_eigenvalue_sparse(gram)
    dense = np.linalg.eigvalsh(so.materialize(gram).astype(float))[0]
    assert sparse == pytest.approx(dense, abs=1e-9)


def test_bottom_eigenpair_matches_dense_and_certifies_psd():
    for gram in (oracles.ata_oracle(so.path_adjacency(50)), oracles.ata_oracle(so.cycle_adjacency(40))):
        lam, psi, residual = sp.bottom_eigenpair(gram)
        dense = so.materialize(gram).astype(float)
        assert lam == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-12)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert residual == pytest.approx(np.linalg.norm(dense @ psi - lam * psi), abs=1e-15)
        assert residual < 1e-12
    lam, psi, residual = sp.bottom_eigenpair(so.from_dense(np.array([[3]])))
    assert (lam, psi.tolist(), residual) == (3.0, [1.0], 0.0)
    # The lambda-only call keeps the certification.
    for solve in (sp.bottom_eigenpair, sp.min_eigenvalue_sparse):
        # Eigenvalues -1 and 1: A - sigma I has no Cholesky factor.
        with pytest.raises(ContractError, match="not positive definite"):
            solve(so.from_dense(np.array([[0, 1], [1, 0]])))
        with pytest.raises(ContractError, match="not symmetric"):
            solve(so.path_adjacency(8))
        # Off by one in a single entry: the exact check sees it.
        with pytest.raises(ContractError, match="not symmetric"):
            solve(so.from_dense(np.array([[2, 1], [2, 2]])))


def _check_bottom_eigenpair(dense: np.ndarray, pair=None) -> None:
    """bottom_eigenpair against eigh: value, unit vector in the bottom eigenspace, residual.

    ``pair``, when given, is bottom_eigenpair's result on ``dense``, computed by the caller.
    """
    lam, psi, residual = pair or sp.bottom_eigenpair(so.from_dense(dense))
    w, v = np.linalg.eigh(dense.astype(float))
    assert lam == pytest.approx(w[0], abs=1e-12)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert residual == pytest.approx(np.linalg.norm(dense @ psi - lam * psi), abs=1e-15)
    assert residual < 1e-12
    bottom = v[:, w < w[0] + 1e-9]  # the whole eigenspace when lambda_min repeats
    assert np.linalg.norm(bottom.T @ psi) == pytest.approx(1.0, abs=1e-9)


def _shuffled(dense: np.ndarray, seed: int) -> np.ndarray:
    perm = np.random.default_rng(seed).permutation(len(dense))
    return dense[np.ix_(perm, perm)]


# Blocks that keep a matrix off the closed-form route, onto the dense one: the
# 3-cycle Laplacian (eigenvalues 0, 3, 3) holds a cycle, and twice the 2 x 2
# ones block (eigenvalues 0, 4) a coupling of 2.
_TRIANGLE = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=np.int64)
_DOUBLED = np.full((2, 2), 2, dtype=np.int64)


def _path_gram_beside(ell: int, block: np.ndarray) -> so.RowOracleMatrix:
    """The path Gram of size ell, then a small dense block."""
    from scipy.sparse import block_diag

    path = oracles.ata_oracle(so.path_adjacency(ell)).csr
    both = block_diag([path, so.from_dense(block).csr], format="csr", dtype=np.int64)
    return so.RowOracleMatrix(both.indptr, both.indices, both.data, 3, max(2, int(block.max())))


def test_bottom_eigenpair_on_large_entries():
    # Grams of integer matrices with entries to +-1000, ||A|| about 1e7: the
    # rounding in lambda and in the factor is near 1e-9, so the factor must
    # sit further below lambda than any fixed small shift.
    rng = np.random.default_rng(3)
    for shape in ((12, 8), (5, 8)):  # positive definite, then singular
        for _ in range(10):
            m = rng.integers(-1000, 1001, size=shape)
            dense = m.T @ m
            lam, psi, residual = sp.bottom_eigenpair(so.from_dense(dense))
            norm = np.linalg.norm(dense.astype(float), 2)
            assert lam == pytest.approx(np.linalg.eigvalsh(dense.astype(float))[0], abs=1e-13 * norm)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
            assert residual < 1e-13 * norm


def test_bottom_eigenpair_on_degenerate_direct_sums():
    # Repeated chain lengths repeat lambda_min (a cycle Gram of size ell holds the
    # path Gram of size ell - 1); a shuffle hides the blocks from the order.
    # Each sum also holds a shifted triangle, a cycle above lambda_min, so it
    # is no path sum and takes the dense route.
    from scipy.linalg import block_diag

    path = lambda ell: oracles.structured_matrix("path", ell)
    cycle = lambda ell: oracles.structured_matrix("cycle", ell)
    singular = np.ones((2, 2), dtype=np.int64)
    triangle = _TRIANGLE + np.eye(3, dtype=np.int64)
    for seed, blocks in enumerate([
        [path(9), path(9), triangle, path(4)],
        [path(12), cycle(13), path(12), triangle, path(12)],
        [cycle(6), singular, path(1), singular, triangle],  # lambda_min 0, twice
    ]):
        dense = block_diag(*blocks)
        assert sp._path_sum_bottom(so.from_dense(dense)) is None
        w = np.linalg.eigvalsh(dense.astype(float))
        assert w[1] - w[0] < 1e-12
        _check_bottom_eigenpair(_shuffled(dense, seed))


def _path_laplacian(k: int) -> np.ndarray:
    adjacency = np.eye(k, k=1, dtype=np.int64) + np.eye(k, k=-1, dtype=np.int64)
    return np.diag(adjacency.sum(1)) - adjacency


def test_bottom_eigenpair_beyond_bandwidth_one():
    for dense in _beyond_bandwidth_one():
        a = so.from_dense(dense).csr
        _, _, lo, _ = sp._rcm(a, a)
        assert lo > 1
        _check_bottom_eigenpair(_shuffled(dense, 3))
    laplacian = _beyond_bandwidth_one()[1]
    for solve in (sp.bottom_eigenpair, sp.min_eigenvalue_sparse):
        with pytest.raises(ContractError, match="not positive definite"):
            solve(so.from_dense(laplacian - np.eye(30, dtype=np.int64)))
        with pytest.raises(ContractError, match="not symmetric"):
            solve(so.from_dense(np.triu(laplacian)))


def _beyond_bandwidth_one() -> list[np.ndarray]:
    """A random Gram, the 6 x 5 grid Laplacian (singular, PSD) and its shift by I: RCM bandwidth 5."""
    m = np.random.default_rng(5).integers(-2, 3, size=(9, 7))
    eye = lambda k: np.eye(k, dtype=np.int64)
    laplacian = np.kron(eye(6), _path_laplacian(5)) + np.kron(_path_laplacian(6), eye(5))
    return [m.T @ m, laplacian, laplacian + eye(30)]


def _band_by_permuting(a):
    """The band as first built: RCM of |A| + |A^T|, A[perm][:, perm], then its lower triangle."""
    from scipy.sparse import tril
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee((abs(a) + abs(a.T)).tocsr(), symmetric_mode=True)
    lower = tril(a[perm][:, perm], format="coo")
    band = np.zeros((int(np.max(lower.row - lower.col, initial=0)) + 1, a.shape[0]), a.dtype)
    band[lower.row - lower.col, lower.col] = lower.data
    return band, perm


def test_rcm_band_is_the_permuted_lower_triangle_bit_for_bit():
    from scipy.sparse import csr_matrix

    grams = [
        oracles.formed(rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine("unary_counter"), space), x).gram)
        for space in (3, 4, 5, 6)
        for x in ("11", "1")
    ]
    outside_path_sums = [so.from_dense(_shuffled(dense, seed))
                         for dense in _beyond_bandwidth_one() for seed in (0, 3)]
    for gram in grams + outside_path_sums:
        a = gram.csr
        band, perm = sp._rcm_band(a)
        reference, reference_perm = _band_by_permuting(a.astype(np.float64))
        assert np.array_equal(perm, reference_perm)
        assert band.dtype == reference.dtype == np.float64
        assert band.shape == reference.shape and band.tobytes() == reference.tobytes()
    # The reductions' Grams are path sums, read in closed form (checked in 50
    # digits below); every other matrix takes the dense route.
    for gram in outside_path_sums:
        assert sp.min_eigenvalue_sparse(gram) == sp.bottom_eigenpair(gram)[0]
    # Complex Hermitian input, as the energy bisection passes it.
    rng = np.random.default_rng(2)
    h = rng.integers(-2, 3, size=(12, 12)) * (rng.random((12, 12)) < 0.3) * (1 + 1j)
    h = csr_matrix(_shuffled(h + h.conj().T + 3 * np.eye(12), 1))
    band, perm = sp._rcm_band(h)
    reference, reference_perm = _band_by_permuting(h)
    assert np.array_equal(perm, reference_perm)
    assert band.dtype == np.complex128 and band.tobytes() == reference.tobytes()


def test_every_corpus_reduction_gram_band_starts_from_its_gershgorin_interval():
    # What the energy bisection factors: the chain table's few blocks, one
    # subdiagonal, whose interval is the formed Gram's, read from its rows.
    # Every input of up to two symbols at spaces 2-5, and of up to one at space 6.
    for name in rtm.corpus_names():
        for space in range(2, 7):
            machine = rtm.with_space(rtm.corpus_machine(name), space)
            letters = [a for a in machine.alphabet if a != machine.blank]
            for n in range(min(space, 2 if space == 6 else 3)):
                for x in map("".join, itertools.product(letters, repeat=n)):
                    gram = rtm.reduce_to_gapped(machine, x).gram
                    band, lo, hi = gram.adjacency.band()
                    a = oracles.formed(gram).csr
                    radii = np.asarray(abs(a).sum(axis=1)).ravel() - a.diagonal()
                    assert (lo, hi) == (np.min(a.diagonal() - radii), np.max(a.diagonal() + radii))
                    assert band.shape[0] == 2 and band.shape[1] < gram.dim, (name, space, x)


def test_dense_cap_refuses_before_the_matrix_is_built(monkeypatch):
    # Neither is a path sum: the shifted grid Laplacian (dim 30) and the path
    # Gram of 20,000 beside [[3, 2], [2, 3]] (dim 20,002, over DENSE_CAP).
    small = so.from_dense(_shuffled(_beyond_bandwidth_one()[2], 3))
    large = _path_gram_beside(20000, _DOUBLED + np.eye(2, dtype=np.int64))
    path = oracles.ata_oracle(so.path_adjacency(20000))
    assert so.DENSE_CAP < large.dim
    zeros = np.zeros

    def refuse_square(dim: int):
        def guarded(shape, *args, **kwargs):
            if np.prod(shape) >= dim * dim:
                raise AssertionError("a dim x dim array was allocated")
            return zeros(shape, *args, **kwargs)
        return guarded

    # Under the cap the sentinel fires, so it sits where the matrix is allocated.
    monkeypatch.setattr(np, "zeros", refuse_square(small.dim))
    with pytest.raises(AssertionError, match="dim x dim"):
        sp.min_eigenvalue_sparse(small)
    monkeypatch.setattr(np, "zeros", refuse_square(large.dim))
    for solve in (sp.bottom_eigenpair, sp.min_eigenvalue_sparse):
        with pytest.raises(ResourceLimitError, match="dim 20002 exceeds dense materialization cap"):
            solve(large)
    # A path sum is never materialized, so the cap does not bound its lambda_min.
    assert sp.min_eigenvalue_sparse(path) == sp.min_eigenvalue_bound(20000)
    assert sp.min_eigenvalue_sparse(so.from_dense(np.diag([7, 3]))) == 3.0  # isolated vertices


def test_bottom_eigenpair_needs_no_sparse_lu_or_lanczos(monkeypatch):
    import scipy.sparse.linalg as sla

    def refuse(*args, **kwargs):
        raise AssertionError("sparse LU or Lanczos was called")

    for name in ("splu", "eigsh", "LinearOperator"):
        monkeypatch.setattr(sla, name, refuse)
    # The shifted triangle keeps this off the closed-form route (which needs no
    # solver at all), onto the dense one; lambda_min is the path Gram's.
    gram = _path_gram_beside(30, _TRIANGLE + np.eye(3, dtype=np.int64))
    assert sp._path_sum_bottom(gram) is None
    lam, _, residual = sp.bottom_eigenpair(gram)
    assert lam == pytest.approx(sp.min_eigenvalue_bound(30), abs=1e-12)
    assert residual < 1e-12


def test_min_eigenvalue_bound_is_a_floor():
    # The bound is tight at the path block itself, so allow solver noise.
    for ell in (1, 2, 5, 30, 100):
        lam = np.linalg.eigvalsh(oracles.structured_matrix("path", ell))[0]
        assert lam >= sp.min_eigenvalue_bound(ell) - 1e-12
        assert sp.min_eigenvalue_bound(ell) > 0.0


def test_min_eigenvalue_bound_has_no_cancellation():
    # 2 (1 - cos(pi / (2 dim + 1))) erred by a relative 1.6e-5 at dim 10^6
    # and 0.10 at 10^8.
    import mpmath

    eps = np.finfo(np.float64).eps
    dims = sorted(set(range(1, 200)) | {int(10 ** (e / 8)) for e in range(8, 65)})
    assert dims[-1] == 10**8
    with mpmath.workdps(50):
        for dim in dims:
            exact = 2 - 2 * mpmath.cos(mpmath.pi / (2 * dim + 1))
            assert abs(sp.min_eigenvalue_bound(dim) - exact) <= 4 * eps * exact


# Inputs of each corpus machine, accepting and rejecting, that fit from space 2 or 3 on.
_CORPUS_INPUTS = {
    "unary_counter": ("", "1"),
    "binary_nonmax": ("", "#o"),
    "first_last_match": ("a", "P"),
}


def test_min_eigenvalue_sparse_reads_reductions_in_closed_form(monkeypatch):
    import scipy.linalg
    import scipy.sparse.csgraph

    def refuse(*args, **kwargs):
        raise AssertionError("the dense route ran")

    eps = np.finfo(np.float64).eps
    decided = set()
    for name, inputs in _CORPUS_INPUTS.items():
        for space in (2, 3, 4, 5):
            machine = rtm.with_space(rtm.corpus_machine(name), space)
            for x in (x for x in inputs if len(x) < space):
                instance = rtm.reduce_to_gapped(machine, x)
                det = sp.det_exact(instance.adjacency)
                with monkeypatch.context() as patch:
                    patch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", refuse)
                    patch.setattr(sp, "materialize", refuse)
                    patch.setattr(scipy.linalg, "eigh", refuse)
                    lam = sp.min_eigenvalue_sparse(instance.gram)
                if det == 0:
                    assert lam == 0.0
                else:
                    assert lam >= sp.min_eigenvalue_bound(instance.dim)
                # Two independent routes: the closed form and a 50-digit path walk.
                exact = oracles.path_sum_bottom(oracles.formed(instance.gram))
                assert abs(lam - exact) <= 4 * eps * exact
                decided.add((name, det != 0))
    assert len(decided) == 6  # every machine accepted and rejected


@st.composite
def shuffled_path_sums(draw, max_ell=300):
    """A direct sum of blocks of 1-``max_ell`` vertices with random +-1 couplings, symmetrically shuffled.

    A block of ell >= 2 vertices is a path with interior diagonals 2 and
    end diagonals 1 or 2; a block of one vertex has diagonal 0-2.
    """
    blocks = draw(st.lists(
        st.tuples(st.integers(1, max_ell), st.sampled_from((1, 2)), st.sampled_from((1, 2)),
                  st.integers(0, 2)),
        min_size=1, max_size=5,
    ))
    return _path_sum(blocks, draw(st.integers(0, 2**32 - 1)))


def _path_sum(blocks, seed: int) -> so.RowOracleMatrix:
    """The shuffled direct sum of (ell, first end, last end, isolated diagonal) blocks."""
    rng = np.random.default_rng(seed)
    triplets, start = [], 0
    for ell, first, last, alone in blocks:
        diagonal = [alone] if ell == 1 else [first] + [2] * (ell - 2) + [last]
        triplets += [(start + k, start + k, d) for k, d in enumerate(diagonal)]
        for k, sign in enumerate(rng.choice((-1, 1), size=ell - 1).tolist()):
            triplets += [(start + k, start + k + 1, sign), (start + k + 1, start + k, sign)]
        start += ell
    perm = rng.permutation(start)
    return so.from_entries(start, [(perm[i], perm[j], v) for i, j, v in triplets])


@settings(max_examples=150, deadline=None)
@given(shuffled_path_sums())
def test_min_eigenvalue_sparse_on_shuffled_path_sums(gram):
    eps = np.finfo(np.float64).eps
    lam = sp.min_eigenvalue_sparse(gram)
    assert sp._path_sum_bottom(gram).lam == lam  # the closed-form route answered
    exact = oracles.path_sum_bottom(gram)
    assert abs(lam - exact) <= 4 * eps * exact
    if gram.dim <= 400:
        dense = so.materialize(gram).astype(float)
        assert lam == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-12)


@st.composite
def degree_two_edge_lists(draw):
    """(n, u, v): paths, isolated vertices, cycles and repeated edges, on shuffled vertices.

    The edges come in any order and either orientation, as int32
    endpoints; paths run to 40 vertices, past the walk's log2(n) steps.
    """
    parts = draw(st.lists(st.tuples(st.sampled_from(("path", "path", "cycle", "repeated")),
                                    st.integers(1, 40)), min_size=1, max_size=6))
    edges, n = [], 0
    for kind, k in parts:
        if kind == "path":
            edges += [(n + i, n + i + 1) for i in range(k - 1)]
        elif kind == "cycle":
            k = max(k, 3)
            edges += [(n + i, n + (i + 1) % k) for i in range(k)]
        else:
            k = 2
            edges += [(n, n + 1), (n, n + 1)]
        n += k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = rng.permutation(n)[np.array(edges, dtype=np.int64).reshape(-1, 2)]
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    pairs = pairs[rng.permutation(len(pairs))].astype(np.int32)
    return n, np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])


@settings(max_examples=300, deadline=None)
@given(degree_two_edge_lists())
@example((5, np.array([0, 1], dtype=np.int32), np.array([1, 0], dtype=np.int32)))  # repeated
@example((40, np.arange(39, dtype=np.int32), np.arange(1, 40, dtype=np.int32)))  # one long path
def test_path_forest_reads_what_connected_components_reads(graph):
    # scipy's connected components is the oracle: the same paths, with the
    # same sizes, ends and least vertices, and None exactly when a cycle is there.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n, u, v = graph
    degree = np.bincount(np.concatenate((u, v)), minlength=n)
    got = []

    def report(first, last, size, least):
        size = np.broadcast_to(size, first.shape)
        got.extend(zip(*(part.tolist() for part in (size, first, last, least))))

    near = np.zeros(n, dtype=u.dtype)
    np.add.at(near, u, v)
    np.add.at(near, v, u)
    order = sp._path_forest(degree, near, report)
    count, labels = connected_components(
        csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n)), directed=False
    )
    size = np.bincount(labels, minlength=count)
    if np.any(np.bincount(labels[u], minlength=count) >= size):  # as many edges as vertices
        assert order is None
        return
    want = []
    for component in np.flatnonzero(size > 1).tolist():
        vertices = np.flatnonzero(labels == component)
        ends = vertices[degree[vertices] == 1].tolist()
        want.append((len(vertices), min(ends), max(ends), int(vertices[0])))
    assert sorted(got) == sorted(want)
    edges = set(zip(u.tolist(), v.tolist())) | set(zip(v.tolist(), u.tolist()))
    for ell, first, last, _ in got:
        for end, other in ((first, last), (last, first)):
            walk = order(end, other, ell).tolist()
            assert len(walk) == ell and len(set(walk)) == ell
            assert walk[0] == end and walk[-1] == other
            assert all(pair in edges for pair in zip(walk, walk[1:]))


def test_a_million_vertex_path_is_walked_to_its_end(monkeypatch):
    # One path of 10^6 vertices: its two walkers step to the far ends, no
    # pointer jumping runs, and lambda_min and the decision are the closed form's.
    # lambda_min = 2^-38.6 lies inside the gap of g = 30, so the decision is a
    # refusal, once the witness is written, not a bare YES.
    def refuse(*args, **kwargs):
        raise AssertionError("a path is walked, not jumped")

    monkeypatch.setattr(sp, "_jump", refuse)
    gram = oracles.ata_oracle(so.path_adjacency(10**6))
    lam = sp.min_eigenvalue_sparse(gram)
    assert lam == sp.min_eigenvalue_bound(10**6) < 2.0**-30
    with pytest.raises(PromiseViolation, match=rf"lambda_min {lam!r} is neither 0 nor at least 2\^-30$"):
        pr.decide_gapped(gram, 30)


def _check_closed_form_witness(gram: so.RowOracleMatrix, monkeypatch) -> None:
    """bottom_eigenpair of a path sum against eigh, with the ordering and every dense routine refused.

    The witness lives on one connected block, its lambda is
    ``min_eigenvalue_sparse``'s bit for bit, and the residual taken on
    the block's rows equals the one taken on all of A.
    """
    import scipy.linalg
    import scipy.sparse.csgraph
    from scipy.sparse.csgraph import connected_components

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form fell through to another route")

    dense = so.materialize(gram)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", refuse)
        # A path sum that fell through to the dense route would fail here, at any dim.
        for module in (so, sp):  # spectral holds materialize by name
            patch.setattr(module, "materialize", refuse)
        patch.setattr(np.linalg, "eigh", refuse)
        patch.setattr(scipy.linalg, "eigh", refuse)
        pair = sp._bottom_block_eigenpair(gram)
        lam, psi, residual = sp.bottom_eigenpair(gram)
        assert lam == pair.lam == sp.min_eigenvalue_sparse(gram)
    _check_bottom_eigenpair(dense, (lam, psi, residual))
    assert np.array_equal(psi[pair.rows], pair.psi) and np.count_nonzero(psi) <= len(pair.rows)
    a = gram.csr
    _, labels = connected_components(a, directed=False)
    assert len(set(labels[pair.rows].tolist())) == 1
    assert np.count_nonzero(labels == labels[pair.rows[0]]) == len(pair.rows)
    # Each row's sum is rounded once, on the block and on all of A alike.
    full = float(np.linalg.norm(so._rounded_once_products(gram, psi) - lam * psi))
    assert residual == pair.residual == full


@settings(max_examples=150, deadline=None)
@given(shuffled_path_sums(max_ell=40))
def test_bottom_eigenpair_writes_the_closed_form_witness(gram):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_closed_form_witness(gram, monkeypatch)


# Ties between blocks, and each kind as the least block: (ell, first end,
# last end, isolated diagonal) as in ``shuffled_path_sums``.
_WITNESS_CASES = {
    "two equal one-end paths": [(7, 1, 2, 0), (7, 2, 1, 0)],
    "one end of 6 and no end of 12": [(6, 1, 2, 0), (12, 2, 2, 0)],
    "laplacian and isolated 0": [(5, 1, 1, 0), (1, 1, 1, 0)],
    "isolated 0 and laplacian": [(1, 1, 1, 0), (5, 1, 1, 0), (3, 2, 1, 2)],
    "isolated 0 alone at the bottom": [(9, 1, 2, 0), (1, 2, 2, 0), (4, 2, 2, 1)],
    "isolated 1": [(1, 1, 1, 2), (1, 1, 1, 1)],
    "no end": [(20, 2, 2, 0), (3, 1, 2, 0), (1, 1, 1, 2)],
    "one end": [(10, 2, 1, 0), (10, 2, 2, 0), (2, 2, 2, 0)],
    "laplacians of 2 and 40": [(2, 1, 1, 0), (40, 1, 1, 0), (30, 1, 2, 0)],
    "all four kinds": [(8, 2, 2, 0), (6, 1, 2, 0), (4, 1, 1, 0), (1, 1, 1, 0)],
}


@pytest.mark.parametrize("case", sorted(_WITNESS_CASES))
def test_closed_form_witness_on_ties_and_every_kind(case, monkeypatch):
    for seed in range(3):
        _check_closed_form_witness(_path_sum(_WITNESS_CASES[case], seed), monkeypatch)


def test_block_residual_is_the_full_residual_on_reductions():
    for name, inputs in _CORPUS_INPUTS.items():
        for space in (3, 4, 5):
            machine = rtm.with_space(rtm.corpus_machine(name), space)
            for x in (x for x in inputs if len(x) < space):
                gram = rtm.reduce_to_gapped(machine, x).gram
                lam, psi, residual = sp.bottom_eigenpair(gram)
                full = so._rounded_once_products(oracles.formed(gram), psi) - lam * psi
                assert residual == float(np.linalg.norm(full)) < 1e-15


def _assert_padded_as_formed(gram, pair) -> None:
    """The padded rows ``_path_witness`` wrote are ``_padded_rows`` of the block cut from ``gram``'s formed rows.

    Array for array, bit for bit, with the same dtypes, shapes and
    C-contiguity.
    """
    want = so._padded_rows(oracles.principal_rows(oracles.formed(gram), pair.rows))
    for part in ("columns", "entries"):
        mine, theirs = getattr(pair.block, part), getattr(want, part)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), part
        assert mine.flags.c_contiguous and theirs.flags.c_contiguous, part
        assert mine.tobytes() == theirs.tobytes(), part


@settings(max_examples=200, deadline=None)
@given(shuffled_path_sums(max_ell=40))
@example(_path_sum([(1, 1, 1, 0), (4, 2, 2, 0)], 0))  # an isolated zero diagonal: one pad
@example(_path_sum([(1, 2, 2, 2)], 1))  # an isolated 2 alone: one row of one entry
@example(_path_sum([(2, 1, 1, 0), (3, 2, 2, 1)], 2))  # a Laplacian of two: rows of two entries
@example(_path_sum([(9, 1, 2, 0), (9, 2, 1, 0), (5, 2, 2, 2)], 3))  # tied one-end paths
@example(_path_sum([(6, 2, 2, 0), (2, 2, 2, 1)], 4))  # no end 1
def test_path_witness_writes_what_padded_rows_pad(gram):
    # The record written from the least path's closed form is the one padded
    # from that block's formed rows, on every kind of least block.
    pair = sp._bottom_block_eigenpair(gram)
    assert pair.rows is not None
    _assert_padded_as_formed(gram, pair)


def test_path_witness_writes_what_padded_rows_pad_on_reductions():
    for name, inputs in _CORPUS_INPUTS.items():
        for space in (3, 4, 5):
            machine = rtm.with_space(rtm.corpus_machine(name), space)
            for x in (x for x in inputs if len(x) < space):
                gram = rtm.reduce_to_gapped(machine, x).gram
                _assert_padded_as_formed(gram, sp._bottom_block_eigenpair(gram))


@st.composite
def signed_factors(draw, max_ell=8):
    """Square +-1 matrices with at most two nonzeros per column.

    Row- and column-shuffled, signed path and cycle adjacencies, plus up
    to four entries wherever a column has room.  Those make rows of
    three entries, rows that share both columns (with products that
    cancel or repeat) and Grams that are no path sum.
    """
    entries, start = [], 0
    blocks = st.tuples(st.booleans(), st.integers(1, max_ell))
    for cyclic, ell in draw(st.lists(blocks, min_size=1, max_size=4)):
        block = so.cycle_adjacency(ell) if cyclic and ell >= 3 else so.path_adjacency(ell)
        a = block.csr.tocoo()
        entries += zip((a.row + start).tolist(), (a.col + start).tolist())
        start += ell
    for i, j in draw(st.lists(st.tuples(st.integers(0, start - 1), st.integers(0, start - 1)),
                              max_size=4)):
        if (i, j) not in entries and sum(col == j for _, col in entries) < 2:
            entries.append((i, j))
    rows, cols = draw(st.permutations(range(start))), draw(st.permutations(range(start)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(entries), max_size=len(entries)))
    return so.from_entries(start, [(rows[i], cols[j], v) for (i, j), v in zip(entries, signs)])


@settings(max_examples=200, deadline=None)
@given(signed_factors())
@example(so.from_dense(np.array([[1, 1, 0], [1, -1, 0], [0, 0, -1]])))  # a pair that cancels
@example(so.from_dense(np.array([[1, 1, 0], [-1, -1, 0], [0, 0, 1]])))  # a repeated pair
@example(so.from_dense(np.array([[1, -1, 1], [0, 1, 0], [0, 0, 1]])))  # a row of three
def test_signed_factor_grams_are_formed_as_their_dense_product(factor):
    gram = oracles.ata_oracle(factor)
    dense = so.materialize(factor)
    np.testing.assert_array_equal(so.materialize(gram), dense.T @ dense)
    oracles.assert_reading_is_explicit(gram)


_NEAR_MISSES = {
    "3-cycle": [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    "interior diagonal 3": [[1, 1, 0, 0], [1, 3, -1, 0], [0, -1, 2, 1], [0, 0, 1, 1]],
    "off-diagonal 2": [[2, 2], [2, 2]],
    "degree-3 vertex": [[3, 1, 1, -1], [1, 1, 0, 0], [1, 0, 1, 0], [-1, 0, 0, 1]],
    "degree-3 vertex, no diagonal": [[0, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]],
    "negative isolated diagonal": [[-1]],
}


@pytest.mark.parametrize("defect", sorted(_NEAR_MISSES))
def test_min_eigenvalue_sparse_near_misses_take_the_band(defect, monkeypatch):
    from scipy.linalg import block_diag

    path_sum = block_diag(oracles.structured_matrix("path", 7), [[2]], _path_laplacian(5))
    dense = _shuffled(block_diag(path_sum, _NEAR_MISSES[defect]).astype(np.int64), 4)
    gram = so.from_dense(dense)
    assert sp._path_sum_bottom(gram) is None
    dense_runs = []
    certified = sp._certified_bottom
    monkeypatch.setattr(sp, "_certified_bottom", lambda a: dense_runs.append(a) or certified(a))

    def outcome(solve):
        try:
            return solve(gram)
        except ContractError as error:
            return str(error)

    assert outcome(sp.min_eigenvalue_sparse) == outcome(lambda g: sp.bottom_eigenpair(g)[0])
    assert len(dense_runs) == 2


@pytest.mark.parametrize("leaves", [127, 128, 255, 256])
def test_a_vertex_of_128_or_more_neighbours_is_no_path_sum(leaves):
    # A star's centre has as many neighbours as an int8 degree holds, or more;
    # with the Laplacian diagonal and mixed signs it is PSD with lambda_min 0.
    signs = np.random.default_rng(leaves).choice((-1, 1), size=leaves).tolist()
    triplets = [(0, 0, leaves)] + [(k, k, 1) for k in range(1, leaves + 1)]
    for k, sign in enumerate(signs, start=1):
        triplets += [(0, k, sign), (k, 0, sign)]
    star = so.from_entries(leaves + 1, triplets)
    assert sp._path_sum_bottom(star) is None
    want = np.linalg.eigvalsh(so.materialize(star).astype(float))[0]
    assert sp.min_eigenvalue_sparse(star) == pytest.approx(want, abs=1e-10)


def test_min_eigenvalue_scaling_window():
    ell = 100
    lam = oracles.min_eigenvalue_banded(*sp.gram_bands("path", ell))
    assert 2.0 <= lam * ell ** 2 <= 3.0


def test_spectrum_report_rows():
    rep = sp.spectrum_report("path", 3)
    rows = rep.rows()
    assert len(rows) == 3
    assert [k for k, *_ in rows] == [1, 2, 3]
    for _, closed, eigen, abs_err in rows:
        assert abs_err == pytest.approx(abs(closed - eigen), abs=1e-15)
        assert abs_err <= 1e-12


def test_a_reduction_is_answered_from_its_chain_table(monkeypatch):
    # A reduction's determinant, lambda_min, decision and energy come from the
    # chain table its audit walked: the closed form, the walk of a path sum,
    # the CSR reading and its band are refused, and the answers are theirs bit
    # for bit.
    machine = rtm.with_space(rtm.corpus_machine("binary_counter"), 6)
    cases = {}
    for x in ("#000#", "#000"):
        instance = rtm.reduce_to_gapped(machine, x)
        rows = oracles.adjacency_rows(instance.adjacency)
        read = oracles.ata_oracle(rows)
        cases[x] = (instance, sp._successor_det(rows), sp.min_eigenvalue_sparse(read).hex(),
                    repr(pr.decide_gapped(read, instance.g)), pr.binary_search_energy(read, 40))

    def refuse(*args, **kwargs):
        raise AssertionError("a reduction left its chain table")

    for owner, name in ((sp, "_successor_det"), (sp, "_path_forest"), (sp, "_symmetric_csr"),
                        (pr, "_symmetric_csr"), (pr, "_rcm_band")):
        monkeypatch.setattr(owner, name, refuse)
    for x, (instance, det, lam, decision, energy) in cases.items():
        assert sp.det_exact(instance.adjacency) == det and (det != 0) == x.endswith("#")
        assert sp.min_eigenvalue_sparse(instance.gram).hex() == lam
        assert repr(pr.decide_gapped(instance.gram, instance.g)) == decision
        assert pr.binary_search_energy(instance.gram, 40) == energy
