"""Exact determinants, closed-form spectra, and eigenvalue floors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import rtm, sparse_oracle as so
from gaplab import spectral as sp
from gaplab.errors import ContractError, ResourceLimitError


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
        reference = sp.det_bareiss(oracle)
        assert sp.det_permutation_expansion(oracle) == reference
        assert sp.det_cycle_cover(oracle) == reference
        assert sp.det_bareiss_sparse(oracle) == reference
        assert sp.det_exact(arr) == reference


def test_det_sparse_handles_pivot_growth():
    # Pivots above 1 exercise the fraction-free rescaling of untouched rows.
    gram = so.from_dense(np.array([[2, 1], [1, 1]]))
    assert sp.det_bareiss_sparse(gram) == 1
    big = so.ata_oracle(so.path_adjacency(40))
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
    assert sp.det_bareiss_sparse(oracle) == sp.det_bareiss(oracle)


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
    assert det == sp.det_bareiss(oracle)
    if len(arr) <= 7:
        assert det == sp.det_permutation_expansion(oracle)


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
def test_det_sparse_block_triangular_split(arr):
    oracle = so.from_dense(arr)
    det = sp.det_bareiss_sparse(oracle)
    assert det == sp.det_bareiss(oracle)
    if len(arr) <= 7:
        assert det == sp.det_permutation_expansion(oracle)


def test_det_exact_regime_skips_the_banded_kernel(monkeypatch):
    # unary_counter at space 8: 262,440 configurations.  A rejecting
    # reduction has no perfect transversal.  An accepting one has exactly
    # one cycle cover, so its transversal is unique, the permuted matrix is
    # triangular, and no core is left for the banded kernel either.
    calls = []
    kernel = sp._banded_bareiss

    def recorded(b, lo):
        calls.append(b.shape)
        return kernel(b, lo)

    monkeypatch.setattr(sp, "_banded_bareiss", recorded)
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 8)
    for x, accepted in (("11", True), ("1", False)):
        adjacency = rtm.augmented_adjacency(machine, x)
        assert adjacency.dim == 262_440
        det = sp.det_exact(adjacency)
        assert rtm.simulate(machine, x).accepted == accepted
        assert abs(det) == (1 if accepted else 0)
        assert calls == []
    # The kernel still runs where a core exists: a symmetric Gram is one strong component.
    assert sp.det_exact(so.ata_oracle(so.path_adjacency(5))) == 1
    assert calls == [(5, 5)]


def test_det_sparse_zero_bandwidth_rescales_the_last_row():
    # At bandwidth 0 no row is ever eliminated: each row, the last one
    # included, gets its scale only as it enters the window.
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
        sp.det_cycle_cover(so.identity_oracle(11))
    with pytest.raises(ResourceLimitError):
        sp.det_permutation_expansion(so.identity_oracle(11))


def test_det_exact_rejects_unknown_method():
    with pytest.raises(ValueError):
        sp.det_exact(np.eye(2, dtype=np.int64), method="cofactor")


def test_det_exact_values_stay_python_ints():
    # 64-bit overflow territory: 2^70 on the diagonal.
    oracle = so.from_entries(2, [(0, 0, 2 ** 35), (1, 1, 2 ** 35)])
    assert sp.det_bareiss(oracle) == 2 ** 70
    assert sp.det_bareiss_sparse(oracle) == 2 ** 70


# --- orthogonal polynomials and closed forms ------------------------------


def test_chebyshev_small_orders():
    assert sp.chebyshev_q(0, 7.0) == 1.0
    assert sp.chebyshev_q(1, 2.5) == 2.5
    assert sp.chebyshev_q(2, 2.0) == 3.0


def test_chebyshev_sine_identity():
    theta = 0.37
    got = sp.chebyshev_q(5, 2 * np.cos(theta)) * np.sin(theta)
    assert got == pytest.approx(np.sin(6 * theta), abs=1e-12)


def test_char_poly_roots():
    assert sp.char_poly_p(1, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert sp.char_poly_p(2, (3 - np.sqrt(5)) / 2) == pytest.approx(0.0, abs=1e-12)


def test_char_poly_at_zero_is_one():
    for ell in range(1, 21):
        assert sp.char_poly_p(ell, 0.0) == pytest.approx(1.0, abs=1e-9)


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
        sp.structured_matrix("path", 2), [[2, 1], [1, 1]]
    )


def test_structured_cycle_block():
    np.testing.assert_array_equal(
        sp.structured_matrix("cycle", 3),
        [[1, 1, 0], [1, 2, 0], [0, 0, 1]],
    )


def test_structured_equals_gram_of_adjacency():
    for ell in (1, 2, 3, 5, 12, 32):
        left = sp.structured_matrix("path", ell)
        right = so.materialize(so.ata_oracle(so.path_adjacency(ell)))
        np.testing.assert_array_equal(left, right)


def test_cycle_min_eig_equals_shorter_path():
    for ell in (3, 5, 9):
        cyc = sp.min_eigenvalue(sp.structured_matrix("cycle", ell))
        pat = sp.min_eigenvalue(sp.structured_matrix("path", ell - 1))
        assert cyc == pytest.approx(pat, abs=1e-12)


def test_gram_bands_shape():
    diag, off = sp.gram_bands("path", 4)
    np.testing.assert_allclose(diag, [2.0, 2.0, 2.0, 1.0])
    np.testing.assert_allclose(off, [1.0, 1.0, 1.0])


# --- eigenvalue floors ----------------------------------------------------


def test_min_eigenvalue_requires_symmetry():
    with pytest.raises(ContractError):
        sp.min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eigenvalue_and_eigensystem_take_complex_hermitian_input():
    h = np.array([[1, 1j], [-1j, 1]])  # eigenvalues 0 and 2
    assert abs(sp.min_eigenvalue(h)) <= 1e-12
    w, v = sp.eigensystem(h)
    np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(h @ v, v * w, atol=1e-12)
    with pytest.raises(ContractError, match="not Hermitian"):
        sp.min_eigenvalue(np.array([[1, 1j], [1j, 1]]))  # symmetric, not Hermitian


def test_min_eigenvalue_banded_matches_dense():
    for ell in (1, 2, 3, 10, 64):
        banded = sp.min_eigenvalue_banded(*sp.gram_bands("path", ell))
        dense = sp.min_eigenvalue(sp.structured_matrix("path", ell))
        assert banded == pytest.approx(dense, abs=1e-10)


def test_min_eigenvalue_sparse_matches_dense():
    gram = so.ata_oracle(so.path_adjacency(50))
    sparse = sp.min_eigenvalue_sparse(gram)
    dense = sp.min_eigenvalue(so.materialize(gram).astype(float))
    assert sparse == pytest.approx(dense, abs=1e-9)


def test_bottom_eigenpair_matches_dense_and_certifies_psd():
    for gram in (so.ata_oracle(so.path_adjacency(50)), so.ata_oracle(so.cycle_adjacency(40))):
        lam, psi, residual = sp.bottom_eigenpair(gram)
        dense = so.materialize(gram).astype(float)
        assert lam == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-12)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert residual == pytest.approx(np.linalg.norm(dense @ psi - lam * psi), abs=1e-15)
        assert residual < 1e-12
    lam, psi, residual = sp.bottom_eigenpair(so.from_dense(np.array([[3]])))
    assert (lam, psi.tolist(), residual) == (3.0, [1.0], 0.0)
    # Eigenvalues -1 and 1: A + shift I has no Cholesky factor.
    with pytest.raises(ContractError, match="not positive definite"):
        sp.bottom_eigenpair(so.from_dense(np.array([[0, 1], [1, 0]])))
    with pytest.raises(ContractError, match="not symmetric"):
        sp.bottom_eigenpair(so.path_adjacency(8))


def _check_bottom_eigenpair(dense: np.ndarray) -> None:
    """bottom_eigenpair against eigh: value, unit vector in the bottom eigenspace, residual."""
    lam, psi, residual = sp.bottom_eigenpair(so.from_dense(dense))
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


def test_bottom_eigenpair_on_a_long_chain():
    # lambda_2 - lambda_min is about 5e-8: each inverse-iteration solve must
    # still shrink the rest of the spectrum, so the shift sits far below the gap.
    ell = 20000
    lam, psi, residual = sp.bottom_eigenpair(so.ata_oracle(so.path_adjacency(ell)))
    assert lam == pytest.approx(sp.min_eigenvalue_bound(ell), rel=1e-6)
    assert residual < 1e-14


def _beside_a_singular_block(ell: int):
    """The path Gram of size ell plus a 2 x 2 block of ones (eigenvalues 0 and 2)."""
    from scipy.sparse import block_diag

    path = so.to_csr(so.ata_oracle(so.path_adjacency(ell)))
    ones = so.to_csr(so.from_dense(np.ones((2, 2), dtype=np.int64)))
    return so.RowOracleMatrix(block_diag([path, ones], format="csr", dtype=np.int64), 3, 2)


def test_bottom_eigenpair_when_the_gap_is_below_1e_10():
    # lambda_min = 0 and lambda_2 = 2.7e-11: a Cholesky margin far above
    # the gap would leave the path Gram's bottom vector in the witness.
    ell = 300000
    lam, psi, residual = sp.bottom_eigenpair(_beside_a_singular_block(ell))
    assert abs(lam) < 1e-15
    assert residual < 1e-14
    assert np.linalg.norm(psi[-2:]) == pytest.approx(1.0, abs=1e-12)


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
    from scipy.linalg import block_diag

    path = lambda ell: sp.structured_matrix("path", ell)
    cycle = lambda ell: sp.structured_matrix("cycle", ell)
    singular = np.ones((2, 2), dtype=np.int64)
    for seed, blocks in enumerate([
        [path(9), path(9), path(4)],
        [path(12), cycle(13), path(12), path(12)],
        [cycle(6), singular, path(1), singular],  # lambda_min 0, twice
    ]):
        dense = block_diag(*blocks)
        w = np.linalg.eigvalsh(dense.astype(float))
        assert w[1] - w[0] < 1e-12
        _check_bottom_eigenpair(_shuffled(dense, seed))


def _path_laplacian(k: int) -> np.ndarray:
    adjacency = np.eye(k, k=1, dtype=np.int64) + np.eye(k, k=-1, dtype=np.int64)
    return np.diag(adjacency.sum(1)) - adjacency


def test_bottom_eigenpair_beyond_bandwidth_one():
    m = np.random.default_rng(5).integers(-2, 3, size=(9, 7))
    eye = lambda k: np.eye(k, dtype=np.int64)
    # The 6 x 5 grid graph: singular and PSD, RCM bandwidth 5.
    laplacian = np.kron(eye(6), _path_laplacian(5)) + np.kron(_path_laplacian(6), eye(5))
    for dense in (m.T @ m, laplacian, laplacian + eye(30)):
        _, _, lo = sp._rcm_ordered(so.to_csr(so.from_dense(dense)))
        assert lo > 1
        _check_bottom_eigenpair(_shuffled(dense, 3))
    with pytest.raises(ContractError, match="not positive definite"):
        sp.bottom_eigenpair(so.from_dense(laplacian - eye(30)))
    with pytest.raises(ContractError, match="not symmetric"):
        sp.bottom_eigenpair(so.from_dense(np.triu(laplacian)))


def test_band_cap_refuses_before_the_band_is_built(monkeypatch):
    import scipy.sparse

    gram = so.ata_oracle(so.path_adjacency(50))  # RCM bandwidth 1: 100 band entries
    band, _ = sp._rcm_band(so.to_csr(gram).astype(float))
    assert band.shape == (2, 50)
    monkeypatch.setattr(sp, "BAND_CAP", 100)
    sp.bottom_eigenpair(gram)
    monkeypatch.setattr(sp, "BAND_CAP", 99)

    def build(*args, **kwargs):
        raise AssertionError("the band was built")

    monkeypatch.setattr(scipy.sparse, "tril", build)
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 99"):
        sp.bottom_eigenpair(gram)
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 99"):
        sp.min_eigenvalue_sparse(gram)


def test_bottom_eigenpair_needs_no_sparse_lu_or_lanczos(monkeypatch):
    import scipy.sparse.linalg as sla

    def refuse(*args, **kwargs):
        raise AssertionError("sparse LU or Lanczos was called")

    for name in ("splu", "eigsh", "LinearOperator"):
        monkeypatch.setattr(sla, name, refuse)
    lam, _, residual = sp.bottom_eigenpair(so.ata_oracle(so.path_adjacency(30)))
    assert lam == pytest.approx(sp.min_eigenvalue_bound(30), abs=1e-12)
    assert residual < 1e-12


def test_min_eigenvalue_bound_is_a_floor():
    # The bound is tight at the path block itself, so allow solver noise.
    for ell in (1, 2, 5, 30, 100):
        lam = sp.min_eigenvalue(sp.structured_matrix("path", ell))
        assert lam >= sp.min_eigenvalue_bound(ell) - 1e-12
        assert sp.min_eigenvalue_bound(ell) > 0.0


def test_min_eigenvalue_scaling_window():
    ell = 100
    lam = sp.min_eigenvalue_banded(*sp.gram_bands("path", ell))
    assert 2.0 <= lam * ell ** 2 <= 3.0


def test_spectrum_report_rows():
    rep = sp.spectrum_report("path", 3)
    rows = rep.rows()
    assert len(rows) == 3
    assert [k for k, *_ in rows] == [1, 2, 3]
    for _, closed, eigen, abs_err in rows:
        assert abs_err == pytest.approx(abs(closed - eigen), abs=1e-15)
        assert abs_err <= 1e-12
