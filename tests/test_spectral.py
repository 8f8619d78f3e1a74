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
    # Eigenvalues -1 and 1: a negative pivot, whatever the shift-invert run would say.
    with pytest.raises(ContractError, match="not positive definite"):
        sp.bottom_eigenpair(so.from_dense(np.array([[0, 1], [1, 0]])))
    with pytest.raises(ContractError, match="not symmetric"):
        sp.bottom_eigenpair(so.path_adjacency(8))


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
