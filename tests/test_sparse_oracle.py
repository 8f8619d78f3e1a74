"""Row-oracle contracts, constructors, and instance loading."""

import json
from math import ceil, log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import protocols as pr, rtm, sparse_oracle as so, spectral as sp
from gaplab.errors import ContractError, ResourceLimitError

import oracles


def test_path_adjacency_rows():
    a = so.path_adjacency(3)
    assert oracles.row(a, 0) == [(0, 1)]
    assert oracles.row(a, 1) == [(0, 1), (1, 1)]
    assert oracles.row(a, 2) == [(1, 1), (2, 1)]


def test_path_adjacency_materialize():
    dm = so.materialize(so.path_adjacency(2))
    np.testing.assert_array_equal(dm, [[1, 0], [1, 1]])


def test_cycle_adjacency_materialize():
    dm = so.materialize(so.cycle_adjacency(3))
    np.testing.assert_array_equal(dm, [[0, 0, 1], [1, 1, 0], [0, 1, 0]])


def test_gram_of_path_block():
    gram = oracles.ata_oracle(so.path_adjacency(2))
    dm = so.materialize(gram)
    np.testing.assert_array_equal(dm, [[2, 1], [1, 1]])


def test_gram_of_cycle_block():
    dm = so.materialize(oracles.ata_oracle(so.cycle_adjacency(3)))
    np.testing.assert_array_equal(dm, [[1, 1, 0], [1, 2, 0], [0, 0, 1]])


def test_gram_matches_dense_product():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        arr = np.zeros((n, n), dtype=np.int64)
        # 0/1 matrix with at most two ones per column, per the Gram contract.
        for j in range(n):
            for i in rng.choice(n, size=int(rng.integers(0, 3)), replace=False):
                arr[i, j] = 1
        oracle = so.from_dense(arr)
        got = so.materialize(oracles.ata_oracle(oracle))
        np.testing.assert_array_equal(got, arr.T @ arr)


def test_identity_oracle():
    dm = so.materialize(oracles.identity_oracle(5))
    np.testing.assert_array_equal(dm, np.eye(5, dtype=np.int64))


def test_norm_bound_is_entry_times_sparsity():
    a = so.path_adjacency(4)
    assert so.norm_bound(a) == a.entry_bound_k * a.sparsity_d == 2


def test_row_index_out_of_range():
    with pytest.raises(IndexError):
        oracles.row(so.path_adjacency(3), 3)


def _row_zero_oracle(entries, d=1, k=1, dim=3):
    """Construct an oracle whose row 0 holds these entries."""
    cols, vals = zip(*entries)
    indptr = [0] + [len(entries)] * dim
    return so.RowOracleMatrix(indptr, np.array(cols), np.array(vals), d, k)


def test_row_contract_too_many_entries():
    with pytest.raises(ContractError, match="row 0 has more than 1 entries"):
        _row_zero_oracle([(0, 1), (1, 1)])


def test_row_contract_unsorted_columns():
    for entries in ([(1, 1), (0, 1)], [(1, 1), (1, 1)]):
        with pytest.raises(ContractError, match="row 0 entries not sorted"):
            _row_zero_oracle(entries, d=2)


def test_row_contract_explicit_zero():
    with pytest.raises(ContractError, match="explicit zero"):
        _row_zero_oracle([(0, 0)])


def test_row_contract_entry_bound():
    with pytest.raises(ContractError, match="exceeds declared bound 1"):
        _row_zero_oracle([(0, 2)])


def test_row_contract_column_range():
    # 2^32 + 1 would read as column 1 if the check ran after narrowing to int32.
    for col in (3, -1, 2**32 + 1):
        with pytest.raises(ContractError, match="outside"):
            _row_zero_oracle([(col, 1)])


def test_ata_oracle_refuses_crowded_columns_and_drops_cancelled_entries():
    # Column 1 holds three nonzeros, so the Gram's diagonal entry 3 breaks its bound 2.
    crowded = so.from_dense(np.array([[1, -1, 0], [0, 1, 1], [1, -1, 0]]))
    with pytest.raises(ContractError, match="row 1 exceeds declared bound 2"):
        oracles.ata_oracle(crowded)
    # Columns 0 and 1 share rows 0 and 1, where +-1 products cancel to zero.
    a = np.array([[1, 1, 0], [1, -1, 0], [0, 0, -1]])
    gram = oracles.ata_oracle(so.from_dense(a))
    np.testing.assert_array_equal(so.materialize(gram), a.T @ a)
    assert np.count_nonzero(gram.data) == len(gram.data) == 3
    assert (gram.sparsity_d, gram.entry_bound_k) == (3, 2)
    with pytest.raises(ContractError, match="requires entries in"):
        oracles.ata_oracle(so.from_dense(np.array([[1, 0], [-2, 1]])))


@pytest.mark.parametrize("rows", [258, 300])
def test_ata_oracle_refuses_a_column_an_int8_count_would_wrap(rows):
    # An int8 counter would read 258 entries as 2 and 300 as 44.
    factor = so.from_entries(rows, [(i, 0, (-1) ** i) for i in range(rows)])
    with pytest.raises(ContractError, match="row 0 exceeds declared bound 2"):
        oracles.ata_oracle(factor)


def test_a_reduction_gram_is_a_record_with_no_rows():
    gram = rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine("unary_counter"), 2), "1").gram
    assert not isinstance(gram, so.RowOracleMatrix)
    assert not any(hasattr(gram, name) for name in ("indptr", "csr", "rows"))
    assert repr(gram).startswith("GappedInstance(adjacency=SuccessorAdjacency(start=10, accept=14,")
    assert (gram.dim, gram.sparsity_d, gram.entry_bound_k) == (90, 8, 2)
    rows = oracles.formed(gram)
    assert (rows.dim, rows.sparsity_d, rows.entry_bound_k) == (90, 8, 2)


def test_a_gram_held_as_its_factor_needs_its_chain_table():
    with pytest.raises(ContractError, match="chain table"):
        sp.GappedInstance(so.path_adjacency(5))
    assert type(oracles.ata_oracle(so.path_adjacency(5))) is so.RowOracleMatrix


def test_row_contract_names_the_first_offending_row():
    # Rows 0 and 1 are valid; row 2 breaks the contract, row 3 too.
    indptr = [0, 1, 3, 5, 7]
    for cols, vals, what in (
        ([0, 0, 1, 2, 9, 3, 9], [1] * 7, "row 2 references a column outside"),
        ([0, 0, 1, 2, 1, 3, 2], [1] * 7, "row 2 entries not sorted"),
        ([0, 0, 1, 1, 2, 2, 3], [1, 1, 1, 0, 1, 0, 1], "row 2 contains an explicit zero"),
        ([0, 0, 1, 1, 2, 2, 3], [1, 1, -1, 1, -3, 1, 3], "row 2 exceeds declared bound 2"),
    ):
        with pytest.raises(ContractError, match=what):
            so.RowOracleMatrix(indptr, np.array(cols), np.array(vals), 2, 2)


def test_constructor_requires_an_int64_csr_matrix():
    indptr, cols = np.arange(3), np.arange(2)
    for bad in (np.ones(2), np.ones(2, dtype=np.int32), [1, 1], np.ones((2, 1), dtype=np.int64)):
        with pytest.raises(ContractError):
            so.RowOracleMatrix(indptr, cols, bad, sparsity_d=1, entry_bound_k=1)
    with pytest.raises(ContractError):
        so.RowOracleMatrix(indptr, cols.astype(float), np.ones(2, dtype=np.int64), 1, 1)
    for bad_indptr in ([0], [0, 1, 1], [1, 1, 2], [0, 2, 1]):
        with pytest.raises(ValueError):
            so.RowOracleMatrix(bad_indptr, cols, np.ones(2, dtype=np.int64), 3, 1)


def test_csr_is_one_view_kept_on_the_oracle():
    a = so.path_adjacency(5)
    assert a.csr is a.csr
    assert a.dim == 5
    np.testing.assert_array_equal(so.materialize(a), a.csr.toarray())


def test_oracle_equality_is_identity():
    a = oracles.identity_oracle(3)
    assert a == a
    assert a != oracles.identity_oracle(3)


def test_path_and_cycle_rows_match_their_definition():
    for ell in range(1, 9):
        expected = [[(0, 1)]] + [[(i - 1, 1), (i, 1)] for i in range(1, ell)]
        path = so.path_adjacency(ell)
        assert [oracles.row(path, i) for i in range(ell)] == expected
    for ell in range(3, 9):
        expected = [[(ell - 1, 1)]] + [[(i - 1, 1), (i, 1)] for i in range(1, ell - 1)]
        expected.append([(ell - 2, 1)])
        cycle = so.cycle_adjacency(ell)
        assert [oracles.row(cycle, i) for i in range(ell)] == expected


def test_principal_rows_cut_a_component():
    from scipy.sparse.csgraph import connected_components

    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 4)
    gram = oracles.formed(rtm.reduce_to_gapped(machine, "11").gram)
    a = gram.csr
    count, labels = connected_components(a, directed=False)
    sizes = np.bincount(labels)
    for component in [int(sizes.argmax()), int(sizes.argmin()), *range(0, count, 97)]:
        rows = np.flatnonzero(labels == component)
        block = oracles.principal_rows(gram, rows)
        reference = a[rows][:, rows]  # scipy's fancy indexing keeps the column order
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, part), getattr(reference, part))
        assert block.indices.dtype == gram.indices.dtype and block.data.dtype == np.int64
        assert (block.sparsity_d, block.entry_bound_k) == (gram.sparsity_d, gram.entry_bound_k)
    rows = np.flatnonzero(labels == int(sizes.argmax()))
    with pytest.raises(ValueError, match="outside their own columns"):
        oracles.principal_rows(gram, rows[:-1])


def test_materialize_respects_cap():
    with pytest.raises(ResourceLimitError):
        so.materialize(oracles.identity_oracle(so.DENSE_CAP + 1))


def test_from_dense_round_trip():
    arr = np.array([[0, 2], [-1, 0]])
    oracle = so.from_dense(arr)
    np.testing.assert_array_equal(so.materialize(oracle), arr)
    assert oracle.entry_bound_k == 2


def test_from_dense_rejects_floats():
    with pytest.raises(ContractError):
        so.from_dense(np.eye(2))


def test_from_entries_round_trip():
    m = so.from_entries(3, [(0, 0, 2), (1, 2, -1), (2, 1, -1)])
    assert oracles.row(m, 0) == [(0, 2)]
    assert oracles.row(m, 1) == [(2, -1)]
    assert oracles.row(m, 2) == [(1, -1)]


def test_from_entries_rejects_duplicates():
    with pytest.raises(ValueError):
        so.from_entries(2, [(0, 0, 1), (0, 0, 1)])


def test_from_entries_rejects_out_of_range():
    with pytest.raises(ValueError):
        so.from_entries(2, [(0, 2, 1)])


def test_csr_matches_materialize():
    a = so.path_adjacency(6)
    np.testing.assert_array_equal(
        a.csr.toarray(), so.materialize(a)
    )


def test_load_instance_triplets():
    m = rtm.load_instance({"dim": 2, "entries": [[0, 0, 2], [0, 1, 1], [1, 0, 1], [1, 1, 1]]})
    np.testing.assert_array_equal(so.materialize(m), [[2, 1], [1, 1]])


def test_load_instance_dense_rows():
    m = rtm.load_instance({"dim": 2, "rows": [[2, 1], [1, 1]]})
    np.testing.assert_array_equal(so.materialize(m), [[2, 1], [1, 1]])


def test_load_instance_structured_kinds():
    p = rtm.load_instance({"kind": "path", "ell": 4})
    c = rtm.load_instance({"kind": "cycle", "ell": 4})
    assert p.dim == 4 and c.dim == 4
    np.testing.assert_array_equal(
        so.materialize(p), so.materialize(so.path_adjacency(4))
    )


def test_load_instance_machine_reduction():
    m = rtm.load_instance({"kind": "rtm", "machine": "unary_counter", "input": "11"})
    assert m.dim == 1620


def test_load_instance_from_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"kind": "path", "ell": 3}))
    assert rtm.load_instance(path).dim == 3


def test_load_instance_unknown_shape():
    with pytest.raises(ValueError):
        rtm.load_instance({"what": 1})


def test_load_instance_rejects_fractional_rows():
    # An int64 cast would truncate 1.5 to 1 and load the identity.
    with pytest.raises(ContractError, match="1.5"):
        rtm.load_instance({"dim": 2, "rows": [[1.5, 0], [0, 1]]})
    # JSON true is a Python int too: it would load the identity.
    with pytest.raises(ContractError, match="True"):
        rtm.load_instance({"dim": 2, "rows": [[True, 0], [0, True]]})


def test_load_instance_rejects_fractional_triplets():
    # int() would turn 0.4 into 0, and the entry would be dropped.
    with pytest.raises(ContractError, match="0.4"):
        rtm.load_instance({"dim": 1, "entries": [[0, 0, 0.4]]})


def test_load_instance_rejects_fractional_sizes():
    # int() would build a path of length 2 and a machine on 4 cells.
    with pytest.raises(ContractError, match="2.5"):
        rtm.load_instance({"kind": "path", "ell": 2.5})
    with pytest.raises(ContractError, match="4.5"):
        rtm.load_instance({"kind": "rtm", "machine": "unary_counter", "input": "1", "space": 4.5})


def test_load_instance_rejects_rows_that_miss_the_declared_dim():
    with pytest.raises(ContractError, match="dim 3"):
        rtm.load_instance({"dim": 3, "rows": [[1, 0], [0, 1]]})
    with pytest.raises(ContractError, match="dim 2"):
        rtm.load_instance({"dim": 2, "rows": [[1, 0], [0, 1, 0]]})


# ---------------------------------------------------------------------------
# the CSR view shares the oracle's arrays and equals the COO-built matrix


def _assert_view_of(oracle, reference):
    """oracle.csr wraps the oracle's arrays and equals ``reference`` in values and dtypes."""
    view = oracle.csr
    for part in ("indptr", "indices", "data"):
        mine, want = getattr(view, part), getattr(reference, part)
        # scipy keeps a view of each array (an empty one holds no memory to share)
        assert mine.size == 0 or np.shares_memory(mine, getattr(oracle, part)), part
        assert mine.dtype == want.dtype, part
        np.testing.assert_array_equal(mine, want, err_msg=part)
    assert view.shape == reference.shape
    if oracle.dim <= 2000:
        np.testing.assert_array_equal(so.materialize(oracle), view.toarray())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.dictionaries(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                    st.integers(-3, 3), max_size=dim * dim),
)))
def test_from_entries_is_the_coo_route_without_a_copy(case):
    dim, entries = case
    triplets = [(i, j, v) for (i, j), v in entries.items()]
    _assert_view_of(so.from_entries(dim, triplets), oracles.coo_csr(dim, triplets))


def test_blocks_are_the_coo_route_without_a_copy():
    for ell in range(1, 12):
        triplets = [(0, 0, 1)] + [(i, j, 1) for i in range(1, ell) for j in (i - 1, i)]
        _assert_view_of(so.path_adjacency(ell), oracles.coo_csr(ell, triplets))
        gram = oracles.coo_gram(oracles.coo_csr(ell, triplets))
        _assert_view_of(oracles.ata_oracle(so.path_adjacency(ell)), gram)
    for ell in range(3, 12):
        triplets = [(0, ell - 1, 1), (ell - 1, ell - 2, 1)]
        triplets += [(i, j, 1) for i in range(1, ell - 1) for j in (i - 1, i)]
        _assert_view_of(so.cycle_adjacency(ell), oracles.coo_csr(ell, triplets))
        gram = oracles.coo_gram(oracles.coo_csr(ell, triplets))
        _assert_view_of(oracles.ata_oracle(so.cycle_adjacency(ell)), gram)


@pytest.mark.parametrize("space", [3, 4, 5, 6])
def test_reduction_arrays_are_the_coo_route_without_a_copy(space):
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), space)
    for x in ("11", "1"):
        instance = rtm.reduce_to_gapped(machine, x)
        adjacency = oracles.coo_csr(instance.dim, oracles.adjacency_triplets(machine, x))
        _assert_view_of(oracles.formed(instance.gram), oracles.coo_gram(adjacency))


def test_oracle_keeps_index_arrays_in_scipys_dtype():
    # int64 indices are narrowed once, at construction, so the view copies nothing.
    wide = so.RowOracleMatrix(
        np.arange(4, dtype=np.int64), np.arange(3, dtype=np.int64),
        np.ones(3, dtype=np.int64), 1, 1,
    )
    assert wide.indptr.dtype == wide.indices.dtype == np.int32
    _assert_view_of(wide, oracles.coo_csr(3, [(i, i, 1) for i in range(3)]))
    assert so._index_dtype(2**31 - 1, 2**31 - 1) == np.int32
    assert so._index_dtype(2**31, 1) == so._index_dtype(1, 2**31) == np.int64


# ---------------------------------------------------------------------------
# a pattern's data is one zero-stride one, read by every consumer as a copy of ones


def _reduction_adjacency(x: str) -> so.RowOracleMatrix:
    """The pattern a reduction's Gram is formed from (``oracles.formed``): its adjacency's rows, formed at once."""
    instance = rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine("unary_counter"), 4), x)
    return oracles.adjacency_rows(instance.adjacency)


@pytest.mark.parametrize("make", [
    lambda: so.path_adjacency(1),
    lambda: so.path_adjacency(9),
    lambda: so.cycle_adjacency(3),
    lambda: so.cycle_adjacency(9),
    lambda: _reduction_adjacency("11"),
    lambda: _reduction_adjacency("1"),
], ids=["path-1", "path-9", "cycle-3", "cycle-9", "reduction-accepts", "reduction-rejects"])
def test_pattern_data_reads_as_a_contiguous_copy_of_ones(make):
    adjacency = make()
    assert adjacency.data.strides == (0,)
    with pytest.raises(ValueError):
        adjacency.csr.data[0] = 2
    copy = so.RowOracleMatrix(
        adjacency.indptr, adjacency.indices, np.ones(len(adjacency.indices), dtype=np.int64),
        adjacency.sparsity_d, adjacency.entry_bound_k,
    )

    def bits(x) -> bytes:
        return np.asarray(x, dtype=np.float64).tobytes()

    def readings(oracle: so.RowOracleMatrix) -> tuple:
        gram = oracles.ata_oracle(oracle)
        g = ceil(-log2(sp.min_eigenvalue_bound(oracle.dim)))
        lam, psi, residual = sp.bottom_eigenpair(gram)
        read = (
            sp.det_exact(oracle),
            so.materialize(oracle).tobytes(),
            so.norm_bound(oracle),
            bits(sp.min_eigenvalue_sparse(gram)),
            bits(lam),
            psi.dtype,
            psi.tobytes(),
            bits(residual),
            repr(pr.decide_gapped(gram, g)),
        )
        formed = tuple((part.dtype, part.tobytes()) for part in (gram.indptr, gram.indices, gram.data))
        return read + formed + (sp.det_exact(gram),)

    assert readings(adjacency) == readings(copy)
