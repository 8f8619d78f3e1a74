"""Statevector simulation, exact and truncated evolutions, phase readout."""

import dataclasses
import math

import numpy as np
import pytest

from gaplab import protocols as pr
from gaplab import simulator as sim
from gaplab import sparse_oracle as so
from gaplab.errors import ContractError, ResourceLimitError

import oracles


def test_gate_matrices_are_unitary():
    for name, matrix in sim.GATE_MATRICES.items():
        n = matrix.shape[0]
        np.testing.assert_allclose(
            matrix.conj().T @ matrix, np.eye(n), atol=1e-12, err_msg=name
        )


def test_bell_state():
    circuit = sim.QuantumCircuit(2)
    circuit.append("h", 0)
    circuit.append("cnot", 0, 1)
    out = sim.run_circuit(circuit)
    np.testing.assert_allclose(out, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)


def test_qubit_zero_is_low_bit():
    circuit = sim.QuantumCircuit(2)
    circuit.append("x", 0)
    out = sim.run_circuit(circuit)
    np.testing.assert_allclose(out, [0, 1, 0, 0], atol=1e-12)


def test_injected_gate_matrix():
    ry = np.array([[0.6, -0.8], [0.8, 0.6]])
    circuit = sim.QuantumCircuit(1)
    circuit.append("ry", 0, matrix=ry)
    out = sim.run_circuit(circuit)
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-12)


def _with_operator(caller, qubits, matrix):
    """Give one (qubits, matrix) pair on two qubits to a caller of ``_check_operator``."""
    if caller == "append":
        sim.QuantumCircuit(2).append("u", *qubits, matrix=matrix)
    elif caller == "circuit":
        sim.QuantumCircuit(2, [(qubits, matrix)])
    elif caller == "clock":
        clock = pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1))
        dataclasses.replace(clock, gates=((qubits, matrix),))
    else:
        pr.PreciseLHInstance(2, [(qubits, matrix)], 0.1, 0.2)


@pytest.mark.parametrize("caller", ["append", "circuit", "clock", "terms"])
@pytest.mark.parametrize(
    "qubits, size, refusal",
    [
        ((0, 0), 4, r"repeats a qubit: \(0, 0\)"),
        ((0, 2), 4, r"touches a qubit outside 0\.\.1"),
        ((0,), 4, r"matrix shape \(4, 4\) does not fit \(0,\)"),
        ((1, 0), 2, r"matrix shape \(2, 2\) does not fit \(1, 0\)"),
    ],
)
def test_every_local_operator_is_checked_on_its_qubits_and_shape(caller, qubits, size, refusal):
    what = "term" if caller == "terms" else "gate"
    with pytest.raises(ValueError, match=f"^{what} {refusal}"):
        _with_operator(caller, qubits, np.eye(size))
    _with_operator(caller, qubits[:1], np.eye(2))  # a fitting pair passes


def test_append_looks_up_a_named_gate_at_once():
    circuit = sim.QuantumCircuit(3)
    circuit.append("h", 2)
    (qubits, matrix), = circuit.gates
    assert qubits == (2,) and matrix is sim.GATE_MATRICES["H"]  # shared, so read-only
    with pytest.raises(ValueError):
        sim.GATE_MATRICES["H"][0, 0] = 0
    with pytest.raises(ValueError, match="^unknown gate 'RY' without an injected matrix$"):
        circuit.append("ry", 0)
    with pytest.raises(ValueError, match=r"^gate matrix shape \(4, 4\) does not fit \(0,\)$"):
        circuit.append("cnot", 0)
    with pytest.raises(ValueError, match="^gates are limited to 1 or 2 qubits$"):
        circuit.append("ccx", 0, 1, 2, matrix=np.eye(8))
    assert len(circuit.gates) == 1  # a refused gate is never appended


def test_random_circuit_preserves_norm():
    rng = np.random.default_rng(3)
    circuit = oracles.random_circuit(6, 40, rng)
    state = sim.run_circuit(circuit)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_circuit_unitary_consistency():
    rng = np.random.default_rng(4)
    circuit = oracles.random_circuit(3, 15, rng)
    u = oracles.circuit_unitary(circuit)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)
    direct = sim.run_circuit(circuit)
    np.testing.assert_allclose(u[:, 0], direct, atol=1e-10)


def test_run_circuit_accepts_plain_arrays():
    circuit = sim.QuantumCircuit(1)
    circuit.append("x", 0)
    state = np.array([1.0, 0.0])
    out = sim.run_circuit(circuit, state)
    assert out.dtype == complex
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)
    assert state.tolist() == [1.0, 0.0]
    complex_state = state.astype(complex)  # no gates: the image is still a new array
    assert sim.run_circuit(sim.QuantumCircuit(1), complex_state) is not complex_state


def test_run_circuit_rejects_norm_violations():
    circuit = sim.QuantumCircuit(1)
    circuit.append("shrink", 0, matrix=np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(ContractError):
        sim.run_circuit(circuit, np.array([0.0, 1.0]))
    # A column block is checked column by column: |0> keeps its norm, |1> does not.
    assert np.array_equal(sim.run_circuit(circuit, np.eye(2)[:, :1]), np.eye(2)[:, :1])
    with pytest.raises(ContractError, match="preserve the norm"):
        sim.run_circuit(circuit, np.eye(2))
    with pytest.raises(ContractError, match="does not match"):
        sim.run_circuit(circuit, np.eye(4, 2))


def test_pad_with_ancillas():
    padded = oracles.pad_with_ancillas(np.array([0.0, 1.0]), 1)
    np.testing.assert_allclose(padded, [0.0, 1.0, 0.0, 0.0])


def test_measure_probability():
    state = np.array([1, 1j, 0, 0], dtype=complex) / np.sqrt(2)
    assert oracles.measure_probability(state, qubit=0, outcome=1) == pytest.approx(0.5)
    assert oracles.measure_probability(state, qubit=1, outcome=1) == pytest.approx(0.0)


# --- matrix exponentials ---------------------------------------------------


def _gram_8():
    return so.ata_oracle(so.path_adjacency(8))


def _gram_8_dense():
    return so.materialize(_gram_8())


def test_expm_exact_is_unitary():
    u = sim.expm_exact(_gram_8_dense(), np.pi / 4)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)


def test_expm_taylor_converges_to_exact():
    exact = sim.expm_exact(_gram_8_dense(), np.pi / 4)
    truncated = oracles.expm_taylor(_gram_8(), np.pi / 4, order=40)
    assert np.linalg.norm(truncated - exact, ord=2) < 1e-12


def test_expm_taylor_rejects_large_arguments():
    with pytest.raises(ContractError):
        oracles.expm_taylor(_gram_8(), 10.0, order=30)


def test_taylor_loop_on_vectors_matches_the_operator():
    rng = np.random.default_rng(5)
    block = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    u = oracles.expm_taylor(_gram_8(), np.pi / 4, order=20)
    delta = sim.expm_taylor_minus_identity(_gram_8(), np.pi / 4, 20, block)
    np.testing.assert_allclose(block + delta, u @ block, atol=1e-13)
    real = sim.expm_taylor_minus_identity(_gram_8(), np.pi / 4, 20, block[:, 0].real)
    np.testing.assert_allclose(real, (u - np.eye(8)) @ block[:, 0].real, atol=1e-13)


def test_norm_upper_bound_reads_the_csr_arrays():
    # The same value as sqrt(max column sum * max row sum) of scipy's |A|.
    rng = np.random.default_rng(4)
    for n in [1, 1, 2, 3] + list(rng.integers(1, 40, size=40)):
        dense = rng.integers(-9, 10, size=(n, n)) * (rng.random((n, n)) < 0.3)
        matrix = so.from_dense(dense)
        magnitude = abs(matrix.csr)
        want = float(math.sqrt(magnitude.sum(axis=0).max() * magnitude.sum(axis=1).max()))
        assert sim._norm_upper_bound(matrix) == want


def test_first_product_rounds_each_row_once():
    # Entries +-1 and +-2 make every product exact, so a row's sum errs only
    # by the final rounding and the cascade's second-order term (Ogita, Rump
    # and Oishi, Prop. 4.5): |got - exact| <= u |exact| + gamma_{m-1}^2 sum |a_ij x_j|.
    from fractions import Fraction

    u = np.finfo(np.float64).eps / 2
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        dense = rng.choice([-2, -1, 0, 0, 0, 1, 2], size=(n, n))
        a = so.from_dense(dense)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)
        x[rng.integers(n)] = -x.sum()  # a row or two with cancellation
        z = x + 1j * rng.permutation(x)
        got, got_complex = so._rounded_once_products(a, x), so._rounded_once_products(a, z)
        assert np.array_equal(got_complex.real, got)
        for i in range(n):
            terms = [Fraction(int(dense[i, j])) * Fraction(float(x[j])) for j in range(n)]
            exact = sum(terms, Fraction(0))
            m = np.count_nonzero(dense[i])
            gamma = (m - 1) * u / (1 - (m - 1) * u)
            bound = u * abs(exact) + gamma**2 * sum(abs(t) for t in terms)
            assert abs(Fraction(float(got[i])) - exact) <= bound
            assert got_complex[i].imag == so._rounded_once_products(a, z.imag)[i]
        # A column block is summed column by column, to the same bits.
        block = so._rounded_once_products(a, np.stack([x, z.imag], axis=1))
        assert np.array_equal(block, np.stack([got, got_complex.imag], axis=1))


def _scipy_taylor_minus_identity(matrix, evo_time, order, x):
    """The Taylor sum with scipy's CSR product for every term after the first."""
    a = matrix.csr.astype(np.float64)
    w, total = x, np.zeros(x.shape, dtype=complex)
    for k in range(1, order + 1):
        w = (so._rounded_once_products(matrix, w) if k == 1 else a @ w) * (evo_time / k)
        total += (-1j) ** (k % 4) * w
    return total


def test_plain_products_are_scipys_csr_row_loop_bit_for_bit():
    # Each row's products added in column order onto 0, as scipy's CSR product
    # adds them: the same bits, signed zeros included, for vectors, column
    # blocks and complex vectors, and so the same Taylor sum.
    rng = np.random.default_rng(12)
    for _ in range(150):
        n = int(rng.integers(1, 30))
        dense = rng.integers(-9, 10, size=(n, n)) * (rng.random((n, n)) < rng.random())
        matrix = so.from_dense(dense)
        a = matrix.csr.astype(np.float64)
        rows = so._padded_rows(matrix)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
        x[rng.random(n) < 0.2] = -0.0
        for vector in (x, rng.standard_normal((n, 3)), x + 1j * rng.permutation(x)):
            got = so._row_sums(so._product_table(rows, vector))
            assert got.tobytes() == (a @ vector).tobytes()
        t = np.pi / max(sim._norm_upper_bound(matrix), 1.0)
        got = sim.expm_taylor_minus_identity(matrix, t, 12, x)
        assert got.tobytes() == _scipy_taylor_minus_identity(matrix, t, 12, x).tobytes()


def test_taylor_unitarity_defect_bounds_the_interval():
    for order in (1, 2, 5, 9, 14):
        for x in (0.5, 1.0, np.pi):
            ys = np.linspace(-x, x, 4001)
            p = sum((-1j * ys) ** k / math.factorial(k) for k in range(order + 1))
            seen = np.abs(np.abs(p) ** 2 - 1).max()
            bound = sim.taylor_unitarity_defect(x, order)
            assert seen <= bound * (1 + 1e-9) + 1e-15
            assert bound <= 2.5 * sim.taylor_tail_bound(x, order)
    # Degree 2: |1 - iy - y^2/2|^2 = 1 + y^4/4 exactly.
    assert sim.taylor_unitarity_defect(2.0, 2) == pytest.approx(4.0, rel=1e-15)


def test_phase_read_matches_dense_one_bit_pe():
    gram = _gram_8_dense().astype(float)
    lams, vecs = np.linalg.eigh(gram)
    u = oracles.expm_taylor(_gram_8(), np.pi / 4, order=30)
    for idx in (0, 3, 7):
        acceptance, rejection = sim.phase_read(_gram_8(), np.pi / 4, 30, vecs[:, idx])
        assert acceptance == pytest.approx(oracles.one_bit_pe(u, vecs[:, idx]), abs=1e-13)
        assert rejection == pytest.approx(np.sin(lams[idx] * np.pi / 8) ** 2, rel=1e-12)
    with pytest.raises(ContractError, match="not unitary"):
        sim.phase_read(_gram_8(), np.pi / 4, 5, vecs[:, 0])


def test_taylor_tail_bound_values():
    # x^{K+1}/(K+1)! * e^x remainder for the degree-K sum.
    assert sim.taylor_tail_bound(1.0, 3) == pytest.approx(
        np.exp(1.0) / 24.0, rel=1e-12
    )
    assert sim.taylor_tail_bound(np.pi, 25) < 1e-12
    assert sim.taylor_tail_bound(0.0, 5) == 0.0


def test_taylor_order_meets_target():
    for x in (0.5, 1.0, np.pi):
        for eps in (1e-3, 1e-8, 1e-12):
            order = sim.taylor_order(x, eps)
            assert sim.taylor_tail_bound(x, order) <= eps
            if order > 1:
                assert sim.taylor_tail_bound(x, order - 1) > eps


def test_one_bit_pe_eigenvector_law():
    gram = _gram_8_dense().astype(float)
    lams, vecs = np.linalg.eigh(gram)
    u = sim.expm_exact(gram, np.pi / 4)
    for idx in (0, 3, 7):
        got = oracles.one_bit_pe(u, vecs[:, idx])
        want = (1 + np.cos(lams[idx] * np.pi / 4)) / 2
        assert got == pytest.approx(want, abs=1e-10)


def test_one_bit_pe_rejects_nonunitary():
    with pytest.raises(ContractError):
        oracles.one_bit_pe(np.diag([1.0, 0.5]), np.array([1.0, 0.0]))


def test_acceptance_probability_on_density_operator():
    from gaplab.protocols import rotation_verifier

    verifier = rotation_verifier(0.9, 0.9, 0.1)
    pure = np.array([0.0, 1.0])
    rho = np.outer(pure, pure)
    direct = oracles.acceptance_probability(verifier, pure)
    mixed = oracles.acceptance_probability(verifier, rho)
    assert direct == pytest.approx(0.9, abs=1e-12)
    assert mixed == pytest.approx(direct, abs=1e-12)


def test_circuit_unitary_cap():
    with pytest.raises(ResourceLimitError):
        oracles.circuit_unitary(sim.QuantumCircuit(11))
