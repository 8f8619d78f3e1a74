"""Statevector simulation, exact and truncated evolutions, phase readout."""

import math

import numpy as np
import pytest

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
