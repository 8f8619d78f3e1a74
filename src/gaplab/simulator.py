"""Exact statevector simulation and matrix exponentials.

Everything here is computed from amplitudes, never sampled: the
experiments downstream resolve probability differences of order
2^-24 and smaller, which no sampling backend could see.  A state is a
plain complex ndarray of 2^n amplitudes, indexed with qubit 0 as the
least significant bit: ``run_circuit`` returns one, and every function
here that takes a state takes an array.  A gate on qubits (a, b) reads
its local index the same way, first listed qubit least significant.

The exponential e^{-iAt} comes in two flavors: spectral decomposition
of a dense Hermitian array (``expm_exact``, the ground truth) and the
truncated Taylor sum, whose analytic tail bound is what the gapped
verifier budgets against.  The Taylor sum reads A as a RowOracleMatrix
and has one loop, ``expm_taylor_minus_identity``, which applies it to a
vector or column block with one sparse product per term; the
verifier's ``phase_read`` applies it to its witness alone, and
``expm_taylor`` (the loop on the identity) and the dense ``one_bit_pe``
remain as small-dimension references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb, exp, factorial, lgamma, log, pi, sqrt
from typing import Sequence

import numpy as np

from .errors import ContractError, ResourceLimitError
from .sparse_oracle import RowOracleMatrix, to_csr
from .spectral import _require_hermitian

MAX_QUBITS = 20
# Dense operators on a whole circuit's qubits (circuit_unitary, the
# accept operator's columns) refuse circuits wider than this.
DENSE_QUBIT_CAP = 10
NORM_TOL = 1e-12
MAX_TAYLOR_ORDER = 1000

_INV_SQRT2 = 1.0 / sqrt(2.0)
_MINUS_I_POWERS = (1, -1j, -1, 1j)  # (-i)^k by k mod 4
GATE_MATRICES = {
    "H": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * pi / 4)]], dtype=complex),
    # Local index: first listed qubit (the control) is the low bit.
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
}
GATE_ARITY = {"H": 1, "X": 1, "T": 1, "CNOT": 2}


@dataclass(frozen=True)
class Gate:
    """One circuit element: a named gate or an injected dense unitary."""

    name: str
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = None

    def resolved_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return GATE_MATRICES[self.name]


@dataclass
class QuantumCircuit:
    """Ordered gate list on a fixed qubit count."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ResourceLimitError(
                f"qubit count {self.num_qubits} outside [1, {MAX_QUBITS}]"
            )
        for g in self.gates:
            self._check_gate(g)

    def _check_gate(self, g: Gate) -> None:
        if len(set(g.qubits)) != len(g.qubits):
            raise ValueError(f"gate {g.name} repeats a qubit: {g.qubits}")
        for q in g.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"gate {g.name} touches qubit {q} of {self.num_qubits}")
        if g.matrix is None:
            if g.name not in GATE_MATRICES:
                raise ValueError(f"unknown gate {g.name!r} without an injected matrix")
            if len(g.qubits) != GATE_ARITY[g.name]:
                raise ValueError(f"gate {g.name} takes {GATE_ARITY[g.name]} qubits")
        else:
            want = 2 ** len(g.qubits)
            if g.matrix.shape != (want, want):
                raise ValueError(
                    f"injected matrix shape {g.matrix.shape} does not fit "
                    f"{len(g.qubits)} qubits"
                )
            if len(g.qubits) > 2:
                raise ValueError("injected unitaries are limited to 1 or 2 qubits")

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def append(self, name: str, *qubits: int, matrix: np.ndarray | None = None) -> None:
        g = Gate(name.upper(), tuple(qubits), matrix)
        self._check_gate(g)
        self.gates.append(g)

    def to_dict(self) -> dict:
        out = []
        for g in self.gates:
            if g.matrix is None:
                out.append([g.name, *g.qubits])
            else:
                out.append(
                    [
                        g.name,
                        list(g.qubits),
                        [[[float(v.real), float(v.imag)] for v in row] for row in g.matrix],
                    ]
                )
        return {"qubits": self.num_qubits, "gates": out}

    @classmethod
    def from_dict(cls, spec: dict) -> "QuantumCircuit":
        circuit = cls(num_qubits=int(spec["qubits"]))
        for entry in spec["gates"]:
            name = entry[0].upper()
            if name in GATE_MATRICES:
                circuit.append(name, *(int(q) for q in entry[1:]))
            else:
                qubits = [int(q) for q in entry[1]]
                mat = np.array(
                    [[complex(re, im) for re, im in row] for row in entry[2]]
                )
                circuit.append(name, *qubits, matrix=mat)
        return circuit

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "QuantumCircuit":
        return cls.from_dict(json.loads(text))


def _apply_to_columns(
    cols: np.ndarray, num_qubits: int, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a local unitary to every column of a (2^n, batch) array."""
    j = len(qubits)
    batch = cols.shape[1]
    tensor = cols.reshape([2] * num_qubits + [batch])
    g = matrix.reshape([2] * (2 * j))
    # Gate axes after reshape: outputs MSB..LSB, then inputs MSB..LSB.
    # State axis of qubit q is num_qubits - 1 - q.
    in_axes = list(range(j, 2 * j))
    state_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    moved = np.tensordot(g, tensor, axes=(in_axes, state_axes))
    moved = np.moveaxis(moved, list(range(j)), state_axes)
    return moved.reshape(2**num_qubits, batch)


def run_circuit(circuit: QuantumCircuit, state: np.ndarray | None = None) -> np.ndarray:
    """The circuit's image of a state (|0...0> by default), as a new complex array."""
    if state is None:
        amps = np.zeros(2**circuit.num_qubits, dtype=complex)
        amps[0] = 1.0
    else:
        amps = np.array(state, dtype=complex)
    if amps.shape != (2**circuit.num_qubits,):
        raise ContractError(
            f"state dimension {amps.shape} does not match {circuit.num_qubits} qubits"
        )
    norm_in = np.linalg.norm(amps)
    cols = amps.reshape(-1, 1)
    for g in circuit.gates:
        cols = _apply_to_columns(cols, circuit.num_qubits, g.resolved_matrix(), g.qubits)
    out = cols.reshape(-1)
    if abs(np.linalg.norm(out) - norm_in) > NORM_TOL * max(1.0, norm_in):
        raise ContractError("circuit application did not preserve the norm")
    return out


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense unitary of the whole circuit (at most DENSE_QUBIT_CAP qubits)."""
    if circuit.num_qubits > DENSE_QUBIT_CAP:
        raise ResourceLimitError(
            f"dense circuit unitary capped at {DENSE_QUBIT_CAP} qubits"
        )
    dim = 2**circuit.num_qubits
    cols = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        cols = _apply_to_columns(cols, circuit.num_qubits, g.resolved_matrix(), g.qubits)
    return cols


def random_circuit(
    num_qubits: int, gate_count: int, rng: np.random.Generator
) -> QuantumCircuit:
    """Uniformly random circuit over the fixed gate set (for tests)."""
    circuit = QuantumCircuit(num_qubits)
    names = sorted(GATE_MATRICES)
    for _ in range(gate_count):
        name = names[rng.integers(len(names))]
        if GATE_ARITY[name] == 1 or num_qubits == 1:
            name = name if GATE_ARITY[name] == 1 else "H"
            circuit.append(name, int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(name, int(a), int(b))
    return circuit


# ---------------------------------------------------------------------------
# matrix exponentials


def expm_exact(matrix, evo_time: float) -> np.ndarray:
    """e^{-i A t} by spectral decomposition of Hermitian A."""
    w, v = np.linalg.eigh(np.asarray(_require_hermitian(matrix), dtype=complex))
    return (v * np.exp(-1j * w * evo_time)) @ v.conj().T


def taylor_tail_bound(x: float, order: int) -> float:
    """Analytic remainder bound x^{K+1}/(K+1)! * e^x for the degree-K sum."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    return exp((order + 1) * log(x) - lgamma(order + 2) + x)


def taylor_order(x: float, target_error: float) -> int:
    """Smallest truncation order, at most MAX_TAYLOR_ORDER, whose tail bound meets the target."""
    if target_error <= 0:
        raise ValueError("target error must be positive")
    for k in range(1, MAX_TAYLOR_ORDER + 1):
        if taylor_tail_bound(x, k) <= target_error:
            return k
    raise ValueError(f"no order up to {MAX_TAYLOR_ORDER} reaches error {target_error}")


def _norm_upper_bound(matrix: RowOracleMatrix) -> float:
    """Upper bound on the spectral norm: sqrt of (1-norm times inf-norm)."""
    abs_a = abs(to_csr(matrix))
    return float(sqrt(abs_a.sum(axis=0).max() * abs_a.sum(axis=1).max()))


def expm_taylor_minus_identity(
    matrix: RowOracleMatrix, evo_time: float, order: int, x: np.ndarray
) -> np.ndarray:
    """(U_K - I) x for the degree-``order`` Taylor sum U_K of e^{-i A t}.

    Returns sum_{k=1..order} (-i A t)^k / k! x for a vector or a column
    block ``x`` at the cost of ``order`` sparse products; the operator
    itself is never formed.  Term k is (-i)^k w_k with w_k = (t/k) A w_{k-1}
    and w_0 = x, so a real x stays real through the recurrence and the
    powers of -i enter only when the terms are summed.

    Requires ||A|| * t <= pi (checked through a cheap norm bound): the
    tail estimate, and the whole phase-reading scheme downstream, live
    on that range.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if evo_time < 0:
        raise ValueError("evolution time must be nonnegative")
    if _norm_upper_bound(matrix) * evo_time > pi * (1 + 1e-9):
        raise ContractError("||A|| * evo_time exceeds pi")
    a = to_csr(matrix).astype(np.float64)
    w = np.asarray(x)
    total = np.zeros(w.shape, dtype=complex)
    for k in range(1, order + 1):
        w = (a @ w) * (evo_time / k)
        total += _MINUS_I_POWERS[k % 4] * w
    return total


def expm_taylor(matrix: RowOracleMatrix, evo_time: float, order: int) -> np.ndarray:
    """Degree-``order`` Taylor sum for e^{-i A t} as a dense operator.

    I plus ``expm_taylor_minus_identity`` applied to the identity: a
    small-dimension oracle for tests; the verifier applies the sum to
    its witness only.
    """
    eye = np.eye(matrix.dim)
    return eye + expm_taylor_minus_identity(matrix, evo_time, order, eye)


def taylor_unitarity_defect(x: float, order: int) -> float:
    """Certified bound on sup over |y| <= x of | |p(y)|^2 - 1 |, p the degree-K Taylor sum of e^{-iy}.

    For Hermitian A with ||A|| t <= x the truncated exponential
    U = p(A t) has U^dagger U = |p|^2(A t), so this bounds
    ||U^dagger U - I||_2 on the whole spectral interval.  |p(y)|^2 is an
    even polynomial that agrees with |e^{-iy}|^2 = 1 through degree K;
    by the partial alternating binomial sum, its coefficient of y^j for
    even j in (K, 2K] is +-2 C(j-1, K)/j!, and odd ones vanish.  The
    bound is the sum of the coefficient magnitudes times x^j.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return sum(
        2 * comb(j - 1, order) / factorial(j) * x**j
        for j in range(order + 1, 2 * order + 1)
        if j % 2 == 0
    )


# ---------------------------------------------------------------------------
# phase-reading primitives


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


def phase_read(
    matrix: RowOracleMatrix, evo_time: float, order: int, psi: np.ndarray,
    unitarity_tol: float = 1e-8,
) -> tuple[float, float]:
    """(outcome-0, outcome-1) probabilities of one-bit phase estimation of U_K on psi.

    U_K is the degree-``order`` Taylor sum of e^{-i A t}, applied to psi
    only: v = (U_K - I) psi costs ``order`` sparse products.  Outcome 1
    (rejection) is ||v||^2 / 4 and outcome 0 (acceptance) is
    ||2 psi + v||^2 / 4; neither is formed as 1 minus the other, so a
    rejection of order 2^-2g keeps its relative precision.  For an
    eigenvector with eigenvalue lam the rejection is sin^2(lam t / 2).

    Two checks replace the dense unitarity test of ``one_bit_pe``:
    ``taylor_unitarity_defect`` certifies ||U_K^dagger U_K - I||_2 over
    the whole interval |y| <= pi that the norm check of
    ``expm_taylor_minus_identity`` guarantees, and the norm drift
    | ||U_K psi|| - ||psi|| | is checked on the witness itself; both
    against ``unitarity_tol``.
    """
    vec = np.asarray(psi)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise ContractError("state is not normalized")
    defect = taylor_unitarity_defect(pi, order)
    if defect > unitarity_tol:
        raise ContractError(
            f"Taylor sum not unitary within {unitarity_tol:.1e} (certified defect {defect:.3e})"
        )
    v = expm_taylor_minus_identity(matrix, evo_time, order, vec)
    drift = abs(float(np.linalg.norm(vec + v)) - float(np.linalg.norm(vec)))
    if drift > unitarity_tol:
        raise ContractError(f"norm drift {drift:.3e} on the witness exceeds {unitarity_tol:.1e}")
    acceptance = float(np.linalg.norm(2 * vec + v) ** 2 / 4.0)
    rejection = float(np.linalg.norm(v) ** 2 / 4.0)
    return acceptance, rejection


def measure_probability(state, qubit: int, outcome: int) -> float:
    """Probability that one qubit reads the given value."""
    amps = np.asarray(state)
    n = amps.shape[0]
    idx = np.arange(n)
    mask = ((idx >> qubit) & 1) == outcome
    return float(np.sum(np.abs(amps[mask]) ** 2))


def pad_with_ancillas(witness, ancilla_k: int) -> np.ndarray:
    """witness (x) |0^k>, ancillas as the high qubits."""
    vec = np.asarray(witness)
    out = np.zeros(len(vec) * 2**ancilla_k, dtype=complex)
    out[: len(vec)] = vec
    return out


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
        _require_hermitian(raw, 1e-10)
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
