"""Exact statevector simulation and matrix exponentials.

Everything here is computed from amplitudes, never sampled: the
experiments downstream resolve probability differences of order
2^-24 and smaller, which no sampling backend could see.  A state is a
plain complex ndarray of 2^n amplitudes, indexed with qubit 0 as the
least significant bit: ``run_circuit`` returns one, and every function
here that takes a state takes an array.  A gate is a (qubits, matrix)
pair whose local index reads the same way, first listed qubit least
significant.

The exponential e^{-iAt} comes in two flavors: spectral decomposition
of a dense Hermitian array (``expm_exact``, the ground truth) and the
truncated Taylor sum, whose analytic tail bound is what the gapped
verifier budgets against.  The Taylor sum reads A as a RowOracleMatrix
and has one loop, ``expm_taylor_minus_identity``, which applies it to a
vector or column block with one product per term, on the padded rows
``sparse_oracle`` keeps; ``phase_read`` applies it to its witness alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, exp, factorial, lgamma, log, pi, sqrt
from typing import Sequence

import numpy as np

from .errors import ContractError, ResourceLimitError
from .sparse_oracle import RowOracleMatrix, _product_table, _row_sums, _rounded_once_sums
from .spectral import _require_hermitian

MAX_QUBITS = 20
# Dense operators on a whole circuit's qubits (the accept operator's
# columns) refuse circuits wider than this.
DENSE_QUBIT_CAP = 10
NORM_TOL = 1e-12
MAX_TAYLOR_ORDER = 1000

_INV_SQRT2 = 1.0 / sqrt(2.0)
_MINUS_I_POWERS = (1, -1j, -1, 1j)  # (-i)^k by k mod 4


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only: one matrix that many gates or terms share."""
    array.flags.writeable = False
    return array


GATE_MATRICES = {name: _read_only(matrix) for name, matrix in {
    "H": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * pi / 4)]], dtype=complex),
    # Local index: first listed qubit (the control) is the low bit.
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
}.items()}


def _check_qubits(qubits: tuple, num_qubits: int, what: str) -> None:
    """Refuse ``what`` if it repeats a qubit or leaves the register 0..num_qubits - 1."""
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{what} repeats a qubit: {qubits}")
    if any(not 0 <= q < num_qubits for q in qubits):
        raise ValueError(f"{what} touches a qubit outside 0..{num_qubits - 1}")


def _check_operator(qubits: tuple, matrix: np.ndarray, num_qubits: int, what: str) -> None:
    """Refuse a ``what`` (gate or term) that repeats a qubit, leaves the register, or misfits."""
    _check_qubits(qubits, num_qubits, what)
    want, shape = 2 ** len(qubits), np.shape(matrix)
    if shape != (want, want):
        raise ValueError(f"{what} matrix shape {shape} does not fit {qubits}")


@dataclass
class QuantumCircuit:
    """Ordered gate list on a fixed qubit count; a gate is its (qubits, matrix) pair."""

    num_qubits: int
    gates: list[tuple[tuple[int, ...], np.ndarray]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ResourceLimitError(
                f"qubit count {self.num_qubits} outside [1, {MAX_QUBITS}]"
            )
        for qubits, matrix in self.gates:
            self._check_gate(qubits, matrix)

    def _check_gate(self, qubits: tuple[int, ...], matrix: np.ndarray) -> None:
        _check_operator(qubits, matrix, self.num_qubits, "gate")
        if len(qubits) > 2:
            raise ValueError("gates are limited to 1 or 2 qubits")

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def append(self, name: str, *qubits: int, matrix: np.ndarray | None = None) -> None:
        """Append a named gate of ``GATE_MATRICES``, or ``matrix`` under any name."""
        if matrix is None:
            matrix = GATE_MATRICES.get(name.upper())
            if matrix is None:
                raise ValueError(f"unknown gate {name.upper()!r} without an injected matrix")
        self._check_gate(qubits, matrix)
        self.gates.append((qubits, matrix))


def _apply_to_columns(
    cols: np.ndarray, num_qubits: int, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a local unitary to every column of a (2^n, batch) array.

    Each output amplitude is the sum of the gate row's products taken in
    local-index order, with elementwise products and sums rather than a
    BLAS product, whose kernel (and so its rounding) changes with the
    batch width: a column's image is the same bits alone or in a block.
    """
    j = len(qubits)
    batch = cols.shape[1]
    tensor = cols.reshape([2] * num_qubits + [batch])
    # State axis of qubit q is num_qubits - 1 - q; moved to the front,
    # the gate's qubits index the rows in local order (first qubit lowest).
    state_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    local = np.moveaxis(tensor, state_axes, list(range(j))).reshape(2**j, -1)
    out = matrix[:, :1] * local[0]
    for i in range(1, 2**j):
        out += matrix[:, i : i + 1] * local[i]
    moved = np.moveaxis(out.reshape(tensor.shape), list(range(j)), state_axes)
    return moved.reshape(2**num_qubits, batch)


def run_circuit(circuit: QuantumCircuit, state: np.ndarray | None = None) -> np.ndarray:
    """The circuit's image of a state (|0...0> by default), as a new complex array.

    ``state`` may also be a (2^n, k) block, whose k columns run through
    one gate loop together; the norm check holds column by column.
    """
    dim = 2**circuit.num_qubits
    if state is None:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
    else:
        amps = np.array(state, dtype=complex)
    if amps.ndim not in (1, 2) or amps.shape[0] != dim:
        raise ContractError(
            f"state dimension {amps.shape} does not match {circuit.num_qubits} qubits"
        )
    norm_in = np.linalg.norm(amps, axis=0)
    cols = amps.reshape(dim, -1)
    for qubits, matrix in circuit.gates:
        cols = _apply_to_columns(cols, circuit.num_qubits, matrix, qubits)
    out = cols.reshape(amps.shape)
    drift = np.abs(np.linalg.norm(out, axis=0) - norm_in)
    if np.any(drift > NORM_TOL * np.maximum(1.0, norm_in)):
        raise ContractError("circuit application did not preserve the norm")
    return out


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
    """Upper bound on the spectral norm: sqrt of (1-norm times inf-norm).

    Both norms come straight from the CSR arrays: row sums of |a_ij| as
    differences of one int64 running sum, column sums by ``bincount``,
    exact while they stay below 2^53.
    """
    magnitude = np.abs(matrix.data)
    running = np.concatenate(([0], np.cumsum(magnitude)))
    rows = running[matrix.indptr[1:]] - running[matrix.indptr[:-1]]
    cols = np.bincount(matrix.indices, weights=magnitude, minlength=matrix.dim)
    return float(sqrt(int(cols.max()) * int(rows.max())))


def expm_taylor_minus_identity(
    matrix: RowOracleMatrix, evo_time: float, order: int, x: np.ndarray
) -> np.ndarray:
    """(U_K - I) x for the degree-``order`` Taylor sum U_K of e^{-i A t}.

    Returns sum_{k=1..order} (-i A t)^k / k! x for a vector or a column
    block ``x`` at the cost of ``order`` sparse products; the operator
    itself is never formed.  Term k is (-i)^k w_k with w_k = (t/k) A w_{k-1}
    and w_0 = x, so a real x stays real through the recurrence and the
    powers of -i enter only when the terms are summed.  Every product
    reads the oracle's own arrays, padded once (``RowOracleMatrix.padded``).

    The first product sums each row by ``_rounded_once_sums``.  That
    product carries the read's cancellation: on an eigenvector at a
    small lambda each row of A x is about ||A|| / lambda times smaller
    than its terms, and every later term is smaller again by lambda t.
    Those later products add each row's products in column order
    (``_row_sums``), the sums of a float64 CSR product.

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
    rows = matrix.padded
    w = np.asarray(x)
    total = np.zeros(w.shape, dtype=complex)
    for k in range(1, order + 1):
        w = (_rounded_once_sums if k == 1 else _row_sums)(_product_table(rows, w)) * (evo_time / k)
        total += _MINUS_I_POWERS[k % 4] * w
    return total


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


def phase_read(
    matrix: RowOracleMatrix, evo_time: float, order: int, psi: np.ndarray,
    unitarity_tol: float = 1e-8
) -> tuple[float, float]:
    """(outcome-0, outcome-1) probabilities of one-bit phase estimation of U_K on psi.

    U_K is the degree-``order`` Taylor sum of e^{-i A t}, applied to psi
    only: v = (U_K - I) psi costs ``order`` sparse products.  Outcome 1
    (rejection) is ||v||^2 / 4 and outcome 0 (acceptance) is
    ||2 psi + v||^2 / 4; neither is formed as 1 minus the other, so a
    rejection of order 2^-2g keeps its relative precision.  For an
    eigenvector with eigenvalue lam the rejection is sin^2(lam t / 2).

    Two checks stand in for a test of U_K^dagger U_K = I, which would
    need U_K as a dense operator:
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
