"""Verification protocols over the simulator.

The pipeline realized here, end to end at desk scale:

* a Verifier (circuit + witness/ancilla split + promise pair) induces a
  positive semidefinite accept operator whose Rayleigh quotient is the
  acceptance probability;
* the trace of that operator against the maximally mixed witness turns
  existence questions into trace estimates;
* phase estimation on the product of the two canonical reflections
  amplifies an exponentially small promise gap; by Jordan's lemma each
  accept-operator eigenvector contributes a Fejer kernel at its walk
  eigenphase, so each per-trial register mass is a Fejer arc sum, taken
  from the terms near the kernel's poles plus an Euler-Maclaurin tail in
  a cost independent of the register size, with no register simulated,
  and the median test is evaluated in closed form;
* a gapped-matrix instance (least eigenvalue 0 versus at least 2^-g)
  is decided by one-bit phase reading of the truncated-Taylor
  exponential, applied matrix-free to the bottom eigenvector (on a
  reduction's Gram, the closed form on its own path's rows) and read on
  the rejection side, sin^2(lam t/2), so that gaps down to 2^-37 on a
  reduction's Gram survive double precision;
* a verifier is compiled into a 5-local clock Hamiltonian, held as its
  gate list (``ClockInstance``; its terms are built on request), whose
  ground energy is read from its (T+1) 2^n legal-clock block, exactly,
  rather than from all 2^(n+T) clock strings, and is bracketed by
  bisection on banded Cholesky threshold tests.

Decision thresholds for the median test sit at phi_c + 2^-alpha and
phi_s - 2^-alpha rather than at the bare phi values: a verifier whose
acceptance equals c exactly puts the true phase on the threshold, where
half the register mass lands above it and the median test loses its
completeness.  The alpha invariant (2^-alpha below a quarter of the
phase gap) leaves room for this padding on both sides.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import acos, ceil, comb, cos, exp, floor, log, log1p, log2, pi, sin, sqrt, tan

import numpy as np

from .errors import ConfigurationError, ContractError, PromiseViolation, ResourceLimitError
from .sparse_oracle import (
    DENSE_CAP,
    RowOracleMatrix,
    _field,
    _integer,
    materialize,
    norm_bound,
)
from .spectral import GappedInstance, _bottom_block_eigenpair, _rcm_band, _require_hermitian, _symmetric_csr
from .simulator import (
    DENSE_QUBIT_CAP,
    QuantumCircuit,
    _apply_to_columns,
    _check_operator,
    _check_qubits,
    _read_only,
    expm_exact,
    phase_read,
    run_circuit,
    taylor_order,
)

UNIT_ROUNDOFF = 2.0**-53
ENERGY_BITS_CAP = 40
GRID_SLACK = 4 * UNIT_ROUNDOFF  # relative slack of the register cuts
ARC_WINDOW = 48  # kernel terms this close to a pole are summed one by one
POINT_MASS_FRAC = 2.0**-30  # a Fejer kernel this close to the grid is a point mass
# B_2p/(2p)! and Q_p with d^(2p-1)/dz^(2p-1) csc^2 z = -cot z Q_p(cot^2 z), for
# p = 1..4: the derivatives P_k(cot z) of csc^2 follow P_0(u) = 1 + u^2 and
# P_(k+1)(u) = -(1 + u^2) P_k'(u).
_EULER_MACLAURIN = (
    (1 / 12, (2, 2)),
    (-1 / 720, (16, 40, 24)),
    (1 / 30240, (272, 1232, 1680, 720)),
    (-1 / 1209600, (7936, 56320, 129024, 120960, 40320)),
)


# ---------------------------------------------------------------------------
# verifiers and accept operators


@dataclass
class Verifier:
    """Verification circuit with its witness split and promise pair.

    Qubits 0..witness_qubits-1 hold the witness; the remaining
    ancilla_k qubits start in |0>.  Acceptance is the probability that
    output_qubit reads 1 after the circuit runs.
    """

    circuit: QuantumCircuit
    witness_qubits: int
    ancilla_k: int
    output_qubit: int
    completeness_c: float
    soundness_s: float

    def __post_init__(self) -> None:
        if self.witness_qubits < 1 or self.ancilla_k < 0:
            raise ValueError("need at least one witness qubit and ancilla_k >= 0")
        if self.witness_qubits + self.ancilla_k != self.circuit.num_qubits:
            raise ValueError(
                f"witness {self.witness_qubits} + ancillas {self.ancilla_k} "
                f"!= circuit qubits {self.circuit.num_qubits}"
            )
        if not 0 <= self.output_qubit < self.circuit.num_qubits:
            raise ValueError(f"output qubit {self.output_qubit} out of range")
        if not 0.0 <= self.soundness_s < self.completeness_c <= 1.0:
            raise ValueError(
                f"promise pair must satisfy 0 <= s < c <= 1, got "
                f"c={self.completeness_c}, s={self.soundness_s}"
            )

    @property
    def gate_count_T(self) -> int:
        return self.circuit.gate_count


@dataclass
class AcceptOperator:
    """Hermitian PSD operator whose Rayleigh quotient is acceptance."""

    m: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = 2**self.m
        arr = np.asarray(_require_hermitian(self.matrix), dtype=complex)
        if arr.shape != (dim, dim):
            raise ValueError(f"operator shape {arr.shape} does not fit m={self.m}")
        self._eigh = tuple(_read_only(x) for x in np.linalg.eigh(arr))
        w = self._eigh[0]
        if w[0] < -1e-10 or w[-1] > 1 + 1e-10:
            raise ContractError(f"acceptance eigenvalues outside [0, 1]: {w[0]}, {w[-1]}")
        self.matrix = arr

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of the one ``eigh`` taken at construction, read-only."""
        return self._eigh

    @property
    def max_acceptance(self) -> float:
        return float(self._eigh[0][-1])

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def accept_operator(verifier: Verifier) -> AcceptOperator:
    """Dense accept operator, assembled column by column.

    Column j is the final state on witness basis j restricted to the
    output-1 subspace; stacking them gives W with Q = W^dagger W, which
    is PSD by construction and whose Rayleigh quotient on every witness
    is that witness's acceptance probability.
    """
    w, _ = _witness_images(verifier)
    q = w.conj().T @ w
    return AcceptOperator(m=verifier.witness_qubits, matrix=(q + q.conj().T) / 2)


def _witness_images(verifier: Verifier) -> tuple[np.ndarray, np.ndarray]:
    """Columns U|j, 0^k> over witness basis states j: (output-1 rows, output-0 rows)."""
    m = verifier.witness_qubits
    n = verifier.circuit.num_qubits
    if n > DENSE_QUBIT_CAP:
        raise ResourceLimitError(
            f"dense accept operator capped at {DENSE_QUBIT_CAP} qubits, got {n}"
        )
    idx = np.arange(2**n)
    out_rows = ((idx >> verifier.output_qubit) & 1) == 1
    # Column j is |j, 0^k>: the ancillas are the high qubits.
    final = run_circuit(verifier.circuit, np.eye(2**n, 2**m, dtype=complex))
    return final[out_rows], final[~out_rows]


def mixed_witness_acceptance(verifier: Verifier) -> float:
    """Acceptance of the maximally mixed witness: 2^-m tr(Q)."""
    op = accept_operator(verifier)
    return op.trace / 2**verifier.witness_qubits


# ---------------------------------------------------------------------------
# exact phase-estimation statistics


@dataclass(frozen=True)
class AmplificationParams:
    """Trial count, phase precision, and the promise thresholds.

    precision_bits is the accuracy target alpha; the phase-estimation register
    carries two extra qubits so that a measured phase lands within
    2^-alpha of the true one with probability well above 15/16.
    """

    trials_r: int
    precision_bits: int
    threshold_phi_c: float
    threshold_phi_s: float

    def __post_init__(self) -> None:
        if self.trials_r < 1:
            raise ValueError("need at least one trial")
        if not 0.0 <= self.threshold_phi_c < self.threshold_phi_s <= 0.5:
            raise ValueError("need 0 <= phi_c < phi_s <= 1/2")
        gap = self.threshold_phi_s - self.threshold_phi_c
        if self.precision_bits < 1 or 2.0**-self.precision_bits >= gap / 4:
            raise ValueError(
                "precision too coarse: 2^-alpha must be below a quarter of the phase gap"
            )
        if self.register_bits >= sys.float_info.max_exp:  # N = 2^b must be a finite float
            raise ValueError(f"precision bits {self.precision_bits} exceed the float range")

    @classmethod
    def from_promise(
        cls,
        completeness_c: float,
        soundness_s: float,
        trials_r: int,
        precision_bits: int | None = None,
    ) -> "AmplificationParams":
        if not 0.0 <= soundness_s < completeness_c <= 1.0:
            raise ValueError("need 0 <= s < c <= 1")
        phi_c = acos(sqrt(completeness_c)) / pi
        phi_s = acos(sqrt(soundness_s)) / pi
        if phi_c == phi_s:
            raise ValueError(f"c={completeness_c} and s={soundness_s} have the same phase {phi_c}")
        if precision_bits is None:
            precision_bits = int(floor(log2(4.0 / (phi_s - phi_c)))) + 1
        return cls(
            trials_r=trials_r,
            precision_bits=precision_bits,
            threshold_phi_c=phi_c,
            threshold_phi_s=phi_s,
        )

    @property
    def register_bits(self) -> int:
        return self.precision_bits + 2

    @property
    def yes_cut(self) -> float:
        return self.threshold_phi_c + 2.0**-self.precision_bits

    @property
    def no_cut(self) -> float:
        return self.threshold_phi_s - 2.0**-self.precision_bits


def median_exceeds(per_trial: float, trials_r: int) -> float:
    """P(at least ceil(r/2) of r independent successes), exactly.

    The binomial coefficient is carried from term to term as an exact
    integer; one past the float range (from r = 1030 on) enters its term
    through its logarithm.
    """
    k = ceil(trials_r / 2)
    q = min(max(per_trial, 0.0), 1.0)
    if q in (0.0, 1.0):  # no term has a logarithm; every trial fails, or every one succeeds
        return float(q == 1.0)
    c, terms = comb(trials_r, k), []
    for i in range(k, trials_r + 1):
        try:
            terms.append(c * q**i * (1 - q) ** (trials_r - i))
        except OverflowError:  # c does not fit a float
            terms.append(exp(log(c) + i * log(q) + (trials_r - i) * log1p(-q)))
        c = c * (trials_r - i) // (i + 1)  # comb(r, i + 1), exactly
    return float(sum(terms))


@dataclass(frozen=True)
class AmplificationOutcome:
    """Exact decision statistics of the median phase test."""

    decision: str  # YES, NO, or PROMISE_VIOLATED
    probability: float
    p_yes: float
    p_no: float
    p_violation: float
    per_trial_yes: float
    per_trial_no: float


def _csc2_tail(a: float, b: float, c: float) -> float:
    """Sum of csc^2(c y) over y = a, a + 1, ..., b by Euler-Maclaurin (a >= ARC_WINDOW - 1/2).

    The antiderivative is -cot(c y)/c and the odd derivatives of csc^2
    are polynomials in cot, so the sum is the integral, the mean of the
    end terms and four Bernoulli corrections.  The remainder is at most
    2 zeta(8)/(2 pi)^8 |d^7/dy^7 csc^2(c a)| ~ 3e-2/(c^2 a^9); scaled
    into a register mass (by at most 1/N^2 = c^2/pi^2) that is below
    3e-18 at a = 47.5.
    """
    ua, ub = 1.0 / tan(c * a), 1.0 / tan(c * b)
    total = (ua - ub) / c + (2.0 + ua * ua + ub * ub) / 2
    power = c
    for weight, poly in _EULER_MACLAURIN:
        qa = qb = 0.0
        for coef in reversed(poly):
            qa = qa * ua * ua + coef
            qb = qb * ub * ub + coef
        total += weight * power * (ua * qa - ub * qb)
        power *= c * c
    return total


def _csc2_run(start: int, delta: float, count: int, n: int) -> float:
    """Sum of csc^2(pi d/N) over distances d = start + i + delta from a pole, i < count.

    Every distance lies in (0, N/2 + 1).  Those below ARC_WINDOW are
    exact (start is an integer and delta = +-frac(N phi) an exact float)
    and are summed term by term; the rest of the run goes to
    ``_csc2_tail``.
    """
    c = pi / n
    near = min(count, max(ARC_WINDOW - start, 0))
    total = 0.0
    if near:
        d = np.arange(start, start + near) + delta
        total = float(np.sum(np.sin(c * d) ** -2.0))
    if near < count:
        total += _csc2_tail(start + near + delta, start + count - 1 + delta, c)
    return total


def _arc_mass(phi: float, width: int, register_bits: int) -> float:
    """Phase-estimation mass of the outcomes |j| <= width (mod N) at eigenphase phi.

    An eigenphase phi on a register of N = 2^b outcomes is read as j
    with probability F(phi - j/N), F(d) = sin^2(pi N d) / (N^2 sin^2(pi d)).
    The numerator equals sin^2(pi N phi) for every j, and N phi is exact
    because N is a power of two.  With N phi = peak + frac, the kernel is
    a point mass on the peak outcome when frac = 0 and within
    (pi frac)^2/3 of one otherwise; below POINT_MASS_FRAC it is taken as
    one, an error under 3e-18, where the peak term csc^2(pi frac/N)
    would otherwise leave the float range as frac -> 0.  Otherwise
    outcome j = peak - m contributes csc^2(pi (m + frac)/N), a term of
    period N in m with its poles at m = -frac (mod N).  Each m is
    measured from its nearest pole, so the arc splits into at most four
    runs of positive terms that move away from a pole, summed in O(1)
    time whatever N is (``_csc2_run``).
    """
    n = 2**register_bits
    x = n * phi
    peak = round(x)
    frac = x - peak
    if abs(frac) < POINT_MASS_FRAC:
        return float(min(peak % n, -peak % n) <= width)
    if 2 * width + 1 >= n:  # the arc covers the whole register
        return 1.0
    half = n // 2
    lo, hi = peak - width, peak + width
    # Offsets r = m - kN from pole k at or above `above` lie at distance
    # r + frac, the ones below it at -r - frac; both are positive.
    above = 0 if frac > 0 else 1
    total = 0.0
    for k in range((lo + half) // n, (hi + half) // n + 1):
        r_lo = max(lo, k * n - half) - k * n
        r_hi = min(hi, k * n + half - 1) - k * n
        if r_hi >= above:
            first = max(r_lo, above)
            total += _csc2_run(first, frac, r_hi - first + 1, n)
        if r_lo < above:
            last = min(r_hi, above - 1)
            total += _csc2_run(-last, -frac, last - r_lo + 1, n)
    return sin(pi * frac) ** 2 / n**2 * total


def _walk_phases(verifier: Verifier) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors v_i of Q and the walk eigenphase phi_i = acos(sqrt p_i)/pi of each.

    By Jordan's lemma v_i, padded with blank ancillas, is an equal
    mixture of two eigenvectors of R1 R0 with eigenphases +-phi_i.  The
    angle is taken as atan2(||P0 U v_i||, ||P1 U v_i||) rather than from
    the eigenvalue p_i: near p = 0 or 1 the square root turns an
    eigenvalue rounding error eps into a phase error sqrt(eps), while
    the two norms err by eps.
    """
    accepted, rejected = _witness_images(verifier)
    _, vecs = np.linalg.eigh(accepted.conj().T @ accepted)
    phases = np.arctan2(
        np.linalg.norm(rejected @ vecs, axis=0), np.linalg.norm(accepted @ vecs, axis=0)
    )
    return phases / pi, vecs


def _register_masses(phi: float, params: AmplificationParams) -> tuple[float, float]:
    """(YES mass, mass below the NO cut) of one trial at walk eigenphase +-phi.

    The register reads j with probability (F(phi - j/N) + F(-phi - j/N))/2.
    Both outcome sets below are symmetric under j -> N - j, which maps
    one kernel onto the other, so each mass is one kernel summed over
    one arc.
    """
    n = 2**params.register_bits
    # Folded phase min(j, N-j)/N at or below yes_cut, and below no_cut.  j/N
    # and cut*N are exact, so integer widths reproduce the float comparisons;
    # a cut within a relative GRID_SLACK of an outcome counts as on it.  With
    # cut*N <= N/2 that slack stays below one outcome for b < 52, whereas a
    # fixed phase slack such as 1e-12 spans more outcomes than separate the
    # cuts from c - s = 2^-38 on.
    yes_width = floor(params.yes_cut * n * (1 + GRID_SLACK))
    below_no_width = ceil(params.no_cut * n * (1 - GRID_SLACK)) - 1
    if yes_width > below_no_width:
        raise ContractError(
            f"YES arc (width {yes_width}) passes the NO cut (width {below_no_width})"
        )
    return (
        _arc_mass(phi, yes_width, params.register_bits),
        _arc_mass(phi, below_no_width, params.register_bits),
    )


def nwz_amplify(
    verifier: Verifier, params: AmplificationParams, witness
) -> AmplificationOutcome:
    """Median-of-r phase estimation of R1 R0 on witness tensor blank ancillas.

    The per-trial masses come from one eigendecomposition of the accept
    operator Q: with eigenvalues p_i and witness weights w_i = |<v_i|witness>|^2,
    the register distribution is sum_i w_i (F(phi_i - j/N) + F(-phi_i - j/N))/2
    with phi_i = acos(sqrt p_i)/pi (``_register_masses``).  No register is
    simulated; each eigenvalue costs a fixed number of scalar kernel
    terms (``_arc_mass``), whatever the register size b.  Trials are
    independent and identically distributed, so the median statistics
    follow in closed form, and the returned decision is the most
    probable outcome of the procedure.  A dominant
    strictly-between median is reported as a promise violation rather
    than forced into YES or NO.
    """
    vec = np.asarray(witness, dtype=complex)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise ContractError("witness is not normalized")
    phases, vecs = _walk_phases(verifier)
    weights = np.abs(vecs.conj().T @ vec) ** 2
    masses = np.array([_register_masses(phi, params) for phi in phases])
    per_trial_yes, below_no = np.clip(weights @ masses, 0.0, 1.0).tolist()
    p_yes = median_exceeds(per_trial_yes, params.trials_r)
    # Median >= no_cut iff fewer than ceil(r/2) samples fall below it.
    p_no = 1.0 - median_exceeds(below_no, params.trials_r)
    p_violation = max(1.0 - p_yes - p_no, 0.0)
    options = {"YES": p_yes, "NO": p_no, "PROMISE_VIOLATED": p_violation}
    decision = max(options, key=options.get)
    return AmplificationOutcome(
        decision=decision,
        probability=options[decision],
        p_yes=p_yes,
        p_no=p_no,
        p_violation=p_violation,
        per_trial_yes=per_trial_yes,
        per_trial_no=1.0 - below_no,
    )


def amplified_accept_operator(
    verifier: Verifier, params: AmplificationParams
) -> AcceptOperator:
    """Accept operator of the amplified protocol on the Q eigenbasis.

    Acceptance per trial is affine in the witness's eigenbasis weights,
    so the adversary's optimum sits at an eigenvector of Q; the
    operator diagonal in that basis with the per-eigenvector amplified
    YES probabilities captures the protocol exactly on that strategy
    space (and in particular its extreme eigenvalues and trace).  Each
    probability is the median test on the Jordan-lemma mass of its
    eigenvalue (``_register_masses``), a fixed number of scalar terms
    apiece whatever the register size.
    """
    phases, vecs = _walk_phases(verifier)
    p_yes = [median_exceeds(_register_masses(phi, params)[0], params.trials_r) for phi in phases]
    out = (vecs * p_yes) @ vecs.conj().T
    return AcceptOperator(m=verifier.witness_qubits, matrix=(out + out.conj().T) / 2)


# ---------------------------------------------------------------------------
# the gapped-matrix verifier


@dataclass(frozen=True)
class GappedParams:
    """Derived run parameters of the gapped-matrix phase reader.

    ``completeness`` and ``soundness`` bound the acceptance (outcome 0)
    of the honest and of every witness; ``epsilon`` and
    ``rejection_floor`` bound the rejection (outcome 1) on the same two
    sides, computed without subtracting from 1: the rejection of a
    lambda_min = 0 witness is at most epsilon, and every witness of a
    lambda_min >= 2^-g instance reads at least rejection_floor.

    The acceptance-side bounds are 1 minus a quantity of order 2^-2g and
    lose it to rounding first: at evo_time pi/16 (the Gram matrices of
    the machine reductions) completeness and midpoint round to 1.0 from
    g = 23 and soundness from g = 24.  From there on only the rejection
    side (epsilon, rejection_floor, and the decision's rejection and
    separation) carries the decision.  ``read_error`` bounds the
    rounding in the read's amplitude ||(U_K - I) psi|| (see
    ``gapped_params``).
    """

    evo_time: float
    epsilon: float
    taylor_order: int
    completeness: float
    soundness: float
    rejection_floor: float
    read_error: float

    @property
    def midpoint(self) -> float:
        return (self.completeness + self.soundness) / 2

    @property
    def rejection_midpoint(self) -> float:
        return (self.epsilon + self.rejection_floor) / 2

    @property
    def unitarity_tol(self) -> float:
        return max(1e-8, 2.5 * self.epsilon)


def gapped_params(matrix: RowOracleMatrix | GappedInstance, g: int) -> GappedParams:
    """Evolution time, error budget, and analytic bounds for gap exponent g.

    evo_time t = pi/(entry bound k * sparsity d) keeps ||A|| t <= pi, and
    the Taylor budget is epsilon = 2^-2g t^2 / 16.

    The cap on g comes from rounding in the rejection read, which
    computes v = (U_K - I) psi and reports ||v||^2 / 4.  Write a = 2^-g t.
    Every witness of a lambda_min >= 2^-g instance has
    ||(U - I) psi|| >= 2 sin(a/2) ~ a, the bottom-eigenvector witness of
    a lambda_min = 0 instance has ||(U - I) psi|| <= t (|lam| + ||A psi -
    lam psi||) ~ a/8 (the eigen-residual bound 2^-g/8 is checked by
    ``decide_gapped``), the Taylor error adds at most
    epsilon << a, and the decision threshold sits at about a/sqrt(2) in
    this amplitude.  A rounding error up to a/8 in the computed v
    therefore leaves every decision unchanged.  In double precision
    (unit roundoff u = 2^-53), one sparse product with at most d terms
    per row plus the scaling by t/k errs by at most (d + 2) u |A| |w|
    entrywise, so the k-th term, a product of k of them, errs by at most
    k (d + 2) u (||A|| t)^k / k!, and summing K terms adds K u (e^pi - 1).
    With ||A|| t <= pi,
        ||fl(v) - v|| <= u ((d + 2) pi e^pi + K (e^pi - 1)),
    and g is admissible while this stays below 2^-g t / 8.  For the Gram
    matrices of the machine reductions (d = 8, k = 2, t = pi/16) that
    holds up to g = 37 (K = 38, bound 1.7e-13 against 1.8e-13); sparser
    instances reach a little further (g = 38 at d = 3, 39 at d = 2), and
    this inequality is the only upper limit on g.
    """
    if g < 1:
        raise ValueError(f"gap exponent must be >= 1, got {g}")
    evo_time = pi / (matrix.entry_bound_k * matrix.sparsity_d)
    epsilon = 2.0 ** (-2 * g) * evo_time**2 / 16.0
    order = taylor_order(norm_bound(matrix) * evo_time, epsilon)
    read_error = UNIT_ROUNDOFF * (
        (matrix.sparsity_d + 2) * pi * exp(pi) + order * (exp(pi) - 1)
    )
    if read_error > 2.0**-g * evo_time / 8:
        raise ConfigurationError(
            f"gap exponent {g} too large for sparsity {matrix.sparsity_d} and entry "
            f"bound {matrix.entry_bound_k}: rounding bound {read_error:.2e} on the "
            f"rejection read exceeds 2^-g t/8 = {2.0**-g * evo_time / 8:.2e}"
        )
    completeness = 1.0 - epsilon
    # Exact-exponential acceptance at eigenvalue lam is (1+cos(lam t))/2,
    # decreasing in lam on [0, pi/t]; the Taylor approximation shifts any
    # probability by at most epsilon (1 + epsilon/4).
    soundness = (1.0 + cos(2.0**-g * evo_time)) / 2 + epsilon * (1.0 + epsilon / 4)
    # The same shift on the rejection side, where the exact value is
    # sin^2(lam t / 2): no cancellation at any admissible g.  At lam = 0
    # the exact rejection is 0 and the Taylor error raises it to at most
    # (epsilon/2)^2, so epsilon = 1 - completeness bounds that side, and
    # the rejection midpoint is 1 minus the acceptance midpoint exactly.
    rejection_floor = sin(2.0**-g * evo_time / 2) ** 2 - epsilon * (1.0 + epsilon / 4)
    return GappedParams(
        evo_time=evo_time,
        epsilon=epsilon,
        taylor_order=order,
        completeness=completeness,
        soundness=soundness,
        rejection_floor=rejection_floor,
        read_error=read_error,
    )


@dataclass(frozen=True)
class GappedDecision:
    """Outcome of the honest-prover run on a gapped instance."""

    decision: str
    acceptance: float
    rejection: float
    completeness: float
    soundness: float
    separation: float
    epsilon: float
    evo_time: float
    taylor_order: int


def decide_gapped(matrix: RowOracleMatrix | GappedInstance, g: int) -> GappedDecision:
    """Decide lambda_min = 0 versus >= 2^-g with the honest prover.

    The witness is the bottom eigenvector (``bottom_eigenpair``), the
    best any prover can offer: rejection is sin^2(lam t/2) averaged over
    the witness's eigenbasis weights.  The Taylor sum is applied to that
    vector only, at the cost of taylor_order sparse products, and no
    dense matrix is built.

    On a direct sum of paths, every reduction's Gram, the witness is the
    closed-form eigenvector of one path that attains lambda_min, and the
    products run on that path's rows alone, in the same column order
    under the matrix's declared d and k, so t, the Taylor order and each
    row's floating-point sum are those of the whole matrix, whose other
    rows would only carry zeros.  The path's padded rows are written
    from its closed form (``spectral._path_witness``); a reduction's
    Gram (``spectral.GappedInstance``), a record of its factor A's chain
    table, is never formed.  The first product
    rounds each row's sum once (``expm_taylor_minus_identity``): its
    products, entries +-1 and 2 times the witness, are exact, and on an
    eigenvector it cancels to about lambda / ||A|| of its terms, which
    plain row sums turned into errors of up to 16 ulps in the rejection
    on the corpus Grams.  The read is then cross-checked against the
    closed form: the exact-exponential rejection of an eigenvector is
    sin^2(lam t/2), the Taylor sum moves it by at most
    epsilon (1 + epsilon/4) and rounding by at most ``read_error``, and
    a larger difference raises ContractError.  The decision stays the
    read's.  On a rejecting reduction the witness is a signed constant,
    A psi is exactly 0, and the rejection is exactly 0.0.

    Any other matrix, up to DENSE_CAP rows, gets its witness from one
    dense ``eigh``, read on the whole matrix.  That the Cholesky
    factorization of A - sigma I just below lambda_min exists certifies
    that the instance is positive semidefinite (to within rounding),
    which the 0 versus 2^-g promise presumes; an indefinite instance
    raises ContractError, and a larger one ResourceLimitError.

    A path sum, whose lambda_min is a closed form, raises
    PromiseViolation before any read if 0 < lambda_min < 2^-g.

    The decision is read on the rejection side: YES (lambda_min = 0)
    when the rejection falls below the midpoint of epsilon and
    rejection_floor; the reported separation is the distance to the far
    bound.
    """
    params = gapped_params(matrix, g)
    try:
        pair = _bottom_block_eigenpair(matrix)
    except ContractError as exc:
        raise ContractError(f"verify needs a positive semidefinite instance: {exc}") from exc
    if pair.rows is not None and 0 < pair.lam < 2.0**-g:
        raise PromiseViolation(f"promise violated: lambda_min {pair.lam!r} is neither 0 nor at least 2^-{g}")
    if pair.residual > 2.0**-g / 8:
        raise ContractError(
            f"witness eigen-residual {pair.residual:.3e} exceeds 2^-g/8 = {2.0**-g / 8:.3e}"
        )
    acceptance, rejection = phase_read(
        pair.block, params.evo_time, params.taylor_order, pair.psi, params.unitarity_tol
    )
    if pair.rows is not None:  # the closed form
        law = sin(pair.lam * params.evo_time / 2) ** 2
        budget = params.epsilon * (1.0 + params.epsilon / 4) + params.read_error
        if abs(rejection - law) > budget:
            raise ContractError(
                f"phase read rejection {rejection!r} differs from sin^2(lam t/2) = {law!r}"
                f" at the closed-form lam = {pair.lam!r} by more than {budget:.3e}"
            )
    if rejection < params.rejection_midpoint:
        decision = "YES"
        separation = params.rejection_floor - rejection
    else:
        decision = "NO"
        separation = rejection - params.epsilon
    return GappedDecision(
        decision=decision,
        acceptance=acceptance,
        rejection=rejection,
        completeness=params.completeness,
        soundness=params.soundness,
        separation=separation,
        epsilon=params.epsilon,
        evo_time=params.evo_time,
        taylor_order=params.taylor_order,
    )


# ---------------------------------------------------------------------------
# reference verifiers


def pe_verifier(matrix: RowOracleMatrix, g: int) -> Verifier:
    """One-bit phase-reading circuit packaged as a verifier.

    One witness qubit carries the eigenvector guess, one ancilla is the
    phase-read control, and the output is the control after H, c-U, H
    and a final X (so that outcome 0 of the phase read drives the
    output qubit to 1).  The controlled exponential is injected exactly
    so the circuit is unitary and the reflection machinery applies.
    """
    if matrix.dim != 2:
        raise ContractError("packaged phase-reading verifier needs a 2-dim instance")
    params = gapped_params(matrix, g)
    u = expm_exact(materialize(matrix).astype(float), params.evo_time)
    controlled = np.eye(4, dtype=complex)
    controlled[2:, 2:] = u  # control is the high local bit
    circuit = QuantumCircuit(2)
    circuit.append("H", 1)
    circuit.append("CU", 0, 1, matrix=controlled)
    circuit.append("H", 1)
    circuit.append("X", 1)
    return Verifier(
        circuit=circuit,
        witness_qubits=1,
        ancilla_k=1,
        output_qubit=1,
        completeness_c=params.completeness,
        soundness_s=params.soundness,
    )


def toy_gapped_instances() -> tuple[RowOracleMatrix, RowOracleMatrix, int]:
    """Tiny singular/nonsingular Gram pair sharing one parameterization.

    Both are declared with entry bound 2 and sparsity 2 so they share
    evo_time; the first has least eigenvalue 0, the second has least
    eigenvalue (3 - sqrt(5))/2 >= 2^-2, so the pair is a YES/NO
    instance pair at gap exponent 2.  Both are written as their CSR
    arrays, two full rows each, and checked by the row contract.
    """
    indptr, indices = np.array([0, 2, 4]), np.array([0, 1, 0, 1])
    singular = RowOracleMatrix(indptr, indices, np.array([1, 1, 1, 1], dtype=np.int64), 2, 2)
    gapped = RowOracleMatrix(indptr, indices, np.array([2, 1, 1, 1], dtype=np.int64), 2, 2)
    return singular, gapped, 2


def rotation_verifier(p: float, completeness_c: float, soundness_s: float) -> Verifier:
    """Two-qubit verifier with accept operator diag(0, p).

    Witness qubit controls a rotation of the ancilla to
    sqrt(1-p)|0> + sqrt(p)|1>; the ancilla is the output.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"acceptance must be in [0, 1], got {p}")
    ry = np.array(
        [[sqrt(1 - p), -sqrt(p)], [sqrt(p), sqrt(1 - p)]], dtype=complex
    )
    controlled = np.eye(4, dtype=complex)
    controlled[2:, 2:] = ry  # control (witness qubit 0) is the high local bit
    circuit = QuantumCircuit(2)
    circuit.append("CROT", 1, 0, matrix=controlled)
    return Verifier(
        circuit=circuit,
        witness_qubits=1,
        ancilla_k=1,
        output_qubit=1,
        completeness_c=completeness_c,
        soundness_s=soundness_s,
    )


# ---------------------------------------------------------------------------
# clock Hamiltonians and ground-energy search

# Clock-term projectors on local index 1 and 2 (first listed qubit low).
_LOW_ONE_HIGH_ZERO = _read_only(np.diag(np.array([0, 1, 0, 0], dtype=complex)))
_LOW_ZERO_HIGH_ONE = _read_only(np.diag(np.array([0, 0, 1, 0], dtype=complex)))


def _ordered_thresholds(a: float, b: float) -> None:
    """Refuse thresholds that are not a < b, NaN included."""
    if not a < b:
        raise ContractError(f"thresholds must satisfy a < b, got a={a}, b={b}")


def _same_operators(xs, ys) -> bool:
    """Equal lists of (qubits, matrix) pairs, each matrix compared entry for entry."""
    return len(xs) == len(ys) and all(
        tuple(q) == tuple(r) and np.array_equal(m, n) for (q, m), (r, n) in zip(xs, ys)
    )


@dataclass(frozen=True, eq=False)
class ClockInstance:
    """A verifier compiled by ``kitaev_hamiltonian``: its gates, ancillas, output and thresholds.

    The gates are checked (qubits, matrix) pairs with read-only copies
    of the matrices, from which the clock terms and the legal-clock block
    are both built, so the two cannot drift apart.  Clock qubit n + t - 1
    follows gate t, after the n circuit qubits.  Locality and term count
    are read from the gates, the ground energy from ``legal_block``, and
    ``==`` compares the gates, so none of them builds a term; ``terms`` does.
    """

    circuit_qubits: int
    gates: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    ancillas: tuple[int, ...]
    output_qubit: int
    threshold_a: float
    threshold_b: float

    def __post_init__(self) -> None:
        if not self.gates:  # no clock qubit to build a term on
            raise ContractError("clock construction needs at least one gate")
        _ordered_thresholds(self.threshold_a, self.threshold_b)
        for qubits, mat in self.gates:
            _check_operator(qubits, mat, self.circuit_qubits, "gate")
        _check_qubits(self.ancillas, self.circuit_qubits, "ancillas")
        _check_qubits((self.output_qubit,), self.circuit_qubits, "output")

    def __eq__(self, other: object) -> bool:
        """Equal circuits and thresholds, each gate matrix compared entry for entry."""
        if not isinstance(other, ClockInstance):
            return NotImplemented
        return (
            (self.circuit_qubits, self.ancillas, self.output_qubit, self.threshold_a,
             self.threshold_b)
            == (other.circuit_qubits, other.ancillas, other.output_qubit, other.threshold_a,
                other.threshold_b)
            and _same_operators(self.gates, other.gates)
        )

    @property
    def num_qubits(self) -> int:
        return self.circuit_qubits + len(self.gates)

    def _window(self, step: int) -> tuple[tuple[int, ...], int, int]:
        """The clock window of gate ``step`` (1..T), and its local states before and after it."""
        steps, clock = len(self.gates), self.circuit_qubits + step - 1
        if steps == 1:
            return (clock,), 0, 1
        if step == 1:
            return (clock, clock + 1), 0, 1  # |00> -> |10>, low bit is c_1
        if step == steps:
            return (clock - 1, clock), 1, 3  # |10> -> |11>
        return (clock - 1, clock, clock + 1), 1, 3  # |100> -> |110>

    @property
    def locality(self) -> int:
        """The largest arity of the clock terms, read from the gates: none of them is built.

        The input, output and clock terms act on two qubits, and each
        propagation term on its gate's qubits and a clock window of 1, 2
        or 3 qubits (``_window``).
        """
        return max([2] + [len(qubits) + len(self._window(step)[0])
                          for step, (qubits, _) in enumerate(self.gates, start=1)])

    @property
    def term_count(self) -> int:
        """The count ``terms`` builds: one per ancilla, the output, T - 1 clock, T propagation."""
        return len(self.ancillas) + 2 * len(self.gates)

    def terms(self) -> "PreciseLHInstance":
        """Kitaev's clock terms, built and checked: input, output, clock, then one per gate.

        Input terms pin ancillas at time zero, the output term penalizes
        rejection at time T, clock terms penalize illegal 01 patterns,
        and each propagation term entangles a gate with its clock window.
        """
        clock = [self.circuit_qubits + i for i in range(len(self.gates))]
        terms: list[tuple[tuple[int, ...], np.ndarray]] = []
        for a in self.ancillas:
            # ancilla = 1 while the clock has not started
            terms.append(((a, clock[0]), _LOW_ONE_HIGH_ZERO))
        terms.append(((self.output_qubit, clock[-1]), _LOW_ZERO_HIGH_ONE))
        for i in range(len(clock) - 1):
            terms.append(((clock[i], clock[i + 1]), _LOW_ZERO_HIGH_ONE))

        for step, (gate_qubits, u) in enumerate(self.gates, start=1):
            window, prev_idx, cur_idx = self._window(step)
            cdim = 2 ** len(window)
            p_prev = np.zeros((cdim, cdim), dtype=complex)
            p_cur = np.zeros((cdim, cdim), dtype=complex)
            hop = np.zeros((cdim, cdim), dtype=complex)
            p_prev[prev_idx, prev_idx] = 1
            p_cur[cur_idx, cur_idx] = 1
            hop[cur_idx, prev_idx] = 1
            # Local index order: gate qubits first (low bits), clock window after.
            mat = 0.5 * (
                _kron(p_prev + p_cur, np.eye(u.shape[0]))
                - _kron(hop, u)
                - _kron(hop.conj().T, u.conj().T)
            )
            terms.append(((*gate_qubits, *window), mat))
        return PreciseLHInstance(self.num_qubits, terms, self.threshold_a, self.threshold_b)

    def legal_block(self) -> np.ndarray:
        """The clock Hamiltonian on span{|1^t 0^(T-t)>} (x) C^(2^n), index t 2^n + x.

        The t-th gate contributes 1/2 (|t-1><t-1| + |t><t|) (x) I
        - 1/2 (|t><t-1| (x) U_t + h.c.), with U_t the gate on the whole
        n-qubit register; the input terms add |0><0| (x) sum_a n_a and the
        output term |T><T| (x) |0><0|_output.  Every term maps legal
        clock strings to legal ones and illegal to illegal, is PSD, and
        charges each illegal string at least 1 through the clock terms,
        while a history state with blank ancillas has energy at most
        1/(T+1) <= 1/2, so this block holds the least eigenvalue.  A block
        of more than DENSE_CAP rows raises ResourceLimitError before
        anything is allocated.
        """
        n, steps = self.circuit_qubits, len(self.gates)
        dim = 2**n
        rows = (steps + 1) * dim
        if rows > DENSE_CAP:
            raise ResourceLimitError(
                f"legal clock block of {rows} rows exceeds dense materialization cap {DENSE_CAP}"
            )
        x = np.arange(dim)
        diag = np.zeros((steps + 1, dim))
        diag[:-1] += 0.5
        diag[1:] += 0.5
        diag[0] += sum((x >> a) & 1 for a in self.ancillas)
        diag[-1] += ((x >> self.output_qubit) & 1) == 0
        block = np.zeros((steps + 1, dim, steps + 1, dim), dtype=complex)
        eye = np.eye(dim, dtype=complex)
        for t, (qubits, mat) in enumerate(self.gates, start=1):
            u = _apply_to_columns(eye, n, mat, qubits)
            block[t, :, t - 1] -= 0.5 * u
            block[t - 1, :, t] -= 0.5 * u.conj().T
        flat = block.reshape(rows, rows)
        np.fill_diagonal(flat, diag.ravel())
        return flat


@dataclass
class PreciseLHInstance:
    """Local Hamiltonian with exponentially close decision thresholds, as its term list.

    Each term is checked Hermitian on distinct qubits in range when the
    instance is made.  A term list, from a file or from
    ``ClockInstance.terms``, is solved densely: its 2^num_qubits sum of
    terms is the only route for an arbitrary list.
    """

    num_qubits: int
    terms: list[tuple[tuple[int, ...], np.ndarray]]
    threshold_a: float
    threshold_b: float
    locality: int = field(init=False)

    def __post_init__(self) -> None:
        _ordered_thresholds(self.threshold_a, self.threshold_b)
        self.locality = 0
        for qubits, mat in self.terms:
            _check_operator(qubits, mat, self.num_qubits, "term")
            _require_hermitian(mat)
            self.locality = max(self.locality, len(qubits))

    def __eq__(self, other: object) -> bool:
        """Equal qubit counts, thresholds and terms, each term matrix compared entry for entry."""
        if not isinstance(other, PreciseLHInstance):
            return NotImplemented
        return (
            (self.num_qubits, self.threshold_a, self.threshold_b)
            == (other.num_qubits, other.threshold_a, other.threshold_b)
            and _same_operators(self.terms, other.terms)
        )

    def materialize(self) -> np.ndarray:
        """Dense Hamiltonian; term embedding follows the circuit convention."""
        dim = 2**self.num_qubits
        if dim > DENSE_CAP:
            raise ResourceLimitError(f"dim {dim} exceeds dense materialization cap {DENSE_CAP}")
        total = np.zeros((dim, dim), dtype=complex)
        for qubits, mat in self.terms:
            total += _apply_to_columns(
                np.eye(dim, dtype=complex), self.num_qubits, mat, qubits
            )
        return total

    def to_dict(self) -> dict:
        return {
            "qubits": self.num_qubits,
            "locality": self.locality,
            "terms": [
                {
                    "qubits": list(qubits),
                    "matrix": [
                        [[float(v.real), float(v.imag)] for v in row] for row in mat
                    ],
                }
                for qubits, mat in self.terms
            ],
            "a": self.threshold_a,
            "b": self.threshold_b,
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "PreciseLHInstance":
        """Instance from its ``to_dict`` form.

        A missing key, or one whose value has the wrong shape, is a
        ContractError naming the key.
        """
        num_qubits = _field(spec, "qubits", int)
        if num_qubits < 0:
            raise ContractError(f"'qubits' must be nonnegative, got {num_qubits}")
        terms = []
        for entry in _field(spec, "terms", list):
            if not isinstance(entry, dict):
                raise ContractError(f"each of 'terms' must be a JSON object, got {entry!r}")
            qubits = tuple(_integer(q, "qubits") for q in _field(entry, "qubits", list))
            try:
                mat = np.array(
                    [[complex(re, im) for re, im in row] for row in _field(entry, "matrix", list)]
                )
            except (TypeError, ValueError, OverflowError):
                raise ContractError("'matrix' must be rows of [re, im] number pairs") from None
            if not np.isfinite(mat).all():
                raise ContractError("'matrix' entries must be finite")
            terms.append((qubits, mat))
        return cls(
            num_qubits=num_qubits,
            terms=terms,
            threshold_a=_field(spec, "a", float),
            threshold_b=_field(spec, "b", float),
        )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same single products, broadcast without its set-up."""
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def clock_thresholds(completeness_c: float, soundness_s: float, gate_count: int):
    """(a, b) = ((1-c)/(T+1), (1-s)/T^3)."""
    t = gate_count
    return (1.0 - completeness_c) / (t + 1), (1.0 - soundness_s) / t**3


def kitaev_hamiltonian(verifier: Verifier) -> ClockInstance:
    """Compile the verifier into a 5-local unary-clock Hamiltonian.

    Clock qubits sit after the circuit qubits, one per gate, with legal
    states |1^t 0^(T-t)>.  Input terms pin ancillas at time zero, the
    output term penalizes rejection at time T, clock terms penalize
    illegal 01 patterns, and each propagation term entangles a gate
    with a 1-3 qubit clock window, so locality never exceeds 2 + 3.
    The thresholds are (1-c)/(T+1) and (1-s)/T^3.  The instance is the
    gates it was compiled from: ``ClockInstance.terms`` builds the terms,
    and ``ground_energy`` and ``binary_search_energy`` solve its
    legal-clock block.
    """
    t_count = verifier.circuit.gate_count
    if t_count < 1:  # before the thresholds, which divide by T
        raise ContractError("clock construction needs at least one gate")
    a, b = clock_thresholds(verifier.completeness_c, verifier.soundness_s, t_count)
    gates = tuple((qubits, _read_only(np.array(mat))) for qubits, mat in verifier.circuit.gates)
    n = verifier.circuit.num_qubits
    return ClockInstance(n, gates, tuple(range(verifier.witness_qubits, n)),
                         verifier.output_qubit, a, b)


def precise_epsilon_rule(gap_value: float, gate_count: int) -> float:
    """Error budget keeping the two thresholds separated: gap/(2 (T^2+1)).

    Satisfies epsilon (T^2 + 1) < gap_value strictly, which forces
    (1-s)/T^3 > (1-c)/(T+1) under the c = 1 - eps, 1 - s = gap - eps
    parameterization.
    """
    if gap_value <= 0:
        raise ValueError("gap value must be positive")
    return gap_value / (2.0 * (gate_count**2 + 1))


def rule_parameterized_verifier() -> tuple[Verifier, float]:
    """Phase-reading verifier relabeled with a threshold-safe promise pair.

    The bare gapped parameterization can leave (1-s)/T^3 below
    (1-c)/(T+1) once the measured gate count enters the denominators;
    shrinking the error budget per precise_epsilon_rule restores the
    ordering.  The circuit (and hence its true acceptance spectrum) is
    unchanged; only the promise labels move to completeness 1 - eps and
    soundness 1 - (gap - eps).
    """
    from dataclasses import replace

    singular, _, g = toy_gapped_instances()
    base = pe_verifier(singular, g)
    gap_value = base.completeness_c - base.soundness_s
    eps = precise_epsilon_rule(gap_value, base.gate_count_T)
    verifier = replace(
        base,
        completeness_c=1.0 - eps,
        soundness_s=1.0 - (gap_value - eps),
    )
    return verifier, eps


def precise_lh_bounds(verifier: Verifier, epsilon: float):
    """(a, b, gap_ok) for the verifier's clock thresholds under the epsilon parameterization.

    The caller's epsilon must equal 1 - completeness: that is the
    parameterization the threshold formulas assume.
    """
    c = verifier.completeness_c
    if abs((1.0 - c) - epsilon) > 1e-12:
        raise ContractError(
            f"epsilon {epsilon} does not match 1 - completeness = {1.0 - c}"
        )
    a, b = clock_thresholds(c, verifier.soundness_s, verifier.gate_count_T)
    return a, b, b - a > 0


def _hamiltonian(instance: ClockInstance | PreciseLHInstance | np.ndarray) -> np.ndarray:
    """The matrix whose least eigenvalue is the instance's ground energy.

    A compiled clock instance gives its (T+1) 2^n legal-clock block, a
    term list its dense 2^num_qubits sum of terms, and an array itself
    once checked Hermitian.
    """
    if isinstance(instance, ClockInstance):
        return instance.legal_block()
    if isinstance(instance, PreciseLHInstance):
        return instance.materialize()
    return _require_hermitian(instance)


def ground_energy(instance: ClockInstance | PreciseLHInstance | np.ndarray) -> float:
    """Least eigenvalue of the Hamiltonian (eigensolver truth), read from ``_hamiltonian``."""
    return float(np.linalg.eigvalsh(_hamiltonian(instance))[0])


def binary_search_energy(instance, bits: int) -> float:
    """Bracket the ground energy to 2^-bits by bisection on threshold tests.

    Each step asks whether lambda_min(H) > mu, and answers it by
    whether the Cholesky factorization of H - mu I exists, which it does
    exactly when H - mu I is positive definite; no eigenvalue is
    computed.  A reduction's Gram (``GappedInstance``) is never formed:
    its adjacency's ``band()`` holds the blocks of its chain table that
    decide every threshold test, and the Gram's Gershgorin interval.
    A row oracle is H as it stands: its CSR arrays once they are checked
    symmetric, with its Gershgorin interval read from its rows in exact
    integers, so no dense copy is made.  Any other instance is the matrix
    ``_hamiltonian`` gives, the legal-clock block for a compiled clock
    instance.  Either is taken once into the reverse Cuthill-McKee order
    of its pattern, a permutation similarity that leaves definiteness
    alone.  Its band is a few entries wide on the clock Hamiltonians, so
    a step costs O(dim * band^2) rather than O(dim^3); a Gram's is one
    entry wide and as long as its few blocks.  Each step factors one
    reused work array in place.  The bracket starts as the Gershgorin
    interval, halves each step, and the midpoint of the final bracket
    is returned.
    """
    from scipy.linalg import cholesky_banded
    from scipy.sparse import csr_matrix

    if bits < 1 or bits > ENERGY_BITS_CAP:
        raise ContractError(f"bits must be in 1..{ENERGY_BITS_CAP}, got {bits}")
    if isinstance(instance, GappedInstance):
        band, lo, hi = instance.adjacency.band()
    elif isinstance(instance, RowOracleMatrix):
        h = _symmetric_csr(instance)
        diag = h.diagonal()
        sums = np.concatenate(([0], np.cumsum(np.abs(h.data))))  # |h|'s row sums as differences
        radii = sums[h.indptr[1:]] - sums[h.indptr[:-1]] - np.abs(diag)
        lo, hi = float(np.min(diag - radii)), float(np.max(diag + radii))
        del diag, sums, radii  # dim- and nnz-long, freed before the band is built
        band, _ = _rcm_band(h)
    else:
        dense = _hamiltonian(instance)
        herm = (dense + dense.conj().T) / 2
        radii = np.sum(np.abs(herm), axis=1) - np.abs(np.diag(herm))
        lo = float(np.min(np.diag(herm).real - radii))
        hi = float(np.max(np.diag(herm).real + radii))
        band, _ = _rcm_band(csr_matrix(herm))
    work = np.empty_like(band)
    target = 2.0**-bits
    while hi - lo > target:
        mid = (lo + hi) / 2
        work[...] = band
        work[0] -= mid
        try:
            cholesky_banded(work, overwrite_ab=True, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2
