"""Accept operators, phase-gap amplification, and the precise reductions."""

import dataclasses
import itertools
import json
from fractions import Fraction
from math import acos, comb, exp, floor, log, log1p, pi, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaplab import protocols as pr
from gaplab import rtm
from gaplab import simulator as sim
from gaplab import sparse_oracle as so
from gaplab import spectral as sp
from gaplab.errors import ConfigurationError, ContractError, PromiseViolation, ResourceLimitError

import oracles


# --- accept operators ------------------------------------------------------


def test_accept_operator_passthrough():
    q = pr.accept_operator(oracles.passthrough_verifier())
    np.testing.assert_allclose(q.matrix, [[0, 0], [0, 1]], atol=1e-14)
    assert q.max_acceptance == pytest.approx(1.0, abs=1e-12)


def test_accept_operator_rotation():
    q = pr.accept_operator(pr.rotation_verifier(0.9, 0.9, 0.1))
    np.testing.assert_allclose(q.matrix, [[0, 0], [0, 0.9]], atol=1e-12)


def _random_verifier(circuit_qubits, ancilla_k, gate_count, output_qubit, seed,
                     completeness_c=0.9, soundness_s=0.1):
    """Random circuit over the fixed gates, with every other gate a random unitary when n > 1."""
    rng = np.random.default_rng(seed)
    circuit = oracles.random_circuit(circuit_qubits, gate_count, rng)
    if circuit_qubits > 1:
        for i in range(0, gate_count, 2):
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            pair = tuple(int(q) for q in rng.choice(circuit_qubits, size=2, replace=False))
            circuit.gates[i] = (pair, np.linalg.qr(z)[0])
    return pr.Verifier(circuit, witness_qubits=circuit_qubits - ancilla_k, ancilla_k=ancilla_k,
                       output_qubit=output_qubit, completeness_c=completeness_c,
                       soundness_s=soundness_s)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_witness_images_equal_per_column_runs(m):
    for k in range(3):
        for seed in range(4):
            verifier = _random_verifier(m + k, k, 9, seed % (m + k), seed)
            columns = np.stack(
                [sim.run_circuit(verifier.circuit, oracles.pad_with_ancillas(e, k))
                 for e in np.eye(2**m)],
                axis=1,
            )
            out_rows = ((np.arange(2 ** (m + k)) >> verifier.output_qubit) & 1) == 1
            accepted, rejected = pr._witness_images(verifier)
            assert np.array_equal(accepted, columns[out_rows])
            assert np.array_equal(rejected, columns[~out_rows])


def test_accept_operator_matches_direct_acceptance():
    rng = np.random.default_rng(9)
    for verifier in oracles.corpus_verifiers().values():
        q = pr.accept_operator(verifier)
        dim = 2 ** verifier.witness_qubits
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        witness = raw / np.linalg.norm(raw)
        quad = float(np.real(witness.conj() @ (q.matrix @ witness)))
        direct = oracles.acceptance_probability(verifier, witness)
        assert quad == pytest.approx(direct, abs=1e-10)


def test_mixed_witness_is_basis_average():
    for verifier in oracles.corpus_verifiers().values():
        dim = 2 ** verifier.witness_qubits
        basis_avg = np.mean(
            [
                oracles.acceptance_probability(verifier, np.eye(dim)[j])
                for j in range(dim)
            ]
        )
        mixed = pr.mixed_witness_acceptance(verifier)
        assert mixed == pytest.approx(basis_avg, abs=1e-12)
        q = pr.accept_operator(verifier)
        assert mixed == pytest.approx(q.trace / dim, abs=1e-12)


def test_verifier_field_validation():
    circuit = sim.QuantumCircuit(2)
    with pytest.raises(ValueError):
        pr.Verifier(circuit, witness_qubits=2, ancilla_k=1, output_qubit=0,
                    completeness_c=0.9, soundness_s=0.1)
    with pytest.raises(ValueError):
        pr.Verifier(circuit, witness_qubits=1, ancilla_k=1, output_qubit=0,
                    completeness_c=0.1, soundness_s=0.9)


# --- reflections and the phase relation ------------------------------------


def test_reflections_are_involutions():
    for verifier in oracles.corpus_verifiers().values():
        r0, r1 = oracles.reflections(verifier)
        n = r0.shape[0]
        np.testing.assert_allclose(r0 @ r0, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(r1 @ r1, np.eye(n), atol=1e-12)


def test_walk_eigenphases_pair_with_acceptance():
    verifier = pr.rotation_verifier(0.9, 0.9, 0.1)
    r0, r1 = oracles.reflections(verifier)
    phases = np.angle(np.linalg.eigvals(r1 @ r0))
    expected = 2 * acos(sqrt(0.9))
    matched = sorted(abs(p) for p in phases)[:2]
    for p in matched:
        assert p == pytest.approx(expected, abs=1e-8)


# --- amplification parameters ----------------------------------------------


def test_from_promise_default_precision():
    params = pr.AmplificationParams.from_promise(0.9, 0.1, 3)
    assert params.precision_bits == 4
    assert params.register_bits == 6
    assert params.yes_cut == pytest.approx(0.16491638234956676, abs=1e-15)
    assert params.no_cut == pytest.approx(0.33508361765043326, abs=1e-15)
    assert params.yes_cut < params.no_cut


def test_params_reject_coarse_precision():
    phi_c = acos(sqrt(0.9)) / pi
    phi_s = acos(sqrt(0.1)) / pi
    with pytest.raises(ValueError):
        pr.AmplificationParams(
            trials_r=3, precision_bits=2,
            threshold_phi_c=phi_c, threshold_phi_s=phi_s,
        )
    with pytest.raises(ValueError):
        pr.AmplificationParams.from_promise(0.9, 0.1, 0)


@pytest.mark.parametrize("bits", [-1100, -1024, -1000, 0, 1, 3])
def test_params_refuse_every_precision_below_a_quarter_of_the_gap(bits):
    # 2^-b overflows from b = -1024 on; every b < 1 is refused before it is formed.
    with pytest.raises(ValueError, match="precision too coarse"):
        pr.AmplificationParams.from_promise(0.9, 0.1, 3, bits)


def test_params_refuse_a_promise_whose_phases_are_equal():
    # Both phases round to 1/2: acos(sqrt(c)) / pi with sqrt(c) about 1e-160.
    with pytest.raises(ValueError, match="have the same phase 0.5"):
        pr.AmplificationParams.from_promise(2e-320, 1e-320, 3)


def test_accept_operator_decomposes_once(monkeypatch):
    q = pr.accept_operator(pr.rotation_verifier(0.9, 0.9, 0.1)).matrix
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    op = pr.AcceptOperator(m=1, matrix=q)
    values, vectors = op.eigensystem()
    assert op.max_acceptance == values[-1] and op.eigensystem() is op.eigensystem()
    assert len(calls) == 1
    want = eigh(q)
    assert np.array_equal(values, want[0]) and np.array_equal(vectors, want[1])
    with pytest.raises(ValueError):
        vectors[0, 0] = 0


def test_folded_phase_grid():
    phases = oracles.folded_phases(3)
    np.testing.assert_allclose(
        phases, [0, 1 / 8, 2 / 8, 3 / 8, 4 / 8, 3 / 8, 2 / 8, 1 / 8]
    )


def test_median_exceeds_exact_binomials():
    # ceil(r/2) successes out of r, exact binomial tail.
    assert pr.median_exceeds(0.5, 3) == pytest.approx(0.5, abs=1e-15)
    assert pr.median_exceeds(1.0, 5) == 1.0
    assert pr.median_exceeds(0.0, 5) == 0.0
    q = 0.9
    assert pr.median_exceeds(q, 2) == pytest.approx(2 * q * (1 - q) + q**2, abs=1e-15)
    assert pr.median_exceeds(q, 3) == pytest.approx(
        3 * q**2 * (1 - q) + q**3, abs=1e-15
    )


def test_median_exceeds_is_the_plain_sum_while_every_coefficient_is_a_float():
    for trials in (1, 2, 3, 50, 1029):  # comb(1029, 515) is the largest below 2^1024
        k = -(-trials // 2)
        for q in (1e-3, 0.3, 0.5, 0.7, 0.9):
            plain = float(sum(comb(trials, i) * q**i * (1 - q) ** (trials - i)
                              for i in range(k, trials + 1)))
            assert pr.median_exceeds(q, trials) == plain


def test_median_exceeds_takes_one_binomial_and_matches_one_per_term(monkeypatch):
    # The reference takes comb(r, i) afresh for every term, which costs
    # quadratic time; the carried coefficient is the same integer, so every
    # term, and the sum, keeps its bits.
    def per_term(q: float, trials: int) -> float:
        def term(i: int) -> float:
            c = comb(trials, i)
            try:
                return c * q**i * (1 - q) ** (trials - i)
            except OverflowError:
                return exp(log(c) + i * log(q) + (trials - i) * log1p(-q))

        return float(sum(term(i) for i in range(-(-trials // 2), trials + 1)))

    calls = []
    monkeypatch.setattr(pr, "comb", lambda *args: calls.append(args) or comb(*args))
    for trials in (1, 2, 3, 50, 1029, 1030, 2001, 4001):
        for q in (0.49, 0.9):
            calls.clear()
            assert pr.median_exceeds(q, trials) == per_term(q, trials), (q, trials)
            assert len(calls) == 1


@pytest.mark.parametrize("trials", [1101, 2001])
def test_median_exceeds_past_the_float_range_of_the_coefficients(trials):
    # The exact tail as a Fraction: with q = a/d and b = d - a, it is
    # a^k sum_j comb(r, k + j) a^j b^(n-j) / d^r for n = r - k, by Horner in a.
    k = -(-trials // 2)
    n = trials - k
    for q in (0.3, 0.49, 0.5, 0.7, 0.9):
        a, d = Fraction(q).numerator, Fraction(q).denominator
        total, b_power = 0, 1
        for j in range(n, -1, -1):
            total = total * a + comb(trials, k + j) * b_power
            b_power *= d - a
        exact = Fraction(total * a**k, d**trials)
        assert abs(Fraction(pr.median_exceeds(q, trials)) - exact) <= 1e-12 * exact, q


@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(1, 9),
)
def test_median_exceeds_is_monotone(q_low, q_high, trials):
    # Monotonicity in the per-trial mass is what lets the adversary analysis
    # restrict to accept-operator eigenvectors.
    low, high = sorted((q_low, q_high))
    p_low = pr.median_exceeds(low, trials)
    p_high = pr.median_exceeds(high, trials)
    assert 0.0 <= p_low <= p_high <= 1.0


def test_qpe_distribution_is_exact_on_eigenvectors():
    # Phase readout of a diagonal unitary whose phase sits on the grid.
    bits = 4
    w = np.diag([np.exp(2j * pi * 3 / 16), 1.0])
    dist = oracles.qpe_register_distribution(w, np.array([1.0, 0.0]), bits)
    assert dist[3] == pytest.approx(1.0, abs=1e-12)


def test_nwz_amplify_unanimous_yes():
    verifier = pr.rotation_verifier(1.0, 0.9, 0.1)
    params = pr.AmplificationParams.from_promise(0.9, 0.1, 3)
    outcome = pr.nwz_amplify(verifier, params, np.array([0.0, 1.0]))
    assert outcome.decision == "YES"
    assert outcome.p_yes == pytest.approx(1.0, abs=1e-12)


def test_nwz_amplify_frozen_rotation_outcomes():
    verifier = pr.rotation_verifier(0.9, 0.9, 0.1)
    params = pr.AmplificationParams.from_promise(0.9, 0.1, 3)
    good = pr.nwz_amplify(verifier, params, np.array([0.0, 1.0]))
    assert good.decision == "YES"
    assert good.p_yes == pytest.approx(0.9975527991609866, abs=1e-12)
    assert good.per_trial_yes == pytest.approx(0.9711603622452905, abs=1e-12)
    bad = pr.nwz_amplify(verifier, params, np.array([1.0, 0.0]))
    assert bad.decision == "NO"
    assert bad.p_no == pytest.approx(1.0, abs=1e-12)
    assert good.probability == good.p_yes


def test_nwz_amplify_flags_promise_violations():
    verifier = pr.rotation_verifier(0.5, 0.9, 0.1)
    params = pr.AmplificationParams.from_promise(0.9, 0.1, 3)
    outcome = pr.nwz_amplify(verifier, params, np.array([0.0, 1.0]))
    assert outcome.decision == "PROMISE_VIOLATED"
    assert outcome.p_violation > 0.99


def test_nwz_amplify_requires_normalized_witness():
    verifier = pr.rotation_verifier(0.9, 0.9, 0.1)
    params = pr.AmplificationParams.from_promise(0.9, 0.1, 3)
    with pytest.raises(ContractError):
        pr.nwz_amplify(verifier, params, np.array([1.0, 1.0]))


def qpe_oracle(verifier, params, witness):
    """The amplification outcome by simulating the register: the route the
    closed form in nwz_amplify replaced, kept here as its test oracle."""
    r0, r1 = oracles.reflections(verifier)
    # The float walk R1 R0 misses unitarity by up to 1.8e-15 (gap_singular),
    # and its 2^b simulated powers compound that into a 2.6e-12 error in a
    # register mass at b = 12.  The closed form describes the exact walk,
    # so the oracle simulates the nearest unitary (the polar factor) and
    # renormalizes away the norm drift that rounding in its powers leaves.
    left, _, right = np.linalg.svd(r1 @ r0)
    initial = oracles.pad_with_ancillas(witness, verifier.ancilla_k)
    dist = oracles.qpe_register_distribution(left @ right, initial, params.register_bits)
    dist = dist / dist.sum()
    phases = oracles.folded_phases(params.register_bits)
    per_trial_yes = float(np.clip(dist[phases <= params.yes_cut + 1e-12].sum(), 0, 1))
    below_no = float(np.clip(dist[phases < params.no_cut - 1e-12].sum(), 0, 1))
    p_yes = pr.median_exceeds(per_trial_yes, params.trials_r)
    p_no = 1.0 - pr.median_exceeds(below_no, params.trials_r)
    return {
        "p_yes": p_yes,
        "p_no": p_no,
        "p_violation": max(1.0 - p_yes - p_no, 0.0),
        "per_trial_yes": per_trial_yes,
        "per_trial_no": 1.0 - below_no,
    }


ORACLE_VERIFIERS = ["rotation", "random_2q", "gap_singular", "gap_bounded"]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(ORACLE_VERIFIERS),
    p=st.floats(0.0, 1.0),
    soundness=st.floats(0.0, 0.9),
    gap=st.floats(0.05, 1.0),
    extra_bits=st.integers(0, 4),
    trials=st.integers(1, 7),
    theta=st.floats(0.0, pi / 2),
    phase=st.floats(0.0, 2 * pi),
)
# Grid phases N phi = N/2 and 0: p = 0 and 1 on the accepting basis state.
@example(name="rotation", p=0.0, soundness=0.1, gap=0.8, extra_bits=0, trials=3,
         theta=pi / 2, phase=0.0)
@example(name="rotation", p=1.0, soundness=0.1, gap=0.8, extra_bits=0, trials=3,
         theta=pi / 2, phase=0.0)
# p = 1/2 (N phi = N/4, on the grid too) against c = 0.9, s = 0.1 violates the promise.
@example(name="rotation", p=0.5, soundness=0.1, gap=0.8, extra_bits=0, trials=3,
         theta=pi / 2, phase=0.0)
def test_nwz_amplify_matches_simulated_register(
    name, p, soundness, gap, extra_bits, trials, theta, phase
):
    if name == "rotation":
        completeness = min(soundness + gap, 1.0)
        verifier = pr.rotation_verifier(p, completeness, soundness)
    else:
        verifier = oracles.corpus_verifiers()[name]
    c, s = verifier.completeness_c, verifier.soundness_s
    base = pr.AmplificationParams.from_promise(c, s, trials)
    # The quarter-gap rule forces alpha >= 4 (the phase gap is at most 1/2),
    # so registers run from b = 6 up to the b <= 12 the simulation affords.
    assume(base.register_bits + extra_bits <= 12)
    params = pr.AmplificationParams.from_promise(c, s, trials, base.precision_bits + extra_bits)
    witness = np.array([np.cos(theta), np.exp(1j * phase) * np.sin(theta)])

    got = pr.nwz_amplify(verifier, params, witness)
    want = qpe_oracle(verifier, params, witness)
    for key, value in want.items():
        assert getattr(got, key) == pytest.approx(value, abs=1e-12), key
    # The decision is the most probable outcome; on a near tie either may win.
    options = {"YES": want["p_yes"], "NO": want["p_no"], "PROMISE_VIOLATED": want["p_violation"]}
    assert options[got.decision] >= max(options.values()) - 1e-12
    assert got.probability == pytest.approx(options[got.decision], abs=1e-12)


def test_nwz_amplify_matches_fejer_sum_in_60_digits():
    # The golden `amplify --p 0.9` report rests on these two masses.
    import mpmath

    params = pr.AmplificationParams.from_promise(0.9, 0.1, 3)
    assert params.register_bits == 6
    got = pr.nwz_amplify(pr.rotation_verifier(0.9, 0.9, 0.1), params, np.array([0.0, 1.0]))
    n = 2**params.register_bits
    with mpmath.workdps(60):
        phi = mpmath.acos(mpmath.sqrt(mpmath.mpf(0.9))) / mpmath.pi

        def fejer(d):
            return mpmath.sin(mpmath.pi * n * d) ** 2 / (n**2 * mpmath.sin(mpmath.pi * d) ** 2)

        # Jordan's lemma: an equal mixture of the kernels at +-phi.
        dist = [(fejer(phi - mpmath.mpf(j) / n) + fejer(-phi - mpmath.mpf(j) / n)) / 2
                for j in range(n)]
        folded = [min(j, n - j) / n for j in range(n)]
        yes = mpmath.fsum(p for p, f in zip(dist, folded) if f <= params.yes_cut + 1e-12)
        below_no = mpmath.fsum(p for p, f in zip(dist, folded) if f < params.no_cut - 1e-12)
        assert abs(mpmath.fsum(dist) - 1) < mpmath.mpf(10) ** -50
        assert abs(got.per_trial_yes - yes) <= 1e-15
        assert abs(got.per_trial_no - (1 - below_no)) <= 1e-15


def block_arc_masses(phi, widths, register_bits, block=1 << 16):
    """The O(N) term-by-term Fejer arc sum: the test oracle of ``_arc_mass``.

    Sums F over |j| <= w in blocks of outcomes, pairing j with -j and
    reducing every offset t = N phi -+ j exactly into [-N/2, N/2]; ``widths``
    must be nondecreasing, each arc extending the sum of the one before.
    Each term sin^2(pi frac)/(N^2 sin^2(pi t/N)) is evaluated as
    (sinc(frac)/sinc(t/N))^2 (frac/t)^2, which cannot overflow however
    small frac is.
    """
    n = 2**register_bits
    x = n * phi
    peak = round(x)
    frac = x - peak
    if frac == 0.0:
        offset = min(peak % n, -peak % n)
        return [float(offset <= w) for w in widths]
    masses = []
    total, done = 0.0, 0  # total: sum over |j| < done
    for w in widths:
        if 2 * w + 1 >= n:
            masses.append(1.0)
            continue
        for lo in range(done, w + 1, block):
            j = np.arange(lo, min(lo + block, w + 1))
            terms = np.zeros(len(j))
            for t in (x - j, x + j):
                t -= n * np.round(t / n)
                terms += (np.sinc(frac) / np.sinc(t / n)) ** 2 * (frac / t) ** 2
            if lo == 0:
                terms[0] /= 2
            total += float(terms.sum())
        done = max(done, w + 1)
        masses.append(total)
    return masses


@st.composite
def arc_cases(draw, min_bits, max_bits):
    """(phi, register_bits): phi in [0, 1/2], often within a hair of the grid j/N."""
    bits = draw(st.integers(min_bits, max_bits))
    n = 2**bits
    if draw(st.booleans()):
        phi = draw(st.floats(0.0, 0.5))
    else:
        j = draw(st.integers(0, n // 2))
        hair = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]))
        phi = min(max((j + draw(st.sampled_from([-1, 1])) * hair) / n, 0.0), 0.5)
    return phi, bits


@settings(max_examples=150, deadline=None)
@given(case=arc_cases(6, 18), lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
# A subnormal phase: scale * csc^2 of the peak term overflowed to inf * 0.
@example(case=(2.225073858507e-311, 6), lo=0.0, hi=0.0)
def test_arc_mass_matches_block_sum(case, lo, hi):
    phi, bits = case
    half = 2 ** (bits - 1)
    widths = sorted((round(lo * half), round(hi * half)))
    want = block_arc_masses(phi, widths, bits)
    got = [pr._arc_mass(phi, w, bits) for w in widths]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def inverse_square_run(y, length):
    """sum_{i < length} (y + i)^-2 for non-integer y, from trigamma at positive
    arguments only (mpmath shifts a negative one up term by term)."""
    import mpmath

    if y > 0:
        return mpmath.psi(1, y) - mpmath.psi(1, y + length)
    below = int(mpmath.ceil(-y))  # terms with y + i < 0
    if below >= length:
        return mpmath.psi(1, -(y + length - 1)) - mpmath.psi(1, 1 - y)
    return inverse_square_run(y, below) + inverse_square_run(y + below, length - below)


def trigamma_arc_mass(phi, width, register_bits):
    """The arc mass through csc^2 z = sum_k (z - k pi)^-2: each image's run of
    inverse squares is a trigamma difference, and nsum adds the images."""
    import mpmath

    n = 2**register_bits
    x = mpmath.mpf(n) * mpmath.mpf(phi)  # exact, as in the float kernel
    images = mpmath.nsum(
        lambda k: inverse_square_run(x - width - k * n, 2 * width + 1), [-mpmath.inf, mpmath.inf]
    )
    return mpmath.sin(mpmath.pi * x) ** 2 / mpmath.pi**2 * images


def test_arc_mass_matches_trigamma_route_at_46_bits():
    import mpmath

    bits = 46
    n = 2**bits
    params = pr.AmplificationParams.from_promise(0.5 + 2.0**-41, 0.5 - 2.0**-41, 3)
    assert params.register_bits == bits
    cases = [
        (params.threshold_phi_c, floor(params.yes_cut * n)),  # the 2^-40 YES arc at c
        ((2**20 + 1e-6) / n, 2**20 - 1),  # a hair off the grid; the arc stops short of the peak
        ((1000 + 0.3) / n, 1000),  # the arc ends between the peak's two nearest outcomes
        (0.3217, 2**44),  # the arc holds only the far tail, on both sides of N/2
    ]
    with mpmath.workdps(60):
        for phi, width in cases:
            want = trigamma_arc_mass(phi, width, bits)
            # Relative: the tail-only arcs weigh 1e-12 and 2e-14.
            assert abs(pr._arc_mass(phi, width, bits) - want) <= 1e-13 * want, (phi, width)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(6, 46), m=st.integers(0, 2**53), near=st.booleans(),
       hair=st.integers(-1000, 1000), w=st.floats(0.0, 1.0))
def test_complementary_arcs_cover_the_register(bits, m, near, hair, w):
    # The kernel at 1/2 - phi on the arc |j| <= N/2 - w - 1 is the kernel at
    # phi on the outcomes the arc |j| <= w leaves out.  phi = m 2^-54 keeps
    # 1/2 - phi exact.
    n = 2**bits
    if near:  # phi within 1000 * 2^-54 of a grid point j/N
        m = min(max((m >> (54 - bits) << (54 - bits)) + hair, 0), 2**53)
    phi = m * 2.0**-54
    width = round(w * (n // 2 - 1))
    total = pr._arc_mass(phi, width, bits) + pr._arc_mass(0.5 - phi, n // 2 - width - 1, bits)
    assert total == pytest.approx(1.0, abs=1e-13)
    assert pr._arc_mass(phi, n // 2, bits) == 1.0  # an arc over the whole register


def test_crossing_register_cuts_are_refused():
    # At b = 62 a one-ulp phase gap is 256 outcomes and the cuts' roundoff
    # slack 512: the YES arc would pass the NO cut.
    params = pr.AmplificationParams(trials_r=3, precision_bits=60,
                                    threshold_phi_c=0.25, threshold_phi_s=0.25 + 2.0**-54)
    with pytest.raises(ContractError, match="passes the NO cut"):
        pr.nwz_amplify(pr.rotation_verifier(0.5, 0.6, 0.4), params, np.array([0.0, 1.0]))


def test_amplified_operator_dichotomy():
    params = pr.AmplificationParams.from_promise(0.9, 0.1, 3)
    high = pr.amplified_accept_operator(pr.rotation_verifier(0.9, 0.9, 0.1), params)
    low = pr.amplified_accept_operator(pr.rotation_verifier(0.1, 0.9, 0.1), params)
    assert high.max_acceptance >= 7 / 8
    assert low.max_acceptance <= 1 / 8


# --- gapped-matrix verification --------------------------------------------


def test_gapped_params_frozen_toy_values():
    _, bounded, g = pr.toy_gapped_instances()
    params = pr.gapped_params(bounded, g)
    assert params.evo_time == pytest.approx(pi / 4, abs=1e-15)
    assert params.epsilon == pytest.approx(0.0024095713869847065, abs=1e-16)
    assert params.taylor_order == 14
    assert params.completeness == pytest.approx(0.9975904286130153, abs=1e-15)
    assert params.soundness == pytest.approx(0.9928036630971672, abs=1e-15)
    assert params.soundness < params.midpoint < params.completeness


def test_gapped_params_rejects_out_of_range_exponent():
    # The rounding bound on the rejection read is the only upper limit on g:
    # it binds from g = 38 on a reduction's Gram (d = 8, k = 2) and from
    # g = 40 on the toy pair (d = 2, k = 2).
    _, bounded, _ = pr.toy_gapped_instances()
    gram = rtm.reduce_to_gapped(rtm.corpus_machine("unary_counter"), "11").gram
    assert (gram.sparsity_d, gram.entry_bound_k) == (8, 2)
    with pytest.raises(ValueError):
        pr.gapped_params(bounded, 0)
    for matrix, last in ((gram, 37), (bounded, 39)):
        pr.gapped_params(matrix, last)
        with pytest.raises(ConfigurationError, match="rounding bound"):
            pr.gapped_params(matrix, last + 1)


def test_decide_gapped_toy_instances():
    singular, bounded, g = pr.toy_gapped_instances()
    yes = pr.decide_gapped(singular, g)
    no = pr.decide_gapped(bounded, g)
    assert yes.decision == "YES"
    assert yes.acceptance == pytest.approx(1.0, abs=1e-12)
    assert no.decision == "NO"
    assert no.acceptance == pytest.approx(0.9776689237051439, abs=1e-12)
    assert no.separation == pytest.approx(0.019921504907871368, abs=1e-12)
    # Soundness certificate: acceptance beats completeness only on YES side.
    assert yes.acceptance >= yes.completeness - 1e-12
    assert no.acceptance <= no.soundness + 1e-12


def test_decide_gapped_toy_instances_at_the_largest_admitted_exponent():
    singular, bounded, _ = pr.toy_gapped_instances()
    assert pr.decide_gapped(singular, 39).decision == "YES"
    assert pr.decide_gapped(bounded, 39).decision == "NO"


def test_decide_gapped_on_long_chains():
    # Chains 2e5-3e5 long, the length at which lambda_min reaches 2^-35:
    # the witness must converge although lambda_2 - lambda_min is only a
    # few times 1e-11, because the eigen-residual check asks for 2^-g/8.
    from scipy.sparse import block_diag

    path = oracles.ata_oracle(so.path_adjacency(200000))  # lambda_min 6.2e-11
    assert pr.decide_gapped(path, 35).decision == "NO"
    ones = so.from_dense(np.ones((2, 2), dtype=np.int64))
    longer = oracles.ata_oracle(so.path_adjacency(300000)).csr  # lambda_min 2.7e-11
    both = block_diag([longer, ones.csr], format="csr", dtype=np.int64)
    singular = so.RowOracleMatrix(both.indptr, both.indices, both.data, 3, 2)
    assert pr.decide_gapped(singular, 37).decision == "YES"


@pytest.mark.parametrize("x", ["11", "1"])
def test_decide_gapped_pads_the_witness_block_once(monkeypatch, x):
    # A reduction's witness block is written as padded rows (``_path_witness``),
    # so no row oracle's rows are padded; a dense-route instance, a triangle's
    # Laplacian, pads its own rows once for its phase read.
    calls = []
    pad = so._padded_rows

    def recorded(matrix):
        calls.append(matrix.dim)
        return pad(matrix)

    monkeypatch.setattr(so, "_padded_rows", recorded)
    instance = rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine("unary_counter"), 5), x)
    assert pr.decide_gapped(instance.gram, instance.g).decision == ("NO" if x == "11" else "YES")
    assert calls == []
    triangle = so.from_dense(3 * np.eye(3, dtype=np.int64) - 1)
    assert sp._path_sum_bottom(triangle) is None
    assert pr.decide_gapped(triangle, 12).decision == "YES"
    assert calls == [3]


def test_gapped_verifier_acceptance_matches_decision():
    singular, _, g = pr.toy_gapped_instances()
    dense = so.materialize(singular).astype(float)
    _, vecs = np.linalg.eigh(dense)
    params = pr.gapped_params(singular, g)
    acceptance, _ = sim.phase_read(
        singular, params.evo_time, params.taylor_order, vecs[:, 0], params.unitarity_tol
    )
    assert acceptance == pytest.approx(pr.decide_gapped(singular, g).acceptance, abs=1e-12)


# The seven instances of the verify_gapped benchmark workload, as
# (machine, space, input, machine accepts).
VERIFY_GAPPED_INSTANCES = [
    ("unary_counter", 3, "11", True),
    ("unary_counter", 3, "1", False),
    ("unary_counter", 4, "11", True),
    ("unary_counter", 4, "111", False),
    ("binary_nonmax", 3, "#o", True),
    ("binary_nonmax", 3, "#i", False),
    ("first_last_match", 2, "a", True),
]


def test_decide_gapped_matches_dense_oracle():
    from scipy.sparse.linalg import expm_multiply

    singular, bounded, toy_g = pr.toy_gapped_instances()
    cases = [(singular, toy_g, toy_g, False), (bounded, toy_g, toy_g, True)]
    for name, space, x, accepts in VERIFY_GAPPED_INSTANCES:
        machine = rtm.with_space(rtm.corpus_machine(name), space)
        assert rtm.simulate(machine, x).accepted == accepts
        instance = rtm.reduce_to_gapped(machine, x)
        cases.append((instance.gram, 12, instance.g, accepts))
    for matrix, g, certified_g, accepts in cases:
        # Dense reference: materialize + eigh + dense Taylor + one_bit_pe, on the formed rows.
        params = pr.gapped_params(matrix, g)
        rows = oracles.formed(matrix)
        lams, vecs = np.linalg.eigh(so.materialize(rows))
        u = oracles.expm_taylor(rows, params.evo_time, params.taylor_order)
        dense_acceptance = oracles.one_bit_pe(u, vecs[:, 0], unitarity_tol=params.unitarity_tol)
        dense_decision = "YES" if dense_acceptance > params.midpoint else "NO"
        got = pr.decide_gapped(matrix, g)
        assert got.decision == dense_decision == ("NO" if accepts else "YES")
        assert got.acceptance == pytest.approx(dense_acceptance, abs=1e-12)

        # U psi from the Taylor loop against Al-Mohy--Higham on the same witness.
        _, psi, _ = sp.bottom_eigenpair(matrix)
        taylor = psi + sim.expm_taylor_minus_identity(
            rows, params.evo_time, params.taylor_order, psi
        )
        reference = expm_multiply(-1j * params.evo_time * rows.csr, psi)
        assert np.linalg.norm(taylor - reference) <= params.epsilon

        # At the instance's own certified g the read is the eigenvalue law.
        own = pr.decide_gapped(matrix, certified_g)
        if accepts:
            want = np.sin(lams[0] * own.evo_time / 2) ** 2
            assert own.decision == "NO"
            assert own.rejection == pytest.approx(want, rel=1e-9)
        else:
            assert own.decision == "YES"
            assert own.rejection < own.epsilon


def test_decide_gapped_refuses_a_doctored_closed_form(monkeypatch):
    # Space 3 on "11": lambda_min = 0.081 at g = 12.  Moving lambda by a
    # relative 1e-4 keeps the witness's eigen-residual (8.1e-6) under
    # 2^-g/8 = 3.1e-5, but moves sin^2(lam t/2) by 1.3e-8, far past
    # epsilon (1.4e-10) plus the rounding bound (1.4e-13).
    gram = rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine("unary_counter"), 3), "11").gram
    honest = pr.decide_gapped(gram, 12)
    recognise = sp._path_sum_bottom
    for factor in (1 + 1e-4, 1 - 1e-4):
        monkeypatch.setattr(
            sp, "_path_sum_bottom", lambda a: dataclasses.replace(recognise(a), lam=recognise(a).lam * factor)
        )
        with pytest.raises(ContractError, match=r"differs from sin\^2\(lam t/2\)"):
            pr.decide_gapped(gram, 12)
    monkeypatch.setattr(sp, "_path_sum_bottom", recognise)
    assert pr.decide_gapped(gram, 12) == honest


@pytest.mark.parametrize("g", [1, 2, 3])
def test_decide_gapped_refuses_a_reduction_inside_its_promise_gap(g):
    # Space 3 on "11": the chain table's lambda_min 0.081 is neither 0 nor
    # at least 2^-g for g <= 3.  Its formed rows are a path sum, whose
    # lambda_min is the same closed form, so they are refused alike.
    gram = rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine("unary_counter"), 3), "11").gram
    lam = sp.min_eigenvalue_sparse(gram)
    assert 2.0**-4 < lam < 2.0**-3
    with pytest.raises(PromiseViolation, match=rf"lambda_min {lam!r} is neither 0 nor at least 2\^-{g}$"):
        pr.decide_gapped(gram, g)
    assert issubclass(PromiseViolation, ContractError)
    with pytest.raises(PromiseViolation, match=rf"lambda_min {lam!r} is neither 0 nor at least 2\^-{g}$"):
        pr.decide_gapped(oracles.formed(gram), g)
    assert pr.decide_gapped(gram, 4).decision == "NO"


def test_closed_form_read_against_60_digits():
    # The witness is an eigenvector, so the read is the Taylor polynomial at
    # y = lam t: rejection |p_K(y) - 1|^2 / 4, acceptance |p_K(y) + 1|^2 / 4.
    # With each row of the first product rounded once the read lands within
    # 2.3 ulps of it here; with plain row sums it erred by up to 16.
    import mpmath

    eps = np.finfo(np.float64).eps
    cases = [("unary_counter", space, "11") for space in (3, 4, 5, 6)] + [
        ("unary_counter", 6, "1111"), ("binary_nonmax", 3, "#o"), ("binary_nonmax", 4, "#oi"),
        ("first_last_match", 2, "a"), ("first_last_match", 3, "aa"), ("first_last_match", 4, "aba"),
    ]
    with mpmath.workdps(60):
        for name, space, x in cases:
            gram = rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine(name), space), x).gram
            got = pr.decide_gapped(gram, 12)
            y = oracles.path_sum_bottom(oracles.formed(gram)) * mpmath.mpf(got.evo_time)
            v = mpmath.fsum((-1j * y) ** k / mpmath.factorial(k) for k in range(1, got.taylor_order + 1))
            assert got.decision == "NO"
            assert abs(got.rejection - abs(v) ** 2 / 4) <= 4 * eps * abs(v) ** 2 / 4
            assert abs(got.acceptance - abs(2 + v) ** 2 / 4) <= 4 * eps


def _rejecting_corpus_inputs():
    """(machine at spaces 2-6, input) for every rejected input of up to two symbols, one at space 6."""
    for name in rtm.corpus_names():
        for space in range(2, 7):
            machine = rtm.with_space(rtm.corpus_machine(name), space)
            letters = [a for a in machine.alphabet if a != machine.blank]
            for n in range(min(space, 2 if space == 6 else 3)):
                for x in map("".join, itertools.product(letters, repeat=n)):
                    if not rtm.simulate(machine, x).accepted:
                        yield machine, x


def test_rejecting_corpus_grams_read_exactly_zero(monkeypatch):
    # The witness is a signed constant on a path with both ends 1: every row
    # of A psi sums +-c and +-2c to exactly 0, so the read is exactly 0.
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("the dense route ran")

    monkeypatch.setattr(sp, "materialize", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    read_dims = []
    phase_read = pr.phase_read
    monkeypatch.setattr(pr, "phase_read", lambda m, *rest, **kw: read_dims.append(m.dim) or phase_read(m, *rest, **kw))
    eps = np.finfo(np.float64).eps
    seen = set()
    for machine, x in _rejecting_corpus_inputs():
        gram = rtm.reduce_to_gapped(machine, x).gram
        lam, psi, residual = sp.bottom_eigenpair(gram)
        assert (lam, residual) == (0.0, 0.0)
        decision = pr.decide_gapped(gram, 12)
        assert decision.decision == "YES" and decision.rejection == 0.0
        assert abs(decision.acceptance - 1.0) <= 2 * eps
        # The read ran on the witness's own block, a few rows of the Gram.
        assert read_dims[-1] == np.count_nonzero(psi) < gram.dim
        seen.add(machine.name)
    assert len(seen) == 4 and len(read_dims) > 100


def test_pe_verifier_promise_wraps_gapped_params():
    singular, _, g = pr.toy_gapped_instances()
    verifier = pr.pe_verifier(singular, g)
    params = pr.gapped_params(singular, g)
    assert verifier.completeness_c == params.completeness
    assert verifier.soundness_s == params.soundness
    q = pr.accept_operator(verifier)
    assert q.max_acceptance >= params.completeness - 1e-12


# --- precise reductions -----------------------------------------------------


def test_clock_thresholds():
    a, b = pr.clock_thresholds(0.9, 0.1, 4)
    assert a == pytest.approx(0.1 / 5, abs=1e-15)
    assert b == pytest.approx(0.9 / 64, abs=1e-15)


def test_kitaev_rotation_instance():
    verifier = pr.rotation_verifier(0.9, 0.9, 0.1)
    instance = pr.kitaev_hamiltonian(verifier)
    assert instance.num_qubits == 3
    assert instance.locality == 3
    assert instance.term_count == len(instance.terms().terms) == 3
    dense = instance.terms().materialize()
    lam = pr.ground_energy(np.real(dense))
    assert lam == pytest.approx(0.012912542362503346, abs=1e-10)
    assert lam <= instance.threshold_a
    assert instance.threshold_a == pytest.approx(0.05, abs=1e-12)
    assert instance.threshold_b == pytest.approx(0.9, abs=1e-12)


def test_kitaev_terms_are_positive_semidefinite():
    instance = pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1))
    for qubits, matrix in instance.terms().terms:
        assert len(qubits) == len(set(qubits))
        eigs = np.linalg.eigvalsh(matrix)
        assert eigs.min() >= -1e-12


def test_history_state_energy_is_exact():
    verifier = pr.rotation_verifier(0.9, 0.9, 0.1)
    instance = pr.kitaev_hamiltonian(verifier)
    hist = oracles.history_state(verifier, np.array([0.0, 1.0]))
    assert np.linalg.norm(hist) == pytest.approx(1.0, abs=1e-12)
    energy = float(np.real(hist.conj() @ (instance.terms().materialize() @ hist)))
    # (1 - p) / (T + 1) with p = 0.9, T = 1.
    assert energy == pytest.approx(0.05, abs=1e-12)


# Both eigensolvers err by a small multiple of eps ||H||: the largest
# |legal - dense| seen over 800 random verifiers up to the caps was
# 5.1 eps ||H||_2.  The tests scale it by ||H||_1 >= ||H||_2, which
# costs no SVD of the dense matrix.
CLOCK_ENERGY_TOL = 16 * np.finfo(float).eps


def _norm_1(arr: np.ndarray) -> float:
    return float(np.abs(arr).sum(axis=0).max())


# The dense oracle holds all 2^(n+T) clock strings, so the strategy stops
# at 4 circuit qubits and 6 gates, dim 1024.
@settings(max_examples=40, deadline=None)
@given(
    circuit_qubits=st.integers(1, 4),
    gate_count=st.integers(1, 6),
    ancilla_k=st.integers(0, 3),
    output_qubit=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(circuit_qubits=4, gate_count=6, ancilla_k=3, output_qubit=3, seed=0)
@example(circuit_qubits=3, gate_count=6, ancilla_k=2, output_qubit=0, seed=1)
@example(circuit_qubits=3, gate_count=5, ancilla_k=2, output_qubit=2, seed=2)
def test_clock_ground_energy_matches_the_dense_oracle(
    circuit_qubits, gate_count, ancilla_k, output_qubit, seed
):
    assume(ancilla_k < circuit_qubits and output_qubit < circuit_qubits)
    verifier = _random_verifier(circuit_qubits, ancilla_k, gate_count, output_qubit, seed,
                                completeness_c=0.999)
    instance = pr.kitaev_hamiltonian(verifier)
    dense = instance.terms().materialize()
    legal = oracles.legal_clock_indices(circuit_qubits, gate_count)
    illegal = np.setdiff1d(np.arange(len(dense)), legal)
    # The terms never couple legal clock strings to illegal ones, and on the
    # legal ones they are the block, entry for entry.
    assert not dense[np.ix_(illegal, legal)].any()
    assert np.array_equal(dense[np.ix_(legal, legal)], instance.legal_block())
    bound = CLOCK_ENERGY_TOL * _norm_1(dense)
    assert abs(pr.ground_energy(instance) - oracles.dense_ground_energy(instance)) <= bound


def test_compiled_clock_energy_never_materializes(monkeypatch):
    circuit = oracles.random_circuit(4, 6, np.random.default_rng(3))
    instances = [
        pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1)),
        pr.kitaev_hamiltonian(pr.rule_parameterized_verifier()[0]),
        pr.kitaev_hamiltonian(pr.Verifier(circuit, witness_qubits=2, ancilla_k=2, output_qubit=0,
                                          completeness_c=0.999, soundness_s=0.1)),
    ]

    def refuse(self):
        raise AssertionError("a compiled clock instance was materialized")

    monkeypatch.setattr(pr.PreciseLHInstance, "materialize", refuse)
    for instance, dim in zip(instances, [8, 20, 112]):
        assert pr._hamiltonian(instance).shape == (dim, dim)
        lam = pr.ground_energy(instance)
        assert abs(pr.binary_search_energy(instance, 40) - lam) <= 2.0**-40


def test_compiling_and_solving_a_clock_builds_no_term(monkeypatch):
    verifiers = [
        pr.rotation_verifier(0.9, 0.9, 0.1),
        pr.rule_parameterized_verifier()[0],
        _random_verifier(4, 2, 6, 1, seed=5, completeness_c=0.999),
    ]
    instances = [pr.kitaev_hamiltonian(v) for v in verifiers]
    energies = [pr.ground_energy(i) for i in instances]
    bisected = [pr.binary_search_energy(i, 40) for i in instances]

    def refuse(self):
        raise AssertionError("a clock term was built")

    monkeypatch.setattr(pr.ClockInstance, "terms", refuse)
    for verifier, first, lam, mid in zip(verifiers, instances, energies, bisected):
        instance = pr.kitaev_hamiltonian(verifier)
        assert 2 <= instance.locality <= 5
        pr._hamiltonian(instance)
        # Bit for bit what the same instance reads once its terms exist.
        assert pr.ground_energy(instance) == lam
        assert pr.binary_search_energy(instance, 40) == mid
        # Comparing two compilations, and replacing a threshold, read the gates alone.
        assert instance == first and not instance != first
        moved = dataclasses.replace(instance, threshold_b=2 * instance.threshold_b)
        assert moved != instance and moved.gates is instance.gates
    with pytest.raises(AssertionError, match="a clock term was built"):
        instances[0].terms().to_dict()
    monkeypatch.undo()
    for instance, lam, mid in zip(instances, energies, bisected):
        count = instance.term_count  # read from the gates, before any term exists
        instance.terms().to_dict()  # builds the terms, which the solvers do not read
        assert (pr.ground_energy(instance), pr.binary_search_energy(instance, 40)) == (lam, mid)
        assert count == instance.term_count == len(instance.terms().terms)


@settings(max_examples=60, deadline=None)
@given(
    circuit_qubits=st.integers(1, 5),
    gate_count=st.integers(1, 8),
    ancilla_k=st.integers(0, 4),
    output_qubit=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(circuit_qubits=1, gate_count=1, ancilla_k=0, output_qubit=0, seed=0)
@example(circuit_qubits=3, gate_count=2, ancilla_k=1, output_qubit=2, seed=0)
@example(circuit_qubits=3, gate_count=3, ancilla_k=0, output_qubit=0, seed=1)
def test_clock_locality_from_the_gates_is_the_terms_arity(
    circuit_qubits, gate_count, ancilla_k, output_qubit, seed
):
    assume(ancilla_k < circuit_qubits and output_qubit < circuit_qubits)
    verifier = _random_verifier(circuit_qubits, ancilla_k, gate_count, output_qubit, seed,
                                completeness_c=0.999)
    instance = pr.kitaev_hamiltonian(verifier)
    from_gates = instance.locality
    built = instance.terms()
    terms = built.terms
    assert from_gates == built.locality == max(len(qubits) for qubits, _ in terms) <= 5
    # The same terms given to the constructor: locality read from them, as from a file.
    given_terms = pr.PreciseLHInstance(instance.num_qubits, terms, instance.threshold_a,
                                       instance.threshold_b)
    assert given_terms.locality == from_gates and given_terms == built
    # One input term per ancilla, one output term, T - 1 clock and T propagation terms.
    assert len(terms) == instance.term_count == ancilla_k + 2 * gate_count


def test_clock_terms_are_checked_when_built(monkeypatch):
    instance = pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1))
    window = pr.ClockInstance._window

    def overlapping(self, step):
        qubits, prev_idx, cur_idx = window(self, step)
        return (self.gates[step - 1][0][0],) * len(qubits), prev_idx, cur_idx

    monkeypatch.setattr(pr.ClockInstance, "_window", overlapping)
    with pytest.raises(ValueError, match="term repeats a qubit"):
        instance.terms()
    with pytest.raises(ContractError, match="a < b"):  # checked first, whatever the terms
        pr.PreciseLHInstance(1, [((0, 0), np.eye(4))], 0.2, 0.1)
    # A clock with no gate has no clock qubit to build a term on.
    empty = pr.Verifier(sim.QuantumCircuit(2), witness_qubits=1, ancilla_k=1, output_qubit=1,
                        completeness_c=0.9, soundness_s=0.1)
    for build in (lambda: pr.kitaev_hamiltonian(empty),
                  lambda: dataclasses.replace(instance, gates=())):
        with pytest.raises(ContractError, match="at least one gate"):
            build()


@pytest.mark.parametrize("change, words", [
    ({"output_qubit": 7}, "output touches a qubit outside 0..1"),
    ({"output_qubit": -1}, "output touches a qubit outside 0..1"),
    ({"ancillas": (9,)}, "ancillas touches a qubit outside 0..1"),
    ({"ancillas": (1, 1)}, r"ancillas repeats a qubit: \(1, 1\)"),
])
def test_clock_instance_refuses_qubits_outside_its_register(change, words):
    # Each of these once compiled to a wrong ground energy: 0.2929, 0.0 or
    # 0.01475 where the rotation verifier's is 0.01291.
    instance = pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1))
    assert instance.circuit_qubits == 2
    with pytest.raises(ValueError, match=words):
        dataclasses.replace(instance, **change)


def test_toy_gapped_instances_equal_their_entry_built_reference():
    singular, gapped, g = pr.toy_gapped_instances()
    reference = (
        dataclasses.replace(
            so.from_entries(2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]), entry_bound_k=2
        ),
        so.from_entries(2, [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 1)]),
    )
    assert g == 2
    for made, want in zip((singular, gapped), reference):
        for name in ("indptr", "indices", "data"):
            got, expected = getattr(made, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert (made.sparsity_d, made.entry_bound_k) == (want.sparsity_d, want.entry_bound_k)
        assert (made.sparsity_d, made.entry_bound_k) == (2, 2)


def test_clock_instance_is_a_snapshot_of_the_gates():
    verifier = pr.rotation_verifier(0.9, 0.9, 0.1)
    instance = pr.kitaev_hamiltonian(verifier)
    before = pr.ground_energy(instance)
    verifier.circuit.append("X", 1)  # the verifier changes; the compiled instance does not
    verifier.circuit.gates[0][1][:] = np.eye(4)
    assert pr.ground_energy(instance) == before
    _, mat = instance.gates[0]
    with pytest.raises(ValueError):
        mat[0, 0] = 0


@pytest.mark.parametrize("kind", ["rotation", "rule"])
def test_clock_energy_against_a_60_digit_legal_block(kind):
    import mpmath

    if kind == "rotation":
        verifier = pr.rotation_verifier(0.9, 0.9, 0.1)
    else:
        verifier, _ = pr.rule_parameterized_verifier()
    instance = pr.kitaev_hamiltonian(verifier)
    block = instance.legal_block()
    with mpmath.workdps(60):
        exact = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in block])
        lam = min(mpmath.eighe(exact, eigvals_only=True))
        err = float(abs(lam - pr.ground_energy(instance)))
    # ||block|| <= ||H||, so this is the stricter form of 2 eps ||H||.
    assert err <= 2 * np.finfo(float).eps * np.linalg.norm(block, 2)


def test_clocks_of_many_gates_or_qubits_match_the_dense_oracle():
    # 2 qubits with 7 gates and 5 qubits with 3 gates: legal blocks of 32 and
    # 128 rows, dense Hamiltonians of 512 and 256.
    for n, ancilla_k, gates, output in ((2, 1, 7, 0), (5, 2, 3, 4)):
        verifier = _random_verifier(n, ancilla_k, gates, output, seed=gates,
                                    completeness_c=0.999)
        instance = pr.kitaev_hamiltonian(verifier)
        assert instance.locality <= 5
        dense = instance.terms().materialize()
        legal = oracles.legal_clock_indices(n, gates)
        assert np.array_equal(dense[np.ix_(legal, legal)], instance.legal_block())
        lam = pr.ground_energy(instance)
        bound = CLOCK_ENERGY_TOL * _norm_1(dense)
        assert abs(lam - oracles.dense_ground_energy(instance)) <= bound
        assert abs(pr.binary_search_energy(instance, 40) - lam) <= 2.0**-40


def test_clock_block_over_the_dense_cap_is_refused_before_allocating(monkeypatch):
    # 10 circuit qubits and 16 gates: 17 * 2^10 = 17,408 legal rows.
    big = pr.kitaev_hamiltonian(_random_verifier(10, 2, 16, 0, seed=0, completeness_c=0.9999))
    small = pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1))
    assert so.DENSE_CAP < 17 * 2**10
    zeros = np.zeros

    def refuse_square(rows: int):
        def guarded(shape, *args, **kwargs):
            if np.prod(shape) >= rows * rows:
                raise AssertionError("a rows x rows array was allocated")
            return zeros(shape, *args, **kwargs)
        return guarded

    # On the 8-row block under the cap the sentinel fires, so it sits at the allocation.
    monkeypatch.setattr(np, "zeros", refuse_square(8))
    with pytest.raises(AssertionError, match="rows x rows"):
        pr.ground_energy(small)
    monkeypatch.setattr(np, "zeros", refuse_square(17 * 2**10))
    for solve in (pr.ground_energy, lambda h: pr.binary_search_energy(h, 10)):
        with pytest.raises(ResourceLimitError, match="legal clock block of 17408 rows exceeds"):
            solve(big)
    with pytest.raises(ResourceLimitError, match="dim 67108864 exceeds dense materialization cap"):
        big.terms().materialize()


def test_precise_epsilon_rule_keeps_thresholds_ordered():
    for gap, gates in [(0.05, 4), (0.2, 2), (1e-3, 6)]:
        eps = pr.precise_epsilon_rule(gap, gates)
        a, b = pr.clock_thresholds(1.0 - eps, 1.0 - (gap - eps), gates)
        assert b > a


def test_precise_lh_bounds_edge_examples():
    assert pr.clock_thresholds(1.0, 0.75, 2) == (0.0, 0.03125)
    a, b = pr.clock_thresholds(0.75, 1.0, 2)
    assert a == pytest.approx(1 / 12, abs=1e-15)
    assert b == 0.0


def test_precise_lh_bounds_epsilon_consistency():
    verifier = pr.rotation_verifier(0.9, 0.9, 0.5)
    with pytest.raises(ContractError):
        pr.precise_lh_bounds(verifier, 0.2)
    assert pr.precise_lh_bounds(verifier, 0.1) == (*pr.clock_thresholds(0.9, 0.5, 1), True)


def test_rule_parameterized_verifier_round_trip():
    verifier, eps = pr.rule_parameterized_verifier()
    assert verifier.gate_count_T == 4
    # Both promise endpoints moved inward by eps, so the source gap is c - s + 2 eps.
    gap = verifier.completeness_c - verifier.soundness_s + 2 * eps
    assert eps == pytest.approx(pr.precise_epsilon_rule(gap, 4), rel=1e-9)
    a, b, ok = pr.precise_lh_bounds(verifier, eps)
    assert ok
    assert a == pytest.approx(2.8157444210874517e-05, abs=1e-18)
    assert b == pytest.approx(7.259341085615219e-05, abs=1e-18)


def test_precise_instance_threshold_contract():
    with pytest.raises(ContractError):
        pr.PreciseLHInstance(
            num_qubits=1,
            terms=[((0,), np.eye(2))],
            threshold_a=0.5,
            threshold_b=0.25,
        )
    # The compiled path: T = 4 at c = 0.9, s = 0.1 gives a = 0.1/5 = 0.02 > b = 0.9/64 = 0.0141.
    verifier = _random_verifier(2, 1, 4, 0, seed=0, completeness_c=0.9, soundness_s=0.1)
    with pytest.raises(ContractError, match="thresholds must satisfy a < b"):
        pr.kitaev_hamiltonian(verifier)
    instance = pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1))
    for b in (instance.threshold_a, float("nan")):
        with pytest.raises(ContractError, match="thresholds must satisfy a < b"):
            dataclasses.replace(instance, threshold_b=b)


def test_precise_instance_equality_compares_terms():
    make = lambda: pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1))
    first, second = make(), make()
    assert first is not second and first == second and not first != second
    other = pr.kitaev_hamiltonian(pr.rotation_verifier(0.8, 0.9, 0.1))
    assert first != other
    assert first != dataclasses.replace(first, threshold_b=first.threshold_b * 2)
    assert first != dataclasses.replace(first, gates=first.gates * 2)
    terms = first.terms()
    assert terms == second.terms()
    assert terms != dataclasses.replace(terms, threshold_b=terms.threshold_b * 2)
    assert terms != dataclasses.replace(terms, terms=terms.terms[:-1])
    # A file instance is compared through the term list, never with the circuit.
    again = pr.PreciseLHInstance.from_dict(json.loads(json.dumps(terms.to_dict())))
    assert again == terms and again != first and first != again
    assert first != "an instance" and terms != "an instance"


def test_precise_instance_json_round_trip():
    for verifier in (pr.rotation_verifier(0.9, 0.9, 0.1), pr.rule_parameterized_verifier()[0]):
        instance = pr.kitaev_hamiltonian(verifier)
        blob = json.dumps(instance.terms().to_dict())
        again = pr.PreciseLHInstance.from_dict(json.loads(blob))
        assert again.num_qubits == instance.num_qubits
        assert again.locality == instance.locality
        np.testing.assert_allclose(
            again.materialize(), instance.terms().materialize(), atol=1e-12
        )
        # The file instance is the term list, solved densely, and lands on the same energy.
        bound = CLOCK_ENERGY_TOL * _norm_1(again.materialize())
        assert abs(pr.ground_energy(again) - pr.ground_energy(instance)) <= bound
        assert abs(pr.binary_search_energy(again, 30) - pr.ground_energy(instance)) <= 2.0**-30


# --- eigenvalue search ------------------------------------------------------


def test_binary_search_energy_on_kitaev_instance():
    instance = pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1))
    estimate = pr.binary_search_energy(instance, 30)
    exact = pr.ground_energy(instance)
    assert abs(estimate - exact) <= 2.0 ** -30


def test_binary_search_energy_on_plain_matrices():
    arr = np.array([[2.0, 1.0], [1.0, 1.0]])
    estimate = pr.binary_search_energy(arr, 30)
    exact = float(np.linalg.eigvalsh(arr)[0])
    assert abs(estimate - exact) <= 2.0 ** -30


def test_binary_search_energy_handles_complex_hermitian():
    arr = np.array([[1.0, 1j], [-1j, 1.0]])
    estimate = pr.binary_search_energy(arr, 20)
    assert abs(estimate - 0.0) <= 2.0 ** -20


def test_binary_search_energy_needs_no_eigensolver(monkeypatch):
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    instances = [
        pr.kitaev_hamiltonian(pr.rotation_verifier(0.9, 0.9, 0.1)),
        pr.kitaev_hamiltonian(pr.rule_parameterized_verifier()[0]),
        (z + z.conj().T) / 2,
    ]
    exact = [pr.ground_energy(h) if isinstance(h, pr.ClockInstance)
             else float(np.linalg.eigvalsh(h)[0]) for h in instances]

    def refuse(*args, **kwargs):
        raise AssertionError("the bisection called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for instance, lam in zip(instances, exact):
        assert abs(pr.binary_search_energy(instance, 30) - lam) <= 2.0**-30


def test_binary_search_energy_on_the_largest_clock_instance():
    # 4 circuit qubits and 6 gates, the clock construction's caps: dim 1024.
    circuit = oracles.random_circuit(4, 6, np.random.default_rng(3))
    verifier = pr.Verifier(circuit, witness_qubits=2, ancilla_k=2, output_qubit=0,
                           completeness_c=0.999, soundness_s=0.1)
    instance = pr.kitaev_hamiltonian(verifier)
    lam = oracles.dense_ground_energy(instance)
    assert abs(pr.binary_search_energy(instance, 40) - lam) <= 2.0**-40


def _energy_oracles():
    """The energy_2x2 and toy_gram golden files, and unary_counter's reduction Grams at spaces 3-5."""
    golden = Path(__file__).parent / "golden"
    for name in ("energy_2x2", "toy_gram"):
        yield rtm.load_instance(golden / f"{name}.json")
    for space in (3, 4, 5):
        machine = rtm.with_space(rtm.corpus_machine("unary_counter"), space)
        for x in ("11", "1"):
            yield rtm.reduce_to_gapped(machine, x).gram


def test_binary_search_energy_reads_a_row_oracle_as_its_dense_copy_reads():
    for matrix in _energy_oracles():
        dense = so.materialize(oracles.formed(matrix))
        assert pr.binary_search_energy(matrix, 40) == pr.binary_search_energy(dense, 40)
    with pytest.raises(ContractError, match="not symmetric"):
        pr.binary_search_energy(so.from_dense(np.array([[1, 1], [0, 1]])), 10)


def test_binary_search_energy_on_a_reduction_gram_needs_no_closed_form(monkeypatch):
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 5)
    grams = {x: rtm.reduce_to_gapped(machine, x).gram for x in ("11", "1")}
    want = {x: sp.min_eigenvalue_sparse(gram) for x, gram in grams.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("the bisection read the closed form")

    for name in ("min_eigenvalue_bound", "_chain_floor", "_path_sum_bottom"):
        monkeypatch.setattr(sp, name, refuse)
    for x, gram in grams.items():
        assert abs(pr.binary_search_energy(gram, 40) - want[x]) <= 2.0**-40


def test_binary_search_energy_on_a_row_oracle_builds_no_dense_matrix(monkeypatch):
    import tracemalloc

    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 5)
    gram = rtm.reduce_to_gapped(machine, "11").gram  # dim 6,075; A^T A is formed below
    want = sp.min_eigenvalue_sparse(gram)

    def refuse(*args, **kwargs):
        raise AssertionError("the bisection materialized its matrix")

    for module in (so, sp, pr):  # spectral and protocols hold materialize by name
        monkeypatch.setattr(module, "materialize", refuse)
    tracemalloc.start()
    try:
        estimate = pr.binary_search_energy(gram, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(estimate - want) <= 2.0**-30
    assert peak < gram.dim**2  # not even a dim x dim array of bytes


def test_binary_search_energy_rejects_excess_bits():
    with pytest.raises(ContractError):
        pr.binary_search_energy(np.eye(2), 41)


def test_binary_search_energy_rejects_nonhermitian():
    with pytest.raises(ContractError):
        pr.binary_search_energy(np.array([[0.0, 1.0], [0.0, 0.0]]), 10)
    # eigvalsh would read only the lower triangle, [[0, 1], [1, 0]], and report -1.
    with pytest.raises(ContractError, match="not Hermitian"):
        pr.ground_energy(np.array([[0.0, 0.0], [1.0, 0.0]]))
    # A NaN or infinite entry makes the deviation NaN, which no "> tol" test refuses.
    for arr in (np.array([[np.nan]]), np.array([[1.0, np.inf], [np.inf, 1.0]])):
        for solve in (pr.ground_energy, lambda h: pr.binary_search_energy(h, 10)):
            with pytest.raises(ContractError, match="not Hermitian"):
                solve(arr)


def test_params_refuse_a_register_past_the_float_range():
    # b = 1022 gives 2^1024 register outcomes, the first power of 2 past the floats.
    with pytest.raises(ValueError, match="precision bits 1022 "):
        pr.AmplificationParams.from_promise(0.9, 0.1, 3, 1022)
    params = pr.AmplificationParams.from_promise(0.9, 0.1, 3, 1021)
    assert params.register_bits == 1023
