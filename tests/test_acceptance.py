"""Acceptance gate: nine desk-scale properties, one test per criterion.

Each test prints a single summary line with its measured constants
(visible under pytest -s or on failure); the pass/fail verdict is the
test outcome itself.  Everything here is exact or eigensolver-anchored;
nothing samples.
"""

import math

import numpy as np
import pytest

from gaplab import protocols as pr
from gaplab import rtm
from gaplab import simulator as sim
from gaplab import sparse_oracle as so
from gaplab import spectral as sp

import oracles

CORPUS_INPUTS = {
    "unary_counter": ["", "1", "11", "111"],
    "first_last_match": ["aa", "ab", "ba", "bb"],
    "binary_nonmax": ["#oo", "#oi", "#io", "#ii"],
}


def test_criterion_1_closed_form_spectrum():
    worst = 0.0
    for ell in range(1, 65):
        report = sp.spectrum_report("path", ell)
        worst = max(worst, report.max_abs_discrepancy)
        assert report.max_abs_discrepancy <= 1e-9
    # The even-index form misses at ell = 1: it yields 3 where the true
    # lone eigenvalue is 1.  Recorded, not repaired.
    legacy = sp.spectrum_report("path", 1, index_form="even")
    assert legacy.closed_form[0] == pytest.approx(3.0, abs=1e-12)
    assert legacy.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    corrected = sp.spectrum_report("path", 1)
    assert corrected.closed_form[0] == pytest.approx(1.0, abs=1e-12)
    print(
        f"PASS criterion 1: closed form matches eigensolver for ell 1..64, "
        f"worst discrepancy {worst:.3e}; even-index form at ell=1 gives 3 vs true 1"
    )


def test_criterion_2_inverse_square_scaling():
    ells = [2**k for k in range(2, 12)]
    lams = [oracles.min_eigenvalue_banded(*sp.gram_bands("path", ell)) for ell in ells]
    slope = np.polyfit(np.log(ells), np.log(lams), 1)[0]
    assert -2.05 <= slope <= -1.95
    print(f"PASS criterion 2: log-log slope of lambda_min over ell 4..2048 is {slope:.4f}")


def test_criterion_3_reduction_correctness():
    lines = []
    for name, inputs in CORPUS_INPUTS.items():
        machine = rtm.corpus_machine(name)
        for inp in inputs:
            accepted = rtm.simulate(machine, inp).accepted
            instance = rtm.reduce_to_gapped(machine, inp)
            det = sp.det_exact(instance.adjacency)
            assert det in (0, 1, -1)
            assert (det != 0) == accepted
            # Gram entries stay in {0, 1, 2} (spot-checked rows).
            for i in range(0, instance.dim, max(1, instance.dim // 64)):
                for _, value in oracles.row(instance.gram, i):
                    assert value in (1, 2)
            lam = sp.min_eigenvalue_sparse(instance.gram)
            bound = sp.min_eigenvalue_bound(instance.dim)
            if accepted:
                assert lam >= bound - 1e-10
            else:
                assert abs(lam) <= 1e-10
            lines.append(f"{name}:{inp!r} det={det} lam={lam:.2e}")
    print(f"PASS criterion 3: {len(lines)} corpus pairs consistent ({'; '.join(lines[:3])}; ...)")


def test_criterion_4_cycle_cover_determinant():
    rng = np.random.default_rng(20260815)
    for trial in range(500):
        n = int(rng.integers(1, 8))
        arr = rng.integers(-2, 3, size=(n, n))
        oracle = so.from_dense(arr)
        assert oracles.det_cycle_cover(oracle) == oracles.det_permutation_expansion(oracle)
    print("PASS criterion 4: cycle-cover = permutation-expansion determinant on 500 seeded matrices (dim <= 7)")


def test_criterion_5_gapped_verification():
    # Per-eigenvector one-bit phase estimation against the cosine law.
    worst = 0.0
    for ell in (2, 4, 8, 16):
        gram = so.materialize(so.ata_oracle(so.path_adjacency(ell))).astype(float)
        t = math.pi / 4  # matrix norm <= 4, so norm * t <= pi
        u = sim.expm_exact(gram, t)
        lams, vecs = np.linalg.eigh(gram)
        for idx in range(ell):
            got = oracles.one_bit_pe(u, vecs[:, idx])
            want = (1 + math.cos(lams[idx] * t)) / 2
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-10

    # Truncated-series verification on a reduced machine pair at g <= 12.
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 2)
    zero_side = rtm.reduce_to_gapped(machine, "1")   # rejecting run: lambda_min = 0
    gap_side = rtm.reduce_to_gapped(machine, "")     # accepting run: lambda_min >= 2^-g
    g = zero_side.g
    assert g <= 12
    params = pr.gapped_params(zero_side.gram, g)
    yes = pr.decide_gapped(zero_side.gram, g)
    no = pr.decide_gapped(gap_side.gram, g)
    target = 2.0 ** (-2 * g) * params.evo_time**2 / 8
    assert yes.decision == "YES" and no.decision == "NO"
    assert yes.acceptance >= 1 - params.epsilon
    assert no.acceptance <= params.soundness
    assert yes.acceptance - params.soundness >= target
    assert yes.acceptance - no.acceptance >= target
    print(
        f"PASS criterion 5: one-bit PE law worst dev {worst:.2e}; dim-90 pair at g={g} "
        f"separations {yes.acceptance - params.soundness:.3e} and "
        f"{yes.acceptance - no.acceptance:.3e} >= {target:.3e}"
    )


def test_criterion_6_trace_reduction():
    for name, verifier in oracles.corpus_verifiers().items():
        dim = 2**verifier.witness_qubits
        basis_avg = np.mean(
            [oracles.acceptance_probability(verifier, np.eye(dim)[j]) for j in range(dim)]
        )
        mixed = pr.mixed_witness_acceptance(verifier)
        assert abs(mixed - basis_avg) <= 1e-12, name
        assert abs(mixed - pr.accept_operator(verifier).trace / dim) <= 1e-12

    singular, bounded, g = pr.toy_gapped_instances()
    yes_verifier = pr.pe_verifier(singular, g)
    no_verifier = pr.pe_verifier(bounded, g)
    params = pr.AmplificationParams.from_promise(
        yes_verifier.completeness_c, yes_verifier.soundness_s, trials_r=3
    )
    yes_q = pr.amplified_accept_operator(yes_verifier, params)
    no_q = pr.amplified_accept_operator(no_verifier, params)
    m = yes_verifier.witness_qubits
    assert yes_q.trace >= 0.75
    assert no_q.trace <= 0.25
    assert yes_q.max_acceptance >= 1 - 2.0 ** -(m + 2)
    assert no_q.max_acceptance <= 2.0 ** -(m + 2)
    print(
        f"PASS criterion 6: mixed acceptance = trace average on all corpus verifiers; "
        f"amplified traces {yes_q.trace:.6f} >= 3/4 and {no_q.trace:.3e} <= 1/4"
    )


def test_criterion_7_amplification():
    params = pr.AmplificationParams.from_promise(0.9, 0.1, trials_r=3)
    good = pr.nwz_amplify(
        pr.rotation_verifier(0.9, 0.9, 0.1), params, np.array([0.0, 1.0])
    )
    assert good.p_yes >= 1 - 2.0**-3

    low_verifier = pr.rotation_verifier(0.1, 0.9, 0.1)
    _, vecs = pr.accept_operator(low_verifier).eigensystem()
    worst_yes = max(
        pr.nwz_amplify(low_verifier, params, vecs[:, j]).p_yes
        for j in range(vecs.shape[1])
    )
    assert worst_yes <= 2.0**-3

    # Jordan pairing: walk eigenphases match +-2 arccos sqrt(p).
    r0, r1 = oracles.reflections(pr.rotation_verifier(0.9, 0.9, 0.1))
    phases = np.sort(np.abs(np.angle(np.linalg.eigvals(r1 @ r0))))
    expected = 2 * math.acos(math.sqrt(0.9))
    assert abs(phases[0] - expected) <= 1e-8
    assert abs(phases[1] - expected) <= 1e-8
    print(
        f"PASS criterion 7: p_yes(good) {good.p_yes:.6f} >= 7/8, max p_yes(bad) "
        f"{worst_yes:.3e} <= 1/8, eigenphase pairing dev "
        f"{max(abs(phases[0] - expected), abs(phases[1] - expected)):.2e}"
    )


def test_criterion_8_precise_clock_instances():
    emitted = []
    rotation = pr.rotation_verifier(0.9, 0.9, 0.1)
    emitted.append((rotation, pr.kitaev_hamiltonian(rotation)))
    rule_verifier, rule_eps = pr.rule_parameterized_verifier()
    emitted.append((rule_verifier, pr.kitaev_hamiltonian(rule_verifier)))

    lines = []
    for verifier, instance in emitted:
        lam = oracles.dense_ground_energy(instance)
        cap = (1 - verifier.completeness_c) / (verifier.gate_count_T + 1)
        assert lam <= cap + 1e-12
        estimate = pr.binary_search_energy(instance, 30)
        assert abs(estimate - lam) <= 2.0**-30
        lines.append(f"lam={lam:.3e}<=cap={cap:.3e}, search err {abs(estimate - lam):.1e}")

    a, b, gap_ok = pr.precise_lh_bounds(rule_verifier, rule_eps)
    assert gap_ok and b > a
    print(
        f"PASS criterion 8: {lines[0]}; {lines[1]}; rule thresholds "
        f"a={a:.3e} < b={b:.3e}"
    )


def test_criterion_9_taylor_error_scaling():
    # Truncation error measured in 60-digit arithmetic: the double-precision
    # floor (~2e-15) sits above the analytic tail for K >= 28, so the bound
    # can only be checked against the exact series.
    from mpmath import mp, mpc, mpf
    from mpmath import sqrt as mp_sqrt

    mp.dps = 60
    arr = so.materialize(so.ata_oracle(so.path_adjacency(8)))
    t = mp.pi / 4
    x = math.pi  # matrix one-norm is 4, so ||A|| t <= 4 t = pi
    scaled = mp.matrix(8)
    for i in range(8):
        for j in range(8):
            scaled[i, j] = mpc(0, -1) * t * int(arr[i, j])

    def frobenius(matrix):
        total = mpf(0)
        for i in range(8):
            for j in range(8):
                total += abs(matrix[i, j]) ** 2
        return mp_sqrt(total)

    term = mp.eye(8)
    partial = mp.eye(8)
    partials = {}
    for order in range(1, 121):
        term = (scaled * term) / order
        partial = partial + term
        if 2 <= order <= 40:
            partials[order] = partial.copy()
    reference = partial  # order 120: tail < 1e-150

    errors = {}
    for order in range(2, 41):
        err = float(frobenius(reference - partials[order]))
        errors[order] = err
        # Frobenius dominates the operator norm, so this check is conservative.
        assert err <= sim.taylor_tail_bound(x, order), order

    eps_grid = [10.0**-d for d in range(2, 13)]
    orders = [next(k for k in range(2, 41) if errors[k] <= eps) for eps in eps_grid]
    assert orders == sorted(orders)
    logs = np.log(1.0 / np.array(eps_grid))
    c1, c0 = np.polyfit(logs, np.array(orders, dtype=float), 1)
    residuals = np.array(orders) - (c1 * logs + c0)
    assert np.abs(residuals).max() <= 1.0
    assert 0.0 < c1 <= 1.0
    print(
        f"PASS criterion 9: measured error <= tail bound for K in 2..40; "
        f"smallest K over eps 1e-2..1e-12 = {orders}, fitted K ~ "
        f"{c1:.3f} ln(1/eps) + {c0:.2f}, max residual {np.abs(residuals).max():.2f}"
    )
