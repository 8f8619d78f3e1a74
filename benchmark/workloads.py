"""Job lists for the three benchmark workloads, with independent-route checks.

Every job calls the public functions of ``gaplab`` through module
attributes (``rtm.reduce_to_gapped``, never a ``from`` import), so the
traced run sees the same calls the untraced run makes.  Each job builds
its machine and instance fresh, as one CLI call would.

Inputs come from each machine's language definition, not from
``simulate``: the seed picks which member (or non-member) of the
language a job runs on.  Sizes are fixed by the workload.

The checks read only fields that the planned redesigns keep: no
``GappedDecision.decision`` string, no tuple unpacking of
``AmplificationOutcome``, and none of ``binary_search_energy``,
``min_eigenvalue_oracle`` or ``DenseMatrix.check_psd``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from gaplab import protocols, rtm, spectral

# Pass time of each workload at the commit that defined the benchmark
# (2-core Xeon VM, single-threaded BLAS).  ``--seconds`` becomes a pass count through these,
# so every version of the program is timed over the same samples: with
# a pass count that followed the clock, a faster program would move the
# job_tail_s rank into a different class of jobs.
NOMINAL_PASS_S = {"reduce_scale": 8.5, "verify_gapped": 7.0, "amplify_gap": 4.3}

VERIFY_GAP_EXPONENT = 12
AMPLIFY_GAP_BITS = (8, 10, 12, 13)
AMPLIFY_TRIALS = 3


def passes_for(workload: str, seconds: float) -> int:
    """Number of passes that measure about ``seconds`` at the nominal pass time."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------------------
# language definitions of the corpus machines


def _unary_counter(x: str) -> bool:
    return set(x) <= {"1"} and len(x) % 2 == 0


def _binary_nonmax(x: str) -> bool:
    return x[:1] == "#" and set(x[1:]) <= {"i", "o"} and "o" in x[1:]


def _first_last_match(x: str) -> bool:
    return set(x) <= {"a", "b"} and (x == "" or x[0] == x[-1])


@dataclass(frozen=True)
class Language:
    """Membership test plus the strings a machine is meant to read."""

    accepts: Callable[[str], bool]
    prefix: str
    letters: str

    def strings(self, space: int) -> list[str]:
        """Every well-formed input that fits a tape of ``space`` cells."""
        body_max = space - 1 - len(self.prefix)
        return [
            self.prefix + "".join(body)
            for n in range(body_max + 1)
            for body in itertools.product(self.letters, repeat=n)
        ]


LANGUAGES = {
    "unary_counter": Language(_unary_counter, "", "1"),
    "binary_nonmax": Language(_binary_nonmax, "#", "io"),
    "first_last_match": Language(_first_last_match, "", "ab"),
}


def pick_input(seed: int, machine: str, space: int, accepting: bool) -> str:
    """Seeded member (or non-member) of the machine's language at this space."""
    lang = LANGUAGES[machine]
    pool = [x for x in lang.strings(space) if lang.accepts(x) == accepting]
    return random.Random(f"{seed}:{machine}:{space}:{accepting}").choice(pool)


# ---------------------------------------------------------------------------
# jobs


@dataclass(frozen=True)
class Job:
    """One library-level question and the facts its answer must agree with."""

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]


def _machine(name: str, space: int):
    return rtm.with_space(rtm.corpus_machine(name), space)


def reduce_job(machine_name: str, space: int, x: str) -> Job:
    """reduce_to_gapped -> det_exact -> min_eigenvalue_sparse -> simulate."""
    in_language = LANGUAGES[machine_name].accepts(x)

    def run() -> dict:
        machine = _machine(machine_name, space)
        instance = rtm.reduce_to_gapped(machine, x)
        det = spectral.det_exact(instance.adjacency)
        lam = spectral.min_eigenvalue_sparse(instance.gram)
        accepted = rtm.simulate(machine, x).accepted
        return {
            "dim": instance.dim,
            "gram": instance.gram,  # the traced run reads its nonzero count
            "det": det,
            "lam": lam,
            "accepted": accepted,
        }

    def check(out: dict) -> list[str]:
        floor = spectral.min_eigenvalue_bound(out["dim"])
        routes = {
            "language": in_language,
            "simulate": out["accepted"],
            "det != 0": out["det"] != 0,
            "lambda_min >= floor": out["lam"] >= floor,
        }
        if len(set(routes.values())) == 1:
            return []
        return [f"routes disagree: {routes} (det={out['det']}, lambda_min={out['lam']:.3e})"]

    return Job(f"reduce:{machine_name}:s{space}:{x or 'eps'}", run, check)


def verify_job(machine_name: str, space: int, x: str, g: int) -> Job:
    """reduce_to_gapped -> decide_gapped(gram, g), dense path."""
    rejects = not LANGUAGES[machine_name].accepts(x)

    def run() -> dict:
        instance = rtm.reduce_to_gapped(_machine(machine_name, space), x)
        result = protocols.decide_gapped(instance.gram, g)
        return {
            "dim": instance.dim,
            "gram": instance.gram,  # the traced run reads its nonzero count
            "acceptance": result.acceptance,
            "midpoint": (result.completeness + result.soundness) / 2,
            "taylor_order": result.taylor_order,
        }

    def check(out: dict) -> list[str]:
        # The phase read accepts (lambda_min = 0) exactly when the machine rejects.
        read_zero = out["acceptance"] > out["midpoint"]
        if read_zero == rejects:
            return []
        return [
            f"phase read acceptance {out['acceptance']!r} vs midpoint "
            f"{out['midpoint']!r} disagrees with machine rejecting={rejects}"
        ]

    return Job(f"verify:{machine_name}:s{space}:{x or 'eps'}", run, check)


def amplify_job(k: int, yes_side: bool) -> Job:
    """nwz_amplify on rotation_verifier with c - s = 2^-k, witness at p = c or p = s."""
    c = 0.5 + 2.0 ** -(k + 1)
    s = 0.5 - 2.0 ** -(k + 1)
    p = c if yes_side else s
    want = "YES" if yes_side else "NO"

    def run() -> dict:
        verifier = protocols.rotation_verifier(p, c, s)
        params = protocols.AmplificationParams.from_promise(c, s, AMPLIFY_TRIALS)
        # As `gaplab amplify --witness best`: the top eigenvector of Q.
        acceptances, vecs = protocols.accept_operator(verifier).eigensystem()
        outcome = protocols.nwz_amplify(verifier, params, vecs[:, -1])
        return {
            "acceptance": float(acceptances[-1]),
            "decision": outcome.decision,
            "register_bits": params.register_bits,
        }

    def check(out: dict) -> list[str]:
        issues = []
        if abs(out["acceptance"] - p) > 1e-12:
            issues.append(f"best witness accepts with {out['acceptance']!r}, want {p!r}")
        if out["decision"] != want:
            issues.append(f"decision {out['decision']!r}, want {want!r}")
        return issues

    side = "yes" if yes_side else "no"
    return Job(f"amplify:k{k}:{side}", run, check)


def clock_job(kind: str) -> Job:
    """kitaev_hamiltonian + ground_energy of an accepting verifier."""

    def run() -> dict:
        if kind == "rotation":
            verifier = protocols.rotation_verifier(0.9, 0.9, 0.1)
        else:
            verifier, _ = protocols.rule_parameterized_verifier()
        instance = protocols.kitaev_hamiltonian(verifier)
        energy = protocols.ground_energy(instance)
        return {"a": instance.threshold_a, "b": instance.threshold_b, "energy": energy}

    def check(out: dict) -> list[str]:
        issues = []
        if not out["b"] > out["a"]:
            issues.append(f"thresholds not ordered: a={out['a']!r} b={out['b']!r}")
        if not out["energy"] <= out["a"]:
            issues.append(f"ground energy {out['energy']!r} above a={out['a']!r}")
        return issues

    return Job(f"clock:{kind}", run, check)


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one workload; the seed picks only input strings.

    The first job is the cheapest of the workload's main path; it doubles
    as the untimed warm-up job of set-up.
    """
    if workload == "reduce_scale":
        # Spaces 5-7: space 8 (262,440 configurations, ~20 s a pair) would
        # leave room for one pass per run, and the time of a run's single
        # pass moves by a quarter with the shared machine's load.  Smaller
        # jobs (space 4, the corpus machines at their bundled spaces) would
        # put the median job at a 0.1 s instance.
        return [
            reduce_job("unary_counter", space,
                       pick_input(seed, "unary_counter", space, accepting))
            for space in range(5, 8)
            for accepting in (True, False)
        ]
    if workload == "verify_gapped":
        cases = [
            ("unary_counter", 3, (True, False)),
            ("unary_counter", 4, (True, False)),
            ("binary_nonmax", 3, (True, False)),
            # At space 2 every input has at most one symbol, so all accept.
            ("first_last_match", 2, (True,)),
        ]
        return [
            verify_job(name, space, pick_input(seed, name, space, accepting),
                       VERIFY_GAP_EXPONENT)
            for name, space, sides in cases
            for accepting in sides
        ]
    if workload == "amplify_gap":
        jobs = [amplify_job(k, yes) for k in AMPLIFY_GAP_BITS for yes in (True, False)]
        return jobs + [clock_job("rotation"), clock_job("rule")]
    raise ValueError(f"unknown workload {workload!r}; have {sorted(NOMINAL_PASS_S)}")
