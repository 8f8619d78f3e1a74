"""Machine simulation, validation, and the determinant reduction."""

import itertools
import json
import re
from dataclasses import FrozenInstanceError, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import protocols as pr, rtm, sparse_oracle as so, spectral as sp
from gaplab.errors import ContractError

import oracles


def _golden():
    ref = resources.files("gaplab").joinpath("corpus/golden_step.json")
    return json.loads(ref.read_text())


def test_corpus_names():
    assert rtm.corpus_names() == [
        "binary_counter", "binary_nonmax", "first_last_match", "unary_counter"]


def test_corpus_machines_validate():
    for name in rtm.corpus_names():
        report = rtm.validate(rtm.corpus_machine(name))
        assert report.ok, report.issues


def test_golden_trace_replay():
    golden = _golden()
    machine = rtm.corpus_machine(golden["machine"])
    assert machine.space == golden["space"]
    want = [
        rtm.Configuration(state, head, tuple(tape))
        for state, head, tape in golden["trace"]
    ]
    got = rtm.simulate(machine, golden["input"], record_trace=True)
    assert got.accepted
    assert list(got.trace) == want
    # The first hop doubles as a single-step check.
    assert rtm.step(machine, want[0]) == want[1]


def test_final_configuration_is_canonical():
    machine = rtm.corpus_machine("unary_counter")
    result = rtm.simulate(machine, "11")
    assert result.accepted
    assert result.final == rtm.accept_configuration(machine, "11")
    assert result.steps == 5


@pytest.mark.parametrize(
    "name,inp,accepts",
    [
        ("unary_counter", "11", True),
        ("unary_counter", "1", False),
        ("unary_counter", "111", False),
        ("first_last_match", "aa", True),
        ("first_last_match", "bb", True),
        ("first_last_match", "ab", False),
        ("first_last_match", "ba", False),
        ("binary_nonmax", "#oo", True),
        ("binary_nonmax", "#oi", True),
        ("binary_nonmax", "#io", True),
        ("binary_nonmax", "#ii", False),
    ],
)
def test_corpus_decision_table(name, inp, accepts):
    assert rtm.simulate(rtm.corpus_machine(name), inp).accepted is accepts


def test_input_must_leave_trailing_blank():
    machine = rtm.corpus_machine("unary_counter")  # space 4
    with pytest.raises(ValueError):
        rtm.simulate(machine, "1111")


def test_encode_decode_round_trip():
    machine = rtm.corpus_machine("unary_counter")
    for index in (0, 1, 17, machine.dim - 1):
        config = rtm.decode_configuration(machine, index)
        assert rtm.encode_configuration(machine, config) == index


def test_machine_dict_round_trip():
    machine = rtm.corpus_machine("first_last_match")
    again = rtm.machine_from_dict(oracles.machine_to_dict(machine))
    assert again == machine


def test_with_space_rescales_dimension():
    base = rtm.corpus_machine("unary_counter")
    grown = rtm.with_space(base, 5)
    assert grown.space == 5
    assert grown.dim == len(grown.states) * 5 * len(base.alphabet) ** 5
    assert rtm.simulate(grown, "11").accepted


def test_validate_flags_accept_state_exit():
    machine = rtm.corpus_machine("unary_counter")
    spec = oracles.machine_to_dict(machine)
    spec["transitions"].append([spec["accept"], "0", spec["start"], "0", "R"])
    report = rtm.validate(rtm.machine_from_dict(spec))
    assert not report.ok
    assert any("accept" in issue for issue in report.issues)
    assert any("start" in issue for issue in report.issues)


def test_validate_flags_injectivity_collision():
    # Two configurations stepping to the same successor.
    spec = {
        "name": "collide",
        "alphabet": ["0", "a", "b"],
        "blank": "0",
        "states": ["s", "p", "q", "acc"],
        "start": "s",
        "accept": "acc",
        "space": 2,
        "transitions": [
            ["p", "a", "q", "a", "R"],
            ["p", "b", "q", "a", "R"],
        ],
    }
    report = rtm.validate(rtm.machine_from_dict(spec))
    assert not report.ok
    assert report.collision is not None
    first, second = report.collision
    assert rtm.step(rtm.machine_from_dict(spec), first) == rtm.step(
        rtm.machine_from_dict(spec), second
    )


def test_validate_flags_cycles():
    spec = {
        "name": "loop",
        "alphabet": ["0", "a"],
        "blank": "0",
        "states": ["s", "p", "q", "acc"],
        "start": "s",
        "accept": "acc",
        "space": 2,
        "transitions": [
            ["p", "a", "q", "a", "R"],
            ["q", "a", "p", "a", "L"],
        ],
    }
    report = rtm.validate(rtm.machine_from_dict(spec))
    assert not report.ok
    assert report.cycle is not None


def test_augmented_adjacency_row_structure():
    machine = rtm.corpus_machine("unary_counter")
    adjacency = oracles.adjacency_rows(rtm.augmented_adjacency(machine, "11"))
    s_idx = rtm.encode_configuration(machine, rtm.start_configuration(machine, "11"))
    t_idx = rtm.encode_configuration(machine, rtm.accept_configuration(machine, "11"))
    # Accepting row holds exactly the back edge.
    assert oracles.row(adjacency, t_idx) == [(s_idx, 1)]
    # Start row: successor edge only, no self-loop.
    start_row = oracles.row(adjacency, s_idx)
    assert (s_idx, 1) not in start_row and len(start_row) == 1
    # A halting, non-accepting configuration keeps just its self-loop.
    for i in range(machine.dim):
        if i in (s_idx, t_idx):
            continue
        config = rtm.decode_configuration(machine, i)
        if rtm.step(machine, config) is None:
            assert oracles.row(adjacency, i) == [(i, 1)]
            break
    else:
        pytest.fail("no halting configuration found")
    # Every row, on every corpus machine, against the definition.
    for name in rtm.corpus_names():
        kinds = set()
        for space in (2, 3, 4):
            machine = rtm.with_space(rtm.corpus_machine(name), space)
            alphabet = [a for a in machine.alphabet if a != machine.blank]
            by_outcome = {}
            for length in range(space):
                for word in itertools.product(alphabet, repeat=length):
                    x = "".join(word)
                    by_outcome.setdefault(rtm.simulate(machine, x).accepted, x)
            for accepted, x in by_outcome.items():
                kinds.add(accepted)
                got = oracles.adjacency_rows(rtm.augmented_adjacency(machine, x)).csr
                want = oracles.coo_csr(machine.dim, oracles.adjacency_triplets(machine, x))
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, part), getattr(want, part)), (
                        name, space, x, part)
        assert kinds == {True, False}, name  # an accepting and a rejecting input


@st.composite
def injective_chains(draw):
    """Injective acyclic successor arrays on 2-9 configurations: a shuffled order cut into chains."""
    dim = draw(st.integers(2, 9))
    order = draw(st.permutations(range(dim)))
    links = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    succ = np.full(dim, -1, dtype=np.int64)
    for a, b, linked in zip(order, order[1:], links):
        if linked:
            succ[a] = b
    return succ


@settings(max_examples=80, deadline=None)
@given(injective_chains())
@example(np.full(3, -1))  # every start halts: an empty row at 0, in the middle and at dim - 1
@example(np.array([1, 2, -1]))  # one chain: starts that step, into the accept and next to it
@example(np.array([-1, 0, -1, 2]))
def test_adjacency_arrays_match_the_definition(succ):
    for t_idx in np.flatnonzero(succ < 0).tolist():
        for s_idx in range(len(succ)):
            if s_idx == t_idx:
                continue
            got = oracles.adjacency_arrays(succ, s_idx, t_idx)
            want = oracles.successor_adjacency(succ, s_idx, t_idx)
            for mine, theirs in zip(got, want):
                assert mine.dtype == theirs.dtype, (s_idx, t_idx)
                assert np.array_equal(mine, theirs), (succ, s_idx, t_idx)


def _assert_bisected_as_when_formed(gram: sp.GappedInstance) -> None:
    """``binary_search_energy`` reads the Gram as its formed rows, bit for bit, at 20, 30 and 40 bits."""
    rows = oracles.formed(gram)
    for bits in (20, 30, 40):
        assert pr.binary_search_energy(gram, bits) == pr.binary_search_energy(rows, bits), bits


@pytest.mark.parametrize("name", rtm.corpus_names())
def test_energy_bisects_a_reduction_as_its_formed_gram_does(name):
    # The bisection of a reduction's Gram reads its chain table's blocks; on
    # an accepting and a rejecting input at spaces 2-5 it brackets the same
    # bits as the bisection of the formed Gram, from the same interval.
    kinds = set()
    for space in range(2, 6):
        machine = rtm.with_space(rtm.corpus_machine(name), space)
        alphabet = [a for a in machine.alphabet if a != machine.blank]
        by_outcome = {}
        for length in range(space):
            for x in map("".join, itertools.product(alphabet, repeat=length)):
                by_outcome.setdefault(rtm.simulate(machine, x).accepted, x)
        kinds |= set(by_outcome)
        for x in by_outcome.values():
            _assert_bisected_as_when_formed(rtm.reduce_to_gapped(machine, x).gram)
    assert kinds == {True, False}, name  # an accepting and a rejecting input


def test_adjacency_arrays_peak_memory_stays_near_the_result():
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 7)
    succ = rtm.successors(machine)
    s_idx, t_idx = (
        rtm.encode_configuration(machine, config(machine, "11"))
        for config in (rtm.start_configuration, rtm.accept_configuration)
    )
    (indptr, indices), peak = oracles.traced_peak(
        lambda: oracles.adjacency_arrays(succ, s_idx, t_idx)
    )
    result = indptr.nbytes + indices.nbytes
    assert peak <= 1.7 * result, (peak, result)


def _space_7_reduction() -> rtm.GappedInstance:
    """``unary_counter`` on 11 at space 7, the instance the memory guards trace."""
    return rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine("unary_counter"), 7), "11")


def _index_bytes(matrix: so.RowOracleMatrix) -> int:
    return matrix.indptr.nbytes + matrix.indices.nbytes


def _unformed_index_bytes(adjacency: sp.SuccessorAdjacency) -> int:
    """The index bytes a reduction's adjacency takes once formed, from dim and nnz alone.

    Row i holds i and its successor: 2 dim entries less one per halting
    row, less the start's self-loop; the accept's back edge replaces its
    self-loop, and it halts.  Nothing is formed.
    """
    dim = adjacency.dim
    nnz = 2 * dim - int(np.count_nonzero(adjacency.succ < 0)) - 1
    return (dim + 1 + nnz) * np.dtype(so._index_dtype(dim, nnz)).itemsize


def test_det_peak_memory_stays_near_the_adjacency_indices():
    adjacency = _space_7_reduction().adjacency
    sp.det_exact(adjacency)  # a warm-up call, untraced; the numpy route imports nothing
    det, peak = oracles.traced_peak(lambda: sp.det_exact(adjacency))
    budget = _unformed_index_bytes(adjacency)
    assert det == -1
    assert peak <= budget, (peak, budget)


def test_lambda_min_peak_memory_stays_near_the_adjacency_indices():
    instance = _space_7_reduction()
    sp.min_eigenvalue_sparse(instance.gram)
    lam, peak = oracles.traced_peak(lambda: sp.min_eigenvalue_sparse(instance.gram))
    assert lam >= 2.0 ** -instance.g
    budget = _unformed_index_bytes(instance.adjacency)
    assert peak <= budget, (peak, budget)


def _reduction_job(machine: rtm.ReversibleTM, x: str):
    """A reduction as the benchmark's jobs run it: adjacency, determinant, lambda_min, simulation."""
    instance = rtm.reduce_to_gapped(machine, x)
    det = sp.det_exact(instance.adjacency)
    lam = sp.min_eigenvalue_sparse(instance.gram)
    return instance, det, lam, rtm.simulate(machine, x).accepted


# The space-7 jobs the guards trace: an accepting and a rejecting input on a
# machine of short chains and on one of chains of up to 73 steps.
_SPACE_7_JOBS = {"11": "unary_counter", "1": "unary_counter",
                 "#0000#": "binary_counter", "#0000": "binary_counter"}


@pytest.mark.parametrize("x", list(_SPACE_7_JOBS))
def test_every_reduction_stage_stays_within_the_adjacency_indices(x):
    # Each stage's traced transient, above what it keeps, is at most the
    # adjacency's index bytes, computed without forming them; the audit's is
    # the largest (0.85x measured).  No row is formed: the Gram product and
    # the row contract do not run in a reduction job.
    machine = rtm.with_space(rtm.corpus_machine(_SPACE_7_JOBS[x]), 7)
    _reduction_job(machine, x)
    stages = [(rtm, "successors"), (rtm, "_audit"), (rtm, "GappedInstance"), (sp, "det_exact"),
              (sp, "min_eigenvalue_sparse")]
    unformed = [(oracles, "ata_oracle"), (so.RowOracleMatrix, "__post_init__")]
    (instance, det, _, accepted), transients = oracles.traced_stages(
        lambda: _reduction_job(machine, x), stages + unformed)
    assert (det != 0) == accepted == x.endswith(("11", "#"))
    assert sorted(transients) == sorted(name for _, name in stages)
    budget = _unformed_index_bytes(instance.adjacency)
    over = {name: max(peaks) / budget for name, peaks in transients.items() if max(peaks) > budget}
    assert not over, over


@pytest.mark.parametrize("x", list(_SPACE_7_JOBS))
def test_a_reduction_job_peaks_below_its_high_water_mark(x):
    # The whole job's heap high-water mark at space 7, everything it holds at
    # once: 1.26x the adjacency's index bytes on unary_counter and 0.96x on
    # binary_counter, the reference computed from dim and nnz, since the
    # job never forms the rows.
    machine = rtm.with_space(rtm.corpus_machine(_SPACE_7_JOBS[x]), 7)
    _reduction_job(machine, x)
    (instance, *_), peak = oracles.traced_peak(lambda: _reduction_job(machine, x))
    reference = _unformed_index_bytes(instance.adjacency)
    if machine.name == "unary_counter":
        assert peak <= 1.7 * 2**20, peak
    else:
        assert peak <= 2.4 * reference, peak
    assert reference == _index_bytes(oracles.adjacency_rows(instance.adjacency))  # formed after the trace


@pytest.mark.parametrize("space, x", [(6, "#000#"), (6, "#000"), (7, "#0000#"), (7, "#0000")])
def test_long_chains_are_read_by_the_walk(space, x):
    # binary_counter's chains reach 253 vertices at space 7, each walked to its
    # far end: lambda_min is the 50-digit walk's, and the least block and its
    # witness are those of the formed Gram.
    machine = rtm.with_space(rtm.corpus_machine("binary_counter"), space)
    gram = rtm.reduce_to_gapped(machine, x).gram
    oracles.assert_reading_is_explicit(gram)
    lam = sp.min_eigenvalue_sparse(gram)
    exact = oracles.path_sum_bottom(oracles.formed(gram))
    assert abs(lam - exact) <= 4 * np.finfo(np.float64).eps * exact


def test_det_of_a_gram_stays_within_its_measured_peak():
    # A formed Gram has rows of three entries, so it leaves the closed form
    # for banded elimination, whose Python lists set the peak: 15.8 times
    # the Gram's index bytes, measured.  The guard holds that route there;
    # a reduction's Gram itself reads (det A)^2 from its record.
    gram = oracles.formed(_space_7_reduction().gram)
    sp.det_exact(gram)  # imports scipy, untraced
    det, peak = oracles.traced_peak(lambda: sp.det_exact(gram))
    assert det == 1
    assert peak <= 17 * _index_bytes(gram), (peak, _index_bytes(gram))


def test_reduction_determinant_tracks_acceptance():
    machine = rtm.corpus_machine("unary_counter")
    accept = rtm.reduce_to_gapped(machine, "11")
    reject = rtm.reduce_to_gapped(machine, "1")
    assert sp.det_exact(accept.adjacency) == -1
    assert sp.det_exact(reject.adjacency) == 0
    assert sp.det_exact(accept.gram) == 1
    assert sp.det_exact(reject.gram) == 0


def test_reduction_gap_exponent():
    instance = rtm.reduce_to_gapped(rtm.corpus_machine("unary_counter"), "11")
    assert instance.dim == 1620
    assert instance.g == 21
    assert 2.0 ** -instance.g <= sp.min_eigenvalue_bound(instance.dim)
    # dim and g are read from the adjacency, so no two fields can disagree with it.
    small = rtm.GappedInstance(rtm.augmented_adjacency(rtm.with_space(rtm.corpus_machine("unary_counter"), 2), "1"))
    assert (small.dim, small.g) == (90, 12)


def test_a_reduction_refuses_assignment():
    # The chain table answers for the successor array it was walked from, so
    # neither the adjacency nor the instance, its Gram held as it, takes a new one.
    instance = rtm.reduce_to_gapped(rtm.corpus_machine("unary_counter"), "11")
    adjacency = instance.adjacency
    for owner, name, value in ((adjacency, "start", 3), (adjacency, "succ", adjacency.succ.copy()),
                               (instance, "adjacency", adjacency)):
        with pytest.raises(FrozenInstanceError):
            setattr(owner, name, value)
    assert instance.gram is instance and instance.adjacency is adjacency and adjacency.start != 3
    assert type(adjacency.covered) is int and type(adjacency.det) is int
    assert (adjacency.covered, adjacency.det) == (instance.dim, -1)
    assert "succ" not in repr(adjacency) and repr(adjacency).startswith("SuccessorAdjacency(start=")


def test_reduction_eigenvalue_dichotomy():
    machine = rtm.corpus_machine("unary_counter")
    accept = rtm.reduce_to_gapped(machine, "11")
    reject = rtm.reduce_to_gapped(machine, "1")
    lam_accept = sp.min_eigenvalue_sparse(accept.gram)
    lam_reject = sp.min_eigenvalue_sparse(reject.gram)
    assert lam_accept >= 2.0 ** -accept.g
    assert abs(lam_reject) < 1e-10


def _rule(machine, move):
    """The machine with its rule on (start, blank) moving the head by ``move``."""
    return {**machine.transitions, (machine.start, machine.blank): (machine.start, machine.blank, move)}


@pytest.mark.parametrize(
    "build, refusal",
    [
        (lambda m: replace(m, transitions=_rule(m, 2)), "has move 2, want -1/0/+1"),
        (lambda m: replace(m, transitions=_rule(m, -3)), "has move -3, want -1/0/+1"),
        (lambda m: rtm.corpus_machine("no_such_machine"), "no corpus machine named 'no_such_machine'"),
    ],
)
def test_refusals_no_machine_file_reaches(build, refusal):
    # A file's moves are L, S or R, and a file is not looked up in the corpus.
    with pytest.raises(ValueError, match=re.escape(refusal)):
        build(rtm.corpus_machine("unary_counter"))


def test_reduction_rejects_invalid_machine():
    spec = oracles.machine_to_dict(rtm.corpus_machine("unary_counter"))
    spec["transitions"].append([spec["accept"], "0", "back", "0", "R"])
    machine = rtm.machine_from_dict(spec)
    with pytest.raises(ContractError):
        rtm.reduce_to_gapped(machine, "11")


@st.composite
def random_machines(draw):
    """Partial transition tables over 3-4 states, alphabet {0, 1} or {0, 1, 2}, space 1-4.

    Three symbols put base-3 digits under the head; space 1 sends every
    L and R move off a tape end.
    """
    states = ["s", "acc", "p", "q"][: draw(st.integers(3, 4))]
    alphabet = "012"[: draw(st.integers(2, 3))]
    keys = st.tuples(st.sampled_from(states), st.sampled_from(alphabet))
    rules = st.tuples(st.sampled_from(states), st.sampled_from(alphabet), st.sampled_from("LSR"))
    table = draw(st.dictionaries(keys, rules))
    return rtm.machine_from_dict({
        "name": "random", "states": states, "start": "s", "accept": "acc",
        "alphabet": list(alphabet), "blank": "0", "space": draw(st.integers(1, 4)),
        "transitions": [[q, a, *rule] for (q, a), rule in sorted(table.items())],
    })


def _configs(machine, indices):
    """The configurations at these indices, or None for no witness."""
    if indices is None:
        return None
    return tuple(rtm.decode_configuration(machine, int(i)) for i in indices)


# One cell, three symbols: every L and R move leaves the tape, S moves stay.
_ONE_CELL = rtm.machine_from_dict({
    "name": "one_cell", "states": ["s", "acc", "p"], "start": "s", "accept": "acc",
    "alphabet": ["0", "1", "2"], "blank": "0", "space": 1,
    "transitions": [["s", "0", "p", "2", "S"], ["s", "1", "p", "0", "L"],
                    ["p", "2", "acc", "1", "S"], ["p", "1", "acc", "1", "R"]],
})


@settings(max_examples=120, deadline=None)
@given(random_machines())
@example(rtm.with_space(rtm.corpus_machine("unary_counter"), 3))
@example(rtm.with_space(rtm.corpus_machine("first_last_match"), 2))
@example(_ONE_CELL)
def test_random_machine_reduction(machine):
    def scalar_step(i):
        nxt = rtm.step(machine, rtm.decode_configuration(machine, i))
        return -1 if nxt is None else rtm.encode_configuration(machine, nxt)

    succ = rtm.successors(machine)
    assert succ.dtype == so._index_dtype(machine.dim, 0)
    assert succ.tolist() == [scalar_step(i) for i in range(machine.dim)]
    assert np.array_equal(succ, oracles.decoded_successors(machine))

    report = rtm.validate(machine)
    collision, cycle = oracles.audit_witnesses(succ)
    assert report.collision == _configs(machine, collision)
    assert report.cycle == _configs(machine, cycle)
    if not report.ok:
        if report.collision is not None:
            first, second = report.collision
            assert first != second
            assert rtm.step(machine, first) == rtm.step(machine, second) is not None
        if report.cycle is not None:
            loop = list(report.cycle)
            assert [rtm.step(machine, c) for c in loop] == loop[1:] + loop[:1]
        return

    floor = sp.min_eigenvalue_bound(machine.dim)
    for n in range(machine.space):
        for x in map("".join, itertools.product(machine.alphabet, repeat=n)):
            instance = rtm.reduce_to_gapped(machine, x)
            det = sp.det_exact(instance.adjacency)
            accepted = rtm.simulate(machine, x).accepted
            rows = oracles.formed(instance.gram)
            # det A^T A = (det A)^2, read from the record and by elimination on the formed rows.
            assert sp.det_exact(instance.gram) == sp.det_exact(rows) == det**2
            if machine.dim <= 256:  # every two-symbol machine and the small three-symbol ones
                lam = np.linalg.eigvalsh(so.materialize(rows).astype(float))[0]
            else:  # up to 1,296 configurations: the 50-digit walk of every path
                lam = float(oracles.path_sum_bottom(rows))
            # Every reduction Gram is a direct sum of paths, read in closed form.
            assert sp._path_sum_bottom(oracles.explicit_gram(rows)).lam == pytest.approx(lam, abs=1e-12)
            read_zero = pr.decide_gapped(instance.gram, instance.g).decision == "YES"
            assert det in (-1, 0, 1)
            assert (det != 0) == accepted == (lam >= floor) == (not read_zero)
            if not accepted:
                assert abs(lam) < 1e-10


# One step from the start into a state with no rules, and no other move: a
# diagonal Gram, the accept at 0, the start at 1 and the cut at 2.
_ONE_STEP = rtm.machine_from_dict({
    "name": "one_step", "states": ["s", "acc", "p"], "start": "s", "accept": "acc",
    "alphabet": ["0", "1"], "blank": "0", "space": 1, "transitions": [["s", "0", "p", "1", "S"]],
})


@settings(max_examples=60, deadline=None)
@given(random_machines())
@example(rtm.with_space(rtm.corpus_machine("binary_nonmax"), 3))
@example(_ONE_CELL)
@example(_ONE_STEP)
def test_random_reduction_grams_read_from_their_chain_table_as_when_formed(machine):
    # lambda_min, the least block and the energy bisection, each bit for bit.
    if not rtm.validate(machine).ok:
        return
    for n in range(machine.space):
        for x in map("".join, itertools.product(machine.alphabet, repeat=n)):
            gram = rtm.reduce_to_gapped(machine, x).gram
            oracles.assert_reading_is_explicit(gram)
            _assert_bisected_as_when_formed(gram)


@pytest.mark.parametrize(
    "name", ["binary_counter", "binary_nonmax", "first_last_match", "unary_counter"])
def test_successors_match_the_decoded_reference(name):
    for space in range(1, 9):
        machine = rtm.with_space(rtm.corpus_machine(name), space)
        if machine.dim > 10**6:  # first_last_match at space 8 has 31 million
            break
        got = rtm.successors(machine)
        assert got.dtype == so._index_dtype(machine.dim, 0)
        assert np.array_equal(got, oracles.decoded_successors(machine)), space


def test_successors_peak_memory_stays_near_the_result():
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 8)
    assert machine.dim == 262_440
    succ, peak = oracles.traced_peak(lambda: rtm.successors(machine))
    assert peak < 1.5 * succ.nbytes, (peak, succ.nbytes)


def _bare_machine(dim: int) -> rtm.ReversibleTM:
    """No rules, one symbol, one cell: configuration i is state i, for ``_audit`` on any map."""
    states = [f"c{i}" for i in range(dim)]
    return rtm.ReversibleTM("bare", states, states[0], states[1], ("0",), "0", 1, {})


@st.composite
def successor_maps(draw):
    """Maps on 2-300 configurations: chains up to the whole space, cycles of 2^k, collisions."""
    dim = draw(st.integers(2, 300))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(dim)
    succ = np.full(dim, -1, dtype=np.int64)
    start = 0
    while start < dim:
        if draw(st.booleans()):
            part = order[start : start + 2 ** draw(st.integers(0, 8))]
            succ[part] = np.roll(part, -1)
        else:
            part = order[start : start + draw(st.integers(1, dim))]
            succ[part[:-1]] = part[1:]
        start += len(part)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        succ[i] = succ[j]
    return succ


def _chain(dim: int) -> np.ndarray:
    return np.append(np.arange(1, dim), -1)


@settings(max_examples=300, deadline=None)
@given(successor_maps())
@example(_chain(256))  # 256 hops to the sink: every one of the 9 rounds
@example(_chain(257))
@example(np.array([1, 0]))
@example(np.append(np.roll(np.arange(128), -1), _chain(128) + 128))  # a 2^7 cycle beside a chain
@example(np.full(5, -1))  # everything halts at once
def test_audit_matches_full_rounds_pointer_jumping(succ):
    machine = _bare_machine(len(succ))
    # validate's int64 array, and the reduction's, narrowed to the index dtype
    (report, chains), narrow = (rtm._audit(machine, succ.astype(dtype)) for dtype in (np.int64, np.int32))

    def answers(table):  # a record's equality is identity
        return None if table is None else (table.covered, table.det, table.cut, table.paths, table.vertex)

    assert (narrow[0], answers(narrow[1])) == (report, answers(chains))
    collision, cycle = oracles.audit_witnesses(succ)
    issues = []
    if collision is not None:
        first, second, target = _configs(machine, (*collision, succ[collision[0]]))
        issues.append(f"step map not injective: {first} and {second} share successor {target}")
    if cycle is not None:
        start = rtm.decode_configuration(machine, cycle[0])
        issues.append(f"configuration graph has a cycle of length {len(cycle)} through {start}")
    assert report.issues == tuple(issues)
    assert report.collision == _configs(machine, collision)
    assert report.cycle == _configs(machine, cycle)


@st.composite
def cut_chains(draw):
    """(succ, start, accept): injective acyclic maps on up to 10^4 vertices, chains of up to 3,000.

    A shuffled order is cut into chains; the start is a head, the accept
    a tail, on the start's own chain half the time (an accepting run).
    """
    dim = draw(st.integers(2, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    longest = draw(st.integers(1, 3_000))
    order = rng.permutation(dim)
    succ = np.full(dim, -1, dtype=draw(st.sampled_from([np.int32, np.int64])))
    lo = 0
    while lo < dim:
        part = order[lo : lo + int(rng.integers(1, longest + 1))]
        succ[part[:-1]] = part[1:]
        lo += len(part)
    hit = np.zeros(dim, dtype=bool)
    hit[succ[succ >= 0]] = True
    start = int(rng.choice(np.flatnonzero(~hit)))
    tail = start
    while succ[tail] >= 0:
        tail = int(succ[tail])
    if tail != start and draw(st.booleans()):
        return succ, start, tail
    return succ, start, int(rng.choice(np.setdiff1d(np.flatnonzero(succ < 0), [start])))


def _plain_chains(succ: np.ndarray, start: int, accept: int):
    """(covered, det, paths, vertex) of ``spectral._chain_table``, by walking each chain in Python."""
    nxt = succ.tolist()
    hit = [False] * len(nxt)
    for v in nxt:
        if v >= 0:
            hit[v] = True
    cut = nxt[start]
    diag = lambda v: (v != accept) + hit[v]  # noqa: E731
    covered, det, paths, vertex = 0, 0, {}, None
    for head in [v for v in range(len(nxt)) if not hit[v]] + ([cut] if cut >= 0 else []):
        chain = [head]
        while chain[-1] != start and nxt[chain[-1]] >= 0:
            chain.append(nxt[chain[-1]])
        covered += len(chain)
        if head == cut:
            det = (-1) ** len(chain) if chain[-1] == accept else 0
        if len(chain) == 1:
            vertex = min(vertex or (3, 0), (diag(head), head))
            continue
        tail = chain[-1]
        kind = (diag(head) == 1) + (diag(tail) == 1)
        end = (head if diag(head) == 1 else tail) if kind == 1 else min(head, tail)
        path = (len(chain), min(chain), head, tail, end)
        held = paths.get(kind, path)
        if (0 if kind == 2 else -path[0], path[1]) <= (0 if kind == 2 else -held[0], held[1]):
            paths[kind] = path
    return covered, det, paths, vertex


@settings(max_examples=40, deadline=None)
@given(cut_chains())
@example((np.array([-1, -1]), 0, 1))  # the start halts: an empty start row
@example((np.array([1, -1]), 0, 1))  # the start steps straight onto the accept
@example((np.array([-1, 0]), 1, 0))  # ... which is the least isolated vertex
@example((np.array([1, 2, -1, -1]), 0, 3))  # the accept alone: an isolated vertex at 0
@example((np.array([1, -1, 3, -1]), 2, 1))  # the accept's chain has both ends at 1
# The cut's chain ends at the accept, in a round with one other chain of its length ...
@example((np.array([1, 2, -1, 4, -1]), 0, 2))
@example((np.array([1, -1, 3, 4, -1]), 2, 4))  # ... which holds the least vertex
@example((np.array([1, -1, 3, 4, -1, -1]), 5, 4))  # the accept's chain is the longest, alone
@example((np.array([1, 2, 3, -1, 5, -1, 7, -1]), 0, 5))  # the cut's chain is the longest, alone
@example((np.array([1, 2, 3, -1, 5, 6, -1, 8, -1]), 0, 6))  # the longest are the cut's and the accept's
def test_chain_table_reads_what_the_arrays_read(drawn):
    # The table of a cut successor map answers det, lambda_min and the
    # witness exactly as the closed form and the formed Gram read the
    # same adjacency, and its chains are those a plain walk finds; the
    # Gram bisects as its formed rows do.
    succ, start, accept = drawn
    table = sp._chain_table(succ, start, accept)
    assert (table.covered, table.det, table.paths, table.vertex) == _plain_chains(succ, start, accept)
    assert table.succ is succ and (table.start, table.accept) == (start, accept)
    assert table.covered == len(succ)
    plain = oracles.adjacency_rows(table)
    assert sp.det_exact(table) == sp._successor_det(plain) == table.det
    read, fast = oracles.ata_oracle(plain), sp.GappedInstance(table)
    want, got = sp._bottom_block_eigenpair(read), sp._bottom_block_eigenpair(fast)
    assert sp.min_eigenvalue_sparse(fast).hex() == sp.min_eigenvalue_sparse(read).hex() == want.lam.hex()
    assert got.lam.hex() == want.lam.hex() and np.array_equal(got.rows, want.rows)
    mine = oracles.unpadded(got.block, fast.sparsity_d, fast.entry_bound_k)
    theirs = oracles.unpadded(want.block, read.sparsity_d, read.entry_bound_k)
    for part in ("indptr", "indices", "data"):
        a, b = getattr(mine, part), getattr(theirs, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    assert got.psi.tobytes() == want.psi.tobytes() and got.residual.hex() == want.residual.hex()
    _assert_bisected_as_when_formed(fast)


@settings(max_examples=40, deadline=None)
@given(cut_chains(), st.data())
def test_a_cycle_leaves_the_chains_short_and_is_named_as_before(drawn, data):
    # Closing one chain into a cycle keeps the map injective: its vertices
    # have no head, so the walk covers fewer than all, and the audit names
    # the loop that pointer jumping from the least endless vertex finds.
    succ, _, _ = drawn
    succ = succ[: data.draw(st.integers(2, 1_500))].copy()
    succ[succ >= len(succ)] = -1
    ends = np.flatnonzero(succ < 0)
    tail = int(data.draw(st.sampled_from(ends.tolist())))
    hit = np.zeros(len(succ), dtype=bool)
    hit[succ[succ >= 0]] = True
    head = tail
    while True:  # walk back to the tail's head
        before = np.flatnonzero(succ == head)
        if not len(before):
            break
        head = int(before[0])
    succ[tail] = head
    assert sp._chain_table(succ).covered < len(succ)
    machine = _bare_machine(len(succ))
    report, _ = rtm._audit(machine, succ)
    collision, cycle = oracles.audit_witnesses(succ)
    assert collision is None and report.collision is None
    assert report.cycle == _configs(machine, cycle)
