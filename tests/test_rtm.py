"""Machine simulation, validation, and the determinant reduction."""

import itertools
import json
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
    assert rtm.corpus_names() == ["binary_nonmax", "first_last_match", "unary_counter"]


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
    adjacency = rtm.augmented_adjacency(machine, "11")
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
                got = so.to_csr(rtm.augmented_adjacency(machine, x))
                want = oracles.coo_csr(machine.dim, oracles.adjacency_triplets(machine, x))
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, part), getattr(want, part)), (
                        name, space, x, part)
        assert kinds == {True, False}, name  # an accepting and a rejecting input


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


def test_reduction_eigenvalue_dichotomy():
    machine = rtm.corpus_machine("unary_counter")
    accept = rtm.reduce_to_gapped(machine, "11")
    reject = rtm.reduce_to_gapped(machine, "1")
    lam_accept = sp.min_eigenvalue_sparse(accept.gram)
    lam_reject = sp.min_eigenvalue_sparse(reject.gram)
    assert lam_accept >= 2.0 ** -accept.g
    assert abs(lam_reject) < 1e-10


def test_reduction_rejects_invalid_machine():
    spec = oracles.machine_to_dict(rtm.corpus_machine("unary_counter"))
    spec["transitions"].append([spec["accept"], "0", "back", "0", "R"])
    machine = rtm.machine_from_dict(spec)
    with pytest.raises(ContractError):
        rtm.reduce_to_gapped(machine, "11")


@st.composite
def random_machines(draw):
    """Partial transition tables over 3-4 states, alphabet {0, 1}, space 2-4."""
    states = ["s", "acc", "p", "q"][: draw(st.integers(3, 4))]
    keys = st.tuples(st.sampled_from(states), st.sampled_from("01"))
    rules = st.tuples(st.sampled_from(states), st.sampled_from("01"), st.sampled_from("LSR"))
    table = draw(st.dictionaries(keys, rules))
    return rtm.machine_from_dict({
        "name": "random", "states": states, "start": "s", "accept": "acc",
        "alphabet": ["0", "1"], "blank": "0", "space": draw(st.integers(2, 4)),
        "transitions": [[q, a, *rule] for (q, a), rule in sorted(table.items())],
    })


@settings(max_examples=120, deadline=None)
@given(random_machines())
@example(rtm.with_space(rtm.corpus_machine("unary_counter"), 3))
@example(rtm.with_space(rtm.corpus_machine("first_last_match"), 2))
def test_random_machine_reduction(machine):
    def scalar_step(i):
        nxt = rtm.step(machine, rtm.decode_configuration(machine, i))
        return -1 if nxt is None else rtm.encode_configuration(machine, nxt)

    assert rtm.successors(machine).tolist() == [scalar_step(i) for i in range(machine.dim)]

    report = rtm.validate(machine)
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
            lam = np.linalg.eigvalsh(so.materialize(instance.gram).astype(float))[0]
            # Every reduction Gram is a direct sum of paths, read in closed form.
            assert sp._path_sum_bottom(so.to_csr(instance.gram)).lam == pytest.approx(lam, abs=1e-12)
            read_zero = pr.decide_gapped(instance.gram, instance.g).decision == "YES"
            assert det in (-1, 0, 1)
            assert (det != 0) == accepted == (lam >= floor) == (not read_zero)
            if not accepted:
                assert abs(lam) < 1e-10
