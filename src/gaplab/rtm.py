"""Reversible space-bounded machines and their matrix reductions.

A machine here runs on a fixed tape of ``space`` cells (no growth), so
its configuration space is finite: dim = |states| * space * |alphabet|^space.
Configurations are packed into integers mixed-radix style, least
significant component first:

    index = state + |Q| * (head + space * tape_value)
    tape_value = sum_j symbol(tape[j]) * |A|^j

``successors`` builds the whole configuration graph once per reduction,
as one array of step-map targets; the scalar ``step`` serves
``simulate`` and is the reference that array is tested against.

Reversibility is a global property of the step map, not of the
transition table alone, so ``validate`` checks injectivity exhaustively
over the whole configuration space and reports a witness pair when two
configurations collide.  It also checks the structural facts the matrix
reduction leans on: the start configuration has no predecessor, the
accept state has no outgoing transitions, and the step map has no
cycles anywhere in configuration space (a stray 2-cycle among unreachable
configurations would silently zero out every determinant).

The reduction emits the augmented adjacency matrix of the configuration
graph: successor edges, a back edge from the canonical accepting
configuration to the start configuration, and self-loops on every other
vertex.  Its determinant is +-1 when the machine reaches the canonical
accepting configuration and 0 otherwise, and the Gram matrix A^T A then
has least eigenvalue either 0 or bounded below by the closed-form gap
at that dimension.

Accepting runs must end at one canonical configuration: accept state,
head on cell 0, input tape restored.  Halting anywhere else counts as
rejection for the reduction, because a machine that erases its input
would funnel many histories into one configuration and break
reversibility.  The bundled corpus machines all restore their tape.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from importlib import resources
from math import ceil, log2

import numpy as np

from .errors import ContractError
from .sparse_oracle import RowOracleMatrix, _field, ata_oracle
from .spectral import min_eigenvalue_bound

MOVES = {"L": -1, "S": 0, "R": 1}
MOVE_NAMES = {v: k for k, v in MOVES.items()}


@dataclass(frozen=True)
class Configuration:
    """One machine configuration: control state, head cell, full tape."""

    state: str
    head: int
    tape: tuple[str, ...]


@dataclass
class ReversibleTM:
    """Deterministic machine on a fixed-size tape.

    ``transitions`` maps (state, read symbol) to (new state, written
    symbol, head move) with move in {-1, 0, +1}.  Pairs without an
    entry halt the machine.  Structural well-formedness is enforced at
    construction; reversibility is checked separately by ``validate``.
    """

    name: str
    states: tuple[str, ...]
    start: str
    accept: str
    alphabet: tuple[str, ...]
    blank: str
    space: int
    transitions: dict[tuple[str, str], tuple[str, str, int]] = field(repr=False)

    def __post_init__(self) -> None:
        self.states = tuple(self.states)
        self.alphabet = tuple(self.alphabet)
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        if self.start not in self.states or self.accept not in self.states:
            raise ValueError("start and accept must be listed states")
        if self.start == self.accept:
            raise ValueError("start and accept states must differ")
        if self.blank not in self.alphabet:
            raise ValueError("blank symbol must be in the alphabet")
        if self.space < 1:
            raise ValueError(f"space must be >= 1, got {self.space}")
        for (q, a), (q2, a2, mv) in self.transitions.items():
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"transition ({q}, {a}) references unknown state")
            if a not in self.alphabet or a2 not in self.alphabet:
                raise ValueError(f"transition ({q}, {a}) references unknown symbol")
            if mv not in (-1, 0, 1):
                raise ValueError(f"transition ({q}, {a}) has move {mv}, want -1/0/+1")
        self._qidx = {q: i for i, q in enumerate(self.states)}
        self._aidx = {a: i for i, a in enumerate(self.alphabet)}

    @property
    def dim(self) -> int:
        return len(self.states) * self.space * len(self.alphabet) ** self.space


def with_space(machine: ReversibleTM, space: int) -> ReversibleTM:
    """Same machine on a different tape size."""
    return replace(machine, space=space)


def encode_configuration(machine: ReversibleTM, config: Configuration) -> int:
    """Pack a configuration into its index (state fastest, tape slowest)."""
    nq = len(machine.states)
    na = len(machine.alphabet)
    if not 0 <= config.head < machine.space:
        raise ValueError(f"head {config.head} outside tape of size {machine.space}")
    if len(config.tape) != machine.space:
        raise ValueError(f"tape length {len(config.tape)} != space {machine.space}")
    tape_value = 0
    for j in range(machine.space - 1, -1, -1):
        tape_value = tape_value * na + machine._aidx[config.tape[j]]
    return machine._qidx[config.state] + nq * (config.head + machine.space * tape_value)


def decode_configuration(machine: ReversibleTM, index: int) -> Configuration:
    """Inverse of encode_configuration."""
    if not 0 <= index < machine.dim:
        raise IndexError(f"configuration index {index} out of range for dim {machine.dim}")
    nq = len(machine.states)
    na = len(machine.alphabet)
    index, q = divmod(index, nq)
    tape_value, head = divmod(index, machine.space)
    tape = []
    for _ in range(machine.space):
        tape_value, s = divmod(tape_value, na)
        tape.append(machine.alphabet[s])
    return Configuration(machine.states[q], head, tuple(tape))


def step(machine: ReversibleTM, config: Configuration) -> Configuration | None:
    """One move of the machine, or None when it halts.

    Halting covers both a missing transition and a move that would take
    the head off either end of the tape.
    """
    rule = machine.transitions.get((config.state, config.tape[config.head]))
    if rule is None:
        return None
    q2, a2, mv = rule
    head2 = config.head + mv
    if not 0 <= head2 < machine.space:
        return None
    tape2 = list(config.tape)
    tape2[config.head] = a2
    return Configuration(q2, head2, tuple(tape2))


def successors(machine: ReversibleTM) -> np.ndarray:
    """Successor index of every configuration (int64, -1 where it halts).

    The vectorized ``step``: decode state, head and the symbol under the
    head from each index, look the (state, symbol) pair up in the
    transition table, and re-encode the moved configuration.
    """
    nq, na, space = len(machine.states), len(machine.alphabet), machine.space
    table = np.array([[-1, 0, 0]] * (nq * na), dtype=np.int64)  # new state, written, move
    for (q, a), (q2, a2, mv) in machine.transitions.items():
        table[machine._qidx[q] * na + machine._aidx[a]] = machine._qidx[q2], machine._aidx[a2], mv
    rest, state = np.divmod(np.arange(machine.dim, dtype=np.int64), nq)
    tape, head = np.divmod(rest, space)
    weight = (na ** np.arange(space, dtype=np.int64))[head]
    symbol = tape // weight % na
    state2, written, move = table[state * na + symbol].T
    head2 = head + move
    out = state2 + nq * (head2 + space * (tape + (written - symbol) * weight))
    out[(state2 < 0) | (head2 < 0) | (head2 >= space)] = -1
    return out


def _padded_tape(machine: ReversibleTM, input_str: str) -> tuple[str, ...]:
    symbols = list(input_str)
    for s in symbols:
        if s not in machine._aidx:
            raise ValueError(f"input symbol {s!r} not in machine alphabet")
    if len(symbols) > machine.space - 1:
        raise ValueError(
            f"input of length {len(symbols)} leaves no trailing blank on a "
            f"tape of {machine.space} cells"
        )
    return tuple(symbols + [machine.blank] * (machine.space - len(symbols)))


def start_configuration(machine: ReversibleTM, input_str: str) -> Configuration:
    """Start state, head on cell 0, input followed by blanks."""
    return Configuration(machine.start, 0, _padded_tape(machine, input_str))


def accept_configuration(machine: ReversibleTM, input_str: str) -> Configuration:
    """The one configuration that counts as acceptance of this input.

    Accept state, head back on cell 0, tape restored to the padded
    input.  Distinct inputs have distinct accepting configurations, so
    reversibility can hold across all of them simultaneously.
    """
    return Configuration(machine.accept, 0, _padded_tape(machine, input_str))


@dataclass(frozen=True)
class RunResult:
    """Outcome of a bounded simulation."""

    accepted: bool
    final: Configuration
    steps: int
    trace: tuple[Configuration, ...] | None = None


def simulate(
    machine: ReversibleTM, input_str: str, record_trace: bool = False
) -> RunResult:
    """Run to a halt and compare against the canonical accepting configuration.

    ``accepted`` is True only when the run halts exactly there; halting
    in the accept state with an unrestored tape or a parked-elsewhere
    head does not count, matching what the matrix reduction certifies.
    """
    current = start_configuration(machine, input_str)
    target = accept_configuration(machine, input_str)
    trace = [current] if record_trace else None
    steps = 0
    while True:
        nxt = step(machine, current)
        if nxt is None:
            break
        current = nxt
        steps += 1
        if trace is not None:
            trace.append(current)
        if steps > machine.dim:
            raise ContractError(
                f"no halt within {machine.dim} steps; the configuration graph has a cycle"
            )
    return RunResult(
        accepted=current == target,
        final=current,
        steps=steps,
        trace=tuple(trace) if trace is not None else None,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the exhaustive reversibility audit."""

    machine: str
    space: int
    dim: int
    issues: tuple[str, ...]
    collision: tuple[Configuration, Configuration] | None = None
    cycle: tuple[Configuration, ...] | None = None

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(machine: ReversibleTM) -> ValidationReport:
    """Audit the machine over its entire configuration space.

    Checks, in order: no transition out of the accept state, no
    transition into the start state, the step map is injective where
    defined (backward determinism), and the configuration graph is
    acyclic.  The first two are per-table; the last two sweep all
    dim configurations, which is the whole point: reversibility can
    fail on configurations no legal run ever visits, and the
    determinant construction quantifies over all of them.
    """
    return _audit(machine, successors(machine))


def _audit(machine: ReversibleTM, succ: np.ndarray) -> ValidationReport:
    """validate, on an already computed successor array.

    The witnesses are the ones a sweep in index order meets first: the
    colliding pair whose later member is smallest, and the loop reached
    from the smallest configuration that never halts.
    """
    issues: list[str] = []
    collision: tuple[Configuration, Configuration] | None = None
    cycle_witness: tuple[Configuration, ...] | None = None

    def config(i) -> Configuration:
        return decode_configuration(machine, int(i))

    for (q, a), (q2, _, _) in sorted(machine.transitions.items()):
        if q == machine.accept:
            issues.append(f"accept state has outgoing transition on {a!r}")
        if q2 == machine.start:
            issues.append(f"transition ({q}, {a}) re-enters the start state")

    # Injectivity: sort moving configurations by target; the stable sort
    # keeps each target's preimages in ascending order.
    moving = np.flatnonzero(succ >= 0)
    order = np.argsort(succ[moving], kind="stable")
    source, target = moving[order], succ[moving][order]
    shared = np.flatnonzero(target[1:] == target[:-1])
    if shared.size:
        k = shared[np.argmin(source[shared + 1])]
        collision = (config(source[k]), config(source[k + 1]))
        issues.append(
            f"step map not injective: {collision[0]} and {collision[1]} "
            f"share successor {config(target[k])}"
        )

    # Acyclicity by pointer jumping: after 2^r > dim hops every halting
    # configuration has reached the sink appended at index dim.
    dim = machine.dim
    jump = np.append(np.where(succ >= 0, succ, dim), dim)
    for _ in range(dim.bit_length()):
        jump = jump[jump]
    stuck = np.flatnonzero(jump[:-1] != dim)
    if stuck.size:
        path: dict[int, int] = {}
        v = int(stuck[0])
        while v not in path:
            path[v] = len(path)
            v = int(succ[v])
        loop = list(path)[path[v]:]
        cycle_witness = tuple(config(w) for w in loop)
        issues.append(
            f"configuration graph has a cycle of length {len(loop)} "
            f"through {cycle_witness[0]}"
        )

    return ValidationReport(
        machine=machine.name,
        space=machine.space,
        dim=dim,
        issues=tuple(issues),
        collision=collision,
        cycle=cycle_witness,
    )


def augmented_adjacency(machine: ReversibleTM, input_str: str) -> RowOracleMatrix:
    """Adjacency oracle whose determinant decides acceptance.

    Row i carries the successor edge of configuration i plus a
    self-loop, except that the start configuration gets no self-loop
    and the canonical accepting configuration's row is exactly the back
    edge to the start.  Cycle covers of this digraph are then the
    self-loops plus, when and only when the accepting configuration is
    reachable, the single computation cycle, giving determinant 0 or
    +-1.  Rows stay 0/1 with at most two entries and columns carry at
    most two ones, so the Gram construction applies downstream.  A
    machine that fails ``validate`` is refused with ContractError.
    """
    from scipy.sparse import csr_matrix

    succ = successors(machine)
    report = _audit(machine, succ)
    if not report.ok:
        raise ContractError(
            f"machine {machine.name!r} failed validation: " + "; ".join(report.issues)
        )
    s_idx = encode_configuration(machine, start_configuration(machine, input_str))
    t_idx = encode_configuration(machine, accept_configuration(machine, input_str))

    # Two candidate columns per row, -1 for none: the successor edge (merged
    # into the self-loop if a configuration steps to itself) and the self-loop.
    loop = np.arange(machine.dim, dtype=np.int64)
    loop[s_idx] = -1
    edge = np.where(succ == loop, -1, succ)
    edge[t_idx], loop[t_idx] = s_idx, -1
    pair = np.sort(np.stack([edge, loop], axis=1), axis=1)
    present = pair >= 0
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    data = np.ones(int(present.sum()), dtype=np.int64)
    csr = csr_matrix((data, pair[present], indptr), shape=(machine.dim, machine.dim))
    return RowOracleMatrix(csr, sparsity_d=2, entry_bound_k=1, column_ones_bound=2)


@dataclass(frozen=True)
class GappedInstance:
    """Matrix decision instance with a certified eigenvalue dichotomy.

    ``gram`` is A^T A for the augmented adjacency A.  Its least
    eigenvalue is exactly 0 when the machine rejects the input and at
    least 2^-g when it accepts, with g derived from the closed-form
    bound at this dimension.
    """

    adjacency: RowOracleMatrix
    gram: RowOracleMatrix
    dim: int
    g: int


def reduce_to_gapped(machine: ReversibleTM, input_str: str) -> GappedInstance:
    """Machine + input -> Gram oracle with a 0-vs-2^-g eigenvalue promise."""
    adjacency = augmented_adjacency(machine, input_str)
    bound = min_eigenvalue_bound(machine.dim)
    g = ceil(-log2(bound))
    return GappedInstance(
        adjacency=adjacency,
        gram=ata_oracle(adjacency),
        dim=machine.dim,
        g=g,
    )


# ---------------------------------------------------------------------------
# serialization and the bundled corpus


def machine_from_dict(spec: dict) -> ReversibleTM:
    """Build a machine from its JSON form.

    Every key is read through ``sparse_oracle._field``, as instance
    files are: a missing key or a value of the wrong JSON type is a
    ContractError naming the key.  ``name`` is optional; ``space`` is a
    JSON integer; ``states`` and ``alphabet`` are arrays of strings, and
    each of ``transitions`` is an array of five strings
    [state, read, new state, written, move] with move L, S or R.
    """
    if not isinstance(spec, dict):
        raise ContractError(f"a machine is a JSON object, got {type(spec).__name__}")

    def strings(key: str) -> tuple[str, ...]:
        value = _field(spec, key, list)
        if not all(isinstance(v, str) for v in value):
            raise ContractError(f"{key!r} must be an array of strings, got {value!r}")
        return tuple(value)

    transitions: dict[tuple[str, str], tuple[str, str, int]] = {}
    for rule in _field(spec, "transitions", list):
        if not (isinstance(rule, list) and len(rule) == 5
                and all(isinstance(v, str) for v in rule)):
            raise ContractError(
                f"each of 'transitions' must be an array of five strings, got {rule!r}"
            )
        q, a, q2, a2, mv = rule
        key = (q, a)
        if key in transitions:
            raise ValueError(f"duplicate transition for ({q}, {a})")
        if mv not in MOVES:
            raise ValueError(f"move must be one of {sorted(MOVES)}, got {mv!r}")
        transitions[key] = (q2, a2, MOVES[mv])
    return ReversibleTM(
        name=_field(spec, "name", str) if "name" in spec else "",
        states=strings("states"),
        start=_field(spec, "start", str),
        accept=_field(spec, "accept", str),
        alphabet=strings("alphabet"),
        blank=_field(spec, "blank", str),
        space=_field(spec, "space", int),
        transitions=transitions,
    )


def machine_to_dict(machine: ReversibleTM) -> dict:
    """JSON form of a machine (inverse of machine_from_dict)."""
    return {
        "name": machine.name,
        "states": list(machine.states),
        "start": machine.start,
        "accept": machine.accept,
        "alphabet": list(machine.alphabet),
        "blank": machine.blank,
        "space": machine.space,
        "transitions": [
            [q, a, q2, a2, MOVE_NAMES[mv]]
            for (q, a), (q2, a2, mv) in sorted(machine.transitions.items())
        ],
    }


def load_machine(path: str | os.PathLike) -> ReversibleTM:
    """Load a machine description from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return machine_from_dict(json.load(fh))


def corpus_names() -> list[str]:
    """Names of the machines bundled with the package.

    The corpus directory also carries hand-checked trace fixtures, so
    membership is decided by content, not extension.
    """
    pkg = resources.files(__package__) / "corpus"
    names = []
    for p in pkg.iterdir():
        if not p.name.endswith(".json"):
            continue
        if "transitions" in json.loads(p.read_text(encoding="utf-8")):
            names.append(p.name[: -len(".json")])
    return sorted(names)


def corpus_machine(name: str) -> ReversibleTM:
    """Load a bundled machine by name."""
    path = resources.files(__package__) / "corpus" / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"no corpus machine named {name!r}; have {corpus_names()}")
    return machine_from_dict(json.loads(path.read_text(encoding="utf-8")))
