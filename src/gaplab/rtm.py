"""Reversible space-bounded machines, their matrix reductions, instance files.

A machine here runs on a fixed tape of ``space`` cells (no growth), so
its configuration space is finite: dim = |states| * space * |alphabet|^space.
Configurations are packed into integers mixed-radix style, least
significant component first:

    index = state + |Q| * (head + space * tape_value)
    tape_value = sum_j symbol(tape[j]) * |A|^j

``successors`` builds the whole configuration graph once per reduction,
as one array of step-map targets in the index dtype; the scalar
``step`` serves ``simulate`` and is the reference that array is tested
against.  A step moves an index by an amount that depends only on the
head, the symbol under it and the state, so the array is one gather
from a small table of those offsets, indexed by (head, symbol) for
every tape, plus the index itself.

Reversibility is a global property of the step map, not of the
transition table alone, so ``validate`` checks injectivity exhaustively
over the whole configuration space and reports a witness pair when two
configurations collide.  It also checks the structural facts the matrix
reduction leans on: the start configuration has no predecessor, the
accept state has no outgoing transitions, and the step map has no
cycles anywhere in configuration space (a stray 2-cycle among unreachable
configurations would silently zero out every determinant).  Injectivity
is read from a mask of the targets hit; an injective map is acyclic
exactly when its chains, walked from their heads, cover every
configuration (``spectral._chain_table``, whose record the reduction
keeps as its adjacency).  Pointer jumping (``spectral._endless``)
only names a cycle's witness.

The reduction emits the augmented adjacency matrix of the configuration
graph: successor edges, a back edge from the canonical accepting
configuration to the start configuration, and self-loops on every other
vertex.  Its determinant is +-1 when the machine reaches the canonical
accepting configuration and 0 otherwise, and the Gram matrix A^T A then
has least eigenvalue either 0 or bounded below by the closed-form gap
at that dimension.  The matrix is one record of its successor array
and chain table (``spectral.SuccessorAdjacency``), and its Gram is held
as that record (``spectral.GramOracle``).

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
from functools import cached_property
from importlib import resources
from math import ceil, log2

import numpy as np

from .errors import ContractError, ResourceLimitError
from .sparse_oracle import (
    RowOracleMatrix,
    _field,
    _index_dtype,
    _integer,
    cycle_adjacency,
    from_dense,
    from_entries,
    path_adjacency,
)
from .spectral import GramOracle, SuccessorAdjacency, _chain_table, _endless, min_eigenvalue_bound

MOVES = {"L": -1, "S": 0, "R": 1}


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
    """Successor index of every configuration (in the index dtype, -1 where it halts).

    The vectorized ``step``.  With index i = q + |Q|(h + S * tape), a
    step moves i by (q2 - q) + |Q| * move + |Q| * S * (a2 - a) * |A|^h,
    which depends on the head h, the symbol a under it and the state q
    alone; so does halting (no rule, or the head leaves the tape).  The
    (S * |A|, |Q|) table of those offsets, indexed by a + |A| * h, holds
    -(dim + 1) where the machine halts.  One gather through the
    (|A|^S, S) key of every tape and head, two broadcast adds of the
    index's parts and one clip at -1 give the array, every dim-long
    step in the index dtype (``_index_dtype(dim, 0)``), which holds
    every offset and index.  At space 8 of ``unary_counter`` the traced
    peak is about 1.4 times the array.  A dim beyond int64 is refused.
    """
    if machine.dim > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"dim {machine.dim} exceeds the int64 index range")
    nq, na, space = len(machine.states), len(machine.alphabet), machine.space
    rules = [machine.transitions.get((q, a)) for q in machine.states for a in machine.alphabet]
    table = np.array(  # new state (-1: no rule), written symbol, move
        [(-1, 0, 0) if r is None else (machine._qidx[r[0]], machine._aidx[r[1]], r[2])
         for r in rules],
        dtype=np.int64,
    )
    index = _index_dtype(machine.dim, 0)
    state2, written, move = table.reshape(nq, na, 3).transpose(2, 1, 0)  # (symbol, state)
    head = np.arange(space, dtype=index)
    symbol = np.arange(na, dtype=np.int64)[:, None]
    h = head[:, None, None]  # the table's axes: head, symbol, state
    delta = (state2 - np.arange(nq)) + nq * move + nq * space * (written - symbol) * na**h
    delta[(state2 < 0) | (h + move < 0) | (h + move >= space)] = -machine.dim - 1
    tape = np.arange(na**space, dtype=index)[:, None]
    out = delta.astype(index).reshape(space * na, nq)[tape // na**head % na + na * head]
    out += np.arange(nq, dtype=index)
    out += nq * (head + space * tape)[:, :, None]
    np.maximum(out, -1, out=out)  # every halting entry lies at or below -2
    return out.reshape(-1)


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
    return _audit(machine, successors(machine))[0]


def _audit(machine: ReversibleTM, succ: np.ndarray, start: int = -1,
           accept: int = -1) -> tuple[ValidationReport, SuccessorAdjacency | None]:
    """validate, on an already computed successor array, and its chain table cut at ``start``.

    The witnesses are the ones a sweep in index order meets first: the
    colliding pair whose later member is smallest, and the loop reached
    from the smallest configuration that never halts.  The chain table
    (``spectral._chain_table``, cut at ``start``) comes back too: on a
    valid machine, the record a reduction keeps as its adjacency.
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

    # Injectivity and acyclicity come from the chain table (None: a target is
    # hit twice).  Only a failure sorts the moving configurations by target, to
    # name its witness, each target's preimages ascending in the stable sort.
    dim = machine.dim
    chains = _chain_table(succ, start, accept)
    if chains is None:
        moving_at = np.flatnonzero(succ >= 0)
        order = np.argsort(succ[moving_at], kind="stable")
        source, target = moving_at[order], succ[moving_at][order]
        shared = np.flatnonzero(target[1:] == target[:-1])
        k = shared[np.argmin(source[shared + 1])]
        collision = (config(source[k]), config(source[k + 1]))
        issues.append(
            f"step map not injective: {collision[0]} and {collision[1]} "
            f"share successor {config(target[k])}"
        )

    # A cycle's witness: from the least configuration whose walk never halts.
    if chains is None or chains.covered < dim:
        out = _endless(succ)
        if len(out):
            path: dict[int, int] = {}
            v = int(out[0])
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
    ), chains


def augmented_adjacency(machine: ReversibleTM, input_str: str) -> SuccessorAdjacency:
    """Adjacency oracle whose determinant decides acceptance.

    Row i carries the successor edge of configuration i plus a
    self-loop, except that the start configuration gets no self-loop
    and the canonical accepting configuration's row is exactly the back
    edge to the start.  Cycle covers of this digraph are then the
    self-loops plus, when and only when the accepting configuration is
    reachable, the single computation cycle, giving determinant 0 or
    +-1.  Rows stay 0/1 with at most two entries and columns carry at
    most two ones, so the Gram construction applies downstream.  A
    machine that fails ``validate`` is refused with ContractError.  The
    matrix is the audit's record (``spectral.SuccessorAdjacency``): the
    successor array and its chain table; no row is formed.
    """
    s_idx = encode_configuration(machine, start_configuration(machine, input_str))
    t_idx = encode_configuration(machine, accept_configuration(machine, input_str))
    succ = successors(machine)
    report, adjacency = _audit(machine, succ, s_idx, t_idx)
    if not report.ok:
        raise ContractError(
            f"machine {machine.name!r} failed validation: " + "; ".join(report.issues)
        )
    return adjacency


@dataclass(frozen=True)
class GappedInstance:
    """Matrix decision instance with a certified eigenvalue dichotomy.

    ``adjacency`` is the augmented adjacency A, the audit's record of
    its successor array and chain table (``spectral.SuccessorAdjacency``),
    and ``gram`` is A^T A held as A (``spectral.GramOracle``); the
    spectral routines form neither: A's determinant and the Gram's
    lambda_min and least block are read from A's chain table.
    ``reduce`` takes only the determinant and builds no Gram.  Its
    least eigenvalue is exactly 0 when the machine rejects the input
    and at least 2^-g when it accepts, with g derived from the
    closed-form bound at A's dimension.
    """

    adjacency: SuccessorAdjacency

    @property
    def dim(self) -> int:
        return self.adjacency.dim

    @cached_property
    def g(self) -> int:
        return ceil(-log2(min_eigenvalue_bound(self.dim)))

    @cached_property
    def gram(self) -> GramOracle:
        return GramOracle(self.adjacency)


def reduce_to_gapped(machine: ReversibleTM, input_str: str) -> GappedInstance:
    """Machine + input -> Gram oracle with a 0-vs-2^-g eigenvalue promise."""
    return GappedInstance(augmented_adjacency(machine, input_str))


# ---------------------------------------------------------------------------
# serialization, the bundled corpus and instance files


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


def _read_spec(source: str | os.PathLike | dict) -> tuple[dict, str]:
    """Parsed instance description and the directory its paths are relative to."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            spec, base = json.load(fh), os.path.dirname(os.path.abspath(source))
    else:
        spec, base = source, os.getcwd()
    if not isinstance(spec, dict):
        raise ContractError(f"an instance is a JSON object, got {type(spec).__name__}")
    return spec, base


def reduction_input(spec: dict, base: str):
    """Machine and input string of a {"kind": "rtm"} description.

    ``machine`` is a machine file's path relative to ``base`` when one
    exists there, and otherwise a corpus name; ``space``, if given,
    replaces the machine's tape size.
    """
    machine_ref = _field(spec, "machine", str)
    x = _field(spec, "input", str)
    candidate = os.path.join(base, machine_ref)
    if os.path.exists(candidate):
        machine = load_machine(candidate)
    else:
        machine = corpus_machine(machine_ref)
    if "space" in spec:
        machine = with_space(machine, _field(spec, "space", int))
    return machine, x


def load_instance(source: str | os.PathLike | dict) -> RowOracleMatrix | SuccessorAdjacency:
    """Load a matrix instance from JSON (path or already-parsed dict).

    Formats:
      {"dim": N, "entries": [[i, j, v], ...]}        triplet matrix
      {"dim": N, "rows": [[...], ...]}                dense integer matrix
      {"kind": "path" | "cycle", "ell": L}            structured block
      {"kind": "rtm", "machine": PATH-OR-NAME,
       "input": STR, "space": S?}                     machine reduction
                                                      (its augmented adjacency)

    Every number (values, indices, dim, ell, space) must be a JSON
    integer, ``machine`` and ``input`` strings, and a ``rows`` matrix
    N x N; a missing key or anything else is a ContractError.
    """
    spec, base = _read_spec(source)
    if "rows" in spec:
        rows = _field(spec, "rows", list)
        dim = _field(spec, "dim", int) if "dim" in spec else len(rows)
        if len(rows) != dim:
            raise ContractError(f"instance declares dim {dim} but has {len(rows)} rows")
        for r in rows:
            if not isinstance(r, list) or len(r) != dim:
                raise ContractError(f"instance declares dim {dim} but has the row {r!r}")
        values = [[_integer(v, "rows") for v in r] for r in rows]
        return from_dense(np.array(values, dtype=np.int64))
    if "entries" in spec:
        dim, entries = _field(spec, "dim", int), _field(spec, "entries", list)
        for t in entries:
            if not isinstance(t, list) or len(t) != 3:
                raise ContractError(f"'entries' must hold [i, j, value] triplets, got {t!r}")
        return from_entries(dim, entries)

    kind = spec.get("kind")
    if kind == "path":
        return path_adjacency(_field(spec, "ell", int))
    if kind == "cycle":
        return cycle_adjacency(_field(spec, "ell", int))
    if kind == "rtm":
        return augmented_adjacency(*reduction_input(spec, base))
    raise ValueError(f"unrecognized instance description: {sorted(spec)}")


def load_gapped_instance(
    source: str | os.PathLike | dict,
) -> tuple[RowOracleMatrix, int | None]:
    """The matrix ``verify`` decides from an instance file, with its certified g.

    A machine reduction yields the Gram A^T A of its augmented adjacency
    and the reduction's own gap exponent; every other shape yields the
    matrix ``load_instance`` reads and no gap exponent.
    """
    spec, base = _read_spec(source)
    if spec.get("kind") == "rtm":
        instance = reduce_to_gapped(*reduction_input(spec, base))
        return instance.gram, instance.g
    return load_instance(spec), None
