"""The corpus sweep: every reduction's answers, hashed, against a committed digest file.

For each corpus machine at each space of ``SPACES``, and each input over
its alphabet of length at most min(4, space - 1), a case reduces the
machine and hashes what the reduction answers: det, lambda_min's hex,
the least block's rows and arrays (dtype and bytes), the witness psi's
bytes, its residual's hex and ``repr(decide_gapped(gram, min(g, 37)))``.
Each (machine, space) gets one SHA-256 over its cases' digests, kept in
``sweep_digests.json`` with each case's first eight hex digits, so a
check names the first case that differs; the file also records the
Python and numpy versions it was written under.

Every case also checks the answers against the routes a reduction no
longer takes: the table's det against ``spectral._successor_det`` on
the adjacency's rows, and, up to ``EXPLICIT_ROWS`` rows, lambda_min,
the block, psi and the residual against those read from the Gram's
formed arrays rebuilt from triplets (``oracles.explicit_gram``).

    PYTHONPATH=src python tests/sweep.py           # write sweep_digests.json
    PYTHONPATH=src python tests/sweep.py --check   # compare; exit 1 naming the first difference
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from gaplab import protocols, rtm, spectral

import oracles

DIGESTS = Path(__file__).with_name("sweep_digests.json")

# The spaces swept per machine; first_last_match at space 7 has 5.5 million configurations.
SPACES = {
    "binary_counter": range(2, 10),
    "binary_nonmax": range(2, 8),
    "first_last_match": range(2, 7),
    "unary_counter": range(2, 8),
}

# The largest Gram whose answers are also read from its explicit arrays.
EXPLICIT_ROWS = 20_000


def inputs(machine: rtm.ReversibleTM) -> list[str]:
    """Every input over the machine's alphabet of length at most min(4, space - 1), shortest first."""
    return ["".join(word) for n in range(min(4, machine.space - 1) + 1)
            for word in itertools.product(machine.alphabet, repeat=n)]


def _block_parts(pair) -> list[bytes]:
    """The least block's rows, arrays, witness and residual, as the bytes a case hashes."""
    arrays = [pair.rows] + [getattr(pair.block, part) for part in ("indptr", "indices", "data")]
    parts = [f"{a.dtype.str}:".encode() + a.tobytes() for a in arrays]
    return parts + [pair.psi.tobytes(), pair.residual.hex().encode()]


def case_digest(machine: rtm.ReversibleTM, x: str) -> str:
    """One case's SHA-256, once its answers agree with the retired routes."""
    instance = rtm.reduce_to_gapped(machine, x)
    adjacency, gram = instance.adjacency, instance.gram
    det = spectral.det_exact(adjacency)
    lam = spectral.min_eigenvalue_sparse(gram)
    pair = spectral._bottom_block_eigenpair(gram)
    decision = repr(protocols.decide_gapped(gram, min(instance.g, 37)))
    where = f"{machine.name} space {machine.space} input {x!r}"
    assert spectral._successor_det(adjacency) == det, f"{where}: det"
    assert pair.lam.hex() == lam.hex(), f"{where}: lambda_min"
    parts = [str(det).encode(), lam.hex().encode(), *_block_parts(pair), decision.encode()]
    if instance.dim <= EXPLICIT_ROWS:
        explicit = oracles.explicit_gram(gram)
        want = spectral._bottom_block_eigenpair(explicit)
        assert spectral.min_eigenvalue_sparse(explicit).hex() == lam.hex(), f"{where}: explicit lambda_min"
        assert _block_parts(want) == _block_parts(pair), f"{where}: explicit block"
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


def sweep(spaces: dict[str, range]) -> dict[str, dict[str, dict]]:
    """{machine: {space: {"sha256", "cases", "inputs"}}}: each case's first eight hex digits, in input order."""
    found: dict[str, dict[str, dict]] = {}
    for name, levels in spaces.items():
        for space in levels:
            machine = rtm.with_space(rtm.corpus_machine(name), space)
            words = inputs(machine)
            digests = [case_digest(machine, x) for x in words]
            found.setdefault(name, {})[str(space)] = {
                "sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
                "cases": "".join(d[:8] for d in digests),
                "inputs": len(words),
            }
    return found


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def first_difference(spaces: dict[str, range]) -> str | None:
    """The first (machine, space) and case whose digest differs from the committed file; None if none does."""
    committed = json.loads(DIGESTS.read_text())
    for name, levels in sweep(spaces).items():
        for space, got in levels.items():
            want = committed["sweep"][name][space]
            if got["sha256"] == want["sha256"]:
                continue
            machine = rtm.with_space(rtm.corpus_machine(name), int(space))
            case = next((i for i in range(0, len(got["cases"]), 8)
                         if got["cases"][i:i + 8] != want["cases"][i:i + 8]), None)
            where = f"{name} space {space}"
            if case is not None:
                where += f" input {inputs(machine)[case // 8]!r}"
            mine = versions()
            if mine != committed["versions"]:
                where += f" (digests written under {committed['versions']}, read under {mine})"
            return where
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed digests")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    if args.check:
        differs = first_difference(SPACES)
        print(f"{'differs: ' + differs if differs else 'all digests equal'}"
              f" ({time.perf_counter() - began:.0f} s)")
        return 1 if differs else 0
    found = sweep(SPACES)
    DIGESTS.write_text(json.dumps({"versions": versions(), "sweep": found}, indent=1) + "\n")
    cases = sum(level["inputs"] for levels in found.values() for level in levels.values())
    print(f"{cases} cases written to {DIGESTS.name} in {time.perf_counter() - began:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
