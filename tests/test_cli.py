"""Command-line surface: formats, determinism, exit codes, thinness."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gaplab import cli, protocols, rtm, sparse_oracle, spectral

import oracles


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_csv_shape(capsys):
    code, out = run_cli(capsys, "spectrum", "--kind", "path", "--ell", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ell,k,closed_form,eigensolver,abs_err"
    assert len(lines) == 9
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "8"
        assert float(cells[4]) < 1e-10


def test_spectrum_json_format(capsys):
    code, out = run_cli(capsys, "spectrum", "--kind", "path", "--ell", "2",
                        "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["k"] for r in rows] == [1, 2]


def test_byte_identical_reruns(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        assert cli.main(["spectrum", "--kind", "cycle", "--ell", "12",
                         "--output", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_output_flag_writes_file_not_stdout(tmp_path, capsys):
    target = tmp_path / "det.json"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[2, 1], [1, 1]]}))
    code = cli.main(["det", "--instance", str(path), "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["det"] == 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["det"])
    assert exc.value.code == 2


def test_det_has_no_method_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["det", "--instance", "triplets.json", "--method", "auto"])
    assert exc.value.code == 2


def _verify_refusal(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", *argv])
    assert exit_info.value.code == cli.EXIT_USAGE
    return capsys.readouterr().err.splitlines()[-1]


def test_verify_refuses_an_instance_beside_machine_flags(capsys):
    # Each flag alone is valid; together verify would decide one and drop the other.
    refusal = _verify_refusal(capsys, ["--instance", "path3.json", "--input", "11", "--gap-exponent", "5"])
    assert refusal == "gaplab: error: verify --instance takes no --input"


def test_verify_refuses_an_instance_beside_a_config_space(tmp_path, capsys):
    # The check runs once the config file is applied.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"space": 4}))
    refusal = _verify_refusal(capsys, ["--instance", "path3.json", "--config", str(config)])
    assert refusal == "gaplab: error: verify --instance takes no --space"


def test_contract_violation_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[0, 1], [0, 0]]}))
    code = cli.main(["verify", "--instance", str(path), "--gap-exponent", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("gaplab:")


def test_verify_decides_grams_with_large_entries(tmp_path, capsys):
    # M^T M with entries of M to +-1000 (||A|| about 1e7), positive definite
    # and singular: both pass the PSD certificate, whose margin scales with ||A||.
    rng = np.random.default_rng(3)
    for shape, decision in (((12, 8), "NO"), ((5, 8), "YES")):
        m = rng.integers(-1000, 1001, size=shape)
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"rows": (m.T @ m).tolist()}))
        code, out = run_cli(capsys, "verify", "--instance", str(path), "--gap-exponent", "1")
        assert code == 0
        assert json.loads(out)["decision"] == decision


def test_non_integer_instance_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[1.5, 0], [0, 1]]}))
    assert cli.main(["det", "--instance", str(path)]) == 1
    assert "1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"entries": [[0, 0, 1]]}, "'dim'"),
        ({"dim": "2", "entries": [[0, 0, 1]]}, "'dim'"),
        ({"dim": 2, "entries": {"0": 1}}, "'entries'"),
        ({"dim": 2, "entries": [[0, 0]]}, "'entries'"),
        ({"dim": 2.0, "rows": [[1, 0], [0, 1]]}, "'dim'"),
        ({"rows": "[[1]]"}, "'rows'"),
        ({"kind": "path"}, "'ell'"),
        ({"kind": "cycle", "ell": "4"}, "'ell'"),
        ({"kind": "rtm", "input": "11"}, "'machine'"),
        ({"kind": "rtm", "machine": 7, "input": "11"}, "'machine'"),
        ({"kind": "rtm", "machine": "unary_counter"}, "'input'"),
        ({"kind": "rtm", "machine": "unary_counter", "input": 11}, "'input'"),
        ([[1, 0], [0, 1]], "JSON object"),
        ({"kind": "path", "ell": 0}, "'ell'"),
        ({"kind": "cycle", "ell": 2}, "'ell'"),
        ({"dim": True, "entries": [[0, 0, 5]]}, "'dim'"),
        # Integers past int64, which numpy cannot hold.
        ({"dim": 2, "entries": [[0, 0, 2**63]]}, "'entries'"),
        ({"rows": [[2**63, 0], [0, 1]]}, "'rows'"),
        ({"dim": 2**63, "entries": [[0, 0, 1]]}, "'dim'"),
        # No matrix: a negative or zero dim, and no rows.
        ({"dim": -1, "entries": []}, "'dim'"),
        ({"dim": 0, "entries": []}, "'dim'"),
        ({"rows": []}, "'rows'"),
    ],
)
@pytest.mark.parametrize("command", ["det", "verify"])
def test_malformed_instance_is_one_line_naming_the_key(tmp_path, capsys, spec, key, command):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(spec))
    argv = [command, "--instance", str(path)]
    if command == "verify":
        argv += ["--gap-exponent", "2"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("gaplab:") and err.count("\n") == 1
    assert key in err


def _corpus_spec(name: str) -> dict:
    return json.loads((resources.files("gaplab") / "corpus" / f"{name}.json").read_text())


def _without(spec: dict, key: str) -> dict:
    return {k: v for k, v in spec.items() if k != key}


_MACHINE = _corpus_spec("unary_counter")


@pytest.mark.parametrize(
    "spec, key",
    [
        (_without(_MACHINE, "space"), "'space'"),
        ({**_MACHINE, "space": 4.0}, "'space'"),
        ({**_MACHINE, "space": "4"}, "'space'"),
        (_without(_MACHINE, "states"), "'states'"),
        ({**_MACHINE, "states": "start"}, "'states'"),
        ({**_MACHINE, "alphabet": [0, 1, 2]}, "'alphabet'"),
        (_without(_MACHINE, "start"), "'start'"),
        ({**_MACHINE, "accept": ["acc"]}, "'accept'"),
        (_without(_MACHINE, "blank"), "'blank'"),
        ({**_MACHINE, "name": 7}, "'name'"),
        (_without(_MACHINE, "transitions"), "'transitions'"),
        ({**_MACHINE, "transitions": 5}, "'transitions'"),
        ({**_MACHINE, "transitions": [["start", "0", "acc", "0"]]}, "'transitions'"),
        ({**_MACHINE, "transitions": [["start", 0, "acc", "0", "S"]]}, "'transitions'"),
        ([_MACHINE], "JSON object"),
        ({**_MACHINE, "space": True}, "'space'"),
        # Well-typed files that no machine can be built from.
        ({**_MACHINE, "transitions": _MACHINE["transitions"] + [["start", "0", "acc", "1", "S"]]},
         "duplicate transition for (start, 0)"),
        ({**_MACHINE, "transitions": [["start", "0", "acc", "0", "U"]]}, "move must be one of"),
        ({**_MACHINE, "states": _MACHINE["states"] + ["back"]}, "duplicate state names"),
        ({**_MACHINE, "accept": "start"}, "start and accept states must differ"),
        ({**_MACHINE, "blank": "Z"}, "blank symbol must be in the alphabet"),
        ({**_MACHINE, "transitions": [["start", "0", "nowhere", "0", "S"]]}, "references unknown state"),
        ({**_MACHINE, "transitions": [["start", "0", "acc", "Z", "S"]]}, "references unknown symbol"),
    ],
)
@pytest.mark.parametrize("command", ["reduce", "verify", "det"])
def test_malformed_machine_file_is_one_line_naming_the_key(
    tmp_path, capsys, spec, key, command
):
    machine_path = tmp_path / "m.json"
    machine_path.write_text(json.dumps(spec))
    if command == "det":
        instance_path = tmp_path / "instance.json"
        instance_path.write_text(json.dumps({"kind": "rtm", "machine": "m.json", "input": "11"}))
        argv = ["det", "--instance", str(instance_path)]
    else:
        argv = [command, "--machine", str(machine_path), "--input", "11"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("gaplab:") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize(
    "name, x", [("unary_counter", "11"), ("binary_nonmax", "#io"), ("first_last_match", "ab")]
)
def test_machine_file_reduces_like_its_corpus_name(tmp_path, capsys, name, x):
    path = tmp_path / f"copy_of_{name}.json"
    path.write_text((resources.files("gaplab") / "corpus" / f"{name}.json").read_text())
    by_name = run_cli(capsys, "reduce", "--machine", name, "--input", x)
    by_path = run_cli(capsys, "reduce", "--machine", str(path), "--input", x)
    assert by_name[0] == 0
    assert by_path == by_name


def test_instance_machine_path_resolves_against_the_file_directory(
    tmp_path, capsys, monkeypatch
):
    # Two configurations, start -> accept in one step: the augmented
    # adjacency is [[0, 1], [1, 0]] (det -1), and its Gram, which `energy`
    # reads, is the identity.
    machine = {
        "name": "one_step", "states": ["s", "acc"], "start": "s", "accept": "acc",
        "alphabet": ["0"], "blank": "0", "space": 1,
        "transitions": [["s", "0", "acc", "0", "S"]],
    }
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "m.json").write_text(json.dumps(machine))
    (sub / "inst.json").write_text(json.dumps({"kind": "rtm", "machine": "m.json", "input": ""}))
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "det", "--instance", "sub/inst.json")
    assert code == 0 and json.loads(out)["det"] == -1
    code, out = run_cli(capsys, "energy", "--instance", "sub/inst.json", "--bits", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["eigensolver"] == pytest.approx(1.0, abs=1e-12)
    assert payload["abs_err"] <= 2.0**-20


def test_energy_materializes_the_clock_hamiltonian_once(tmp_path, capsys, monkeypatch):
    instance_path = tmp_path / "instance.json"
    assert cli.main(["kitaev", "--output", str(instance_path)]) == 0
    calls = []
    materialize = protocols.PreciseLHInstance.materialize

    def counted(self):
        calls.append(self)
        return materialize(self)

    monkeypatch.setattr(protocols.PreciseLHInstance, "materialize", counted)
    code, out = run_cli(capsys, "energy", "--instance", str(instance_path), "--bits", "20")
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["abs_err"] <= 2.0**-20


_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # Pauli X as [re, im] pairs


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"terms": [], "a": 0.1}, "'qubits'"),
        ({"qubits": "1", "terms": [], "a": 0.1, "b": 0.2}, "'qubits'"),
        ({"qubits": -1, "terms": [], "a": 0.1, "b": 0.2}, "'qubits'"),
        ({"qubits": 1, "terms": {}, "a": 0.1, "b": 0.2}, "'terms'"),
        ({"qubits": 1, "terms": [[0]], "a": 0.1, "b": 0.2}, "'terms'"),
        ({"qubits": 1, "terms": [{"matrix": _X}], "a": 0.1, "b": 0.2}, "'qubits'"),
        ({"qubits": 1, "terms": [{"qubits": ["0"], "matrix": _X}], "a": 0.1, "b": 0.2},
         "'qubits'"),
        ({"qubits": 1, "terms": [{"qubits": [0]}], "a": 0.1, "b": 0.2}, "'matrix'"),
        ({"qubits": 1, "terms": [{"qubits": [0], "matrix": [[0, 1], [1, 0]]}],
          "a": 0.1, "b": 0.2}, "'matrix'"),
        ({"qubits": 1, "terms": [], "b": 0.2}, "'a'"),
        ({"qubits": 1, "terms": [], "a": "0.1", "b": 0.2}, "'a'"),
        ({"qubits": 1, "terms": [], "a": 0.1}, "'b'"),
        ({"qubits": 1, "terms": [], "a": 0.1, "b": None}, "'b'"),
        # Entries and thresholds that are not finite: NaN, and 1e400, which reads as inf.
        ({"qubits": 1, "terms": [{"qubits": [0], "matrix": [[[float("nan"), 0], [0, 0]],
                                                            [[0, 0], [0, 0]]]}],
          "a": 0.1, "b": 0.2}, "'matrix'"),
        pytest.param('{"qubits": 1, "terms": [{"qubits": [0], "matrix": [[[1e400, 0], [0, 0]], '
                     '[[0, 0], [1, 0]]]}], "a": 0.1, "b": 0.2}', "'matrix'", id="matrix_1e400"),
        ({"qubits": 1, "terms": [], "a": float("nan"), "b": 0.2}, "'a'"),
        pytest.param('{"qubits": 1, "terms": [], "a": 0.1, "b": 1e400}', "'b'", id="b_1e400"),
        ({"qubits": 1, "terms": [], "a": 0.1, "b": float("nan")}, "'b'"),
    ],
)
def test_malformed_clock_instance_is_one_line_naming_the_key(tmp_path, capsys, spec, key):
    path = tmp_path / "instance.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))  # a str is the file
    assert cli.main(["energy", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gaplab:") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize(
    "spec",
    [{"kind": "path", "ell": 8}, {"dim": 2, "rows": [[0, 1], [1, 0]]}],
    ids=["nonsymmetric_path", "indefinite"],
)
def test_verify_refuses_non_psd_instance(tmp_path, capsys, spec):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(spec))
    code = cli.main(["verify", "--instance", str(path), "--gap-exponent", "2"])
    assert code == 1
    assert "verify needs a positive semidefinite instance" in capsys.readouterr().err


def test_verify_refuses_a_large_dense_instance_before_allocating_it(tmp_path, capsys, monkeypatch):
    # The path Gram of 20,000 beside [[3, 2], [2, 3]], shuffled: no path sum, so
    # the dense route, and its 20,002 rows are over DENSE_CAP.
    ell, dim = 20000, 20002
    k = np.arange(ell)
    rows = np.concatenate([k, k[:-1], k[1:], [ell, ell, ell + 1, ell + 1]])
    cols = np.concatenate([k, k[1:], k[:-1], [ell, ell + 1, ell, ell + 1]])
    vals = np.concatenate([np.full(ell - 1, 2), [1], np.ones(2 * (ell - 1), int), [3, 2, 2, 3]])
    perm = np.random.default_rng(0).permutation(dim)
    path = tmp_path / "chain.json"
    entries = np.stack([perm[rows], perm[cols], vals], axis=1).tolist()
    path.write_text(json.dumps({"dim": dim, "entries": entries}))
    zeros = np.zeros

    def refuse_square(shape, *args, **kwargs):
        if np.prod(shape) >= dim * dim:
            raise AssertionError("a dim x dim array was allocated")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_square)
    start = time.perf_counter()
    code = cli.main(["verify", "--instance", str(path), "--gap-exponent", "2"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert "dim 20002 exceeds dense materialization cap" in capsys.readouterr().err
    assert elapsed < 1.0


def test_verify_instance_decides_the_gram_of_a_machine_reduction(tmp_path, capsys):
    path = tmp_path / "rtm.json"
    path.write_text(json.dumps(
        {"kind": "rtm", "machine": "unary_counter", "input": "11", "space": 3}
    ))
    code, out = run_cli(capsys, "verify", "--instance", str(path))
    assert code == 0
    from_file = json.loads(out)
    code, out = run_cli(capsys, "verify", "--machine", "unary_counter",
                        "--space", "3", "--input", "11")
    assert code == 0
    from_machine = json.loads(out)
    assert from_file.pop("instance") == str(path)
    assert from_machine.pop("instance") == "unary_counter"
    assert from_file == from_machine
    assert from_file["decision"] == "NO"  # the machine accepts "11"


@pytest.mark.parametrize("g", [1, 2, 3])
def test_verify_refuses_a_reduction_inside_its_promise_gap(tmp_path, capsys, g):
    # lambda_min 0.081 accepts, yet lies below 2^-g for g <= 3: neither side
    # of the promise, so both routes exit 3 with one line and no report.
    path = tmp_path / "rtm.json"
    path.write_text(json.dumps({"kind": "rtm", "machine": "unary_counter", "input": "11", "space": 3}))
    machine = ["--machine", "unary_counter", "--space", "3", "--input", "11"]
    lam = spectral.min_eigenvalue_sparse(rtm.load_gapped_instance(path)[0])
    assert 2.0**-4 < lam < 2.0**-3
    for argv in (["--instance", str(path)], machine):
        assert cli.main(["verify", *argv, "--gap-exponent", str(g)]) == cli.EXIT_PROMISE
        line = f"gaplab: promise violated: lambda_min {lam!r} is neither 0 nor at least 2^-{g}\n"
        assert capsys.readouterr() == ("", line)
    for argv in (["--instance", str(path)], machine):
        code, out = run_cli(capsys, "verify", *argv, "--gap-exponent", "4")
        assert code == 0 and json.loads(out)["decision"] == "NO"


def test_verify_refuses_an_explicit_path_sum_inside_its_promise_gap(tmp_path, capsys):
    # The path Gram of 200 vertices written out entry by entry: its lambda_min
    # 6.14e-5 is a closed form, as a reduction's is, and lies inside the gap
    # of g = 10 to 13, so verify exits 3 with one line rather than print YES.
    gram = oracles.ata_oracle(sparse_oracle.path_adjacency(200)).csr.tocoo()
    path = tmp_path / "path200.json"
    entries = np.stack([gram.row, gram.col, gram.data], axis=1).tolist()
    path.write_text(json.dumps({"dim": 200, "entries": entries}))
    lam = spectral.min_eigenvalue_sparse(rtm.load_gapped_instance(path)[0])
    assert 2.0**-14 < lam < 2.0**-13
    assert cli.main(["verify", "--instance", str(path), "--gap-exponent", "10"]) == cli.EXIT_PROMISE
    line = f"gaplab: promise violated: lambda_min {lam!r} is neither 0 nor at least 2^-10\n"
    assert capsys.readouterr() == ("", line)
    code, out = run_cli(capsys, "verify", "--instance", str(path), "--gap-exponent", "14")
    assert code == 0 and json.loads(out)["decision"] == "NO"


def test_every_command_refuses_an_instance_of_two_shapes(tmp_path, capsys):
    # One reader for every command: a file naming both "rows" and "kind" is
    # neither the 2 x 2 matrix nor the machine reduction.
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"kind": "rtm", "machine": "unary_counter", "input": "11",
                                "space": 3, "rows": [[1, 0], [0, 1]]}))
    line = "gaplab: an instance names one of 'rows', 'entries' and 'kind', got ['rows', 'kind']\n"
    for argv in (["det"], ["verify"], ["verify", "--gap-exponent", "2"], ["energy"]):
        assert cli.main([*argv, "--instance", str(path)]) == 1
        assert capsys.readouterr() == ("", line)


def test_verify_matrix_instance_needs_a_gap_exponent(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[2, 1], [1, 1]]}))
    code = cli.main(["verify", "--instance", str(path)])
    assert code == 1
    assert "requires --gap-exponent" in capsys.readouterr().err


@pytest.mark.parametrize("x, accepts", [("11", "true"), ("1", "false")])
def test_reduce_payload_matches_library(capsys, x, accepts):
    code, out = run_cli(capsys, "reduce", "--machine", "unary_counter",
                        "--input", x)
    assert code == 0
    payload = json.loads(out)
    machine = rtm.corpus_machine("unary_counter")
    instance = rtm.reduce_to_gapped(machine, x)
    assert payload["dim"] == instance.dim
    assert payload["gap_exponent"] == instance.g
    assert payload["det"] == spectral.det_exact(instance.adjacency)
    assert json.dumps(payload["accepts"]) == accepts
    # CSV spells the boolean as JSON does.
    code, out = run_cli(capsys, "reduce", "--machine", "unary_counter",
                        "--input", x, "--format", "csv")
    assert code == 0
    assert out == ",".join(payload) + f"\nunary_counter,{x},4,1620,21,{payload['det']},{accepts}\n"


def test_verify_instance_matches_library(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[2, 1], [1, 1]]}))
    code, out = run_cli(capsys, "verify", "--instance", str(path),
                        "--gap-exponent", "2")
    assert code == 0
    payload = json.loads(out)
    _, bounded, g = protocols.toy_gapped_instances()
    want = protocols.decide_gapped(bounded, g)
    assert payload["decision"] == want.decision == "NO"
    assert payload["acceptance"] == pytest.approx(want.acceptance, abs=1e-15)
    assert payload["separation"] == pytest.approx(want.separation, abs=1e-15)
    assert payload["epsilon"] == pytest.approx(want.epsilon, abs=1e-18)
    assert payload["evo_time"] == pytest.approx(want.evo_time, abs=1e-15)
    assert payload["taylor_order"] == want.taylor_order


def test_amplify_matches_library(capsys):
    code, out = run_cli(capsys, "amplify", "--p", "0.9", "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    verifier = protocols.rotation_verifier(0.9, 0.9, 0.1)
    params = protocols.AmplificationParams.from_promise(0.9, 0.1, 3)
    want = protocols.nwz_amplify(verifier, params, np.array([0.0, 1.0]))
    assert payload["decision"] == want.decision == "YES"
    assert payload["p_yes"] == pytest.approx(want.p_yes, abs=1e-15)
    assert payload["per_trial_yes"] == pytest.approx(want.per_trial_yes, abs=1e-15)
    assert payload["register_bits"] == params.register_bits == 6


def test_amplify_promise_violation_exit_code(capsys):
    code, out = run_cli(capsys, "amplify", "--p", "0.5")
    assert code == 3
    assert json.loads(out)["decision"] == "PROMISE_VIOLATED"


def test_amplify_memory_does_not_grow_with_the_register(capsys):
    # c - s = 2^-20 takes a 26-bit register; simulating it would hold 2^26
    # branches of four amplitudes (4 GB).  Each kernel arc sum is a fixed
    # number of scalar terms, whatever the register size.
    c, s = 0.5 + 2.0**-21, 0.5 - 2.0**-21
    for p, want in ((c, "YES"), (s, "NO")):
        (code, out), peak = oracles.traced_peak(lambda: run_cli(
            capsys, "amplify", "--p", repr(p), "--completeness", repr(c), "--soundness", repr(s)
        ))
        assert code == 0
        payload = json.loads(out)
        assert payload["register_bits"] == 26
        assert payload["decision"] == want
        assert payload["probability"] > 0.999
        assert peak < 32e6


def test_amplify_decides_a_gap_of_2_to_the_minus_40(capsys):
    # A 46-bit register: a kernel summing its 2^46 outcomes would not finish.
    c, s = 0.5 + 2.0**-41, 0.5 - 2.0**-41
    for p, want in ((c, "YES"), (s, "NO")):
        code, out = run_cli(capsys, "amplify", "--p", repr(p),
                            "--completeness", repr(c), "--soundness", repr(s))
        assert code == 0
        payload = json.loads(out)
        assert payload["register_bits"] == 46
        assert payload["decision"] == want
        assert payload["probability"] > 0.999


def test_kitaev_energy_round_trip(tmp_path, capsys):
    instance_path = tmp_path / "instance.json"
    code = cli.main(["kitaev", "--verifier", "rotation", "--p", "0.9",
                     "--output", str(instance_path)])
    assert code == 0
    capsys.readouterr()
    blob = json.loads(instance_path.read_text())
    assert blob["qubits"] == 3
    code, out = run_cli(capsys, "energy", "--instance", str(instance_path),
                        "--bits", "30")
    assert code == 0
    payload = json.loads(out)
    assert payload["abs_err"] <= 2.0 ** -30
    assert payload["estimate"] == pytest.approx(0.012912542362503346, abs=2.0 ** -29)


def test_energy_instance_reads_the_gram_of_a_machine_reduction(tmp_path, capsys):
    machine_path = resources.files("gaplab") / "corpus" / "unary_counter.json"
    (tmp_path / "m.json").write_text(machine_path.read_text())
    path = tmp_path / "rtm.json"
    path.write_text(json.dumps({"kind": "rtm", "machine": "m.json", "input": "11", "space": 3}))
    code, out = run_cli(capsys, "energy", "--instance", str(path), "--bits", "30")
    assert code == 0
    payload = json.loads(out)
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 3)
    gram = rtm.reduce_to_gapped(machine, "11").gram
    want = protocols.ground_energy(oracles.formed(gram).csr.toarray().astype(float))
    assert payload["eigensolver"] == pytest.approx(want, abs=1e-12)
    assert payload["abs_err"] <= 2.0 ** -30


@pytest.mark.parametrize("space, name", [
    pytest.param(6, "unary_counter", id="6"),  # dims 21,870 and 76,545, over DENSE_CAP
    pytest.param(7, "unary_counter", id="7"),
    pytest.param(9, "unary_counter", id="9-unary_counter"),  # dims 885,735 and 1,062,882
    pytest.param(9, "binary_counter", id="9-binary_counter"),
])
def test_energy_bisects_a_machine_reduction_past_the_dense_cap(tmp_path, capsys, monkeypatch,
                                                               space, name):
    # The bisection factors the chain table's few blocks, so the whole command,
    # the reduction included, peaks at 10-14 traced bytes a configuration
    # (measured); forming the Gram and its RCM band took about 100.
    from scipy.linalg import cholesky_banded  # noqa: F401  imported before any trace

    def refused(*args, **kwargs):
        raise AssertionError("materialize called")

    for module in (sparse_oracle, spectral, protocols):
        monkeypatch.setattr(module, "materialize", refused)
    machine = rtm.with_space(rtm.corpus_machine(name), space)
    tape = "0" * (space - 3)
    for x in ("11", "1") if name == "unary_counter" else (f"#{tape}#", f"#{tape}"):
        path = tmp_path / f"rtm_{x}.json"
        path.write_text(json.dumps({"kind": "rtm", "machine": name, "input": x, "space": space}))
        (code, out), peak = oracles.traced_peak(
            lambda: run_cli(capsys, "energy", "--instance", str(path), "--bits", "30"))
        assert code == 0
        assert peak < 24 * machine.dim, peak
        payload = json.loads(out)
        lam = spectral.min_eigenvalue_sparse(rtm.reduce_to_gapped(machine, x).gram)
        assert payload["eigensolver"] == lam
        assert abs(payload["estimate"] - lam) <= 2.0**-30


def test_energy_checks_a_machine_reduction_in_closed_form(tmp_path, capsys, monkeypatch):
    # The cross-check of an `rtm` file is min_eigenvalue_sparse, with no dense solve.
    path = tmp_path / "rtm.json"
    path.write_text(json.dumps({"kind": "rtm", "machine": "unary_counter", "input": "11",
                                "space": 4}))

    def refused(matrix):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(protocols, "ground_energy", refused)
    code, out = run_cli(capsys, "energy", "--instance", str(path), "--bits", "20")
    assert code == 0
    payload = json.loads(out)
    gram = rtm.reduce_to_gapped(rtm.with_space(rtm.corpus_machine("unary_counter"), 4), "11").gram
    assert payload["eigensolver"] == spectral.min_eigenvalue_sparse(gram)
    assert payload["abs_err"] <= 2.0 ** -20


def test_energy_refuses_a_bisection_off_the_closed_form(tmp_path, capsys, monkeypatch):
    # A bisection 2^(1 - bits) off the closed form is past its 2^-bits bracket.
    path = tmp_path / "rtm.json"
    path.write_text(json.dumps({"kind": "rtm", "machine": "unary_counter", "input": "11",
                                "space": 4}))
    bisect = protocols.binary_search_energy
    monkeypatch.setattr(protocols, "binary_search_energy",
                        lambda instance, bits: bisect(instance, bits) + 2.0 ** (1 - bits))
    code = cli.main(["energy", "--instance", str(path), "--bits", "20"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("gaplab: routes disagree: bisection ") and err.count("\n") == 1
    assert "apart > 2^-20" in err


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ell": 4, "kind": "path"}))
    code, out = run_cli(capsys, "spectrum", "--config", str(config))
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ell": 4}))
    code, out = run_cli(capsys, "spectrum", "--config", str(config),
                        "--ell", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize(
    "text, refusal",
    [
        (None, "No such file"),
        ("{\"ell\": 4", "is not JSON"),
        ("[4]", "must hold a JSON object, got list"),
    ],
)
def test_unreadable_config_is_refused_in_one_line(tmp_path, capsys, text, refusal):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    assert cli.main(["spectrum", "--config", str(config)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("gaplab: ") and refusal in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, config, refusal",
    [
        (["spectrum"], {"ell": "8"}, "'ell' must be an integer, got '8'"),
        (["energy", "--instance", "m.json"], {"bits": 2.5}, "'bits' must be an integer, got 2.5"),
        (["amplify"], {"p": True}, "'p' must be a number, got True"),
        (["amplify"], {"p": 10**400}, "'p' must be a number a float can hold, got 401 digits"),
        (["spectrum", "--ell", "4"], {"kind": "star"}, "'kind' must be one of 'path', 'cycle'"),
        (["det", "--instance", "m.json"], {"method": "bareiss"}, "'method' sets no flag of det"),
    ],
)
def test_config_values_a_flag_would_refuse_exit_2(tmp_path, capsys, argv, config, refusal):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--config", str(path)])
    assert exit_info.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"gaplab: config key {refusal}") and err.count("\n") == 1


def test_config_number_for_a_float_flag_reads_as_the_flag_would(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 1, "completeness": 0.9}))
    assert run_cli(capsys, "amplify", "--config", str(path)) == run_cli(
        capsys, "amplify", "--p", "1", "--completeness", "0.9"
    )


def test_seed_recorded_in_payload(capsys):
    code, out = run_cli(capsys, "amplify", "--p", "0.9", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7
    assert next(iter(payload)) == "seed"


def test_floats_printed_at_full_precision(capsys):
    _, out = run_cli(capsys, "spectrum", "--kind", "path", "--ell", "2")
    value = out.strip().splitlines()[1].split(",")[2]
    assert float(value) == spectral.closed_form_eigenvalues(2)[0]


# ---------------------------------------------------------------------------
# golden outputs: default reports must stay byte-identical across refactors

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "spectrum_path_8": ["spectrum", "--kind", "path", "--ell", "8"],
    "spectrum_cycle_12": ["spectrum", "--kind", "cycle", "--ell", "12"],
    "det_auto": ["det", "--instance", "triplets.json"],
    **{
        f"reduce_{machine}_{x}": ["reduce", "--machine", machine, "--input", x]
        for machine, x in (
            ("unary_counter", "11"),
            ("unary_counter", "1"),
            ("binary_nonmax", "#io"),
            ("binary_nonmax", "#ii"),
            ("first_last_match", "aa"),
            ("first_last_match", "ab"),
            ("binary_counter", "#0#"),
            ("binary_counter", "#0"),
        )
    },
    **{
        f"verify_unary_counter_{x}": ["verify", "--machine", "unary_counter",
                                      "--space", "3", "--input", x,
                                      "--gap-exponent", "12"]
        for x in ("11", "1")
    },
    # The README example: the instance's own certified g = 21 at space 4.
    "verify_unary_counter_11_default": ["verify", "--machine", "unary_counter",
                                        "--input", "11"],
    "verify_toy_gram": ["verify", "--instance", "toy_gram.json", "--gap-exponent", "2"],
    "amplify_p09": ["amplify", "--p", "0.9"],
    **{
        f"kitaev_{verifier}_{fmt}": ["kitaev", "--verifier", verifier, "--format", fmt]
        for verifier in ("rotation", "rule")
        for fmt in ("json", "csv")
    },
    "energy_2x2": ["energy", "--instance", "energy_2x2.json"],
    "energy_rtm_unary_counter_11": ["energy", "--instance", "rtm_unary_counter_11.json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    code, out = run_cli(capsys, *GOLDEN_CASES[name])
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()


@pytest.mark.parametrize("verifier", ["rotation", "rule"])
def test_kitaev_text_report_builds_no_term(verifier, capsys, monkeypatch):
    # The report's term count is read from the compiled gates.
    def refuse(self):
        raise AssertionError("a clock term was built")

    monkeypatch.setattr(protocols.ClockInstance, "terms", refuse)
    monkeypatch.chdir(GOLDEN_DIR)
    name = f"kitaev_{verifier}_csv"
    code, out = run_cli(capsys, *GOLDEN_CASES[name])
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()


@pytest.mark.parametrize(
    "det",
    [oracles.det_bareiss, oracles.det_cycle_cover, oracles.det_permutation_expansion,
     spectral.det_bareiss_sparse],
    ids=lambda det: det.__name__,
)
def test_det_oracles_match_det_exact(det):
    # The golden det_auto report pins det_exact on this file at -7.
    matrix = rtm.load_instance(GOLDEN_DIR / "triplets.json")
    assert det(matrix) == spectral.det_exact(matrix) == -7


_SCIPY_FREE_RUN = """
import contextlib, io, json, sys

import gaplab, gaplab.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

machine = ["--machine", "unary_counter", "--space", "4"]
loaded = {"import gaplab, gaplab.cli": scipy_modules()}
for argv in (["amplify", "--p", "0.9"], ["kitaev", "--verifier", "rule"],
             ["kitaev", "--verifier", "rotation"],
             ["verify", *machine, "--input", "11"], ["verify", *machine, "--input", "1"],
             ["reduce", *machine, "--input", "11"], ["reduce", *machine, "--input", "1"],
             ["det", "--instance", sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert gaplab.cli.main(argv) == 0
    loaded[" ".join(argv)] = scipy_modules()
print(json.dumps(loaded))
"""


def test_amplify_kitaev_verify_reduce_and_det_load_no_scipy(tmp_path):
    # pytest's own process already holds scipy, so a fresh interpreter runs the check.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    instance = tmp_path / "rtm.json"
    instance.write_text(json.dumps(
        {"kind": "rtm", "machine": "unary_counter", "input": "11", "space": 4}))
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN, str(instance)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(result.stdout)
    assert len(loaded) == 9
    assert loaded == {step: [] for step in loaded}


_GRAM_READ_RUN = """
import contextlib, io, json

import gaplab.cli
from gaplab import spectral

built = []
bottom = spectral.SuccessorAdjacency.bottom

def counted(self):
    built.append(self.dim)
    return bottom(self)

spectral.SuccessorAdjacency.bottom = counted
machine = ["--machine", "unary_counter", "--space", "4", "--input", "11"]
counts = {}
for command in ("reduce", "verify"):
    built.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert gaplab.cli.main([command, *machine]) == 0
    counts[command] = len(built)
print(json.dumps(counts))
"""


def test_reduce_reads_no_gram_and_verify_reads_its_least_block_twice():
    # The instance is the Gram, so what counts is a read of its least block
    # from the chain table (``SuccessorAdjacency.bottom``): verify reads it
    # for its lambda_min route check and in ``decide_gapped``; reduce never.
    # A fresh interpreter, so that no Gram read earlier in the process counts.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _GRAM_READ_RUN],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == {"reduce": 0, "verify": 2}


def _refuse_row_oracles(monkeypatch):
    # A reduction's Gram is its chain table and its witness block is written as
    # padded rows, so neither A^T A nor any other row oracle is built.
    def refuse(*args, **kwargs):
        raise AssertionError("a row oracle was built")

    monkeypatch.setattr(sparse_oracle.RowOracleMatrix, "__post_init__", refuse)


def test_a_reduction_at_space_8_never_forms_its_gram(monkeypatch, capsys):
    _refuse_row_oracles(monkeypatch)
    machine = rtm.with_space(rtm.corpus_machine("unary_counter"), 8)
    for x, accepts in (("11", True), ("1", False)):
        instance = rtm.reduce_to_gapped(machine, x)
        lam = spectral.min_eigenvalue_sparse(instance.gram)
        decision = protocols.decide_gapped(instance.gram, instance.g)
        assert (lam >= spectral.min_eigenvalue_bound(instance.dim)) == accepts
        assert decision.decision == ("NO" if accepts else "YES")
        code, out = run_cli(capsys, "reduce", "--machine", "unary_counter", "--space", "8",
                            "--input", x)
        assert code == 0 and json.loads(out)["accepts"] == accepts


def test_reduce_and_verify_at_space_10_never_form_the_gram(tmp_path, monkeypatch, capsys):
    _refuse_row_oracles(monkeypatch)
    machine = ["--machine", "unary_counter", "--space", "10", "--input", "11"]
    code, out = run_cli(capsys, "reduce", *machine)
    assert code == 0 and json.loads(out)["dim"] == 2_952_450
    code, out = run_cli(capsys, "verify", *machine, "--gap-exponent", "37")
    assert code == 0 and json.loads(out)["decision"] == "NO"
    path = tmp_path / "rtm.json"
    path.write_text(json.dumps({"kind": "rtm", "machine": "unary_counter", "input": "11", "space": 10}))
    code, from_file = run_cli(capsys, "verify", "--instance", str(path), "--gap-exponent", "37")
    assert code == 0 and json.loads(from_file)["decision"] == "NO"


def test_a_reduction_forms_no_rows_not_even_for_energy(capsys, monkeypatch):
    # reduce, verify, det and energy answer from the chain table, so neither
    # the Gram's product nor an RCM band is built, nor any row oracle: verify's
    # witness block is written as padded rows.
    monkeypatch.chdir(GOLDEN_DIR)

    def refuse(*args, **kwargs):
        raise AssertionError("a reduction's rows were formed")

    for owner in (spectral, protocols):  # protocols holds _rcm_band by name
        monkeypatch.setattr(owner, "_rcm_band", refuse)
    monkeypatch.setattr(sparse_oracle.RowOracleMatrix, "__post_init__", refuse)
    code, out = run_cli(capsys, "energy", "--instance", "rtm_unary_counter_11.json")
    assert code == 0 and out.encode() == (GOLDEN_DIR / "energy_rtm_unary_counter_11.out").read_bytes()
    code, out = run_cli(capsys, "det", "--instance", "rtm_unary_counter_11.json")
    assert code == 0 and json.loads(out)["det"] == -1
    machine = ["--machine", "unary_counter", "--space", "3", "--input", "11"]
    for name, argv in (("reduce_unary_counter_11", ["reduce", "--machine", "unary_counter", "--input", "11"]),
                       ("verify_unary_counter_11", ["verify", *machine, "--gap-exponent", "12"]),
                       ("verify_unary_counter_11_default", ["verify", "--machine", "unary_counter",
                                                            "--input", "11"])):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes(), name
    code, out = run_cli(capsys, "verify", "--instance", "rtm_unary_counter_11.json")
    assert code == 0 and json.loads(out)["decision"] == "NO"


def test_a_directory_named_like_a_corpus_machine_does_not_shadow_it(tmp_path, capsys, monkeypatch):
    # A machine name is a file beside the instance (or in the working
    # directory) when one is there; a directory of that name is not one.
    (tmp_path / "unary_counter").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "reduce", "--machine", "unary_counter", "--input", "11")
    assert code == 0 and out.encode() == (GOLDEN_DIR / "reduce_unary_counter_11.out").read_bytes()
    (tmp_path / "rtm.json").write_bytes((GOLDEN_DIR / "rtm_unary_counter_11.json").read_bytes())
    code, out = run_cli(capsys, "energy", "--instance", "rtm.json")
    want = (GOLDEN_DIR / "energy_rtm_unary_counter_11.out").read_text()
    assert code == 0 and out == want.replace("rtm_unary_counter_11.json", "rtm.json")


def test_det_writes_a_determinant_past_the_default_digit_limit(tmp_path, capsys):
    # det 3^9100 has 4,342 digits, past Python's default limit of 4,300 for int-to-str.
    path = tmp_path / "threes.json"
    path.write_text(json.dumps({"dim": 9100, "entries": [[i, i, 3] for i in range(9100)]}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(3**9100)
    finally:
        sys.set_int_max_str_digits(limit)
    code, out = run_cli(capsys, "det", "--instance", str(path))
    assert code == 0 and f'"det": {digits},' in out
    code, out = run_cli(capsys, "det", "--instance", str(path), "--format", "csv")
    assert code == 0 and out == f"dim,det,method\n9100,{digits},auto\n"
    assert sys.get_int_max_str_digits() == limit


def test_amplify_refuses_a_register_past_the_float_range(capsys):
    argv = ["amplify", "--p", "0.9", "--format", "csv", "--precision-bits"]
    assert cli.main([*argv, "1022"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gaplab: precision bits 1022 exceed the float range\n"
    code, out = run_cli(capsys, *argv, "1021")
    assert code == 0 and out.splitlines()[1] == (
        "0.90000000000000002,0.90000000000000002,0.10000000000000001,3,1021,1023,"
        "0.10241638234956676,0.39758361765043326,best,YES,1,1,0,0,1,0"
    )


def test_amplify_refuses_a_promise_whose_phases_are_equal(capsys):
    code = cli.main(["amplify", "--p", "0.9", "--completeness", "2e-320", "--soundness", "1e-320"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "gaplab: c=2e-320 and s=1e-320 have the same phase 0.5\n"


@pytest.mark.parametrize("bits", ["-1100", "-1024", "-1000", "0"])
def test_amplify_refuses_every_precision_below_one_in_one_line(capsys, bits):
    assert cli.main(["amplify", "--p", "0.9", "--precision-bits", bits]) == 1
    assert capsys.readouterr().err == (
        "gaplab: precision too coarse: 2^-alpha must be below a quarter of the phase gap\n"
    )


def test_amplify_answers_past_1029_trials(capsys):
    code, out = run_cli(capsys, "amplify", "--p", "0.9", "--trials", "1100")
    assert code == 0 and json.loads(out)["decision"] == "YES"


def test_amplify_edge_values_exit_in_one_line(capsys):
    # Promises near 0, 1/2 and 1 and subnormal, trials 1 to 2,001 and precision
    # bits -2,000 to 1,100: each run answers (0), refuses in one line (1) or
    # reports a promise violation (3), and none raises.
    phases = ["0", "5e-324", "2e-320", "1e-300", "0.4999999999999999", "0.5",
              "0.5000000000000001", "0.9999999999999999", "1"]
    bits = [None, "-2000", "-1100", "-1024", "-1000", "0", "1", "4", "60", "1021", "1022", "1100"]
    runs = [["--p", "0.9", "--completeness", c, "--soundness", s]
            + ([] if b is None else ["--precision-bits", b])
            for c in phases for s in phases for b in bits]
    runs += [["--p", p, "--trials", r]
             for p in ("0.5", "1") for r in ("1", "2", "1029", "1030", "1100", "2001")]
    for argv in runs:
        code = cli.main(["amplify", *argv])
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("gaplab: ") and err.count("\n") == 1, argv
        else:
            assert code in (0, 3) and err == "", argv


def test_reduce_refuses_a_dim_past_int64(capsys):
    # 5 states, 40 cells, 3 symbols: dim 5 * 40 * 3^40, about 2^71, refused before any array.
    code = cli.main(["reduce", "--machine", "unary_counter", "--input", "11", "--space", "40"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"gaplab: dim {5 * 40 * 3**40} exceeds the int64 index range\n"
    )


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 1.46 PiB for an array"),
     "Unable to allocate 1.46 PiB for an array"),
    (MemoryError(), "MemoryError"),
])
def test_reduce_reports_a_failed_allocation_in_one_line(monkeypatch, capsys, error, line):
    def allocate(machine):
        raise error

    monkeypatch.setattr(rtm, "successors", allocate)
    code = cli.main(["reduce", "--machine", "unary_counter", "--input", "11", "--space", "5"])
    assert code == 1
    assert capsys.readouterr().err == f"gaplab: {line}\n"


@pytest.mark.parametrize("x, line", [("11", "det -1 but simulate rejects"),
                                     ("1", "det 0 but simulate accepts")])
def test_reduce_refuses_routes_that_disagree(monkeypatch, capsys, x, line):
    # The determinant and the simulation answer one question; a flipped
    # simulation is refused in one line that names both.
    simulate = rtm.simulate

    def flipped(machine, input_str, **kwargs):
        run = simulate(machine, input_str, **kwargs)
        return dataclasses.replace(run, accepted=not run.accepted)

    monkeypatch.setattr(rtm, "simulate", flipped)
    assert cli.main(["reduce", "--machine", "unary_counter", "--input", x]) == 1
    assert capsys.readouterr() == ("", f"gaplab: routes disagree: {line}\n")


def _lying(monkeypatch, owner, name: str, lie) -> None:
    """Patch owner.name so that it answers ``lie`` of what it would have answered."""
    honest = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: lie(honest(*args, **kwargs)))


@pytest.mark.parametrize("x, line", [("11", "det -1 but simulate rejects"),
                                     ("1", "det 0 but simulate accepts")])
def test_verify_refuses_a_simulation_that_lies(monkeypatch, capsys, x, line):
    _lying(monkeypatch, rtm, "simulate", lambda run: dataclasses.replace(run, accepted=not run.accepted))
    assert cli.main(["verify", "--machine", "unary_counter", "--input", x]) == 1
    assert capsys.readouterr() == ("", f"gaplab: routes disagree: {line}\n")


@pytest.mark.parametrize("x, line", [("11", "det 0 but simulate accepts"),
                                     ("1", "det 1 but simulate rejects")])
def test_verify_refuses_a_determinant_that_lies(monkeypatch, capsys, x, line):
    _lying(monkeypatch, spectral, "det_exact", lambda det: int(det == 0))
    assert cli.main(["verify", "--machine", "unary_counter", "--input", x]) == 1
    assert capsys.readouterr() == ("", f"gaplab: routes disagree: {line}\n")


@pytest.mark.parametrize("x, line", [("11", "decision YES but simulate accepts"),
                                     ("1", "decision NO but simulate rejects")])
def test_verify_refuses_a_decision_that_lies(monkeypatch, capsys, x, line):
    flip = {"YES": "NO", "NO": "YES"}
    _lying(monkeypatch, protocols, "decide_gapped",
           lambda result: dataclasses.replace(result, decision=flip[result.decision]))
    assert cli.main(["verify", "--machine", "unary_counter", "--input", x]) == 1
    assert capsys.readouterr() == ("", f"gaplab: routes disagree: {line}\n")


@pytest.mark.parametrize("x, lam, verdict", [("11", 0.0, "accepts"), ("1", 1.0, "rejects"),
                                             ("11", 2.0**-60, "accepts"), ("1", 2.0**-60, "rejects")])
def test_verify_refuses_a_lambda_min_off_the_floor_dichotomy(monkeypatch, capsys, x, lam, verdict):
    # lambda_min must be at least min_eigenvalue_bound(dim) when the machine
    # accepts and exactly 0 when it rejects; a value strictly between the two
    # disagrees with either answer.
    _lying(monkeypatch, spectral, "min_eigenvalue_sparse", lambda _: lam)
    assert cli.main(["verify", "--machine", "unary_counter", "--input", x]) == 1
    assert capsys.readouterr() == ("", f"gaplab: routes disagree: lambda_min {lam} but simulate {verdict}\n")
