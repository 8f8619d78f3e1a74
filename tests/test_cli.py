"""Command-line surface: formats, determinism, exit codes, thinness."""

import json
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gaplab import cli, protocols, rtm, spectral


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
    # adjacency is [[0, 1], [1, 0]], symmetric with least eigenvalue -1.
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
    assert payload["eigensolver"] == pytest.approx(-1.0, abs=1e-12)
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
    ],
)
def test_malformed_clock_instance_is_one_line_naming_the_key(tmp_path, capsys, spec, key):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(spec))
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


def test_verify_matrix_instance_needs_a_gap_exponent(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": 2, "rows": [[2, 1], [1, 1]]}))
    code = cli.main(["verify", "--instance", str(path)])
    assert code == 1
    assert "requires --gap-exponent" in capsys.readouterr().err


def test_reduce_payload_matches_library(capsys):
    code, out = run_cli(capsys, "reduce", "--machine", "unary_counter",
                        "--input", "11")
    assert code == 0
    payload = json.loads(out)
    machine = rtm.corpus_machine("unary_counter")
    instance = rtm.reduce_to_gapped(machine, "11")
    assert payload["dim"] == instance.dim
    assert payload["gap_exponent"] == instance.g
    assert payload["det"] == spectral.det_exact(instance.adjacency)
    assert payload["accepts"] is True


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
    # branches of four amplitudes (4 GB).  The kernel sums run in blocks.
    c, s = 0.5 + 2.0**-21, 0.5 - 2.0**-21
    for p, want in ((c, "YES"), (s, "NO")):
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, "amplify", "--p", repr(p),
                                "--completeness", repr(c), "--soundness", repr(s))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        payload = json.loads(out)
        assert payload["register_bits"] == 26
        assert payload["decision"] == want
        assert payload["probability"] > 0.999
        assert peak < 32e6


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
    **{
        f"det_{method}": ["det", "--instance", "triplets.json", "--method", method]
        for method in ("auto", "bareiss", "bareiss_sparse", "cycle_cover", "permutation")
    },
    **{
        f"reduce_{machine}_{x}": ["reduce", "--machine", machine, "--input", x]
        for machine, x in (
            ("unary_counter", "11"),
            ("unary_counter", "1"),
            ("binary_nonmax", "#io"),
            ("binary_nonmax", "#ii"),
            ("first_last_match", "aa"),
            ("first_last_match", "ab"),
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    code, out = run_cli(capsys, *GOLDEN_CASES[name])
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{name}.out").read_bytes()
