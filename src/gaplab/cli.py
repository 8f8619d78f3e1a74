"""Batch experiment driver over the library modules.

Every subcommand is a thin composition of library calls; the only work
done here is argument handling and report formatting, which a test
enforces by comparing CLI output against direct library results.

Reports are deterministic byte-for-byte for a fixed configuration.
CSV carries floats at 17 significant digits; JSON uses the shortest
round-tripping float form.  Config precedence is flags, then the
optional --config JSON file, then built-in defaults; a config key is
checked as its flag would be, so an unknown key, a value of another
JSON type or one outside the flag's choices is a usage error.

Exit codes: 0 success, 1 contract/resource/configuration violation or
failed allocation (one line on stderr), 2 usage, 3 promise violation
reported by an amplification run (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import protocols, rtm, sparse_oracle, spectral
from .errors import ConfigurationError, ContractError, ResourceLimitError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PROMISE = 3

DEFAULTS: dict[str, dict] = {
    "spectrum": {"kind": "path", "index_form": "odd", "format": "csv"},
    "det": {"format": "json"},
    "reduce": {"format": "json"},
    "verify": {"format": "json"},
    "amplify": {
        "format": "json",
        "trials": 3,
        "completeness": 0.9,
        "soundness": 0.1,
        "witness": "best",
    },
    "kitaev": {
        "format": "json",
        "verifier": "rotation",
        "p": 0.9,
        "completeness": 0.9,
        "soundness": 0.1,
    },
    "energy": {"format": "json", "bits": 30},
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_report(results, fmt: str) -> str:
    """Render a row list (or a single row) as headed CSV or as JSON."""
    if results is None or results == [] or results == {}:
        raise ValueError("nothing to report")
    if fmt == "json":
        return json.dumps(results, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = results if isinstance(results, list) else [results]
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for r in rows:
        if list(r.keys()) != header:
            raise ValueError("rows disagree on columns")
        lines.append(",".join(_fmt(r[k]) for k in header))
    return "\n".join(lines) + "\n"


def _machine_and_input(args) -> tuple[rtm.ReversibleTM, str]:
    """--machine, --input and --space, read as the keys of an "rtm" instance file."""
    spec = {"machine": args.machine, "input": args.input}
    if args.space is not None:
        spec["space"] = args.space
    return rtm.reduction_input(spec, os.getcwd())


def _with_seed(args, payload: dict) -> dict:
    if getattr(args, "seed", None) is not None:
        return {"seed": args.seed, **payload}
    return payload


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(args) -> tuple[list[dict], int]:
    report = spectral.spectrum_report(args.kind, args.ell, index_form=args.index_form)
    rows = [
        {
            "ell": args.ell,
            "k": k,
            "closed_form": closed,
            "eigensolver": eig,
            "abs_err": err,
        }
        for k, closed, eig, err in report.rows()
    ]
    return rows, EXIT_OK


def _cmd_det(args) -> tuple[dict, int]:
    matrix = rtm.load_instance(args.instance)
    value = spectral.det_exact(matrix)
    # det_exact picks its route from the matrix, so "method" is a constant; the
    # field keeps the report's shape stable.
    payload = _with_seed(args, {"dim": matrix.dim, "det": value, "method": "auto"})
    return payload, EXIT_OK


def _routes_agree(machine: rtm.ReversibleTM, x: str, routes: dict[str, tuple[object, bool | None]]) -> bool:
    """Whether ``simulate`` accepts; the first route whose (value, accepts) says otherwise is refused in one line.

    accepts is None for a value that neither accepts nor rejects, which disagrees either way.
    """
    accepted = rtm.simulate(machine, x).accepted
    for name, (value, accepts) in routes.items():
        if accepts != accepted:
            raise ContractError(f"routes disagree: {name} {value} but simulate {'accepts' if accepted else 'rejects'}")
    return accepted


def _cmd_reduce(args) -> tuple[dict, int]:
    machine, x = _machine_and_input(args)
    instance = rtm.reduce_to_gapped(machine, x)
    det = spectral.det_exact(instance.adjacency)
    accepted = _routes_agree(machine, x, {"det": (det, det != 0)})
    payload = _with_seed(
        args,
        {
            "machine": machine.name or args.machine,
            "input": args.input,
            "space": machine.space,
            "dim": instance.dim,
            "gap_exponent": instance.g,
            "det": det,
            "accepts": accepted,
        },
    )
    return payload, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    if args.machine is not None:
        machine, x = _machine_and_input(args)
        instance = rtm.reduce_to_gapped(machine, x)
        matrix = instance.gram
        g = args.gap_exponent if args.gap_exponent is not None else instance.g
        source = machine.name or args.machine
    else:
        matrix, certified_g = rtm.load_gapped_instance(args.instance)
        g = args.gap_exponent if args.gap_exponent is not None else certified_g
        if g is None:
            raise ConfigurationError(
                "verify --instance requires --gap-exponent unless the file "
                "describes a machine reduction"
            )
        source = args.instance
    result = protocols.decide_gapped(matrix, g)
    if args.machine is not None:  # the chain table holds det and lambda_min: no further pass
        det = spectral.det_exact(instance.adjacency)
        lam = spectral.min_eigenvalue_sparse(matrix)
        # lambda_min accepts at or above the floor, rejects at exactly 0, and does neither between.
        verdict = lam >= spectral.min_eigenvalue_bound(instance.dim) or (None if lam else False)
        _routes_agree(machine, x, {"det": (det, det != 0),
                                   "decision": (result.decision, result.decision == "NO"),
                                   "lambda_min": (lam, verdict)})
    payload = _with_seed(
        args,
        {
            "instance": source,
            "gap_exponent": g,
            "decision": result.decision,
            "acceptance": result.acceptance,
            "rejection": result.rejection,
            "completeness": result.completeness,
            "soundness": result.soundness,
            "separation": result.separation,
            "epsilon": result.epsilon,
            "evo_time": result.evo_time,
            "taylor_order": result.taylor_order,
        },
    )
    return payload, EXIT_OK


def _cmd_amplify(args) -> tuple[dict, int]:
    verifier = protocols.rotation_verifier(args.p, args.completeness, args.soundness)
    params = protocols.AmplificationParams.from_promise(
        args.completeness, args.soundness, args.trials, args.precision_bits
    )
    op = protocols.accept_operator(verifier)
    _, vecs = op.eigensystem()
    column = -1 if args.witness == "best" else 0
    outcome = protocols.nwz_amplify(verifier, params, vecs[:, column])
    payload = _with_seed(
        args,
        {
            "p": args.p,
            "completeness": args.completeness,
            "soundness": args.soundness,
            "trials": params.trials_r,
            "precision_bits": params.precision_bits,
            "register_bits": params.register_bits,
            "yes_cut": params.yes_cut,
            "no_cut": params.no_cut,
            "witness": args.witness,
            "decision": outcome.decision,
            "probability": outcome.probability,
            "p_yes": outcome.p_yes,
            "p_no": outcome.p_no,
            "p_violation": outcome.p_violation,
            "per_trial_yes": outcome.per_trial_yes,
            "per_trial_no": outcome.per_trial_no,
        },
    )
    code = EXIT_PROMISE if outcome.decision == "PROMISE_VIOLATED" else EXIT_OK
    return payload, code


def _cmd_kitaev(args) -> tuple[dict, int]:
    if args.verifier == "rotation":
        verifier = protocols.rotation_verifier(args.p, args.completeness, args.soundness)
    else:
        verifier, _ = protocols.rule_parameterized_verifier()
    instance = protocols.kitaev_hamiltonian(verifier)
    lam = protocols.ground_energy(instance)
    if args.format == "json":
        payload = instance.terms().to_dict()
        payload["lambda_min"] = lam
        payload = _with_seed(args, payload)
    else:
        payload = _with_seed(
            args,
            {
                "qubits": instance.num_qubits,
                "locality": instance.locality,
                "terms": instance.term_count,
                "a": instance.threshold_a,
                "b": instance.threshold_b,
                "lambda_min": lam,
            },
        )
    return payload, EXIT_OK


def _cmd_energy(args) -> tuple[dict, int]:
    with open(args.instance, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    g = None
    if isinstance(data, dict) and "terms" in data:
        instance = protocols.PreciseLHInstance.from_dict(data).materialize()
        truth = protocols.ground_energy(instance)
    else:  # read from the path, so a machine path resolves against the file's directory
        # A machine reduction is read as its Gram, as `verify --instance` reads it,
        # and checked against its closed-form lambda_min instead of a dense solve;
        # the bisection reads the oracle's own rows either way.
        instance, g = rtm.load_gapped_instance(args.instance)
        if g is None:
            truth = protocols.ground_energy(sparse_oracle.materialize(instance))
        else:
            truth = spectral.min_eigenvalue_sparse(instance)
    estimate = protocols.binary_search_energy(instance, args.bits)
    abs_err = abs(estimate - truth)
    if g is not None and abs_err > 2.0**-args.bits:  # the bisection's bracket is 2^-bits wide
        raise ContractError(f"routes disagree: bisection {estimate!r} but closed form {truth!r},"
                            f" {abs_err:.3g} apart > 2^-{args.bits}")
    payload = _with_seed(
        args,
        {
            "instance": args.instance,
            "bits": args.bits,
            "estimate": estimate,
            "eigensolver": truth,
            "abs_err": abs_err,
        },
    )
    return payload, EXIT_OK


HANDLERS = {
    "spectrum": _cmd_spectrum,
    "det": _cmd_det,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "amplify": _cmd_amplify,
    "kitaev": _cmd_kitaev,
    "energy": _cmd_energy,
}


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Experiment driver for gapped-matrix reductions, spectra, "
        "and verification protocols.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json"], default=None)
    common.add_argument("--output", default=None, help="write the report here instead of stdout")
    common.add_argument("--config", default=None, help="JSON file supplying unset flags")
    common.add_argument("--seed", type=int, default=None, help="recorded in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="closed form vs eigensolver")
    p.add_argument("--kind", choices=["path", "cycle"], default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--index-form", dest="index_form", choices=["odd", "even"], default=None)

    p = sub.add_parser("det", parents=[common], help="exact determinant of an instance")
    p.add_argument("--instance", default=None, help="instance JSON file")

    p = sub.add_parser("reduce", parents=[common], help="machine + input -> gapped instance")
    p.add_argument("--machine", default=None, help="corpus name or machine JSON path")
    p.add_argument("--input", default=None)
    p.add_argument("--space", type=int, default=None)

    p = sub.add_parser("verify", parents=[common], help="decide a gapped instance")
    p.add_argument("--machine", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--space", type=int, default=None)
    p.add_argument("--instance", default=None, help="symmetric instance JSON file")
    p.add_argument("--gap-exponent", dest="gap_exponent", type=int, default=None)

    p = sub.add_parser("amplify", parents=[common], help="median phase-estimation decision")
    p.add_argument("--p", type=float, default=None, help="true acceptance of the instance")
    p.add_argument("--completeness", type=float, default=None)
    p.add_argument("--soundness", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--precision-bits", dest="precision_bits", type=int, default=None)
    p.add_argument("--witness", choices=["best", "worst"], default=None)

    p = sub.add_parser("kitaev", parents=[common], help="emit a 5-local clock instance")
    p.add_argument("--verifier", choices=["rotation", "rule"], default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--completeness", type=float, default=None)
    p.add_argument("--soundness", type=float, default=None)

    p = sub.add_parser("energy", parents=[common], help="bisection ground-energy estimate")
    p.add_argument("--instance", default=None, help="matrix or clock-instance JSON file")
    p.add_argument("--bits", type=int, default=None)

    return parser


def _command_flags(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The flags a config file may set for ``command``, by destination."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest: a
        for a in sub.choices[command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }


def _config_refusal(flags: dict[str, argparse.Action], command: str, key: str, value):
    """Why a config entry is refused, or None when its flag would take the value.

    The key must name a flag of the command, by its destination
    (``index_form`` for --index-form).  The JSON type must be the
    flag's: an integer for an int flag, a number a float can hold for a
    float flag, a string otherwise, and never a boolean.  A flag with choices takes
    only those.
    """
    if key not in flags:
        return f"config key {key!r} sets no flag of {command}"
    action = flags[key]
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        name = {int: "an integer", float: "a number"}.get(kind, "a string")
        return f"config key {key!r} must be {name}, got {value!r}"
    if kind is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return f"config key {key!r} must be a number a float can hold, got {len(str(abs(value)))} digits"
    if action.choices is not None and value not in action.choices:
        allowed = ", ".join(map(repr, action.choices))
        return f"config key {key!r} must be one of {allowed}, got {value!r}"
    return None


def _resolve(args, parser: argparse.ArgumentParser) -> None:
    """Apply config-file values, then defaults, then check required flags.

    ``verify`` takes a machine (--machine, --input, --space) or an
    --instance file, and refuses both, from flags or config alike.  A
    config file that cannot be read, is not JSON or is not an object
    raises ConfigurationError or OSError.  A key that sets no flag of
    the command, or a value its flag would not accept, ends the run
    with one line and exit code 2, as a bad flag does.
    """
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:
                raise ConfigurationError(f"config {args.config} is not JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigurationError(
                f"config {args.config} must hold a JSON object, got {type(cfg).__name__}"
            )
        flags = _command_flags(parser, args.command)
        for key, value in cfg.items():
            refusal = _config_refusal(flags, args.command, key, value)
            if refusal:
                parser.exit(EXIT_USAGE, f"gaplab: {refusal}\n")
            if getattr(args, key) is None:
                setattr(args, key, (flags[key].type or str)(value))
    for key, value in DEFAULTS[args.command].items():
        if getattr(args, key, "absent") is None:
            setattr(args, key, value)

    def require(name: str) -> None:
        if getattr(args, name, None) is None:
            parser.error(f"{args.command} requires --{name.replace('_', '-')}")

    if args.command == "spectrum":
        require("ell")
    elif args.command in ("det", "energy"):
        require("instance")
    elif args.command == "reduce":
        require("machine")
        require("input")
    elif args.command == "verify":
        if args.machine is None and args.instance is None:
            parser.error("verify requires --machine/--input or --instance")
        if args.instance is None:
            require("input")
        else:
            clash = [f"--{name}" for name in ("machine", "input", "space") if getattr(args, name) is not None]
            if clash:
                parser.error(f"verify --instance takes no {', '.join(clash)}")
    elif args.command == "amplify":
        require("p")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args, parser)
        payload, code = HANDLERS[args.command](args)
        digits = sys.get_int_max_str_digits()  # a determinant may pass the default 4,300
        sys.set_int_max_str_digits(0)
        try:
            text = emit_report(payload, args.format)
        finally:
            sys.set_int_max_str_digits(digits)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, ResourceLimitError, MemoryError, OSError) as exc:
        print(f"gaplab: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
