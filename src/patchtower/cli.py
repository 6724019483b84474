"""Command-line surface: scenario generation, verifiers, and reports.

Exit codes: 0 verified/success, 1 mathematical violation detected,
2 invalid input (a usage error on the command line included), 3 search
failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import serialize
from .complexes import minimize
from .errors import (
    InvalidInput,
    MathViolation,
    PatchTowerError,
    SearchFailure,
)
from .graded import module_invariants, verify_height_amplitude
from .patcher import certify, patch, validate_hypotheses
from .scenarios import PERTURBATIONS, ScenarioParams, gen_scenario

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_SEARCH = 3


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInput(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON in {path}: {exc}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, bytes that are not UTF-8, nesting past the recursion
        # limit or an integer past the digit limit of int()
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _emit(obj, text: str | None, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(serialize.canonical_dumps(obj))
    else:
        sys.stdout.write((text if text is not None else serialize.canonical_dumps(obj)))
        if text is not None and not text.endswith("\n"):
            sys.stdout.write("\n")


def _error_obj(exc: PatchTowerError) -> dict:
    return {"error": type(exc).__name__, "detail": str(exc)}


def cmd_verify_ha(args) -> int:
    cx = serialize.complex_from_obj(_load_json(args.complex))
    report = verify_height_amplitude(cx)
    _emit(report.to_obj(), report.to_text(), args.format)
    return EXIT_OK if report.all_pass else EXIT_VIOLATION


def cmd_invariants(args) -> int:
    mod = serialize.graded_module_from_obj(_load_json(args.module))
    inv = module_invariants(mod)
    obj = {k: (list(v) if isinstance(v, tuple) else v) for k, v in inv.items()}
    text = "\n".join(f"{k:9s}: {v}" for k, v in obj.items())
    _emit(obj, text, args.format)
    return EXIT_OK


def cmd_minimize(args) -> int:
    cx = serialize.complex_from_obj(_load_json(args.complex))
    out = minimize(cx)
    _emit(serialize.complex_to_obj(out), None, args.format)
    return EXIT_OK


def cmd_patch(args) -> int:
    tower = serialize.tower_from_obj(_load_json(args.tower))
    precision = args.precision
    if precision is None:
        # with no levels, patch refuses the tower as InsufficientTower
        precision = min(tower.base_precision, max((lev.level for lev in tower.levels), default=1))
    report = validate_hypotheses(tower)
    if not report.ok:
        first = report.failures[0]
        obj = {
            "error": first["error_name"],
            "detail": first["detail"],
            "failures": [
                {k: f[k] for k in ("level", "hypothesis", "error_name", "detail")}
                for f in report.failures
            ],
        }
        _emit(obj, f"{first['error_name']}: {first['detail']}", args.format)
        return EXIT_VIOLATION
    limit = patch(tower, precision)
    cert = certify(tower, limit)
    obj = serialize.certificate_to_obj(cert)
    text = "\n".join(
        [
            f"certified  : rank {cert.rank} at precision {cert.precision}",
            f"chain      : levels {cert.chain}",
            f"rank profile: {cert.tau}",
        ]
        + [f"check {k:28s}: {'pass' if v else 'FAIL'}" for k, v in sorted(cert.checks.items())]
    )
    _emit(obj, text, args.format)
    return EXIT_OK


def cmd_gen(args) -> int:
    params = ScenarioParams(
        p=args.p,
        q=args.q,
        r=args.r,
        d=args.d,
        precisions=tuple(args.precisions) if args.precisions else (),
        seed=args.seed,
        rank=args.rank,
        rinf_degree=args.rinf_degree,
    )
    tower, sidecar, _ = gen_scenario(params, perturbation=args.perturbation)
    out_dir = Path(args.out_dir)
    tower_path = out_dir / "tower.json"
    sidecar_path = out_dir / "expected.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        tower_path.write_text(serialize.canonical_dumps(serialize.tower_to_obj(tower)))
        sidecar_path.write_text(serialize.canonical_dumps(sidecar))
    except OSError as exc:
        raise InvalidInput(f"cannot write to {out_dir}: {exc}") from exc
    _emit(
        {"tower": str(tower_path), "expected": str(sidecar_path)},
        f"wrote {tower_path} and {sidecar_path}",
        args.format,
    )
    return EXIT_OK


# The command table.  Each command: its handler, its one positional (or
# None), its help line and its options.  An option gives its type, default,
# nargs ("*" takes every following non-option token, possibly none),
# choices and whether it is required.
FORMAT = {"--format": {"choices": ("json", "text"), "default": "text"}}
COMMANDS = {
    "gen": (cmd_gen, None, "generate a scenario tower with its oracle sidecar", {
        **FORMAT,
        "--p": {"type": int, "default": 3},
        "--q": {"type": int, "required": True},
        "--r": {"type": int, "required": True},
        "--d": {"type": int},
        "--precisions": {"type": int, "nargs": "*"},
        "--seed": {"type": int, "default": 0},
        "--rank": {"type": int, "default": 1},
        "--rinf-degree": {"type": int, "default": 2},
        "--perturbation": {"choices": PERTURBATIONS},
        "--out-dir": {"required": True},
    }),
    "verify-ha": (cmd_verify_ha, "complex", "height-amplitude checks on a graded complex file", FORMAT),
    "invariants": (cmd_invariants, "module", "homological invariants of a graded module file", FORMAT),
    "minimize": (cmd_minimize, "complex", "canonical minimal form of a complex file", FORMAT),
    "patch": (cmd_patch, "tower", "validate, patch and certify a tower file", {**FORMAT, "--precision": {"type": int}}),
}
HELP = ("-h", "--help")


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _usage(cmd: str | None) -> str:
    if cmd is None:
        return "patchtower [-h] {" + ",".join(COMMANDS) + "} ..."
    _, positional, _, options = COMMANDS[cmd]
    words = [f"patchtower {cmd} [-h]"]
    for name, spec in options.items():
        meta = "{" + ",".join(spec["choices"]) + "}" if "choices" in spec else _dest(name).upper()
        word = f"{name} [{meta} ...]" if spec.get("nargs") == "*" else f"{name} {meta}"
        words.append(word if spec.get("required") else f"[{word}]")
    return " ".join(words + ([positional] if positional else []))


def _help(cmd: str | None) -> str:
    if cmd is None:
        lines = ["exact verification of minimal complexes, graded invariants, and patching towers", "", "commands:"]
        lines += [f"  {name:12}{entry[2]}" for name, entry in COMMANDS.items()]
    else:
        lines = [COMMANDS[cmd][2]]
    return f"usage: {_usage(cmd)}\n\n" + "\n".join(lines) + "\n"


def _fail(cmd: str | None, message: str):
    """A usage error: usage and message on stderr, exit status 2."""
    prog = "patchtower" if cmd is None else f"patchtower {cmd}"
    sys.stderr.write(f"usage: {_usage(cmd)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _lookup(token: str, names, cmd: str | None):
    """What ``token`` names among the option ``names``: None for a
    positional, (name, inline value or None) for an option and (None,
    None) for an unknown option.  An exact name wins over a unique prefix;
    a negative number and a dashed token with a space are positionals."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token[1] != "-":
        # a single-dash token can only be -h with more glued on
        if token[:2] == "-h":
            return "-h", token[2:]
    else:
        hits = [name for name in names if name.startswith(head)]
        if len(hits) > 1:
            _fail(cmd, f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    # -\d+ or -\d*.\d+, where \d is any decimal digit and may end before one newline
    number = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = number.partition(".")
    if number.isdecimal() or (dot and frac.isdecimal() and (not whole or whole.isdecimal())):
        return None
    return None if " " in token else (None, None)


def _help_or_fail(cmd: str | None, name: str, value: str | None):
    """-h or --help; a value glued to -h must be more h's."""
    if value is not None and (name != "-h" or not value or value.strip("h")):
        _fail(cmd, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(cmd))
    raise SystemExit(0)


def _convert(cmd: str, name: str, spec: dict, token: str):
    convert = spec.get("type", str)
    try:
        value = convert(token)
    except ValueError:
        _fail(cmd, f"argument {name}: invalid {convert.__name__} value: {token!r}")
    choices = spec.get("choices")
    if choices is not None and value not in choices:
        _fail(cmd, f"argument {name}: invalid choice: {value!r} (choose from {', '.join(choices)})")
    return value


def _parse_command(cmd: str, argv: list[str]) -> SimpleNamespace:
    func, positional, _, options = COMMANDS[cmd]
    names = (*HELP, *options)
    args = {"command": cmd, **{_dest(name): spec.get("default") for name, spec in options.items()}}
    if positional:
        args[positional] = None
    # every token up to a "--" is looked up before any is consumed, so an
    # ambiguous prefix fails even after -h; after "--" all are positional
    hits = []
    for token in argv:
        if token == "--":
            break
        hits.append(_lookup(token, names, cmd))
    marker = len(hits)
    pending, seen, extras = positional, set(), []
    i = 0
    while i < len(argv):
        if i == marker:
            # "--" goes with the positional that follows it, if one is due
            if pending and i + 1 < len(argv):
                args[pending], pending, i = argv[i + 1], None, i + 2
            extras += argv[i:]
            break
        hit = hits[i] if i < marker else None
        if hit is None and pending:
            args[pending], pending = argv[i], None
            # a "--" right after the positional goes with it
            i += 1 + (i + 1 == marker < len(argv))
            continue
        if hit is None or hit[0] is None:
            extras.append(argv[i])
            i += 1
            continue
        name, value = hit
        if name in HELP:
            _help_or_fail(cmd, name, value)
        spec = options[name]
        if value is not None:
            # an inline "--" is dropped like a separator, leaving no value: []
            tokens, i = ([] if value == "--" else [value]), i + 1
        else:
            stop = i + 1
            while stop < marker and hits[stop] is None:
                stop += 1
            if spec.get("nargs") != "*":
                if stop == i + 1:
                    _fail(cmd, f"argument {name}: expected one argument")
                stop = i + 2
            tokens, i = argv[i + 1:stop], stop
        values = [_convert(cmd, name, spec, token) for token in tokens]
        args[_dest(name)] = values if spec.get("nargs") == "*" or not values else values[0]
        seen.add(name)
    # an inline "--" leaves a one-value option no value, unless a later
    # use of the option gives it one
    for name, spec in options.items():
        if spec.get("nargs") != "*" and args[_dest(name)] == []:
            _fail(cmd, f"argument {name}: expected one argument")
    missing = [name for name, spec in options.items() if spec.get("required") and name not in seen]
    if pending:
        missing.append(pending)
    if missing:
        _fail(cmd, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(func=func, **args)


def parse_args(argv=None) -> SimpleNamespace:
    """Parse a command line against ``COMMANDS``: the command first, then
    options by full name, unique prefix or ``--name=value`` and the
    positional.  A usage error exits 2 with a message on stderr, and
    ``-h``/``--help`` prints help and exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    unknown = []
    for i, token in enumerate(argv):
        if token == "--":
            break
        hit = _lookup(token, HELP, None)
        if hit is None:
            if token not in COMMANDS:
                _fail(None, f"argument command: invalid choice: {token!r} (choose from {', '.join(COMMANDS)})")
            args = _parse_command(token, argv[i + 1:])
            if unknown:
                _fail(None, f"unrecognized arguments: {' '.join(unknown)}")
            return args
        if hit[0] is None:
            unknown.append(token)
        else:
            _help_or_fail(None, *hit)
    _fail(None, "the following arguments are required: command")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except MathViolation as exc:
        _emit(_error_obj(exc), f"{type(exc).__name__}: {exc}", args.format)
        return EXIT_VIOLATION
    except SearchFailure as exc:
        _emit(_error_obj(exc), f"{type(exc).__name__}: {exc}", args.format)
        return EXIT_SEARCH
    except PatchTowerError as exc:
        _emit(_error_obj(exc), f"{type(exc).__name__}: {exc}", args.format)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
