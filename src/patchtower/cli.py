"""Command-line surface: scenario generation, verifiers, and reports.

Exit codes: 0 verified/success, 1 mathematical violation detected,
2 invalid input, 3 search failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchtower",
        description="exact verification of minimal complexes, graded invariants, and patching towers",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    g = add_parser("gen", help="generate a scenario tower with its oracle sidecar")
    g.add_argument("--p", type=int, default=3)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--d", type=int, default=None)
    g.add_argument("--precisions", type=int, nargs="*", default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--rank", type=int, default=1)
    g.add_argument("--rinf-degree", type=int, default=2)
    g.add_argument("--perturbation", choices=PERTURBATIONS, default=None)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(func=cmd_gen)

    v = add_parser("verify-ha", help="height-amplitude checks on a graded complex file")
    v.add_argument("complex")
    v.set_defaults(func=cmd_verify_ha)

    i = add_parser("invariants", help="homological invariants of a graded module file")
    i.add_argument("module")
    i.set_defaults(func=cmd_invariants)

    m = add_parser("minimize", help="canonical minimal form of a complex file")
    m.add_argument("complex")
    m.set_defaults(func=cmd_minimize)

    pt = add_parser("patch", help="validate, patch and certify a tower file")
    pt.add_argument("tower")
    pt.add_argument("--precision", type=int, default=None)
    pt.set_defaults(func=cmd_patch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
