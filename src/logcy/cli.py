"""Command-line interface over stable JSON file formats.

Every subcommand is a thin adapter around the library: identical inputs
give byte-identical results.  Numeric output is exact: integers stay
integers and rationals are printed as "p/q" strings; no floats appear.

Exit codes: 0 on success (including negative but well-defined answers),
1 for malformed input, 2 for a named precondition failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .classify import classification_report, exact_on_boundary
from .divisor import (
    InvalidDivisor,
    PreconditionError,
    SphereCycle,
    Torus,
    divisor_from_json,
    divisor_to_obj,
)
from .duality import dual_cycle, elliptic_dual
from .enumeration import Bounds, enumerate_anticanonical, write_jsonl
from .homology import check_constraints, pair_from_json, validate_pair
from .monodromy import bundle_type, monodromy
from .moves import moves_to_obj, toric_equivalent, toric_minimal_reduce

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidDivisor(f"cannot read {path}: {exc}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj))


def _parse_areas(text: str) -> list[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",") if part != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidDivisor(f"malformed area list {text!r}: {exc}") from exc


def _parse_param_range(text: str) -> tuple[int, int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return (int(lo), int(hi))
        n = int(text)
        return (-abs(n), abs(n))
    except ValueError as exc:
        raise InvalidDivisor(f"malformed parameter range {text!r}") from exc


def _cmd_classify(args) -> int:
    d = divisor_from_json(_read(args.file))
    report = classification_report(d)
    _emit(report)
    if report["contact"] == "concave":
        print("note: concave neighbourhoods exist after a local deformation "
              "of the symplectic form", file=sys.stderr)
    return 0


def _cmd_monodromy(args) -> int:
    d = divisor_from_json(_read(args.file))
    m = monodromy(d)
    _emit({"matrix": [list(row) for row in m.matrix()], "trace": m.trace,
           "bundle_type": bundle_type(m).value})
    return 0


def _cmd_dual(args) -> int:
    d = divisor_from_json(_read(args.file))
    dual = elliptic_dual(d) if isinstance(d, Torus) else dual_cycle(d)
    _emit(divisor_to_obj(dual))
    return 0


def _cmd_reduce(args) -> int:
    d = divisor_from_json(_read(args.file))
    if isinstance(d, Torus):
        _emit({"result": divisor_to_obj(d), "moves": []})
        return 0
    result, word = toric_minimal_reduce(d)
    _emit({"result": divisor_to_obj(result), "moves": moves_to_obj(word.moves)})
    return 0


def _cmd_equiv(args) -> int:
    a = divisor_from_json(_read(args.a))
    b = divisor_from_json(_read(args.b))
    if not isinstance(a, SphereCycle) or not isinstance(b, SphereCycle):
        raise PreconditionError("toric equivalence is defined for sphere cycles")
    word = toric_equivalent(
        a, b,
        max_length=args.max_length, min_entry=args.min_entry, max_steps=args.max_steps,
    )
    if word is None:
        _emit({"found": False, "path": None, "reason": "NotFoundWithinBounds"})
    else:
        _emit({"found": True, "path": moves_to_obj(word.moves)})
    return 0


def _cmd_enumerate(args) -> int:
    bounds = Bounds(
        max_length=args.max_length,
        min_entry=args.min_entry,
        max_moves=args.max_moves,
        param_range=_parse_param_range(args.param_range),
    )
    records = enumerate_anticanonical(bounds, workers=args.workers)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_jsonl(records, fh)
    else:
        write_jsonl(records, sys.stdout)
    return 0


def _cmd_check(args) -> int:
    pair = pair_from_json(_read(args.file))
    violations = validate_pair(pair)
    constraints = [
        {"rule": c.rule, "status": c.status, "detail": c.detail}
        for c in check_constraints(pair)
    ]
    _emit({"valid": not violations, "violations": list(violations), "constraints": constraints})
    return 0


def _cmd_solve_exact(args) -> int:
    d = divisor_from_json(_read(args.file))
    witness = exact_on_boundary(d, _parse_areas(args.areas))
    if witness is None:
        _emit({"solvable": False, "reason": "UNSOLVABLE"})
    else:
        _emit({"solvable": True, "z": [str(z) for z in witness]})
    return 0


def _cmd_graph(args) -> int:
    d = divisor_from_json(_read(args.file))
    lines = ["graph plumbing {"]
    if isinstance(d, Torus):
        lines.append(f'  c0 [label="{d.s}"];')
    else:
        k = len(d.seq)
        for i, s in enumerate(d.seq):
            lines.append(f'  c{i} [label="{s}"];')
        if k == 2:
            lines.append("  c0 -- c1;")
            lines.append("  c0 -- c1;")
        else:
            for i in range(k):
                lines.append(f"  c{i} -- c{(i + 1) % k};")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcy",
        description="Exact invariants, moves and enumeration for divisor cycles.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted and ignored; all algorithms are deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="inertia, determinant, trace and contact type")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("monodromy", help="boundary torus-bundle monodromy of a cycle")
    p.add_argument("file")
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("dual", help="dual cycle (or negated torus)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("reduce", help="toric minimal representative plus move word")
    p.add_argument("file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("equiv", help="bounded toric-equivalence search")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--min-entry", type=int, required=True)
    p.add_argument("--max-steps", type=int, required=True)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("enumerate", help="stream anti-canonical records as JSON lines")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--min-entry", type=int, required=True)
    p.add_argument("--max-moves", type=int, required=True)
    p.add_argument("--param-range", required=True,
                   help="N for [-N, N] or lo:hi")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1, help="accepted and ignored")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="validate a pair file and report constraints")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve-exact", help="witness for Q z = areas, or UNSOLVABLE")
    p.add_argument("file")
    p.add_argument("--areas", required=True, help="comma separated positive rationals")
    p.set_defaults(func=_cmd_solve_exact)

    p = sub.add_parser("graph", help="plumbing graph in DOT format")
    p.add_argument("file")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidDivisor as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        failed = getattr(exc, "failed", None)
        if failed is not None:
            payload["failed"] = failed
        _emit(payload)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
