"""Command-line front end.

Exit codes: 0 success / all checks pass; 1 certified non-existence or a
failed check; 2 input or size-limit errors; 3 counterexample construction
not applicable (trivial or prime-order group).
"""

from __future__ import annotations

import argparse
import functools
from pathlib import Path

from .errors import GroupMatchError, NotApplicable, ParseError, SizeLimit
from .groups import GroupTable, LatticeGroup, load_group_file, parse_group_spec
from .matching import Matching, find_matching
from .reports import (
    MACHINE_SCHEMA,
    element_json,
    elements_json,
    format_elements,
    machine_json,
    render_check,
    render_matching,
    render_violator,
)
from .subsets import parse_subset_literal
from .theorems import (
    check_automatching,
    check_lattice_matching,
    check_matching_property,
    construct_counterexample,
    sweep_corollary,
    sweep_hall,
    sweep_kemperman,
    sweep_olson,
)

# Every verify check in report order: the name of its theorems function, the
# keyword --cap-order sets (None: no group-order cap) and whether it takes --seed.
CHECKS = {
    "kemperman": ("sweep_kemperman", None, True),
    "corollary": ("sweep_corollary", "order_cap", False),
    "olson": ("sweep_olson", "subgroup_cap", True),
    "automatching": ("check_automatching", "order_cap", False),
    "matching-property": ("check_matching_property", "order_cap", True),
    "hall": ("sweep_hall", None, True),
}
CAPPED_CHECKS = tuple(name for name, (_, cap_keyword, _) in CHECKS.items() if cap_keyword)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupmatch",
        description="Matchings between finite subsets of groups, with theorem checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="text (human) or machine (canonical JSON)")

    p = sub.add_parser("match", help="find a matching from A to B or certify none exists")
    p.add_argument("group", help="group spec (C4, D3, Q8, C2xC4, Z^2) or a Cayley-table file")
    p.add_argument("A", help="subset literal, e.g. {0,2} or {(0,0),(1,2)}")
    p.add_argument("B", help="subset literal")
    add_format(p)

    p = sub.add_parser("verify", help="run theorem checks against a group")
    p.add_argument("group")
    p.add_argument("--checks", default="all",
                   help="comma-separated subset of %s or 'all'" % ",".join(CHECKS))
    p.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")
    p.add_argument("--jobs", type=int, default=1,
                   help="only 1 is accepted: every check runs in one process")
    p.add_argument("--cap-order", type=int, default=None,
                   help="override the group-order cap of %s; an error for any other check"
                   % ", ".join(CAPPED_CHECKS))
    add_format(p)

    p = sub.add_parser("counterexample",
                       help="construct an unmatchable pair for a composite-order group")
    p.add_argument("group")
    add_format(p)

    p = sub.add_parser("lattice", help="randomized matching check on Z^d")
    p.add_argument("-d", "--dimension", type=int, default=1)
    p.add_argument("-t", "--trials", type=int, default=1000)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--bound", type=int, default=10, help="coordinate bound")
    p.add_argument("--seed", type=int, default=0)
    add_format(p)

    return parser


def _resolve_group(spec: str):
    try:
        return parse_group_spec(spec)
    except ParseError:
        path = Path(spec)
        if path.exists():
            return load_group_file(path)
        raise


def _group_doc(group) -> dict:
    if isinstance(group, LatticeGroup):
        return {"group": group.name, "order": None}
    return {"group": group.name or f"order-{group.n}", "order": group.n}


def _emit_error(exc: Exception, command: str, machine: bool) -> None:
    if machine:
        doc = {"schema": MACHINE_SCHEMA, "command": command,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        print(machine_json(doc), end="")
    else:
        print(f"error: {exc}")


def _cmd_match(args) -> int:
    group = _resolve_group(args.group)
    A = parse_subset_literal(args.A, group)
    B = parse_subset_literal(args.B, group)
    result = find_matching(A, B)
    matched = isinstance(result, Matching)
    if args.format == "machine":
        doc = {"schema": MACHINE_SCHEMA, "command": "match", **_group_doc(group),
               "A": elements_json(A), "B": elements_json(B),
               "result": "matching" if matched else "violator"}
        if matched:
            doc["matching"] = [[element_json(a), element_json(b)] for a, b in result.pairs]
        else:
            doc["violator"] = {"S": elements_json(result.subset),
                               "neighborhood": elements_json(result.neighborhood),
                               "deficiency": result.deficiency}
        print(machine_json(doc), end="")
    else:
        print(f"group: {group.describe()}")
        print(f"A = {format_elements(group, A.elements)}")
        print(f"B = {format_elements(group, B.elements)}")
        lines = render_matching(group, result) if matched else render_violator(group, result)
        print("\n".join(lines))
    return 0 if matched else 1


def _run_check(name: str, group: GroupTable, seed: int, cap: int | None):
    function, cap_keyword, seeded = CHECKS[name]
    kwargs = {"seed": seed} if seeded else {}
    if cap is not None:
        kwargs[cap_keyword] = cap
    # Resolved at call time, so a wrapper swapped into this module is the one called.
    return globals()[function](group, **kwargs)


def _cmd_verify(args) -> int:
    if args.jobs != 1:
        raise ValueError(f"--jobs must be 1, got {args.jobs}: the process pool was removed "
                         "and every check runs in one process")
    group = _resolve_group(args.group)
    if not isinstance(group, GroupTable):
        raise ValueError("verify runs on finite groups; use the lattice command for Z^d")
    if args.checks.strip() == "all":
        selected = tuple(CHECKS)
    else:
        tokens = [t.strip() for t in args.checks.split(",") if t.strip()]
        if not tokens:
            raise ValueError(f"--checks names no check: {args.checks!r}")
        unknown = [t for t in tokens if t not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        selected = tuple(c for c in CHECKS if c in tokens)
    uncapped = [c for c in selected if c not in CAPPED_CHECKS]
    if args.cap_order is not None and uncapped:
        raise ValueError(f"--cap-order does not apply to {', '.join(uncapped)}: "
                         f"only {', '.join(CAPPED_CHECKS)} have a group-order cap")
    reports = []
    for name in selected:
        try:
            reports.append(_run_check(name, group, args.seed, args.cap_order))
        except SizeLimit as exc:
            raise SizeLimit(f"check {name}: {exc.what}", exc.size, exc.cap) from exc
    all_passed = all(r.passed for r in reports)
    if args.format == "machine":
        doc = {"schema": MACHINE_SCHEMA, "command": "verify", **_group_doc(group),
               "seed": args.seed, "jobs": args.jobs,
               "checks": [r.to_dict() for r in reports],
               "status": "pass" if all_passed else "fail"}
        print(machine_json(doc), end="")
    else:
        print(f"group: {group.describe()} (order {group.n})")
        for r in reports:
            print("\n".join(render_check(r)))
        print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def _cmd_counterexample(args) -> int:
    group = _resolve_group(args.group)
    if not isinstance(group, GroupTable):
        raise ValueError("counterexamples are constructed for finite groups only")
    pair = construct_counterexample(group)
    if args.format == "machine":
        doc = {"schema": MACHINE_SCHEMA, "command": "counterexample", **_group_doc(group),
               "A": elements_json(pair.left), "B": elements_json(pair.right),
               "generator": element_json(pair.generator), "outsider": element_json(pair.outsider),
               "violator": {"S": elements_json(pair.violator.subset),
                            "neighborhood": elements_json(pair.violator.neighborhood),
                            "deficiency": pair.violator.deficiency}}
        print(machine_json(doc), end="")
    else:
        print(f"group: {group.describe()} (order {group.n})")
        print(f"generator a = {group.label(pair.generator)}")
        print(f"A = <a> = {format_elements(group, pair.left.elements)}")
        print(f"outsider g = {group.label(pair.outsider)}")
        print(f"B = A u {{g}} \\ {{1}} = {format_elements(group, pair.right.elements)}")
        print("\n".join(render_violator(group, pair.violator)))
    return 0


def _cmd_lattice(args) -> int:
    report = check_lattice_matching(args.dimension, args.trials,
                                    max_size=args.max_size,
                                    coordinate_bound=args.bound, seed=args.seed)
    if args.format == "machine":
        doc = {"schema": MACHINE_SCHEMA, "command": "lattice",
               "dimension": args.dimension, "trials": args.trials,
               "max_size": args.max_size, "coordinate_bound": args.bound,
               "seed": args.seed, "report": report.to_dict()}
        print(machine_json(doc), end="")
    else:
        print(f"lattice Z^{args.dimension}")
        print("\n".join(render_check(report)))
    if report.status == "fail":
        return 1
    if report.status == "skipped":
        return 2
    return 0


_HANDLERS = {
    "match": _cmd_match,
    "verify": _cmd_verify,
    "counterexample": _cmd_counterexample,
    "lattice": _cmd_lattice,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    machine = getattr(args, "format", "text") == "machine"
    try:
        return _HANDLERS[args.command](args)
    except NotApplicable as exc:
        _emit_error(exc, args.command, machine)
        return 3
    except (GroupMatchError, ValueError) as exc:
        _emit_error(exc, args.command, machine)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
