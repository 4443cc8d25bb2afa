"""Command-line front end.

Exit codes: 0 success / all checks pass; 1 certified non-existence or a
failed check; 2 input or size-limit errors; 3 counterexample construction
not applicable (trivial or prime-order group).

Each ``_cmd_*`` handler returns ``(exit code, document, text)``: the machine
document without its ``schema`` and ``command`` keys, and a zero-argument
callable that renders the text lines.  ``main`` alone picks the format: it
adds the two envelope keys and prints ``machine_json`` of the document, or
calls ``text`` and prints its lines.  A ``GroupMatchError`` or ``ValueError``
becomes the same triple, with an ``error`` document: exit 3 for
``NotApplicable``, else 2.  So does a command line that argparse rejects,
as a ``UsageError``, when argv asks for ``--format machine``; otherwise
argparse's usage and message go to stderr, exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
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
    violator_json,
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


class UsageError(Exception):
    """A command line that ``parser`` rejected, with argparse's message."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # Subparsers take the class of their parent, so every parse error raises.
    def error(self, message):
        raise UsageError(self, message)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                   help="override the group-order cap, at least 1, of %s; an error for any "
                   "other check"
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
        if not Path(spec).exists():
            raise
    try:
        return load_group_file(spec)
    except OSError as exc:      # a directory, or a file that may not be read
        raise ParseError(f"cannot read group file {spec}: {exc.strerror or exc}") from exc


def _group_doc(group) -> dict:
    if isinstance(group, LatticeGroup):
        return {"group": group.name, "order": None}
    return {"group": group.name or f"order-{group.n}", "order": group.n}


def _exit_code(status: str) -> int:
    """The exit code of a report status; "skipped" means nothing was tested."""
    return {"pass": 0, "fail": 1, "skipped": 2}[status]


def _cmd_match(args):
    group = _resolve_group(args.group)
    A = parse_subset_literal(args.A, group)
    B = parse_subset_literal(args.B, group)
    result = find_matching(A, B)
    matched = isinstance(result, Matching)
    doc = {**_group_doc(group), "A": elements_json(A), "B": elements_json(B),
           "result": "matching" if matched else "violator"}
    if matched:
        doc["matching"] = [[element_json(a), element_json(b)] for a, b in result.pairs]
    else:
        doc["violator"] = violator_json(result)
    return (0 if matched else 1), doc, lambda: [
        f"group: {group.describe()}",
        f"A = {format_elements(group, A.elements)}",
        f"B = {format_elements(group, B.elements)}",
        *(render_matching(group, result) if matched else render_violator(group, result))]


def _run_check(name: str, group: GroupTable, seed: int, cap: int | None):
    function, cap_keyword, seeded = CHECKS[name]
    kwargs = {"seed": seed} if seeded else {}
    if cap is not None:
        kwargs[cap_keyword] = cap
    # Resolved at call time, so a wrapper swapped into this module is the one called.
    return globals()[function](group, **kwargs)


def _cmd_verify(args):
    if args.jobs != 1:
        raise ValueError(f"--jobs must be 1, got {args.jobs}: the process pool was removed "
                         "and every check runs in one process")
    if args.cap_order is not None and args.cap_order < 1:
        raise ValueError(f"--cap-order must be at least 1, got {args.cap_order}")
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
    # A run in which every check tested nothing is a zero-instance run: skipped.
    statuses = {r.status for r in reports}
    status = "fail" if "fail" in statuses else "pass" if "pass" in statuses else "skipped"
    doc = {**_group_doc(group), "seed": args.seed, "checks": [r.to_dict() for r in reports],
           "status": status}
    return _exit_code(status), doc, lambda: [
        f"group: {group.describe()} (order {group.n})",
        *(line for r in reports for line in render_check(r)),
        f"overall: {status.upper()}"]


def _cmd_counterexample(args):
    group = _resolve_group(args.group)
    if not isinstance(group, GroupTable):
        raise ValueError("counterexamples are constructed for finite groups only")
    pair = construct_counterexample(group)
    doc = {**_group_doc(group), "A": elements_json(pair.left), "B": elements_json(pair.right),
           "generator": element_json(pair.generator), "outsider": element_json(pair.outsider),
           "violator": violator_json(pair.violator)}
    return 0, doc, lambda: [
        f"group: {group.describe()} (order {group.n})",
        f"generator a = {group.label(pair.generator)}",
        f"A = <a> = {format_elements(group, pair.left.elements)}",
        f"outsider g = {group.label(pair.outsider)}",
        f"B = A u {{g}} \\ {{1}} = {format_elements(group, pair.right.elements)}",
        *render_violator(group, pair.violator)]


def _cmd_lattice(args):
    report = check_lattice_matching(args.dimension, args.trials, max_size=args.max_size,
                                    coordinate_bound=args.bound, seed=args.seed)
    doc = {"dimension": args.dimension, "trials": args.trials, "max_size": args.max_size,
           "coordinate_bound": args.bound, "seed": args.seed, "report": report.to_dict()}
    return _exit_code(report.status), doc, lambda: [
        f"lattice Z^{args.dimension}", *render_check(report)]


_HANDLERS = {
    "match": _cmd_match,
    "verify": _cmd_verify,
    "counterexample": _cmd_counterexample,
    "lattice": _cmd_lattice,
}


def _failure(exc: Exception):
    """The (exit code, document, text) of an error."""
    message = f"error: {exc}"
    return ((3 if isinstance(exc, NotApplicable) else 2),
            {"error": {"type": type(exc).__name__, "message": str(exc)}}, lambda: [message])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        command, machine = args.command, args.format == "machine"
        code, doc, text = _HANDLERS[command](args)
    except UsageError as exc:
        # The parse failed, so the format and the command are read from argv;
        # the top-level parser has no option but -h, so the first word that
        # is not an option is where the command goes.
        machine = "--format=machine" in argv or ("--format", "machine") in zip(argv, argv[1:])
        if not machine:
            exc.parser.print_usage(sys.stderr)
            print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
            return 2
        command = next((word for word in argv if not word.startswith("-")), None)
        command = command if command in _HANDLERS else None
        code, doc, text = _failure(exc)
    except (GroupMatchError, ValueError) as exc:
        code, doc, text = _failure(exc)
    if machine:
        print(machine_json({"schema": MACHINE_SCHEMA, "command": command, **doc}), end="")
    else:
        print("\n".join(text()))
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
