"""Human and machine rendering of check reports and command results.

Machine output is canonical JSON (sorted keys, two-space indent, one
trailing newline) and never includes wall-clock timings, so identical
inputs and seeds produce byte-identical documents.
"""

from __future__ import annotations

import json

MACHINE_SCHEMA = "groupmatch/2"
_MAX_RECORDS_SHOWN = 10


def machine_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def element_json(e):
    """One element as a JSON-safe value (lattice tuples become lists)."""
    return list(e) if isinstance(e, tuple) else e


def elements_json(x) -> list:
    """Elements of a subset (or iterable) as a JSON-safe sorted list."""
    elements = getattr(x, "elements", x)
    return [element_json(e) for e in sorted(elements)]


def violator_json(violator) -> dict:
    """A Hall violator's S, N(S) and deficiency as JSON-safe values."""
    return {"S": elements_json(violator.subset),
            "neighborhood": elements_json(violator.neighborhood),
            "deficiency": violator.deficiency}


def format_elements(group, elements) -> str:
    return "{" + ", ".join(group.label(e) for e in elements) + "}"


def _record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def render_check(report) -> list[str]:
    """Human-readable lines for one CheckReport."""
    lines = [
        f"check {report.check_name}: {report.status.upper()}  "
        f"({report.instances_tested} instances, {report.instances_skipped} skipped"
        + (f", seed {report.seed}" if report.seed is not None else "")
        + f")  [{report.elapsed:.2f}s]"
    ]
    for label, records in (("failure", report.failures), ("flagged", report.flagged)):
        for record in records[:_MAX_RECORDS_SHOWN]:
            lines.append(f"  {label}: {_record_line(record)}")
        if len(records) > _MAX_RECORDS_SHOWN:
            lines.append(f"  ... and {len(records) - _MAX_RECORDS_SHOWN} more {label} records")
    return lines


def render_matching(group, matching) -> list[str]:
    lines = ["matching found:"]
    lines.extend(f"  {group.label(a)} -> {group.label(b)}" for a, b in matching.pairs)
    return lines


def render_violator(group, violator) -> list[str]:
    return [
        "no matching exists; Hall violator certificate:",
        f"  S = {format_elements(group, violator.subset.elements)}",
        f"  N(S) = {format_elements(group, violator.neighborhood.elements)}",
        f"  deficiency = {violator.deficiency}",
    ]
