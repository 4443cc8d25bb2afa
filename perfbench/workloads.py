"""The benchmark's workloads: group set-up, seeded op lists and correctness gates.

Nothing here imports ``groupmatch`` at module level, so that ``setup`` can
time the first import.  Each op is a closed-loop call into the library
made from a single client, one at a time; the library receives only the
generated inputs.

An op is ``(label, call, judge)``: ``call()`` is the timed library call,
``judge(result)`` returns the op's canonical output bytes (hashed with
SHA-256 so two commits can be compared byte-for-byte at equal seeds) and
an error string, or None when the result passes the correctness gate.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate

SRC = Path(__file__).resolve().parent.parent / "src"

# CATALOG_SPECS as it stood when the benchmark was defined, plus C12, D6
# and C14.  The list is fixed here, not read from the library, so that
# every commit is measured on the same work.
CATALOG_GROUPS = (
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
    "C2xC2", "C2xC4", "C2xC2xC2", "D3", "D4", "D5", "Q8", "S3",
    "C12", "D6", "C14",
)
CHECKS = ("kemperman", "corollary", "olson", "automatching", "matching-property", "hall")
# The default cap of every check admits every catalog group (automatching
# up to order 14, olson and matching-property up to 24) except corollary.
COROLLARY_MAX_ORDER = 6
LATTICE_DIMENSIONS = (1, 2, 3)
LATTICE_TRIALS = 1000

LARGE_GROUPS = ("D256", "C512")
MATCH_FRACTIONS = (0.5, 0.8, 0.95, 0.99)   # |A| = |B| as a share of the order
MATCH_REPEATS = 8
CERTIFY_OUTSIDE = (32, 96, 160, 224)       # |R|, the part of A outside H
CERTIFY_SPREAD = 8                         # values of |B \ H| per |R|
SETUP_CALIBRATION_SAMPLES = 25   # before and after each set-up


@dataclass(frozen=True)
class Workload:
    name: str
    group_specs: tuple
    setup_repeats: int
    build_ops: object   # (gm, groups, seed) -> list of ops


def import_groupmatch():
    """Import the package and its CLI from this checkout's ``src``, and nowhere else."""
    if not (SRC / "groupmatch" / "__init__.py").is_file():
        raise FileNotFoundError(f"no groupmatch package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gm = importlib.import_module("groupmatch")
    importlib.import_module("groupmatch.cli")
    if SRC not in Path(gm.__file__).resolve().parents:
        raise ImportError(f"groupmatch was imported from {gm.__file__}, not from {SRC}")
    return gm


def setup(workload: Workload, on_import=None):
    """Import groupmatch and construct every group of the workload.

    Returns ``(gm, groups, seconds)``; ``seconds`` runs from before the
    import until the last group is constructed.  ``on_import(gm)`` runs
    between the two, inside the timed interval.
    """
    t0 = perf_counter()
    gm = import_groupmatch()
    if on_import is not None:
        on_import(gm)
    groups = {spec: gm.groups.parse_group_spec(spec) for spec in workload.group_specs}
    return gm, groups, perf_counter() - t0


def scaled_setup(workload: Workload):
    """``setup`` between two bursts of calibration samples.

    Returns ``(gm, groups, seconds, scale)``, where ``seconds * scale`` is
    the set-up time at the reference host speed.
    """
    before = [calibrate.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
    gm, groups, seconds = setup(workload)
    after = [calibrate.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
    return gm, groups, seconds, calibrate.REFERENCE_S / statistics.fmean(before + after)


# ---------------------------------------------------------------------------
# catalog-verify: one in-process CLI call per (group, check), plus lattice


def _cli_op(gm, argv: list):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gm.cli.main(argv)
        return code, out.getvalue()

    def judge(result):
        code, text = result
        doc = json.loads(text)
        status = doc["report"]["status"] if argv[0] == "lattice" else doc["status"]
        error = None if code == 0 and status == "pass" else f"exit {code}, status {status!r}"
        return text.encode("utf-8"), error

    return " ".join(argv), call, judge


def catalog_ops(gm, groups, seed: int) -> list:
    ops = []
    for spec in CATALOG_GROUPS:
        for check in CHECKS:
            if check == "corollary" and groups[spec].n > COROLLARY_MAX_ORDER:
                continue
            ops.append(_cli_op(gm, ["verify", spec, "--checks", check, "--seed", str(seed),
                                    "--format", "machine"]))
    for d in LATTICE_DIMENSIONS:
        ops.append(_cli_op(gm, ["lattice", "-d", str(d), "-t", str(LATTICE_TRIALS),
                                "--seed", str(seed), "--format", "machine"]))
    return ops


# ---------------------------------------------------------------------------
# match-large and certify-large: one find_matching call per op


def gate_matching(table, A: set, B: set, pairs) -> str | None:
    """Re-check a matching from the Cayley table: a bijection A -> B with
    a*phi(a) outside A for every a."""
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    if len(set(lefts)) != len(lefts) or set(lefts) != A:
        return "matching: left side is not A, each element once"
    if len(set(rights)) != len(rights) or set(rights) != B:
        return "matching: right side is not B, each element once"
    for a, b in pairs:
        if table[a][b] in A:
            return f"matching: {a}*{b} = {table[a][b]} lies in A"
    return None


def gate_violator(table, A: set, B: set, S, neighborhood, deficiency) -> str | None:
    """Re-check a Hall violator: S inside A, N(S) recomputed from the table
    equals the reported neighbourhood, and |S| > |N(S)|."""
    S = set(S)
    if not S or not S <= A:
        return "violator: S is empty or not contained in A"
    recomputed = {b for b in B if any(table[s][b] not in A for s in S)}
    if recomputed != set(neighborhood):
        return "violator: reported neighbourhood differs from N(S)"
    if len(S) <= len(recomputed) or deficiency != len(S) - len(recomputed):
        return f"violator: |S| = {len(S)}, |N(S)| = {len(recomputed)}, deficiency {deficiency}"
    return None


def _matching_op(gm, group, spec: str, a_elems, b_elems, must_violate: bool):
    A = gm.subsets.GroupSubset(group, a_elems)
    B = gm.subsets.GroupSubset(group, b_elems)
    a_set, b_set, table = set(A.elements), set(B.elements), group.table

    def call():
        return gm.matching.find_matching(A, B)

    def judge(result):
        if isinstance(result, gm.matching.Matching):
            doc = {"matching": result.pairs}
            error = gate_matching(table, a_set, b_set, result.pairs)
            if error is None and must_violate:
                error = "matching returned for a pair built to be unmatchable"
        else:
            S, N = list(result.subset.elements), list(result.neighborhood.elements)
            doc = {"S": S, "neighborhood": N, "deficiency": result.deficiency}
            error = gate_violator(table, a_set, b_set, S, N, result.deficiency)
        return json.dumps(doc, sort_keys=True).encode("utf-8"), error

    label = f"find_matching {spec} |A|={len(A)}"
    return label, call, judge


def match_ops(gm, groups, seed: int) -> list:
    """Random identity-free pairs at fixed sizes; either verdict is valid."""
    rng = random.Random(f"match-large/{seed}")
    ops = []
    for spec in LARGE_GROUPS:
        group = groups[spec]
        for fraction in MATCH_FRACTIONS:
            k = round(fraction * group.n)
            for _ in range(MATCH_REPEATS):
                a = rng.sample(range(1, group.n), k)
                b = rng.sample(range(1, group.n), k)
                ops.append(_matching_op(gm, group, spec, a, b, must_violate=False))
    return ops


def index_two_subgroup(spec: str, group) -> list:
    """The rotations of D<m> (indices below m), or the even residues of C<n>."""
    half = group.n // 2
    H = list(range(half)) if spec.startswith("D") else list(range(0, group.n, 2))
    Hs = set(H)
    if len(H) != half or any(group.table[x][y] not in Hs for x in H for y in H):
        raise ValueError(f"no index-2 subgroup of the expected form in {spec}")
    return H


def certify_ops(gm, groups, seed: int) -> list:
    """Pairs with no matching: A = H u R and |R| < |B \\ H| < |H| make S = H
    a Hall violator, since H*(B n H) stays inside H and so inside A."""
    rng = random.Random(f"certify-large/{seed}")
    ops = []
    for spec in LARGE_GROUPS:
        group = groups[spec]
        H = index_two_subgroup(spec, group)
        Hs = set(H)
        outside = [x for x in range(group.n) if x not in Hs]
        for r in CERTIFY_OUTSIDE:
            low, high = r + 1, len(H) - 1
            for step in range(CERTIFY_SPREAD):
                m = low + round(step * (high - low) / (CERTIFY_SPREAD - 1))
                a = H + rng.sample(outside, r)
                b = rng.sample(outside, m) + rng.sample(H[1:], len(H) + r - m)
                ops.append(_matching_op(gm, group, spec, a, b, must_violate=True))
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("catalog-verify", CATALOG_GROUPS, 5, catalog_ops),
        Workload("match-large", LARGE_GROUPS, 2, match_ops),
        Workload("certify-large", LARGE_GROUPS, 2, certify_ops),
    )
}
