"""Desk-scale verification of the matching and sumset theorems.

Each check runs an exhaustive or seeded-random battery of instances and
returns a CheckReport.  Failure and flagged records are plain dicts with
JSON-safe values so reports serialize deterministically.

Instance counting conventions: sweep-style checks count every examined
instance in ``instances_tested`` and additionally count the vacuous ones
(hypothesis or precondition unmet) in ``instances_skipped``; a
single-instance check whose hypothesis is unmet reports zero instances
and status "skipped".
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

from .errors import CrossValidationError, EmptyInput, IdentityInB, NotApplicable, SizeLimit, SizeMismatch
from .groups import (DEFAULT_SUBGROUP_CAP, GroupTable, LatticeGroup, classify, cyclic_subgroup,
                     enumerate_subgroups)
from .matching import (HallViolator, MatchabilityGraph, Matching, _graph_result, brute_force_matching,
                       find_matching, verify_matching)
from .reports import elements_json as _els
from .subsets import GroupSubset, _same_group, product_set

DEFAULT_EXHAUSTIVE_PAIR_CAP = 6
DEFAULT_AUTOMATCHING_CAP = 14
DEFAULT_PROPERTY_ORDER_CAP = 24
PROPERTY_EXHAUSTIVE_CAP = 7     # matching-property is exhaustive up to this order
IDENTITY_CONFIRMATION_CAP = 5   # automatching confirms every A ∋ 1 up to this size
HALL_MAX_SIZE = 5               # |A| = |B| bound of the Hall cross-validation
DEFAULT_SAMPLES = 2000
DEFAULT_HALL_SAMPLES = 500
DEFAULT_LATTICE_SIZE_CAP = 10


@dataclass
class CheckReport:
    """Outcome of one theorem check.

    ``failures`` holds records that falsify the asserted invariant;
    ``flagged`` holds non-failing observations worth reporting (found
    witnesses, stated-bound counterexamples, confirmation counts).
    """

    check_name: str
    instances_tested: int = 0
    instances_skipped: int = 0
    failures: list = field(default_factory=list)
    flagged: list = field(default_factory=list)
    status: str = "skipped"
    seed: int | None = None
    elapsed: float = 0.0

    def finish(self, t0: float) -> "CheckReport":
        self.elapsed = perf_counter() - t0
        if self.failures:
            self.status = "fail"
        elif self.instances_tested > 0:
            self.status = "pass"
        else:
            self.status = "skipped"
        return self

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self, include_elapsed: bool = False) -> dict:
        out = {
            "check": self.check_name,
            "status": self.status,
            "instances_tested": self.instances_tested,
            "instances_skipped": self.instances_skipped,
            "seed": self.seed,
            "failures": self.failures,
            "flagged": self.flagged,
        }
        if include_elapsed:
            out["elapsed_seconds"] = round(self.elapsed, 6)
        return out


@dataclass(frozen=True)
class CounterexamplePair:
    """A pair (A, B) with |A| = |B| and 1 not in B that admits no matching.

    A is the cyclic subgroup generated by ``generator``; B swaps the
    identity for ``outsider``, an element outside A.
    """

    left: GroupSubset
    right: GroupSubset
    generator: object
    outsider: object
    violator: HallViolator


def _bits(mask: int) -> list:
    """The set bits of mask, ascending: a mask's elements as indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bit_rows(group: GroupTable, left=None) -> dict:
    """``rows[a][b] == 1 << (a*b)``: the group law with products as one-bit
    masks, for every a or only for the a in ``left``."""
    left = group.elements() if left is None else left
    return {a: tuple(1 << x for x in group.table[a]) for a in left}


def _back_rows(group: GroupTable) -> list:
    """``back[a][y] == 1 << (a⁻¹*y)``, so summing ``back[a]`` over the y in
    A gives the mask of the x with a*x in A."""
    rows = _bit_rows(group)
    return [rows[group.inverse(a)] for a in group.elements()]


def _mask_result(group, back, a_els, b_mask):
    """What find_matching(A, B) returns, for A given by its ascending
    elements and B by its mask.  Row a is B minus {x : a*x in A}, with bit
    x for element x, so Kuhn's scan follows the ascending order of B."""
    rows = tuple(b_mask & ~sum(map(back[a].__getitem__, a_els)) for a in a_els)
    return _graph_result(group, MatchabilityGraph(left=a_els, right=group.elements(), rows=rows))


def _products(rows, a_els, b_els) -> tuple:
    """(AB, repeated) as masks; repeated marks the products with two or more
    factorizations.  Each translate aB has |B| distinct bits, so its sum is
    its union."""
    once = twice = 0
    for a in a_els:
        translate = sum(map(rows[a].__getitem__, b_els))
        twice |= once & translate
        once |= translate
    return once, twice


def _mask_pairs(n: int, exhaustive_cap: int, samples: int, seed: int) -> tuple:
    """(instances, seed to report): every pair of nonempty masks when n is
    within the cap (seed None), else a seeded sample of pairs."""
    if n <= exhaustive_cap:
        return list(itertools.product(range(1, 1 << n), repeat=2)), None
    rng = random.Random(seed)
    return [(rng.randrange(1, 1 << n), rng.randrange(1, 1 << n)) for _ in range(samples)], seed


def _sized_pairs(n: int, max_k: int, samples: int, seed: int) -> list:
    """Seeded (a_els, b_els) pairs, |A| = |B| <= max_k, the identity out of B."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(samples):
        k = rng.randint(1, max_k)
        pairs.append((tuple(sorted(rng.sample(range(n), k))),
                      tuple(sorted(rng.sample(range(1, n), k)))))
    return pairs


def _map_ordered(fn, items: list, jobs: int) -> list:
    """Apply fn to items, optionally on a process pool, preserving order."""
    if jobs > 1 and len(items) > 1:
        chunk = max(1, len(items) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items, chunksize=chunk))
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# Product-set lower bound (unique-product hypothesis)


def check_kemperman(A: GroupSubset, B: GroupSubset) -> CheckReport:
    """Assert |AB| >= |A| + |B| - 1 when AB has a unique-product element."""
    t0 = perf_counter()
    g = _same_group(A, B)
    if not isinstance(g, GroupTable):
        raise ValueError("the unique-product bound is checked on finite groups only")
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    report = CheckReport("kemperman")
    outcome = _kemperman_outcome(_bit_rows(g, A.elements), A.elements, B.elements)
    if outcome is None:
        report.flagged.append({"kind": "hypothesis-unmet",
                               "why": "no unique-product element in AB"})
    else:
        report.instances_tested = 1
        if outcome is not True:
            report.failures.append(outcome)
    return report.finish(t0)


def _kemperman_outcome(rows, a_els, b_els):
    """None when AB has no unique product, True when the bound holds, else
    the failure record."""
    ab, repeated = _products(rows, a_els, b_els)
    unique = ab & ~repeated
    if not unique:
        return None
    size = ab.bit_count()
    if size >= len(a_els) + len(b_els) - 1:
        return True
    return {
        "kind": "product-bound-violated",
        "A": _els(a_els), "B": _els(b_els),
        "A_size": len(a_els), "B_size": len(b_els), "AB_size": size,
        "unique_product": (unique & -unique).bit_length() - 1,
    }


def _kemperman_instance(rows, masks):
    return _kemperman_outcome(rows, _bits(masks[0]), _bits(masks[1]))


def sweep_kemperman(group: GroupTable, *, exhaustive_cap: int = DEFAULT_EXHAUSTIVE_PAIR_CAP,
                    samples: int = DEFAULT_SAMPLES, seed: int = 0,
                    jobs: int = 1) -> CheckReport:
    """Run the product-set bound over all nonempty pairs (A, B), or a
    seeded sample of pairs when the group is over the exhaustive cap."""
    t0 = perf_counter()
    instances, used_seed = _mask_pairs(group.n, exhaustive_cap, samples, seed)
    report = CheckReport("kemperman", seed=used_seed)
    for outcome in _map_ordered(partial(_kemperman_instance, _bit_rows(group)), instances, jobs):
        report.instances_tested += 1
        if outcome is None:
            report.instances_skipped += 1
        elif outcome is not True:
            report.failures.append(outcome)
    return report.finish(t0)


# ---------------------------------------------------------------------------
# Identity-free containment bound (both the stated and the corrected form)


def _corollary_instance(u: list, v: list, x: list, choice: str) -> dict:
    return {
        "U": u, "V": v, "X": x, "X_choice": choice,
        "U_size": len(u), "V_size": len(v), "X_size": len(x),
        "corrected_holds": len(x) >= len(u) + len(v),
        "stated_holds": len(x) >= len(u) + len(v) + 1,
    }


def check_corollary(U: GroupSubset, V: GroupSubset, X: GroupSubset) -> CheckReport:
    """Test the containment bound for U, V, UV inside an identity-free X.

    The corrected bound |X| >= |U| + |V| is the asserted invariant; the
    stated bound |X| >= |U| + |V| + 1 is evaluated alongside and its
    counterexamples are flagged, not failed.  Precondition violations
    produce a skipped report rather than an exception.
    """
    t0 = perf_counter()
    g = _same_group(U, V, X)
    report = CheckReport("corollary")
    why = None
    if len(U) == 0 or len(V) == 0:
        why = "U and V must be nonempty"
    elif g.identity in X:
        why = "X contains the identity"
    elif not (U.issubset(X) and V.issubset(X) and product_set(U, V).issubset(X)):
        why = "U, V and UV must all be contained in X"
    if why is not None:
        report.instances_skipped = 1
        report.flagged.append({"kind": "precondition-unmet", "why": why})
        return report.finish(t0)
    record = _corollary_instance(_els(U), _els(V), _els(X), "given")
    report.instances_tested = 1
    if not record["corrected_holds"]:
        report.failures.append({"kind": "corrected-bound-violated", **record})
    if not record["stated_holds"]:
        report.flagged.append({"kind": "stated-bound-counterexample", **record})
    return report.finish(t0)


def _corollary_pair(rows, masks):
    """The two records of one (U, V), or None when UV holds the identity.
    The masks cover the non-identity elements, so they skip bit 0."""
    mu, mv = masks[0] << 1, masks[1] << 1
    u, v = _bits(mu), _bits(mv)
    uv = _products(rows, u, v)[0]
    if uv & 1:
        return None
    x_full = (1 << len(rows)) - 2
    return (_corollary_instance(u, v, _bits(mu | mv | uv), "minimal"),
            _corollary_instance(u, v, _bits(x_full), "full"))


def sweep_corollary(group: GroupTable, *, order_cap: int = DEFAULT_EXHAUSTIVE_PAIR_CAP,
                    jobs: int = 1) -> CheckReport:
    """Exhaust the containment bound over admissible (U, V) pairs.

    U and V range over nonempty subsets of the non-identity elements; a
    pair is admissible when UV avoids the identity.  Each admissible pair
    is tested against two X choices: the minimal U ∪ V ∪ UV and the full
    complement of the identity.  Stated-bound counterexamples are sorted
    smallest-X first.
    """
    t0 = perf_counter()
    n = group.n
    if n > order_cap:
        raise SizeLimit("containment-bound sweep", n, order_cap)
    instances = list(itertools.product(range(1, 1 << (n - 1)), repeat=2))
    report = CheckReport("corollary")
    stated = []
    for outcome in _map_ordered(partial(_corollary_pair, _bit_rows(group)), instances, jobs):
        if outcome is None:
            report.instances_tested += 1
            report.instances_skipped += 1
            continue
        for record in outcome:
            report.instances_tested += 1
            if not record["corrected_holds"]:
                report.failures.append({"kind": "corrected-bound-violated", **record})
            if not record["stated_holds"]:
                stated.append({"kind": "stated-bound-counterexample", **record})
    stated.sort(key=lambda r: (r["X_size"], r["U_size"], r["V_size"],
                               r["X"], r["U"], r["V"]))
    report.flagged.extend(stated)
    return report.finish(t0)


# ---------------------------------------------------------------------------
# Subgroup-invariant subset bound


def _olson_orbits(group: GroupTable, subgroups) -> list:
    """(H, side, orbit masks) for each subgroup H, left (orbits Ht) before
    right (orbits tH): the order in which witnesses are searched."""
    table, elements = group.table, group.elements()
    out = []
    for H in subgroups:
        h_els = H.elements
        out.append((h_els, "left", {sum(1 << table[h][t] for h in h_els) for t in elements}))
        out.append((h_els, "right", {sum(1 << table[t][h] for h in h_els) for t in elements}))
    return out


def _olson_witness(rows, orbits, a_els, b_els):
    """The first (H, side, T) with T a nonempty H-invariant subset of AB and
    |T| >= |A| + |B| - |H|, or None; complete because every admissible T is
    a union of orbits, so the union of all orbits inside AB is tested for
    each H and side.  The orbits of one side are disjoint: their sum is their
    union."""
    ab = _products(rows, a_els, b_els)[0]
    need = len(a_els) + len(b_els)
    for h_els, side, orbit_masks in orbits:
        chosen = sum(orbit for orbit in orbit_masks if orbit & ab == orbit)
        if chosen and chosen.bit_count() >= need - len(h_els):
            return h_els, side, chosen
    return None


def check_olson(A: GroupSubset, B: GroupSubset, *,
                subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> CheckReport:
    """Search all subgroups for an invariant-subset witness of the bound
    |AB| >= |T| >= |A| + |B| - |H|."""
    t0 = perf_counter()
    g = _same_group(A, B)
    if not isinstance(g, GroupTable):
        raise ValueError("the invariant-subset bound is checked on finite groups only")
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    orbits = _olson_orbits(g, enumerate_subgroups(g, subgroup_cap))
    report = CheckReport("olson")
    report.instances_tested = 1
    witness = _olson_witness(_bit_rows(g, A.elements), orbits, A.elements, B.elements)
    if witness is None:
        report.failures.append({"kind": "no-witness", "A": _els(A), "B": _els(B)})
    else:
        h_els, side, chosen = witness
        report.flagged.append({
            "kind": "olson-witness",
            "H": _els(h_els), "T": _bits(chosen),
            "side": side,
            "T_size": chosen.bit_count(),
            "bound": len(A) + len(B) - len(h_els),
        })
    return report.finish(t0)


def _olson_instance(rows, orbits, masks):
    a_els, b_els = _bits(masks[0]), _bits(masks[1])
    if _olson_witness(rows, orbits, a_els, b_els) is None:
        return {"kind": "no-witness", "A": a_els, "B": b_els}
    return None


def sweep_olson(group: GroupTable, *, exhaustive_cap: int = DEFAULT_EXHAUSTIVE_PAIR_CAP,
                samples: int = DEFAULT_SAMPLES, seed: int = 0,
                subgroup_cap: int = DEFAULT_SUBGROUP_CAP, jobs: int = 1) -> CheckReport:
    """Witness search over all nonempty pairs (exhaustive up to the cap,
    seeded samples above it)."""
    t0 = perf_counter()
    orbits = _olson_orbits(group, enumerate_subgroups(group, subgroup_cap))
    instances, used_seed = _mask_pairs(group.n, exhaustive_cap, samples, seed)
    report = CheckReport("olson", seed=used_seed)
    for outcome in _map_ordered(partial(_olson_instance, _bit_rows(group), orbits),
                                instances, jobs):
        report.instances_tested += 1
        if outcome is not None:
            report.failures.append(outcome)
    return report.finish(t0)


# ---------------------------------------------------------------------------
# Automatching: a matching A -> A exists iff the identity is outside A


def _automatching_instance(group, back, mask):
    a_mask = mask << 1
    a_els = _bits(a_mask)
    result = _mask_result(group, back, a_els, a_mask)
    if isinstance(result, HallViolator):
        return {"kind": "automatching-violator", "A": a_els,
                "S": _els(result.subset), "neighborhood": _els(result.neighborhood),
                "deficiency": result.deficiency}
    A = GroupSubset(group, a_els)
    verdict = verify_matching(A, A, result)
    if not verdict:
        return {"kind": "invalid-matching", "A": a_els, "why": verdict.reason}
    return None


def check_automatching(group: GroupTable, *, order_cap: int = DEFAULT_AUTOMATCHING_CAP,
                       jobs: int = 1) -> CheckReport:
    """Exhaust every nonempty identity-free A and require a matching A -> A.

    The converse direction is confirmed alongside: for every A containing
    the identity (up to ``IDENTITY_CONFIRMATION_CAP`` elements), the engine
    reports the structured identity error and the brute-force oracle finds
    no valid bijection.  Those confirmations are flagged, not counted as
    instances.
    """
    t0 = perf_counter()
    n = group.n
    if n > order_cap:
        raise SizeLimit("automatching sweep", n, order_cap)
    report = CheckReport("automatching")
    instances = list(range(1, 1 << (n - 1)))
    for outcome in _map_ordered(partial(_automatching_instance, group, _back_rows(group)),
                                instances, jobs):
        report.instances_tested += 1
        if outcome is not None:
            report.failures.append(outcome)

    confirmations = 0
    for k in range(0, min(IDENTITY_CONFIRMATION_CAP - 1, n - 1) + 1):
        for rest in itertools.combinations(range(1, n), k):
            A = GroupSubset(group, (0, *rest))
            try:
                find_matching(A, A)
                report.failures.append({"kind": "identity-error-not-raised", "A": _els(A)})
                continue
            except IdentityInB:
                pass
            if brute_force_matching(A, A) is not None:
                report.failures.append({"kind": "matching-despite-identity", "A": _els(A)})
            else:
                confirmations += 1
    report.flagged.append({"kind": "identity-in-A-confirmations", "count": confirmations})
    return report.finish(t0)


# ---------------------------------------------------------------------------
# Matching-property classification


def _property_instance(group, back, pair):
    a_els, b_els = pair
    result = _mask_result(group, back, a_els, sum(1 << b for b in b_els))
    if isinstance(result, Matching):
        return None
    return {"A": _els(a_els), "B": _els(b_els), "S": _els(result.subset),
            "neighborhood": _els(result.neighborhood), "deficiency": result.deficiency}


def check_matching_property(group: GroupTable, *, samples: int = DEFAULT_SAMPLES,
                            seed: int = 0, order_cap: int = DEFAULT_PROPERTY_ORDER_CAP,
                            jobs: int = 1) -> CheckReport:
    """Compare the observed matching property with the classification.

    Sweeps all pairs (A, B) with |A| = |B| and identity outside B
    (exhaustively up to ``PROPERTY_EXHAUSTIVE_CAP``, seeded samples above)
    and requires the outcome to equal the predicted matching property.  When pairs fail,
    the minimal failing pair (by |A|, then lexicographically) is flagged.
    """
    t0 = perf_counter()
    n = group.n
    if n > order_cap:
        raise SizeLimit("matching-property sweep", n, order_cap)
    predicted = classify(group).predicted_matching_property
    if n <= PROPERTY_EXHAUSTIVE_CAP:
        instances = [
            (a_els, b_els)
            for k in range(1, n)
            for a_els in itertools.combinations(range(n), k)
            for b_els in itertools.combinations(range(1, n), k)
        ]
        used_seed, mode = None, "exhaustive"
    else:
        instances = _sized_pairs(n, n - 1, samples, seed)
        used_seed, mode = seed, "sampled"

    report = CheckReport("matching-property", seed=used_seed)
    failing = []
    for outcome in _map_ordered(partial(_property_instance, group, _back_rows(group)),
                                instances, jobs):
        report.instances_tested += 1
        if outcome is not None:
            failing.append(outcome)
    property_holds = not failing
    minimal = min(failing, key=lambda r: (len(r["A"]), r["A"], r["B"])) if failing else None
    report.flagged.append({
        "kind": "matching-property-outcome",
        "mode": mode,
        "predicted": predicted,
        "property_holds": property_holds,
        "pairs_failed": len(failing),
        "counterexample": minimal,
    })
    if property_holds != predicted:
        report.failures.append({
            "kind": "classification-mismatch",
            "predicted": predicted,
            "property_holds": property_holds,
            "counterexample": minimal,
        })
    return report.finish(t0)


def construct_counterexample(group: GroupTable) -> CounterexamplePair:
    """Build the canonical unmatchable pair for a composite-order group.

    Takes the least-index element of order >= 2 that does not generate
    the group, A the cyclic subgroup it generates, and B = A with the
    identity swapped for the least-index outside element; confirms by
    machine that no matching exists.
    """
    judgement = classify(group)
    if judgement.predicted_matching_property:
        raise NotApplicable(
            f"{group.describe()} is trivial or of prime order; every pair matches")
    for a in range(1, group.n):
        A = cyclic_subgroup(group, a)
        if len(A) < group.n:
            break
    else:  # unreachable for composite order; defensive
        raise NotApplicable("every non-identity element generates the group")
    outsider = min(set(range(group.n)) - A.members)
    B = GroupSubset(group, (A.members - {0}) | {outsider})
    result = find_matching(A, B)
    if not isinstance(result, HallViolator):
        raise CrossValidationError(
            "constructed pair unexpectedly admits a matching; engine and theory disagree")
    return CounterexamplePair(left=A, right=B, generator=a, outsider=outsider,
                              violator=result)


# ---------------------------------------------------------------------------
# Torsion-free branch: randomized lattice instances


def _random_point(rng: random.Random, d: int, bound: int) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(d))


def check_lattice_matching(d: int, trials: int, *, max_size: int = 8,
                           coordinate_bound: int = 10, seed: int = 0) -> CheckReport:
    """Sample |A| = |B| <= max_size lattice subsets (zero kept out of B) and
    require a matching every time; instances of size <= 6 are additionally
    confirmed against the brute-force bijection oracle."""
    t0 = perf_counter()
    if max_size > DEFAULT_LATTICE_SIZE_CAP:
        raise SizeLimit("lattice instance size", max_size, DEFAULT_LATTICE_SIZE_CAP)
    group = LatticeGroup(d)
    if (2 * coordinate_bound + 1) ** d <= max_size:
        raise ValueError("coordinate_bound too small for the requested subset size")
    rng = random.Random(seed)
    report = CheckReport("lattice-matching", seed=seed)
    confirmed = 0
    zero = group.identity
    for _ in range(trials):
        k = rng.randint(1, max_size)
        a_els: set = set()
        while len(a_els) < k:
            a_els.add(_random_point(rng, d, coordinate_bound))
        b_els: set = set()
        while len(b_els) < k:
            p = _random_point(rng, d, coordinate_bound)
            if p != zero:
                b_els.add(p)
        A = GroupSubset(group, a_els)
        B = GroupSubset(group, b_els)
        result = find_matching(A, B)
        report.instances_tested += 1
        matched = isinstance(result, Matching)
        if not matched:
            report.failures.append({
                "kind": "lattice-violator", "A": _els(A), "B": _els(B),
                "S": _els(result.subset), "deficiency": result.deficiency})
        elif not verify_matching(A, B, result):
            report.failures.append({"kind": "invalid-matching", "A": _els(A), "B": _els(B)})
        if k <= 6:
            brute = brute_force_matching(A, B)
            if (brute is not None) != matched:
                report.failures.append({
                    "kind": "oracle-disagreement", "A": _els(A), "B": _els(B),
                    "engine": matched, "brute_force": brute is not None})
            else:
                confirmed += 1
    report.flagged.append({"kind": "brute-force-confirmations", "count": confirmed})
    return report.finish(t0)


# ---------------------------------------------------------------------------
# Three-way cross-validation: engine, brute force, Hall inequalities


def cross_validate_hall(A: GroupSubset, B: GroupSubset, *, max_size: int = HALL_MAX_SIZE) -> bool:
    """Agreement of the engine, the bijection oracle, and Hall's condition.

    Hall's condition is evaluated in both equivalent forms for every
    nonempty S inside A: the union form |union of candidate sets| >= |S|
    and the complement form |stable set| <= |A| - |S|.  Returns the common
    verdict; raises CrossValidationError if any route disagrees.
    """
    g = _same_group(A, B)
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    if len(A) != len(B):
        raise SizeMismatch(f"|A| = {len(A)} but |B| = {len(B)}")
    if len(A) > max_size:
        raise SizeLimit("Hall cross-validation", len(A), max_size)
    if g.identity in B:
        raise IdentityInB("B contains the identity")

    engine_ok = isinstance(find_matching(A, B), Matching)
    brute_ok = brute_force_matching(A, B) is not None

    # Row masks over B, one per s in A, each built from the group law on its own.
    mul, a_set, b_els = g.mul, A.members, B.elements
    cand = [sum(1 << j for j, x in enumerate(b_els) if mul(s, x) not in a_set) for s in A]
    stay = [sum(1 << j for j, x in enumerate(b_els) if mul(s, x) in a_set) for s in A]
    hall_ok = True
    for mask in range(1, 1 << len(A)):
        picked = _bits(mask)
        union, inter = 0, (1 << len(B)) - 1
        for i in picked:
            union, inter = union | cand[i], inter & stay[i]
        union_ok = union.bit_count() >= len(picked)
        inter_ok = inter.bit_count() <= len(A) - len(picked)
        if union_ok != inter_ok:
            s_els = [A.elements[i] for i in picked]
            raise CrossValidationError(
                f"Hall forms disagree on S = {s_els}: union {union_ok}, complement {inter_ok}")
        hall_ok = hall_ok and union_ok
    if not (engine_ok == brute_ok == hall_ok):
        raise CrossValidationError(
            f"routes disagree: engine={engine_ok} brute={brute_ok} hall={hall_ok}")
    return engine_ok


def _hall_instance(group, pair):
    a_els, b_els = pair
    A = GroupSubset(group, a_els)
    B = GroupSubset(group, b_els)
    try:
        cross_validate_hall(A, B)
    except CrossValidationError as exc:
        return {"kind": "cross-validation-disagreement",
                "A": _els(A), "B": _els(B), "why": str(exc)}
    return None


def sweep_hall(group: GroupTable, *, samples: int = DEFAULT_HALL_SAMPLES,
               seed: int = 0, jobs: int = 1) -> CheckReport:
    """Seeded random instances of the three-way Hall cross-validation."""
    t0 = perf_counter()
    report = CheckReport("hall", seed=seed)
    if group.n < 2:
        return report.finish(t0)
    instances = _sized_pairs(group.n, min(HALL_MAX_SIZE, group.n - 1), samples, seed)
    for outcome in _map_ordered(partial(_hall_instance, group), instances, jobs):
        report.instances_tested += 1
        if outcome is not None:
            report.failures.append(outcome)
    return report.finish(t0)
