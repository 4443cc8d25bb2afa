"""Desk-scale verification of the matching and sumset theorems.

Each check runs an exhaustive or seeded-random battery of instances, or
rechecks one certificate, and returns a CheckReport.  Failure and flagged records are plain dicts with
JSON-safe values so reports serialize deterministically.

Instance counting conventions: sweep-style checks count every examined
instance in ``instances_tested`` and additionally count the vacuous ones
(hypothesis or precondition unmet) in ``instances_skipped``; a
single-instance check whose hypothesis is unmet reports zero instances
and status "skipped".
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter

import numpy as np

from .errors import CrossValidationError, EmptyInput, IdentityInB, NotApplicable, SizeLimit
from .groups import (DEFAULT_SUBGROUP_CAP, GroupTable, LatticeGroup, classify, cyclic_subgroup,
                     enumerate_subgroups)
from .matching import (BRUTE_FORCE_CAP, HallViolator, Matching, _bits, _block_rows,
                       _brute_force, _equal_pair_group, _extract_violator, _free_first_block,
                       _graph_result, _matching_fault, _python_rows, brute_force_matching,
                       find_matching)
from .reports import elements_json as _els, violator_json
from .subsets import GroupSubset, _same_group, product_set

DEFAULT_EXHAUSTIVE_PAIR_CAP = 6
DEFAULT_AUTOMATCHING_CAP = 20
DEFAULT_PROPERTY_ORDER_CAP = 24
PROPERTY_EXHAUSTIVE_CAP = 7     # matching-property is exhaustive up to this order
IDENTITY_CONFIRMATION_CAP = 5   # automatching confirms every A ∋ 1 up to this size
HALL_MAX_SIZE = 5               # |A| = |B| bound of the Hall cross-validation
LATTICE_CONFIRMATION_CAP = 6    # lattice instances up to this size are confirmed by brute force
DEFAULT_SAMPLES = 2000
DEFAULT_HALL_SAMPLES = 500
DEFAULT_LATTICE_SIZE_CAP = 10
PAIR_BLOCK = 1024               # pairs per array block of the product-set sweeps


@dataclass
class CheckReport:
    """Outcome of one theorem check.

    ``failures`` holds records that falsify the asserted invariant;
    ``flagged`` holds non-failing observations worth reporting (found
    witnesses, stated-bound counterexamples, confirmation counts).
    ``elapsed`` runs from the report's creation to ``finish()``.
    """

    check_name: str
    instances_tested: int = 0
    instances_skipped: int = 0
    failures: list = field(default_factory=list)
    flagged: list = field(default_factory=list)
    status: str = "skipped"
    seed: int | None = None
    elapsed: float = 0.0
    started: float = field(default_factory=perf_counter, init=False, repr=False, compare=False)

    def finish(self) -> "CheckReport":
        self.elapsed = perf_counter() - self.started
        if self.failures:
            self.status = "fail"
        elif self.instances_tested > 0:
            self.status = "pass"
        else:
            self.status = "skipped"
        return self

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "status": self.status,
            "instances_tested": self.instances_tested,
            "instances_skipped": self.instances_skipped,
            "seed": self.seed,
            "failures": self.failures,
            "flagged": self.flagged,
        }


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


def _columns(sets, n: int) -> np.ndarray:
    """Boolean (n, len(sets)) matrix of element sequences: column p marks
    the elements of set p.  It is the transpose of a C-ordered matrix, whose
    rows ``_block_rows`` reads."""
    sets = list(sets)
    sizes = np.fromiter(map(len, sets), np.intp, len(sets))
    out = np.zeros((len(sets), n), bool)
    out[np.arange(len(sets)).repeat(sizes),
        np.fromiter(itertools.chain(*sets), np.intp, sizes.sum())] = True
    return out.T


def _mask_rows(masks, n: int) -> np.ndarray:
    """Boolean (len(masks), n) matrix whose row p marks the set bits of
    ``masks[p]``, bit x standing for element x.  Below order 64 the masks
    are read as int64 words, else as Python ints, each through its
    little-endian bytes."""
    if n < 64:
        data = np.asarray(masks, "<i8").view(np.uint8).reshape(-1, 8)
    else:
        width = (n + 7) // 8
        data = np.frombuffer(b"".join(map(int.to_bytes, masks, itertools.repeat(width),
                                          itertools.repeat("little"))),
                             np.uint8).reshape(-1, width)
    return np.unpackbits(data, axis=1, count=n, bitorder="little").view(bool)


def _pair_columns(A: GroupSubset, B: GroupSubset, bound: str) -> tuple:
    """(group, the (n, 1) boolean columns of A and B) of a nonempty pair in
    one finite group; ``bound`` names the checked bound in the error."""
    g = _same_group(A, B)
    if not isinstance(g, GroupTable):
        raise ValueError(f"the {bound} bound is checked on finite groups only")
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    return g, tuple(_columns([S.elements], g.n) for S in (A, B))


def _all_pairs(subsets: np.ndarray):
    """(A, B) blocks of every pair of columns of subsets, A-major."""
    m = subsets.shape[1]
    for lo in range(0, m * m, PAIR_BLOCK):
        i = np.arange(lo, min(lo + PAIR_BLOCK, m * m))
        yield subsets[:, i // m], subsets[:, i % m]


def _sampled_pairs(n: int, samples: int, rng: random.Random):
    """(A, B) blocks of seeded pairs of nonempty subsets: the pair p of a
    block is draws 2p and 2p + 1 of ``rng.randrange(1, 1 << n)``.  That is
    1 + getrandbits(n), redrawn while it is 2**n - 1; the redraws are made
    after the block's other draws, which keeps the accepted draws, and the
    generator's state, those of the loop."""
    top = (1 << n) - 1
    for lo in range(0, samples, PAIR_BLOCK):
        masks, count = [], 2 * min(PAIR_BLOCK, samples - lo)
        while len(masks) < count:
            masks += [r + 1 for r in map(rng.getrandbits, itertools.repeat(n, count - len(masks)))
                      if r != top]
        rows = _mask_rows(masks, n)
        # Copied to C order: the kernel reads whole rows, twice as fast there.
        yield np.ascontiguousarray(rows[0::2].T), np.ascontiguousarray(rows[1::2].T)


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")


def _pair_blocks(n: int, exhaustive_cap: int, samples: int, seed: int) -> tuple:
    """(blocks, seed to report): every pair of nonempty subsets when n is
    within the cap (seed None), else a seeded sample of pairs."""
    _check_samples(samples)
    if n <= exhaustive_cap:
        return _all_pairs(_mask_rows(np.arange(1, 1 << n), n).T), None
    return _sampled_pairs(n, samples, random.Random(seed)), seed


def _product_counts(group: GroupTable, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``count[c, p] = #{(a, b) in A_p x B_p : a*b = c}`` for boolean (n, P)
    matrices A and B whose column p is the pair p.  One vector step per a
    set in some column of A: row a⁻¹ of the table maps c to a⁻¹c, the b
    with a*b = c."""
    left = np.flatnonzero(A.any(axis=1))
    divide = group.array[group.inverses[left]]
    count = np.zeros(A.shape, np.min_scalar_type(group.n))    # no count exceeds n
    for a, row in zip(left, divide):
        count += A[a] & B[row]
    return count


def _sized_pairs(n: int, max_k: int, samples: int, seed: int):
    """Seeded (a_els, b_els) pairs, |A| = |B| <= max_k, the identity out of B:
    ``k = randint(1, max_k)``, then ``sample(range(n), k)`` and
    ``sample(range(1, n), k)``, sorted, from ``random.Random(seed)``, which
    draws the same from the ranges as lists and copies those without new ints."""
    rng = random.Random(seed)
    below, sample, left, right = rng._randbelow, rng.sample, list(range(n)), list(range(1, n))
    for _ in range(samples):
        k = 1 + below(max_k)
        yield tuple(sorted(sample(left, k))), tuple(sorted(sample(right, k)))


def _members(column) -> list:
    """The elements set in a boolean column, ascending."""
    return np.flatnonzero(column).tolist()


def _pair_graphs(group: GroupTable, pairs):
    """Blocks of up to ``PAIR_BLOCK`` (a_els, b_els) pairs of ascending
    element sequences, each decided by ``_free_first_block`` on its graph
    rows over the whole group (see ``_block_rows``), as (pairs, failed):
    ``failed`` maps the index of each pair without a matching to the
    search's (match_left, match_right, reach)."""
    n, pairs = group.n, iter(pairs)
    while block := list(itertools.islice(pairs, PAIR_BLOCK)):
        a_side, b_side = zip(*block)
        words = _block_rows(group, _columns(a_side, n).T, _columns(b_side, n).T)
        sizes = np.fromiter(map(len, a_side), np.intp, len(block))
        yield block, _free_first_block(words, sizes, n)[1]


# ---------------------------------------------------------------------------
# Product-set lower bound (unique-product hypothesis)


def _kemperman_block(group: GroupTable, A, B) -> tuple:
    """(pairs without a unique product, failure records) for a block of pairs.
    Records are built only for the pairs that break the bound."""
    count = _product_counts(group, A, B)
    unique = count == 1
    met = unique.any(axis=0)
    a_size, b_size = A.sum(axis=0), B.sum(axis=0)
    ab_size = np.count_nonzero(count, axis=0)
    failures = [{
        "kind": "product-bound-violated",
        "A": _members(A[:, p]), "B": _members(B[:, p]),
        "A_size": int(a_size[p]), "B_size": int(b_size[p]), "AB_size": int(ab_size[p]),
        "unique_product": int(unique[:, p].argmax()),
    } for p in np.flatnonzero(met & (ab_size < a_size + b_size - 1))]
    return int(np.count_nonzero(~met)), failures


def check_kemperman(A: GroupSubset, B: GroupSubset) -> CheckReport:
    """Assert |AB| >= |A| + |B| - 1 when AB has a unique-product element."""
    report = CheckReport("kemperman")
    g, columns = _pair_columns(A, B, "unique-product")
    skipped, failures = _kemperman_block(g, *columns)
    if skipped:
        report.flagged.append({"kind": "hypothesis-unmet",
                               "why": "no unique-product element in AB"})
    else:
        report.instances_tested = 1
        report.failures.extend(failures)
    return report.finish()


def sweep_kemperman(group: GroupTable, *, exhaustive_cap: int = DEFAULT_EXHAUSTIVE_PAIR_CAP,
                    samples: int = DEFAULT_SAMPLES, seed: int = 0) -> CheckReport:
    """Run the product-set bound over all nonempty pairs (A, B), or a
    seeded sample of pairs when the group is over the exhaustive cap."""
    report = CheckReport("kemperman")
    blocks, report.seed = _pair_blocks(group.n, exhaustive_cap, samples, seed)
    for A, B in blocks:
        skipped, failures = _kemperman_block(group, A, B)
        report.instances_tested += A.shape[1]
        report.instances_skipped += skipped
        report.failures.extend(failures)
    return report.finish()


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
    report = CheckReport("corollary")
    g = _same_group(U, V, X)
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
        return report.finish()
    record = _corollary_instance(_els(U), _els(V), _els(X), "given")
    report.instances_tested = 1
    if not record["corrected_holds"]:
        report.failures.append({"kind": "corrected-bound-violated", **record})
    if not record["stated_holds"]:
        report.flagged.append({"kind": "stated-bound-counterexample", **record})
    return report.finish()


def sweep_corollary(group: GroupTable, *,
                    order_cap: int = DEFAULT_EXHAUSTIVE_PAIR_CAP) -> CheckReport:
    """Exhaust the containment bound over admissible (U, V) pairs.

    U and V range over nonempty subsets of the non-identity elements; a
    pair is admissible when UV avoids the identity.  Each admissible pair
    is tested against two X choices: the minimal U ∪ V ∪ UV and the full
    complement of the identity.  Stated-bound counterexamples are sorted
    smallest-X first.
    """
    report = CheckReport("corollary")
    n = group.n
    if n > order_cap:
        raise SizeLimit("containment-bound sweep", n, order_cap)
    # U and V are subsets of the non-identity elements: the even masks.
    subsets = _mask_rows(np.arange(2, 1 << n, 2), n).T
    x_full = list(range(1, n))
    stated = []
    for U, V in _all_pairs(subsets):
        uv = _product_counts(group, U, V) > 0
        skipped = int(np.count_nonzero(uv[0]))
        report.instances_tested += skipped
        report.instances_skipped += skipped
        for p in np.flatnonzero(~uv[0]):
            u, v = _members(U[:, p]), _members(V[:, p])
            for record in (_corollary_instance(u, v, _members(U[:, p] | V[:, p] | uv[:, p]),
                                               "minimal"),
                           _corollary_instance(u, v, x_full, "full")):
                report.instances_tested += 1
                if not record["corrected_holds"]:
                    report.failures.append({"kind": "corrected-bound-violated", **record})
                if not record["stated_holds"]:
                    stated.append({"kind": "stated-bound-counterexample", **record})
    stated.sort(key=lambda r: (r["X_size"], r["U_size"], r["V_size"],
                               r["X"], r["U"], r["V"]))
    report.flagged.extend(stated)
    return report.finish()


# ---------------------------------------------------------------------------
# Subgroup-invariant subset bound


@lru_cache(maxsize=32)
def _orbit_table(group: GroupTable, subgroup_cap: int) -> tuple:
    """The witness searches in order, each subgroup H with its left orbits Ht
    before its right orbits tH; cached per group and cap, since every Olson
    check searches them all, for more groups than the 20 that the catalog
    benchmark cycles through.  Returns (searches, indicator, edges, sizes,
    members): ``searches[s]`` is (H's elements, side); ``indicator`` has one
    boolean row per orbit over the elements, and the rows of search s run
    from ``edges[s]`` to ``edges[s + 1]``; ``sizes`` holds each row's orbit
    size, |H|, as int16; ``members`` pairs, for each orbit size h, the rows
    of that size with the (rows, h) matrix of their elements, ascending.
    Each element is labelled by the least element of its orbit, so an orbit
    is named by the one element that is its own label."""
    subgroups = enumerate_subgroups(group, subgroup_cap)
    n, arr = group.n, group.array
    member = np.zeros((len(subgroups), n, 1), bool)
    for i, H in enumerate(subgroups):
        member[i, list(H.elements)] = True
    # labels[s, c] is the least h*c (left) or c*h (right) over h in H; n - 1
    # stands in for h outside H, as no label exceeds it.
    labels = np.stack([np.where(member, arr, n - 1).min(axis=1),
                       np.where(member, arr.T, n - 1).min(axis=1)], axis=1).reshape(-1, n)
    search, root = np.nonzero(labels == np.arange(n))
    indicator = labels[search] == root[:, None]
    sizes = np.count_nonzero(indicator, axis=1).astype(np.int16)
    members = []
    for h in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == h)
        members.append((rows, np.nonzero(indicator[rows])[1].reshape(len(rows), h)))
    searches = tuple((H.elements, side) for H in subgroups for side in ("left", "right"))
    edges = np.searchsorted(search, np.arange(len(searches) + 1))
    # The cache shares these arrays between calls.
    for a in (indicator, edges, sizes, *itertools.chain(*members)):
        a.flags.writeable = False
    return searches, indicator, edges, sizes, members


def _olson_block(table: tuple, A, B, ab) -> tuple:
    """(found, inside) for a block of pairs with product sets ``ab``:
    ``found[s, p]`` says search s yields a witness for pair p, and
    ``inside[r, p]`` that orbit r is inside AB, read as all of its members
    in AB, over the orbits of each size at once.  The largest H-invariant T
    inside AB is the union of the orbits inside it, so this is complete.
    Every orbit of a search has |H| elements."""
    _, _, edges, sizes, members = table
    inside = np.empty((len(sizes), ab.shape[1]), bool)
    for rows, elements in members:
        inside[rows] = ab[elements].all(axis=1)
    # int16 throughout: reduceat would widen to int64, and no T exceeds n.
    t_size = np.add.reduceat(inside * sizes[:, None], edges[:-1], axis=0, dtype=np.int16)
    h_size = sizes[edges[:-1], None]
    need = A.sum(axis=0) + B.sum(axis=0)
    return (t_size > 0) & (t_size >= need - h_size), inside


def check_olson(A: GroupSubset, B: GroupSubset, *,
                subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> CheckReport:
    """Search all subgroups for an invariant-subset witness of the bound
    |AB| >= |T| >= |A| + |B| - |H|."""
    report = CheckReport("olson", instances_tested=1)
    g, (a_col, b_col) = _pair_columns(A, B, "invariant-subset")
    table = _orbit_table(g, subgroup_cap)
    found, inside = _olson_block(table, a_col, b_col, _product_counts(g, a_col, b_col) > 0)
    if not found.any():
        report.failures.append({"kind": "no-witness", "A": _els(A), "B": _els(B)})
    else:
        searches, indicator, edges, _, _ = table
        s = int(found[:, 0].argmax())
        rows = slice(edges[s], edges[s + 1])
        t_els = _members(indicator[rows][inside[rows, 0]].any(axis=0))
        h_els, side = searches[s]
        report.flagged.append({
            "kind": "olson-witness",
            "H": _els(h_els), "T": t_els,
            "side": side,
            "T_size": len(t_els),
            "bound": len(A) + len(B) - len(h_els),
        })
    return report.finish()


def sweep_olson(group: GroupTable, *, exhaustive_cap: int = DEFAULT_EXHAUSTIVE_PAIR_CAP,
                samples: int = DEFAULT_SAMPLES, seed: int = 0,
                subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> CheckReport:
    """Witness search over all nonempty pairs (exhaustive up to the cap,
    seeded samples above it)."""
    report = CheckReport("olson")
    table = _orbit_table(group, subgroup_cap)
    blocks, report.seed = _pair_blocks(group.n, exhaustive_cap, samples, seed)
    for A, B in blocks:
        found = _olson_block(table, A, B, _product_counts(group, A, B) > 0)[0]
        report.instances_tested += A.shape[1]
        report.failures.extend({"kind": "no-witness",
                                "A": _members(A[:, p]), "B": _members(B[:, p])}
                               for p in np.flatnonzero(~found.any(axis=0)))
    return report.finish()


# ---------------------------------------------------------------------------
# Automatching: a matching A -> A exists iff the identity is outside A


def _automatching_block(group: GroupTable, A: np.ndarray) -> list:
    """The failure records of a block of pairs (A, A), A_p marked by row p
    of the boolean (P, n) matrix A, in block order.  ``_free_first_block``
    decides every instance as ``find_matching``'s search does, on the
    block's graph rows, whose right side is the whole group.  Its matchings
    are checked together: one sort of their right elements finds each φ not
    onto A, and one ``mul(a, φ(a))`` call per distinct pair of the block,
    each product looked up in the row of every A that holds the pair, finds
    each φ with a product in A.  ``_matching_fault`` words each one found."""
    n = group.n
    sizes = np.count_nonzero(A, axis=1)
    images, failed = _free_first_block(_block_rows(group, A, A), sizes, n)
    records = {}
    for p, entry in failed.items():
        a_els = _members(A[p])
        records[p] = {"kind": "automatching-violator", "A": _els(a_els),
                      **violator_json(_extract_violator(group, a_els, range(n), *entry))}
    pair, lefts = np.nonzero(A)
    if failed:
        broken = np.zeros(len(A), bool)
        broken[list(failed)] = True
        matched = ~broken[pair]
        pair, lefts, images = pair[matched], lefts[matched], images[matched]
    # mul runs once per distinct (a, φ(a)), coded a * n + φ(a), and its
    # products are gathered back to every pair that holds it.
    codes = lefts * n + images
    distinct = np.flatnonzero(np.bincount(codes, minlength=n * n))
    a, x = np.divmod(distinct, n)
    products = np.zeros(n * n, np.intp)
    products[distinct] = np.fromiter(map(group.mul, a.tolist(), x.tolist()), np.intp, len(a))
    products = products[codes]
    # The keys of a pair lie in [pair * n, pair * n + n), so the sort keeps
    # them in their pair's span, where they equal A's iff φ is onto A.
    keys = np.sort(pair * n + images)
    faulty = np.zeros(len(A), bool)
    faulty[pair[keys != pair * n + lefts]] = True
    faulty[pair[A[pair, products]]] = True
    for p in np.flatnonzero(faulty).tolist():
        a_els = _members(A[p])
        a_set = frozenset(a_els)
        image = images[pair == p].tolist()
        why = _matching_fault(group, a_set, a_set, tuple(zip(a_els, image)))
        records[p] = {"kind": "invalid-matching", "A": _els(a_els), "why": why}
    return [records[p] for p in sorted(records)]


def check_automatching(group: GroupTable, *, order_cap: int = DEFAULT_AUTOMATCHING_CAP,
                       jobs: int = 1) -> CheckReport:
    """Exhaust every nonempty identity-free A and require a matching A -> A.

    A runs over the even masks 2, 4, ..., 2**n - 2, bit x standing for
    element x, so the identity 0 is outside each.  The masks are int64, so
    the order must be at most 63 as well as within ``order_cap``.  Each
    block of ``PAIR_BLOCK`` of them is unpacked into one boolean matrix,
    which ``_automatching_block`` decides and checks.

    The converse direction is confirmed alongside: for every A containing
    the identity (up to ``IDENTITY_CONFIRMATION_CAP`` elements), the engine
    reports the structured identity error and the brute-force oracle finds
    no valid bijection.  Those confirmations are flagged, not counted as
    instances.

    ``jobs`` is accepted and ignored: every instance runs in this process.
    It is kept only because ``pool_row`` in ``perfbench/run.py`` calls this
    check with ``jobs=2``, and CI's traced benchmark smoke test runs that
    row.  It goes when the benchmark definition drops ``pool_row``.
    """
    report = CheckReport("automatching")
    n = group.n
    if n > order_cap:
        raise SizeLimit("automatching sweep", n, order_cap)
    if n > 63:      # the last block stops at 2**n - 1, the largest int64 at n = 63
        raise SizeLimit("automatching sweep masks", n, 63)
    top = (1 << n) - 1
    report.instances_tested = top // 2
    for lo in range(2, top, 2 * PAIR_BLOCK):
        A = _mask_rows(np.arange(lo, min(lo + 2 * PAIR_BLOCK, top), 2), n)
        report.failures.extend(_automatching_block(group, A))

    confirmations = 0
    for k in range(0, min(IDENTITY_CONFIRMATION_CAP - 1, n - 1) + 1):
        for rest in itertools.combinations(range(1, n), k):
            # (0, *rest) is ascending, distinct and valid already.
            A = GroupSubset._ascending(group, (0, *rest))
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
    return report.finish()


# ---------------------------------------------------------------------------
# Matching-property classification


def _violator_record(a_els, b_els, violator: HallViolator) -> dict:
    """The record of an unmatchable pair (A, B) and its Hall violator."""
    return {"A": _els(a_els), "B": _els(b_els), **violator_json(violator)}


def _certificate_fault(group: GroupTable, record: dict) -> str | None:
    """Why a violator record does not prove that its pair (A, B) admits no
    matching, or None when it does.  Rechecked from ``group.mul`` alone, not
    from the engine: (A, B) is an instance, S is inside A, N(S) is recomputed
    over B, and |S| - |N(S)| is the reported deficiency, at least 1; when
    |A| is within the brute-force cap, no bijection is valid either."""
    mul, a_els, b_els, s_els = group.mul, record["A"], record["B"], record["S"]
    a_set = set(a_els)
    if len(a_els) != len(b_els) or group.identity in b_els:
        return "not an instance: |A| differs from |B| or B holds the identity"
    if not a_set.issuperset(s_els):
        return "S is not contained in A"
    neighborhood = [b for b in b_els if any(mul(s, b) not in a_set for s in s_els)]
    if neighborhood != record["neighborhood"]:
        return f"N(S) recomputed over B is {neighborhood}"
    deficiency = len(s_els) - len(neighborhood)
    if deficiency < 1 or deficiency != record["deficiency"]:
        return f"|S| - |N(S)| is {deficiency}"
    if len(a_els) <= BRUTE_FORCE_CAP and _brute_force(mul, a_els, a_set, b_els) is not None:
        return "the brute-force oracle finds a matching"
    return None


def _failing_pairs(group: GroupTable, instances) -> tuple:
    """(pairs tested, pairs failed, record of the minimal failing pair or
    None) over the instances, decided block by block by ``_pair_graphs``.
    The minimal pair is the least by |A|, then lexicographically, and its
    record, from the search's maximum matching, is the only one."""
    tested, failed, least = 0, 0, None
    for block, unmatched in _pair_graphs(group, instances):
        tested += len(block)
        failed += len(unmatched)
        for p, entry in unmatched.items():
            key = len(block[p][0]), block[p]
            if least is None or key < least[0]:
                least = key, entry
    if least is None:
        return tested, failed, None
    (_, (a_els, b_els)), entry = least
    violator = _extract_violator(group, a_els, range(group.n), *entry)
    return tested, failed, _violator_record(a_els, b_els, violator)


def check_matching_property(group: GroupTable, *, samples: int = DEFAULT_SAMPLES, seed: int = 0,
                            order_cap: int = DEFAULT_PROPERTY_ORDER_CAP) -> CheckReport:
    """Compare the observed matching property with the classification,
    over pairs (A, B) with |A| = |B| and the identity outside B.

    The ``mode`` of the outcome record depends on the order:

    - ``exhaustive`` up to ``PROPERTY_EXHAUSTIVE_CAP``: every pair is
      tested, and ``property_holds`` says whether all of them match.
    - ``certificate`` above it, at a composite order, where one unmatchable
      pair proves that the property fails: the pair of
      ``construct_counterexample``, the one instance tested, whose Hall
      violator is rechecked by ``_certificate_fault`` before it is
      reported.  A record that fails the recheck is a failure and refutes
      nothing.
    - ``sampled`` above it, at a prime order: ``samples`` seeded pairs.  A
      failing pair refutes the property; none leaves ``property_holds``
      null, meaning "not refuted".

    Failing pairs are counted, and the minimal one is flagged (see
    ``_failing_pairs``).  A run that tests no pair (``samples=0`` at a
    prime order above the cap) finishes skipped with ``property_holds``
    null.  A verdict that differs from the prediction is a classification
    mismatch.
    """
    report = CheckReport("matching-property")
    _check_samples(samples)
    n = group.n
    if n > order_cap:
        raise SizeLimit("matching-property sweep", n, order_cap)
    predicted = classify(group).predicted_matching_property
    if n <= PROPERTY_EXHAUSTIVE_CAP:
        mode = "exhaustive"
        report.instances_tested, failed, minimal = _failing_pairs(group, (
            (a_els, b_els)
            for k in range(1, n)
            for a_els in itertools.combinations(range(n), k)
            for b_els in itertools.combinations(range(1, n), k)))
    elif predicted:
        mode, report.seed = "sampled", seed
        report.instances_tested, failed, minimal = _failing_pairs(
            group, _sized_pairs(n, n - 1, samples, seed))
    else:
        mode = "certificate"
        pair = construct_counterexample(group)
        minimal = _violator_record(pair.left, pair.right, pair.violator)
        report.instances_tested, failed = 1, 1
        why = _certificate_fault(group, minimal)
        if why is not None:
            report.failures.append({"kind": "invalid-certificate", **minimal, "why": why})
            failed, minimal = 0, None
    if failed:
        property_holds = False
    elif mode == "exhaustive" and report.instances_tested:
        property_holds = True
    else:
        property_holds = None     # not refuted
    report.flagged.append({
        "kind": "matching-property-outcome",
        "mode": mode,
        "predicted": predicted,
        "property_holds": property_holds,
        "pairs_failed": failed,
        "counterexample": minimal,
    })
    if property_holds is not None and property_holds != predicted:
        report.failures.append({
            "kind": "classification-mismatch",
            "predicted": predicted,
            "property_holds": property_holds,
            "counterexample": minimal,
        })
    return report.finish()


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


class _LatticeCodes:
    """Z^d points as balanced mixed-radix ints: the point c has the code
    Σ c_i·R^(d-1-i), R = 4·bound + 1.  Codes of points in [-bound, bound]^d
    sort as the points do, lexicographically, and on [-2·bound, 2·bound]^d,
    which holds every sum of two such points, the code is one-to-one and
    adds as the points do.  So the law is int addition, exact; ``point``
    decodes for the records, ``label`` for ``_matching_fault``'s message."""

    mul = staticmethod(operator.add)

    def __init__(self, d: int, bound: int):
        self.lattice, self.radix = LatticeGroup(d), 4 * bound + 1

    def point(self, code: int) -> tuple:
        half, coordinates = self.radix // 2, []
        for _ in range(self.lattice.d):
            code, digit = divmod(code + half, self.radix)
            coordinates.append(digit - half)
        return tuple(reversed(coordinates))

    def label(self, code: int) -> str:
        return self.lattice.label(self.point(code))

    def json(self, codes) -> list:
        return _els(map(self.point, codes))


def _lattice_pairs(d: int, trials: int, max_size: int, bound: int, seed: int):
    """Seeded (a_els, b_els) pairs of ascending ``_LatticeCodes`` of Z^d
    points, |A| = |B| <= max_size, zero out of B: ``k = randint(1,
    max_size)``, then points of d ``randint(-bound, bound)`` until A, then
    B, has k, from ``Random(seed)``."""
    below = random.Random(seed)._randbelow
    width, radix = 2 * bound + 1, _LatticeCodes(d, bound).radix
    for _ in range(trials):
        k = 1 + below(max_size)
        sides = []
        for zero_allowed in (True, False):
            points = set()
            while len(points) < k:
                code = 0
                for _ in range(d):
                    code = code * radix + below(width) - bound
                if code or zero_allowed:
                    points.add(code)
            sides.append(tuple(sorted(points)))
        yield tuple(sides)


def check_lattice_matching(d: int, trials: int, *, max_size: int = 8,
                           coordinate_bound: int = 10, seed: int = 0) -> CheckReport:
    """Sample |A| = |B| <= max_size lattice subsets (zero kept out of B) and
    require a matching every time; instances of size <= LATTICE_CONFIRMATION_CAP
    are also confirmed against the brute-force bijection oracle.  Trials run
    on ``_LatticeCodes`` through the cores of ``find_matching``,
    ``verify_matching`` and ``brute_force_matching``, whose input checks the
    sampler already meets; each trial checks the matching or violator that
    ``find_matching`` would return."""
    report = CheckReport("lattice-matching", seed=seed)
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    if max_size > DEFAULT_LATTICE_SIZE_CAP:
        raise SizeLimit("lattice instance size", max_size, DEFAULT_LATTICE_SIZE_CAP)
    if coordinate_bound < 0:
        raise ValueError(f"coordinate_bound must be at least 0, got {coordinate_bound}")
    codes = _LatticeCodes(d, coordinate_bound)
    if (2 * coordinate_bound + 1) ** d <= max_size:
        raise ValueError("coordinate_bound too small for the requested subset size")
    add, els = codes.mul, codes.json
    confirmed = 0
    for a_els, b_els in _lattice_pairs(d, trials, max_size, coordinate_bound, seed):
        a_set = frozenset(a_els)
        result = _graph_result(codes, a_els, b_els, _python_rows(add, a_els, a_set, b_els))
        report.instances_tested += 1
        matched = isinstance(result, Matching)
        if not matched:
            report.failures.append({
                "kind": "lattice-violator", "A": els(a_els), "B": els(b_els),
                "S": els(result.subset), "deficiency": result.deficiency})
        elif _matching_fault(codes, a_set, frozenset(b_els), result.pairs) is not None:
            report.failures.append({"kind": "invalid-matching", "A": els(a_els), "B": els(b_els)})
        if len(a_els) <= LATTICE_CONFIRMATION_CAP:
            brute = _brute_force(add, a_els, a_set, b_els) is not None
            if brute != matched:
                report.failures.append({
                    "kind": "oracle-disagreement", "A": els(a_els), "B": els(b_els),
                    "engine": matched, "brute_force": brute})
            else:
                confirmed += 1
    report.flagged.append({"kind": "brute-force-confirmations", "count": confirmed})
    return report.finish()


# ---------------------------------------------------------------------------
# Three-way cross-validation: engine, brute force, Hall inequalities


# Per |A| = k up to HALL_MAX_SIZE, the steps that double over the nonempty
# S inside A, ascending by mask (bit i for a_i): (S, S less its lowest bit,
# that bit's index, |S|, k - |S|).  _HALL_BITS[j] marks b_j in a row over B.
_HALL_STEPS = tuple(tuple((s, s & (s - 1), (s & -s).bit_length() - 1, s.bit_count(),
                           k - s.bit_count()) for s in range(1, 1 << k))
                    for k in range(HALL_MAX_SIZE + 1))
_HALL_BITS = tuple(1 << j for j in range(HALL_MAX_SIZE))


def cross_validate_hall(A: GroupSubset, B: GroupSubset) -> bool:
    """Agreement of the engine, the bijection oracle, and Hall's condition.

    Hall's condition is evaluated in both equivalent forms for every
    nonempty S inside A: the union form |union of candidate sets| >= |S|
    and the complement form |stable set| <= |A| - |S|.  Returns the common
    verdict; raises CrossValidationError if any route disagrees.
    """
    g = _equal_pair_group(A, B)
    if len(A) > HALL_MAX_SIZE:
        raise SizeLimit("Hall cross-validation", len(A), HALL_MAX_SIZE)
    if g.identity in B:
        raise IdentityInB("B contains the identity")
    engine = isinstance(find_matching(A, B), Matching)
    verdict, why = _hall_outcome(g.mul, A.elements, B.elements, engine)
    if why is not None:
        raise CrossValidationError(why)
    return verdict


def _hall_outcome(mul, a_els, b_els, engine_ok: bool) -> tuple:
    """cross_validate_hall after its input checks, on ascending a_els and
    b_els, |A| = |B|, with the engine's verdict from the free-first search
    that decides ``find_matching``: (the common verdict, None) or (None, why
    the routes disagree).  The brute-force oracle calls ``mul`` first.  Then
    ``reach[i]`` marks the b that a_i sends outside A, from products a then
    b ascending (a-major), and ``keep[i]`` the b that a_i keeps inside A,
    from products of its own, b then a ascending (b-major), so that a law of
    period 2 can make the forms disagree at even |A|.  The union of the
    candidate sets of S and its stable set double over S's lowest bit; the
    S named when the forms disagree is the least mask."""
    a_set, k = frozenset(a_els), len(a_els)
    brute_ok = _brute_force(mul, a_els, a_set, b_els) is not None
    reach = []
    for a in a_els:
        row = 0
        for b, bit in zip(b_els, _HALL_BITS):
            if mul(a, b) not in a_set:
                row |= bit
        reach.append(row)
    keep = [0] * k
    for b, bit in zip(b_els, _HALL_BITS):
        for i, a in enumerate(a_els):
            if mul(a, b) in a_set:
                keep[i] |= bit
    union, stable = [0] * (1 << k), [(1 << k) - 1] * (1 << k)
    hall_ok = True
    for s, rest, i, size, co_size in _HALL_STEPS[k]:
        union[s] = reached = union[rest] | reach[i]
        stable[s] = kept = stable[rest] & keep[i]
        union_ok = reached.bit_count() >= size
        if union_ok != (kept.bit_count() <= co_size):
            s_els = [a_els[j] for j in _bits(s)]
            return None, (f"Hall forms disagree on S = {s_els}: "
                          f"union {union_ok}, complement {not union_ok}")
        if not union_ok:
            hall_ok = False
    if not (engine_ok == brute_ok == hall_ok):
        return None, f"routes disagree: engine={engine_ok} brute={brute_ok} hall={hall_ok}"
    return engine_ok, None


def sweep_hall(group: GroupTable, *, samples: int = DEFAULT_HALL_SAMPLES,
               seed: int = 0) -> CheckReport:
    """Seeded random instances of the three-way Hall cross-validation."""
    report = CheckReport("hall", seed=seed)
    _check_samples(samples)
    if group.n < 2:
        return report.finish()
    # Each distinct pair is decided once.  Every draw counts, and a failing
    # pair appends its record at every draw, for which the draws are redone.
    draws = (group.n, min(HALL_MAX_SIZE, group.n - 1), samples, seed)
    outcomes = dict.fromkeys(_sized_pairs(*draws))
    for block, failed in _pair_graphs(group, outcomes):
        for p, (a_els, b_els) in enumerate(block):
            why = _hall_outcome(group.mul, a_els, b_els, p not in failed)[1]
            if why is not None:
                outcomes[a_els, b_els] = {"kind": "cross-validation-disagreement",
                                          "A": _els(a_els), "B": _els(b_els), "why": why}
    report.instances_tested = samples
    if any(outcomes.values()):
        report.failures.extend(filter(None, map(outcomes.get, _sized_pairs(*draws))))
    return report.finish()
