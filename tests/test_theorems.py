import collections
import dataclasses
import gc
import hashlib
import itertools
import random
import re
import statistics
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupmatch import (
    CATALOG_SPECS,
    CrossValidationError,
    EmptyInput,
    GroupSubset,
    GroupTable,
    HallViolator,
    IdentityInB,
    LatticeGroup,
    Matching,
    NotApplicable,
    SizeLimit,
    SizeMismatch,
    brute_force_matching,
    catalog,
    check_automatching,
    check_corollary,
    check_kemperman,
    check_lattice_matching,
    check_matching_property,
    check_olson,
    classify,
    construct_counterexample,
    cross_validate_hall,
    enumerate_subgroups,
    find_matching,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    parse_group_spec,
    sweep_corollary,
    sweep_hall,
    sweep_kemperman,
    sweep_olson,
    verify_matching,
)
from groupmatch import theorems
from groupmatch.cli import main
from groupmatch import matching
from groupmatch.matching import (_bit_length, _bits, _block_rows, _free_first_block,
                                 _free_first_matching, _graph_result)
from groupmatch.reports import elements_json
from groupmatch.subsets import candidate_set, product_set, stable_set, unique_products
from groupmatch.theorems import (DEFAULT_AUTOMATCHING_CAP, DEFAULT_HALL_SAMPLES, HALL_MAX_SIZE,
                                 PAIR_BLOCK, PROPERTY_EXHAUSTIVE_CAP, _automatching_block,
                                 _columns, _failing_pairs, _mask_rows, _pair_graphs,
                                 _product_counts, _sampled_pairs, _sized_pairs)


def subset(group, els):
    return GroupSubset(group, els)


def assert_report_invariant(report):
    if report.status == "pass":
        assert not report.failures and report.instances_tested > 0
    elif report.status == "fail":
        assert report.failures
    else:
        assert report.status == "skipped" and report.instances_tested == 0


class TestKemperman:
    def test_c6_instance(self):
        c6 = make_cyclic(6)
        r = check_kemperman(subset(c6, [0, 1]), subset(c6, [0, 2]))
        assert r.status == "pass" and r.instances_tested == 1

    def test_singleton_equality_case(self):
        q8 = make_quaternion()
        r = check_kemperman(subset(q8, [2]), subset(q8, [0, 1, 3]))
        assert r.status == "pass"

    def test_skipped_when_no_unique_product(self):
        c2 = make_cyclic(2)
        r = check_kemperman(subset(c2, [0, 1]), subset(c2, [0, 1]))
        assert r.status == "skipped"
        assert r.instances_tested == 0
        assert r.flagged[0]["kind"] == "hypothesis-unmet"

    def test_empty_inputs_rejected(self):
        c2 = make_cyclic(2)
        with pytest.raises(EmptyInput):
            check_kemperman(subset(c2, []), subset(c2, [1]))

    def test_lattice_pair_rejected(self):
        z2 = LatticeGroup(2)
        with pytest.raises(ValueError, match="finite groups only"):
            check_kemperman(subset(z2, [(0, 0)]), subset(z2, [(1, 0)]))

    def test_sweep_c5_counts(self):
        r = sweep_kemperman(make_cyclic(5))
        assert r.status == "pass"
        assert r.instances_tested == 31 * 31
        assert not r.failures

    def test_sweep_c2_counts_skips_separately(self):
        r = sweep_kemperman(make_cyclic(2))
        assert r.status == "pass"
        assert r.instances_tested == 9
        assert r.instances_skipped == 1

    def test_sweep_d3(self):
        r = sweep_kemperman(make_dihedral(3))
        assert r.status == "pass" and not r.failures

    def test_sampled_mode_is_seeded(self):
        q8 = make_quaternion()
        r1 = sweep_kemperman(q8, samples=50, seed=5)
        r2 = sweep_kemperman(q8, samples=50, seed=5)
        assert r1.seed == 5
        assert r1.to_dict() == r2.to_dict()

    def test_sweep_failure_records_are_pinned(self, monkeypatch):
        # Every product count read as 1 at the identity alone: AB = {0} has
        # a unique product, so each pair of C2 with |A| + |B| > 2 fails.
        def counts(group, A, B):
            count = np.zeros(A.shape, np.uint8)
            count[0] = 1
            return count

        monkeypatch.setattr(theorems, "_product_counts", counts)
        r = sweep_kemperman(make_cyclic(2))
        assert (r.status, r.instances_tested, r.instances_skipped) == ("fail", 9, 0)
        assert r.failures == [
            {"kind": "product-bound-violated", "A": a, "B": b, "A_size": len(a),
             "B_size": len(b), "AB_size": 1, "unique_product": 0}
            for a, b in [([0], [0, 1]), ([1], [0, 1]), ([0, 1], [0]), ([0, 1], [1]),
                         ([0, 1], [0, 1])]]


def all_pairs(group):
    subsets = [subset(group, _bits(m)) for m in range(1, 1 << group.n)]
    return itertools.product(subsets, subsets)


def seeded_pairs(group, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield (subset(group, _bits(rng.randrange(1, 1 << group.n))),
               subset(group, _bits(rng.randrange(1, 1 << group.n))))


class TestSampledPairs:
    """The block sampler, which redraws a block's rejected draws after its
    other draws, yields what per-draw ``randrange(1, 1 << n)`` calls draw, A
    then B, and leaves the generator in the same state.  n <= 3 often draws
    2**n - 1 and redraws; the counts around PAIR_BLOCK cross a block edge;
    n = 63 and 64 sit on either side of ``_mask_rows``' switch from int64
    words to bytes, and n = 31..33, 64, 65 and 100 cross getrandbits' word
    edges."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 14, 24, 31, 32, 33, 63, 64, 65, 100])
    def test_blocks_and_state_equal_per_draw_loop(self, n):
        for seed in (0, 7):
            for samples in (0, 1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1, 2000):
                bulk, loop = random.Random(seed), random.Random(seed)
                got = list(_sampled_pairs(n, samples, bulk))
                sizes = [min(PAIR_BLOCK, samples - lo) for lo in range(0, samples, PAIR_BLOCK)]
                assert [A.shape for A, _ in got] == [(n, size) for size in sizes]
                for (A, B), size in zip(got, sizes):
                    a_masks, b_masks = zip(*[(loop.randrange(1, 1 << n), loop.randrange(1, 1 << n))
                                             for _ in range(size)])
                    assert np.array_equal(A, _columns(map(_bits, a_masks), n))
                    assert np.array_equal(B, _columns(map(_bits, b_masks), n))
                assert bulk.getstate() == loop.getstate()

    @pytest.mark.parametrize("n", [1, 7, 33, 63, 64, 65, 100, 128])
    def test_mask_rows_mark_the_set_bits(self, n):
        # int64 arrays below order 64, Python ints from order 64 up.
        rng = random.Random(n)
        masks = [rng.randrange(1, 1 << n) for _ in range(200)] + [1, (1 << n) - 1]
        rows = _mask_rows(np.array(masks, np.int64) if n < 64 else masks, n)
        assert np.array_equal(rows, _columns(map(_bits, masks), n).T)


def per_draw_lattice_pairs(d, trials, max_size, bound, seed):
    """The lattice draws as per-call randint loops on one generator."""
    rng = random.Random(seed)
    zero = (0,) * d

    def point():
        return tuple(rng.randint(-bound, bound) for _ in range(d))

    for _ in range(trials):
        k = rng.randint(1, max_size)
        a_els: set = set()
        while len(a_els) < k:
            a_els.add(point())
        b_els: set = set()
        while len(b_els) < k:
            p = point()
            if p != zero:
                b_els.add(p)
        yield tuple(sorted(a_els)), tuple(sorted(b_els))


class TestWordReaderSamplers:
    """The Hall and lattice samplers draw through their generator's own
    _randbelow and must draw what per-call randint and sample loops draw.
    n = 22 puts B's population at sample's pool limit of 21 and A's just
    above it; at n = 100, k = 6..21 lies above the pool limit of
    21 + 4 ** ceil(log4(3k)) and k = 22.. below it, and n = 86 puts B's
    population at that limit, 85, for k = 6..21; max_k = 1 and the lattice
    bound 1 redraw often, and bound 2 ** 40 draws 42-bit coordinates."""

    @pytest.mark.parametrize("n", [2, 6, 14, 21, 22, 23, 30, 86, 100])
    def test_sized_pairs_equal_per_draw_loop(self, n):
        for max_k in sorted({1, min(5, n - 1), n - 1}):
            for seed in range(32):
                rng = random.Random(seed)
                expected = []
                for _ in range(25):
                    k = rng.randint(1, max_k)
                    expected.append((tuple(sorted(rng.sample(range(n), k))),
                                     tuple(sorted(rng.sample(range(1, n), k)))))
                assert list(_sized_pairs(n, max_k, 25, seed)) == expected, (max_k, seed)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_lattice_pairs_equal_per_draw_loop(self, d):
        # The sampler yields codes; decoded, they are the loop's points.
        for bound in (1, 2, 10, 2 ** 40):
            point = theorems._LatticeCodes(d, bound).point
            for max_size in range(1, 11):
                if (2 * bound + 1) ** d <= max_size:
                    continue    # the check rejects a bound this small
                for seed in (0, 1, 7):
                    args = (d, 20, max_size, bound, seed)
                    decoded = [tuple(tuple(map(point, side)) for side in pair)
                               for pair in theorems._lattice_pairs(*args)]
                    assert decoded == list(per_draw_lattice_pairs(*args)), args


def lattice_code(p, bound):
    """The balanced mixed-radix code of a point: sum of p_i * R^(d-1-i)."""
    radix = 4 * bound + 1
    return sum(c * radix ** (len(p) - 1 - i) for i, c in enumerate(p))


@st.composite
def lattice_point_pairs(draw):
    """(bound, p, q): two points of one Z^d, d <= 4, coordinates in
    [-bound, bound], the ends +-bound drawn often."""
    d = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([1, 2, 10, 2 ** 40]) | st.integers(1, 2 ** 40))
    coordinate = st.sampled_from([-bound, bound]) | st.integers(-bound, bound)
    p, q = (draw(st.tuples(*[coordinate] * d)) for _ in range(2))
    return bound, p, q


class TestLatticeCodes:
    @given(lattice_point_pairs())
    @example((2 ** 40, (2 ** 40, -2 ** 40, 2 ** 40, -2 ** 40),
              (2 ** 40, -2 ** 40, -2 ** 40, 2 ** 40)))
    @example((2 ** 40, (-2 ** 40,) * 4, (-2 ** 40,) * 4))
    @example((1, (1, -1, 0, 1), (1, -1, 1, -1)))
    @settings(max_examples=300, deadline=None)
    def test_codes_sort_and_add_as_points(self, case):
        # Sums reach +-2 * bound per coordinate; the code must stay exact.
        bound, p, q = case
        codes = theorems._LatticeCodes(len(p), bound)
        cp, cq = lattice_code(p, bound), lattice_code(q, bound)
        assert (cp < cq) == (p < q) and (cp == cq) == (p == q)
        assert codes.point(cp) == p and codes.point(cq) == q
        total = tuple(a + b for a, b in zip(p, q))
        assert codes.mul(cp, cq) == lattice_code(total, bound)
        assert codes.point(cp + cq) == total
        assert codes.label(cp + cq) == LatticeGroup(len(p)).label(total)


class TestProductKernel:
    @pytest.mark.parametrize("spec,pairs", [
        ("D3", None), ("Q8", 500), ("C2xC4", 500),
        ("C720", [([1, 2], [3, 5]), ([0, 359, 719], [1, 360, 361])]),
    ])
    def test_masks_equal_subset_algebra(self, spec, pairs):
        g = parse_group_spec(spec)
        if pairs is None:
            instances = all_pairs(g)
        elif isinstance(pairs, int):
            instances = seeded_pairs(g, pairs, seed=1)
        else:
            instances = [(subset(g, a), subset(g, b)) for a, b in pairs]
        for A, B in instances:
            count = _product_counts(g, _columns([A.elements], g.n), _columns([B.elements], g.n))[:, 0]
            assert np.flatnonzero(count).tolist() == list(product_set(A, B).elements)
            assert (np.flatnonzero(count == 1).tolist()
                    == [w.value for w in unique_products(A, B)])

    @pytest.mark.parametrize("spec,pairs,seed", [("D3", None, None), ("D5", 400, 3),
                                                 ("C14", 400, 8)])
    def test_sweep_skips_pairs_without_unique_products(self, spec, pairs, seed):
        g = parse_group_spec(spec)
        if pairs is None:
            r, instances = sweep_kemperman(g), all_pairs(g)
        else:
            r = sweep_kemperman(g, samples=pairs, seed=seed)
            instances = seeded_pairs(g, pairs, seed)
        bare = sum(not unique_products(A, B) for A, B in instances)
        assert r.status == "pass" and r.instances_skipped == bare > 0

    @pytest.mark.parametrize("spec", ["C8", "C2xC4", "C2xC2xC2", "D4", "Q8"])
    def test_order_8_exhaustive(self, spec):
        g = parse_group_spec(spec)
        for sweep in (sweep_kemperman, sweep_olson):
            r = sweep(g, exhaustive_cap=8)
            assert r.status == "pass" and r.instances_tested == 255 ** 2 and r.seed is None


class TestCorollary:
    def test_c3_refutes_stated_bound(self):
        c3 = make_cyclic(3)
        r = check_corollary(subset(c3, [1]), subset(c3, [1]), subset(c3, [1, 2]))
        assert r.status == "pass"          # corrected bound holds with equality
        assert not r.failures
        assert r.flagged[0]["kind"] == "stated-bound-counterexample"

    def test_c7_both_bounds_hold(self):
        c7 = make_cyclic(7)
        r = check_corollary(subset(c7, [1]), subset(c7, [2]), subset(c7, [1, 2, 3]))
        assert r.status == "pass" and not r.flagged

    def test_precondition_unmet_is_reported_not_raised(self):
        c2 = make_cyclic(2)
        r = check_corollary(subset(c2, [1]), subset(c2, [1]), subset(c2, [1]))
        assert r.status == "skipped"
        assert r.instances_skipped == 1
        assert r.flagged[0]["kind"] == "precondition-unmet"

    @pytest.mark.parametrize("u_els, x_els, why", [
        ([], [1, 2], "U and V must be nonempty"),
        ([1], [0, 1, 2], "X contains the identity"),
    ])
    def test_precondition_reasons_are_pinned(self, u_els, x_els, why):
        c3 = make_cyclic(3)
        r = check_corollary(subset(c3, u_els), subset(c3, [1]), subset(c3, x_els))
        assert r.to_dict() == {"check": "corollary", "status": "skipped", "instances_tested": 0,
                               "instances_skipped": 1, "seed": None, "failures": [],
                               "flagged": [{"kind": "precondition-unmet", "why": why}]}

    def test_corrected_bound_failure_is_pinned(self, monkeypatch):
        # With UV read as empty, U = V = X = {1, 2} in C3 meets the
        # precondition, and |X| = 2 < |U| + |V|.
        c3 = make_cyclic(3)
        monkeypatch.setattr(theorems, "product_set", lambda U, V: subset(c3, []))
        both = subset(c3, [1, 2])
        record = {"U": [1, 2], "V": [1, 2], "X": [1, 2], "X_choice": "given",
                  "U_size": 2, "V_size": 2, "X_size": 2,
                  "corrected_holds": False, "stated_holds": False}
        assert check_corollary(both, both, both).to_dict() == {
            "check": "corollary", "status": "fail", "instances_tested": 1,
            "instances_skipped": 0, "seed": None,
            "failures": [{"kind": "corrected-bound-violated", **record}],
            "flagged": [{"kind": "stated-bound-counterexample", **record}]}

    def test_sweep_records_corrected_bound_failures(self, monkeypatch):
        # With every product count read as 0, each of C3's 9 pairs is
        # admissible and its minimal X is U ∪ V: the corrected bound fails
        # wherever U meets V, and for X = {1, 2} wherever |U| + |V| > 2.
        monkeypatch.setattr(theorems, "_product_counts",
                            lambda group, A, B: np.zeros(A.shape, np.uint8))
        r = sweep_corollary(make_cyclic(3))
        assert (r.status, r.instances_tested, r.instances_skipped) == ("fail", 18, 0)
        assert all(f["kind"] == "corrected-bound-violated" and not f["corrected_holds"]
                   for f in r.failures)
        assert [(f["U"], f["V"], f["X_choice"]) for f in r.failures] == [
            ([1], [1], "minimal"), ([1], [1, 2], "minimal"), ([1], [1, 2], "full"),
            ([2], [2], "minimal"), ([2], [1, 2], "minimal"), ([2], [1, 2], "full"),
            ([1, 2], [1], "minimal"), ([1, 2], [1], "full"),
            ([1, 2], [2], "minimal"), ([1, 2], [2], "full"),
            ([1, 2], [1, 2], "minimal"), ([1, 2], [1, 2], "full")]

    def test_sweep_c3(self):
        r = sweep_corollary(make_cyclic(3))
        assert r.status == "pass" and not r.failures
        stated = [f for f in r.flagged if f["kind"] == "stated-bound-counterexample"]
        assert stated
        first = stated[0]
        assert first["U"] == [1] and first["V"] == [1] and first["X"] == [1, 2]

    def test_sweep_c2_all_instances_inadmissible(self):
        r = sweep_corollary(make_cyclic(2))
        assert r.instances_tested == 1 and r.instances_skipped == 1
        assert not r.failures

    def test_sweep_c5_no_corrected_failures(self):
        r = sweep_corollary(make_cyclic(5))
        assert r.status == "pass" and not r.failures

    def test_order_cap(self):
        with pytest.raises(SizeLimit):
            sweep_corollary(make_cyclic(7))


def reference_olson_flagged(A, B, subgroups):
    """The witness search on GroupSubsets: for each subgroup H and side, the
    union of the H-orbits of elements of AB that lie inside AB."""
    g, ab = A.group, product_set(A, B)
    for H in subgroups:
        for side in ("left", "right"):
            chosen, seen = set(), set()
            for t in ab:
                if t not in seen:
                    orbit = {g.mul(h, t) if side == "left" else g.mul(t, h) for h in H}
                    seen |= orbit
                    if orbit <= ab.members:
                        chosen |= orbit
            bound = len(A) + len(B) - len(H)
            if chosen and len(chosen) >= bound:
                return [{"kind": "olson-witness", "H": list(H.elements), "T": sorted(chosen),
                         "side": side, "T_size": len(chosen), "bound": bound}]
    return []


class TestOlson:
    def test_subgroup_witness_in_c4(self):
        c4 = make_cyclic(4)
        r = check_olson(subset(c4, [1, 3]), subset(c4, [1, 3]))
        assert r.status == "pass"
        w = r.flagged[0]
        assert w["H"] == [0, 2] and w["T"] == [0, 2] and w["T_size"] >= w["bound"]

    def test_singleton_pair(self):
        c6 = make_cyclic(6)
        r = check_olson(subset(c6, [2]), subset(c6, [3]))
        w = r.flagged[0]
        assert w["H"] == [0] and w["T"] == [5]

    def test_trivial_subgroup_witness_in_c6(self):
        c6 = make_cyclic(6)
        r = check_olson(subset(c6, [0, 1, 2]), subset(c6, [0, 3]))
        w = r.flagged[0]
        assert w["H"] == [0] and w["T"] == [0, 1, 2, 3, 4, 5]

    def test_search_without_the_witness_subgroup_fails(self, monkeypatch):
        # A = B = {0, 2} in C4 has AB = {0, 2}, short of |A| + |B| - 1 = 3,
        # so only H = {0, 2} gives a witness.  The search is left only the
        # trivial subgroup; the orbit table is built uncached.
        c4 = make_cyclic(4)
        monkeypatch.setattr(theorems, "enumerate_subgroups",
                            lambda group, max_order: [subset(group, [0])])
        monkeypatch.setattr(theorems, "_orbit_table", theorems._orbit_table.__wrapped__)
        A = subset(c4, [0, 2])
        assert check_olson(A, A).to_dict() == {
            "check": "olson", "status": "fail", "instances_tested": 1, "instances_skipped": 0,
            "seed": None, "failures": [{"kind": "no-witness", "A": [0, 2], "B": [0, 2]}],
            "flagged": []}
        r = sweep_olson(c4)
        assert (r.status, r.instances_tested, len(r.failures)) == ("fail", 225, 41)
        assert {"kind": "no-witness", "A": [0, 2], "B": [0, 2]} in r.failures

    def test_witness_invariance_recomputed(self):
        # independent re-check of every witness field on random instances
        rng = random.Random(11)
        for g in (make_cyclic(6), make_quaternion(), make_dihedral(4)):
            for _ in range(40):
                k1, k2 = rng.randint(1, g.n), rng.randint(1, g.n)
                A = subset(g, rng.sample(range(g.n), k1))
                B = subset(g, rng.sample(range(g.n), k2))
                r = check_olson(A, B)
                assert r.status == "pass"
                w = r.flagged[0]
                H, T = set(w["H"]), set(w["T"])
                ab = product_set(A, B).members
                assert T and T <= ab
                assert len(T) >= len(A) + len(B) - len(H)
                assert all(g.mul(a, g.inverse(b)) in H for a in H for b in H)
                if w["side"] == "left":
                    assert {g.mul(h, t) for h in H for t in T} == T
                else:
                    assert {g.mul(t, h) for h in H for t in T} == T

    @pytest.mark.parametrize("spec,pairs", [("D3", None), ("Q8", 300)])
    def test_witness_equals_subset_reference(self, spec, pairs):
        g = parse_group_spec(spec)
        subgroups = enumerate_subgroups(g)
        for A, B in all_pairs(g) if pairs is None else seeded_pairs(g, pairs, seed=4):
            assert check_olson(A, B).flagged == reference_olson_flagged(A, B, subgroups)

    def test_subgroups_enumerated_once_per_group_and_cap(self, monkeypatch):
        calls = []

        def counted(group, max_order):
            calls.append((group.name, max_order))
            return enumerate_subgroups(group, max_order)

        monkeypatch.setattr(theorems, "enumerate_subgroups", counted)
        theorems._orbit_table.cache_clear()
        c6 = make_cyclic(6)
        A, B = subset(c6, [1, 2]), subset(c6, [0, 3])
        first = check_olson(A, B).to_dict()
        # An equal group built again, and the sweep, reuse the same table.
        again = make_cyclic(6)
        assert check_olson(subset(again, [1, 2]), subset(again, [0, 3])).to_dict() == first
        sweep_olson(again, samples=10)
        assert calls == [("C6", 24)]
        check_olson(A, B, subgroup_cap=6)
        assert calls == [("C6", 24), ("C6", 6)]
        # A cap the group exceeds raises on every call; nothing is cached.
        for _ in range(2):
            with pytest.raises(SizeLimit):
                check_olson(A, B, subgroup_cap=5)
        assert len(calls) == 4

    @pytest.mark.parametrize("spec", ["C6", "D5"])
    def test_sweep_blocks_carry_their_product_sets(self, spec, monkeypatch):
        # The sweep's report holds only counts and failures, and H = G is a
        # witness whenever AB = G: a product set read too large passes as
        # well as the true one, so the spy compares each block's AB.
        g = parse_group_spec(spec)
        blocks, olson_block = [], theorems._olson_block

        def spy(table, A, B, ab):
            blocks.append((A, B, ab))
            return olson_block(table, A, B, ab)

        monkeypatch.setattr(theorems, "_olson_block", spy)
        r = sweep_olson(g)
        assert r.status == "pass" and r.instances_tested == sum(A.shape[1] for A, _, _ in blocks)
        for A, B, ab in blocks:
            for p in range(A.shape[1]):
                expected = product_set(subset(g, np.flatnonzero(A[:, p]).tolist()),
                                       subset(g, np.flatnonzero(B[:, p]).tolist()))
                assert set(np.flatnonzero(ab[:, p]).tolist()) == expected.members

    def test_sweep_exhaustive_c6(self):
        r = sweep_olson(make_cyclic(6))
        assert r.status == "pass" and r.instances_tested == 63 * 63

    def test_sweep_sampled_q8(self):
        r = sweep_olson(make_quaternion(), samples=300, seed=2)
        assert r.status == "pass" and r.instances_tested == 300 and r.seed == 2


class TestAutomatching:
    def test_c4_sweeps_seven_subsets(self):
        r = check_automatching(make_cyclic(4))
        assert r.status == "pass"
        assert r.instances_tested == 7
        confirmations = [f for f in r.flagged if f["kind"] == "identity-in-A-confirmations"]
        assert confirmations[0]["count"] == 8

    def test_q8_sweeps_all_127(self):
        r = check_automatching(make_quaternion())
        assert r.status == "pass" and r.instances_tested == 127

    def test_order_cap(self):
        with pytest.raises(SizeLimit):
            check_automatching(make_cyclic(DEFAULT_AUTOMATCHING_CAP + 1))

    def test_masks_past_int64_are_refused_before_the_sweep(self):
        # Order 64 would take masks up to 2**64 - 2; the refusal comes before
        # any block is built, so no sweep runs.
        with pytest.raises(SizeLimit) as refused:
            check_automatching(make_cyclic(64), order_cap=64)
        assert (refused.value.size, refused.value.cap) == (64, 63)

    @pytest.mark.parametrize("spec", ["D8", "Q8xC2", "D4xC2"])
    def test_nonabelian_order_16_exhaustive(self, spec):
        r = check_automatching(parse_group_spec(spec), order_cap=16)
        assert r.status == "pass" and r.instances_tested == 2 ** 15 - 1
        assert r.flagged == [{"kind": "identity-in-A-confirmations", "count": 1941}]


class LeftProjection(GroupTable):
    """C5's table with mul(a, b) = a: the engine's rows come from the table,
    while the matching checker and brute force see a*b = a in A."""

    def mul(self, a, b):
        return a


class CountingLaw(GroupTable):
    """A group's table whose mul records each (a, b) it is called on."""

    def __init__(self, table, name=None):
        super().__init__(table, name=name)
        self.calls = []

    def mul(self, a, b):
        self.calls.append((a, b))
        return super().mul(a, b)


class TestAutomatchingFaultRecords:
    @pytest.mark.parametrize("spec", ["C5", "D5", "D6"])
    def test_block_check_calls_mul_once_per_distinct_pair(self, spec):
        # D6's 2,047 masks span two blocks; the calls of each are its
        # distinct (a, φ(a)), ascending, whatever number of A share one.
        g = parse_group_spec(spec)
        counting = CountingLaw(g.table, name=g.name)
        top = (1 << g.n) - 1
        for lo in range(2, top, 2 * PAIR_BLOCK):
            A = _mask_rows(np.arange(lo, min(lo + 2 * PAIR_BLOCK, top), 2), g.n)
            images, failed = _free_first_block(_block_rows(g, A, A),
                                               np.count_nonzero(A, axis=1), g.n)
            assert failed == {}
            lefts = np.nonzero(A)[1]
            del counting.calls[:]
            assert _automatching_block(counting, A) == []
            assert counting.calls == sorted(set(zip(lefts.tolist(), images.tolist())))
            assert len(counting.calls) < len(lefts)
        assert check_automatching(counting).to_dict() == check_automatching(g).to_dict()

    def test_invalid_matchings_and_confirmations_are_pinned(self):
        c5 = make_cyclic(5)
        report = check_automatching(LeftProjection(c5.table, name=c5.name)).to_dict()
        # Each A fails at its least element, paired with the image that the
        # free-first search gives it: in {2, 3} and {1, 4} the second root
        # takes a free candidate, so the first keeps its own (2 and 1).
        whys = ["pair (1, 1): product 1 lies in A", "pair (2, 2): product 2 lies in A",
                "pair (1, 2): product 1 lies in A", "pair (3, 3): product 3 lies in A",
                "pair (1, 3): product 1 lies in A", "pair (2, 2): product 2 lies in A",
                "pair (1, 3): product 1 lies in A", "pair (4, 4): product 4 lies in A",
                "pair (1, 1): product 1 lies in A", "pair (2, 4): product 2 lies in A",
                "pair (1, 2): product 1 lies in A", "pair (3, 4): product 3 lies in A",
                "pair (1, 1): product 1 lies in A", "pair (2, 4): product 2 lies in A",
                "pair (1, 4): product 1 lies in A"]
        assert report == {
            "check": "automatching", "status": "fail", "instances_tested": 15,
            "instances_skipped": 0, "seed": None,
            "failures": [{"kind": "invalid-matching", "A": _bits(mask << 1), "why": why}
                         for mask, why in zip(range(1, 16), whys)],
            "flagged": [{"kind": "identity-in-A-confirmations", "count": 16}],
        }

    def test_violator_record_is_pinned(self, monkeypatch):
        # The block's first graph row, that of A = {1}, is read as empty, by
        # the lanes and by the search that A's stalled lane falls back to.
        block_rows = theorems._block_rows

        def first_row_empty(*args):
            words = block_rows(*args)
            words[0] = 0
            return words

        monkeypatch.setattr(theorems, "_block_rows", first_row_empty)
        assert check_automatching(make_cyclic(3)).to_dict() == {
            "check": "automatching", "status": "fail", "instances_tested": 3,
            "instances_skipped": 0, "seed": None,
            "failures": [{"kind": "automatching-violator", "A": [1],
                          "S": [1], "neighborhood": [], "deficiency": 1}],
            "flagged": [{"kind": "identity-in-A-confirmations", "count": 4}],
        }

    @pytest.mark.parametrize("route, answer, kind", [
        ("find_matching", None, "identity-error-not-raised"),
        ("brute_force_matching", Matching(pairs=()), "matching-despite-identity"),
    ])
    def test_identity_confirmation_failures_are_pinned(self, monkeypatch, route, answer, kind):
        # C2's two A with the identity are {0} and {0, 1}; the route answers
        # without raising, or with a matching.
        monkeypatch.setattr(theorems, route, lambda A, B: answer)
        assert check_automatching(make_cyclic(2)).to_dict() == {
            "check": "automatching", "status": "fail", "instances_tested": 1,
            "instances_skipped": 0, "seed": None,
            "failures": [{"kind": kind, "A": [0]}, {"kind": kind, "A": [0, 1]}],
            "flagged": [{"kind": "identity-in-A-confirmations", "count": 0}],
        }

    @pytest.mark.parametrize("spec", ["D5", "D4", "Q8", "D6"])
    def test_block_check_equals_verify_matching(self, spec):
        # Under the opposite law the engine's matchings come from the table
        # while the products come from mul, so some A fail and others pass;
        # D6's 2,047 instances span two blocks.  The reference checks each
        # matching through the public API.  (In S3 every free-first matching
        # passes under the opposite law, so D5 stands in for it.)
        g = parse_group_spec(spec)
        opposite = OppositeLaw(g.table, names=g.names, name=g.name)
        expected = []
        for mask in range(2, 1 << g.n, 2):
            A = subset(opposite, _bits(mask))
            reason = verify_matching(A, A, find_matching(A, A)).reason
            if reason is not None:
                expected.append({"kind": "invalid-matching", "A": _bits(mask), "why": reason})
        assert 0 < len(expected) < 2 ** (g.n - 1) - 1
        assert check_automatching(opposite).failures == expected

    @pytest.mark.parametrize("spec", ["C5", "D5"])
    def test_repeated_right_vertex_fails_only_its_instance(self, monkeypatch, spec):
        # Every A of the sweep lies in one block.  The engine gives the third
        # element of one A the image of its first, in the block's matchings,
        # which hold every pair's whether its lane or its search decided it;
        # the block's sort must name that A alone, for the bijection, while
        # the products of every other A are checked in the same pass.
        g = parse_group_spec(spec)
        masks = range(2, 1 << g.n, 2)
        index = 100 % len(masks)
        target = _bits(masks[index])
        assert len(masks) <= PAIR_BLOCK and len(target) >= 3
        search = theorems._free_first_block

        def engine(words, sizes, m):
            match, failed = search(words, sizes, m)
            first = int(sizes[:index].sum())
            match[first + 2] = match[first]
            return match, failed

        monkeypatch.setattr(theorems, "_free_first_block", engine)
        r = check_automatching(g)
        assert r.instances_tested == len(masks)
        assert r.failures == [{"kind": "invalid-matching", "A": target,
                               "why": "not bijective: right elements do not cover B exactly once"}]


class TestFreeFirstBlock:
    """The lanes of _free_first_block against _free_first_matching, pair by
    pair: a pair is decided by the lanes' direct steps alone when no root
    stalls in it, by their one-step augmentations when each stall's probe
    succeeds, and by the search, counted here, otherwise."""

    @staticmethod
    def searched(monkeypatch) -> list:
        calls = []

        def counted(rows, m):
            calls.append(tuple(rows))
            return _free_first_matching(rows, m)

        monkeypatch.setattr(matching, "_free_first_matching", counted)
        return calls

    @staticmethod
    def stalls(words, sizes, m) -> int:
        """The graphs of a block in which some root finds no free candidate."""
        rows, start, count = words.tolist(), 0, 0
        for size in sizes.tolist():
            free = (1 << m) - 1
            for row in rows[start:start + size]:
                direct = row & free
                if not direct:
                    count += 1
                    break
                free ^= 1 << (direct.bit_length() - 1)
            start += size
        return count

    @staticmethod
    def assert_block_equals_search(words, sizes, m, match, failed):
        rows, start = words.tolist(), 0
        for p, size in enumerate(sizes.tolist()):
            match_left, match_right, reach = _free_first_matching(rows[start:start + size], m)
            if None in match_left:
                assert failed[p] == (match_left, match_right, reach)
            else:
                assert p not in failed and match[start:start + size].tolist() == match_left
            start += size
        assert start == len(match)

    def test_sweep_blocks_equal_the_search(self, monkeypatch):
        calls = self.searched(monkeypatch)
        searched, one_step = {}, {}
        for spec in [*CATALOG_SPECS, "C12", "D6", "C14"]:
            g = parse_group_spec(spec)
            del calls[:]
            stalls = 0
            top = (1 << g.n) - 1
            for lo in range(2, top, 2 * PAIR_BLOCK):
                A = _mask_rows(np.arange(lo, min(lo + 2 * PAIR_BLOCK, top), 2), g.n)
                words, sizes = _block_rows(g, A, A), np.count_nonzero(A, axis=1)
                match, failed = _free_first_block(words, sizes, g.n)
                assert failed == {}
                self.assert_block_equals_search(words, sizes, g.n, match, failed)
                stalls += self.stalls(words, sizes, g.n)
            searched[spec], one_step[spec] = len(calls), stalls - len(calls)
        # All three routes run: of C14's 8,191 masks the direct steps decide
        # 4,096, the one-step augmentations 2,694 and the search 1,401.
        assert (searched["C12"], searched["D6"], searched["C14"]) == (303, 61, 1401)
        assert (one_step["C12"], one_step["D6"], one_step["C14"]) == (625, 138, 2694)
        assert searched["C2"] == one_step["C2"] == 0

    def test_graph_that_stalls_twice(self, monkeypatch):
        # Over 4 right vertices (bit 3 - j for position j): rows {0, 2, 3},
        # {0} and {2}.  Root 1 finds 0 taken by root 0, which moves to 2;
        # root 2 finds 2 taken by root 0, which moves to 3.  A second graph,
        # {1}, {0}, decided by direct steps, shares the block.
        calls = self.searched(monkeypatch)
        words = np.array([0b1011, 0b1000, 0b0010, 0b0100, 0b1000], np.uint64)
        sizes = np.array([3, 2])
        match, failed = _free_first_block(words, sizes, 4)
        assert calls == [] and failed == {}
        assert match.tolist() == [3, 0, 2, 1, 0]
        self.assert_block_equals_search(words, sizes, 4, match, failed)

    def test_failed_probe_falls_back_to_the_search(self, monkeypatch):
        # Rows {0, 1}, {1, 2} and {0}: root 2's probe finds 0 taken by root
        # 0, whose other candidate 1 is taken too, so the search runs and
        # finds the path 2 -> 0 -> 1 -> 2 of length 3.
        calls = self.searched(monkeypatch)
        words = np.array([0b1100, 0b0110, 0b1000], np.uint64)
        sizes = np.array([3])
        match, failed = _free_first_block(words, sizes, 4)
        assert calls == [(0b1100, 0b0110, 0b1000)] and failed == {}
        assert match.tolist() == [1, 2, 0]
        self.assert_block_equals_search(words, sizes, 4, match, failed)

    def test_random_graphs_over_64_right_vertices(self, monkeypatch):
        # Sparse random rows, the AND of three random words, over the widest
        # right side: between them the graphs take every route, and some
        # have no perfect matching.
        calls = self.searched(monkeypatch)
        rng = np.random.default_rng(64)
        sizes = rng.integers(1, 65, 300)
        words = np.bitwise_and.reduce(
            rng.integers(0, 2 ** 64, (3, int(sizes.sum())), np.uint64, endpoint=False), axis=0)
        match, failed = _free_first_block(words, sizes, 64)
        self.assert_block_equals_search(words, sizes, 64, match, failed)
        assert 0 < len(failed) < len(calls) < self.stalls(words, sizes, 64) < len(sizes)

    def test_unmatchable_graphs_keep_the_search_state(self, monkeypatch):
        # Equal-size pairs with the identity out of B, as matching-property
        # draws them, in C12: some have no matching.
        calls = self.searched(monkeypatch)
        g = parse_group_spec("C12")
        pairs = list(_sized_pairs(g.n, g.n - 1, PAIR_BLOCK, 5))
        A, B = (_columns(side, g.n).T for side in zip(*pairs))
        words, sizes = _block_rows(g, A, B), np.count_nonzero(A, axis=1)
        match, failed = _free_first_block(words, sizes, g.n)
        self.assert_block_equals_search(words, sizes, g.n, match, failed)
        assert 0 < len(failed) < len(calls) < len(pairs)
        assert list(_pair_graphs(g, pairs)) == [(pairs, failed)]

    def test_words_above_two_to_the_53(self):
        # frexp reads 2**54 - 1 as the float 2**54, one bit too long.
        words = np.array([1, 2 ** 53 - 1, 2 ** 53 + 1, 2 ** 54 - 1, 2 ** 60 - 1, 2 ** 63 + 5,
                          2 ** 64 - 1], np.uint64)
        assert np.frexp(words.astype(np.float64))[1][3] == 55
        assert _bit_length(words).tolist() == [w.bit_length() for w in words.tolist()]
        # Two roots over 60 right vertices, each row all of them.
        rows = (2 ** 60 - 1,) * 2
        match, failed = _free_first_block(np.array(rows, np.uint64), np.array([2]), 60)
        assert failed == {} and match.tolist() == _free_first_matching(rows, 60)[0] == [0, 1]


def engine_result(group, a_els, b_els):
    """find_matching on GroupSubsets, with every matching verified."""
    A, B = subset(group, a_els), subset(group, b_els)
    result = find_matching(A, B)
    if isinstance(result, Matching):
        assert verify_matching(A, B, result)
    return result


def violator_record(a_els, b_els, result):
    return {"A": elements_json(a_els), "B": elements_json(b_els), "S": elements_json(result.subset),
            "neighborhood": elements_json(result.neighborhood),
            "deficiency": result.deficiency}


def block_rows(group, pairs) -> list:
    """_block_rows over one block of (a_els, b_els) pairs, split per pair."""
    A, B = (np.zeros((len(pairs), group.n), bool) for _ in "AB")
    for p, (a_els, b_els) in enumerate(pairs):
        A[p, list(a_els)] = B[p, list(b_els)] = True
    rows = iter(_block_rows(group, A, B).tolist())
    out = [tuple(itertools.islice(rows, len(a_els))) for a_els, _ in pairs]
    assert next(rows, None) is None
    return out


def block_result(group, a_els, rows):
    """The engine's result on the rows of A over the whole group."""
    return _graph_result(group, a_els, range(group.n), rows)


class TestMaskInstancePath:
    """The sweeps' block instances against the public engine on GroupSubsets."""

    def test_property_instances(self):
        unmatchable = 0
        for spec, sizes in [("C12", range(1, 12)), ("D6", range(1, 12)), ("Q8", range(1, 8)),
                            ("C2xC4", range(1, 8)), ("C14", [3, 6, 9, 12, 13])]:
            g = parse_group_spec(spec)
            rng = random.Random(f"property/{spec}")
            pairs = [(tuple(sorted(rng.sample(range(g.n), k))),
                      tuple(sorted(rng.sample(range(1, g.n), k))))
                     for k in sizes for _ in range(12)]
            for (a_els, b_els), rows in zip(pairs, block_rows(g, pairs)):
                expected = engine_result(g, a_els, b_els)
                assert block_result(g, a_els, rows) == expected
                failed = isinstance(expected, HallViolator)
                record = violator_record(a_els, b_els, expected) if failed else None
                assert _failing_pairs(g, [(a_els, b_els)]) == (1, int(failed), record)
                unmatchable += failed
        assert unmatchable >= 20

    @pytest.mark.parametrize("spec", ["D5", "Q8"])
    def test_automatching_instances(self, spec):
        g = parse_group_spec(spec)
        pairs = [(_bits(mask << 1),) * 2 for mask in range(1, 1 << (g.n - 1))]
        for (a_els, _), rows in zip(pairs, block_rows(g, pairs)):
            expected = engine_result(g, a_els, a_els)
            assert isinstance(expected, Matching)
            assert block_result(g, a_els, rows) == expected
        # Every instance of the sweep's one block has a matching in the
        # lanes and no record; the sweep's A, unpacked from its masks, are
        # the pairs' A.
        assert list(_pair_graphs(g, pairs)) == [(pairs, {})]
        A = _mask_rows(np.arange(2, 1 << g.n, 2), g.n)
        assert np.array_equal(A, _columns([a_els for a_els, _ in pairs], g.n).T)
        assert _automatching_block(g, A) == []

    @pytest.mark.parametrize("spec", [*CATALOG_SPECS, "S4", "C24", "D12"])
    def test_stay_tables_against_mul(self, spec):
        # The rows of _block_rows, the x whose product a*x stays out of A,
        # against mul; the name is kept so the test keeps its id.
        # Orders 2 to 24: rows of one, two and three bytes.  One block mixes
        # pair sizes, with a pair that has no rows (A empty) and one whose
        # rows are all 0 (A the whole group) among the random pairs.
        g = parse_group_spec(spec)
        rng = random.Random(f"block/{spec}")
        pairs = [(_bits(rng.randrange(1 << g.n)), _bits(rng.randrange(1 << g.n)))
                 for _ in range(40)]
        pairs[7:7] = [((), tuple(g.elements())), (tuple(g.elements()), pairs[0][1])]
        for (a_els, b_els), rows in zip(pairs, block_rows(g, pairs)):
            assert rows == tuple(sum(1 << (g.n - 1 - x) for x in b_els if g.mul(a, x) not in a_els)
                                 for a in a_els)
        assert block_rows(g, pairs)[8] == (0,) * g.n


def reference_property_outcome(group, pairs):
    """(pairs_failed, minimal record) of matching-property over the pairs,
    from a record built for every failing pair by find_matching on
    GroupSubsets."""
    failing = []
    for a_els, b_els in pairs:
        result = engine_result(group, a_els, b_els)
        if isinstance(result, HallViolator):
            failing.append(violator_record(a_els, b_els, result))
    minimal = min(failing, key=lambda r: (len(r["A"]), r["A"], r["B"])) if failing else None
    return len(failing), minimal


class TestMatchingProperty:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("spec", ["D4", "C2xC4", "C12", "D6"])
    def test_counts_and_minimal_record_match_reference(self, spec, seed):
        # The sweep kernel on sampled pairs of composite orders, where many
        # pairs fail; the check itself certifies these groups.
        g = parse_group_spec(spec)
        tested, failed, minimal = _failing_pairs(g, _sized_pairs(g.n, g.n - 1, 300, seed))
        assert tested == 300
        assert (failed, minimal) == reference_property_outcome(g, _sized_pairs(g.n, g.n - 1, 300, seed))
        assert failed > 0

    def test_failing_pairs_across_blocks_match_reference(self):
        # Every exhaustive pair of C8 spans several blocks of PAIR_BLOCK
        # pairs; a row read from the wrong pair changes a verdict.
        g = make_cyclic(8)
        pairs = [(a_els, b_els) for k in range(1, 8)
                 for a_els in itertools.combinations(range(8), k)
                 for b_els in itertools.combinations(range(1, 8), k)]
        assert len(pairs) == 6434 > PAIR_BLOCK
        assert _failing_pairs(g, pairs) == (6434, *reference_property_outcome(g, pairs))

    @pytest.mark.parametrize("spec", ["C6", "S3", "C12"])
    def test_pair_graphs_fail_exactly_the_unmatched_pairs(self, spec):
        # The exhaustive pairs of C6 and S3, and 1,024 draws in C12: the
        # lanes fail exactly the pairs that the search leaves unmatched,
        # with the search's maximum matching and reach.
        g = parse_group_spec(spec)
        if g.n <= PROPERTY_EXHAUSTIVE_CAP:
            pairs = [(a_els, b_els) for k in range(1, g.n)
                     for a_els in itertools.combinations(range(g.n), k)
                     for b_els in itertools.combinations(range(1, g.n), k)]
        else:
            pairs = list(_sized_pairs(g.n, g.n - 1, PAIR_BLOCK, 0))
        searched = {p: _free_first_matching(rows, g.n)
                    for p, rows in enumerate(block_rows(g, pairs))}
        expected = {p: entry for p, entry in searched.items() if None in entry[0]}
        assert list(_pair_graphs(g, pairs)) == [(pairs, expected)]
        assert 0 < len(expected) < len(pairs)
        assert _failing_pairs(g, pairs) == (len(pairs), *reference_property_outcome(g, pairs))

    def test_rows_wider_than_a_word(self):
        # Above order 64 a row is a Python int, and the lanes leave every
        # graph to the search: at C67 in the check's sampled mode, and on
        # draws in C66, where some pairs fail.
        g = make_cyclic(67)
        r = check_matching_property(g, samples=120, seed=2, order_cap=67)
        out = r.flagged[-1]
        assert out["mode"] == "sampled" and r.status == "pass"
        assert ((out["pairs_failed"], out["counterexample"])
                == reference_property_outcome(g, _sized_pairs(g.n, g.n - 1, 120, 2)))
        g = make_cyclic(66)
        pairs = list(_sized_pairs(g.n, g.n - 1, 120, 2))
        tested, failed, minimal = _failing_pairs(g, pairs)
        assert (tested, failed, minimal) == (120, *reference_property_outcome(g, pairs))
        assert failed > 0

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("spec", ["C11", "C13"])
    def test_sampled_prime_order_matches_reference(self, spec, seed):
        g = parse_group_spec(spec)
        assert g.n > PROPERTY_EXHAUSTIVE_CAP
        r = check_matching_property(g, samples=300, seed=seed)
        out = r.flagged[-1]
        assert ((out["pairs_failed"], out["counterexample"])
                == reference_property_outcome(g, _sized_pairs(g.n, g.n - 1, 300, seed)))
        assert out["pairs_failed"] == 0 and out["counterexample"] is None
        assert out["mode"] == "sampled" and out["property_holds"] is None
        assert r.status == "pass" and r.instances_tested == 300

    def test_sampled_mode_hands_its_draws_to_the_kernel(self, monkeypatch):
        # At a prime order no pair fails, so pairs_failed and the
        # counterexample read the same whichever pairs were drawn: only the
        # pairs themselves show |A| = |B| <= n - 1 and B free of the identity.
        seen = []

        def spy(group, instances):
            seen.extend(instances)
            return _failing_pairs(group, seen)

        monkeypatch.setattr(theorems, "_failing_pairs", spy)
        r = check_matching_property(make_cyclic(11), seed=0)
        assert r.flagged[-1]["mode"] == "sampled" and r.instances_tested == len(seen) == 2000
        assert all(len(a_els) == len(b_els) for a_els, b_els in seen)
        assert max(len(a_els) for a_els, _ in seen) == 11 - 1
        assert all(0 not in b_els for _, b_els in seen)
        assert seen == list(_sized_pairs(11, 10, 2000, 0))

    def test_c5_holds_and_agrees(self):
        r = check_matching_property(make_cyclic(5))
        assert r.status == "pass"
        out = r.flagged[-1]
        assert out["property_holds"] and out["predicted"] and out["pairs_failed"] == 0

    def test_c4_fails_as_predicted_with_minimal_pair(self):
        r = check_matching_property(make_cyclic(4))
        assert r.status == "pass"
        out = r.flagged[-1]
        assert not out["property_holds"] and not out["predicted"]
        assert out["counterexample"]["A"] == [0, 2]
        assert out["counterexample"]["B"] == [1, 2]

    def test_s3_fails_as_predicted(self):
        r = check_matching_property(parse_group_spec("S3"))
        out = r.flagged[-1]
        assert r.status == "pass" and not out["property_holds"]

    def test_sampled_mode(self):
        r = check_matching_property(make_cyclic(13), samples=400, seed=9)
        assert r.status == "pass" and r.seed == 9 and r.instances_tested == 400
        out = r.flagged[-1]
        assert out["mode"] == "sampled" and out["predicted"]
        assert out["property_holds"] is None and out["pairs_failed"] == 0

    @pytest.mark.parametrize("spec", ["Q8", "D4"])
    def test_certificate_mode(self, spec):
        g = parse_group_spec(spec)
        pair = construct_counterexample(g)
        expected = violator_record(pair.left.elements, pair.right.elements, pair.violator)
        for samples, seed in [(2000, 0), (400, 9), (0, 3)]:
            r = check_matching_property(g, samples=samples, seed=seed)
            assert r.status == "pass" and r.seed is None and r.instances_tested == 1
            assert r.flagged == [{"kind": "matching-property-outcome", "mode": "certificate",
                                  "predicted": False, "property_holds": False,
                                  "pairs_failed": 1, "counterexample": expected}]

    @pytest.mark.parametrize("field,value", [
        ("S", [1, 2]),              # not inside A = {0, 4}
        ("neighborhood", [4]),      # N(S) is {1}
        ("deficiency", 2),          # |S| - |N(S)| is 1
        ("B", [1, 4, 5]),           # |B| differs from |A|
        ("B", [0, 1]),              # B holds the identity
    ])
    def test_certificate_fault_names_a_forged_record(self, field, value):
        g = make_cyclic(8)
        record = {"A": [0, 4], "B": [1, 4], "S": [0, 4], "neighborhood": [1], "deficiency": 1}
        assert theorems._certificate_fault(g, record) is None
        assert theorems._certificate_fault(g, {**record, field: value}) is not None

    def test_forged_certificate_is_a_failure_record(self, monkeypatch):
        g = make_cyclic(8)
        pair = construct_counterexample(g)
        true = pair.violator.deficiency
        forged = dataclasses.replace(pair, violator=dataclasses.replace(pair.violator,
                                                                        deficiency=true + 1))
        monkeypatch.setattr(theorems, "construct_counterexample", lambda group: forged)
        r = check_matching_property(g)
        assert r.status == "fail" and r.instances_tested == 1
        assert [f["kind"] for f in r.failures] == ["invalid-certificate"]
        assert r.failures[0]["deficiency"] == true + 1
        assert r.failures[0]["why"] == f"|S| - |N(S)| is {true}"
        out = r.flagged[-1]
        assert (out["mode"], out["property_holds"], out["pairs_failed"]) == ("certificate", None, 0)

    def test_certificate_the_oracle_matches_is_a_failure_record(self, monkeypatch):
        monkeypatch.setattr(theorems, "_brute_force", lambda *args: Matching(pairs=()))
        assert check_matching_property(make_cyclic(8)).to_dict() == {
            "check": "matching-property", "status": "fail", "instances_tested": 1,
            "instances_skipped": 0, "seed": None,
            "failures": [{"kind": "invalid-certificate", "A": [0, 2, 4, 6], "B": [1, 2, 4, 6],
                          "S": [0, 2, 4, 6], "neighborhood": [1], "deficiency": 3,
                          "why": "the brute-force oracle finds a matching"}],
            "flagged": [{"kind": "matching-property-outcome", "mode": "certificate",
                         "predicted": False, "property_holds": None, "pairs_failed": 0,
                         "counterexample": None}],
        }

    def test_classification_mismatch_is_pinned(self, monkeypatch):
        # C5 is predicted to fail the property; every one of its pairs matches.
        monkeypatch.setattr(theorems, "classify", lambda group: dataclasses.replace(
            classify(group), predicted_matching_property=False))
        r = check_matching_property(make_cyclic(5))
        assert (r.status, r.instances_tested) == ("fail", 125)
        assert r.failures == [{"kind": "classification-mismatch", "predicted": False,
                               "property_holds": True, "counterexample": None}]

    def test_outcome_matches_order_predicate_across_catalog(self):
        for g in catalog():
            r = check_matching_property(g, seed=0)
            out = r.flagged[-1]
            predicate = g.n == 1 or all(g.n % f for f in range(2, g.n))
            assert r.status == "pass"
            assert out["property_holds"] == predicate

    def test_order_cap(self):
        with pytest.raises(SizeLimit):
            check_matching_property(make_cyclic(25))

    def test_order_cap_applies_below_the_exhaustive_cap(self):
        with pytest.raises(SizeLimit):
            check_matching_property(make_cyclic(6), order_cap=3)

    def test_zero_samples_is_skipped_not_a_mismatch(self):
        r = check_matching_property(make_cyclic(11), samples=0)
        assert r.status == "skipped" and r.instances_tested == 0 and not r.failures
        out = r.flagged[-1]
        assert out["mode"] == "sampled" and out["property_holds"] is None

    def test_trivial_group_tests_no_pair(self):
        r = check_matching_property(make_cyclic(1))
        assert r.status == "skipped" and r.flagged[-1]["property_holds"] is None


# Composite groups of order 8 to 24 that the spec language builds.
CERTIFIED_SPECS = [*(f"C{n}" for n in (8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24)),
                   *(f"D{m}" for m in range(4, 13)),
                   "Q8", "S4", "C2xC4", "C2xC2xC2", "C2xC6", "C3xC3", "Q8xC3"]


@pytest.mark.parametrize("spec", CERTIFIED_SPECS)
def test_certificate_rechecked_from_the_table(spec):
    """Each composite order is decided by one certificate, which is rechecked
    here from the Cayley array with Python sets, apart from the engine."""
    g = parse_group_spec(spec)
    assert 8 <= g.n <= 24 and not classify(g).predicted_matching_property
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        r = check_matching_property(g)
        times.append(time.perf_counter() - t0)
    assert statistics.median(times) < 0.005
    out = r.flagged[-1]
    assert r.status == "pass" and not r.failures and r.instances_tested == 1
    assert (out["mode"], out["property_holds"], out["pairs_failed"]) == ("certificate", False, 1)
    cert = out["counterexample"]
    a_set, b_set, s_set = set(cert["A"]), set(cert["B"]), set(cert["S"])
    assert len(a_set) == len(b_set) and 0 not in b_set and s_set <= a_set
    table = g.array.tolist()
    neighborhood = {b for b in b_set if any(table[s][b] not in a_set for s in s_set)}
    assert neighborhood == set(cert["neighborhood"])
    assert len(s_set) - len(neighborhood) == cert["deficiency"] >= 1
    if len(a_set) <= 7:
        assert brute_force_matching(subset(g, a_set), subset(g, b_set)) is None


@pytest.mark.parametrize("sweep", [sweep_kemperman, sweep_olson, check_matching_property,
                                   sweep_hall])
@pytest.mark.parametrize("spec", ["C4", "C8"])
def test_negative_samples_rejected(sweep, spec):
    with pytest.raises(ValueError, match="samples"):
        sweep(parse_group_spec(spec), samples=-3)


class TestCounterexample:
    def test_c4_exact_pair(self):
        pair = construct_counterexample(make_cyclic(4))
        assert pair.generator == 2
        assert pair.left.elements == (0, 2)
        assert pair.outsider == 1
        assert pair.right.elements == (1, 2)

    def test_c6_exact_pair(self):
        pair = construct_counterexample(make_cyclic(6))
        assert pair.left.elements == (0, 2, 4)
        assert pair.right.elements == (1, 2, 4)

    def test_klein_pair(self):
        pair = construct_counterexample(parse_group_spec("C2xC2"))
        assert len(pair.left) == 2

    def test_invariants_and_oracle_rejection(self):
        for g in catalog():
            judged = classify(g)
            if judged.predicted_matching_property:
                with pytest.raises(NotApplicable):
                    construct_counterexample(g)
                continue
            pair = construct_counterexample(g)
            A, B = pair.left, pair.right
            assert len(A) == len(B)
            assert g.identity in A and g.identity not in B
            assert B.members == (A.members - {g.identity}) | {pair.outsider}
            assert pair.outsider not in A
            result = find_matching(A, B)
            assert isinstance(result, HallViolator) and result == pair.violator
            if len(A) <= 6:
                assert brute_force_matching(A, B) is None

    def test_not_applicable_for_prime_and_trivial(self):
        for spec in ("C2", "C5", "C7"):
            with pytest.raises(NotApplicable):
                construct_counterexample(parse_group_spec(spec))
        with pytest.raises(NotApplicable):
            construct_counterexample(make_cyclic(1))

    def test_engine_matching_is_a_cross_validation_error(self, monkeypatch):
        monkeypatch.setattr(theorems, "find_matching", lambda A, B: Matching(pairs=()))
        with pytest.raises(CrossValidationError) as raised:
            construct_counterexample(make_cyclic(4))
        assert str(raised.value) == ("constructed pair unexpectedly admits a matching; "
                                     "engine and theory disagree")


class TestLatticeMatching:
    def test_dimension_one(self):
        r = check_lattice_matching(1, 300, max_size=6, seed=42)
        assert r.status == "pass" and not r.failures
        confirmed = [f for f in r.flagged if f["kind"] == "brute-force-confirmations"]
        assert confirmed[0]["count"] == 300   # every instance here has size <= 6

    def test_dimension_two(self):
        r = check_lattice_matching(2, 200, seed=7)
        assert r.status == "pass" and not r.failures

    def test_zero_trials_is_skipped(self):
        assert check_lattice_matching(1, 0).status == "skipped"

    def test_caps_and_bounds(self):
        with pytest.raises(SizeLimit):
            check_lattice_matching(1, 10, max_size=11)
        with pytest.raises(ValueError):
            check_lattice_matching(1, 10, max_size=8, coordinate_bound=2)

    @pytest.mark.parametrize("max_size", [0, -2])
    def test_max_size_below_one_rejected(self, max_size):
        with pytest.raises(ValueError, match="max_size"):
            check_lattice_matching(1, 10, max_size=max_size)

    @pytest.mark.parametrize("max_size", ["0", "-2"])
    def test_cli_max_size_below_one_is_input_error(self, capsys, max_size):
        assert main(["lattice", "--max-size", max_size]) == 2
        out = capsys.readouterr().out
        assert "max_size" in out and "randrange" not in out

    def test_input_check_boundaries(self):
        # max_size = 1 and coordinate_bound = 0 are the least values their
        # own checks admit; a bound of 0 leaves one point, too few for 8.
        assert check_lattice_matching(1, 10, max_size=1).status == "pass"
        with pytest.raises(ValueError, match="max_size must be at least 1"):
            check_lattice_matching(1, 10, max_size=0)
        with pytest.raises(ValueError, match="coordinate_bound must be at least 0"):
            check_lattice_matching(1, 10, coordinate_bound=-1)
        with pytest.raises(ValueError, match="coordinate_bound too small"):
            check_lattice_matching(1, 10, coordinate_bound=0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            check_lattice_matching(1, -5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_negative_coordinate_bound_rejected(self, d):
        with pytest.raises(ValueError, match="coordinate_bound must be at least 0"):
            check_lattice_matching(d, 10, coordinate_bound=-3)

    @pytest.mark.parametrize("route, answer, records, confirmed", [
        # Empty rows: the engine finds a violator, which the oracle refutes.
        ("_python_rows", lambda mul, a_els, a_set, b_els: (0,) * len(a_els), lambda a, b: [
            {"kind": "lattice-violator", "A": a, "B": b, "S": a, "deficiency": 2},
            {"kind": "oracle-disagreement", "A": a, "B": b, "engine": False,
             "brute_force": True}], 0),
        ("_matching_fault", lambda *args: "forged", lambda a, b: [
            {"kind": "invalid-matching", "A": a, "B": b}], 2),
        ("_brute_force", lambda *args: None, lambda a, b: [
            {"kind": "oracle-disagreement", "A": a, "B": b, "engine": True,
             "brute_force": False}], 0),
    ])
    def test_route_failure_records_are_pinned(self, monkeypatch, route, answer, records,
                                              confirmed):
        # Seed 0 draws two pairs of size 2 on Z^1 and on Z^2.  The Z^2 points
        # have negative coordinates in either place, so the records pin the
        # decode of the check's codes.
        monkeypatch.setattr(theorems, route, answer)
        for d, draws in [
            (1, [([[-9], [3]], [[-2], [6]]), ([[-1], [2]], [[1], [5]])]),
            (2, [([[-2, 6], [3, -9]], [[-1, 5], [5, 2]]),
                 ([[6, -6], [8, -4]], [[-7, 9], [-1, -6]])]),
        ]:
            assert check_lattice_matching(d, 2, max_size=2, seed=0).to_dict() == {
                "check": "lattice-matching", "status": "fail", "instances_tested": 2,
                "instances_skipped": 0, "seed": 0,
                "failures": [r for a, b in draws for r in records(a, b)],
                "flagged": [{"kind": "brute-force-confirmations", "count": confirmed}],
            }, d

    def test_seed_determinism(self):
        a = check_lattice_matching(2, 50, seed=3).to_dict()
        b = check_lattice_matching(2, 50, seed=3).to_dict()
        assert a == b

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_per_trial_public_api_reference(self, d):
        for seed in (0, 1, 7):
            assert (check_lattice_matching(d, 200, seed=seed).to_dict()
                    == reference_lattice_report(d, 200, 8, 10, seed))


def reference_lattice_report(d, trials, max_size, bound, seed):
    """check_lattice_matching's report from a per-trial loop on GroupSubsets,
    through find_matching, verify_matching and brute_force_matching."""
    group = LatticeGroup(d)
    failures, confirmed = [], 0
    for a_els, b_els in per_draw_lattice_pairs(d, trials, max_size, bound, seed):
        A, B = subset(group, a_els), subset(group, b_els)
        result = find_matching(A, B)
        matched = isinstance(result, Matching)
        if not matched:
            failures.append({"kind": "lattice-violator", "A": elements_json(A),
                             "B": elements_json(B), "S": elements_json(result.subset),
                             "deficiency": result.deficiency})
        elif not verify_matching(A, B, result):
            failures.append({"kind": "invalid-matching", "A": elements_json(A),
                             "B": elements_json(B)})
        if len(A) <= theorems.LATTICE_CONFIRMATION_CAP:
            brute = brute_force_matching(A, B) is not None
            if brute != matched:
                failures.append({"kind": "oracle-disagreement", "A": elements_json(A),
                                 "B": elements_json(B), "engine": matched, "brute_force": brute})
            else:
                confirmed += 1
    status = "fail" if failures else "pass" if trials else "skipped"
    return {"check": "lattice-matching", "status": status, "instances_tested": trials,
            "instances_skipped": 0, "seed": seed, "failures": failures,
            "flagged": [{"kind": "brute-force-confirmations", "count": confirmed}]}


def reference_hall_report(group, samples, seed):
    """sweep_hall's report from a per-draw loop on GroupSubsets: each draw is
    decided by find_matching, brute_force_matching and Hall's condition
    from candidate_set and stable_set, which must all agree."""
    tested = 0
    for a_els, b_els in _sized_pairs(group.n, min(HALL_MAX_SIZE, group.n - 1), samples, seed):
        A, B = subset(group, a_els), subset(group, b_els)
        engine = isinstance(find_matching(A, B), Matching)
        brute = brute_force_matching(A, B) is not None
        # The stable set of S is the intersection of those of its members.
        cand = [candidate_set(A, B, a).members for a in A]
        stay = [stable_set(A, B, subset(group, [a])).members for a in A]
        union = inter = True
        for mask in range(1, 1 << len(A)):
            S = _bits(mask)
            union &= len(frozenset().union(*(cand[i] for i in S))) >= len(S)
            inter &= len(B.members.intersection(*(stay[i] for i in S))) <= len(A) - len(S)
        assert engine == brute == union == inter, (a_els, b_els)
        tested += 1
    return {"check": "hall", "status": "pass" if tested else "skipped",
            "instances_tested": tested, "instances_skipped": 0, "seed": seed,
            "failures": [], "flagged": []}


class OppositeLaw(GroupTable):
    """A group's table with mul(a, b) = b*a: the engine's graphs come from
    the table, while the bijection oracle and Hall's forms see the opposite
    group."""

    def mul(self, a, b):
        return int(self.array[b, a])


class AlternatingLaw(GroupTable):
    """s*x runs through ``values`` from call to call; by default it
    alternates between 3 (in A) and 4 (outside A)."""

    def __init__(self, table, values=(3, 4)):
        super().__init__(table)
        self.calls = itertools.count()
        self.values = values

    def mul(self, a, b):
        return self.values[next(self.calls) % len(self.values)]


class TestHallCrossValidation:
    def test_c4_unmatchable_instance(self):
        c4 = make_cyclic(4)
        assert cross_validate_hall(subset(c4, [0, 2]), subset(c4, [1, 2])) is False

    def test_c5_matchable_instance(self):
        c5 = make_cyclic(5)
        A = subset(c5, [1, 2, 3, 4])
        assert cross_validate_hall(A, A) is True

    def test_singleton(self):
        c4 = make_cyclic(4)
        assert cross_validate_hall(subset(c4, [3]), subset(c4, [3])) is True

    def test_engine_searches_the_rows_find_matching_searches(self, monkeypatch):
        # The engine's verdict comes from the rows that find_matching
        # searches, not from build_graph: with those rows emptied, a
        # matchable pair makes the engine disagree with both oracles.
        c5 = make_cyclic(5)
        A = subset(c5, [1, 2, 3, 4])
        monkeypatch.setattr(matching, "build_graph", lambda *args: pytest.fail("build_graph"))
        assert cross_validate_hall(A, A) is True
        monkeypatch.setattr(matching, "_search_rows", lambda A, B: (range(5), (0,) * len(A)))
        assert isinstance(find_matching(A, A), HallViolator)
        with pytest.raises(CrossValidationError,
                           match=r"^routes disagree: engine=False brute=True hall=True$"):
            cross_validate_hall(A, A)

    @pytest.mark.parametrize("spec", ["Z^1", "Z^2"])
    def test_lattice_pairs_match_on_every_route(self, spec):
        # Z^d is torsion-free, so every pair with 0 outside B is matchable.
        # The engine runs on the lattice's own graph rows, with no table.
        g = parse_group_spec(spec)
        rng = random.Random(3)
        points = list(itertools.product(range(-3, 4), repeat=g.d))
        nonzero = [p for p in points if p != g.identity]
        for k in range(1, HALL_MAX_SIZE + 1):
            for _ in range(4):
                A = subset(g, rng.sample(points, k))
                B = subset(g, rng.sample(nonzero, k))
                assert cross_validate_hall(A, B) is True
                matching = find_matching(A, B)
                assert isinstance(matching, Matching) and verify_matching(A, B, matching)
                assert brute_force_matching(A, B) is not None

    def test_preconditions(self):
        c10 = make_cyclic(10)
        big = subset(c10, [1, 2, 3, 4, 5, 6])
        with pytest.raises(SizeLimit):
            cross_validate_hall(big, big)
        c4 = make_cyclic(4)
        with pytest.raises(IdentityInB):
            cross_validate_hall(subset(c4, [1, 2]), subset(c4, [0, 1]))
        with pytest.raises(EmptyInput, match="^A and B must be nonempty$"):
            cross_validate_hall(subset(c4, []), subset(c4, [1]))
        with pytest.raises(SizeMismatch, match=r"^\|A\| = 1 but \|B\| = 2$"):
            cross_validate_hall(subset(c4, [1]), subset(c4, [1, 2]))

    def test_disagreeing_forms_name_s_by_element(self):
        g = AlternatingLaw(make_cyclic(5).table)
        # Each form evaluates 3*3 once, one call after the other, so they see
        # opposite answers and disagree whichever comes first.
        with pytest.raises(CrossValidationError, match=r"Hall forms disagree on S = \[3\]"):
            cross_validate_hall(subset(g, [3]), subset(g, [3]))

    @pytest.mark.parametrize("values, a_els, b_els, why", [
        ((3, 4), [1, 3], [2, 4], "Hall forms disagree on S = [3]: union True, complement False"),
        ((3, 4), [3, 4], [3, 4], "routes disagree: engine=True brute=False hall=False"),
        ((3, 4), [0, 1, 3], [1, 2, 3],
         "Hall forms disagree on S = [0, 3]: union True, complement False"),
        ((3, 4), [1, 2, 4], [2, 3, 4],
         "Hall forms disagree on S = [1, 4]: union True, complement False"),
        ((3, 4), [0, 3, 4], [1, 2, 3], "routes disagree: engine=True brute=False hall=False"),
        # The forms also disagree on S = A here, a later mask.
        ((3, 4, 4), [0, 4], [1, 2], "Hall forms disagree on S = [4]: union True, complement False"),
        ((3, 3, 4), [0, 3], [1, 2], "Hall forms disagree on S = [3]: union True, complement False"),
    ])
    def test_alternating_law_messages_are_pinned(self, values, a_els, b_els, why):
        # The oracle's mul calls come first, then the union form's, a-major
        # (A then B ascending), then the complement form's, b-major (B then
        # A ascending), so that a law of period 2 can make the forms disagree
        # at even |A|.  The S named is the least mask on which they disagree.
        g = AlternatingLaw(make_cyclic(5).table, values)
        with pytest.raises(CrossValidationError) as raised:
            cross_validate_hall(subset(g, a_els), subset(g, b_els))
        assert str(raised.value) == why

    @pytest.mark.parametrize("k, outcomes", [
        (1, {"agree": 12, "Hall forms disagree": 8}),
        (2, {"agree": 18, "Hall forms disagree": 36, "routes disagree": 6}),
        (3, {"agree": 4, "Hall forms disagree": 24, "routes disagree": 12}),
        (4, {"Hall forms disagree": 2, "routes disagree": 3}),
    ])
    def test_alternating_law_forms_disagree_at_every_size(self, k, outcomes):
        # Every pair of C5 with |A| = k, each on a fresh law.  Were the
        # complement form read a-major like the union form, no pair at k = 2
        # or 4 would make the forms disagree.
        table = make_cyclic(5).table
        seen = collections.Counter()
        for a_els in itertools.combinations(range(5), k):
            for b_els in itertools.combinations(range(1, 5), k):
                g = AlternatingLaw(table)
                try:
                    cross_validate_hall(subset(g, a_els), subset(g, b_els))
                    seen["agree"] += 1
                except CrossValidationError as error:
                    seen[re.match(r"Hall forms disagree|routes disagree", str(error))[0]] += 1
        assert seen == outcomes

    def test_alternating_law_on_every_subset_at_the_size_bound(self):
        # Every pair of C7 with |A| = HALL_MAX_SIZE, each on a fresh law: the
        # forms can first disagree on any of the 31 subsets S.  The messages
        # name S and both forms' verdicts there, so their digest pins the
        # first disagreeing mask, the mask order and the call order.
        assert HALL_MAX_SIZE == 5
        table = make_cyclic(7).table
        seen, messages = collections.Counter(), []
        for a_els in itertools.combinations(range(7), 5):
            for b_els in itertools.combinations(range(1, 7), 5):
                g = AlternatingLaw(table)
                try:
                    cross_validate_hall(subset(g, a_els), subset(g, b_els))
                    seen["agree"] += 1
                except CrossValidationError as error:
                    seen[re.match(r"Hall forms disagree|routes disagree", str(error))[0]] += 1
                    messages.append(str(error))
        assert seen == {"agree": 6, "Hall forms disagree": 60, "routes disagree": 60}
        assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == (
            "64899961af3403c9cbf622ef77fd697e1119d84c0d1d0b5f79447d709b72d8ec")

    def test_sweep_records_disagreeing_forms(self):
        r = sweep_hall(AlternatingLaw(make_cyclic(5).table), samples=60)
        assert r.status == "fail"
        assert any(f["kind"] == "cross-validation-disagreement"
                   and f["why"].startswith("Hall forms disagree on S = [") for f in r.failures)

    def test_sweep(self):
        r = sweep_hall(make_dihedral(4), samples=60, seed=3)
        assert r.status == "pass" and r.instances_tested == 60

    @pytest.mark.parametrize("spec", [*CATALOG_SPECS, "C12", "D6", "C14"])
    def test_sweep_equals_per_draw_reference(self, spec):
        g = parse_group_spec(spec)
        for seed in (0, 1, 7):
            assert (sweep_hall(g, seed=seed).to_dict()
                    == reference_hall_report(g, DEFAULT_HALL_SAMPLES, seed))

    def test_sweep_over_rows_wider_than_a_word(self):
        # D40's rows over its 80 elements are Python ints, searched per pair.
        g = make_dihedral(40)
        assert sweep_hall(g, seed=4).to_dict() == reference_hall_report(g, DEFAULT_HALL_SAMPLES, 4)

    @pytest.mark.parametrize("spec", ["S3", "D4", "D5", "D6"])
    def test_engine_reads_the_table_not_mul(self, spec):
        # A draw fails exactly when its verdict in the group differs from
        # that in the opposite group, where the two oracles decide it;
        # cross_validate_hall's engine reads the table too.
        g = parse_group_spec(spec)
        opposite = OppositeLaw(g.table, names=g.names, name=g.name)
        expected = []
        for a_els, b_els in _sized_pairs(g.n, min(HALL_MAX_SIZE, g.n - 1), DEFAULT_HALL_SAMPLES, 0):
            engine = isinstance(find_matching(subset(g, a_els), subset(g, b_els)), Matching)
            oracle = brute_force_matching(subset(opposite, a_els), subset(opposite, b_els)) is not None
            if engine != oracle:
                with pytest.raises(CrossValidationError, match="routes disagree"):
                    cross_validate_hall(subset(opposite, a_els), subset(opposite, b_els))
                expected.append({"kind": "cross-validation-disagreement",
                                 "A": list(a_els), "B": list(b_els),
                                 "why": f"routes disagree: engine={engine} brute={oracle} hall={oracle}"})
        assert len(expected) >= 10
        assert sweep_hall(opposite, seed=0).failures == expected

    def test_failing_pair_recorded_at_every_draw(self, monkeypatch):
        # C2 has two distinct pairs, ({0}, {1}) and ({1}, {1}), so the 500
        # draws repeat each; none may share another draw's record away.
        monkeypatch.setattr(theorems, "_brute_force", lambda *args: None)
        r = sweep_hall(make_cyclic(2), samples=500)
        draws = [(list(a), list(b)) for a, b in _sized_pairs(2, 1, 500, 0)]
        assert r.instances_tested == 500 and len(r.failures) == 500
        assert [(f["A"], f["B"]) for f in r.failures] == draws
        assert all(f == {"kind": "cross-validation-disagreement", "A": a, "B": b,
                         "why": "routes disagree: engine=True brute=False hall=True"}
                   for f, (a, b) in zip(r.failures, draws))


class TestReportContract:
    def test_status_invariant_across_checks(self):
        reports = [
            sweep_kemperman(make_cyclic(4)),
            sweep_corollary(make_cyclic(3)),
            sweep_olson(make_cyclic(4)),
            check_automatching(make_cyclic(4)),
            check_matching_property(make_cyclic(4)),
            sweep_hall(make_cyclic(4), samples=20),
            check_lattice_matching(1, 0),
            check_kemperman(subset(make_cyclic(2), [0, 1]), subset(make_cyclic(2), [0, 1])),
        ]
        for r in reports:
            assert_report_invariant(r)

    def test_automatching_ignores_jobs(self):
        g = make_cyclic(5)
        assert check_automatching(g, jobs=2).to_dict() == check_automatching(g).to_dict()

    def test_elapsed_runs_from_creation(self, monkeypatch):
        with pytest.raises(TypeError):
            theorems.CheckReport("x", started=0.0)

        def slow(group, max_order):
            time.sleep(0.05)
            return enumerate_subgroups(group, max_order)

        # The orbit table is built after the report is created, so its build
        # counts in elapsed.
        monkeypatch.setattr(theorems, "enumerate_subgroups", slow)
        theorems._orbit_table.cache_clear()
        t0 = time.perf_counter()
        report = sweep_olson(make_cyclic(6), samples=10)
        wall = time.perf_counter() - t0
        assert 0.05 <= report.elapsed <= wall

    def test_elapsed_excluded_from_machine_dict(self):
        r = sweep_kemperman(make_cyclic(3))
        assert "elapsed_seconds" not in r.to_dict()


def _d256_pair(k: int):
    """A seeded pair of k elements each in D256, the identity out of B."""
    group = make_dihedral(256)
    rng = random.Random(k)
    return (subset(group, rng.sample(range(group.n), k)),
            subset(group, rng.sample(range(1, group.n), k)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sweep_hall(make_cyclic(7)), id="sweep_hall-C7"),
    pytest.param(lambda: check_automatching(make_cyclic(6)), id="check_automatching-C6"),
    pytest.param(lambda: check_lattice_matching(1, 200), id="check_lattice_matching-d1"),
    pytest.param(lambda: check_matching_property(make_cyclic(6)), id="property-exhaustive-C6"),
    pytest.param(lambda: check_matching_property(make_cyclic(12)), id="property-certificate-C12"),
    pytest.param(lambda: check_matching_property(make_cyclic(11), samples=200),
                 id="property-sampled-C11"),
    pytest.param(lambda: cross_validate_hall(*_d256_pair(5)), id="cross_validate_hall-D256"),
    pytest.param(lambda: brute_force_matching(*_d256_pair(6)), id="brute_force_matching-D256"),
    pytest.param(lambda: find_matching(*_d256_pair(300)), id="find_matching-D256"),
    pytest.param(lambda: sweep_kemperman(make_cyclic(6)), id="sweep_kemperman-C6"),
    pytest.param(lambda: sweep_olson(make_cyclic(6)), id="sweep_olson-C6"),
    pytest.param(lambda: sweep_corollary(make_cyclic(4)), id="sweep_corollary-C4"),
])
def test_leaves_no_cyclic_garbage(call):
    # A reference cycle outlives its call until the collector finds it, and
    # the allocations it counts trigger collections in every later call.
    # The first call warms the caches, whose entries are not garbage.
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
