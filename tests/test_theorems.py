import itertools
import random

import numpy as np
import pytest

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
from groupmatch.cli import main
from groupmatch.matching import (TABLE_ROWS_MIN_CELLS, _bits, _mask_matches, _mask_result,
                                 _stay_tables)
from groupmatch.reports import elements_json
from groupmatch.subsets import product_set, unique_products
from groupmatch.theorems import (PAIR_BLOCK, PROPERTY_EXHAUSTIVE_CAP, _automatching_instance,
                                 _column, _columns, _pair_masks, _product_counts, _property_record,
                                 _sampled_pairs, _sized_pairs)


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


def all_pairs(group):
    subsets = [subset(group, _bits(m)) for m in range(1, 1 << group.n)]
    return itertools.product(subsets, subsets)


def seeded_pairs(group, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield (subset(group, _bits(rng.randrange(1, 1 << group.n))),
               subset(group, _bits(rng.randrange(1, 1 << group.n))))


class TestSampledPairs:
    """The bulk sampler reads the same Mersenne Twister words as per-draw
    ``randrange(1, 1 << n)`` calls, A then B, and leaves the generator in the
    same state.  n <= 3 often draws 2**n - 1 and redraws; the counts around
    PAIR_BLOCK cross a block edge; n = 31..33 and 64, 65 cross word edges."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 14, 24, 31, 32, 33, 64, 65])
    def test_blocks_and_state_equal_per_draw_loop(self, n):
        for seed in (0, 7):
            for samples in (1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1, 2000):
                bulk, loop = random.Random(seed), random.Random(seed)
                got = list(_sampled_pairs(n, samples, bulk))
                sizes = [min(PAIR_BLOCK, samples - lo) for lo in range(0, samples, PAIR_BLOCK)]
                assert [A.shape for A, _ in got] == [(n, size) for size in sizes]
                for (A, B), size in zip(got, sizes):
                    a_masks, b_masks = zip(*[(loop.randrange(1, 1 << n), loop.randrange(1, 1 << n))
                                             for _ in range(size)])
                    assert np.array_equal(A, _columns(a_masks, n))
                    assert np.array_equal(B, _columns(b_masks, n))
                assert bulk.getstate() == loop.getstate()


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
            # Only the steps for a in A are taken, as the single-pair checks do.
            count = _product_counts(g, _column(g, A.elements), _column(g, B.elements),
                                    A.elements)[:, 0]
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
            check_automatching(make_cyclic(16))

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


class TestAutomatchingFaultRecords:
    def test_invalid_matchings_and_confirmations_are_pinned(self):
        c5 = make_cyclic(5)
        report = check_automatching(LeftProjection(c5.table, name=c5.name)).to_dict()
        whys = ["pair (1, 1): product 1 lies in A", "pair (2, 2): product 2 lies in A",
                "pair (1, 2): product 1 lies in A", "pair (3, 3): product 3 lies in A",
                "pair (1, 3): product 1 lies in A", "pair (2, 3): product 2 lies in A",
                "pair (1, 3): product 1 lies in A", "pair (4, 4): product 4 lies in A",
                "pair (1, 4): product 1 lies in A", "pair (2, 4): product 2 lies in A",
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


class TestMaskInstancePath:
    """The sweeps' mask instances against the public engine on GroupSubsets."""

    def test_property_instances(self):
        # Sizes 12 and 13 in C14 take find_matching's Python and numpy row
        # builders on either side of TABLE_ROWS_MIN_CELLS.
        assert 12 * 12 < TABLE_ROWS_MIN_CELLS <= 13 * 13
        unmatchable = 0
        for spec, sizes in [("C12", range(1, 12)), ("D6", range(1, 12)), ("Q8", range(1, 8)),
                            ("C2xC4", range(1, 8)), ("C14", [3, 6, 9, 12, 13])]:
            g = parse_group_spec(spec)
            stay = _stay_tables(g)
            rng = random.Random(f"property/{spec}")
            for k in sizes:
                for _ in range(12):
                    a_els = tuple(sorted(rng.sample(range(g.n), k)))
                    b_els = tuple(sorted(rng.sample(range(1, g.n), k)))
                    expected = engine_result(g, a_els, b_els)
                    masks = _pair_masks((a_els, b_els))
                    assert _mask_result(g, stay, *masks) == expected
                    assert _mask_matches(stay, *masks) == isinstance(expected, Matching)
                    if isinstance(expected, HallViolator):
                        assert (_property_record(g, stay, (a_els, b_els))
                                == violator_record(a_els, b_els, expected))
                        unmatchable += 1
        assert unmatchable >= 20

    @pytest.mark.parametrize("spec", ["D5", "Q8"])
    def test_automatching_instances(self, spec):
        g = parse_group_spec(spec)
        stay = _stay_tables(g)
        for mask in range(1, 1 << (g.n - 1)):
            a_els = _bits(mask << 1)
            expected = engine_result(g, a_els, a_els)
            assert isinstance(expected, Matching)
            assert _mask_result(g, stay, a_els, mask << 1, mask << 1) == expected
            assert _automatching_instance(g, stay, mask) is None

    @pytest.mark.parametrize("spec", [*CATALOG_SPECS, "S4", "C24", "D12"])
    def test_stay_tables_against_mul(self, spec):
        # Orders 1 to 24: masks of one, two and three bytes.
        g = parse_group_spec(spec)
        stay = _stay_tables(g)
        rng = random.Random(f"stay/{spec}")
        for _ in range(40):
            a_mask = rng.randrange(1 << g.n)
            a_bytes = a_mask.to_bytes((g.n + 7) // 8, "little")
            in_A = {y for y in g.elements() if a_mask >> y & 1}
            for a in g.elements():
                expected = sum(1 << x for x in g.elements() if g.mul(a, x) in in_A)
                assert sum(table[v] for table, v in zip(stay[a], a_bytes)) == expected


def reference_property_outcome(group, samples, seed):
    """(pairs_failed, minimal record) of sampled matching-property, from a
    record built for every failing pair by find_matching on GroupSubsets."""
    failing = []
    for a_els, b_els in _sized_pairs(group.n, group.n - 1, samples, seed):
        result = engine_result(group, a_els, b_els)
        if isinstance(result, HallViolator):
            failing.append(violator_record(a_els, b_els, result))
    minimal = min(failing, key=lambda r: (len(r["A"]), r["A"], r["B"])) if failing else None
    return len(failing), minimal


class TestMatchingProperty:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("spec", ["D4", "C2xC4", "C12", "D6"])
    def test_counts_and_minimal_record_match_reference(self, spec, seed):
        g = parse_group_spec(spec)
        assert g.n > PROPERTY_EXHAUSTIVE_CAP
        out = check_matching_property(g, samples=300, seed=seed).flagged[-1]
        failed, minimal = reference_property_outcome(g, 300, seed)
        assert failed > 0
        assert (out["pairs_failed"], out["counterexample"]) == (failed, minimal)

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
        r = check_matching_property(make_quaternion(), samples=400, seed=9)
        assert r.status == "pass" and r.seed == 9
        out = r.flagged[-1]
        assert out["mode"] == "sampled" and out["pairs_failed"] >= 1

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
        r = check_matching_property(make_cyclic(8), samples=0)
        assert r.status == "skipped" and r.instances_tested == 0 and not r.failures


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
            assert isinstance(find_matching(A, B), HallViolator)
            if len(A) <= 6:
                assert brute_force_matching(A, B) is None

    def test_not_applicable_for_prime_and_trivial(self):
        for spec in ("C2", "C5", "C7"):
            with pytest.raises(NotApplicable):
                construct_counterexample(parse_group_spec(spec))
        with pytest.raises(NotApplicable):
            construct_counterexample(make_cyclic(1))


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

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            check_lattice_matching(1, -5)

    @pytest.mark.parametrize("d", [1, 2])
    def test_negative_coordinate_bound_rejected(self, d):
        with pytest.raises(ValueError, match="coordinate_bound must be at least 0"):
            check_lattice_matching(d, 10, coordinate_bound=-3)

    def test_seed_determinism(self):
        a = check_lattice_matching(2, 50, seed=3).to_dict()
        b = check_lattice_matching(2, 50, seed=3).to_dict()
        assert a == b


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

    def test_preconditions(self):
        c10 = make_cyclic(10)
        big = subset(c10, [1, 2, 3, 4, 5, 6])
        with pytest.raises(SizeLimit):
            cross_validate_hall(big, big)
        c4 = make_cyclic(4)
        with pytest.raises(IdentityInB):
            cross_validate_hall(subset(c4, [1, 2]), subset(c4, [0, 1]))

    def test_disagreeing_forms_name_s_by_element(self):
        class AlternatingLaw(GroupTable):
            """s*x alternates between 3 (in A) and 4 (outside A) from call to call."""

            def __init__(self, table):
                super().__init__(table)
                self.calls = itertools.count()

            def mul(self, a, b):
                return 3 + next(self.calls) % 2

        g = AlternatingLaw(make_cyclic(5).table)
        # Each form evaluates 3*3 once, one call after the other, so they see
        # opposite answers and disagree whichever comes first.
        with pytest.raises(CrossValidationError, match=r"Hall forms disagree on S = \[3\]"):
            cross_validate_hall(subset(g, [3]), subset(g, [3]))

    def test_sweep(self):
        r = sweep_hall(make_dihedral(4), samples=60, seed=3)
        assert r.status == "pass" and r.instances_tested == 60


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

    def test_elapsed_excluded_from_machine_dict(self):
        r = sweep_kemperman(make_cyclic(3))
        assert "elapsed_seconds" not in r.to_dict()
