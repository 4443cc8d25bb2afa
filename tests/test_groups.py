import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmatch import (
    GroupSubset,
    GroupTable,
    LatticeGroup,
    NotAGroup,
    ParseError,
    SizeLimit,
    catalog,
    classify,
    cyclic_subgroup,
    direct_product,
    dumps_group,
    element_order,
    enumerate_subgroups,
    loads_group,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    make_symmetric,
    parse_group_spec,
)

# A 5x5 Latin square with identity at index 0 that is not associative
# (found by exhaustive search over loops of order 5).
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def _c722_intercalate():
    # C722 with the intercalate on rows and columns {1, 362} swapped: still
    # a Latin square with identity 0, but not associative.
    t = [[(i + j) % 722 for j in range(722)] for i in range(722)]
    for r in (1, 362):
        t[r][1], t[r][362] = t[r][362], t[r][1]
    return t


def _sympy_cayley_table(perm_group):
    # Cayley table of a sympy permutation group, identity reindexed to 0.
    elements = sorted(perm_group.elements, key=lambda p: (not p.is_Identity, p.array_form))
    index = {p: i for i, p in enumerate(elements)}
    return [[index[p * q] for q in elements] for p in elements]


class TestTableValidation:
    def test_trivial_group(self):
        g = GroupTable([[0]])
        assert g.n == 1 and g.identity == 0

    def test_c2_table(self):
        g = GroupTable([[0, 1], [1, 0]])
        assert g.mul(1, 1) == 0

    def test_repeated_row_value_is_not_latin(self):
        with pytest.raises(NotAGroup) as info:
            GroupTable([[0, 1], [1, 1]])
        assert info.value.reason == "not-latin-square"

    def test_column_duplicate_is_not_latin(self):
        with pytest.raises(NotAGroup) as info:
            GroupTable([[0, 1, 2], [1, 0, 2], [2, 0, 1]])
        assert info.value.reason == "not-latin-square"

    def test_identity_must_be_index_zero(self):
        # C2's table with rows/columns swapped so index 1 acts as identity
        with pytest.raises(NotAGroup) as info:
            GroupTable([[1, 0], [0, 1]])
        assert info.value.reason == "wrong-identity"

    @pytest.mark.parametrize("make_table", [lambda: NONASSOCIATIVE_LOOP, _c722_intercalate],
                             ids=["loop5", "c722-intercalate"])
    def test_nonassociative_loop_rejected(self, make_table):
        t = make_table()
        with pytest.raises(NotAGroup) as info:
            GroupTable(t)
        assert info.value.reason == "not-associative"
        i, j, k = info.value.detail
        assert t[t[i][j]][k] != t[i][t[j][k]]

    def test_sympy_groups_accepted(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        for perm_group, order in ((combinatorics.SymmetricGroup(5), 120),
                                  (combinatorics.AlternatingGroup(5), 60)):
            g = GroupTable(_sympy_cayley_table(perm_group))
            assert g.n == order

    def test_malformed_tables(self):
        with pytest.raises(ValueError):
            GroupTable([[0, 1]])
        with pytest.raises(ValueError):
            GroupTable([[0, 1], [1, 2]])

    def test_equality_ignores_provenance(self):
        assert make_cyclic(4) == parse_group_spec("C4")
        assert make_cyclic(4) != make_cyclic(5)

    @pytest.mark.parametrize("n, dtype", [(1, "uint8"), (256, "uint8"), (257, "uint16")])
    def test_array_mirrors_table(self, n, dtype):
        g = make_cyclic(n)
        assert g.array.dtype == dtype and not g.array.flags.writeable
        assert g.array.tolist() == [list(row) for row in g.table]
        # one int object per element, shared by every row
        assert len({id(x) for row in g.table for x in row}) == n


class TestFamilies:
    def test_cyclic_law(self):
        c5 = make_cyclic(5)
        assert c5.table[2][4] == 1
        assert make_cyclic(1).n == 1
        assert element_order(make_cyclic(4), 2) == 2

    def test_dihedral(self):
        d3 = make_dihedral(3)
        assert d3.n == 6
        assert any(d3.mul(a, b) != d3.mul(b, a)
                   for a in range(6) for b in range(6))

    def test_symmetric(self):
        assert make_symmetric(3).n == 6
        assert make_symmetric(5).n == 120
        with pytest.raises(ValueError):
            make_symmetric(6)

    def test_quaternion_single_involution(self):
        q8 = make_quaternion()
        assert q8.n == 8
        involutions = [a for a in range(8) if a != 0 and q8.mul(a, a) == 0]
        assert involutions == [4]
        assert element_order(q8, 4) == 2

    def test_klein_group(self):
        k4 = direct_product(make_cyclic(2), make_cyclic(2))
        assert [element_order(k4, a) for a in range(1, 4)] == [2, 2, 2]

    def test_order_caps(self):
        with pytest.raises(SizeLimit):
            make_dihedral(10, order_cap=12)
        with pytest.raises(SizeLimit):
            direct_product(make_cyclic(4), make_cyclic(4), order_cap=15)


class TestStructureQueries:
    def test_element_order_examples(self):
        c6 = make_cyclic(6)
        assert element_order(c6, 2) == 3
        assert element_order(c6, 0) == 1

    def test_element_order_divides_group_order(self):
        for g in catalog(max_order=10):
            for a in range(g.n):
                assert g.n % element_order(g, a) == 0

    def test_cyclic_subgroup_examples(self):
        c6 = make_cyclic(6)
        assert cyclic_subgroup(c6, 2).elements == (0, 2, 4)
        assert cyclic_subgroup(c6, 0).elements == (0,)
        assert cyclic_subgroup(make_cyclic(5), 3).elements == (0, 1, 2, 3, 4)
        assert len(cyclic_subgroup(c6, 2)) == element_order(c6, 2)

    def test_subgroups_c4(self):
        subs = enumerate_subgroups(make_cyclic(4))
        assert [s.elements for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]

    def test_subgroups_trivial_and_q8(self):
        assert len(enumerate_subgroups(make_cyclic(1))) == 1
        assert len(enumerate_subgroups(make_quaternion())) == 6

    def test_subgroups_against_exhaustive_scan(self):
        # independent oracle: scan every subset for closure
        import itertools

        for g in (make_cyclic(6), make_quaternion(), make_dihedral(4),
                  parse_group_spec("C2xC2xC2"), make_dihedral(5), make_cyclic(10)):
            expected = set()
            for k in range(1, g.n + 1):
                for cand in itertools.combinations(range(g.n), k):
                    members = set(cand)
                    if 0 not in members:
                        continue
                    if all(g.mul(a, b) in members for a in members for b in members):
                        expected.add(frozenset(members))
            got = {s.members for s in enumerate_subgroups(g)}
            assert got == expected

    def test_subgroup_cap(self):
        with pytest.raises(SizeLimit):
            enumerate_subgroups(make_cyclic(30))

    def test_classify(self):
        assert classify(make_cyclic(5)).predicted_matching_property
        assert not classify(make_cyclic(4)).predicted_matching_property
        assert classify(LatticeGroup(2)).predicted_matching_property
        assert classify(make_cyclic(1)).predicted_matching_property
        for p in range(1, 20):
            expected = p == 1 or all(p % f for f in range(2, p))
            assert classify(make_cyclic(p)).predicted_matching_property == expected


class TestLattice:
    def test_basic_law(self):
        z2 = LatticeGroup(2)
        assert z2.mul((1, 2), (3, -5)) == (4, -3)
        assert z2.identity == (0, 0)
        assert z2.inverse((1, -2)) == (-1, 2)

    def test_torsion_free_spot_check(self):
        z3 = LatticeGroup(3)
        for x in [(1, 0, 0), (2, -1, 5), (0, 0, -7)]:
            acc = x
            for _ in range(20):
                assert acc != z3.identity
                acc = z3.mul(acc, x)

    def test_element_validation(self):
        z2 = LatticeGroup(2)
        with pytest.raises(ValueError):
            z2.check_element((1,))
        with pytest.raises(ValueError):
            z2.check_element((1.5, 2))
        with pytest.raises(ValueError):
            LatticeGroup(0)


class TestSpecLanguage:
    def test_families(self):
        assert parse_group_spec("C4").n == 4
        assert parse_group_spec("D3").n == 6
        assert parse_group_spec("S4").n == 24
        assert parse_group_spec("Q8").n == 8
        assert parse_group_spec("C2xC4").n == 8
        assert parse_group_spec("C2xC2xC2").n == 8

    def test_lattice_spec(self):
        g = parse_group_spec("Z^2")
        assert isinstance(g, LatticeGroup) and g.d == 2

    def test_spec_errors_carry_position(self):
        for bad in ("", "C", "Q4", "S9", "Z^0", "C2x", "C2xZ^2", "c4"):
            with pytest.raises(ParseError) as info:
                parse_group_spec(bad)
            assert info.value.column is not None

    def test_product_matches_direct_product(self):
        assert parse_group_spec("C2xC3") == direct_product(make_cyclic(2), make_cyclic(3))


class TestFileFormat:
    def test_round_trip_whole_catalog(self):
        for g in catalog():
            again = loads_group(dumps_group(g))
            assert again.n == g.n
            assert again.table == g.table
            assert again.names == g.names

    def test_comma_separated_rows(self):
        g = loads_group("n 2\ntable\n0, 1\n1, 0\n")
        assert g == make_cyclic(2)

    def test_comments_and_blank_lines(self):
        g = loads_group("# C2\n\nn 2\ntable\n0 1\n1 0\n")
        assert g == make_cyclic(2)

    def test_loader_rejects_shifted_identity(self):
        with pytest.raises(NotAGroup):
            loads_group("n 2\ntable\n1 0\n0 1\n")

    def test_parse_errors_carry_line(self):
        for text in ("table\n0\n", "n 2\ntable\n0 1\n", "n 2\ntable\n0 1\n1 0\nnames\nx\n"):
            with pytest.raises(ParseError) as info:
                loads_group(text)
            assert info.value.line is not None

    def test_names_round_trip(self):
        q8 = make_quaternion()
        again = loads_group(dumps_group(q8))
        assert again.names == ("1", "i", "j", "k", "-1", "-i", "-j", "-k")

    @pytest.mark.parametrize("bad", ["", " b ", " a", "a\t", "#a", "a\nb", "a\n", "a\x1cb"],
                             ids=["empty", "padded", "leading-space", "trailing-tab", "hash",
                                  "two-lines", "trailing-newline", "file-separator"])
    def test_unwritable_names_rejected(self, bad):
        with pytest.raises(ValueError, match="element 1"):
            dumps_group(GroupTable([[0, 1], [1, 0]], names=["e", bad]))

    @given(st.text(" \t\n\r\x1c\u2028#ab-1", max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_written_names_load_back_unchanged(self, name):
        g = GroupTable([[0, 1], [1, 0]], names=["e", name])
        writable = name.splitlines() == [name] and name == name.strip() and name[:1] != "#"
        if not writable:
            with pytest.raises(ValueError):
                dumps_group(g)
            return
        assert loads_group(dumps_group(g)).names == ("e", name)

    def test_order_cap_checked_before_rows(self):
        with pytest.raises(SizeLimit) as info:
            loads_group("n 5041\n")
        assert (info.value.size, info.value.cap) == (5041, 5040)
        with pytest.raises(ParseError, match="expected 'table'"):
            loads_group("n 5040\n")


def test_subset_validation_uses_group():
    c4 = make_cyclic(4)
    with pytest.raises(ValueError):
        GroupSubset(c4, [4])
    with pytest.raises(ValueError):
        GroupSubset(c4, ["x"])
