import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmatch import (
    EmptyInput,
    GroupSubset,
    LatticeGroup,
    MixedGroups,
    NotInA,
    ParseError,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    parse_subset_literal,
)
from groupmatch.cli import main
from groupmatch.subsets import candidate_set, product_set, stable_set, unique_products

SMALL_GROUPS = [make_cyclic(4), make_cyclic(6), make_dihedral(3), make_quaternion()]


@st.composite
def group_and_subsets(draw, count=2, min_size=0):
    g = draw(st.sampled_from(SMALL_GROUPS))
    subsets = tuple(
        GroupSubset(g, draw(st.sets(st.integers(0, g.n - 1), min_size=min_size)))
        for _ in range(count)
    )
    return (g, *subsets)


def brute_factor_counts(A, B):
    """Independent double-loop oracle for factorization multiplicities."""
    counts = {}
    for a in A.elements:
        for b in B.elements:
            c = A.group.mul(a, b)
            counts[c] = counts.get(c, 0) + 1
    return counts


class TestProductSet:
    def test_c4_example(self):
        c4 = make_cyclic(4)
        got = product_set(GroupSubset(c4, [1, 2]), GroupSubset(c4, [2, 3]))
        assert got.elements == (0, 1, 3)

    def test_identity_factor(self):
        c4 = make_cyclic(4)
        B = GroupSubset(c4, [1, 3])
        assert product_set(GroupSubset(c4, [0]), B) == B

    def test_empty_factor(self):
        c4 = make_cyclic(4)
        assert len(product_set(GroupSubset(c4), GroupSubset(c4, [1, 2]))) == 0

    def test_mixed_groups(self):
        with pytest.raises(MixedGroups):
            product_set(GroupSubset(make_cyclic(4), [1]), GroupSubset(make_cyclic(5), [1]))

    def test_lattice_minkowski_sum(self):
        z2 = LatticeGroup(2)
        A = GroupSubset(z2, [(0, 0), (1, 0)])
        B = GroupSubset(z2, [(0, 1), (1, 0)])
        assert product_set(A, B).elements == ((0, 1), (1, 0), (1, 1), (2, 0))

    @given(group_and_subsets(count=3))
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, data):
        _, A, B, C = data
        assert product_set(product_set(A, B), C) == product_set(A, product_set(B, C))

    @given(group_and_subsets(count=2, min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_size_bound_with_equality_iff_all_unique(self, data):
        _, A, B = data
        ab = product_set(A, B)
        assert len(ab) <= len(A) * len(B)
        all_unique = len(unique_products(A, B)) == len(ab)
        assert (len(ab) == len(A) * len(B)) == all_unique


class TestUniqueProducts:
    def test_c5_example(self):
        c5 = make_cyclic(5)
        A = GroupSubset(c5, [1, 2])
        wits = unique_products(A, A)
        assert [(w.value, w.factorizations) for w in wits] == [
            (2, ((1, 1),)),
            (4, ((2, 2),)),
        ]

    def test_singleton_left_factor(self):
        q8 = make_quaternion()
        A = GroupSubset(q8, [3])
        B = GroupSubset(q8, [0, 1, 5])
        assert len(unique_products(A, B)) == len(B)

    def test_c2_full_sets_have_none(self):
        c2 = make_cyclic(2)
        full = GroupSubset(c2, [0, 1])
        assert unique_products(full, full) == []

    @given(group_and_subsets(count=2, min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_against_double_loop_oracle(self, data):
        _, A, B = data
        counts = brute_factor_counts(A, B)
        expected = sorted(c for c, k in counts.items() if k == 1)
        assert [w.value for w in unique_products(A, B)] == expected


class TestCandidateSet:
    def test_automatching_case(self):
        c4 = make_cyclic(4)
        A = GroupSubset(c4, [1, 2])
        assert candidate_set(A, A, 1).elements == (2,)

    def test_singletons(self):
        c4 = make_cyclic(4)
        got = candidate_set(GroupSubset(c4, [1]), GroupSubset(c4, [2]), 1)
        assert got.elements == (2,)

    def test_identity_in_a(self):
        c4 = make_cyclic(4)
        got = candidate_set(GroupSubset(c4, [0, 2]), GroupSubset(c4, [1, 2]), 0)
        assert got.elements == (1,)

    def test_anchor_must_be_in_a(self):
        c4 = make_cyclic(4)
        with pytest.raises(NotInA):
            candidate_set(GroupSubset(c4, [0, 2]), GroupSubset(c4, [1, 2]), 3)


class TestStableSet:
    def test_c4_example(self):
        c4 = make_cyclic(4)
        A = GroupSubset(c4, [0, 2])
        got = stable_set(A, GroupSubset(c4, [1, 2]), A)
        assert got.elements == (2,)

    def test_c5_identity_free_full(self):
        c5 = make_cyclic(5)
        A = GroupSubset(c5, [1, 2, 3, 4])
        assert stable_set(A, A, A).elements == ()

    def test_empty_s_rejected(self):
        c4 = make_cyclic(4)
        A = GroupSubset(c4, [0, 2])
        with pytest.raises(EmptyInput):
            stable_set(A, A, GroupSubset(c4))

    def test_s_outside_a_rejected(self):
        c4 = make_cyclic(4)
        with pytest.raises(NotInA):
            stable_set(GroupSubset(c4, [0, 2]), GroupSubset(c4, [1]), GroupSubset(c4, [1]))

    @given(group_and_subsets(count=2, min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_duality_and_containment(self, data):
        g, A, B = data
        rng = random.Random(len(A) * 31 + len(B))
        s_els = rng.sample(A.elements, rng.randint(1, len(A)))
        S = GroupSubset(g, s_els)
        V = stable_set(A, B, S)
        union = set()
        for s in S:
            union |= candidate_set(A, B, s).members
        assert V == GroupSubset(g, B.members - union)
        assert product_set(S, V).issubset(A) or len(V) == 0


# (literal, message, column) for malformed literals, recorded from the
# character-scanner parser this tokenizer replaced.
LITERAL_ERRORS = [
    ("0,2", "expected '{', got '0'", 1),
    ("-3{", "expected '{', got '-'", 1),
    ("", "unexpected end of input", 1),
    ("   ", "unexpected end of input", 4),
    ("{", "expected an integer", 2),
    ("{0,}", "expected an integer", 4),
    ("{0 2}", "expected ',' or '}', got '2'", 4),
    ("{1 23}", "expected ',' or '}', got '2'", 4),
    ("{1-3}", "expected ',' or '}', got '-'", 3),
    ("{0 ,2 ) ", "expected ',' or '}', got ')'", 7),
    ("{(0}", "expected ',' or ')', got '}'", 4),
    ("{(1 2)}", "expected ',' or ')', got '2'", 5),
    ("{(0,)}", "expected an integer", 5),
    ("{(", "expected an integer", 3),
    ("{(0", "unexpected end of input", 4),
    ("{- 3}", "expected an integer", 2),
    ("{--3}", "expected an integer", 2),
    ("{a}", "expected an integer", 2),
    ("\t{\n0,\n}", "expected an integer", 7),
    ("{0,2}x", "trailing characters after subset literal", 6),
    (" {} }", "trailing characters after subset literal", 5),
    ("{0,2", "unexpected end of input", 5),
]


@st.composite
def literal_and_subset(draw):
    """A subset and its literal, with random whitespace between tokens."""
    kind = draw(st.sampled_from(["finite", "z1", "z2"]))
    if kind == "finite":
        group = draw(st.sampled_from(SMALL_GROUPS))
        elems = draw(st.lists(st.integers(0, group.n - 1), max_size=6))
        items = [[str(x)] for x in elems]
    else:
        d = 1 if kind == "z1" else 2
        group = LatticeGroup(d)
        elems = draw(st.lists(st.tuples(*[st.integers(-99, 99)] * d), max_size=6))
        # Z^1 members are written as bare integers, Z^2 members as tuples.
        items = ([[str(x)] for (x,) in elems] if d == 1
                 else [["(", str(x), ",", str(y), ")"] for x, y in elems])
    tokens = ["{"]
    for i, item in enumerate(items):
        tokens += ([","] if i else []) + item
    tokens.append("}")
    gaps = draw(st.lists(st.text(" \t\n", max_size=2),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))
    return text, GroupSubset(group, elems)


class TestSubsetLiterals:
    def test_finite_literals(self):
        c6 = make_cyclic(6)
        assert parse_subset_literal("{0,2,4}", c6).elements == (0, 2, 4)
        assert parse_subset_literal("{ 1 , 3 }", c6).elements == (1, 3)
        assert parse_subset_literal("{}", c6).elements == ()

    def test_lattice_literals(self):
        z2 = LatticeGroup(2)
        got = parse_subset_literal("{(0,0),(1,2)}", z2)
        assert got.elements == ((0, 0), (1, 2))
        z1 = LatticeGroup(1)
        assert parse_subset_literal("{-3,1}", z1).elements == ((-3,), (1,))

    def test_syntax_errors_carry_column(self):
        for group in (make_cyclic(6), LatticeGroup(2)):
            for bad, message, column in LITERAL_ERRORS:
                with pytest.raises(ParseError) as info:
                    parse_subset_literal(bad, group)
                assert (str(info.value), info.value.column) == (
                    f"{message} (column {column})", column), bad

    def test_non_decimal_digit_is_a_parse_error(self, capsys):
        # str.isdigit() holds for '²' but int() rejects it: the literal
        # grammar takes decimal digits only.
        with pytest.raises(ParseError) as info:
            parse_subset_literal("{²}", make_cyclic(6))
        assert (str(info.value), info.value.column) == ("expected an integer (column 2)", 2)
        assert main(["match", "C4", "{²}", "{1}"]) == 2
        assert "expected an integer (column 2)" in capsys.readouterr().out

    @given(literal_and_subset())
    @settings(max_examples=150, deadline=None)
    def test_formatted_subset_round_trips(self, data):
        text, expected = data
        assert parse_subset_literal(text, expected.group) == expected

    def test_members_validated_against_group(self):
        with pytest.raises(ValueError):
            parse_subset_literal("{9}", make_cyclic(4))
        with pytest.raises(ValueError):
            parse_subset_literal("{(1,2)}", LatticeGroup(3))


class TestSubsetBasics:
    def test_canonical_order_and_dedup(self):
        c6 = make_cyclic(6)
        assert GroupSubset(c6, [5, 1, 5, 3]).elements == (1, 3, 5)

    def test_set_operations(self):
        c6 = make_cyclic(6)
        A = GroupSubset(c6, [0, 1, 2])
        B = GroupSubset(c6, [2, 3])
        assert B.issubset(GroupSubset(c6, A.members | B.members))
        assert not B.issubset(A)
        with pytest.raises(MixedGroups):
            A.issubset(GroupSubset(make_cyclic(5), [1]))
