import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmatch import (
    EmptyInput,
    GroupSubset,
    HallViolator,
    IdentityInB,
    LatticeGroup,
    Matching,
    SizeLimit,
    SizeMismatch,
    brute_force_matching,
    build_graph,
    find_matching,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    verify_matching,
)
from groupmatch import matching
from groupmatch.matching import TABLE_ROWS_MIN_CELLS, _maximum_matching
from groupmatch.subsets import candidate_set

SMALL_GROUPS = [make_cyclic(4), make_cyclic(5), make_cyclic(6), make_dihedral(3), make_quaternion()]


def _permutation_scan(A, B):
    """The first valid bijection among all |A|! in lexicographic order."""
    for image in itertools.permutations(B.elements):
        if all(A.group.mul(a, b) not in A for a, b in zip(A.elements, image)):
            return Matching(pairs=tuple(zip(A.elements, image)))
    return None


def admissible_pairs(group, max_size):
    """All (A, B) with |A| = |B| <= max_size and the identity outside B."""
    n = group.n
    for k in range(1, min(max_size, n - 1) + 1):
        for a_els in itertools.combinations(range(n), k):
            for b_els in itertools.combinations(range(1, n), k):
                yield GroupSubset(group, a_els), GroupSubset(group, b_els)


class TestBuildGraph:
    def test_c4_rows(self):
        c4 = make_cyclic(4)
        g = build_graph(GroupSubset(c4, [0, 2]), GroupSubset(c4, [1, 2]))
        assert g.left == (0, 2)
        assert g.right == (1, 2)
        assert g.adjacency == ((0,), (0,))

    def test_singleton_edge(self):
        q8 = make_quaternion()
        g = build_graph(GroupSubset(q8, [1]), GroupSubset(q8, [2]))
        assert g.adjacency == ((0,),)

    def test_c5_rows_match_oracle(self):
        c5 = make_cyclic(5)
        A = GroupSubset(c5, [1, 2, 3, 4])
        g = build_graph(A, A)
        # oracle: row a keeps x with a+x not in A
        expected = tuple(
            tuple(j for j, x in enumerate(A.elements) if c5.mul(a, x) not in A)
            for a in A.elements
        )
        assert g.adjacency == expected
        assert [g.right[j] for j in g.adjacency[0]] == [4]

    @pytest.mark.parametrize("group, a_els, b_els", [
        (make_dihedral(3), [1, 3, 4], [2, 3, 5]),
        (LatticeGroup(2), [(0, 0), (1, 0), (0, 1), (1, 1)], [(-1, 0), (0, -1), (1, 0), (2, 1)]),
        (make_cyclic(64), range(0, 42, 3), range(1, 64, 5)),
    ], ids=["d3", "z2", "c64"])
    def test_rows_are_candidate_sets(self, group, a_els, b_els):
        A = GroupSubset(group, a_els)
        B = GroupSubset(group, b_els)
        g = build_graph(A, B)
        for i, a in enumerate(g.left):
            candidates = candidate_set(A, B, a).elements
            row = tuple(g.right[j] for j in g.adjacency[i])
            assert row == candidates
            assert g.rows[i] == sum(1 << g.right.index(x) for x in candidates)

    @pytest.mark.parametrize("group", [make_quaternion(), make_dihedral(32), make_cyclic(64),
                                       make_cyclic(512)], ids=["q8", "d32", "c64", "c512"])
    def test_table_rows_equal_python_rows(self, group, monkeypatch):
        rng = random.Random(f"rows/{group.name}")
        below = math.isqrt(TABLE_ROWS_MIN_CELLS - 1)
        at = math.isqrt(TABLE_ROWS_MIN_CELLS)
        assert below * below < at * at == TABLE_ROWS_MIN_CELLS
        for k in (1, 2, group.n // 2, group.n - 1, below, at):
            if k >= group.n:
                continue
            for _ in range(3):
                A = GroupSubset(group, rng.sample(range(group.n), k))
                B = GroupSubset(group, rng.sample(range(1, group.n), k))
                assert matching._table_rows(A, B) == matching._python_rows(A, B)
                if k in (below, at):
                    # Default path first, then the other builder forced.
                    result = find_matching(A, B)
                    monkeypatch.setattr(matching, "TABLE_ROWS_MIN_CELLS",
                                        1 if k == below else TABLE_ROWS_MIN_CELLS + 1)
                    assert find_matching(A, B) == result
                    monkeypatch.undo()

    def test_empty_rejected(self):
        c4 = make_cyclic(4)
        with pytest.raises(EmptyInput):
            build_graph(GroupSubset(c4), GroupSubset(c4, [1]))


class TestFindMatching:
    def test_c4_violator(self):
        c4 = make_cyclic(4)
        r = find_matching(GroupSubset(c4, [0, 2]), GroupSubset(c4, [1, 2]))
        assert isinstance(r, HallViolator)
        assert r.subset.elements == (0, 2)
        assert r.neighborhood.elements == (1,)
        assert r.deficiency == 1

    def test_c5_inverse_matching(self):
        c5 = make_cyclic(5)
        A = GroupSubset(c5, [1, 2, 3, 4])
        r = find_matching(A, A)
        assert isinstance(r, Matching)
        assert r.pairs == ((1, 4), (2, 3), (3, 2), (4, 1))

    def test_singleton_self_pair(self):
        c4 = make_cyclic(4)
        A = GroupSubset(c4, [3])
        r = find_matching(A, A)
        assert r.pairs == ((3, 3),)

    def test_structured_errors(self):
        c4 = make_cyclic(4)
        with pytest.raises(SizeMismatch):
            find_matching(GroupSubset(c4, [1, 2]), GroupSubset(c4, [1]))
        with pytest.raises(IdentityInB):
            find_matching(GroupSubset(c4, [0, 2]), GroupSubset(c4, [0, 2]))
        with pytest.raises(EmptyInput):
            find_matching(GroupSubset(c4), GroupSubset(c4))

    def test_every_matching_verifies(self):
        for g in SMALL_GROUPS:
            for A, B in admissible_pairs(g, 3):
                r = find_matching(A, B)
                if isinstance(r, Matching):
                    assert verify_matching(A, B, r)

    def test_violator_certificate_is_sound(self):
        for g in SMALL_GROUPS:
            for A, B in admissible_pairs(g, 3):
                r = find_matching(A, B)
                if isinstance(r, HallViolator):
                    union = set()
                    for s in r.subset:
                        union |= candidate_set(A, B, s).members
                    assert union == r.neighborhood.members
                    assert r.subset.issubset(A)
                    assert len(union) < len(r.subset)
                    assert r.deficiency == len(r.subset) - len(union) >= 1

    def test_deterministic(self):
        d3 = make_dihedral(3)
        A = GroupSubset(d3, [1, 2, 4])
        B = GroupSubset(d3, [2, 3, 5])
        assert find_matching(A, B) == find_matching(A, B)

    def test_lattice_matching(self):
        z2 = LatticeGroup(2)
        A = GroupSubset(z2, [(0, 0), (1, 1)])
        B = GroupSubset(z2, [(1, 0), (0, 1)])
        r = find_matching(A, B)
        assert isinstance(r, Matching)
        assert verify_matching(A, B, r)


def _reference_kuhn(graph):
    """Recursive Kuhn with a fresh visited set per root: the engine's spec."""
    match_left = [None] * len(graph.left)
    match_right = [None] * len(graph.right)

    def augment(u, visited):
        for v in graph.adjacency[u]:
            if v not in visited:
                visited.add(v)
                w = match_right[v]
                if w is None or augment(w, visited):
                    match_left[u], match_right[v] = v, u
                    return True
        return False

    for u in range(len(graph.left)):
        augment(u, set())
    return match_left, match_right


def _index_two_subgroup(group):
    """Rotations of a dihedral table, even residues of a cyclic one."""
    half = group.n // 2
    return list(range(half)) if group.name.startswith("D") else list(range(0, group.n, 2))


def _seeded_pairs(group, sizes, rng):
    """A random identity-free pair per size, plus A = H u R with H of index 2
    whenever |H| < |A| <= 2|H| - 2: H*(B n H) lies in A and |B \\ H| < |H|,
    so S = H is a Hall violator."""
    H = _index_two_subgroup(group)
    outside = sorted(set(range(group.n)) - set(H))
    for k in sizes:
        yield (GroupSubset(group, rng.sample(range(group.n), k)),
               GroupSubset(group, rng.sample(range(1, group.n), k)))
        r = k - len(H)
        if 0 < r <= len(H) - 2:
            m = rng.randint(r + 1, len(H) - 1)
            yield (GroupSubset(group, H + rng.sample(outside, r)),
                   GroupSubset(group, rng.sample(outside, m) + rng.sample(H[1:], k - m)))


class TestEngineAtScale:
    @pytest.mark.parametrize("group", [make_dihedral(32), make_cyclic(64)], ids=["d32", "c64"])
    def test_same_matching_as_recursive_kuhn(self, group):
        rng = random.Random(f"kuhn/{group.name}")
        violators = 0
        for A, B in _seeded_pairs(group, [1, 8, 24, 40, 48, 56, 60, 62, 63] * 4, rng):
            graph = build_graph(A, B)
            match_left, match_right = _maximum_matching(graph)
            assert (match_left, match_right) == _reference_kuhn(graph)
            violators += None in match_left
        assert violators >= 8

    def test_no_recursion_limit(self):
        c1280 = make_cyclic(1280)
        A = GroupSubset(c1280, random.Random(0).sample(range(1, 1280), 1216))
        B = GroupSubset(c1280, random.Random(0).sample(range(1, 1280), 1216))
        r = find_matching(A, B)
        assert isinstance(r, HallViolator) or verify_matching(A, B, r)

    @pytest.mark.parametrize("group", [make_dihedral(128), make_cyclic(256)], ids=["d128", "c256"])
    def test_agrees_with_networkx(self, group):
        nx = pytest.importorskip("networkx")
        rng = random.Random(f"networkx/{group.name}")
        outcomes = set()
        for A, B in _seeded_pairs(group, [100, 200, 240], rng):
            graph = build_graph(A, B)
            top = [("a", i) for i in range(len(A))]
            G = nx.Graph()
            G.add_nodes_from(top)
            G.add_nodes_from(("b", j) for j in range(len(B)))
            G.add_edges_from((("a", i), ("b", j))
                             for i, row in enumerate(graph.adjacency) for j in row)
            M = nx.bipartite.hopcroft_karp_matching(G, top_nodes=top)
            nu = len(M) // 2
            r = find_matching(A, B)
            assert isinstance(r, Matching) == (nu == len(A))
            if isinstance(r, HallViolator):
                assert r.deficiency == len(A) - nu
                # König: (A \ S) u N(S) is a vertex cover of G with nu vertices.
                cover = ({("a", i) for i, a in enumerate(A.elements) if a not in r.subset}
                         | {("b", j) for j, b in enumerate(B.elements) if b in r.neighborhood})
                assert len(cover) == nu
                assert all(u in cover or v in cover for u, v in G.edges)
            outcomes.add(type(r))
        assert outcomes == {Matching, HallViolator}


class TestVerifyMatching:
    def test_accepts_valid(self):
        c5 = make_cyclic(5)
        A = GroupSubset(c5, [1, 2, 3, 4])
        m = Matching(pairs=((1, 4), (2, 3), (3, 2), (4, 1)))
        assert verify_matching(A, A, m).ok

    def test_rejects_product_in_a(self):
        c4 = make_cyclic(4)
        v = verify_matching(GroupSubset(c4, [0, 2]), GroupSubset(c4, [1, 2]),
                            Matching(pairs=((0, 2), (2, 1))))
        assert not v
        assert "lies in A" in v.reason

    def test_rejects_repeated_right_element(self):
        c5 = make_cyclic(5)
        A = GroupSubset(c5, [1, 2])
        B = GroupSubset(c5, [2, 3])
        v = verify_matching(A, B, Matching(pairs=((1, 2), (2, 2))))
        assert not v
        assert "bijective" in v.reason

    def test_rejects_wrong_cover(self):
        c5 = make_cyclic(5)
        A = GroupSubset(c5, [1, 2])
        B = GroupSubset(c5, [2, 3])
        v = verify_matching(A, B, Matching(pairs=((1, 2), (3, 3))))
        assert not v


class TestBruteForce:
    def test_c4_has_none(self):
        c4 = make_cyclic(4)
        assert brute_force_matching(GroupSubset(c4, [0, 2]), GroupSubset(c4, [1, 2])) is None

    def test_singleton(self):
        c4 = make_cyclic(4)
        A = GroupSubset(c4, [3])
        assert brute_force_matching(A, A).pairs == ((3, 3),)

    def test_c6_construction_has_none(self):
        c6 = make_cyclic(6)
        assert brute_force_matching(GroupSubset(c6, [0, 2, 4]), GroupSubset(c6, [1, 2, 4])) is None

    def test_size_cap(self):
        c10 = make_cyclic(10)
        A = GroupSubset(c10, range(1, 9))
        with pytest.raises(SizeLimit):
            brute_force_matching(A, A)

    def test_exhaustive_agreement_with_engine(self):
        for g in (make_cyclic(4), make_cyclic(5), make_dihedral(3)):
            for A, B in admissible_pairs(g, 4):
                engine = isinstance(find_matching(A, B), Matching)
                brute = brute_force_matching(A, B) is not None
                assert engine == brute

    def test_same_first_matching_as_permutation_scan(self):
        results = set()
        pairs = [pair for g in (make_dihedral(3), make_cyclic(6)) for pair in admissible_pairs(g, 4)]
        q8, z2 = make_quaternion(), LatticeGroup(2)
        rng = random.Random("oracle")
        for k in range(1, 8):
            for _ in range(15):
                pairs.append((GroupSubset(q8, rng.sample(range(8), k)),
                              GroupSubset(q8, rng.sample(range(8), k))))
        points = list(itertools.product(range(-1, 2), repeat=2))
        for k in range(1, 7):
            for _ in range(15):
                pairs.append((GroupSubset(z2, rng.sample(points, k)),
                              GroupSubset(z2, rng.sample(points, k))))
        for A, B in pairs:
            found = brute_force_matching(A, B)
            assert found == _permutation_scan(A, B)
            results.add(found is None)
        assert results == {True, False}

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_agreement_with_engine(self, data):
        g = data.draw(st.sampled_from(SMALL_GROUPS))
        k = data.draw(st.integers(1, min(5, g.n - 1)))
        a_els = data.draw(st.sets(st.integers(0, g.n - 1), min_size=k, max_size=k))
        b_els = data.draw(st.sets(st.integers(1, g.n - 1), min_size=k, max_size=k))
        A, B = GroupSubset(g, a_els), GroupSubset(g, b_els)
        engine = isinstance(find_matching(A, B), Matching)
        assert engine == (brute_force_matching(A, B) is not None)
