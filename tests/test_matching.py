import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmatch import (
    CATALOG_SPECS,
    EmptyInput,
    GroupSubset,
    GroupTable,
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
    parse_group_spec,
    verify_matching,
)
from groupmatch import matching
from groupmatch.matching import (MatchabilityGraph, _block_rows, _extract_violator,
                                 _free_first_matching, _graph_result, _pack_rows)
from groupmatch.subsets import candidate_set
from groupmatch.theorems import _failing_pairs

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
        subsets = [GroupSubset(group, els) for els in itertools.combinations(range(n), k)]
        for A in subsets:
            for B in subsets:
                if group.identity not in B:
                    yield A, B


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
        m = len(g.right)
        for i, a in enumerate(g.left):
            candidates = candidate_set(A, B, a).elements
            row = tuple(g.right[j] for j in g.adjacency[i])
            assert row == candidates
            assert g.rows[i] == sum(1 << (m - 1 - g.right.index(x)) for x in candidates)
        # perfbench's tracer counts edges through adjacency.
        assert sum(len(r) for r in g.adjacency) == sum(r.bit_count() for r in g.rows)

    @pytest.mark.parametrize("group", [make_quaternion(), make_dihedral(32), make_cyclic(64),
                                       make_dihedral(256), make_cyclic(512), make_cyclic(97),
                                       make_dihedral(50)],
                             ids=["q8", "d32", "c64", "d256", "c512", "c97", "d50"])
    def test_table_rows_equal_python_rows(self, group):
        # find_matching takes the table rows at every size, 1 x 1 included;
        # the rows built from mul, and the search on them, agree.  63-65 and
        # 129 rows sit at the edges of the 64-row lookup chunks, and
        # ceil(4n/5) is the first size built through the complement of A.
        rng = random.Random(f"rows/{group.name}")
        switch = -(-4 * group.n // 5)
        for k in (1, 2, group.n // 2, group.n - 1, 12, 13, 63, 64, 65, 129, switch - 1, switch):
            if k >= group.n:
                continue
            for _ in range(3):
                A = GroupSubset(group, rng.sample(range(group.n), k))
                B = GroupSubset(group, rng.sample(range(1, group.n), k))
                rows = matching._python_rows(group.mul, A.elements, A.members, B.elements)
                assert matching._table_rows(A, B) == rows
                assert find_matching(A, B) == _graph_result(group, A.elements, B.elements, rows)

    @pytest.mark.parametrize("group", [make_cyclic(12), make_dihedral(32)], ids=["c12", "d32"])
    def test_pairs_find_matching_rejects_equal_python_rows(self, group):
        # build_graph accepts A = G, whose complement is empty so that every
        # row is 0, B holding the identity, and |A| != |B|, at sizes on both
        # sides of the switch to the complement of A.
        n, rng = group.n, random.Random(f"domain/{group.name}")
        cases = [(range(n), rng.sample(range(n), n // 2)), (range(n), range(n))]
        for k in (n // 2, n - 2):
            cases += [(rng.sample(range(n), k), [0, *rng.sample(range(1, n), k - 1)]),
                      (rng.sample(range(n), k), rng.sample(range(1, n), 1)),
                      (rng.sample(range(n), k), range(n))]
        for a_els, b_els in cases:
            A, B = GroupSubset(group, a_els), GroupSubset(group, b_els)
            rows = build_graph(A, B).rows
            assert rows == matching._python_rows(group.mul, A.elements, A.members, B.elements)
            if len(A) == n:
                assert rows == (0,) * n

    def test_rows_through_the_complement_allocate_no_product_block(self):
        # At |A| = 1000 of 1024 the rows come from the 24 quotients a⁻¹y per
        # row: the peak is the k x (m + 1) bool block, where gathering every
        # product a*b would take 2 bytes each and the lookup 1 more (4.1x).
        group, rng = make_cyclic(1024), random.Random("complement-peak")
        A = GroupSubset(group, rng.sample(range(1024), 1000))
        B = GroupSubset(group, rng.sample(range(1, 1024), 1000))
        for build in (matching._table_rows, matching._search_rows):
            tracemalloc.start()
            try:
                build(A, B)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * 1000 * 1000, (build.__name__, peak)

    @pytest.mark.parametrize("group", [make_quaternion(), make_cyclic(64), make_cyclic(97),
                                       make_dihedral(50)], ids=["q8", "c64", "c97", "d50"])
    def test_search_rows_are_python_rows(self, group):
        # find_matching's rows: through the complement of A they span the
        # whole group, element x at bit n - 1 - x, with every element
        # outside B unset, at orders that are multiples of 8 and not;
        # through the lookup they span B's positions.  Sizes on both sides
        # of the switch.
        n, rng = group.n, random.Random(f"search-rows/{group.name}")
        switch = -(-4 * n // 5)
        for k in (1, 2, n // 2, switch - 1, switch, n - 1):
            for _ in range(3):
                A = GroupSubset(group, rng.sample(range(n), k))
                B = GroupSubset(group, rng.sample(range(1, n), k))
                right, rows = matching._search_rows(A, B)
                if k < switch:
                    assert right == B.elements
                    assert rows == matching._python_rows(group.mul, A.elements, A.members,
                                                         B.elements)
                    continue
                in_b = sum(1 << (n - 1 - x) for x in B.elements)
                spread = matching._python_rows(group.mul, A.elements, A.members, range(n))
                assert right == range(n)
                assert rows == tuple(row & in_b for row in spread)

    def test_empty_rejected(self):
        c4 = make_cyclic(4)
        with pytest.raises(EmptyInput):
            build_graph(GroupSubset(c4), GroupSubset(c4, [1]))

    @pytest.mark.parametrize("columns", [1, 7, 8, 9, 64, 65, 200, 512,
                                         pytest.param((507, 512), id="507-of-512")])
    def test_pack_rows_reads_column_j_at_bit_j(self, columns):
        # Widths from one byte up, on both sides of a byte edge and of 64
        # columns.  507 of 512 drawn columns are a non-contiguous slice, as
        # the complement route passes bits[:, :m].
        m, drawn = columns if isinstance(columns, tuple) else (columns, columns)
        bits = (np.random.default_rng(drawn).random((9, drawn)) < 0.5)[:, :m]
        assert bits.flags.c_contiguous == (m == drawn)
        bits[0], bits[1] = False, True
        assert _pack_rows(bits) == tuple(sum(1 << j for j in np.flatnonzero(row).tolist())
                                         for row in bits)

    @pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 63, 64, 65, 97, 512])
    def test_positions_read_bit_m_less_1_less_j_as_j(self, m):
        rng = random.Random(m)
        for row in (0, (1 << m) - 1, *(rng.getrandbits(m) if m else 0 for _ in range(20))):
            assert matching._positions(row, m) == [j for j in range(m) if row >> (m - 1 - j) & 1]


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

    def test_complement_route_unique_matching(self):
        # |A| = 11 of 12 puts the pair on the row builder's route through the
        # complement of A: a*b lies outside A only at 11, so the one matching
        # is a -> 11 - a.
        c12 = make_cyclic(12)
        r = find_matching(GroupSubset(c12, range(11)), GroupSubset(c12, range(1, 12)))
        assert r == Matching(pairs=tuple((a, 11 - a) for a in range(11)))

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
    """Recursive Kuhn with a fresh visited set per root, candidates tried
    ascending: a maximum matching in another order than the engine's."""
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
    def test_find_matching_returns_free_first_matching(self, group):
        # The Matching handed back is that of Kuhn's augmenting paths in the
        # free-first order, as the recursive reference finds it.
        rng = random.Random(f"kuhn/{group.name}")
        perfect = 0
        for A, B in _seeded_pairs(group, [1, 8, 24, 40, 48, 56, 60, 62, 63] * 4, rng):
            result = find_matching(A, B)
            if isinstance(result, Matching):
                graph = build_graph(A, B)
                match_left, _ = _reference_free_first(graph.rows, len(graph.right))
                assert result.pairs == tuple(zip(A.elements, (B.elements[v] for v in match_left)))
                assert verify_matching(A, B, result)
                perfect += 1
        assert perfect >= 8

    @pytest.mark.parametrize("group", [make_dihedral(32), make_cyclic(64)], ids=["d32", "c64"])
    def test_violators_equal_checked_subsets(self, group):
        # Violators skip GroupSubset's element checks; on pairs built to
        # fail, each side equals, and hashes as, the checked subset of its
        # elements, which it holds ascending.
        rng = random.Random(f"violators/{group.name}")
        violators = 0
        for A, B in _seeded_pairs(group, [40, 48, 56, 60, 62] * 4, rng):
            result = find_matching(A, B)
            if isinstance(result, HallViolator):
                for side in (result.subset, result.neighborhood):
                    checked = GroupSubset(group, side.elements)
                    assert side == checked and hash(side) == hash(checked)
                    assert side.elements == checked.elements
                violators += 1
        assert violators >= 8

    def test_no_recursion_limit(self):
        c1280 = make_cyclic(1280)
        A = GroupSubset(c1280, random.Random(0).sample(range(1, 1280), 1216))
        B = GroupSubset(c1280, random.Random(0).sample(range(1, 1280), 1216))
        r = find_matching(A, B)
        assert isinstance(r, HallViolator) or verify_matching(A, B, r)

    # SHA-256 of every find_matching result of test_large_results_are_pinned.
    LARGE_DIGEST = "6b542673dc5732fd65dfb51b48a192374904a19ea0832ea37d38a19cfea172ee"

    def test_large_results_are_pinned(self):
        # Seeded pairs at order 512 from half the group to all but one
        # element; 409 and 410 lie on either side of 4n/5.  Each size above
        # 256 also gives a pair built so that the index-2 subgroup violates
        # Hall's condition.
        digest, kinds = hashlib.sha256(), set()
        for group in (make_dihedral(256), make_cyclic(512)):
            rng = random.Random(f"pinned/{group.name}")
            for A, B in _seeded_pairs(group, [256, 409, 410, 486, 511], rng):
                result = find_matching(A, B)
                digest.update(_result_key(result))
                kinds.add(type(result))
        assert kinds == {Matching, HallViolator}
        assert digest.hexdigest() == self.LARGE_DIGEST

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


def _reference_free_first(rows, m):
    """Recursive free-first search with a fresh visited set per root: a left
    vertex with a free candidate takes the lowest, else the candidates are
    tried ascending, as in _reference_kuhn."""
    match_left, match_right = [None] * len(rows), [None] * m
    candidates = [matching._positions(row, m) for row in rows]

    def augment(u, visited):
        for v in candidates[u]:
            if match_right[v] is None:
                match_left[u], match_right[v] = v, u
                return True
        for v in candidates[u]:
            if v not in visited:
                visited.add(v)
                if augment(match_right[v], visited):
                    match_left[u], match_right[v] = v, u
                    return True
        return False

    for u in range(len(rows)):
        augment(u, set())
    return match_left, match_right


def _reference_violator(group, left, right, rows, match_left, match_right):
    """The Hall violator of a graph from a maximum matching, by alternating
    BFS from every unmatched left vertex: the reached left vertices are S
    and the reached right vertices N(S)."""
    m = len(right)
    reach_left = [u for u, v in enumerate(match_left) if v is None]
    reach_right, reached = [], 0
    for u in reach_left:
        new = rows[u] & ~reached
        reached |= new
        for v in matching._positions(new, m):
            reach_right.append(v)
            if match_right[v] is not None:
                reach_left.append(match_right[v])
    subset = GroupSubset(group, [left[u] for u in reach_left])
    neighborhood = GroupSubset(group, [right[v] for v in reach_right])
    return HallViolator(subset=subset, neighborhood=neighborhood,
                        deficiency=len(subset) - len(neighborhood))


def _fails_before_reset(rows, m) -> bool:
    """Whether some root of the free-first search fails before a later root
    augments along a path longer than 1, which rematches an earlier root
    and resets the search's marks."""
    failed, before = False, []
    for r in range(len(rows)):
        match_left = _free_first_matching(rows[:r + 1], m)[0]
        if failed and match_left[:r] != before:
            return True
        failed = failed or match_left[r] is None
        before = match_left
    return False


def _is_matching(rows, m, match_left, match_right):
    """Each matched left vertex takes a candidate of its row, and the two
    sides of the matching mirror each other."""
    pairs = [(u, v) for u, v in enumerate(match_left) if v is not None]
    return (all(rows[u] >> (m - 1 - v) & 1 for u, v in pairs)
            and sorted((u, v) for v, u in enumerate(match_right) if u is not None) == pairs)


class TestFreeFirstSearch:
    """The free-first search finds a maximum matching, and from it the same
    Hall violator as Kuhn's canonical order (the Dulmage-Mendelsohn
    decomposition)."""

    def _check_graph(self, group, graph) -> tuple:
        m = len(graph.right)
        match_left, match_right, reach = _free_first_matching(graph.rows, m)
        free_first = match_left, match_right
        kuhn = _reference_kuhn(graph)
        assert _is_matching(graph.rows, m, *free_first)
        assert free_first == _reference_free_first(graph.rows, m)
        assert free_first[0].count(None) == kuhn[0].count(None)
        perfect = None not in kuhn[0]
        if perfect:
            assert reach == 0
        else:
            assert (_extract_violator(group, graph.left, graph.right, *free_first, reach)
                    == _reference_violator(group, graph.left, graph.right, graph.rows, *kuhn))
        return perfect, free_first != kuhn

    def test_random_row_sets(self):
        group, rng = make_cyclic(12), random.Random("free-first")
        outcomes, differ, reset = set(), 0, 0
        for _ in range(2400):
            k = rng.randint(1, 12)
            m = rng.randint(k, 12)
            density = rng.random()
            rows = tuple(sum(1 << p for p in range(m) if rng.random() < density)
                         for _ in range(k))
            graph = MatchabilityGraph(left=tuple(range(k)), right=tuple(range(m)), rows=rows)
            perfect, other = self._check_graph(group, graph)
            outcomes.add(perfect)
            differ += other
            reset += _fails_before_reset(rows, m)
        assert outcomes == {True, False}
        assert differ >= 100
        # The reach keeps the marks of the roots that failed before a reset.
        assert reset >= 100

    @pytest.mark.parametrize("group", [make_dihedral(32), make_cyclic(64)], ids=["d32", "c64"])
    def test_seeded_pairs(self, group):
        rng = random.Random(f"kuhn/{group.name}")
        outcomes = [self._check_graph(group, build_graph(A, B))[0]
                    for A, B in _seeded_pairs(group, [1, 8, 24, 40, 48, 56, 60, 62, 63] * 4, rng)]
        assert outcomes.count(False) >= 8 and outcomes.count(True) >= 8

    def test_marks_across_direct_and_longer_augmentations(self):
        # Root 1 fails and leaves 0 marked.  Roots 2 and 3 each take a free
        # candidate at once, which keeps that mark, so root 4 skips 0 and
        # augments through 1 and root 2's free 3.  That longer augmentation
        # resets the marks, or root 5 could not pass through 1, which root
        # 4 visited, to reach root 3's free 4 over root 4's 2.
        candidates = [{0}, {0}, {1, 3}, {2, 4}, {0, 1, 2}, {1}]
        rows = tuple(sum(1 << (4 - v) for v in row) for row in candidates)
        match_left, match_right, reach = _free_first_matching(rows, 5)
        assert match_left == [0, None, 3, 4, 2, 1]
        assert match_right == [0, 5, 4, 2, 3]
        # Root 1's mark, which root 4's augmentation reset, stays in the
        # reach: S = {0, 1} and N(S) = {0}.
        assert _fails_before_reset(rows, 5) and reach == 0b10000
        violator = _extract_violator(make_cyclic(6), range(6), range(5), match_left,
                                     match_right, reach)
        assert (violator.subset.elements, violator.neighborhood.elements) == ((0, 1), (0,))


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

    @pytest.mark.parametrize("pairs", [((1, 3),), ((1, 3), (2, 2), (1, 2))],
                             ids=["too-few", "too-many"])
    def test_pair_count_reason_is_pinned(self, pairs):
        c5 = make_cyclic(5)
        v = verify_matching(GroupSubset(c5, [1, 2]), GroupSubset(c5, [2, 3]),
                            Matching(pairs=pairs))
        assert (v.ok, v.reason) == (False, f"pair count {len(pairs)} does not cover |A| = 2, |B| = 2")


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

    def test_structured_errors(self):
        c4 = make_cyclic(4)
        with pytest.raises(EmptyInput, match="^A and B must be nonempty$"):
            brute_force_matching(GroupSubset(c4), GroupSubset(c4, [1]))
        with pytest.raises(SizeMismatch, match=r"^\|A\| = 1 but \|B\| = 2$"):
            brute_force_matching(GroupSubset(c4, [1]), GroupSubset(c4, [1, 2]))

    def test_oracle_returns_the_images_of_its_matching(self):
        # The oracle behind brute_force_matching returns the images of A's
        # ascending elements, or None; the public function pairs them.
        results = set()
        for A, B in admissible_pairs(make_dihedral(3), 3):
            image = matching._brute_force(A.group.mul, A.elements, A.members, B.elements)
            found = brute_force_matching(A, B)
            assert image == (None if found is None else tuple(b for _, b in found.pairs))
            results.add(image is None)
        assert results == {True, False}

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


def _lsb_rows(A, B):
    """Rows with bit j marking B.elements[j], least significant bit first."""
    if isinstance(A.group, GroupTable):
        in_A = np.zeros(A.group.n, dtype=bool)
        in_A[list(A.elements)] = True
        keep = ~in_A[A.group.array[np.ix_(A.elements, B.elements)]]
        return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                for row in keep]
    mul, members = A.group.mul, A.members
    return [sum(1 << j for j, x in enumerate(B.elements) if mul(a, x) not in members)
            for a in A.elements]


def _lsb_kuhn(rows, m):
    """Kuhn's search on least-significant-bit-first rows, taking the lowest
    candidate as ``avail & -avail``: the engine's loop before its rows were
    stored most-significant-bit first, kept as the reference for verdicts
    and violators."""
    match_left = [None] * len(rows)
    match_right = [None] * m
    all_right = unvisited = (1 << m) - 1
    for root in range(len(rows)):
        lefts = [root]
        while lefts:
            avail = rows[lefts[-1]] & unvisited
            if not avail:
                lefts.pop()
                continue
            low = avail & -avail
            unvisited ^= low
            v = low.bit_length() - 1
            w = match_right[v]
            if w is None:
                for u in reversed(lefts):
                    match_right[v] = u
                    match_left[u], v = v, match_left[u]
                unvisited = all_right
                break
            lefts.append(w)
    return match_left, match_right


def _lsb_result(A, B):
    """find_matching(A, B) computed on least-significant-bit-first rows, with
    Kuhn's canonical matching in place of the free-first one."""
    rows = _lsb_rows(A, B)
    match_left, match_right = _lsb_kuhn(rows, len(B))
    if None not in match_left:
        return Matching(pairs=tuple(zip(A.elements, (B.elements[v] for v in match_left))))
    reach_left = [u for u, v in enumerate(match_left) if v is None]
    reach_right, reached = [], 0
    for u in reach_left:
        new = rows[u] & ~reached
        reached |= new
        for v in range(len(B)):
            if new >> v & 1:
                reach_right.append(v)
                if match_right[v] is not None:
                    reach_left.append(match_right[v])
    subset = GroupSubset(A.group, (A.elements[u] for u in reach_left))
    neighborhood = GroupSubset(A.group, (B.elements[v] for v in reach_right))
    return HallViolator(subset=subset, neighborhood=neighborhood,
                        deficiency=len(subset) - len(neighborhood))


def _result_key(result) -> bytes:
    if isinstance(result, Matching):
        return repr(("matching", result.pairs)).encode()
    return repr(("violator", result.subset.elements, result.neighborhood.elements,
                 result.deficiency)).encode()


def _assert_agrees(A, B, result, expected):
    """The engine's result has the reference's verdict and violator; a
    returned matching may differ from the reference's but must be valid."""
    if isinstance(expected, Matching):
        assert isinstance(result, Matching) and verify_matching(A, B, result)
    else:
        assert result == expected


class TestLsbRowEquivalence:
    """The engine against Kuhn's search on least-significant-bit-first rows."""

    # SHA-256 of every find_matching result below, in order.  Re-pinned once
    # when find_matching began returning the free-first search's matching in
    # place of Kuhn's canonical one; every verdict and violator is still the
    # reference's, which the assertions check on their own.
    DIGEST = "d9874b706113e6292144ac274994177832479ac8820aba1516fea58719b8c63b"

    def test_find_matching_equals_reference(self):
        pairs = []
        for group in (make_dihedral(256), make_cyclic(512)):
            n = group.n
            sizes = [n // 2, int(0.8 * n), int(0.95 * n), int(0.99 * n)]
            pairs += _seeded_pairs(group, sizes, random.Random(f"lsb/{group.name}"))
        for spec in CATALOG_SPECS:
            pairs += admissible_pairs(parse_group_spec(spec), 3)
        z2, rng = LatticeGroup(2), random.Random("lsb/Z2")
        points = list(itertools.product(range(-3, 4), repeat=2))
        nonzero = [p for p in points if p != (0, 0)]
        for k in range(1, 16):
            for _ in range(4):
                pairs.append((GroupSubset(z2, rng.sample(points, k)),
                              GroupSubset(z2, rng.sample(nonzero, k))))
        digest, kinds = hashlib.sha256(), set()
        for A, B in pairs:
            result = find_matching(A, B)
            _assert_agrees(A, B, result, _lsb_result(A, B))
            digest.update(_result_key(result))
            kinds.add((type(A.group), type(result)))
        # Z^2 is torsion-free, so every identity-free pair there matches.
        assert kinds == {(GroupTable, Matching), (GroupTable, HallViolator),
                         (LatticeGroup, Matching)}
        assert digest.hexdigest() == self.DIGEST

    def test_mask_instances_equal_reference(self):
        outcomes = set()
        for spec in ("C8", "Q8", "D6", "C16", "C2xC8", "S4", "D12", "C24"):
            g = parse_group_spec(spec)
            rng = random.Random(f"lsb-mask/{spec}")
            pairs = [(tuple(sorted(rng.sample(range(g.n), k))),
                      tuple(sorted(rng.sample(range(1, g.n), k))))
                     for k in range(1, g.n) for _ in range(6)]
            A, B = (np.zeros((len(pairs), g.n), bool) for _ in "AB")
            for p, (a_els, b_els) in enumerate(pairs):
                A[p, list(a_els)] = B[p, list(b_els)] = True
            rows, start = _block_rows(g, A, B).tolist(), 0
            for a_els, b_els in pairs:
                expected = _lsb_result(GroupSubset(g, a_els), GroupSubset(g, b_els))
                result = _graph_result(g, a_els, range(g.n), rows[start:start + len(a_els)])
                start += len(a_els)
                _assert_agrees(GroupSubset(g, a_els), GroupSubset(g, b_els), result, expected)
                failed = isinstance(expected, HallViolator)
                assert _failing_pairs(g, [(a_els, b_els)])[:2] == (1, int(failed))
                outcomes.add(type(expected))
            assert start == len(rows)
        assert outcomes == {Matching, HallViolator}
