"""Existence, construction and certification of matchings.

A matching from A to B is a bijection phi with a*phi(a) outside A for
every a in A.  Existence is decided by maximum bipartite matching on the
matchability graph; non-existence is certified by a Hall violator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import EmptyInput, IdentityInB, SizeLimit, SizeMismatch
from .groups import GroupTable
from .subsets import GroupSubset, _same_group

BRUTE_FORCE_CAP = 7
# _table_block's take casts its indices to intp; 64 rows at a time bound that
# copy at 64 * n * 8 bytes (256 KB at n = 512), not k * n * 8 for the block.
_TAKE_ROWS = 64


def _bits(mask: int) -> list:
    """The set bits of mask, ascending: a mask's elements as indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@lru_cache(maxsize=16)
def _right_bits(m: int) -> tuple[int, ...]:
    """The single-bit mask of each right position j < m: 1 << (m - 1 - j)."""
    return tuple(1 << p for p in range(m - 1, -1, -1))


def _positions(row: int, m: int) -> list:
    """The right positions of a row over m vertices, ascending, by one unpack."""
    bits = np.unpackbits(np.frombuffer(row.to_bytes(-(-m // 8), "big"), np.uint8))
    return bits[len(bits) - m:].nonzero()[0].tolist()


@dataclass(frozen=True)
class MatchabilityGraph:
    """Bipartite graph on A and B with an edge (a, b) iff a*b is not in A.

    Rows are stored most significant bit first: with m = len(right), bit
    m - 1 - j of ``rows[i]`` is set iff ``left[i]`` may be matched to
    ``right[j]``.  The lowest candidate of a row is then m minus its
    ``bit_length()``, which the matching search reads in one step.
    ``adjacency[i]`` lists the positions j as an ascending tuple; it is
    derived from ``rows`` on first read.
    """

    left: tuple
    right: tuple
    rows: tuple[int, ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        m = len(self.right)
        return tuple(tuple(_positions(row, m)) for row in self.rows)


@dataclass(frozen=True)
class Matching:
    """A bijection A -> B as (a, phi(a)) pairs, ascending in a."""

    pairs: tuple


@dataclass(frozen=True)
class HallViolator:
    """A certificate that no matching exists.

    ``subset`` is an S contained in A whose joint neighborhood in the
    matchability graph is smaller than S itself.
    """

    subset: GroupSubset
    neighborhood: GroupSubset
    deficiency: int


@dataclass(frozen=True)
class VerifyResult:
    """Boolean verdict plus the first failure reason when false."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _python_rows(mul, a_els, a_set, b_els) -> tuple[int, ...]:
    """The graph rows of A, given by its ascending elements and its set, over
    B's ascending elements, from the group law ``mul``."""
    bits = _right_bits(len(b_els))
    rows = []
    for a in a_els:
        row = 0
        for x, bit in zip(b_els, bits):
            if mul(a, x) not in a_set:
                row |= bit
        rows.append(row)
    return tuple(rows)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix of at most 64 columns as one uint64
    word, column j at bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(packed), 8), np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8").ravel()


def _pack_rows(bits: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as an int, column j at bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    rows = packed.view(f"V{packed.shape[1]}").ravel().tolist()
    return tuple(map(int.from_bytes, rows, itertools.repeat("little")))


def _table_block(A: GroupSubset, B: GroupSubset) -> tuple:
    """(block, right) from a Cayley table: block[i, j] says that a_i * x is
    outside A, for a_i ascending and x = right[-1 - j], so that _pack_rows
    puts right[j] at bit len(right) - 1 - j.  The quotients through the
    complement of A are elements, so that route spans range(n); the lookup
    spans B."""
    group, k, n = A.group, len(A), A.group.n
    a = np.array(A.elements, dtype=np.intp)
    outside = np.ones(n, dtype=bool)
    outside[a] = False
    if 4 * (n - k) <= k:
        # a*x lies outside A iff x = a⁻¹y for some y outside A, so only the
        # k * (n - k) quotients a⁻¹y are gathered, and one flat fancy-index
        # store (4x faster than ndarray.put) sets them all in the block.
        # The README gives the measurements behind the switch at 4(n - k).
        quotients = group.array.take(np.flatnonzero(outside), axis=1).take(
            group.inverses.take(a), axis=0)
        bits = np.zeros((k, n), dtype=bool)
        bits.reshape(-1)[np.arange(n - 1, k * n, n)[:, None] - quotients] = True
        return bits, range(n)
    # The products gathered from the table, A's rows and then B's columns
    # reversed, each looked up in ``outside`` by take, 2-3x faster than a
    # fancy index on uint16 (mode "clip" never clips here, and writes into bits).
    products = group.array.take(a, axis=0).take(B.elements[::-1], axis=1)
    bits = np.empty(products.shape, dtype=bool)
    for i in range(0, k, _TAKE_ROWS):
        outside.take(products[i:i + _TAKE_ROWS], out=bits[i:i + _TAKE_ROWS], mode="clip")
    return bits, B.elements


def _table_rows(A: GroupSubset, B: GroupSubset) -> tuple[int, ...]:
    """The graph rows of A over B's positions (see MatchabilityGraph)."""
    bits, right = _table_block(A, B)
    if isinstance(right, range):
        bits = bits.take(A.group.n - 1 - np.array(B.elements[::-1]), axis=1)
    return _pack_rows(bits)


def _search_rows(A: GroupSubset, B: GroupSubset) -> tuple:
    """(right, rows): the graph rows of A that ``find_matching`` searches,
    ``_python_rows`` without a Cayley table, else over ``_table_block``'s
    right side, where over the whole group element x is bit n - 1 - x and
    the elements outside B are unset."""
    if not isinstance(A.group, GroupTable):
        return B.elements, _python_rows(A.group.mul, A.elements, A.members, B.elements)
    bits, right = _table_block(A, B)
    if isinstance(right, range):
        in_b = np.zeros(A.group.n, dtype=bool)
        in_b[A.group.n - 1 - np.array(B.elements, dtype=np.intp)] = True
        bits &= in_b
    return right, _pack_rows(bits)


def _block_rows(group: GroupTable, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The graph rows of a block of pairs, given as boolean (P, n) matrices
    whose row p marks the elements of A_p and of B_p, as the words that
    ``_free_first_block`` reads: one row per a in A_p, pair by pair, a
    ascending.  The right side is the whole group, element x at bit n - 1 - x
    of a row, so row a is B_p minus {x : a*x in A_p}; a row is one uint64
    word when n <= 64, else a Python int in an object array.  The second set
    is gathered element by element, from the pairs that hold a, through a's
    row of ``group.array`` reversed, so each index holds n entries and no
    temporary outgrows the boolean rows."""
    _, p = np.nonzero(A.T)      # the pairs that hold a, a ascending
    ends = np.cumsum(np.count_nonzero(A, axis=0)).tolist()
    stay = np.empty((len(p), group.n), bool)
    start = 0
    for columns, end in zip(group.array[:, ::-1], ends):
        A.take(p[start:end], axis=0).take(columns, axis=1, out=stay[start:end])
        start = end
    order = np.argsort(p, kind="stable")
    bits = B[p[order], ::-1] & ~stay[order]
    return _pack_words(bits) if group.n <= 64 else np.array(_pack_rows(bits), object)


def build_graph(A: GroupSubset, B: GroupSubset) -> MatchabilityGraph:
    """The matchability graph; row i is the candidate set of left[i] over
    B's positions, gathered from the Cayley table when the group has one."""
    g = _same_group(A, B)
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    if isinstance(g, GroupTable):
        rows = _table_rows(A, B)
    else:
        rows = _python_rows(g.mul, A.elements, A.members, B.elements)
    return MatchabilityGraph(left=A.elements, right=B.elements, rows=rows)


def _free_first_matching(rows, m: int) -> tuple[list, list, int]:
    """A maximum matching of the rows of a graph over m right vertices (see
    MatchabilityGraph), by augmenting paths from each left vertex in
    ascending order, and the right vertices that its free left vertices
    reach by alternating paths, as (match_left, match_right, reach).

    A left vertex with a free candidate takes the lowest one at once, at any
    depth of the search.  Otherwise the depth-first search steps to the
    lowest candidate still unvisited, m minus the ``bit_length()`` of
    ``rows[u] & unvisited``, whose bit it reads from a tuple cached per
    width m, and goes on from that vertex's partner.  The search keeps its
    own stack, so path length is not bounded by the recursion limit.  No
    free vertex is ever marked visited, so a failed search marks only
    matched vertices, whose partners reach no free vertex.  A root that
    fails has no augmenting path and never gets one later (Kuhn's lemma),
    so the matching is maximum; with the order fixed, it is deterministic.

    Marks come only from depth-first steps: a direct take marks nothing,
    and a search that ends in a longer path resets them.  So at each
    failure the marks are the trees of the roots that failed since the last
    reset, and ``reach`` ORs them in.  A vertex of a failed root's tree
    never lies on a later augmenting path, which would give that root one
    too, so the tree's matched edges stay fixed and it stays reachable from
    its still-free root.  A failure ends only once every candidate of every
    left vertex in its tree is marked, so the OR over all failures is
    exactly the set of right vertices that the free left vertices reach in
    the final matching: N(S) of the Dulmage-Mendelsohn violator.
    """
    bit = _right_bits(m)
    match_left: list[int | None] = [None] * len(rows)
    match_right: list[int | None] = [None] * m
    all_right = unvisited = free = (1 << m) - 1
    reach = 0
    for root in range(len(rows)):
        direct = rows[root] & free
        if direct:
            v = m - direct.bit_length()
            free ^= bit[v]
            match_left[root], match_right[v] = v, root
            continue
        # lefts[k + 1] is the partner of the right vertex taken from lefts[k];
        # u is the last of them, and has no free candidate, so every one
        # still unvisited is matched.
        lefts, u = [root], root
        while True:
            avail = rows[u] & unvisited
            while not avail:
                lefts.pop()
                if not lefts:
                    break
                u = lefts[-1]
                avail = rows[u] & unvisited
            if not avail:
                reach |= all_right ^ unvisited
                break
            v = m - avail.bit_length()
            unvisited ^= bit[v]
            u = match_right[v]
            lefts.append(u)
            direct = rows[u] & free
            if direct:
                v = m - direct.bit_length()
                free ^= bit[v]
                # Flip the path: each left vertex takes the right vertex
                # reached from it and hands its old one to its predecessor.
                for u in reversed(lefts):
                    match_right[v] = u
                    match_left[u], v = v, match_left[u]
                unvisited = all_right
                break
    return match_left, match_right, reach


def _bit_length(words: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each nonzero uint64 word, as uint64.  ``frexp``
    reads the float nearest the word, and a word above 2**53 just below a
    power of two rounds up to it, one bit too long; shifted right by that
    length less one, such a word is 0, and the length is taken back."""
    length = np.frexp(words.astype(np.float64))[1].astype(np.uint64)
    length -= words >> (length - np.uint64(1)) == 0
    return length


def _free_first_block(words: np.ndarray, sizes: np.ndarray, m: int) -> tuple:
    """``_free_first_matching`` on each graph of a block, over m right
    vertices: the rows of graph p are the next ``sizes[p]`` of the
    ``words``, graph by graph, uint64 when m <= 64.  Returns (match, failed):
    ``match[i]`` is the right vertex that row i is matched to, and
    ``failed`` maps each graph the search leaves with an unmatched row to
    the search's (match_left, match_right, reach), its match entries unset.
    Rows wider than a word are Python ints, and every graph is searched.

    Every graph runs the search in numpy lanes, root k of every graph at
    once, k ascending.  The root takes its lowest free candidate, the
    highest set bit of its row word ANDed with its lane's free word.  A root
    with candidates but none free takes the search's first probe: its
    lowest candidate v1 is matched to an earlier row u2, and when u2 has a
    free candidate, u2 takes the lowest one and the root takes v1.  Neither
    step leaves a right vertex marked visited (the probe's path has length
    2, which resets the marks), so each stall of a lane starts from no
    marks, as the search's does, and the lanes hold its matching.  A graph
    whose root has an empty row, or whose probe finds u2 without a free
    candidate, is searched by ``_free_first_matching``, from scratch.  Its
    lane runs on to its last root, cheaper than dropping it, and writes only
    within its own graph's entries, which the search overwrites."""
    ends = np.cumsum(sizes)
    starts = ends - sizes
    wide = m > 64
    free = np.full(len(sizes), 0 if wide else (1 << m) - 1, np.uint64)
    match = np.zeros(len(words), np.min_scalar_type(m))
    stalled = np.full(len(sizes), wide)
    for k in range(0 if wide else int(sizes.max(initial=0))):
        lanes = np.flatnonzero(sizes > k)
        at = starts[lanes] + k
        row = words[at]
        direct = row & free[lanes]
        took = direct != 0
        if not took.all():
            # Every candidate of a stuck root is matched to an earlier row,
            # so u2 is the row whose right vertex, as a bit, is the highest
            # that the root's row shares.  The root takes that v1, and u2
            # steps in for it, to take its own lowest free candidate.  No
            # root is stuck at k = 0, where every candidate is free.
            stuck = np.flatnonzero(~took & (row != 0))
            if len(stuck):
                first = starts[lanes[stuck]]
                taken = match[first[:, None] + np.arange(k)]
                shared = (np.uint64(1) << (m - 1 - taken).astype(np.uint64)) & row[stuck, None]
                u2 = first + np.argmax(shared, axis=1)
                match[at[stuck]] = match[u2]
                at[stuck] = u2
                direct[stuck] = words[u2] & free[lanes[stuck]]
                took = direct != 0
            stalled[lanes[~took]] = True
            lanes, at, direct = lanes[took], at[took], direct[took]
        length = _bit_length(direct)
        free[lanes] ^= np.uint64(1) << (length - np.uint64(1))
        match[at] = m - length
    failed, at, found = {}, [], []
    if stalled.any():
        rows, starts, ends = words.tolist(), starts.tolist(), ends.tolist()
        for p in np.flatnonzero(stalled).tolist():
            match_left, match_right, reach = _free_first_matching(rows[starts[p]:ends[p]], m)
            if None in match_left:
                failed[p] = match_left, match_right, reach
            else:
                at += range(starts[p], ends[p])
                found += match_left
        match[at] = found
    return match, failed


def _extract_violator(group, left, right, match_left, match_right, reach) -> HallViolator:
    """The Hall violator of a graph from ``left`` to ``right`` (see
    MatchabilityGraph), from ``_free_first_matching``'s output: S is the
    free left vertices and the partners of the reached right vertices, and
    N(S) those vertices, read in order from the checked, ascending sides."""
    reached = _positions(reach, len(right))
    lefts = sorted([u for u, v in enumerate(match_left) if v is None]
                   + [match_right[v] for v in reached])
    subset = GroupSubset._ascending(group, [left[u] for u in lefts])
    neighborhood = GroupSubset._ascending(group, [right[v] for v in reached])
    return HallViolator(subset=subset, neighborhood=neighborhood,
                        deficiency=len(subset) - len(neighborhood))


def _equal_pair_group(A: GroupSubset, B: GroupSubset):
    """The group of A and B, after the checks of every equal-size pair:
    one group (MixedGroups), both nonempty (EmptyInput), |A| = |B|
    (SizeMismatch)."""
    g = _same_group(A, B)
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    if len(A) != len(B):
        raise SizeMismatch(f"|A| = {len(A)} but |B| = {len(B)}")
    return g


def find_matching(A: GroupSubset, B: GroupSubset):
    """Return a Matching from A to B, or a HallViolator proving none exists.

    The two necessary conditions are enforced as structured errors rather
    than certificates: |A| != |B| raises SizeMismatch and an identity in B
    raises IdentityInB.  One search, ``_free_first_matching``, decides
    existence and builds the result: a returned Matching is its perfect
    matching, found in a fixed order, and a returned HallViolator is read
    from the marks of its failed roots, the same for every maximum matching
    (Dulmage-Mendelsohn), so output is deterministic.  Over the whole group
    (``_search_rows``) it returns elements, in the same steps as over B.
    """
    g = _equal_pair_group(A, B)
    if g.identity in B:
        raise IdentityInB("B contains the identity, so no matching can exist")

    return _graph_result(g, A.elements, *_search_rows(A, B))


def _graph_result(group, left, right, rows):
    """A Matching of every left vertex, or a HallViolator in ``group``, on
    the rows of a graph (see MatchabilityGraph) from ``left`` to ``right``,
    a tuple, or range(n) when the rows span the whole group.

    The free-first search decides which.  A perfect matching it finds is
    the one returned.  Otherwise its failed roots' marks give, with no
    second search, the same Hall violator as any other maximum matching
    (the Dulmage-Mendelsohn decomposition).
    """
    match_left, match_right, reach = _free_first_matching(rows, len(right))
    if None in match_left:
        return _extract_violator(group, left, right, match_left, match_right, reach)
    images = match_left if isinstance(right, range) else map(right.__getitem__, match_left)
    return Matching(pairs=tuple(zip(left, images)))


def _matching_fault(group, a_set, b_set, pairs: tuple) -> str | None:
    """Why the (a, phi(a)) pairs are not a matching from the set A onto the
    set B, or None when they are: a bijection with a*phi(a) outside A."""
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    if len(pairs) != len(a_set) or len(a_set) != len(b_set):
        return f"pair count {len(pairs)} does not cover |A| = {len(a_set)}, |B| = {len(b_set)}"
    left_set, right_set = set(lefts), set(rights)
    if len(left_set) != len(lefts) or left_set != a_set:
        return "left elements do not cover A exactly once"
    if len(right_set) != len(rights) or right_set != b_set:
        return "not bijective: right elements do not cover B exactly once"
    for a, b in pairs:
        if group.mul(a, b) in a_set:
            return f"pair ({group.label(a)}, {group.label(b)}): product {group.label(group.mul(a, b))} lies in A"
    return None


def verify_matching(A: GroupSubset, B: GroupSubset, matching: Matching) -> VerifyResult:
    """Check bijectivity and the defining condition a*phi(a) not in A."""
    reason = _matching_fault(_same_group(A, B), A.members, B.members, tuple(matching.pairs))
    return VerifyResult(reason is None, reason)


def brute_force_matching(A: GroupSubset, B: GroupSubset):
    """Search the |A|! bijections in lexicographic order; independent oracle.

    A depth-first search assigns images to ``A.elements`` in order and
    abandons a partial bijection at its first pair with a*b in A, since
    no bijection extending it is valid.  Returns the first valid Matching
    in lexicographic order, or None when every bijection fails.
    """
    g = _equal_pair_group(A, B)
    if len(A) > BRUTE_FORCE_CAP:
        raise SizeLimit("brute-force bijection scan", len(A), BRUTE_FORCE_CAP)
    image = _brute_force(g.mul, A.elements, A.members, B.elements)
    return None if image is None else Matching(pairs=tuple(zip(A.elements, image)))


def _brute_force(mul, a_els, a_set, b_els):
    """brute_force_matching after its input checks, on A's ascending
    elements and set and B's ascending elements, from the group law ``mul``:
    the images of the first valid bijection, in A's order, or None."""
    return _extend(mul, a_els, a_set, (), b_els)


def _extend(mul, a_els, a_set, image: tuple, free: tuple):
    """_brute_force's search on from the images of A's first len(image)
    elements; free is B minus image, ascending, so images are tried in order.
    Not a closure, which would hold itself in a reference cycle per call."""
    if not free:
        return image
    a = a_els[len(image)]
    for i, b in enumerate(free):
        if mul(a, b) not in a_set:
            found = _extend(mul, a_els, a_set, image + (b,), free[:i] + free[i + 1:])
            if found is not None:
                return found
    return None
