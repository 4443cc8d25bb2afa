"""Existence, construction and certification of matchings.

A matching from A to B is a bijection phi with a*phi(a) outside A for
every a in A.  Existence is decided by maximum bipartite matching on the
matchability graph; non-existence is certified by a Hall violator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyInput, IdentityInB, SizeLimit, SizeMismatch
from .groups import GroupTable
from .subsets import GroupSubset, _same_group

BRUTE_FORCE_CAP = 7
# Graphs of at least this many |A|*|B| cells in a finite group gather
# their rows from the numpy Cayley table; smaller pairs and lattices
# build them in Python from ``mul``.  The two builders take equal time
# between 144 and 169 cells, where numpy's fixed cost per call is paid off.
TABLE_ROWS_MIN_CELLS = 169


def _bits(mask: int) -> list:
    """The set bits of mask, ascending: a mask's elements as indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class MatchabilityGraph:
    """Bipartite graph on A and B with an edge (a, b) iff a*b is not in A.

    Bit j of ``rows[i]`` is set iff ``left[i]`` may be matched to
    ``right[j]``.  ``adjacency[i]`` lists the same positions as an
    ascending tuple; it is derived from ``rows`` on first read.
    """

    left: tuple
    right: tuple
    rows: tuple[int, ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(_bits(row)) for row in self.rows)


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


def _python_rows(A: GroupSubset, B: GroupSubset) -> tuple[int, ...]:
    mul, members = A.group.mul, A.members
    bits = [1 << j for j in range(len(B))]
    rows = []
    for a in A.elements:
        row = 0
        for x, bit in zip(B.elements, bits):
            if mul(a, x) not in members:
                row |= bit
        rows.append(row)
    return tuple(rows)


def _table_rows(A: GroupSubset, B: GroupSubset) -> tuple[int, ...]:
    # One gather of the products from the Cayley table, one lookup of
    # membership in A, each row packed little-endian: bit j is B.elements[j].
    in_A = np.zeros(A.group.n, dtype=bool)
    in_A[list(A.elements)] = True
    products = A.group.array[np.ix_(A.elements, B.elements)]
    packed = np.packbits(~in_A[products], axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return tuple(int.from_bytes(data[i:i + width], "little")
                 for i in range(0, len(data), width))


def build_graph(A: GroupSubset, B: GroupSubset) -> MatchabilityGraph:
    """The matchability graph; row i is the candidate set of left[i]."""
    g = _same_group(A, B)
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    if isinstance(g, GroupTable) and len(A) * len(B) >= TABLE_ROWS_MIN_CELLS:
        rows = _table_rows(A, B)
    else:
        rows = _python_rows(A, B)
    return MatchabilityGraph(left=A.elements, right=B.elements, rows=rows)


def _maximum_matching(graph: MatchabilityGraph) -> tuple[list, list]:
    """Kuhn's augmenting-path algorithm with a fixed ascending scan order.

    The depth-first search keeps its own stack, so path length is not
    bounded by the recursion limit.  Each step takes the lowest right
    vertex of ``rows[u] & unvisited``, which is where an ascending scan of
    the row would resume.  A failed search leaves the matching unchanged
    and every right vertex it visited reaches only matched vertices it
    also visited, so the visited marks carry over to the next root and are
    reset only after an augmentation; the matching found is the same as
    with fresh marks per root.
    """
    rows = graph.rows
    match_left: list[int | None] = [None] * len(graph.left)
    match_right: list[int | None] = [None] * len(graph.right)
    all_right = unvisited = (1 << len(graph.right)) - 1
    for root in range(len(rows)):
        # lefts[k + 1] is the partner of the right vertex taken from lefts[k].
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
                # Flip the path: each left vertex takes the right vertex
                # reached from it and hands its old one to its predecessor.
                for u in reversed(lefts):
                    match_right[v] = u
                    match_left[u], v = v, match_left[u]
                unvisited = all_right
                break
            lefts.append(w)
    return match_left, match_right


def _extract_violator(group, graph: MatchabilityGraph,
                      match_left, match_right) -> HallViolator:
    # Alternating BFS from every unmatched left vertex; the reachable left
    # vertices form a Hall violator once the matching is maximum.  Each row
    # contributes the bits not reached before it, in ascending order; each
    # right vertex is reached once, so each matched partner is queued once.
    reach_left = [u for u, v in enumerate(match_left) if v is None]
    reach_right: list[int] = []
    reached = 0
    for u in reach_left:
        new = graph.rows[u] & ~reached
        reached |= new
        for v in _bits(new):
            reach_right.append(v)
            w = match_right[v]
            if w is not None:
                reach_left.append(w)
    subset = GroupSubset(group, (graph.left[u] for u in reach_left))
    neighborhood = GroupSubset(group, (graph.right[v] for v in reach_right))
    return HallViolator(subset=subset, neighborhood=neighborhood,
                        deficiency=len(subset) - len(neighborhood))


def find_matching(A: GroupSubset, B: GroupSubset):
    """Return a Matching from A to B, or a HallViolator proving none exists.

    The two necessary conditions are enforced as structured errors rather
    than certificates: |A| != |B| raises SizeMismatch and an identity in B
    raises IdentityInB.  Output is deterministic: left vertices are tried
    in ascending order and each candidate row is scanned ascending.
    """
    _same_group(A, B)
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    if len(A) != len(B):
        raise SizeMismatch(f"|A| = {len(A)} but |B| = {len(B)}")
    if A.group.identity in B:
        raise IdentityInB("B contains the identity, so no matching can exist")

    return _graph_result(A.group, build_graph(A, B))


def _graph_result(group, graph: MatchabilityGraph):
    """A Matching of every left vertex, or a HallViolator in ``group``."""
    match_left, match_right = _maximum_matching(graph)
    if None in match_left:
        return _extract_violator(group, graph, match_left, match_right)
    return Matching(pairs=tuple(zip(graph.left, map(graph.right.__getitem__, match_left))))


def _stay_tables(group: GroupTable) -> list:
    """``stay[a][k][v]`` is the mask of the x with a*x in {8k + j : bit j
    of v set}.  Distinct products have distinct x, so the entries that the
    bytes of A's mask pick from ``stay[a]`` sum to the mask of
    {x : a*x in A}.  Row a of the argsort of the Cayley table maps y to
    a⁻¹y, the x with a*x = y."""
    width = (group.n + 7) // 8
    stay = []
    for row in np.argsort(group.array, axis=1).tolist():
        back = [1 << x for x in row] + [0] * (8 * width - group.n)
        tables = []
        for k in range(width):
            table = [0]
            for bit in back[8 * k:8 * k + 8]:
                # Entry v + 2**j is entry v with the x of bit j added.
                table += [m | bit for m in table]
            tables.append(table)
        stay.append(tables)
    return stay


def _mask_graph(stay, a_els, a_mask: int, b_mask: int) -> MatchabilityGraph:
    """The matchability graph of A, given by its ascending elements and its
    mask, into B, given by its mask.  Row a is B minus {x : a*x in A}, one
    table lookup per byte of A's mask, with bit x for element x, so Kuhn's
    scan follows the ascending order of B."""
    a_bytes = a_mask.to_bytes(len(stay[0]), "little")
    rows = tuple([b_mask & ~sum(map(list.__getitem__, stay[a], a_bytes)) for a in a_els])
    return MatchabilityGraph(left=a_els, right=range(len(stay)), rows=rows)


def _mask_result(group: GroupTable, stay, a_els, a_mask: int, b_mask: int):
    """What find_matching(A, B) returns, for A and B given as in ``_mask_graph``."""
    return _graph_result(group, _mask_graph(stay, a_els, a_mask, b_mask))


def _mask_matches(stay, a_els, a_mask: int, b_mask: int) -> bool:
    """Whether a matching A -> B exists, by Kuhn's search alone: no
    certificate is built."""
    return None not in _maximum_matching(_mask_graph(stay, a_els, a_mask, b_mask))[0]


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
    g = _same_group(A, B)
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    if len(A) != len(B):
        raise SizeMismatch(f"|A| = {len(A)} but |B| = {len(B)}")
    if len(A) > BRUTE_FORCE_CAP:
        raise SizeLimit("brute-force bijection scan", len(A), BRUTE_FORCE_CAP)
    return _brute_force(A, B)


def _brute_force(A: GroupSubset, B: GroupSubset):
    """brute_force_matching after its input checks."""
    lefts, mul, members = A.elements, A.group.mul, A.members

    def extend(image: tuple, free: tuple):
        # free is B minus image, ascending, so images are tried in order.
        if not free:
            return image
        a = lefts[len(image)]
        for i, b in enumerate(free):
            if mul(a, b) not in members:
                found = extend(image + (b,), free[:i] + free[i + 1:])
                if found is not None:
                    return found
        return None

    image = extend((), B.elements)
    return None if image is None else Matching(pairs=tuple(zip(lefts, image)))
