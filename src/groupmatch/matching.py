"""Existence, construction and certification of matchings.

A matching from A to B is a bijection phi with a*phi(a) outside A for
every a in A.  Existence is decided by maximum bipartite matching on the
matchability graph; non-existence is certified by a Hall violator.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import EmptyInput, IdentityInB, SizeLimit, SizeMismatch
from .subsets import GroupSubset, _same_group

BRUTE_FORCE_CAP = 7


@dataclass(frozen=True)
class MatchabilityGraph:
    """Bipartite graph on A and B with an edge (a, b) iff a*b is not in A.

    ``adjacency[i]`` lists, as ascending indices into ``right``, the
    elements of B that ``left[i]`` may be matched to.
    """

    left: tuple
    right: tuple
    adjacency: tuple[tuple[int, ...], ...]


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


def build_graph(A: GroupSubset, B: GroupSubset) -> MatchabilityGraph:
    """The matchability graph; row i is the candidate set of left[i]."""
    g = _same_group(A, B)
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    mul, members = g.mul, A.members
    adjacency = tuple(
        tuple([j for j, x in enumerate(B.elements) if mul(a, x) not in members])
        for a in A.elements
    )
    return MatchabilityGraph(left=A.elements, right=B.elements, adjacency=adjacency)


def _maximum_matching(graph: MatchabilityGraph) -> tuple[list, list]:
    """Kuhn's augmenting-path algorithm with a fixed ascending scan order.

    The depth-first search keeps its own stack, so path length is not
    bounded by the recursion limit.  A failed search leaves the matching
    unchanged and every right vertex it visited reaches only matched
    vertices it also visited, so the visited marks carry over to the next
    root and are reset only after an augmentation; the matching found is
    the same as with fresh marks per root.
    """
    adjacency = graph.adjacency
    match_left: list[int | None] = [None] * len(graph.left)
    match_right: list[int | None] = [None] * len(graph.right)
    visited = [False] * len(graph.right)
    for root in range(len(adjacency)):
        # lefts[k] is reached through rights[k - 1]; scans[k] resumes its row.
        lefts, rights, scans = [root], [], [iter(adjacency[root])]
        while scans:
            for v in scans[-1]:
                if not visited[v]:
                    break
            else:
                scans.pop()
                lefts.pop()
                if rights:
                    rights.pop()
                continue
            visited[v] = True
            rights.append(v)
            w = match_right[v]
            if w is None:
                for u, v in zip(lefts, rights):
                    match_left[u] = v
                    match_right[v] = u
                visited = [False] * len(match_right)
                break
            lefts.append(w)
            scans.append(iter(adjacency[w]))
    return match_left, match_right


def _extract_violator(A: GroupSubset, B: GroupSubset, graph: MatchabilityGraph,
                      match_left, match_right) -> HallViolator:
    # Alternating BFS from every unmatched left vertex; the reachable left
    # vertices form a Hall violator once the matching is maximum.
    reach_left = {u for u in range(len(graph.left)) if match_left[u] is None}
    reach_right: set[int] = set()
    queue = deque(sorted(reach_left))
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if v in reach_right:
                continue
            reach_right.add(v)
            w = match_right[v]
            if w is not None and w not in reach_left:
                reach_left.add(w)
                queue.append(w)
    subset = GroupSubset(A.group, (graph.left[u] for u in reach_left))
    neighborhood = GroupSubset(A.group, (graph.right[v] for v in reach_right))
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

    graph = build_graph(A, B)
    match_left, match_right = _maximum_matching(graph)
    if all(v is not None for v in match_left):
        pairs = tuple((graph.left[u], graph.right[match_left[u]])
                      for u in range(len(graph.left)))
        return Matching(pairs=pairs)
    return _extract_violator(A, B, graph, match_left, match_right)


def verify_matching(A: GroupSubset, B: GroupSubset, matching: Matching) -> VerifyResult:
    """Check bijectivity and the defining condition a*phi(a) not in A."""
    g = _same_group(A, B)
    pairs = tuple(matching.pairs)
    lefts = [a for a, _ in pairs]
    rights = [b for _, b in pairs]
    if len(pairs) != len(A) or len(A) != len(B):
        return VerifyResult(False, f"pair count {len(pairs)} does not cover |A| = {len(A)}, |B| = {len(B)}")
    if len(set(lefts)) != len(lefts) or set(lefts) != A.members:
        return VerifyResult(False, "left elements do not cover A exactly once")
    if len(set(rights)) != len(rights) or set(rights) != B.members:
        return VerifyResult(False, "not bijective: right elements do not cover B exactly once")
    for a, b in pairs:
        if g.mul(a, b) in A:
            return VerifyResult(False, f"pair ({g.label(a)}, {g.label(b)}): product {g.label(g.mul(a, b))} lies in A")
    return VerifyResult(True)


def brute_force_matching(A: GroupSubset, B: GroupSubset, max_size: int = BRUTE_FORCE_CAP):
    """Scan all |A|! bijections in lexicographic order; independent oracle.

    Returns the first valid Matching, or None when every bijection fails.
    """
    g = _same_group(A, B)
    if len(A) == 0 or len(B) == 0:
        raise EmptyInput("A and B must be nonempty")
    if len(A) != len(B):
        raise SizeMismatch(f"|A| = {len(A)} but |B| = {len(B)}")
    if len(A) > max_size:
        raise SizeLimit("brute-force bijection scan", len(A), max_size)
    lefts = A.elements
    for image in itertools.permutations(B.elements):
        if all(g.mul(a, b) not in A for a, b in zip(lefts, image)):
            return Matching(pairs=tuple(zip(lefts, image)))
    return None
