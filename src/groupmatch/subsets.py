"""Finite subsets of a group, their literal syntax, and reference
implementations of the product-set algebra.

Subsets are immutable and iterate in ascending element order (integer
indices for finite groups, lexicographic coordinate tuples for lattice
groups), so every derived report is deterministic.  The sweeps compute
products with the mask kernels in ``theorems`` and ``matching``;
``product_set``, ``unique_products``, ``candidate_set`` and ``stable_set``
are kept as the tests' independent references and for perfbench's tracer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import EmptyInput, MixedGroups, NotInA, ParseError


class GroupSubset:
    """An immutable finite subset of a group's elements.

    The owning group only needs to provide ``check_element``, ``mul``,
    ``identity`` and equality; both Cayley-table groups and integer
    lattices satisfy that interface.
    """

    __slots__ = ("group", "members", "elements")

    def __init__(self, group, members=()):
        elems = sorted({group.check_element(x) for x in members})
        self.group = group
        self.members = frozenset(elems)
        self.elements = tuple(elems)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.members

    def __eq__(self, other):
        if not isinstance(other, GroupSubset):
            return NotImplemented
        return self.group == other.group and self.members == other.members

    def __hash__(self):
        return hash((self.group, self.members))

    def __repr__(self):
        inner = ", ".join(str(x) for x in self.elements)
        return f"GroupSubset({self.group.describe()}, {{{inner}}})"

    def issubset(self, other: GroupSubset) -> bool:
        _same_group(self, other)
        return self.members <= other.members


@dataclass(frozen=True)
class ProductWitness:
    """An element of a product set together with its factorizations."""

    value: object
    factorizations: tuple


def _same_group(*subsets: GroupSubset):
    group = subsets[0].group
    for s in subsets[1:]:
        if s.group != group:
            raise MixedGroups(f"subsets belong to different groups: {group.describe()} vs {s.group.describe()}")
    return group


# perfbench/tracer.py wraps these four functions by name, so they stay here
# until the benchmark's per-layer metrics drop them.
def product_set(A: GroupSubset, B: GroupSubset) -> GroupSubset:
    """The set {a*b : a in A, b in B}; empty iff A or B is empty."""
    g = _same_group(A, B)
    return GroupSubset(g, {g.mul(a, b) for a in A for b in B})


def unique_products(A: GroupSubset, B: GroupSubset) -> list[ProductWitness]:
    """All c in AB with exactly one factorization c = a*b, ascending by c."""
    g = _same_group(A, B)
    table: dict = {}
    for a in A:
        for b in B:
            table.setdefault(g.mul(a, b), []).append((a, b))
    return [ProductWitness(c, tuple(pairs)) for c, pairs in sorted(table.items())
            if len(pairs) == 1]


def candidate_set(A: GroupSubset, B: GroupSubset, a) -> GroupSubset:
    """The elements of B that a may legally be matched to: {x in B : a*x not in A}.

    The automatching case is B = A.
    """
    g = _same_group(A, B)
    a = g.check_element(a)
    if a not in A:
        raise NotInA(f"element {a} is not in A")
    return GroupSubset(g, {x for x in B if g.mul(a, x) not in A})


def stable_set(A: GroupSubset, B: GroupSubset, S: GroupSubset) -> GroupSubset:
    """{x in B : s*x in A for every s in S}, for nonempty S contained in A.

    Equals B minus the union of the candidate sets of the members of S, and
    satisfies S * result ⊆ A by construction.
    """
    g = _same_group(A, B, S)
    if len(S) == 0:
        raise EmptyInput("S must be nonempty")
    if not S.issubset(A):
        raise NotInA("S must be contained in A")
    return GroupSubset(g, {x for x in B if all(g.mul(s, x) in A for s in S)})


_TOKEN = re.compile(r"\s*(-?\d+|\S)")


def parse_subset_literal(text: str, group) -> GroupSubset:
    """Parse a subset literal such as ``{0,2,4}`` or ``{(0,0),(1,2)}``.

    Finite groups take bare integer indices; lattice groups take integer
    coordinate tuples (bare integers are accepted when the lattice is
    one-dimensional).  Raises ParseError with a 1-based column on syntax
    errors; invalid members surface as ValueError from the subset
    constructor.
    """
    # Tokens are optionally signed integers and single non-space
    # characters, each with its column; "" at len(text) + 1 ends the input.
    tokens = iter([(m[1], m.start(1) + 1) for m in _TOKEN.finditer(text)]
                  + [("", len(text) + 1)])

    def integer(tok, col):
        if not tok[-1:].isdecimal():
            raise ParseError("expected an integer", column=col)
        return int(tok)

    def closes(closer):
        """Take the separator after a member: False for ',', True for closer."""
        tok, col = next(tokens)
        if not tok:
            raise ParseError("unexpected end of input", column=col)
        if tok not in (",", closer):
            raise ParseError(f"expected ',' or {closer!r}, got {tok[0]!r}", column=col)
        return tok == closer

    def value(tok, col):
        if tok != "(":
            return integer(tok, col)
        coords = [integer(*next(tokens))]
        while not closes(")"):
            coords.append(integer(*next(tokens)))
        return tuple(coords)

    tok, col = next(tokens)
    if tok != "{":
        raise ParseError(f"expected '{{', got {tok[0]!r}" if tok else "unexpected end of input",
                         column=col)
    members = []
    tok, col = next(tokens)
    if tok != "}":
        members.append(value(tok, col))
        while not closes("}"):
            members.append(value(*next(tokens)))
    tok, col = next(tokens)
    if tok:
        raise ParseError("trailing characters after subset literal", column=col)
    if members and isinstance(members[0], int) and getattr(group, "d", None) == 1:
        members = [(x,) for x in members]
    return GroupSubset(group, members)
