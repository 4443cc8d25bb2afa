"""Finite groups as validated Cayley tables, plus integer-lattice groups.

Every finite group is the table of a binary operation on {0, ..., n-1}
with the identity pinned to index 0; construction validates the group
axioms.  Torsion-free testing uses Z^d under componentwise addition.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NotAGroup, ParseError, SizeLimit
from .subsets import GroupSubset

DEFAULT_ORDER_CAP = 5040
DEFAULT_SUBGROUP_CAP = 24


class GroupTable:
    """A finite group given by its Cayley table; index 0 is the identity.

    ``table[a][b]`` is the product a*b as an element index, and ``array``
    is the same table as a numpy array in the smallest unsigned dtype that
    holds n - 1.  ``names`` is an optional tuple of display strings, one
    per element.
    """

    __slots__ = ("n", "table", "array", "names", "name")

    def __init__(self, table, names=None, name: str | None = None):
        arr = _as_index_array(table)
        # Every row shares the n element ints instead of one int per cell.
        ints = list(range(arr.shape[0]))
        rows = tuple(tuple(map(ints.__getitem__, row.tolist())) for row in arr)
        _check_group_axioms(arr, rows)
        self.n = len(ints)
        self.table = rows
        self.array = arr
        arr.setflags(write=False)
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != self.n:
                raise ValueError(f"expected {self.n} names, got {len(names)}")
        self.names = names
        self.name = name

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.table[a].index(0)

    def elements(self) -> range:
        return range(self.n)

    def check_element(self, a) -> int:
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
            raise ValueError(f"not an element index: {a!r}")
        a = int(a)
        if not 0 <= a < self.n:
            raise ValueError(f"element index {a} out of range [0, {self.n})")
        return a

    def label(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def describe(self) -> str:
        return self.name or f"group of order {self.n}"

    def __eq__(self, other):
        if not isinstance(other, GroupTable):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"GroupTable(order={self.n}, name={self.name!r})"


@dataclass(frozen=True)
class LatticeGroup:
    """Z^d under componentwise addition: infinite, abelian, torsion-free."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("lattice dimension must be >= 1")

    @property
    def identity(self) -> tuple:
        return (0,) * self.d

    def mul(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(operator.add, a, b))

    def inverse(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def check_element(self, a) -> tuple:
        if not isinstance(a, (tuple, list)) or len(a) != self.d:
            raise ValueError(f"not a {self.d}-dimensional lattice point: {a!r}")
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in a):
            raise ValueError(f"lattice coordinates must be integers: {a!r}")
        return tuple(int(x) for x in a)

    def label(self, a: tuple) -> str:
        return "(" + ",".join(str(x) for x in a) + ")"

    @property
    def name(self) -> str:
        return f"Z^{self.d}"

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class GroupClassification:
    """Outcome of the matching-property prediction for a group."""

    is_trivial: bool
    is_cyclic_prime: bool
    is_torsion_free: bool
    predicted_matching_property: bool


# ---------------------------------------------------------------------------
# Cayley-table validation


def _as_index_array(table) -> np.ndarray:
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"Cayley table must be square and nonempty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("Cayley table entries must be integers")
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise ValueError(f"table entry at {tuple(bad)} out of range [0, {n})")
    return arr.astype(np.min_scalar_type(n - 1))


def _first_duplicate(row) -> tuple[int, int]:
    seen: dict[int, int] = {}
    for j, v in enumerate(row):
        v = int(v)
        if v in seen:
            return seen[v], j
        seen[v] = j
    raise AssertionError("no duplicate in row")


def _check_group_axioms(arr: np.ndarray, rows):
    n = arr.shape[0]
    idx = np.arange(n)

    bad = np.flatnonzero(arr[0] != idx)
    if bad.size:
        j = int(bad[0])
        raise NotAGroup("wrong-identity", (0, j, int(arr[0, j])),
                        f"table[0][{j}] = {int(arr[0, j])}, expected {j} (identity must be index 0)")
    bad = np.flatnonzero(arr[:, 0] != idx)
    if bad.size:
        i = int(bad[0])
        raise NotAGroup("wrong-identity", (i, 0, int(arr[i, 0])),
                        f"table[{i}][0] = {int(arr[i, 0])}, expected {i} (identity must be index 0)")

    row_ok = (np.sort(arr, axis=1) == idx).all(axis=1)
    if not row_ok.all():
        i = int(np.flatnonzero(~row_ok)[0])
        j1, j2 = _first_duplicate(arr[i])
        raise NotAGroup("not-latin-square", (i, j1, j2),
                        f"row {i} repeats value {int(arr[i, j1])} at columns {j1} and {j2}")
    col_ok = (np.sort(arr, axis=0) == idx[:, None]).all(axis=0)
    if not col_ok.all():
        j = int(np.flatnonzero(~col_ok)[0])
        i1, i2 = _first_duplicate(arr[:, j])
        raise NotAGroup("not-latin-square", (i1, i2, j),
                        f"column {j} repeats value {int(arr[i1, j])} at rows {i1} and {i2}")

    # Light's test: once a generator g passes (x*g)*y == x*(g*y) for all
    # x, y, so does every product of passing generators.  Each generator
    # lies outside the subgroup reached so far, so at least doubles it: at
    # most log2(n) + 1 generators are checked, by two n^2 gathers each.  An
    # associative Latin square with an identity is a group.
    reached = {0}
    gens: list[int] = []
    for g in range(n):
        if g in reached:
            continue
        lhs = arr[arr[:, g]]        # (x*g)*y
        rhs = arr[:, arr[g]]        # x*(g*y)
        if not np.array_equal(lhs, rhs):
            x, y = (int(v) for v in np.argwhere(lhs != rhs)[0])
            raise NotAGroup("not-associative", (x, g, y),
                            f"(a{x}*a{g})*a{y} != a{x}*(a{g}*a{y})")
        gens.append(g)
        _close(rows, reached, gens)


def _close(rows, members: set, gens) -> None:
    """Grow ``members`` in place to its closure under right multiplication
    by ``gens``; ``rows[a][b]`` is the product a*b."""
    queue = list(members)
    for a in queue:
        row = rows[a]
        for g in gens:
            b = row[g]
            if b not in members:
                members.add(b)
                queue.append(b)


# ---------------------------------------------------------------------------
# Standard families


def make_cyclic(n: int) -> GroupTable:
    """Cyclic group C_n with table[i][j] = (i+j) mod n."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    if n > DEFAULT_ORDER_CAP:
        raise SizeLimit("cyclic group", n, DEFAULT_ORDER_CAP)
    idx = np.arange(n)
    return GroupTable((idx[:, None] + idx) % n, name=f"C{n}")


def make_dihedral(m: int) -> GroupTable:
    """Dihedral group of order 2m.

    Element i < m is the rotation r^i; element m + i is the reflection
    r^i f, with f r f = r^-1.
    """
    if m < 1:
        raise ValueError("dihedral parameter must be >= 1")
    if 2 * m > DEFAULT_ORDER_CAP:
        raise SizeLimit("dihedral group", 2 * m, DEFAULT_ORDER_CAP)
    idx = np.arange(m)
    rot = (idx[:, None] + idx) % m
    ref = (idx[:, None] - idx) % m
    return GroupTable(np.block([[rot, rot + m], [ref + m, ref]]), name=f"D{m}")


def make_symmetric(k: int) -> GroupTable:
    """Symmetric group S_k, permutations of {0..k-1} in lexicographic order.

    Composition is (p*q)(x) = p(q(x)); the identity permutation is
    lexicographically first, so it sits at index 0.
    """
    if not 1 <= k <= 5:
        raise ValueError("symmetric groups are supported for 1 <= k <= 5")
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [
        [index[tuple(p[q[x]] for x in range(k))] for q in perms]
        for p in perms
    ]
    return GroupTable(rows, name=f"S{k}")


_QUAT_BASIS = {
    # (b1, b2) -> (sign, basis) for the products of 1, i, j, k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def make_quaternion() -> GroupTable:
    """Quaternion group Q8; indices 0..7 are 1, i, j, k, -1, -i, -j, -k."""
    rows = []
    for x in range(8):
        s1, b1 = x // 4, x % 4
        row = []
        for y in range(8):
            s2, b2 = y // 4, y % 4
            sp, bp = _QUAT_BASIS[(b1, b2)]
            row.append(((s1 ^ s2 ^ sp) * 4) + bp)
        rows.append(row)
    names = ("1", "i", "j", "k", "-1", "-i", "-j", "-k")
    return GroupTable(rows, names=names, name="Q8")


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product with element (a, b) at index a*|H| + b."""
    n = g.n * h.n
    if n > DEFAULT_ORDER_CAP:
        raise SizeLimit("direct product", n, DEFAULT_ORDER_CAP)
    ga = g.array.astype(np.int64)
    ha = h.array.astype(np.int64)
    table = (np.repeat(np.repeat(ga, h.n, axis=0), h.n, axis=1) * h.n
             + np.tile(ha, (g.n, g.n)))
    name = f"{g.name}x{h.name}" if g.name and h.name else None
    return GroupTable(table, name=name)


# ---------------------------------------------------------------------------
# Structure queries


def element_order(group: GroupTable, a) -> int:
    """Least k >= 1 with a^k equal to the identity."""
    a = group.check_element(a)
    k, x = 1, a
    while x != 0:
        x = group.mul(x, a)
        k += 1
    return k


def cyclic_subgroup(group: GroupTable, a) -> GroupSubset:
    """The subgroup generated by a: {1, a, a^2, ...}."""
    a = group.check_element(a)
    members = [0]
    x = a
    while x != 0:
        members.append(x)
        x = group.mul(x, a)
    return GroupSubset(group, members)


def enumerate_subgroups(group: GroupTable,
                        max_order: int = DEFAULT_SUBGROUP_CAP) -> list[GroupSubset]:
    """All subgroups, found by closing generated subsets, smallest first.

    Complete because every subgroup is reachable from a smaller one by
    adjoining a single generator and closing.
    """
    if group.n > max_order:
        raise SizeLimit("subgroup enumeration", group.n, max_order)
    found = {frozenset({group.identity})}
    frontier = list(found)
    while frontier:
        grown = []
        for h in frontier:
            for x in range(group.n):
                if x in h:
                    continue
                members = set(h)
                _close(group.table, members, (*h, x))
                k = frozenset(members)
                if k not in found:
                    found.add(k)
                    grown.append(k)
        frontier = grown
    ordered = sorted(found, key=lambda m: (len(m), sorted(m)))
    return [GroupSubset(group, m) for m in ordered]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def classify(group) -> GroupClassification:
    """Predict whether the group has the matching property.

    Finite groups qualify iff trivial or of prime order (prime order
    forces cyclic); lattice groups qualify because they are torsion-free.
    """
    if isinstance(group, LatticeGroup):
        return GroupClassification(
            is_trivial=False, is_cyclic_prime=False,
            is_torsion_free=True, predicted_matching_property=True)
    trivial = group.n == 1
    prime = _is_prime(group.n)
    return GroupClassification(
        is_trivial=trivial, is_cyclic_prime=prime,
        is_torsion_free=trivial, predicted_matching_property=trivial or prime)


# ---------------------------------------------------------------------------
# Group-spec mini-language: C<n>, D<m>, S<k>, Q8, products with 'x', Z^<d>


_FAMILY_RE = re.compile(r"([CDS])([0-9]+)$|Q8$")
_LATTICE_RE = re.compile(r"Z\^([0-9]+)$")


def _parse_family(token: str, offset: int) -> GroupTable:
    m = _FAMILY_RE.fullmatch(token)
    if not m:
        raise ParseError(f"unrecognized group family {token!r} "
                         "(expected C<n>, D<m>, S<k> or Q8)", column=offset + 1)
    if token == "Q8":
        return make_quaternion()
    letter, number = m.group(1), int(m.group(2))
    if letter == "C":
        if number < 1:
            raise ParseError("C<n> needs n >= 1", column=offset + 2)
        return make_cyclic(number)
    if letter == "D":
        if number < 1:
            raise ParseError("D<m> needs m >= 1", column=offset + 2)
        return make_dihedral(number)
    if not 1 <= number <= 5:
        raise ParseError("S<k> supports k in 1..5", column=offset + 2)
    return make_symmetric(number)


def parse_group_spec(spec: str):
    """Build a group from a spec string like C4, D3, Q8, C2xC4 or Z^2."""
    s = spec.strip()
    if not s:
        raise ParseError("empty group spec", column=1)
    m = _LATTICE_RE.fullmatch(s)
    if m:
        d = int(m.group(1))
        if d < 1:
            raise ParseError("Z^<d> needs d >= 1", column=3)
        return LatticeGroup(d)
    if s.startswith("Z"):
        raise ParseError("lattice groups are written Z^<d>", column=1)
    parts = s.split("x")
    offsets, pos = [], 0
    for part in parts:
        offsets.append(pos)
        pos += len(part) + 1
    for part, off in zip(parts, offsets):
        if not part:
            raise ParseError("empty factor in product spec", column=off + 1)
    group = _parse_family(parts[0], offsets[0])
    for part, off in zip(parts[1:], offsets[1:]):
        group = direct_product(group, _parse_family(part, off))
    group.name = s
    return group


# ---------------------------------------------------------------------------
# Cayley-table file format


def loads_group(text: str, name: str | None = None) -> GroupTable:
    """Parse the Cayley-table text format.

    Layout: a line ``n <order>``, a line ``table`` followed by n rows of n
    whitespace- or comma-separated indices, then optionally a line
    ``names`` followed by n lines of display names.  Blank lines and lines
    starting with ``#`` are ignored.  The identity must be index 0; the
    table is fully validated on load.
    """
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    cursor = 0

    def next_line(expect: str):
        nonlocal cursor
        if cursor >= len(lines):
            raise ParseError(f"unexpected end of file, expected {expect}",
                             line=lines[-1][0] if lines else 1)
        no, ln = lines[cursor]
        cursor += 1
        return no, ln

    no, ln = next_line("'n <order>'")
    fields = ln.split()
    if len(fields) != 2 or fields[0] != "n" or not fields[1].isdecimal():
        raise ParseError("expected 'n <order>'", line=no)
    n = int(fields[1])
    if n < 1:
        raise ParseError("group order must be >= 1", line=no)
    if n > DEFAULT_ORDER_CAP:
        raise SizeLimit("group file", n, DEFAULT_ORDER_CAP)

    no, ln = next_line("'table'")
    if ln != "table":
        raise ParseError("expected 'table'", line=no)
    rows = []
    for _ in range(n):
        no, ln = next_line("a table row")
        cells = ln.replace(",", " ").split()
        if len(cells) != n:
            raise ParseError(f"expected {n} entries in table row, got {len(cells)}", line=no)
        try:
            rows.append([int(c) for c in cells])
        except ValueError:
            raise ParseError("table entries must be integers", line=no) from None

    names = None
    if cursor < len(lines):
        no, ln = next_line("'names' or end of file")
        if ln != "names":
            raise ParseError("expected 'names' or end of file", line=no)
        names = []
        for _ in range(n):
            no, ln = next_line("a name")
            names.append(ln)
        if cursor < len(lines):
            raise ParseError("trailing content after names", line=lines[cursor][0])

    return GroupTable(rows, names=names, name=name)


def dumps_group(group: GroupTable) -> str:
    """Serialize a group to the Cayley-table text format.

    Raises ValueError for a name that would not load back as itself: one
    that is empty, padded with whitespace, starts with ``#`` or spans lines.
    """
    out = [f"n {group.n}", "table"]
    out.extend(" ".join(str(x) for x in row) for row in group.table)
    if group.names:
        for i, name in enumerate(group.names):
            if name.splitlines() != [name] or name != name.strip() or name.startswith("#"):
                raise ValueError(f"name of element {i}, {name!r}, cannot be written to a group "
                                 "file: names must be one nonempty line without surrounding "
                                 "whitespace or a leading '#'")
        out.append("names")
        out.extend(group.names)
    return "\n".join(out) + "\n"


def load_group_file(path) -> GroupTable:
    path = Path(path)
    return loads_group(path.read_text(encoding="utf-8"), name=path.stem)


def save_group_file(group: GroupTable, path):
    Path(path).write_text(dumps_group(group), encoding="utf-8")


# Named groups used throughout the test batteries: all orders <= 10 plus
# a few composite shapes beyond.
CATALOG_SPECS = (
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
    "C2xC2", "C2xC4", "C2xC2xC2", "D3", "D4", "D5", "Q8", "S3",
)


def catalog(max_order: int | None = None) -> list[GroupTable]:
    """The standard test groups, optionally filtered by order."""
    groups = [parse_group_spec(s) for s in CATALOG_SPECS]
    if max_order is not None:
        groups = [g for g in groups if g.n <= max_order]
    return groups
