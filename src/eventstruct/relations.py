"""Finite binary relations over natural-number event ids.

A relation is a frozenset of (int, int) pairs; the carrier set is never
stored separately, it is recovered from the pairs (the field of a
relation is the union of its domain and range).  All operations are pure
functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

Pair = tuple[int, int]
Rel = frozenset[Pair]

def domain_of(r: Rel) -> set[int]:
    return {x for x, _ in r}


def range_of(r: Rel) -> set[int]:
    return {y for _, y in r}


def field_of(r: Rel) -> set[int]:
    """Union of domain and range."""
    return {e for pair in r for e in pair}


def image(r: Rel, s: Iterable[int]) -> set[int]:
    """Image of the set s through r: {y | exists x in s with (x, y) in r}."""
    s = set(s)
    return {y for x, y in r if x in s}


def inverse(r: Rel) -> Rel:
    return frozenset((y, x) for x, y in r)


def is_reflexive_on(r: Rel, s: Iterable[int]) -> bool:
    """True iff r only relates elements of s and every element of s relates to itself."""
    s = set(s)
    return field_of(r) <= s and all((x, x) in r for x in s)


def is_transitive(r: Rel) -> bool:
    succ = _image_map(r)
    return all((x, z) in r for x, y in r for z in succ.get(y, ()))


def is_antisymmetric(r: Rel) -> bool:
    return all(x == y or (y, x) not in r for x, y in r)


def is_symmetric(r: Rel) -> bool:
    return all((y, x) in r for x, y in r)


def is_irreflexive(r: Rel) -> bool:
    return all(x != y for x, y in r)


def is_partial_order(r: Rel) -> bool:
    """True iff r is reflexive on its own field, transitive and antisymmetric."""
    return is_reflexive_on(r, field_of(r)) and is_transitive(r) and is_antisymmetric(r)


def propagates_over(c: Rel, o: Rel) -> bool:
    """True iff conflicts propagate along o: (x, y) in o implies image(c,{x}) <= image(c,{y})."""
    cimg = _image_map(c)
    empty: set[int] = set()
    return all(cimg.get(x, empty) <= cimg.get(y, empty) for x, y in o)


def is_event_structure(o: Rel, c: Rel) -> bool:
    """True iff o is a partial order and c is a valid conflict relation for it.

    c must be irreflexive, symmetric, have its field inside the field of o,
    and propagate over o.
    """
    return (
        is_irreflexive(c)
        and is_symmetric(c)
        and field_of(c) <= field_of(o)
        and propagates_over(c, o)
        and is_partial_order(o)
    )


def remove_element(p: Rel, m: int) -> Rel:
    """Drop every pair of p whose first or second component is m."""
    return frozenset((x, y) for x, y in p if x != m and y != m)


def minimal_elements(p: Rel) -> set[int]:
    """Elements of dom(p) with no strictly smaller element.  p must be a partial order."""
    pred = _image_map(inverse(p))
    return {m for m in domain_of(p) if pred.get(m, set()) <= {m}}


def covering_relation(p: Rel) -> Rel:
    """Transitive reduction of the finite partial order p.

    (x, z) is kept iff x != z and no y outside {x, z} sits between them.
    Behavior on non-posets is undefined; callers must validate.
    """
    succ = _image_map(p)
    pred = _image_map(inverse(p))
    return frozenset(
        (x, z)
        for x, z in p
        if x != z and all(y == x or y == z for y in succ[x] & pred[z])
    )


def immediate_successors(p: Rel, m: int) -> set[int]:
    """Events covering m in the partial order p."""
    return image(covering_relation(p), {m})


def reflexive_transitive_closure(r: Rel, carrier: Iterable[int]) -> Rel:
    """Least relation containing r that is reflexive on carrier and transitive."""
    carrier = set(carrier)
    if not field_of(r) <= carrier:
        raise ValueError("field of the relation must be inside the carrier")
    pairs = set(r) | {(x, x) for x in carrier}
    while True:
        succ = _image_map(frozenset(pairs))
        new = {(x, z) for x, y in pairs for z in succ.get(y, ()) if (x, z) not in pairs}
        if not new:
            return frozenset(pairs)
        pairs |= new


def _image_map(r: Rel) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for x, y in r:
        out.setdefault(x, set()).add(y)
    return out


@dataclass(frozen=True)
class BoolMatrix:
    """Square boolean matrix with rows packed as int bitmasks.

    Bit j of rows[i] is the (i, j) entry; entry(i, j) true means pair
    (i, j) belongs to the represented relation over {0..order-1}.
    """

    order: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 0 or len(self.rows) != self.order:
            raise ValueError("matrix must be square: expected one row bitmask per row")
        limit = 1 << self.order
        if any(row < 0 or row >= limit for row in self.rows):
            raise ValueError("row bitmask out of range for matrix order")

    @classmethod
    def from_lists(cls, entries: list[list[bool]]) -> "BoolMatrix":
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        rows = tuple(sum(1 << j for j, v in enumerate(row) if v) for row in entries)
        return cls(n, rows)

    def entry(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def to_lists(self) -> list[list[bool]]:
        return [[self.entry(i, j) for j in range(self.order)] for i in range(self.order)]


def columns(rows: Sequence[int]) -> list[int]:
    """Transpose of a square bitmask matrix: bit i of columns[j] is bit j of rows[i]."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def pick_bits(row: int, items: Sequence) -> list:
    """items[j] for every set bit j of row, in increasing j."""
    picked = []
    while row:
        low = row & -row
        picked.append(items[low.bit_length() - 1])
        row ^= low
    return picked


class RowTable(dict):
    """Row x's table: row mask -> join(pick_bits(mask, row_pieces(x))).

    Each entry is made on first use and then looked up.  The row's
    pieces, one per column, are made at its first nonzero mask; mask 0
    is filled by row_tables, so a row that only ever meets mask 0 makes
    none.
    """

    __slots__ = ("x", "row_pieces", "join", "pieces")

    def __missing__(self, mask: int):
        if self.pieces is None:
            self.pieces = self.row_pieces(self.x)
        value = self[mask] = self.join(pick_bits(mask, self.pieces))
        return value


def row_tables(ids: Sequence[int], row_pieces: Callable, join: Callable) -> list[RowTable]:
    """One RowTable per id x of ids; mask 0 maps to join(()) in each."""
    empty = join(())
    tables = []
    for x in ids:
        # Slots set here, not in an __init__: allowed_conflicts builds k
        # tables per call, and a Python-level __init__ per row costs more.
        table = RowTable({0: empty})
        table.x, table.row_pieces, table.join, table.pieces = x, row_pieces, join, None
        tables.append(table)
    return tables


def rows_to_rel(rows: Sequence[int], ids: Sequence[int]) -> Rel:
    """Pairs (ids[i], ids[j]) for every set bit j of rows[i]."""
    return frozenset([(x, y) for x, row in zip(ids, rows) for y in pick_bits(row, ids)])


def matrix_to_rel(a: BoolMatrix) -> Rel:
    """Pairs (i, j) for every true entry of a."""
    return rows_to_rel(a.rows, range(a.order))


def rel_to_matrix(r: Rel, n: int) -> BoolMatrix:
    """Adjacency matrix of r over {0..n-1}; rejects ids outside that range."""
    rows = [0] * n
    for x, y in r:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"pair ({x}, {y}) outside carrier 0..{n - 1}")
        rows[x] |= 1 << y
    return BoolMatrix(n, tuple(rows))


def set_diag(a: BoolMatrix, value: bool) -> BoolMatrix:
    """Copy of a with every diagonal entry set to value."""
    if value:
        rows = tuple(row | (1 << i) for i, row in enumerate(a.rows))
    else:
        rows = tuple(row & ~(1 << i) for i, row in enumerate(a.rows))
    return BoolMatrix(a.order, rows)


@dataclass(frozen=True)
class EventStructure:
    """A causality partial order paired with a conflict relation."""

    causality: Rel
    conflict: Rel

    def __post_init__(self) -> None:
        object.__setattr__(self, "causality", frozenset(self.causality))
        object.__setattr__(self, "conflict", frozenset(self.conflict))

    def events(self) -> set[int]:
        return field_of(self.causality)

    def is_valid(self) -> bool:
        return is_event_structure(self.causality, self.conflict)
