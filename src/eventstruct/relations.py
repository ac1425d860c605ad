"""Finite binary relations over natural-number event ids.

A relation is a frozenset of (int, int) pairs; the carrier set is never
stored separately, it is recovered from the pairs (the field of a
relation is the union of its domain and range).  All operations are pure
functions on immutable values.

The packed code walks a row bitmask's set bits only through bits(mask);
the oracle alone keeps its own loop, sharing no code with that path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

Pair = tuple[int, int]
Rel = frozenset[Pair]

def field_of(r: Rel) -> set[int]:
    """Union of domain and range."""
    return {e for pair in r for e in pair}


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


def _image_map(r: Rel) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for x, y in r:
        out.setdefault(x, set()).add(y)
    return out


class _Record:
    """An immutable record whose fields are the names in its class's __match_args__.

    A record class lists them again as its __slots__ and sets them in its
    __init__ through object.__setattr__.  Equality, hashing, repr, pickling
    and the refusal to assign or delete a field are a frozen dataclass's,
    without importing dataclasses, which costs about 12 ms of each start.
    """

    __slots__ = ("__weakref__",)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BoolMatrix(_Record):
    """Square boolean matrix with rows packed as int bitmasks.

    Bit j of rows[i] is the (i, j) entry; entry(i, j) true means pair
    (i, j) belongs to the represented relation over {0..order-1}.
    """

    __slots__ = __match_args__ = ("order", "rows")
    order: int
    rows: tuple[int, ...]

    def __init__(self, order: int, rows: Iterable[int]) -> None:
        # A tuple, as the record is immutable: a list given in would leave it unhashable.
        rows = tuple(rows)
        # type(): a bool is an int subclass, and a float would pass the range checks.
        if type(order) is not int or order < 0 or len(rows) != order:
            raise ValueError("matrix must be square: an int order >= 0, one row bitmask per row")
        limit = 1 << order
        if any(type(row) is not int or row < 0 or row >= limit for row in rows):
            raise ValueError("row bitmasks must be ints in range for the matrix order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", rows)

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


# Sized so that every mask of a stream on n <= 8 events (2**8 of them) stays
# cached; a wider mask, from a library call on more events, may evict one.
@lru_cache(maxsize=1 << 8)
def bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask >= 0, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


def columns(rows: Sequence[int]) -> list[int]:
    """Transpose of a square bitmask matrix: bit i of columns[j] is bit j of rows[i]."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits(row):
            cols[j] |= bit
    return cols


def cover_rows(rows: Sequence[int]) -> list[int]:
    """Transitive reduction of the packed partial order rows: row i = i's immediate successors.

    An immediate successor of i is a strict one that no other strict
    successor of i lies below.
    """
    covers = []
    for i, row in enumerate(rows):
        succ = row & ~(1 << i)
        above = 0  # the events strictly above some strict successor of i
        for j in bits(succ):
            above |= rows[j] & ~(1 << j)
        covers.append(succ & ~above)
    return covers


class RowTable(dict):
    """Row x's table: row mask -> join of row_pieces(x)[j] over bits(mask).

    Each entry is made on first use and then looked up.  The row's
    pieces, one per column, are made at its first nonzero mask; mask 0
    is filled by row_tables, so a row that only ever meets mask 0 makes
    none.
    """

    __slots__ = ("x", "row_pieces", "join", "pieces")

    def __missing__(self, mask: int):
        if self.pieces is None:
            self.pieces = self.row_pieces(self.x)
        value = self[mask] = self.join([self.pieces[j] for j in bits(mask)])
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
    return frozenset([(x, ids[j]) for x, row in zip(ids, rows) for j in bits(row)])


def matrix_to_rel(a: BoolMatrix) -> Rel:
    """Pairs (i, j) for every true entry of a."""
    return rows_to_rel(a.rows, range(a.order))


class EventStructure(_Record):
    """A causality partial order paired with a conflict relation."""

    __slots__ = __match_args__ = ("causality", "conflict")
    causality: Rel
    conflict: Rel

    def __init__(self, causality: Iterable[Pair], conflict: Iterable[Pair]) -> None:
        object.__setattr__(self, "causality", frozenset(causality))
        object.__setattr__(self, "conflict", frozenset(conflict))

    def events(self) -> set[int]:
        return field_of(self.causality)

    def is_valid(self) -> bool:
        return is_event_structure(self.causality, self.conflict)
