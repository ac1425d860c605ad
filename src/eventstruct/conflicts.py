"""Allowed-conflict computation for finite posets.

A conflict relation c is allowed for a partial order p when (p, c) forms
a valid event structure.  The full duplicate-free list is computed
recursively: pick a minimal element m, compute every allowed conflict c
of p with m removed, then extend each c with the pairs {m} x Y and
Y x {m}.  Y ranges over images (through the reduced order) of subsets
of a base set: the whole domain when m has no strict successor at all,
otherwise the intersection of the c-conflict sets of m's immediate
successors -- an event may conflict with m only if it already conflicts
with everything immediately above m, and propagation forces nothing
else.  Distinct Y values give distinct extensions, so deduplicating the
Y list keeps the output duplicate-free without a quadratic sweep over
the concatenated result.

Counting takes a second, independent route.  Call a pair {a, b} of
events disjoint when they have no common upper bound, and order the
disjoint pairs by {a, b} <= {c, e} when c is above a and e above b (or
the other way round).  A conflict relation is allowed exactly when it
is a set of disjoint pairs closed upwards in that order: this is the
inherited-conflict axiom of Nielsen, Plotkin and Winskel ("Petri nets,
event structures and domains", TCS 1981).  So the count is the number
of up-sets of the disjoint-pair poset, which needs no conflict built.

Both routes run on packed int-bitmask rows; the public functions accept
and return plain pair sets, and each checks and packs its input through
_packed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import getitem
from typing import Iterator, Sequence

from .relations import (
    Rel, RowTable, _Record, bits, columns, cover_rows, field_of, is_event_structure,
    is_partial_order, remove_element, row_tables,
)


class PivotResult(_Record):
    """Chosen minimal element (None iff the input was empty) plus the relation without it."""

    __slots__ = __match_args__ = ("pivot", "reduced")
    pivot: int | None
    reduced: Rel

    def __init__(self, pivot: int | None, reduced: Rel) -> None:
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "reduced", reduced)


def choose_pivot(p: Rel) -> PivotResult:
    """Minimal element with the most immediate successors, smallest id on ties.

    This is the default pivot of allowed_conflicts.  It does not make the
    recursion faster: counting every structure at n = 6 through the
    recursion (bench --n 6, dedupe final) took 4.36 s with it against
    4.29 s with choose_pivot_first (one run each, CPython 3.11 on a
    2-core host).  Raises ValueError unless p is a partial order on
    natural-number ids.
    """
    return _choose(p, heuristic=True)


def choose_pivot_first(p: Rel) -> PivotResult:
    """Smallest-id minimal element, with no further criterion.

    Raises ValueError unless p is a partial order on natural-number ids.
    """
    return _choose(p, heuristic=False)


def _choose(p: Rel, *, heuristic: bool) -> PivotResult:
    p = frozenset(p)
    rows, ids = _packed(p)
    if not rows:
        return PivotResult(None, p)
    m = ids[next(_chain(rows, heuristic, True))[0]]  # the first pivot
    return PivotResult(m, remove_element(p, m))


def generate_conflicts(p: Rel, m: int, c: Rel, *, immediate_only: bool = True) -> list[Rel]:
    """One extension step: all allowed conflicts of p that restrict to c on p - {m}.

    p must be a finite poset, m one of its minimal elements, and c an
    allowed conflict for remove_element(p, m).  With immediate_only=False
    the base intersection runs over all strict successors of m instead of
    only the immediate ones; the output set is the same.  Raises
    ValueError when m or an id of p or c is not a natural number, when p
    is not a partial order or m is not minimal in it, or when c is not
    an allowed conflict of remove_element(p, m), which refuses a c that
    names m or an event outside p.
    """
    if any(type(x) is not int or x < 0 for x in (m, *(x for pair in c for x in pair))):
        raise ValueError("event ids must be natural numbers")  # a bool is no id either
    rows, ids = _packed(p)
    index = {x: i for i, x in enumerate(ids)}
    k = index.get(m)
    if k is None or columns(rows)[k] != 1 << k:
        raise ValueError(f"{m} is not a minimal element of the relation")
    if not is_event_structure(remove_element(p, m), c):
        raise ValueError(f"c is not an allowed conflict of p without {m}")
    conf = [0] * len(rows)
    for x, y in c:
        conf[index[x]] |= 1 << index[y]
    succ = cover_rows(rows)[k] if immediate_only else rows[k] & ~(1 << k)
    step = (k, succ, ((1 << len(rows)) - 1) ^ 1 << k)
    return _unpack_extensions([tuple(conf)], step, rows, ids)


def allowed_conflicts(
    p: Rel, *, pivot: str = "heuristic", immediate_only: bool = True
) -> list[Rel]:
    """Duplicate-free list of every conflict relation valid for the poset p.

    The relations of one call share their pair tuples, which are
    immutable: a call on k events makes at most k*k of them, a row's k
    at its first nonempty use; with fresh tuples per conflict the result
    below held 56.6 MiB.  Each conflict of the poset without the first
    pivot m is unpacked once, and each extension is that set joined with
    {m} x Y u Y x {m} (see _unpack_extensions).  For the 6-event
    antichain on sparse ids (32,768 conflicts) the call takes 39-44 ms
    against 95-144 ms when each conflict was unpacked as the union of
    its k rows; its result holds 25.3 MiB (then 25.1 MiB) and the call
    peaks at 25.4 MiB (then 28.0 MiB), since the last level is never
    packed (medians of 7 calls in each of three alternating processes;
    tracemalloc; 2-vCPU host, CPython 3.11.7).
    """
    rows, ids = _packed(p)
    steps = _chain(rows, _heuristic(pivot), immediate_only)
    first = next(steps, None)
    if first is None:
        return [frozenset()]  # no events: the empty conflict only
    # The list of the rows the first pivot leaves, as _conflicts_packed makes it.
    listed = _grow([(0,) * len(rows)], [*steps][::-1], rows)
    return _unpack_extensions(listed, first, rows, ids)


def count_allowed_conflicts(p: Rel, *, pivot: str = "heuristic") -> int:
    """len(allowed_conflicts(p)), counted as the up-sets of its disjoint pairs.

    No conflict is built, so the count does not depend on pivot, which
    is only checked.  The cost is one step per disjoint pair, each over
    the distinct sets of pairs forced in by the steps before it: for a
    50-event antichain (2**1225 conflicts) or chain it is a few
    milliseconds, where listing could never finish.  The number of those
    sets can still grow exponentially: for k disjoint two-event chains
    the time grows about 3.5-fold with each chain (0.9 s at k = 12 and
    12 s at k = 14, CPython 3.11 on a 2-core host).

    Counts are memoized on a relabeled copy of p (events sorted by
    up-set), for the 131,072 most recently used copies, about 230 bytes
    each on 6 events: the 96,428 distinct copies of the posets on 7
    events, those with a maximum included, all fit.  A cache hit (any
    poset isomorphic to an earlier one and sorted alike) costs the sort,
    one table lookup per row and two hashes (the order's and the
    copy's), about 3 us on 6 events against about 5 us with a bit loop
    per row, and no count.  The relabeling tables, one per event order,
    are kept for the 8,192 most recently used orders: all 5,040 orders
    of the posets on 7 events fit, in about 9.5 MB.
    A table fills one entry per row mask on its first use, so a one-off
    count on a new order pays for that: about 16 us to relabel 8
    events, 20 us for 12 and 85 us for 50, against 6, 8 and 33 us with
    the bit loop (medians of 200 calls, 2-vCPU host, CPython 3.11.7).
    """
    rows, _ = _packed(p)
    _heuristic(pivot)
    return _count_packed(rows)


def _heuristic(pivot: str) -> bool:
    if pivot not in ("heuristic", "first"):
        raise ValueError(f"unknown pivot strategy {pivot!r}")
    return pivot == "heuristic"


# ---------------------------------------------------------------------------
# Packed implementation.  A poset on k events is a list of k int rows over
# the compact indices 0..k-1 of its sorted ids: bit j of rows[i] is set iff
# (ids[i], ids[j]) is in the order.  A conflict is a k-tuple of symmetric
# bitmask rows over the same indices.
#
# _chain yields the pivot steps, first pivot first, from one cover pass
# per poset (relations.cover_rows), and _grow is the one level loop over
# them: it keeps each conflict as its own Y = {} extension and builds a
# step's Ys once per distinct base.  _conflicts_packed lists the conflicts,
# under the default pivot and base, by extending, through the first step,
# the list of the rows that pivot leaves, which the caller's memo may
# hold: es_enum keeps one dict per stream, which 3,128 of the 4,231
# posets on 5 events and 77,890 of the 130,023 on 6 find filled.  A list
# is stored here only when it is made, after the oldest is deleted from a
# dict that holds _SUB_LISTS of them, so no dict ever holds more.  The
# enumerate stream and the CLI's verify call it; the library calls, which
# return pair sets, do not.  allowed_conflicts grows the list of the rows
# the first pivot leaves, under the pivot and base it is given, with no
# memo, and _unpack_extensions takes that step on pair sets: each
# conflict of the list is unpacked once, and each extension is its pairs
# joined with {m} x Y u Y x {m}.  generate_conflicts runs
# _unpack_extensions on its one conflict.  _count_variant counts the
# conflicts for the bench (every level built, under each dedupe placement,
# over one list of posets).  _count_packed counts the conflicts as up-sets
# of the disjoint-pair poset and shares no code with the recursion, so
# each checks the other.  Each poset is relabeled (_relabeled, through one
# lazily filled table per event order, _relabel_table) and its count
# memoized on that copy (_count_upsets), so the isomorphic posets that
# relabel alike are counted once: 4,824 counts and 720 tables for the
# 130,023 posets on 6 events.
# ---------------------------------------------------------------------------


def _packed(p: Rel) -> tuple[list[int], tuple[int, ...]]:
    """Rows of the poset p over the indices of its sorted field, and that field.

    The one input check of the public functions: raises ValueError unless
    p is a partial order on natural-number ids.
    """
    p = frozenset(p)
    # Looked up as a module attribute, which the benchmark's traced run wraps.
    if not is_partial_order(p):
        raise ValueError("relation is not a partial order")
    field = field_of(p)
    # Every id, before sorting: a float passes a sign check, and mixed types do
    # not sort.  type(x) is int also refuses bool, a subclass of int.
    if any(type(x) is not int or x < 0 for x in field):
        raise ValueError("event ids must be natural numbers")
    ids = tuple(sorted(field))
    index = {x: i for i, x in enumerate(ids)}
    rows = [0] * len(ids)
    for x, y in p:
        rows[index[x]] |= 1 << index[y]
    return rows, ids


def _pair_table(ids: Sequence[int]) -> list[RowTable]:
    """One table per row index i: conflict row mask -> frozenset of its pairs (ids[i], ids[j]).

    Each row's k pairs are made once, so every entry, and every conflict
    unpacked through the tables, shares them.
    """
    return row_tables(ids, lambda x: list(zip(repeat(x), ids)), frozenset)


def _unpack_conflict(conf: Sequence[int], table: list[RowTable]) -> Rel:
    """The pairs of the packed conflict conf: the union of its rows' entries in table.

    The union copies the entries' stored hashes, so no pair is hashed
    again.  Called through the module attribute, which the benchmark's
    traced run wraps to time unpacking.
    """
    return frozenset().union(*map(getitem, table, conf))


def _chain(rows, heuristic: bool, immediate_only: bool, covers=None) -> Iterator[tuple]:
    """Pivot steps (m, base_succ, s1), first pivot first, each made when it is taken.

    A step adds m, minimal in the events s still left, to s1 = s - {m}.
    Its base meets the conflict rows of base_succ: m's immediate (or with
    immediate_only=False, all strict) successors, 0 iff m has none.  s
    stays an up-set, so its elements keep all their successors in it: one
    cover pass (covers, or cover_rows(rows) if None) serves every step.
    The pivot is the first element of s in one fixed order that is
    minimal in s: most immediate successors first, smallest index on
    ties, or by index alone if not heuristic.
    """
    if covers is None:
        covers = cover_rows(rows)
    succ = covers if immediate_only else [row & ~(1 << i) for i, row in enumerate(rows)]
    cols = columns(rows)
    order = list(range(len(rows)))
    if heuristic:
        order.sort(key=lambda m: -covers[m].bit_count())  # stable: ties keep index order
    s = (1 << len(rows)) - 1
    while s:
        for m in order:
            if cols[m] & s == 1 << m:
                break  # m is in s, and no other event of s is below it
        s &= ~(1 << m)
        yield m, succ[m], s


def _images(base: int, rows) -> list[int]:
    """Every nonempty Y: the union of rows[x] over a nonempty subset of base.

    base lies in the events left at a step, an up-set, so each such row
    lies in them too.  Listed by subset, as binary counting over the
    bits of base, so a Y may repeat.
    """
    ys: list[int] = []
    for j in bits(base):
        im = rows[j]
        ys += [im, *[y | im for y in ys]]
    return ys


def _grow(confs: list[tuple[int, ...]], steps, rows, unique=dict.fromkeys) -> list:
    """Extend every conflict through the steps, in the order given, level by level.

    unique removes the repeated Ys of one base; distinct Ys give
    distinct extensions, so with the default no level has duplicates.
    Y = {} comes first and extends a conflict to itself, which is kept
    as it is.  The other Ys depend on the conflict only through its
    base, so a step builds them once per distinct base: once in all
    when the pivot has no strict successor (base_succ 0, base s1).
    """
    for m, base_succ, s1 in steps:
        mbit = 1 << m
        succ = bits(base_succ)
        ys_by_base: dict[int, list[int]] = {}
        out = []
        for c in confs:
            out.append(c)  # Y = {}
            base = s1
            for j in succ:
                base &= c[j]
            if not base:
                continue
            ys = ys_by_base.get(base)
            if ys is None:
                ys = ys_by_base[base] = list(unique(_images(base, rows)))
            for y in ys:
                ext = list(c)
                ext[m] = y
                for j in bits(y):
                    ext[j] |= mbit
                out.append(tuple(ext))
        confs = out
    return confs


def _unpack_extensions(confs, step, rows, ids) -> list[Rel]:
    """The pair sets of _grow(confs, [step], rows), in the same order.

    Built as the paper builds them: each conflict c of confs is unpacked
    once and kept as its Y = {} extension, and every other extension is
    c's pairs joined with {m} x Y u Y x {m}, which is made once per Y
    from the pair table's shared tuples.  No packed extension is made,
    and no union of k rows per extension.  The base and Ys are _grow's,
    repeated here: a helper that both called slowed the in-process
    listing of the posets on 5 events from 43-44 ms to 45-47 ms.  The
    pair table is made at the first conflict that needs it, so a poset
    whose one conflict is the empty one makes none.
    """
    m, base_succ, s1 = step
    mbit = 1 << m
    succ = bits(base_succ)
    joins_by_base: dict[int, list[Rel]] = {}
    with_m: dict[int, Rel] = {}
    table = None
    out = []
    for c in confs:
        base = s1
        for j in succ:
            base &= c[j]
        if table is None:
            if not (base or any(c)):
                out.append(frozenset())  # the empty conflict, with Y = {} alone
                continue
            table = _pair_table(ids)
        pairs = _unpack_conflict(c, table)
        out.append(pairs)  # Y = {}
        if not base:
            continue
        joins = joins_by_base.get(base)
        if joins is None:
            joins = joins_by_base[base] = []
            for y in dict.fromkeys(_images(base, rows)):
                if y not in with_m:
                    with_m[y] = table[m][y].union(*[table[j][mbit] for j in bits(y)])
                joins.append(with_m[y])
        out += [pairs | join for join in joins]
    return out


# Entries of a sub_lists memo of _conflicts_packed.  Unbounded, an enumerate
# stream's would hold all 25,386 lists of the posets left by a first pivot at
# n = 6, where listing the stream then peaks at 46.1 MB RSS against 19.9 MB
# (in-process, one run each).
_SUB_LISTS = 1024


def _conflicts_packed(rows, *, covers=None, sub_lists=None):
    """Duplicate-free list of the packed allowed conflicts of rows.

    The pivots are the default ones and each base meets the immediate
    successors' rows, as in every stream.  covers, if given, is
    cover_rows(rows).  The list extends, by the first pivot's step, the
    list of sub: the same rows with that pivot's row zeroed.  Its events
    keep their indices, so its pivots, bases and Ys are those of the
    rest of rows' chain, and so is its list.  sub_lists, if given, is a
    dict memo of those lists by sub: es_enum passes one per stream,
    where posets that differ only in their first pivot's row share one
    sub.  A list is stored only when it is made, so the dict's order
    puts the oldest first, and that one is deleted before a store into
    a dict that holds _SUB_LISTS lists.
    """
    steps = _chain(rows, True, True, covers)
    first = next(steps, None)
    if first is None:
        return [()]  # no events: the empty conflict only
    if sub_lists is None:
        sub_lists = {}  # dropped with this call
    m = first[0]
    sub = (*rows[:m], 0, *rows[m + 1:])
    listed = sub_lists.get(sub)
    if listed is None:
        if len(sub_lists) >= _SUB_LISTS:
            del sub_lists[next(iter(sub_lists))]
        listed = sub_lists[sub] = _grow([(0,) * len(rows)], [*steps][::-1], rows)
    return _grow(listed, [first], rows)


def _relabeled(rows) -> tuple[int, ...]:
    """An isomorphic copy of the poset rows whose index order extends it.

    The events are taken by row, descending: a row strictly contains the
    rows above it, so it is larger, and every set bit j of row i of the
    copy has j >= i.  Isomorphic posets that sort alike get equal copies.
    Each row is relabeled by one lookup in the order's table.
    """
    order = tuple(sorted(range(len(rows)), key=rows.__getitem__, reverse=True))
    table = _relabel_table(order)
    return tuple([table[rows[e]] for e in order])


# Sized so that the 5,040 event orders met among the posets on 7 events
# (all 7! of them) fit: a table is filled once per order, not once per poset.
@lru_cache(maxsize=1 << 13)
def _relabel_table(order: tuple[int, ...]) -> RowTable:
    """Row mask over the old indices -> the same row over the positions in order.

    Each entry is made on its first lookup, so a one-off relabeling
    fills at most one entry per row.
    """
    # The row's pieces: old index e -> 1 << its position in order.
    return row_tables([order], lambda _: [1 << order.index(e) for e in range(len(order))], sum)[0]


def _count_packed(rows) -> int:
    """Number of allowed conflicts of rows, counted once per relabeled copy."""
    return _count_upsets(_relabeled(rows)) if rows else 1


@lru_cache(maxsize=1 << 17)
def _count_upsets(key: tuple[int, ...]) -> int:
    """Number of allowed conflicts of key: the up-sets of its disjoint pairs.

    key is a poset whose index order extends it (see _relabeled).  Pair
    (a, b) is bit a*(n+1) + b of a mask.  The pairs above a disjoint
    {a, b} are the (c, e) with c in key[a] and e in key[b] (all
    disjoint), one product of a spread row and a row each way.  The
    pairs are taken minimal first, in index order.  Per pair, the count
    of partial up-sets is kept for each set of later pairs already
    forced in: the pair is in if forced, else it is out, or in with the
    pairs above it forced.  The loop is flat, so no recursion depth
    grows with the number of pairs.
    """
    n = len(key)  # >= 1: _count_packed answers the empty poset itself
    stride = n + 1
    # row * k & m moves bit c of an n-bit row to bit c*(n+1).  By the
    # geometric series, k has bits c*n and m bits c*(n+1), for c < n.
    k = ((1 << n * n) - 1) // ((1 << n) - 1)
    m = ((1 << n * stride) - 1) // ((1 << stride) - 1)
    spread = [row * k & m for row in key]
    counts = {0: 1}  # forced pairs -> number of up-sets so far
    for b in range(n):
        rb, sb = key[b], spread[b]
        for a in range(b):
            ra = key[a]
            if ra & rb:
                continue  # a common upper bound: never in conflict
            pair = 1 << a * stride + b | 1 << b * stride + a
            above = (spread[a] * rb | sb * ra) ^ pair
            nxt: dict[int, int] = {}
            for forced, ways in counts.items():
                if forced & pair:
                    forced ^= pair
                else:
                    with_pair = forced | above
                    nxt[with_pair] = nxt.get(with_pair, 0) + ways
                nxt[forced] = nxt.get(forced, 0) + ways
            counts = nxt
    return sum(counts.values())


def _count_variant(rows, *, heuristic: bool, dedupe: str) -> int:
    """Number of allowed conflicts of rows by the recursion, under a dedupe placement.

    Every placement builds every level.  "final" drops the repeated Ys
    of each conflict, as listing does; "late" keeps them and removes the
    duplicate conflicts after each level, "naive" only once, at the end.
    """
    if dedupe not in ("final", "late", "naive"):
        raise ValueError(f"unknown dedupe mode {dedupe!r}")
    unique = dict.fromkeys if dedupe == "final" else iter
    confs = [(0,) * len(rows)]
    for step in [*_chain(rows, heuristic, True)][::-1]:
        confs = _grow(confs, [step], rows, unique=unique)
        if dedupe == "late":
            confs = list(dict.fromkeys(confs))
    return len(set(confs)) if dedupe == "naive" else len(confs)
