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

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import getitem
from typing import Sequence

from .relations import (
    Rel, RowTable, columns, field_of, is_event_structure, is_partial_order, remove_element,
    row_tables,
)


@dataclass(frozen=True)
class PivotResult:
    """Chosen minimal element (None iff the input was empty) plus the relation without it."""

    pivot: int | None
    reduced: Rel


def choose_pivot(p: Rel) -> PivotResult:
    """Minimal element with the most immediate successors, smallest id on ties.

    This is the default pivot of allowed_conflicts.  It does not make the
    recursion faster: counting every structure at n = 6 through the
    recursion (bench --n 6, dedupe final) took 12.43 s with it against
    10.17 s with choose_pivot_first (one run each, CPython 3.11 on a
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
    m = ids[_pivot_packed(rows, columns(rows), (1 << len(rows)) - 1, heuristic)[0]]
    return PivotResult(m, remove_element(p, m))


def generate_conflicts(p: Rel, m: int, c: Rel, *, immediate_only: bool = True) -> list[Rel]:
    """One extension step: all allowed conflicts of p that restrict to c on p - {m}.

    p must be a finite poset, m one of its minimal elements, and c an
    allowed conflict for remove_element(p, m).  With immediate_only=False
    the base intersection runs over all strict successors of m instead of
    only the immediate ones; the output set is the same.  Raises
    ValueError when p is not a partial order on natural-number ids, when
    m is not minimal in p, or when c is not an allowed conflict of
    remove_element(p, m) (which refuses a c naming m or an event outside p).
    """
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
    full = (1 << len(rows)) - 1
    step = _step(rows, full, (k, *_successors(rows, k, full)), immediate_only)
    table = _pair_table(ids)
    return [_unpack_conflict(ext, table) for ext in _grow([tuple(conf)], [step])]


def allowed_conflicts(
    p: Rel, *, pivot: str = "heuristic", immediate_only: bool = True
) -> list[Rel]:
    """Duplicate-free list of every conflict relation valid for the poset p.

    The relations of one call share their pair tuples, which are
    immutable: a call on k events makes at most k*k of them, a row's k
    at the first conflict that has that row nonempty.  For the 6-event
    antichain on sparse ids (32,768 conflicts) the call took 143-156 ms
    against 379-415 ms when every conflict made fresh tuples, and its
    result holds 25.1 MiB against 56.6 MiB (medians of 7 calls in each
    of three alternating processes; tracemalloc; 2-vCPU host, CPython
    3.11.7).
    """
    rows, ids = _packed(p)
    packed = _conflicts_packed(
        rows, heuristic=_heuristic(pivot), immediate_only=immediate_only
    )
    table = _pair_table(ids)
    return [_unpack_conflict(conf, table) for conf in packed]


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
    events all fit.  A cache hit (any poset isomorphic to an earlier
    one and sorted alike) costs the sort, the relabeling and one hash,
    about 6 us on 6 events, and no count.
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
# _chain fixes the pivot steps (_step), and _grow is the one level loop
# over them: _conflicts_packed lists the conflicts, _count_variant counts
# them for the bench (every level built, under each dedupe placement),
# and generate_conflicts runs a single step.  _count_packed counts the
# conflicts as up-sets of the disjoint-pair poset and shares no code with
# the recursion, so each checks the other.  It relabels the poset first
# (_relabeled) and memoizes the count on that copy (_count_upsets), so
# the isomorphic posets that relabel alike are counted once: 4,824 counts
# for the 130,023 posets on 6 events.
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
    ids = tuple(sorted(field_of(p)))
    if ids and ids[0] < 0:
        raise ValueError("event ids must be natural numbers")
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


def _pivot_packed(rows, cols, s: int, heuristic: bool):
    """Pivot for the sub-poset on mask s: (m, strict successor mask, immediate mask)."""
    best = None
    best_count = -1
    t = s
    while t:
        low = t & -t
        t ^= low
        m = low.bit_length() - 1
        if cols[m] & s != low:
            continue  # m has a strict predecessor in s
        succ, imm = _successors(rows, m, s)
        if not heuristic:
            return m, succ, imm
        count = imm.bit_count()
        if count > best_count:
            best, best_count = (m, succ, imm), count
    return best


def _successors(rows, m: int, s: int) -> tuple[int, int]:
    """Masks of m's strict successors within s and of the immediate ones among them."""
    succ = rows[m] & s & ~(1 << m)
    reachable = 0
    u = succ
    while u:
        low = u & -u
        reachable |= rows[low.bit_length() - 1] & ~low
        u ^= low
    return succ, succ & ~reachable


def _step(rows, s: int, pivot, immediate_only: bool) -> tuple:
    """Step (m, base_succ, s1, imgs) adding the pivot (m, succ, imm) to s1 = s - {m}.

    imgs[x] is row x within s1.  The base meets the conflict rows of
    base_succ, which is 0 exactly when m has no strict successor in s
    (those always include an immediate one).
    """
    m, succ, imm = pivot
    s1 = s & ~(1 << m)
    return m, imm if immediate_only else succ, s1, [row & s1 for row in rows]


def _chain(rows, heuristic: bool, immediate_only: bool) -> list[tuple]:
    """Pivot steps (see _step), last pivot first."""
    cols = columns(rows)
    chain = []
    s = (1 << len(rows)) - 1
    while s:
        step = _step(rows, s, _pivot_packed(rows, cols, s, heuristic), immediate_only)
        chain.append(step)
        s = step[2]
    chain.reverse()
    return chain


def _grow(confs: list[tuple[int, ...]], steps, unique=dict.fromkeys) -> list:
    """Extend every conflict through the steps, level by level.

    unique removes the repeated Ys of one conflict; distinct Ys give
    distinct extensions, so with the default no level has duplicates.
    """
    for m, base_succ, s1, imgs in steps:
        mbit = 1 << m
        out = []
        for c in confs:
            if base_succ:
                base = -1
                u = base_succ
                while u:
                    l2 = u & -u
                    base &= c[l2.bit_length() - 1]
                    u ^= l2
            else:
                base = s1
            ys = [0]
            u = base
            while u:
                l2 = u & -u
                im = imgs[l2.bit_length() - 1]
                ys += [y | im for y in ys]
                u ^= l2
            for y in unique(ys):
                ext = list(c)
                ext[m] = y
                v = y
                while v:
                    l3 = v & -v
                    ext[l3.bit_length() - 1] |= mbit
                    v ^= l3
                out.append(tuple(ext))
        confs = out
    return confs


def _conflicts_packed(rows, *, heuristic: bool = True, immediate_only: bool = True):
    """Duplicate-free list of the packed allowed conflicts of rows."""
    return _grow([(0,) * len(rows)], _chain(rows, heuristic, immediate_only))


@lru_cache(maxsize=32)
def _spread_masks(n: int) -> tuple[int, int]:
    """(k, m) such that row * k & m moves bit c of an n-bit row to bit c*(n+1)."""
    return sum(1 << c * n for c in range(n)), sum(1 << c * (n + 1) for c in range(n))


def _relabeled(rows) -> tuple[int, ...]:
    """An isomorphic copy of the poset rows whose index order extends it.

    The events are taken by row, descending: a row strictly contains the
    rows above it, so it is larger, and every set bit j of row i of the
    copy has j >= i.  Isomorphic posets that sort alike get equal copies.
    """
    order = sorted(range(len(rows)), key=rows.__getitem__, reverse=True)
    bits = [0] * len(rows)
    for i, e in enumerate(order):
        bits[e] = 1 << i
    key = []
    for e in order:
        row = rows[e]
        new = 0
        while row:
            low = row & -row
            new |= bits[low.bit_length() - 1]
            row ^= low
        key.append(new)
    return tuple(key)


def _count_packed(rows) -> int:
    """Number of allowed conflicts of rows, counted once per relabeled copy."""
    return _count_upsets(_relabeled(rows))


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
    n = len(key)
    stride = n + 1
    k, m = _spread_masks(n)
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
    for step in _chain(rows, heuristic, True):
        confs = _grow(confs, [step], unique=unique)
        if dedupe == "late":
            confs = list(dict.fromkeys(confs))
    return len(set(confs)) if dedupe == "naive" else len(confs)
