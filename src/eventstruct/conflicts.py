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
and return plain pair sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .relations import (
    Rel,
    columns,
    domain_of,
    field_of,
    image,
    immediate_successors,
    is_partial_order,
    minimal_elements,
    remove_element,
    rows_to_rel,
)


@dataclass(frozen=True)
class PivotResult:
    """Chosen minimal element (None iff the input was empty) plus the relation without it."""

    pivot: int | None
    reduced: Rel


def _require_poset(p: Rel) -> None:
    if not is_partial_order(p):
        raise ValueError("relation is not a partial order")


def choose_pivot(p: Rel) -> PivotResult:
    """Minimal element with the most immediate successors, smallest id on ties.

    This is the default pivot of allowed_conflicts.  It does not make the
    recursion faster: counting every structure at n = 6 through the
    recursion (the bench command's variants) took 8.78 s with it against
    8.21 s with choose_pivot_first (one run each, CPython 3.11 on a
    2-core host).  p must be a partial order.
    """
    return _choose(p, heuristic=True)


def choose_pivot_first(p: Rel) -> PivotResult:
    """Smallest-id minimal element, with no further criterion."""
    return _choose(p, heuristic=False)


def _choose(p: Rel, *, heuristic: bool) -> PivotResult:
    p = frozenset(p)
    if not p:
        return PivotResult(None, p)
    rows, ids = _pack_poset(p)
    m = ids[_pivot_packed(rows, columns(rows), (1 << len(rows)) - 1, heuristic)[0]]
    return PivotResult(m, remove_element(p, m))


def generate_conflicts(p: Rel, m: int, c: Rel, *, immediate_only: bool = True) -> list[Rel]:
    """One extension step: all allowed conflicts of p that restrict to c on p - {m}.

    p must be a finite poset, m one of its minimal elements, and c an
    allowed conflict for remove_element(p, m).  With immediate_only=False
    the base intersection runs over all strict successors of m instead of
    only the immediate ones; the output set is the same.
    """
    p = frozenset(p)
    c = frozenset(c)
    _require_poset(p)
    if m not in minimal_elements(p):
        raise ValueError(f"{m} is not a minimal element of the relation")
    reduced = remove_element(p, m)
    strict = image(p, {m}) - {m}
    if not strict:
        base = domain_of(p)
    else:
        successors = immediate_successors(p, m) if immediate_only else strict
        base = None
        for s in successors:
            img = image(c, {s})
            base = img if base is None else base & img
    ys: list[frozenset[int]] = [frozenset()]
    for x in sorted(base):
        img_x = frozenset(image(reduced, {x}))
        ys += [y | img_x for y in ys]
    return [
        c | frozenset((m, e) for e in y) | frozenset((e, m) for e in y)
        for y in dict.fromkeys(ys)
    ]


def allowed_conflicts(
    p: Rel, *, pivot: str = "heuristic", immediate_only: bool = True
) -> list[Rel]:
    """Duplicate-free list of every conflict relation valid for the poset p."""
    p = frozenset(p)
    _require_poset(p)
    rows, ids = _pack_poset(p)
    packed = _conflicts_packed(
        rows, heuristic=_heuristic(pivot), immediate_only=immediate_only
    )
    return [_unpack_conflict(conf, ids) for conf in packed]


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
    """
    p = frozenset(p)
    _require_poset(p)
    _heuristic(pivot)
    rows, _ = _pack_poset(p)
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
# _chain fixes the pivot steps, and _grow is the one level loop over them:
# _conflicts_packed lists the conflicts.  _count_packed counts them as
# up-sets of the disjoint-pair poset and shares no code with the
# recursion, so each checks the other.  _count_pivot (the recursion,
# counting its last level without building it) and _count_variant (the
# bench's dedupe variants, repeated Ys kept) are the bench's counts.
# ---------------------------------------------------------------------------


def _pack_poset(p: Rel) -> tuple[list[int], tuple[int, ...]]:
    """Rows of p over the indices of its sorted field, and that field."""
    ids = tuple(sorted(field_of(p)))
    if ids and ids[0] < 0:
        raise ValueError("event ids must be natural numbers")
    index = {x: i for i, x in enumerate(ids)}
    rows = [0] * len(ids)
    for x, y in p:
        rows[index[x]] |= 1 << index[y]
    return rows, ids


# Conflicts are unpacked through this module attribute, which the
# benchmark's traced run wraps to time unpacking.
_unpack_conflict = rows_to_rel


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
        succ = rows[m] & s & ~low
        if succ:
            reachable = 0
            u = succ
            while u:
                l2 = u & -u
                reachable |= rows[l2.bit_length() - 1] & ~l2
                u ^= l2
            imm = succ & ~reachable
        else:
            imm = 0
        if not heuristic:
            return m, succ, imm
        count = imm.bit_count()
        if count > best_count:
            best, best_count = (m, succ, imm), count
    return best


def _chain(rows, heuristic: bool, immediate_only: bool) -> list[tuple]:
    """Pivot steps (m, base_succ, s1, imgs), last pivot first.

    Step m joins the sub-poset s1, and imgs[x] is row x within s1.  The
    base meets the conflict rows of base_succ, which is 0 exactly when m
    has no strict successor (those always include an immediate one).
    """
    n = len(rows)
    cols = columns(rows)
    chain = []
    s = (1 << n) - 1
    while s:
        m, succ, imm = _pivot_packed(rows, cols, s, heuristic)
        s1 = s & ~(1 << m)
        base_succ = imm if immediate_only else succ
        imgs = [rows[x] & s1 for x in range(n)]
        chain.append((m, base_succ, s1, imgs))
        s = s1
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


def _count_packed(rows) -> int:
    """Number of allowed conflicts of rows: the up-sets of its disjoint pairs.

    Pair (a, b) is bit a*(n+1) + b of a mask.  The pairs above a
    disjoint {a, b} are the (c, e) with c in rows[a] and e in rows[b]
    (all disjoint), one product of a spread row and a row each way.  The
    pairs are taken minimal first, in an order of the events extending
    the poset (a row strictly contains the rows above it, so it is
    larger).  Per pair, the count of partial up-sets is kept for each
    set of later pairs already forced in: the pair is in if forced,
    else it is out, or in with the pairs above it forced.  The loop is
    flat, so no recursion depth grows with the number of pairs.
    """
    n = len(rows)
    stride = n + 1
    k, m = _spread_masks(n)
    spread = [row * k & m for row in rows]
    counts = {0: 1}  # forced pairs -> number of up-sets so far
    order = sorted(range(n), key=rows.__getitem__, reverse=True)
    for j, b in enumerate(order):
        rb, sb = rows[b], spread[b]
        for a in order[:j]:
            ra = rows[a]
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


def _count_pivot(rows, *, heuristic: bool) -> int:
    """len(_conflicts_packed(rows)) by the recursion, without building the last level.

    The last step's unique hook only tallies the distinct Ys of each
    conflict and yields none of them, so no extension is built.
    """
    steps = _chain(rows, heuristic, True)
    if not steps:
        return 1
    counts = []

    def tally(ys):
        counts.append(len(set(ys)))
        return ()

    _grow(_grow([(0,) * len(rows)], steps[:-1]), steps[-1:], unique=tally)
    return sum(counts)


def _count_variant(rows, *, heuristic: bool, dedupe: str) -> int:
    """Bench-only count with the repeated Ys kept in each level.

    "late" removes the duplicate conflicts after each level, "naive"
    only once, at the end; both agree with _count_pivot.
    """
    if dedupe not in ("late", "naive"):
        raise ValueError(f"unknown dedupe mode {dedupe!r}")
    confs = [(0,) * len(rows)]
    for step in _chain(rows, heuristic, True):
        confs = _grow(confs, [step], unique=iter)
        if dedupe == "late":
            confs = list(dict.fromkeys(confs))
    return len(set(confs))
