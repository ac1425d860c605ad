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

The recursion runs on packed int-bitmask rows; the public functions
accept and return plain pair sets.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    recursion faster: counting every structure at n = 6 took 8.78 s with
    it against 8.21 s with choose_pivot_first (one run each, CPython 3.11
    on a 2-core host).  p must be a partial order.
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
    """len(allowed_conflicts(p)) without materializing the top-level list."""
    p = frozenset(p)
    _require_poset(p)
    rows, _ = _pack_poset(p)
    return _count_packed(rows, heuristic=_heuristic(pivot))


def _heuristic(pivot: str) -> bool:
    if pivot not in ("heuristic", "first"):
        raise ValueError(f"unknown pivot strategy {pivot!r}")
    return pivot == "heuristic"


# ---------------------------------------------------------------------------
# Packed implementation.  A poset on k events is a list of k int rows over
# the compact indices 0..k-1 of its sorted ids: bit j of rows[i] is set iff
# (ids[i], ids[j]) is in the order.  A conflict is a k-tuple of symmetric
# bitmask rows over the same indices.
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


def _conflicts_packed(
    rows,
    *,
    heuristic: bool = True,
    immediate_only: bool = True,
    dedupe: str = "final",
    count_only: bool = False,
):
    """Run the pivot recursion on packed rows.

    dedupe picks where duplicates are removed: "final" inside each
    extension group (production), "late" once per recursion level after
    concatenation, "naive" never (the result is then only counted as a
    set).  All three agree as sets; they exist for benchmark comparison.
    """
    if dedupe not in ("final", "late", "naive"):
        raise ValueError(f"unknown dedupe mode {dedupe!r}")
    n = len(rows)
    cols = columns(rows)

    # Pivot chain is independent of the conflicts, so fix it up front:
    # chain[k] describes the step removing pivot m_k from sub-poset s_k.
    chain = []
    s = (1 << n) - 1
    while s:
        m, succ, imm = _pivot_packed(rows, cols, s, heuristic)
        s1 = s & ~(1 << m)
        base_succ = (imm if immediate_only else succ) if succ else 0
        imgs = [rows[x] & s1 for x in range(n)]
        chain.append((m, succ != 0, base_succ, s1, imgs))
        s = s1

    confs: list[tuple[int, ...]] = [(0,) * n]
    if not chain:
        return 1 if count_only else confs

    final = dedupe == "final"
    total = 0
    for k in range(len(chain) - 1, -1, -1):
        m, has_succ, base_succ, s1, imgs = chain[k]
        mbit = 1 << m
        count_top = count_only and final and k == 0
        out = []
        for c in confs:
            if has_succ:
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
            if count_top:
                total += len(set(ys))
                continue
            for y in dict.fromkeys(ys) if final else ys:
                ext = list(c)
                ext[m] = y
                v = y
                while v:
                    l3 = v & -v
                    ext[l3.bit_length() - 1] |= mbit
                    v ^= l3
                out.append(tuple(ext))
        if dedupe == "late":
            out = list(dict.fromkeys(out))
        confs = out

    if not count_only:
        return confs
    if final:
        return total
    if dedupe == "late":
        return len(confs)
    return len(set(confs))


def _count_packed(rows, *, heuristic=True, dedupe="final") -> int:
    return _conflicts_packed(rows, heuristic=heuristic, dedupe=dedupe, count_only=True)
