"""Brute-force generators used as ground truth in equivalence tests.

Each generator exhaustively walks a candidate space and filters by the
definitional predicates, with no shortcuts shared with the recursive
enumeration code.  Guards keep the default sizes to a few seconds; pass
a bigger guard explicitly to go further.
"""

from __future__ import annotations

from collections.abc import Iterator

from .relations import (
    EventStructure,
    Rel,
    field_of,
    is_antisymmetric,
    is_reflexive_on,
    is_transitive,
    propagates_over,
)

RELATIONS_GUARD = 4
CONFLICT_FIELD_GUARD = 6
EVENT_STRUCTURES_GUARD = 3


class OracleGuardError(ValueError):
    """A brute-force request exceeded its size guard."""


def brute_force_relations(n: int, *, guard: int = RELATIONS_GUARD) -> Iterator[Rel]:
    """Every subset of {0..n-1} x {0..n-1}, exactly once (2^(n*n) candidates)."""
    if n > guard:
        raise OracleGuardError(
            f"brute-force relations over {n} events means 2^{n * n} candidates; "
            f"guard is n <= {guard}"
        )
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << len(pairs)):
        chosen = []
        t = mask
        while t:
            low = t & -t
            chosen.append(pairs[low.bit_length() - 1])
            t ^= low
        yield frozenset(chosen)


def brute_force_preorders(n: int, *, guard: int = RELATIONS_GUARD) -> set[Rel]:
    """All relations over {0..n-1} that are reflexive on the full carrier and transitive."""
    carrier = range(n)
    return {
        r
        for r in brute_force_relations(n, guard=guard)
        if is_reflexive_on(r, carrier) and is_transitive(r)
    }


def brute_force_posets(n: int, *, guard: int = RELATIONS_GUARD) -> set[Rel]:
    return {r for r in brute_force_preorders(n, guard=guard) if is_antisymmetric(r)}


def brute_force_conflicts(p: Rel, *, guard: int = CONFLICT_FIELD_GUARD) -> set[Rel]:
    """All valid conflict relations for the poset p.

    Candidates are built by choosing any subset of the unordered pairs
    {i, j} (i < j) of p's field and symmetrizing, which bakes in symmetry,
    irreflexivity and the field bound; propagation is then checked directly.
    """
    p = frozenset(p)
    events = sorted(field_of(p))
    if len(events) > guard:
        raise OracleGuardError(
            f"brute-force conflicts over {len(events)} events; guard is {guard}"
        )
    unordered = [(a, b) for i, a in enumerate(events) for b in events[i + 1 :]]
    found = set()
    for mask in range(1 << len(unordered)):
        sym = set()
        t = mask
        while t:
            low = t & -t
            a, b = unordered[low.bit_length() - 1]
            sym.add((a, b))
            sym.add((b, a))
            t ^= low
        c = frozenset(sym)
        if propagates_over(c, p):
            found.add(c)
    return found


def brute_force_event_structures(
    n: int, *, guard: int = EVENT_STRUCTURES_GUARD
) -> set[EventStructure]:
    """Every (causality, conflict) pair over {0..n-1} that is a valid event structure."""
    if n > guard:
        raise OracleGuardError(f"brute-force event structures at n={n}; guard is {guard}")
    found = set()
    for o in brute_force_posets(n, guard=n):
        for c in brute_force_conflicts(o, guard=n):
            found.add(EventStructure(o, c))
    return found
