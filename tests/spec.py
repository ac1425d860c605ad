"""Pair-set references that the tests check the package against.

Plain definitions on frozensets of (int, int) pairs, sharing no code
with the packed path: the package itself runs none of them.
"""

from __future__ import annotations

from typing import Iterable

from eventstruct.relations import Rel, _image_map, field_of, inverse


def domain_of(r: Rel) -> set[int]:
    return {x for x, _ in r}


def image(r: Rel, s: Iterable[int]) -> set[int]:
    """Image of the set s through r: {y | exists x in s with (x, y) in r}."""
    s = set(s)
    return {y for x, y in r if x in s}


def minimal_elements(p: Rel) -> set[int]:
    """Elements of dom(p) with no strictly smaller element.  p must be a partial order."""
    pred = _image_map(inverse(p))
    return {m for m in domain_of(p) if pred.get(m, set()) <= {m}}


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
