import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventstruct import order_enum
from eventstruct.relations import (
    BoolMatrix,
    EventStructure,
    bits,
    covering_relation,
    field_of,
    inverse,
    is_antisymmetric,
    is_event_structure,
    is_irreflexive,
    is_partial_order,
    is_reflexive_on,
    is_symmetric,
    is_transitive,
    matrix_to_rel,
    propagates_over,
    remove_element,
)
from spec import domain_of, image, minimal_elements, reflexive_transitive_closure

CHAIN2 = frozenset({(0, 0), (0, 1), (1, 1)})
CHAIN3 = frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)})
ANTICHAIN2 = frozenset({(0, 0), (1, 1)})
V_POSET = frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)})


def _random_rel(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return frozenset(p for p in pairs if rng.random() < 0.3)


def test_domain_range_field():
    assert field_of(frozenset({(0, 1)})) == {0, 1}
    assert domain_of(frozenset()) == set()
    assert field_of(CHAIN2) == {0, 1}
    assert domain_of(frozenset({(0, 1), (2, 0)})) == {0, 2}


def test_image():
    assert image(frozenset({(0, 1), (1, 2)}), {0, 1}) == {1, 2}
    assert image(frozenset({(0, 1)}), set()) == set()
    assert image(CHAIN2, {0}) == {0, 1}


def test_inverse():
    assert inverse(frozenset({(0, 1)})) == {(1, 0)}
    assert inverse(frozenset()) == frozenset()
    rng = random.Random(7)
    for _ in range(50):
        r = _random_rel(rng, 5)
        assert inverse(inverse(r)) == r


def test_image_of_inverse_is_preimage():
    rng = random.Random(11)
    for _ in range(50):
        r = _random_rel(rng, 5)
        for m in range(5):
            assert image(inverse(r), {m}) == {x for (x, y) in r if y == m}


def test_predicates():
    assert not is_transitive(frozenset({(0, 1), (1, 2)}))
    assert is_transitive(CHAIN3)
    assert is_symmetric(frozenset({(0, 1), (1, 0)}))
    assert not is_symmetric(frozenset({(0, 1)}))
    assert not is_irreflexive(frozenset({(0, 0)}))
    assert is_irreflexive(frozenset({(0, 1)}))
    assert is_antisymmetric(CHAIN2)
    assert not is_antisymmetric(frozenset({(0, 1), (1, 0)}))


def test_is_reflexive_on():
    assert is_reflexive_on(ANTICHAIN2, {0, 1})
    # every element of the carrier must relate to itself
    assert not is_reflexive_on(frozenset({(0, 0)}), {0, 1})
    # and the relation may not leave the carrier
    assert not is_reflexive_on(CHAIN2, {0})
    assert is_reflexive_on(frozenset(), set())


def test_is_partial_order():
    assert is_partial_order(CHAIN2)
    assert not is_partial_order(frozenset({(0, 1), (1, 0), (0, 0), (1, 1)}))
    assert is_partial_order(frozenset())
    assert not is_partial_order(frozenset({(0, 1)}))  # not reflexive on its field


def test_propagates_over():
    assert propagates_over(frozenset(), CHAIN2)
    assert propagates_over(frozenset({(0, 1), (1, 0)}), ANTICHAIN2)
    # 1#0 with 0 below 1 would force 1#1
    assert not propagates_over(frozenset({(0, 1), (1, 0)}), CHAIN2)


def test_is_event_structure():
    assert is_event_structure(ANTICHAIN2, frozenset({(0, 1), (1, 0)}))
    assert not is_event_structure(CHAIN2, frozenset({(0, 1), (1, 0)}))
    assert is_event_structure(frozenset(), frozenset())
    # conflict field must stay inside the causality field
    assert not is_event_structure(ANTICHAIN2, frozenset({(0, 2), (2, 0)}))


def test_remove_element():
    assert remove_element(CHAIN2, 0) == {(1, 1)}
    assert remove_element(CHAIN2, 7) == CHAIN2
    assert remove_element(frozenset({(0, 0)}), 0) == frozenset()


def test_minimal_elements():
    assert minimal_elements(CHAIN2) == {0}
    assert minimal_elements(ANTICHAIN2) == {0, 1}
    assert minimal_elements(frozenset()) == set()


def test_minimal_elements_nonempty_on_enumerated_posets():
    for n in range(1, 5):
        for p in order_enum.enumerate_posets(n):
            assert minimal_elements(p)


def test_covering_relation():
    assert covering_relation(CHAIN3) == {(0, 1), (1, 2)}
    assert covering_relation(ANTICHAIN2) == frozenset()
    assert covering_relation(V_POSET) == {(0, 1), (0, 2)}


def test_covering_relation_round_trip():
    for n in range(5):
        for p in order_enum.enumerate_posets(n):
            reduced = covering_relation(p)
            assert reflexive_transitive_closure(reduced, field_of(p)) == p


def _matrix(r, n):
    # entry (i, j) is true iff (i, j) is in r: built from the pairs, not packed by hand
    return BoolMatrix.from_lists([[(i, j) in r for j in range(n)] for i in range(n)])


def test_matrix_round_trip_examples():
    a = BoolMatrix(2, (0b10, 0))
    assert a.to_lists() == [[False, True], [False, False]]
    assert _matrix(frozenset({(0, 1)}), 2) == a
    assert matrix_to_rel(a) == {(0, 1)}
    assert matrix_to_rel(BoolMatrix(2, (0, 0))) == frozenset()


def test_matrix_round_trip_exhaustive_small():
    pairs2 = [(i, j) for i in range(2) for j in range(2)]
    for mask in range(1 << 4):
        r = frozenset(pairs2[i] for i in range(4) if (mask >> i) & 1)
        assert matrix_to_rel(_matrix(r, 2)) == r


def test_matrix_round_trip_random():
    rng = random.Random(3)
    for n in range(3, 7):
        for _ in range(30):
            r = _random_rel(rng, n)
            assert matrix_to_rel(_matrix(r, n)) == r


def test_bool_matrix_validation():
    with pytest.raises(ValueError):
        BoolMatrix(2, (0,))
    with pytest.raises(ValueError):
        BoolMatrix(1, (2,))
    with pytest.raises(ValueError):
        BoolMatrix.from_lists([[True, False], [True]])


def test_bool_matrix_freezes_its_rows():
    a = BoolMatrix(2, [1, 2])
    assert a.rows == (1, 2)
    assert a == BoolMatrix(2, (1, 2))
    assert hash(a) == hash(BoolMatrix(2, (1, 2)))
    assert BoolMatrix(2, iter((1, 2))) == a


def test_bool_matrix_refuses_orders_and_rows_that_are_not_ints():
    # a float or bool would pass the range checks, then fail later or read as 0 or 1
    for order, rows in (
        (1, (1.0,)),
        (2, (1, 2.0)),
        (1, (True,)),
        (2.0, (1, 2)),
        (True, (1,)),
        (1, ("1",)),
    ):
        with pytest.raises(ValueError):
            BoolMatrix(order, rows)


def _bits_by_scan(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def test_bits_exhaustive_below_2_to_the_10():
    for mask in range(1 << 10):
        assert list(bits(mask)) == _bits_by_scan(mask)


@given(st.integers(0, 2**200))
def test_bits_matches_a_scan(mask):
    assert list(bits(mask)) == _bits_by_scan(mask)


def test_bits_keeps_every_mask_on_8_events():
    # every row mask of a stream on n <= 8 events stays cached
    bits.cache_clear()
    for _ in range(2):
        for mask in range(1 << 8):
            bits(mask)
    assert bits.cache_info().misses == 1 << 8


def test_reflexive_transitive_closure():
    chain_gen = frozenset({(0, 1), (1, 2)})
    assert reflexive_transitive_closure(chain_gen, {0, 1, 2}) == CHAIN3
    assert reflexive_transitive_closure(frozenset(), {0}) == {(0, 0)}
    closed = reflexive_transitive_closure(chain_gen, {0, 1, 2})
    assert reflexive_transitive_closure(closed, {0, 1, 2}) == closed
    with pytest.raises(ValueError):
        reflexive_transitive_closure(frozenset({(0, 5)}), {0, 1})


def _propagates_direct(c, o):
    # literal expansion of the contract, with no shared shortcuts
    for x in field_of(o):
        for y in image(o, {x}):
            if not image(c, {x}) <= image(c, {y}):
                return False
    return True


def _is_event_structure_direct(o, c):
    return (
        all(x != y for x, y in c)
        and all((y, x) in c for x, y in c)
        and field_of(c) <= field_of(o)
        and _propagates_direct(c, o)
        and is_reflexive_on(o, field_of(o))
        and all((x, w) in o for x, y in o for z, w in o if y == z)
        and all(x == y or (y, x) not in o for x, y in o)
    )


def test_agreement_with_direct_expansion():
    from eventstruct.oracle import brute_force_relations

    for n in range(4):
        rels = list(brute_force_relations(n))
        for o in rels:
            for c in rels:
                assert propagates_over(c, o) == _propagates_direct(c, o)
                assert is_event_structure(o, c) == _is_event_structure_direct(o, c)


def test_event_structure_type():
    es = EventStructure({(0, 0), (1, 1)}, {(0, 1), (1, 0)})
    assert isinstance(es.causality, frozenset)
    assert es.events() == {0, 1}
    assert es.is_valid()
    assert not EventStructure(CHAIN2, {(0, 1), (1, 0)}).is_valid()
    # hashable and equal by value
    assert es == EventStructure(frozenset({(1, 1), (0, 0)}), frozenset({(1, 0), (0, 1)}))
    assert len({es, EventStructure({(0, 0), (1, 1)}, {(0, 1), (1, 0)})}) == 1
