import threading
import time

import pytest

from eventstruct import es_enum, order_enum
from eventstruct.oracle import brute_force_posets, brute_force_preorders
from eventstruct.order_enum import (
    ExtensionPair,
    count_posets,
    count_preorders,
    enumerate_posets,
    enumerate_preorders,
    enumerate_strict_posets,
    enumerate_strict_preorders,
    valid_extensions,
)
from eventstruct.relations import (
    BoolMatrix,
    field_of,
    is_partial_order,
    is_reflexive_on,
    is_transitive,
    matrix_to_rel,
)


def _bools(mask, k):
    return tuple(bool((mask >> i) & 1) for i in range(k))


def brute_force_extensions(a: BoolMatrix) -> set[ExtensionPair]:
    """Border a with every (alpha, beta) and keep those whose result is a preorder."""
    k = a.order
    found = set()
    for amask in range(1 << k):
        for bmask in range(1 << k):
            rows = tuple(
                a.rows[i] | (((amask >> i) & 1) << k) for i in range(k)
            ) + (bmask | (1 << k),)
            r = matrix_to_rel(BoolMatrix(k + 1, rows))
            if is_reflexive_on(r, range(k + 1)) and is_transitive(r):
                found.add(ExtensionPair(_bools(amask, k), _bools(bmask, k)))
    return found


def test_valid_extensions_single_point():
    a = BoolMatrix.from_lists([[True]])
    got = set(valid_extensions(a))
    assert got == {
        ExtensionPair((av,), (bv,)) for av in (False, True) for bv in (False, True)
    }
    assert got == brute_force_extensions(a)


def test_valid_extensions_antichain_two():
    # computed with brute_force_extensions: 9 of the 16 candidate pairs
    # extend the 2x2 identity matrix to a preorder
    a = BoolMatrix.from_lists([[True, False], [False, True]])
    got = valid_extensions(a)
    assert len(got) == 9
    assert set(got) == brute_force_extensions(a)


def test_all_false_extension_always_valid():
    for n in range(4):
        for a in enumerate_preorders(n):
            empty = (False,) * n
            assert ExtensionPair(empty, empty) in set(valid_extensions(a))


def test_valid_extensions_match_brute_force_order_three():
    for a in enumerate_preorders(3):
        assert set(valid_extensions(a)) == brute_force_extensions(a)


def test_valid_extensions_rejects_non_preorders():
    # exactly the preorders are accepted, over every matrix of order <= 3,
    # such as the non-reflexive BoolMatrix(2, (0b10, 0b01))
    for k in range(4):
        preorders = set(enumerate_preorders(k))
        for code in range(1 << k * k):
            a = BoolMatrix(k, tuple(code >> k * i & (1 << k) - 1 for i in range(k)))
            if a in preorders:
                valid_extensions(a)
            else:
                with pytest.raises(ValueError):
                    valid_extensions(a)


def test_preorder_counts():
    assert [count_preorders(n) for n in range(6)] == [1, 1, 4, 29, 355, 6942]
    assert len(enumerate_preorders(2)) == 4
    assert len(enumerate_preorders(3)) == 29
    assert len(enumerate_preorders(4)) == 355


def test_preorders_base_cases():
    assert enumerate_preorders(0) == [BoolMatrix(0, ())]
    assert enumerate_preorders(1) == [BoolMatrix(1, (1,))]
    assert enumerate_posets(0) == [frozenset()]


def test_preorders_are_reflexive_transitive_and_distinct():
    for n in range(6):
        matrices = enumerate_preorders(n)
        assert len(set(matrices)) == len(matrices)
        for a in matrices:
            r = matrix_to_rel(a)
            assert is_reflexive_on(r, range(n))
            assert is_transitive(r)


def test_strict_preorders():
    assert enumerate_strict_preorders(1) == [BoolMatrix(1, (0,))]
    strict2 = enumerate_strict_preorders(2)
    assert len(strict2) == 4
    for n in range(5):
        for a in enumerate_strict_preorders(n):
            assert all(not a.entry(i, i) for i in range(n))


def test_strict_posets_counts():
    assert len(enumerate_strict_posets(2)) == 3
    assert len(enumerate_strict_posets(3)) == 19
    assert count_posets(5) == 4231
    for a in enumerate_strict_posets(3):
        for i in range(3):
            for j in range(3):
                assert not (i != j and a.entry(i, j) and a.entry(j, i))


def test_enumerate_posets_two_events():
    assert set(enumerate_posets(2)) == {
        frozenset({(0, 0), (0, 1), (1, 1)}),
        frozenset({(0, 0), (1, 0), (1, 1)}),
        frozenset({(0, 0), (1, 1)}),
    }


def test_poset_counts():
    assert [count_posets(n) for n in range(6)] == [1, 1, 3, 19, 219, 4231]
    assert len(enumerate_posets(4)) == 219


def test_posets_are_partial_orders_on_full_carrier():
    for n in range(6):
        posets = enumerate_posets(n)
        assert len(set(posets)) == len(posets)
        for p in posets:
            assert is_partial_order(p)
            assert field_of(p) == set(range(n))


def test_matches_brute_force():
    for n in range(4):
        assert {matrix_to_rel(a) for a in enumerate_preorders(n)} == brute_force_preorders(n)
        assert set(enumerate_posets(n)) == brute_force_posets(n)


def _antisymmetric_by_bits(rows):
    """The filter's former bit loop: no off-diagonal entry has its mirror set."""
    for i, row in enumerate(rows):
        t = row & ~(1 << i)
        while t:
            low = t & -t
            if (rows[low.bit_length() - 1] >> i) & 1:
                return False
            t ^= low
    return True


def test_distinct_rows_filter_agrees_with_the_bit_loop():
    for n in range(6):
        for rows in order_enum._rows_stream(n):
            assert order_enum._antisymmetric_rows(rows) == _antisymmetric_by_bits(rows), rows


def test_preorders_are_posets_on_their_blocks():
    # A preorder is a poset on its classes of equivalent events, so
    # A000798(n) = sum over k of S(n, k) * A001035(k), S the Stirling
    # numbers of the second kind: a second route to the filter's counts.
    stirling = [[1]]  # stirling[n][k] = S(n, k)
    for n in range(1, 7):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    assert stirling[6] == [0, 1, 31, 90, 65, 15, 1]
    for n in range(7):
        assert count_preorders(n) == sum(s * count_posets(k) for k, s in enumerate(stirling[n]))


def test_enumeration_order_is_deterministic():
    first = [a.rows for a in enumerate_preorders(4)]
    second = [a.rows for a in enumerate_preorders(4)]
    assert first == second


def test_level_cache_is_built_once_under_threads(monkeypatch):
    # two threads fill a cold cache at once; a 1 ms pause per extension
    # makes them overlap in every level build
    extend = order_enum._extend_rows

    def slow_extend(rows, k):
        time.sleep(0.001)
        return extend(rows, k)

    monkeypatch.setattr(order_enum, "_levels", [[()]])
    monkeypatch.setattr(order_enum, "_extend_rows", slow_extend)
    results = []

    def count():
        try:
            results.append(count_posets(4))
        except Exception as exc:  # the race shows as an IndexError
            results.append(exc)

    threads = [threading.Thread(target=count) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert results == [219, 219]
    assert [len(level) for level in order_enum._levels] == [1, 1, 4, 29, 355]


def test_negative_n_is_refused(monkeypatch):
    # before and after level 4 is cached, since _level(n) indexes the cache
    calls = (
        count_preorders,
        count_posets,
        enumerate_preorders,
        enumerate_strict_preorders,
        enumerate_strict_posets,
        enumerate_posets,
        es_enum.count_event_structures,
        es_enum.count_event_structures_variant,
        lambda n: list(es_enum.enumerate_event_structures(n)),
    )
    monkeypatch.setattr(order_enum, "_levels", [[()]])
    for warm in (False, True):
        if warm:
            assert count_preorders(4) == 355
        for call in calls:
            with pytest.raises(ValueError, match="n must be >= 0"):
                call(-1)


@pytest.mark.slow
def test_counts_at_seven():
    assert count_preorders(7) == 9535241
    assert count_posets(7) == 6129859
