import os
import subprocess
import sys

import pytest

from eventstruct import cli, es_enum, order_enum
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
    columns,
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


def _scanned_closed(constraints, k):
    """Every mask of k bits, ascending, that holds constraints[b] for each of its bits b."""
    return [
        m for m in range(1 << k) if all(constraints[b] & ~m == 0 for b in range(k) if m >> b & 1)
    ]


def _scanned_pairs(rows, k):
    """The (alpha, beta) masks of a preorder by a scan of all 2**k masks each way.

    alpha must be down-closed, beta up-closed, and beta within the rows
    that alpha selects; alphas ascending, then betas ascending.
    """
    ups = _scanned_closed(rows, k)
    pairs = []
    for alpha in _scanned_closed(columns(rows), k):
        need = (1 << k) - 1
        for i in range(k):
            if alpha >> i & 1:
                need &= rows[i]
        pairs += [(alpha, beta) for beta in ups if not beta & ~need]
    return pairs


def test_extend_rows_matches_the_closed_mask_scan():
    for k in range(5):
        for rows in order_enum._rows_stream(k):
            bordered = [
                tuple(row | (alpha >> i & 1) << k for i, row in enumerate(rows)) + (beta | 1 << k,)
                for alpha, beta in _scanned_pairs(rows, k)
            ]
            assert order_enum._extend_rows(rows, k) == bordered, rows


def test_valid_extensions_list_the_scanned_pairs():
    for k in range(5):
        for rows in order_enum._rows_stream(k):
            assert valid_extensions(BoolMatrix(k, rows)) == [
                ExtensionPair(_bools(alpha, k), _bools(beta, k))
                for alpha, beta in _scanned_pairs(rows, k)
            ]


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


def test_preorders_are_posets_on_their_blocks(order_six_listed):
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


def test_streams_keep_nothing_between_calls():
    # a fresh interpreter, so no earlier test has filled anything first
    script = (
        "import gc, tracemalloc\n"
        "from eventstruct import order_enum\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "assert order_enum.count_posets(5) == 4231\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0] - before)\n"
    )
    src = os.path.dirname(os.path.dirname(order_enum.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    # a cache of the levels through order 5 would retain about 630 KB
    assert int(result.stdout) < 16 * 1024


def test_negative_n_is_refused():
    calls = (
        count_preorders,
        count_posets,
        enumerate_preorders,
        enumerate_strict_preorders,
        enumerate_strict_posets,
        enumerate_posets,
        es_enum.count_event_structures,
        lambda n: list(es_enum.enumerate_event_structures(n)),
    )
    for call in calls:
        for n in (-1, 2.5, "3", True):
            with pytest.raises(ValueError, match="n must be an int >= 0"):
                call(n)
    # bench, which counts the variants, refuses them as usage errors
    for n in ("-1", "2.5", "True"):
        with pytest.raises(SystemExit) as refused:
            cli.main(["bench", "--n", n])
        assert refused.value.code == cli.EXIT_USAGE


@pytest.mark.slow
def test_counts_at_seven():
    assert count_preorders(7) == 9535241
    assert count_posets(7) == 6129859
