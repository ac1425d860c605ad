import random
import time
from functools import reduce
from itertools import combinations
from math import comb, prod
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventstruct import conflicts, order_enum
from eventstruct.conflicts import (
    PivotResult,
    allowed_conflicts,
    choose_pivot,
    choose_pivot_first,
    count_allowed_conflicts,
    generate_conflicts,
)
from eventstruct.es_enum import enumerate_event_structures
from eventstruct.oracle import brute_force_conflicts
from eventstruct.order_enum import enumerate_posets
from eventstruct.relations import (
    bits, cover_rows, is_event_structure, remove_element, rows_to_rel,
)
from spec import minimal_elements, packed_conflicts, reflexive_transitive_closure

CHAIN2 = frozenset({(0, 0), (0, 1), (1, 1)})
ANTICHAIN2 = frozenset({(0, 0), (1, 1)})
ANTICHAIN3 = frozenset({(0, 0), (1, 1), (2, 2)})
V_POSET = frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)})
MUTUAL = frozenset({(0, 1), (1, 0)})


def test_choose_pivot():
    assert choose_pivot(frozenset()) == PivotResult(None, frozenset())
    assert choose_pivot(V_POSET) == PivotResult(0, frozenset({(1, 1), (2, 2)}))
    # both minimal with zero successors; the tie goes to the smallest id
    assert choose_pivot(ANTICHAIN2) == PivotResult(0, frozenset({(1, 1)}))


def test_choose_pivot_prefers_more_successors():
    # 1 is minimal with two immediate successors, 0 with none
    p = frozenset({(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (1, 3)})
    assert choose_pivot(p).pivot == 1
    assert choose_pivot_first(p).pivot == 0


def test_choose_pivot_first():
    assert choose_pivot_first(ANTICHAIN2) == PivotResult(0, frozenset({(1, 1)}))
    assert choose_pivot_first(frozenset()) == PivotResult(None, frozenset())


def test_pivot_result_invariants():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for result in (choose_pivot(p), choose_pivot_first(p)):
                assert result.pivot in minimal_elements(p)
                assert result.reduced == remove_element(p, result.pivot)


def test_generate_conflicts_antichain():
    got = generate_conflicts(ANTICHAIN2, 0, frozenset())
    assert set(got) == {frozenset(), MUTUAL}
    assert len(got) == 2


def test_generate_conflicts_chain():
    # the base reduces to image(c, {1}) = {}, so only Y = {} survives
    assert generate_conflicts(CHAIN2, 0, frozenset()) == [frozenset()]


def test_generate_conflicts_v_poset():
    c = frozenset({(1, 2), (2, 1)})
    assert generate_conflicts(V_POSET, 0, c) == [c]


def test_generate_conflicts_refuses_ids_that_are_not_ints():
    # m or an id of c that is a bool or a float is refused before any other
    # check, as allowed_conflicts refuses such ids in p
    calls = (
        lambda: generate_conflicts(ANTICHAIN2, True, frozenset()),
        lambda: generate_conflicts(ANTICHAIN2, 1.0, frozenset()),
        lambda: generate_conflicts(ANTICHAIN3, 0, frozenset({(True, 2), (2, True)})),
        lambda: generate_conflicts(ANTICHAIN3, 0, frozenset({(1, 2.0), (2.0, 1)})),
        lambda: generate_conflicts(CYCLE2, False, frozenset()),  # p is not checked first
    )
    for call in calls:
        with pytest.raises(ValueError, match="natural numbers"):
            call()
    assert len(generate_conflicts(ANTICHAIN2, 1, frozenset())) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: allowed_conflicts([1]),
        lambda: count_allowed_conflicts([1]),
        lambda: choose_pivot([1]),
        lambda: choose_pivot_first([1]),
        lambda: allowed_conflicts([(0, 0), (0, 0, 0)]),
        lambda: count_allowed_conflicts([(0, 0), (1,)]),
        lambda: generate_conflicts(ANTICHAIN2, 0, [1]),
        lambda: generate_conflicts(ANTICHAIN2, 0, [(1,)]),
        lambda: generate_conflicts(ANTICHAIN3, 0, [(1, 2, 0), (2, 1, 0)]),
        lambda: generate_conflicts(ANTICHAIN2, 0, ["12"]),
        lambda: generate_conflicts(CYCLE2, 0, [1]),  # c is checked before p
        lambda: generate_conflicts([1], 0, frozenset()),
    ],
    ids=[
        "allowed-int", "count-int", "pivot-int", "pivot-first-int", "allowed-triple",
        "count-single", "generate-c-int", "generate-c-single", "generate-c-triples",
        "generate-c-string", "generate-c-before-p", "generate-p-int",
    ],
)
def test_elements_that_are_not_pairs_are_refused(call):
    with pytest.raises(ValueError, match="relation elements must be pairs"):
        call()


def test_generate_conflicts_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_conflicts(frozenset({(0, 1)}), 0, frozenset())
    with pytest.raises(ValueError):
        generate_conflicts(CHAIN2, 1, frozenset())


CYCLE2 = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})


def test_choose_pivot_rejects_non_posets():
    for choose in (choose_pivot, choose_pivot_first):
        for bad in (CYCLE2, MUTUAL, frozenset({(0, 1)}), frozenset({(-1, -1)})):
            with pytest.raises(ValueError):
                choose(bad)


def test_generate_conflicts_rejects_conflicts_off_the_reduced_poset():
    # c may only relate events of p other than m
    for c in (
        frozenset({(0, 1), (1, 0)}),  # names m = 0
        frozenset({(1, 3), (3, 1)}),  # 3 is not an event of p
    ):
        with pytest.raises(ValueError):
            generate_conflicts(V_POSET, 0, c)
    with pytest.raises(ValueError):
        generate_conflicts(V_POSET, 7, frozenset())  # m is not an event of p


def test_generate_conflicts_rejects_conflicts_not_allowed_on_the_reduced_poset():
    # c stays on the events of p - {m} but is not an allowed conflict there
    p = frozenset({(0, 0), (1, 1), (2, 2), (1, 2)})
    for c in (
        frozenset({(1, 1)}),  # reflexive
        frozenset({(1, 2)}),  # asymmetric
        frozenset({(1, 2), (2, 1)}),  # conflicts 1 with 2, which is above it
    ):
        with pytest.raises(ValueError):
            generate_conflicts(p, 0, c)


def test_negative_ids_are_refused():
    # each id is checked before the field is sorted, so floats, bools,
    # strings and mixed types are refused as negative ids are
    relations = (
        {(-1, -1), (0, 0)},
        {(0.5, 0.5)},
        {("a", "a")},
        {(1, 1), ("a", "a")},
        {(True, True)},
        {(2.0, 2.0), (2.0, 3.0), (3.0, 3.0)},
    )
    for p in map(frozenset, relations):
        for call in (
            allowed_conflicts,
            count_allowed_conflicts,
            choose_pivot,
            choose_pivot_first,
            lambda q: generate_conflicts(q, -1, frozenset()),
        ):
            with pytest.raises(ValueError, match="natural numbers"):
                call(p)


def test_generate_conflicts_matches_brute_force():
    # independent of _grow: the brute-force conflicts of p, grouped by
    # their restriction to p - {m}
    for n in range(5):
        for p in enumerate_posets(n):
            everything = brute_force_conflicts(p)
            for m in minimal_elements(p):
                reduced = remove_element(p, m)
                for c in brute_force_conflicts(reduced):
                    expected = {d for d in everything if remove_element(d, m) == c}
                    for immediate_only in (True, False):
                        got = generate_conflicts(p, m, c, immediate_only=immediate_only)
                        assert len(got) == len(set(got))
                        assert set(got) == expected, (p, m, c)


def test_allowed_conflicts_examples():
    assert allowed_conflicts(CHAIN2) == [frozenset()]
    assert set(allowed_conflicts(ANTICHAIN2)) == {frozenset(), MUTUAL}
    assert set(allowed_conflicts(V_POSET)) == {frozenset(), frozenset({(1, 2), (2, 1)})}
    assert set(allowed_conflicts(ANTICHAIN3)) == brute_force_conflicts(ANTICHAIN3)
    assert len(allowed_conflicts(ANTICHAIN3)) == 8


def test_allowed_conflicts_rejects_non_posets():
    with pytest.raises(ValueError):
        allowed_conflicts(frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    with pytest.raises(ValueError):
        count_allowed_conflicts(frozenset({(0, 1)}))


def test_count_allowed_conflicts():
    assert count_allowed_conflicts(CHAIN2) == 1
    assert count_allowed_conflicts(ANTICHAIN3) == 8
    assert sum(count_allowed_conflicts(p) for p in enumerate_posets(3)) == 41
    with pytest.raises(ValueError):
        count_allowed_conflicts(CHAIN2, pivot="bogus")


def test_soundness_and_no_duplicates():
    for n in range(6):
        for p in enumerate_posets(n):
            conflicts = allowed_conflicts(p)
            assert len(set(conflicts)) == len(conflicts)
            for c in conflicts:
                assert is_event_structure(p, c)


def test_matches_brute_force():
    for n in range(4):
        for p in enumerate_posets(n):
            assert set(allowed_conflicts(p)) == brute_force_conflicts(p)


def test_pivot_strategy_does_not_change_the_set():
    for n in range(5):
        for p in enumerate_posets(n):
            heuristic = allowed_conflicts(p, pivot="heuristic")
            first = allowed_conflicts(p, pivot="first")
            assert set(heuristic) == set(first)
            assert len(heuristic) == len(first)


def test_full_successor_base_gives_the_same_set():
    # the base intersection may run over all strict successors instead of
    # only the immediate ones without changing the result
    for n in range(5):
        for p in enumerate_posets(n):
            assert set(allowed_conflicts(p, immediate_only=False)) == set(
                allowed_conflicts(p)
            )


def test_full_successor_base_gives_the_same_list():
    # and the same order: each step's base is the same set either way
    for n in range(6):
        for rows in order_enum._poset_rows(n):
            for heuristic in (True, False):
                default = packed_conflicts(rows, heuristic)
                full = packed_conflicts(rows, heuristic, immediate_only=False)
                assert full == default, (rows, heuristic)
            # the defaults list what the package's own listing lists
            assert packed_conflicts(rows) == conflicts._conflicts_packed(rows), rows


def test_count_matches_list_length():
    for n in range(5):
        for p in enumerate_posets(n):
            assert count_allowed_conflicts(p) == len(allowed_conflicts(p))
            assert count_allowed_conflicts(p, pivot="first") == len(allowed_conflicts(p))


def test_packed_count_matches_list_length_at_five():
    # the up-set count against the recursion's list, where brute force cannot reach
    for rows in order_enum._poset_rows(5):
        count = conflicts._count_packed(rows)
        for heuristic in (True, False):
            assert count == len(packed_conflicts(rows, heuristic))


def test_posets_with_a_maximum_have_only_the_empty_conflict(monkeypatch):
    # rows sharing a bit give a maximum, so no pair is disjoint; listing
    # these posets needs no pair table
    def unused(*args):
        raise AssertionError("called for a poset with a maximum")

    monkeypatch.setattr(conflicts, "_pair_table", unused)
    for n in range(1, 6):
        with_maximum = [rows for rows in order_enum._poset_rows(n) if reduce(and_, rows)]
        # one poset on the other n - 1 events per choice of the maximum
        assert len(with_maximum) == n * len(list(order_enum._poset_rows(n - 1)))
        for rows in with_maximum:
            assert conflicts._count_packed(rows) == 1
            assert conflicts._conflicts_packed(rows) == [(0,) * n]
            assert allowed_conflicts(rows_to_rel(rows, range(n))) == [frozenset()]


@pytest.mark.slow
def test_upset_count_matches_the_recursion_at_six():
    upsets = pivot = 0
    for rows in order_enum._poset_rows(6):
        count = conflicts._count_packed(rows)
        assert count == len(conflicts._conflicts_packed(rows)), rows
        upsets += count
        pivot += len(packed_conflicts(rows, heuristic=False))
    assert upsets == pivot == 3528258


def _permuted(rows, perm):
    """The poset rows with event e renamed perm[e]."""
    out = [0] * len(rows)
    for e, row in enumerate(rows):
        out[perm[e]] = sum(1 << perm[j] for j in range(len(rows)) if row >> j & 1)
    return out


def _random_poset(rng, n):
    """Rows of a random poset on n events: a closed random DAG, its events shuffled."""
    rows = [0] * n
    for i in reversed(range(n)):
        rows[i] = 1 << i
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                rows[i] |= rows[j]
    perm = list(range(n))
    rng.shuffle(perm)
    return _permuted(rows, perm)


def test_relabeled_copy_is_the_poset_in_an_extending_order():
    rng = random.Random(20261019)
    n40 = 40
    chain = _permuted([(1 << n40) - (1 << i) for i in range(n40)], rng.sample(range(n40), n40))
    antichain = [1 << i for i in range(n40)]
    posets = [rows for n in range(6) for rows in order_enum._poset_rows(n)]
    posets += [_random_poset(rng, n) for n in range(7, 13) for _ in range(20)]
    for rows in posets + [chain, antichain]:
        n = len(rows)
        key = conflicts._relabeled(rows)
        # sigma lists the events by row, descending
        sigma = sorted(range(n), key=rows.__getitem__, reverse=True)
        assert key == tuple(
            sum(1 << j for j in range(n) if rows[sigma[i]] >> sigma[j] & 1)
            for i in range(n)
        )
        # index order extends the copy: no set bit j of key[i] has j < i
        assert all(key[i] & (1 << i) - 1 == 0 for i in range(n)), rows
    # one call on a new order fills mask 0 and at most one entry per row
    shuffled = _permuted(antichain, rng.sample(range(n40), n40))
    order = tuple(sorted(range(n40), key=shuffled.__getitem__, reverse=True))
    conflicts._relabel_table.cache_clear()
    conflicts._relabeled(shuffled)
    assert len(conflicts._relabel_table(order)) <= n40 + 1


def test_count_is_memoized_on_the_relabeled_copy():
    conflicts._count_upsets.cache_clear()
    conflicts._relabel_table.cache_clear()
    posets = list(order_enum._poset_rows(5))
    assert len(posets) == 4231
    assert sum(map(conflicts._count_packed, posets)) == 41099
    # isomorphic posets that relabel alike share one count, those with a
    # maximum included
    assert conflicts._count_upsets.cache_info().misses == 357
    # and the relabelings share one table per event order: all 5! of them
    assert conflicts._relabel_table.cache_info().misses == 120


def test_bench_variants_match_the_count_per_poset():
    for n in range(5):
        for rows in order_enum._poset_rows(n):
            for heuristic in (True, False):
                expected = len(packed_conflicts(rows, heuristic))
                for dedupe in ("final", "late", "naive"):
                    got = conflicts._count_variant(rows, heuristic=heuristic, dedupe=dedupe)
                    assert got == expected


def test_count_variant_rejects_unknown_mode():
    with pytest.raises(ValueError):
        conflicts._count_variant([], heuristic=True, dedupe="bogus")


def _steps_by_rescan(rows, heuristic, immediate_only):
    """Reference for _chain, first pivot first: at every step, each minimal
    candidate's strict and immediate successors are found again within
    the events left."""
    k = len(rows)
    cols = [sum(1 << i for i in range(k) if rows[i] >> j & 1) for j in range(k)]
    steps = []
    s = (1 << k) - 1
    while s:
        best = None
        for m in range(k):
            if cols[m] & s != 1 << m:
                continue  # m is gone or has a strict predecessor left
            succ = rows[m] & s & ~(1 << m)
            above = 0
            for x in range(k):
                if succ >> x & 1:
                    above |= rows[x] & ~(1 << x)
            imm = succ & ~above
            if best is None or imm.bit_count() > best[2].bit_count():
                best = (m, succ, imm)
            if not heuristic:
                break
        m, succ, imm = best
        s1 = s & ~(1 << m)
        steps.append((m, imm if immediate_only else succ, s1))
        s = s1
    return steps


def _grow_per_conflict(confs, steps, rows, unique):
    """Reference for _grow: each conflict's Ys built from Y = {} up, from its
    own base even when that is s1, from its images within s1, and every
    extension built, Y = {} too."""
    for m, base_succ, s1 in steps:
        out = []
        for c in confs:
            base = s1
            if base_succ:
                base = -1
                u = base_succ
                while u:
                    low = u & -u
                    base &= c[low.bit_length() - 1]
                    u ^= low
            ys = [0]
            u = base
            while u:
                low = u & -u
                ys += [y | rows[low.bit_length() - 1] & s1 for y in ys]
                u ^= low
            for y in unique(ys):
                ext = list(c)
                ext[m] = y
                v = y
                while v:
                    low = v & -v
                    ext[low.bit_length() - 1] |= 1 << m
                    v ^= low
                out.append(tuple(ext))
        confs = out
    return confs


@pytest.fixture(scope="module")
def small_posets():
    """Every poset on at most 5 events, and the 6-event antichain, whose
    pivots never have a successor."""
    return [
        *(rows for n in range(6) for rows in order_enum._poset_rows(n)),
        tuple(1 << i for i in range(6)),
    ]


def test_chain_matches_a_rescan_per_step(small_posets):
    for rows in small_posets:
        for heuristic in (True, False):
            for immediate_only in (True, False):
                expected = _steps_by_rescan(rows, heuristic, immediate_only)
                assert list(conflicts._chain(rows, heuristic, immediate_only)) == expected, rows


def test_grow_matches_a_per_conflict_build(small_posets):
    # dict.fromkeys is the listing's dedupe; iter keeps the repeated Ys, as
    # the bench's late and naive placements do.  Under the heuristic pivot
    # a step without successors only meets antichains, whose Ys never
    # repeat; the first pivot also meets them beside comparable events.
    for rows in small_posets:
        for heuristic in (True, False):
            steps = list(conflicts._chain(rows, heuristic, True))[::-1]  # last pivot first
            start = [(0,) * len(rows)]
            for unique in (dict.fromkeys, iter):
                expected = _grow_per_conflict(start, steps, rows, unique)
                assert conflicts._grow(start, steps, rows, unique) == expected, (rows, unique)


def test_a_step_builds_its_ys_once_per_distinct_base(small_posets, monkeypatch):
    calls = []
    images = conflicts._images

    def counted(base, rows):
        calls.append(base)
        return images(base, rows)

    monkeypatch.setattr(conflicts, "_images", counted)
    for rows in small_posets:
        confs = [(0,) * len(rows)]
        for step in list(conflicts._chain(rows, True, True))[::-1]:
            m, base_succ, s1 = step
            bases = set()
            for c in confs:
                base = s1
                for x in range(len(rows)):
                    if base_succ >> x & 1:
                        base &= c[x]
                if base:
                    bases.add(base)
            calls.clear()
            confs = conflicts._grow(confs, [step], rows)
            assert sorted(calls) == sorted(bases), (rows, step)
    # On the 6-event antichain, once per step but the first, which adds the
    # last pivot to no events: its base is empty.
    calls.clear()
    assert len(conflicts._conflicts_packed(small_posets[-1])) == 2 ** 15
    assert len(calls) == 5


def test_allowed_conflicts_keeps_no_memo(monkeypatch):
    grown = []
    grow = conflicts._grow

    def recorded(confs, steps, rows, *args):
        grown.append((confs, list(steps), rows))
        return grow(confs, steps, rows, *args)

    monkeypatch.setattr(conflicts, "_grow", recorded)
    before = dict(vars(conflicts))
    first = allowed_conflicts(V_POSET)
    assert len(grown) == 1  # the list of the events the first pivot leaves
    assert allowed_conflicts(V_POSET) == first
    assert grown[1] == grown[0]  # listed again, not looked up
    assert vars(conflicts) == before  # no module attribute made or rebound


def _unpacked_route(p, heuristic=True, immediate_only=True):
    """allowed_conflicts(p) through the packed list and a per-conflict unpacking."""
    rows, ids = conflicts._packed(p)
    table = conflicts._pair_table(ids)
    listed = packed_conflicts(rows, heuristic, immediate_only)
    return [conflicts._unpack_conflict(c, table) for c in listed]


def _extended_route(p, m, c, immediate_only=True):
    """generate_conflicts(p, m, c) through _grow and a per-conflict unpacking."""
    rows, ids = conflicts._packed(p)
    index = {x: i for i, x in enumerate(ids)}
    conf = [0] * len(rows)
    for x, y in c:
        conf[index[x]] |= 1 << index[y]
    k = index[m]
    succ = cover_rows(rows)[k] if immediate_only else rows[k] & ~(1 << k)
    step = (k, succ, ((1 << len(rows)) - 1) ^ 1 << k)
    table = conflicts._pair_table(ids)
    return [conflicts._unpack_conflict(e, table) for e in conflicts._grow([tuple(conf)], [step], rows)]


def _assert_lists_equal_the_packed_route(n):
    # the same conflicts in the same order as unpacking each packed one
    for p in enumerate_posets(n):
        variants = [(h, i) for h in (True, False) for i in (True, False)] if n <= 4 else [(True, True)]
        for heuristic, immediate_only in variants:
            pivot = "heuristic" if heuristic else "first"
            got = allowed_conflicts(p, pivot=pivot, immediate_only=immediate_only)
            assert got == _unpacked_route(p, heuristic, immediate_only), (p, pivot, immediate_only)
        if n > 4:
            continue
        for m in minimal_elements(p):
            for c in allowed_conflicts(remove_element(p, m)):
                for immediate_only in (True, False):
                    got = generate_conflicts(p, m, c, immediate_only=immediate_only)
                    assert got == _extended_route(p, m, c, immediate_only), (p, m, c)


def test_lists_equal_the_packed_route():
    for n in range(6):
        _assert_lists_equal_the_packed_route(n)


def test_pivot_never_conflicts_with_itself():
    for n in range(1, 4):
        for p in enumerate_posets(n):
            for m in minimal_elements(p):
                reduced = remove_element(p, m)
                for c in allowed_conflicts(reduced):
                    for extension in generate_conflicts(p, m, c):
                        assert (m, m) not in extension


def test_extension_step_agrees_with_recursion():
    # gluing generate_conflicts over the chosen pivot reproduces allowed_conflicts
    for n in range(1, 5):
        for p in enumerate_posets(n):
            m = choose_pivot(p).pivot
            reduced = remove_element(p, m)
            rebuilt = [
                ext
                for c in allowed_conflicts(reduced)
                for ext in generate_conflicts(p, m, c)
            ]
            assert rebuilt == allowed_conflicts(p)


def test_sparse_ids_are_supported():
    # sub-posets keep their original labels
    p = frozenset({(3, 3), (5, 5), (3, 5)})
    assert allowed_conflicts(p) == [frozenset()]
    q = frozenset({(2, 2), (4, 4)})
    assert set(allowed_conflicts(q)) == {frozenset(), frozenset({(2, 4), (4, 2)})}


def _relabel(p, ids):
    return frozenset((ids[x], ids[y]) for x, y in p)


def test_large_sparse_ids():
    # ids are compacted before packing, so a large id costs no more than a small one
    ids = [0, 10**5, 2 * 10**5, 3 * 10**5, 4 * 10**5]
    for p in (frozenset((i, i) for i in range(5)), frozenset({(0, 1), (0, 2), (3, 4)})):
        p = reflexive_transitive_closure(p, range(5))
        expected = [_relabel(c, ids) for c in allowed_conflicts(p)]
        assert allowed_conflicts(_relabel(p, ids)) == expected
        assert count_allowed_conflicts(_relabel(p, ids)) == len(expected)
        assert choose_pivot(_relabel(p, ids)).pivot == ids[choose_pivot(p).pivot]


def test_listed_conflicts_share_their_pairs():
    # the 6-event antichain on sparse ids: 32,768 conflicts over 30 distinct pairs
    ids = [3, 11, 17, 29, 42, 63]
    p = frozenset((x, x) for x in ids)
    rows, _ = conflicts._packed(p)
    listed = allowed_conflicts(p)
    assert listed == [rows_to_rel(c, ids) for c in conflicts._conflicts_packed(rows)]
    assert len({id(pair) for c in listed for pair in c}) <= 36
    # one extension step shares them too
    extended = generate_conflicts(p, 3, frozenset({(11, 17), (17, 11)}))
    assert len(extended) == 32
    assert len({id(pair) for c in extended for pair in c}) <= 36
    # and so does the whole stream of event structures
    stream = list(enumerate_event_structures(3))
    assert len({id(pair) for es in stream for pair in es.conflict}) <= 9


def _dag(draw, k):
    # a random DAG on the events 0..k-1, each edge from a lower index to a higher
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    return frozenset(e for b, e in enumerate(pairs) if chosen >> b & 1)


@st.composite
def sparse_posets(draw, id_range=st.integers(0, 10**6)):
    # a random DAG on k events, closed transitively, on shuffled ids drawn from id_range
    k = draw(st.integers(0, 4))
    edges = _dag(draw, k)
    ids = draw(st.sets(id_range, min_size=k, max_size=k))
    ids = draw(st.permutations(sorted(ids)))
    return _relabel(reflexive_transitive_closure(edges, range(k)), ids)


@settings(deadline=None, max_examples=60)
@given(sparse_posets())
def test_sparse_shuffled_ids_match_brute_force(p):
    listed = allowed_conflicts(p)
    assert set(listed) == brute_force_conflicts(p)
    assert set(allowed_conflicts(p, pivot="first")) == set(listed)
    rows, _ = conflicts._packed(p)
    assert count_allowed_conflicts(p) == conflicts._count_packed(rows) == len(listed)
    if p:
        assert choose_pivot(p).pivot in minimal_elements(p)


@settings(deadline=None, max_examples=60)
@given(sparse_posets(st.integers(0, 10**6) | st.integers(2**40, 2**64)), st.data())
def test_lists_on_sparse_ids_equal_the_packed_route(p, data):
    assert allowed_conflicts(p) == _unpacked_route(p)
    assert allowed_conflicts(p, pivot="first") == _unpacked_route(p, heuristic=False)
    if p:
        m = data.draw(st.sampled_from(sorted(minimal_elements(p))))
        c = data.draw(st.sampled_from(allowed_conflicts(remove_element(p, m))))
        assert generate_conflicts(p, m, c) == _extended_route(p, m, c)


def _sparse_ids(draw, k):
    # k distinct ids in shuffled order, some small and some above 2**40
    ids = draw(st.sets(st.integers(0, 10**6) | st.integers(2**40, 2**64), min_size=k, max_size=k))
    return draw(st.permutations(sorted(ids)))


@st.composite
def chain_unions(draw):
    """(lengths, a disjoint union of chains of those lengths), 12 events at most, on sparse ids."""
    # Not 20: the up-set count's cost depends on the order of the ids, and on
    # some orders lengths (7, 3, 1, 3, 2, 1) took 9.8 s and (3, 2, 3, 1, 2, 1)
    # 1.1 s.  Larger unions wait for a count that multiplies over the
    # components of the disjoint pairs.
    lengths, left = [], draw(st.integers(0, 12))
    while left:
        lengths.append(draw(st.integers(1, left)))
        left -= lengths[-1]
    ids = iter(_sparse_ids(draw, sum(lengths)))
    p = set()
    for length in lengths:
        chain = [next(ids) for _ in range(length)]
        p |= {(x, y) for i, x in enumerate(chain) for y in chain[i:]}
    return lengths, frozenset(p)


@settings(deadline=None, max_examples=40)
@given(chain_unions())
def test_chain_unions_count_lattice_paths(drawn):
    # The disjoint pairs of a union of chains of lengths l_1..l_k form one
    # l_i x l_j grid per i < j, and an a x b grid has C(a + b, a) up-sets.
    lengths, p = drawn
    assert count_allowed_conflicts(p) == prod(comb(a + b, a) for a, b in combinations(lengths, 2))


@st.composite
def ordinal_sums(draw):
    """(P + Q with all of P below all of Q, Q alone), up to 5 + 5 events, on sparse ids."""
    kp, kq = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    top = range(kp, kp + kq)
    q = frozenset((x + kp, y + kp) for x, y in _dag(draw, kq))
    below = {(x, y) for x in range(kp) for y in top}
    summed = reflexive_transitive_closure(_dag(draw, kp) | q | below, range(kp + kq))
    ids = _sparse_ids(draw, kp + kq)
    return _relabel(summed, ids), _relabel(reflexive_transitive_closure(q, top), ids)


@settings(deadline=None, max_examples=60)
@given(ordinal_sums())
def test_ordinal_sums_count_as_their_top(drawn):
    # Q nonempty: every pair that meets P has an upper bound in Q, so P + Q
    # has the disjoint pairs of Q alone
    summed, q = drawn
    assert count_allowed_conflicts(summed) == count_allowed_conflicts(q)


def test_count_reaches_posets_listing_cannot():
    # 50 events on sparse ids: 1,225 disjoint pairs in the antichain, none in the chain
    ids = [7919 * i + 3 for i in range(50)]
    antichain = frozenset((x, x) for x in ids)
    chain = frozenset((x, y) for i, x in enumerate(ids) for y in ids[i:])
    started = time.perf_counter()
    assert count_allowed_conflicts(antichain) == 2**1225
    assert count_allowed_conflicts(chain, pivot="first") == 1
    assert time.perf_counter() - started < 1.0


def test_wide_posets_keep_the_bit_memo_within_its_bound():
    # 50-bit row masks may evict memo entries but never grow the memo past its bound;
    # listing the antichain's 2**1225 conflicts could never finish, so only the chain is listed
    ids = [7919 * i + 3 for i in range(50)]
    antichain = frozenset((x, x) for x in ids)
    chain = frozenset((x, y) for i, x in enumerate(ids) for y in ids[i:])
    bits.cache_clear()
    for mask in range(1 << 8):  # fill the memo first
        bits(mask)
    assert count_allowed_conflicts(antichain) == 2**1225
    assert count_allowed_conflicts(chain) == 1
    assert allowed_conflicts(chain) == [frozenset()]
    info = bits.cache_info()
    assert info.misses > 1 << 8  # wide masks were looked up too
    assert info.currsize <= info.maxsize == 1 << 8
