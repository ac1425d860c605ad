import multiprocessing
import signal
import sys

import pytest

from eventstruct import conflicts, es_enum, order_enum
from eventstruct.es_enum import (
    CountRow,
    count_event_structures,
    counts_up_to,
    enumerate_event_structures,
)
from eventstruct.oracle import brute_force_event_structures
from eventstruct.relations import EventStructure, bits, cover_rows, rows_to_rel
from spec import packed_conflicts

GOLDEN_TWO = {
    EventStructure({(0, 0), (0, 1), (1, 1)}, frozenset()),
    EventStructure({(0, 0), (1, 0), (1, 1)}, frozenset()),
    EventStructure({(0, 0), (1, 1)}, frozenset()),
    EventStructure({(0, 0), (1, 1)}, {(0, 1), (1, 0)}),
}


def test_two_events_golden_listing():
    assert set(enumerate_event_structures(2)) == GOLDEN_TWO


def test_zero_and_one_events():
    assert list(enumerate_event_structures(0)) == [
        EventStructure(frozenset(), frozenset())
    ]
    assert list(enumerate_event_structures(1)) == [
        EventStructure(frozenset({(0, 0)}), frozenset())
    ]


def test_enumeration_is_a_lazy_stream():
    stream = enumerate_event_structures(3)
    assert iter(stream) is stream
    assert next(stream) is not None


def test_matches_brute_force():
    for n in range(4):
        assert set(enumerate_event_structures(n)) == brute_force_event_structures(n)


def test_order_is_posets_then_conflicts():
    from eventstruct.conflicts import allowed_conflicts
    from eventstruct.order_enum import enumerate_posets

    streamed = [(es.causality, es.conflict) for es in enumerate_event_structures(3)]
    composed = [(p, c) for p in enumerate_posets(3) for c in allowed_conflicts(p)]
    assert streamed == composed


class _Bounded(dict):
    # a memo that fails if a store would take it past conflicts._SUB_LISTS
    def __setitem__(self, key, value):
        assert len(self) < conflicts._SUB_LISTS
        super().__setitem__(key, value)


def _memoized(posets):
    # the memo protocol of _by_poset
    memo = _Bounded()
    return [conflicts._conflicts_packed(rows, sub_lists=memo) for rows in posets]


def test_memoized_lists_equal_the_per_poset_lists(monkeypatch):
    # In stream order and in --canonical order, with a memo of one entry
    # (an eviction on every new sub-poset) and the default.
    default = conflicts._SUB_LISTS
    for n in range(6):
        stream = list(order_enum._poset_rows(n))
        canonical = sorted(stream, key=lambda rows: sorted(rows_to_rel(rows, range(n))))
        for posets in (stream, canonical):
            alone = list(map(packed_conflicts, posets))
            for size in (1, default):
                monkeypatch.setattr(conflicts, "_SUB_LISTS", size)
                assert _memoized(posets) == alone, (n, size)
                streamed = list(es_enum._by_poset(posets))
                assert [r for r, _, _ in streamed] == posets
                assert [c for _, c, _ in streamed] == list(map(cover_rows, posets))
                assert [confs for _, _, confs in streamed] == alone


def test_memo_evicts_the_oldest_first(monkeypatch):
    # On 3 events: the antichain, the chain 0 < 1 < 2, and 1 < 2 beside 0
    # leave these subs after their first pivots (0, 0 and 1).
    antichain, chain, beside = (1, 2, 4), (7, 6, 4), (1, 6, 4)
    subs = {antichain: (0, 2, 4), chain: (0, 6, 4), beside: (1, 0, 4)}
    memos = []
    listed = conflicts._conflicts_packed

    def recorded(rows, **kwargs):
        memos.append(kwargs["sub_lists"])
        return listed(rows, **kwargs)

    monkeypatch.setattr(conflicts, "_conflicts_packed", recorded)
    monkeypatch.setattr(conflicts, "_SUB_LISTS", 2)
    held, values = [], []
    posets = [antichain, chain, antichain, beside, chain, antichain]
    for rows, _, confs in es_enum._by_poset(posets):
        assert confs == listed(rows)
        held.append(list(memos[-1]))
        values.append(memos[-1][subs[rows]])
    assert held == [
        [subs[antichain]],
        [subs[antichain], subs[chain]],
        [subs[antichain], subs[chain]],  # a hit leaves the order as it is
        [subs[chain], subs[beside]],  # the antichain's, the oldest, is gone, though just used
        [subs[chain], subs[beside]],
        [subs[beside], subs[antichain]],
    ]
    assert values[2] is values[0]  # the antichain's sub was found, not listed again
    assert values[4] is values[1]  # so was the chain's, which outlived it
    assert values[5] is not values[0]  # the antichain's was listed again after its eviction


def test_each_stream_has_its_own_memo(monkeypatch):
    memos = []
    listed = conflicts._conflicts_packed

    def recorded(rows, **kwargs):
        memos.append(kwargs["sub_lists"])
        return listed(rows, **kwargs)

    monkeypatch.setattr(conflicts, "_conflicts_packed", recorded)
    first, second = enumerate_event_structures(3), enumerate_event_structures(3)
    assert next(first) == next(second)
    assert memos[0] is not memos[1]
    assert list(first) == list(second)
    assert {id(memo) for memo in memos} == {id(memos[0]), id(memos[1])}
    # Nothing else holds a memo once its stream is done: each has the
    # reference count of a dict that only this test holds.
    held = [memos[0], memos[1], {}]
    memos.clear()
    counts = [sys.getrefcount(memo) for memo in held]
    assert counts[0] == counts[1] == counts[2]


def _assert_listings_certified(n):
    # Each listed conflict is allowed, no two are equal, and there are as
    # many as the up-set count: so each list is exactly the allowed
    # conflicts.  The rows are read through relations.bits alone, sharing
    # no code with conflicts._grow or _count_upsets.
    for rows, _, confs in es_enum._by_poset(order_enum._poset_rows(n)):
        assert len(set(confs)) == len(confs) == conflicts._count_packed(rows)
        for conf in confs:
            assert len(conf) == len(rows)
            for a, row in enumerate(conf):
                assert a not in bits(row)  # irreflexive
                for b in bits(row):
                    assert a in bits(conf[b])  # symmetric
                    assert rows[a] & rows[b] == 0  # disjoint: no common upper bound
                    assert not bits(rows[b] & ~row)  # inherited by all above b


def test_every_listing_at_five_is_certified():
    _assert_listings_certified(5)


@pytest.mark.slow
def test_every_listing_at_six_is_certified():
    # the 130,023 posets on 6 events, 3,528,258 conflicts in all
    _assert_listings_certified(6)


def test_counts():
    assert [count_event_structures(n) for n in range(6)] == [1, 1, 4, 41, 916, 41099]


def test_no_duplicates_end_to_end():
    for n in range(5):
        structures = list(enumerate_event_structures(n))
        assert len(set(structures)) == len(structures) == count_event_structures(n)


def test_every_emitted_structure_is_valid():
    for n in range(5):
        assert all(es.is_valid() for es in enumerate_event_structures(n))


def test_parallel_count_agrees_with_sequential():
    for n in (0, 3, 4):
        assert count_event_structures(n, workers=2) == count_event_structures(n)


def test_workers_must_be_positive(monkeypatch):
    with pytest.raises(ValueError):
        count_event_structures(2, workers=0)
    # refused before any preorder is listed, bool included
    monkeypatch.setattr(order_enum, "_rows_stream", None)
    for workers in (1.5, "2", True):
        with pytest.raises(ValueError, match="workers must be an int >= 1"):
            count_event_structures(5, workers=workers)


def test_counts_up_to():
    assert counts_up_to(2).rows == (
        CountRow(0, 1, 1, 1),
        CountRow(1, 1, 1, 1),
        CountRow(2, 4, 3, 4),
    )
    assert counts_up_to(0).rows == (CountRow(0, 1, 1, 1),)
    table = counts_up_to(4)
    assert table.rows[4] == (4, 355, 219, 916)
    assert [row.n for row in table.rows] == list(range(5))
    assert all(min(row[1:]) >= 1 for row in table.rows)
    for max_n in (-1, 2.5, "3", True):
        with pytest.raises(ValueError, match="max_n must be an int >= 0"):
            counts_up_to(max_n)


def test_counts_up_to_extends_each_preorder_once(monkeypatch):
    # the preorder counts come from the pass that counts the posets
    def streamed_again(n):
        raise AssertionError("the preorders were streamed a second time")

    monkeypatch.setattr(order_enum, "count_preorders", streamed_again)
    rows = counts_up_to(5).rows
    assert [row.preorders for row in rows] == [1, 1, 4, 29, 355, 6942]
    assert rows[5] == (5, 6942, 4231, 41099)


def test_progress_callback_sees_all_parents():
    # progress counts the order-3 preorders that the order-4 posets extend
    seen = []
    count_event_structures(4, progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (29, 29)


def test_progress_total_costs_no_second_filter_pass(monkeypatch):
    calls = 0
    antisymmetric = order_enum._antisymmetric_rows

    def counted(rows):
        nonlocal calls
        calls += 1
        return antisymmetric(rows)

    monkeypatch.setattr(order_enum, "_antisymmetric_rows", counted)
    seen = []
    assert count_event_structures(5, progress=lambda *args: seen.append(args)) == 41099
    assert calls == 6942  # one filter call per preorder over 5 events
    assert seen[-1] == (355, 355)


def test_no_pool_for_a_single_batch(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert count_event_structures(4, workers=4) == 916


def _fake_pool(pools, finishing=list):
    """A multiprocessing.Pool stand-in that runs its chunks in this process.

    Each pool made is appended to pools; the chunks finish in the order
    finishing(chunks) gives.
    """

    class FakePool:
        def __init__(self, processes, initializer=None, initargs=()):
            self.processes, self.initializer, self.initargs = processes, initializer, initargs
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items, chunksize=1):
            self.items, self.chunksize = list(items), chunksize
            chunks = [self.items[i:i + chunksize] for i in range(0, len(self.items), chunksize)]
            return (fn(item) for chunk in finishing(chunks) for item in chunk)

    return FakePool


def test_workers_are_capped_at_the_cores(monkeypatch):
    # chunks of 4 parents give 8 chunks at n = 4, so only the core cap
    # keeps a huge request from starting that many
    pools = []
    monkeypatch.setattr(es_enum, "_BATCH_SIZE", 4)
    monkeypatch.setattr(es_enum, "_cores", lambda: 3)
    monkeypatch.setattr(multiprocessing, "Pool", _fake_pool(pools))
    assert count_event_structures(4, workers=10**6) == 916
    [pool] = pools
    assert pool.processes == 3
    # the workers get the order-3 preorders as parents, not the posets, 4 to a chunk
    assert pool.chunksize == es_enum._BATCH_SIZE == 4
    assert pool.items == list(order_enum._rows_stream(3))
    # workers ignore Ctrl-C; only the parent reports it
    assert pool.initializer is signal.signal
    assert pool.initargs == (signal.SIGINT, signal.SIG_IGN)
    handler = signal.getsignal(signal.SIGINT)
    try:
        pool.initializer(*pool.initargs)
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, handler)


def test_pool_progress_is_per_chunk_in_any_finishing_order(monkeypatch):
    # the last chunk, of one parent, finishes first; progress still comes
    # at each multiple of the chunk size and then at the total
    pools, seen = [], []
    monkeypatch.setattr(es_enum, "_BATCH_SIZE", 4)
    monkeypatch.setattr(es_enum, "_cores", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", _fake_pool(pools, lambda chunks: chunks[::-1]))
    assert count_event_structures(4, workers=2, progress=lambda *args: seen.append(args)) == 916
    assert len(pools) == 1
    assert seen == [(done, 29) for done in range(4, 29, 4)] + [(29, 29)]
