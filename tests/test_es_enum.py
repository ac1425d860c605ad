import pytest

from eventstruct import es_enum, order_enum
from eventstruct.es_enum import (
    CountRow,
    count_event_structures,
    count_event_structures_variant,
    counts_up_to,
    enumerate_event_structures,
)
from eventstruct.oracle import brute_force_event_structures
from eventstruct.relations import EventStructure

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


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        count_event_structures(2, workers=0)


def test_variants_agree():
    for dedupe in ("naive", "late", "final"):
        for pivot in ("first", "heuristic"):
            assert count_event_structures_variant(4, dedupe=dedupe, pivot=pivot) == 916
    with pytest.raises(ValueError):
        count_event_structures_variant(2, dedupe="bogus")
    with pytest.raises(ValueError):
        count_event_structures_variant(2, pivot="bogus")


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


def test_progress_callback_sees_all_posets():
    seen = []
    count_event_structures(4, progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (219, 219)


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
    assert seen[-1] == (4231, 4231)


def test_no_pool_for_a_single_batch(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(es_enum.multiprocessing, "Pool", no_pool)
    assert count_event_structures(4, workers=4) == 916


def test_streamed_orders_count_without_a_total(monkeypatch):
    # beyond the cache ceiling the posets are streamed, so progress has no total
    monkeypatch.setattr(order_enum, "_CACHE_MAX_ORDER", 3)
    seen = []
    assert count_event_structures(4, workers=2, progress=lambda *args: seen.append(args)) == 916
    assert seen == [(219, None)]
