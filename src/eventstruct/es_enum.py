"""Top-level enumeration and counting of event structures over {0..n-1}.

Event structures are produced lazily, one causality poset at a time, so
enumeration never holds more than one poset's conflicts in memory, and
counting never materializes structures at all.  Counting can fan out
across worker processes; enumeration stays sequential and deterministic
(posets in enumeration order, conflicts in extension order).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import conflicts, order_enum
from .relations import BoolMatrix, EventStructure, matrix_to_rel

ProgressFn = Callable[[int, "int | None"], None]
CountFn = Callable[[Sequence[int]], int]  # conflicts of one poset's rows

_BATCH_SIZE = 1024


class CountRow(NamedTuple):
    n: int
    preorders: int
    posets: int
    event_structures: int


@dataclass(frozen=True)
class CountTable:
    """Per-n counts, indexed by consecutive n starting at 0."""

    rows: tuple[CountRow, ...]


def enumerate_event_structures(n: int) -> Iterator[EventStructure]:
    """Yield every event structure over {0..n-1}, without repetition."""
    # One table for the whole stream: every poset's events are 0..n-1.
    table = conflicts._pair_table(range(n))
    for rows, packed in _by_poset(order_enum._poset_rows(n)):
        causality = matrix_to_rel(BoolMatrix(n, rows))
        # Unpacked one at a time as the stream is read: the 7-event
        # antichain alone has 2,097,152 conflicts.
        for conf in packed:
            yield EventStructure(causality, conflicts._unpack_conflict(conf, table))


def _by_poset(poset_rows: Iterable) -> Iterator[tuple[Sequence[int], list]]:
    """(rows, their packed conflicts) per poset matrix, in the order given."""
    for rows in poset_rows:
        yield rows, conflicts._conflicts_packed(rows)


def count_event_structures(
    n: int, *, workers: int = 1, progress: ProgressFn | None = None
) -> int:
    """Number of event structures over {0..n-1}.

    workers > 1 partitions the poset list across processes; the sum is
    exact and independent of scheduling.  No more workers start than
    os.cpu_count(), and for n <= 6 no more than there are batches of
    1,024 posets (one up to n = 4).  Workers ignore SIGINT, so Ctrl-C
    reaches only the calling process.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return _count(n, workers=workers, progress=progress)[0]


def count_event_structures_variant(
    n: int,
    *,
    dedupe: str = "final",
    pivot: str = "heuristic",
    progress: ProgressFn | None = None,
) -> int:
    """Sequential count by the paper's recursion, under a dedupe placement and pivot.

    All variants return the same number as count_event_structures; they
    differ only in how much duplicate work the recursion performs, which
    is what the bench command measures.
    """
    heuristic = conflicts._heuristic(pivot)
    count = partial(conflicts._count_variant, heuristic=heuristic, dedupe=dedupe)
    return _count(n, count=count, progress=progress)[0]


def counts_up_to(max_n: int) -> CountTable:
    """Preorder, poset and event-structure counts for every n in 0..max_n."""
    out = []
    for k in range(max_n + 1):
        structures, posets = _count(k)
        out.append(CountRow(k, order_enum.count_preorders(k), posets, structures))
    return CountTable(tuple(out))


def _count(
    n: int,
    *,
    workers: int = 1,
    count: CountFn | None = None,
    progress: ProgressFn | None = None,
) -> tuple[int, int]:
    """(event structures, posets) over {0..n-1}, counted batch by batch.

    count gives the conflicts of one poset's rows; None is the production
    conflicts._count_packed.  Cached orders are listed up front, which
    gives progress its total without a second pass; longer streams report
    a total of None.
    """
    batches: Iterable[list] = _batched(order_enum._poset_rows(n))
    total = None
    workers = min(workers, os.cpu_count() or 1)
    if n <= order_enum._CACHE_MAX_ORDER:
        batches = list(batches)
        total = sum(map(len, batches))
        workers = min(workers, len(batches))
    count_batch = partial(_count_batch, count=count)
    structures = posets = 0
    with (
        multiprocessing.Pool(workers, _ignore_sigint) if workers > 1 else nullcontext()
    ) as pool:
        mapper = map if pool is None else pool.imap_unordered
        for subtotal, size in mapper(count_batch, batches):
            structures += subtotal
            posets += size
            if progress is not None:
                progress(posets, total)
    return structures, posets


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _count_batch(batch: list, *, count: CountFn | None) -> tuple[int, int]:
    # Looked up per batch, in the process that counts it, so the module
    # attribute is the one that runs (the benchmark's traced run wraps it).
    if count is None:
        count = conflicts._count_packed
    return sum(map(count, batch)), len(batch)


def _batched(items: Iterable) -> Iterator[list]:
    batch = []
    for item in items:
        batch.append(item)
        if len(batch) == _BATCH_SIZE:
            yield batch
            batch = []
    if batch:
        yield batch
