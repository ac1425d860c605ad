"""Top-level enumeration and counting of event structures over {0..n-1}.

Event structures are produced lazily, one causality poset at a time, so
enumeration never holds more than one poset's conflicts in memory, and
counting never materializes structures at all.  Counting can fan out
across worker processes; enumeration stays sequential and deterministic
(posets in enumeration order, conflicts in extension order).
"""

from __future__ import annotations

import multiprocessing
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

from . import conflicts, order_enum
from .relations import BoolMatrix, EventStructure, matrix_to_rel

ProgressFn = Callable[[int, "int | None"], None]

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
    ids = tuple(range(n))
    for rows in order_enum._poset_rows(n):
        causality = matrix_to_rel(BoolMatrix(n, rows))
        for conf in conflicts._conflicts_packed(rows):
            yield EventStructure(causality, conflicts._unpack_conflict(conf, ids))


def count_event_structures(
    n: int, *, workers: int = 1, progress: ProgressFn | None = None
) -> int:
    """Number of event structures over {0..n-1}.

    workers > 1 partitions the poset list across processes; the sum is
    exact and independent of scheduling.  For n <= 6 no more workers
    start than there are batches of 1,024 posets (one up to n = 4).
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
    """Sequential count under a chosen dedupe placement and pivot strategy.

    All variants return the same number; they differ only in how much
    duplicate work the recursion performs, which is what the bench
    command measures.
    """
    heuristic = conflicts._heuristic(pivot)
    return _count(n, heuristic=heuristic, dedupe=dedupe, progress=progress)[0]


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
    heuristic: bool = True,
    dedupe: str = "final",
    progress: ProgressFn | None = None,
) -> tuple[int, int]:
    """(event structures, posets) over {0..n-1}, counted batch by batch.

    Cached orders are listed up front, which gives progress its total
    without a second pass; longer streams report a total of None.
    """
    batches: Iterable[list] = _batched(order_enum._poset_rows(n))
    total = None
    if n <= order_enum._CACHE_MAX_ORDER:
        batches = list(batches)
        total = sum(map(len, batches))
        workers = min(workers, len(batches))
    count_batch = partial(_count_batch, heuristic=heuristic, dedupe=dedupe)
    structures = posets = 0
    with multiprocessing.Pool(workers) if workers > 1 else nullcontext() as pool:
        mapper = map if pool is None else pool.imap_unordered
        for subtotal, size in mapper(count_batch, batches):
            structures += subtotal
            posets += size
            if progress is not None:
                progress(posets, total)
    return structures, posets


def _count_batch(batch: list, *, heuristic: bool, dedupe: str) -> tuple[int, int]:
    count = partial(conflicts._count_packed, heuristic=heuristic, dedupe=dedupe)
    return sum(map(count, batch)), len(batch)


def _batched(items: Iterable, size: int = _BATCH_SIZE) -> Iterator[list]:
    batch = []
    for item in items:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch
