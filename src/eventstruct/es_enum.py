"""Top-level enumeration and counting of event structures over {0..n-1}.

Event structures are produced lazily, one causality poset at a time.
Enumeration holds that poset's conflicts and a bounded memo, made for
its stream alone, of the conflict lists it last made for the posets a
first pivot leaves; counting never materializes structures at all.
Counting can fan out across worker processes; enumeration stays
sequential and deterministic (posets in enumeration order, conflicts in
extension order).
"""

from __future__ import annotations

import os
import signal
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import conflicts, order_enum
from .relations import BoolMatrix, EventStructure, cover_rows, matrix_to_rel

ProgressFn = Callable[[int, int], None]

_BATCH_SIZE = 1024  # order-(n-1) parents per batch
# Entries of an enumerate stream's memo of the conflict lists of the posets
# left by a first pivot.  Unbounded, it would hold all 25,386 of them at
# n = 6, where listing the stream then peaks at 46.1 MB RSS against 19.9 MB
# (in-process, one run each).
_SUB_LISTS = 1024


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
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    # One table for the whole stream: every poset's events are 0..n-1.
    table = conflicts._pair_table(range(n))
    for rows, _, packed in _by_poset(order_enum._poset_rows(n)):
        causality = matrix_to_rel(BoolMatrix(n, rows))
        # Unpacked one at a time as the stream is read: the 7-event
        # antichain alone has 2,097,152 conflicts.
        for conf in packed:
            yield EventStructure(causality, conflicts._unpack_conflict(conf, table))


def _by_poset(poset_rows: Iterable) -> Iterator[tuple[Sequence[int], list[int], list]]:
    """(rows, their cover rows, their packed conflicts) per poset matrix, in the order given.

    Each poset's conflicts extend those of the rows its first pivot
    leaves, which many posets of one stream share (see
    conflicts._conflicts_packed).  Those lists are memoized for the
    stream alone, the _SUB_LISTS made last.
    """
    sub_lists: dict = {}  # insertion order: oldest first
    for rows in poset_rows:
        covers = cover_rows(rows)
        confs = conflicts._conflicts_packed(rows, covers=covers, sub_lists=sub_lists)
        while len(sub_lists) > _SUB_LISTS:
            del sub_lists[next(iter(sub_lists))]
        yield rows, covers, confs


def count_event_structures(
    n: int, *, workers: int = 1, progress: ProgressFn | None = None
) -> int:
    """Number of event structures over {0..n-1}.

    workers > 1 splits the order-(n-1) preorders into batches of 1,024
    across processes, each extending its own batches; the sum is exact
    and independent of scheduling.  No more workers start than
    os.cpu_count() or than there are batches (one up to n = 5).  Workers
    ignore SIGINT, so Ctrl-C reaches only the calling process.  Raises
    ValueError, before any preorder is listed, unless n is an int >= 0
    and workers an int >= 1 (a bool is refused for either).
    """
    # type() is not isinstance(): bool is a subclass of int.
    if type(workers) is not int or workers < 1:
        raise ValueError("workers must be an int >= 1")
    return _count(n, workers=workers, progress=progress)[2]


def counts_up_to(max_n: int) -> CountTable:
    """Preorder, poset and event-structure counts for every n in 0..max_n.

    Raises ValueError unless max_n is an int >= 0 (a bool is refused).
    """
    if type(max_n) is not int or max_n < 0:
        raise ValueError("max_n must be an int >= 0")
    return CountTable(tuple(CountRow(k, *_count(k)) for k in range(max_n + 1)))


def _count(
    n: int, *, workers: int = 1, progress: ProgressFn | None = None
) -> tuple[int, int, int]:
    """(preorders, posets, event structures) over {0..n-1}, counted batch by batch.

    Every order-n preorder extends one order-(n-1) preorder, so the
    process that counts a batch of those parents extends it; progress
    sees (parents done, parents in total).
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    if n == 0:  # no parent order: the one poset () is counted directly
        return 1, 1, conflicts._count_packed(())
    parents = list(order_enum._rows_stream(n - 1))
    batches = [parents[i:i + _BATCH_SIZE] for i in range(0, len(parents), _BATCH_SIZE)]
    workers = min(workers, os.cpu_count() or 1, len(batches))
    preorders = posets = structures = done = 0
    context = nullcontext()
    if workers > 1:
        # Imported only for a pool: it is about a quarter of `import eventstruct`.
        import multiprocessing

        context = multiprocessing.Pool(workers, _ignore_sigint)
    with context as pool:
        mapper = map if pool is None else pool.imap_unordered
        batch_counts = mapper(partial(_count_batch, k=n - 1), batches)
        for batch_preorders, batch_posets, batch_structures, extended in batch_counts:
            preorders += batch_preorders
            posets += batch_posets
            structures += batch_structures
            done += extended
            if progress is not None:
                progress(done, len(parents))
    return preorders, posets, structures


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _count_batch(parents: list, *, k: int) -> tuple[int, int, int, int]:
    """(preorders, posets, event structures, parents) over the extensions of the order-k parents."""
    # Looked up per batch, in the process that counts it, so the module
    # attributes are the ones that run (the benchmark's traced run wraps them).
    count = conflicts._count_packed
    extend, antisymmetric = order_enum._extend_rows, order_enum._antisymmetric_rows
    preorders = posets = structures = 0
    for parent in parents:
        extended = extend(parent, k)
        children = list(filter(antisymmetric, extended))
        preorders += len(extended)
        posets += len(children)
        structures += sum(map(count, children))
    return preorders, posets, structures, len(parents)
