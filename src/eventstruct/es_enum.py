"""Top-level enumeration and counting of event structures over {0..n-1}.

Event structures are produced lazily, one causality poset at a time.
Enumeration holds that poset's conflicts and a bounded memo, made for
its stream alone, of the conflict lists of the posets most recently left
by a first pivot; counting never materializes structures at all.
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
CountFn = Callable[[Sequence[int]], int]  # conflicts of one poset's rows

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
    stream alone, the _SUB_LISTS most recently used.
    """
    sub_lists = _Recent(_SUB_LISTS)
    for rows in poset_rows:
        covers = cover_rows(rows)
        yield rows, covers, conflicts._conflicts_packed(rows, covers=covers, sub_lists=sub_lists)


class _Recent(dict):
    """A memo of the maxsize most recently used entries, by get and item assignment.

    get moves a found entry to the end; assigning a new key drops the
    first entry, the least recently used, once maxsize are held.  Values
    are never None, which get returns for a missing key.
    """

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize = maxsize

    def get(self, key):
        value = self.pop(key, None)
        if value is not None:
            dict.__setitem__(self, key, value)
        return value

    def __setitem__(self, key, value) -> None:
        if key not in self and len(self) >= self.maxsize:
            del self[next(iter(self))]
        dict.__setitem__(self, key, value)


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
    """Preorder, poset and event-structure counts for every n in 0..max_n.

    Raises ValueError unless max_n is an int >= 0 (a bool is refused).
    """
    if type(max_n) is not int or max_n < 0:
        raise ValueError("max_n must be an int >= 0")
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
    conflicts._count_packed.  Every order-n poset extends one order-(n-1)
    preorder, so the process that counts a batch of those parents extends
    it; progress sees (parents done, parents in total).
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    if n == 0:  # no parent order: the one poset () is counted directly
        return (count or conflicts._count_packed)(()), 1
    parents = list(order_enum._rows_stream(n - 1))
    batches = [parents[i:i + _BATCH_SIZE] for i in range(0, len(parents), _BATCH_SIZE)]
    workers = min(workers, os.cpu_count() or 1, len(batches))
    count_batch = partial(_count_batch, k=n - 1, count=count)
    structures = posets = done = 0
    context = nullcontext()
    if workers > 1:
        # Imported only for a pool: it is about a quarter of `import eventstruct`.
        import multiprocessing

        context = multiprocessing.Pool(workers, _ignore_sigint)
    with context as pool:
        mapper = map if pool is None else pool.imap_unordered
        for subtotal, size, extended in mapper(count_batch, batches):
            structures += subtotal
            posets += size
            done += extended
            if progress is not None:
                progress(done, len(parents))
    return structures, posets


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _count_batch(parents: list, *, k: int, count: CountFn | None) -> tuple[int, int, int]:
    """(event structures, posets, parents) over the posets that extend the order-k parents."""
    # Looked up per batch, in the process that counts it, so the module
    # attributes are the ones that run (the benchmark's traced run wraps them).
    if count is None:
        count = conflicts._count_packed
    extend, antisymmetric = order_enum._extend_rows, order_enum._antisymmetric_rows
    structures = posets = 0
    for parent in parents:
        children = list(filter(antisymmetric, extend(parent, k)))
        structures += sum(map(count, children))
        posets += len(children)
    return structures, posets, len(parents)
