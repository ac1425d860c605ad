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
from contextlib import nullcontext
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import conflicts, order_enum
from .relations import BoolMatrix, EventStructure, _Record, cover_rows, matrix_to_rel

ProgressFn = Callable[[int, int], None]

_BATCH_SIZE = 1024  # order-(n-1) parents per pool chunk and per progress line


class CountRow(NamedTuple):
    n: int
    preorders: int
    posets: int
    event_structures: int


class CountTable(_Record):
    """Per-n counts, indexed by consecutive n starting at 0."""

    __slots__ = __match_args__ = ("rows",)
    rows: tuple[CountRow, ...]

    def __init__(self, rows: tuple[CountRow, ...]) -> None:
        object.__setattr__(self, "rows", rows)


def enumerate_event_structures(n: int) -> Iterator[EventStructure]:
    """Every event structure over {0..n-1} once, as a lazy stream; n is checked at the call."""
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    return _structures(n)


def _structures(n: int) -> Iterator[EventStructure]:
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
    stream alone, in one dict that _conflicts_packed keeps within
    conflicts._SUB_LISTS entries.
    """
    sub_lists: dict = {}
    for rows in poset_rows:
        covers = cover_rows(rows)
        yield rows, covers, conflicts._conflicts_packed(rows, covers=covers, sub_lists=sub_lists)


def count_event_structures(
    n: int, *, workers: int = 1, progress: ProgressFn | None = None
) -> int:
    """Number of event structures over {0..n-1}.

    workers > 1 counts on a process pool that takes the order-(n-1)
    preorders in chunks of 1,024; the sum is exact and independent of
    scheduling.  No more workers start than the CPUs this process may
    use or than there are chunks (one up to n = 5).  Workers ignore
    SIGINT, so Ctrl-C reaches only the calling process.  progress sees
    (parents done, parents in total) per 1,024 parents and at the end.
    Raises ValueError, before any preorder is listed, unless n is an int
    >= 0 and workers an int >= 1 (a bool is refused for either).
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
    """(preorders, posets, event structures) over {0..n-1}, counted parent by parent.

    Every order-n preorder extends one order-(n-1) preorder, so the
    process that counts a parent extends it; a pool takes the parents in
    chunks of _BATCH_SIZE.  progress sees (parents done, parents in
    total) at each multiple of _BATCH_SIZE and at the total, whatever
    order the chunks finish in.
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    if n == 0:  # no parent order: the one poset () is counted directly
        return 1, 1, conflicts._count_packed(())
    parents = list(order_enum._rows_stream(n - 1))
    workers = min(workers, _cores(), -(-len(parents) // _BATCH_SIZE))
    preorders = posets = structures = 0
    context = nullcontext()
    if workers > 1:
        # Imported only for a pool: multiprocessing adds about two thirds to `import eventstruct`.
        import multiprocessing
        import signal

        context = multiprocessing.Pool(workers, signal.signal, (signal.SIGINT, signal.SIG_IGN))
    with context as pool:
        mapper = map if pool is None else partial(pool.imap_unordered, chunksize=_BATCH_SIZE)
        counts = mapper(partial(_count_parent, k=n - 1), parents)
        for done, (parent_preorders, parent_posets, parent_structures) in enumerate(counts, 1):
            preorders += parent_preorders
            posets += parent_posets
            structures += parent_structures
            if progress is not None and (done % _BATCH_SIZE == 0 or done == len(parents)):
                progress(done, len(parents))
    return preorders, posets, structures


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_parent(parent: Sequence[int], *, k: int) -> tuple[int, int, int]:
    """(preorders, posets, event structures) over the extensions of the order-k preorder parent."""
    # Looked up in the process that counts the parent, so the module
    # attributes are the ones that run (the benchmark's traced run wraps them).
    extended = order_enum._extend_rows(parent, k)
    children = list(filter(order_enum._antisymmetric_rows, extended))
    # Relabeled once per new column, not once per poset: 46,922 sorts and
    # table lookups for the 130,023 posets on 6 events.
    keys = conflicts._relabeled_children(k, children)
    structures = sum([conflicts._count_packed(c, key) for c, key in zip(children, keys)])
    return len(extended), len(children), structures
