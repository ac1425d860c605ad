"""Recursive enumeration of all preorders and partial orders over {0..n-1}.

A preorder is represented by its adjacency matrix.  Every reflexive,
transitive (k+1)x(k+1) matrix decomposes uniquely into a reflexive
transitive k x k block A, a new last column alpha, and a new last row
beta, where alpha must be down-closed under A, beta up-closed under A,
and alpha(i) & beta(j) forces A(i, j) (transitivity through the new
point).  Extending every order-k matrix by every valid (alpha, beta)
pair therefore enumerates each order-(k+1) preorder exactly once, with
no duplicates by construction.

Internally matrices are tuples of per-row int bitmasks; levels up to
order 6 are cached so repeated count/enumerate calls share work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

from .relations import BoolMatrix, Rel, columns, matrix_to_rel

RowTuple = tuple[int, ...]

# Orders above this are streamed instead of cached (order 7 alone has
# ~9.5M matrices; materializing them costs GBs of RAM).
_CACHE_MAX_ORDER = 6

# Preorder levels by order, bounded by _CACHE_MAX_ORDER: through order 6
# they hold 216,859 row tuples, about 21 MB (tracemalloc, CPython 3.11).
# Built under the lock, so threads never append a level twice.
_levels: list[list[RowTuple]] = [[()]]
_levels_lock = threading.Lock()


@dataclass(frozen=True)
class ExtensionPair:
    """New last column (alpha) and new last row (beta) bordering a square matrix."""

    alpha: tuple[bool, ...]
    beta: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")


def _closed_masks(constraints: list[int], k: int) -> list[int]:
    """Masks m (ascending) such that every set bit b of m has constraints[b] <= m."""
    out = []
    for mask in range(1 << k):
        t = mask
        while t:
            low = t & -t
            if constraints[low.bit_length() - 1] & ~mask:
                break
            t ^= low
        else:
            out.append(mask)
    return out


def _extension_groups(rows: RowTuple, k: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (alpha mask, valid beta masks) groups, alphas and betas ascending.

    alpha ranges over column masks down-closed under the matrix, beta over
    row masks up-closed under it; a pair is valid when beta is contained in
    the intersection of the rows selected by alpha.
    """
    ups = _closed_masks(list(rows), k)
    full = (1 << k) - 1
    for alpha in _closed_masks(columns(rows), k):
        need = full
        t = alpha
        while t:
            low = t & -t
            need &= rows[low.bit_length() - 1]
            t ^= low
        yield alpha, [beta for beta in ups if not beta & ~need]


def _extend_rows(rows: RowTuple, k: int) -> list[RowTuple]:
    """All order-(k+1) reflexive transitive matrices whose top-left block is rows."""
    kbit = 1 << k
    out = []
    for alpha, betas in _extension_groups(rows, k):
        if not betas:
            continue
        stem = tuple(row | kbit if (alpha >> i) & 1 else row for i, row in enumerate(rows))
        for beta in betas:
            out.append(stem + (beta | kbit,))
    return out


def _level(n: int) -> list[RowTuple]:
    """Materialized (and cached) list of all order-n preorder row tuples."""
    with _levels_lock:
        while len(_levels) <= n:
            k = len(_levels) - 1
            _levels.append([ext for rows in _levels[k] for ext in _extend_rows(rows, k)])
        return _levels[n]


def _rows_stream(n: int) -> Iterator[RowTuple]:
    """Every order-n preorder row tuple: the one source of all streams."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= _CACHE_MAX_ORDER:
        yield from _level(n)
    else:
        for rows in _rows_stream(n - 1):
            yield from _extend_rows(rows, n - 1)


def _antisymmetric_rows(rows: RowTuple) -> bool:
    """No two events of the preorder rows are equivalent: all rows differ.

    Valid for preorder rows only: there, i and j are equivalent exactly
    when rows[i] == rows[j], so antisymmetry is one C-level set check.
    """
    return len(set(rows)) == len(rows)


def _poset_rows(n: int) -> Iterator[RowTuple]:
    """Reflexive poset matrices over {0..n-1}, in enumeration order."""
    return (rows for rows in _rows_stream(n) if _antisymmetric_rows(rows))


def _bools(mask: int, k: int) -> tuple[bool, ...]:
    return tuple(bool((mask >> i) & 1) for i in range(k))


def valid_extensions(a: BoolMatrix) -> list[ExtensionPair]:
    """Every (alpha, beta) whose bordered matrix stays reflexive and transitive.

    a must itself be reflexive and transitive, else ValueError.  Pairs
    come out in ascending (alpha, beta) bitmask order.
    """
    for i, row in enumerate(a.rows):
        reach = 0
        t = row
        while t:
            low = t & -t
            reach |= a.rows[low.bit_length() - 1]
            t ^= low
        if not row >> i & 1 or reach != row:
            raise ValueError("matrix is not a preorder (reflexive and transitive)")
    out = []
    for alpha, betas in _extension_groups(a.rows, a.order):
        alpha_bools = _bools(alpha, a.order)
        out.extend(ExtensionPair(alpha_bools, _bools(beta, a.order)) for beta in betas)
    return out


def enumerate_preorders(n: int) -> list[BoolMatrix]:
    """All reflexive transitive n x n boolean matrices, duplicate-free."""
    return [BoolMatrix(n, rows) for rows in _rows_stream(n)]


def enumerate_strict_preorders(n: int) -> list[BoolMatrix]:
    """The preorder matrices with every diagonal entry cleared."""
    return [
        BoolMatrix(n, tuple(row & ~(1 << i) for i, row in enumerate(rows)))
        for rows in _rows_stream(n)
    ]


def enumerate_strict_posets(n: int) -> list[BoolMatrix]:
    """Strict preorder matrices with no mutually-true off-diagonal pair."""
    return [
        BoolMatrix(n, tuple(row & ~(1 << i) for i, row in enumerate(rows)))
        for rows in _poset_rows(n)
    ]


def enumerate_posets(n: int) -> list[Rel]:
    """All partial orders over {0..n-1} (reflexive on the full carrier), as pair sets."""
    return [matrix_to_rel(BoolMatrix(n, rows)) for rows in _poset_rows(n)]


def count_preorders(n: int) -> int:
    return sum(1 for _ in _rows_stream(n))


def count_posets(n: int) -> int:
    return sum(1 for _ in _poset_rows(n))
