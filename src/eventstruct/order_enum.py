"""Recursive enumeration of all preorders and partial orders over {0..n-1}.

A preorder is represented by its adjacency matrix.  Every reflexive,
transitive (k+1)x(k+1) matrix decomposes uniquely into a reflexive
transitive k x k block A, a new last column alpha, and a new last row
beta, where alpha must be down-closed under A, beta up-closed under A,
and alpha(i) & beta(j) forces A(i, j) (transitivity through the new
point).  Extending every order-k matrix by every valid (alpha, beta)
pair therefore enumerates each order-(k+1) preorder exactly once, with
no duplicates by construction.

Internally matrices are tuples of per-row int bitmasks.  Every stream
is built afresh, one parent at a time: the module keeps no level between
calls.
"""

from __future__ import annotations

from typing import Iterator

from .relations import (
    BoolMatrix, Rel, _Record, bits, columns, is_reflexive_on, is_transitive, matrix_to_rel,
)

RowTuple = tuple[int, ...]


class ExtensionPair(_Record):
    """New last column (alpha) and new last row (beta) bordering a square matrix."""

    __slots__ = __match_args__ = ("alpha", "beta")
    alpha: tuple[bool, ...]
    beta: tuple[bool, ...]

    def __init__(self, alpha: tuple[bool, ...], beta: tuple[bool, ...]) -> None:
        if len(alpha) != len(beta):
            raise ValueError("alpha and beta must have the same length")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def _closed_masks(generators) -> list[int]:
    """Every union of the generators, 0 included, ascending.

    A preorder's up-sets are the unions of its rows, its down-sets those of its columns.
    """
    out = {0}
    for g in generators:
        out |= {u | g for u in out}
    return sorted(out)


def _extend_rows(rows: RowTuple, k: int) -> list[RowTuple]:
    """All order-(k+1) reflexive transitive matrices whose top-left block is rows.

    Ascending down-sets alpha (the new column) and, per alpha, the ascending
    up-sets beta (the new row) within need, the meet of the rows alpha selects.
    """
    kbit = 1 << k
    ups = _closed_masks(rows)
    out = []
    for alpha in _closed_masks(columns(rows)):
        stem = list(rows)
        need = kbit - 1
        for i in bits(alpha):
            stem[i] |= kbit
            need &= rows[i]
        stem = tuple(stem)
        out += [stem + (beta | kbit,) for beta in ups if not beta & ~need]
    return out


def _rows_stream(n: int) -> Iterator[RowTuple]:
    """Every order-n preorder row tuple: the one source of all streams.

    Each order-n matrix extends exactly one order-(n-1) matrix, so the
    stream extends its parents as they come and holds one list of
    children per order.
    """
    if type(n) is not int or n < 0:  # type(): bool is a subclass of int
        raise ValueError("n must be an int >= 0")
    if n == 0:
        yield ()
        return
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


def _strict(rows: RowTuple) -> BoolMatrix:
    """The matrix of rows with every diagonal entry cleared."""
    return BoolMatrix(len(rows), tuple(row & ~(1 << i) for i, row in enumerate(rows)))


def _bools(mask: int, k: int) -> tuple[bool, ...]:
    return tuple(bool((mask >> i) & 1) for i in range(k))


def valid_extensions(a: BoolMatrix) -> list[ExtensionPair]:
    """Every (alpha, beta) whose bordered matrix stays reflexive and transitive.

    a must itself be reflexive and transitive, else ValueError.  Pairs
    come out in ascending (alpha, beta) bitmask order.
    """
    r = matrix_to_rel(a)
    if not (is_reflexive_on(r, range(a.order)) and is_transitive(r)):
        raise ValueError("matrix is not a preorder (reflexive and transitive)")
    k = a.order
    # alpha is column k of each bordered matrix and beta its row k, both
    # without the diagonal bit k, which _bools drops.
    return [
        ExtensionPair(_bools(columns(ext)[k], k), _bools(ext[k], k))
        for ext in _extend_rows(a.rows, k)
    ]


def enumerate_preorders(n: int) -> list[BoolMatrix]:
    """All reflexive transitive n x n boolean matrices, duplicate-free."""
    return [BoolMatrix(n, rows) for rows in _rows_stream(n)]


def enumerate_strict_preorders(n: int) -> list[BoolMatrix]:
    """The preorder matrices with every diagonal entry cleared."""
    return [_strict(rows) for rows in _rows_stream(n)]


def enumerate_strict_posets(n: int) -> list[BoolMatrix]:
    """Strict preorder matrices with no mutually-true off-diagonal pair."""
    return [_strict(rows) for rows in _poset_rows(n)]


def enumerate_posets(n: int) -> list[Rel]:
    """All partial orders over {0..n-1} (reflexive on the full carrier), as pair sets."""
    return [matrix_to_rel(BoolMatrix(n, rows)) for rows in _poset_rows(n)]


def count_preorders(n: int) -> int:
    return sum(1 for _ in _rows_stream(n))


def count_posets(n: int) -> int:
    return sum(1 for _ in _poset_rows(n))
