"""Output checks for the benchmark, run outside every timed region.

Counts are compared with the paper's table.  Enumerated output is parsed
back from each format and checked for duplicates.  The jsonl records
are validated one by one with ``eventstruct.relations.is_event_structure``;
every other format must hold the same set of structures as the jsonl
output, and the ``--canonical`` output must be that set in sorted order.
"""

from __future__ import annotations

import hashlib
import json
import re

# The paper's event-structure counts (OEIS A284276), n = 0..7.
ES_COUNTS = (1, 1, 4, 41, 916, 41099, 3528258, 561658287)

Pairs = tuple[tuple[int, int], ...]
Record = tuple[Pairs, Pairs]

_PAIR = re.compile(r"\((\d+),(\d+)\)")
_ARC = re.compile(r"^  (\d+) -> (\d+);$")
_CONFLICT = re.compile(r"^  (\d+) -> (\d+) \[style=dashed, dir=none\];$")


def check_count(stdout: str, expected: int) -> str | None:
    """None when the CLI printed exactly the expected count, else the reason."""
    got = stdout.strip()
    if got != str(expected):
        return f"count {got!r} != expected {expected}"
    return None


def parse_jsonl(text: str, n: int) -> list[Record]:
    records = []
    for line in text.splitlines():
        obj = json.loads(line)
        if obj["n"] != n:
            raise ValueError(f"record has n={obj['n']}, expected {n}")
        records.append(
            (
                tuple(tuple(pair) for pair in obj["causality"]),
                tuple(tuple(pair) for pair in obj["conflict"]),
            )
        )
    return records


def parse_pairs(text: str) -> list[Record]:
    records = []
    for line in text.splitlines():
        causality, sep, conflict = line.partition("}, {")
        if not sep:
            raise ValueError(f"malformed pairs line {line[:80]!r}")
        records.append(
            (
                tuple((int(x), int(y)) for x, y in _PAIR.findall(causality)),
                tuple((int(x), int(y)) for x, y in _PAIR.findall(conflict)),
            )
        )
    return records


def parse_dot(text: str, n: int) -> list[Record]:
    """Rebuild each structure from its digraph.

    Solid arcs are the covering relation, so causality is their
    reflexive-transitive closure over {0..n-1}; dashed edges are one
    orientation of each conflicting pair.
    """
    records = []
    cover: list[int] = []
    conflict: set[tuple[int, int]] = set()
    for line in text.splitlines():
        if line.startswith("digraph "):
            cover = [1 << i for i in range(n)]
            conflict = set()
        elif line == "}":
            records.append((_closure_pairs(cover, n), tuple(sorted(conflict))))
        elif m := _CONFLICT.match(line):
            x, y = int(m[1]), int(m[2])
            conflict |= {(x, y), (y, x)}
        elif m := _ARC.match(line):
            cover[int(m[1])] |= 1 << int(m[2])
    return records


def _closure_pairs(rows: list[int], n: int) -> Pairs:
    rows = list(rows)
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return tuple((i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1)


class EnumerationGate:
    """Checks the files written by ``enumerate es`` in every output format.

    A file whose bytes were already verified for the same format is
    accepted from its digest, so repeated cycles cost a hash, not a parse.
    """

    def __init__(self, n: int, expected: int):
        from eventstruct.relations import is_event_structure

        self._is_event_structure = is_event_structure
        self.n = n
        self.expected = expected
        self.reference: set[Record] | None = None  # the jsonl records
        self._verified: dict[tuple[str, bool], str] = {}

    def check(self, fmt: str, canonical: bool, data: bytes) -> str | None:
        """None when the output is correct, else the reason it is not."""
        digest = hashlib.sha256(data).hexdigest()
        if self._verified.get((fmt, canonical)) == digest:
            return None
        text = data.decode("utf-8")
        try:
            if fmt == "jsonl":
                records = parse_jsonl(text, self.n)
            elif fmt == "pairs":
                records = parse_pairs(text)
            else:
                records = parse_dot(text, self.n)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{fmt}: unparsable output ({exc})"
        error = self._check_records(fmt, canonical, records)
        if error is None:
            self._verified[(fmt, canonical)] = digest
        return error

    def _check_records(self, fmt: str, canonical: bool, records: list[Record]) -> str | None:
        if len(records) != self.expected:
            return f"{fmt}: {len(records)} records != expected {self.expected}"
        distinct = set(records)
        if len(distinct) != len(records):
            return f"{fmt}: {len(records) - len(distinct)} duplicate records"
        if canonical and records != sorted(records):
            return f"{fmt} --canonical: records are not in sorted order"
        reference = fmt == "jsonl" and not canonical
        # Any other format must equal the validated reference, which implies validity.
        if reference or self.reference is None:
            invalid = sum(1 for record in distinct if not self._valid(record))
            if invalid:
                return f"{fmt}: {invalid} records are not event structures over {self.n} events"
        if reference:
            self.reference = distinct
        elif self.reference is not None and distinct != self.reference:
            return f"{fmt}: records differ from the jsonl output"
        return None

    def _valid(self, record: Record) -> bool:
        causality, conflict = record
        carrier = {e for pair in causality for e in pair} == set(range(self.n))
        return carrier and self._is_event_structure(frozenset(causality), frozenset(conflict))
