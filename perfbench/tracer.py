"""In-memory span tracer for the benchmark's traced run.

Spans are recorded at the module attributes through which one eventstruct
layer calls the next (see ``install``).  The package itself is not
edited, and nothing is wrapped unless ``install`` runs, so untraced runs
execute the package unchanged.

Boundaries crossed once per operation keep one span per call: name,
start, end, parent span and operation id.  Boundaries crossed once per
item (up to 9.5 million times at n = 7) are folded, per parent span, into
a call count, summed duration and summed child time, which keeps the
trace small.  A name's self time is its duration minus the time of the
calls nested in it.

Run as a script, it traces one CLI invocation and writes the trace as
JSON when the invocation ends:

    python3 perfbench/tracer.py TRACE_JSON OP_ID -- count es --n 6 --workers 1
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array

perf_counter = time.perf_counter


def percentile(values, q: float) -> float:
    """Percentile (q in 0..100) of a non-empty sequence, interpolated between ranks.

    With an even count the median is the mean of the two middle values,
    which for the 2 or 3 invocations of a CLI run is steadier than either.
    """
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Tracer:
    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[list] = []  # [name, start, end, parent, op, child_s]
        self.folded: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, total_s, child_s]
        self.tallies: dict[str, int] = {}
        self.durations: dict[str, array] = {}
        self._stack: list[list] = []  # open calls: [child_s, index of the nearest span]

    def span(self, name: str, fn):
        """Wrap fn so that every call records its own span."""
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1][1] if stack else -1, self.op, 0.0]
            frame = [0.0, len(spans)]
            spans.append(record)
            stack.append(frame)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter()
                stack.pop()
                record[5] = frame[0]
                if stack:
                    stack[-1][0] += end - record[1]

        return wrapper

    def folded_calls(self, name: str, fn, *, tally=None, keep_durations: bool = False):
        """Wrap fn so that its calls are folded into per-parent totals.

        tally(result) is added to the name's tally; with keep_durations
        every call's duration is kept for percentiles.
        """
        stack, folded, tallies = self._stack, self.folded, self.tallies
        durations = self.durations.setdefault(name, array("d")) if keep_durations else None

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = folded.get((name, frame[1]))
                if entry is None:
                    entry = folded[(name, frame[1])] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[0]
                if durations is not None:
                    durations.append(elapsed)
            if tally is not None:
                tallies[name] = tallies.get(name, 0) + tally(result)
            return result

        return wrapper

    def folded_generator(self, name: str, fn):
        """Wrap a generator function; each step of the generator is one folded call."""
        step = self.folded_calls(name, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def summary(self) -> dict:
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, _parent, _op, child in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            calls[name] = calls.get(name, 0) + 1
        for (name, _parent), (count, total, child) in self.folded.items():
            self_s[name] = self_s.get(name, 0.0) + (total - child)
            calls[name] = calls.get(name, 0) + count
        return {
            "self_s": self_s,
            "calls": calls,
            "tallies": dict(self.tallies),
            "percentiles_s": {
                name: {"p50": percentile(values, 50), "p99": percentile(values, 99)}
                for name, values in self.durations.items()
                if values
            },
        }

    def dump(self) -> dict:
        return {
            "op": self.op,
            "spans": self.spans,
            "folded": [[name, parent, *entry] for (name, parent), entry in self.folded.items()],
            "summary": self.summary(),
        }


def install(tracer: Tracer):
    """Wrap the attributes through which the layers call each other.

    Returns a function that puts the original attributes back.
    """
    from eventstruct import cli, conflicts, es_enum, order_enum

    originals = [
        (module, name, getattr(module, name))
        for module, names in (
            (order_enum, ("_extend_rows", "_antisymmetric_rows")),
            (
                conflicts,
                ("_count_packed", "_conflicts_packed", "_unpack_conflict", "is_partial_order"),
            ),
            (es_enum, ("matrix_to_rel", "count_event_structures", "enumerate_event_structures")),
            (cli, ("covering_relation", "_emit")),
        )
        for name in names
    ]

    # order_enum: extension and the antisymmetry filter, as its own stream reaches them.
    extend = tracer.folded_calls("order_enum.extend", order_enum._extend_rows)

    def extend_rows(rows, k):
        out = extend(rows, k)
        key = f"order_enum.matrices.{k + 1}"  # matrices built, by order
        tracer.tallies[key] = tracer.tallies.get(key, 0) + len(out)
        return out

    order_enum._extend_rows = extend_rows
    order_enum._antisymmetric_rows = tracer.folded_calls(
        "order_enum.filter", order_enum._antisymmetric_rows, tally=int
    )

    # conflicts: the count path as es_enum reaches it, the list path as es_enum
    # and allowed_conflicts reach it, and the unpacking allowed_conflicts does.
    conflicts._count_packed = tracer.folded_calls(
        "conflicts.count", conflicts._count_packed, tally=int, keep_durations=True
    )
    packed = conflicts._conflicts_packed
    listed = tracer.folded_calls("conflicts.list", packed, tally=len)

    def conflicts_packed(*args, **kwargs):
        # _count_packed reaches the same function with count_only=True;
        # that time already belongs to conflicts.count.
        return packed(*args, **kwargs) if kwargs.get("count_only") else listed(*args, **kwargs)

    conflicts._conflicts_packed = conflicts_packed
    conflicts._unpack_conflict = tracer.folded_calls("conflicts.unpack", conflicts._unpack_conflict)

    # relations, as each caller reaches it.
    conflicts.is_partial_order = tracer.folded_calls(
        "relations.validate", conflicts.is_partial_order
    )
    es_enum.matrix_to_rel = tracer.folded_calls("relations.to_rel", es_enum.matrix_to_rel)
    cli.covering_relation = tracer.folded_calls("relations.cover", cli.covering_relation)

    # es_enum and cli, as cli reaches them.
    es_enum.count_event_structures = tracer.span(
        "es_enum.count_event_structures", es_enum.count_event_structures
    )
    es_enum.enumerate_event_structures = tracer.folded_generator(
        "es_enum.enumerate_event_structures", es_enum.enumerate_event_structures
    )
    cli._emit = tracer.span("cli.emit", cli._emit)

    def uninstall() -> None:
        for module, name, original in originals:
            setattr(module, name, original)

    return uninstall


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_JSON OP_ID -- CLI_ARGS...", file=sys.stderr)
        return 1
    trace_path, op = argv[0], int(argv[1])
    tracer = Tracer(op)
    install(tracer)
    from eventstruct import cli

    code = tracer.span("cli.main", cli.main)(argv[3:])
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
