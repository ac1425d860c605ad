"""Command line front end: count, enumerate, verify, OEIS b-files, benchmarks.

Exit codes: 0 success or a reader that closed early; 1 usage error, failed
worker or an output that cannot be opened or written (one stderr line);
2 guard refusal; 3 verification or consistency failure; 130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable
from contextlib import nullcontext, suppress
from io import TextIOBase
from operator import getitem

from . import conflicts, es_enum, order_enum
from .relations import LazyTable, cover_rows, matrix_to_rel, row_tables
# Not called here: perfbench/tracer.py wraps cli.covering_relation by name.
from .relations import covering_relation  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_VERIFY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT

VERIFY_MAX_N = 3  # bound by the event-structure brute-force guard
OEIS_DEFAULT_MAX_N = 6
OEIS_LONG_MAX_N = 7
BENCH_MAX_N = 6
CANONICAL_MAX_N = 6  # at 7 the sort would hold 6.1-9.5 M keys
PROGRESS_MIN_N = 5

KINDS = ("preorders", "posets", "es")
SEQUENCES = ("A000798", "A001035", "A284276")  # the counts of KINDS, by position


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to 1 so that 2
    # stays reserved for guard refusals.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eventstruct",
        description="Enumerate and count labeled preorders, posets and event structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # --n, as count, enumerate, verify and bench all take it.
    events = argparse.ArgumentParser(add_help=False)
    events.add_argument("--n", type=int, required=True, help="number of events")

    p_count = sub.add_parser("count", parents=[events], help="print the exact number of structures")
    p_count.add_argument("kind", choices=KINDS)
    p_count.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for es counting (default: the CPUs this process "
            "may use); capped at those CPUs and at the number of chunks of "
            "1,024 order-(n-1) preorders, so n <= 5 counts in one process"
        ),
    )
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser(
        "enumerate", parents=[events], help="stream every structure to stdout or a file"
    )
    p_enum.add_argument("kind", choices=KINDS)
    p_enum.add_argument("--format", choices=("pairs", "jsonl", "dot"), default="pairs")
    p_enum.add_argument(
        "--canonical",
        action="store_true",
        help=(
            "emit records in (causality, conflict) order; refused above "
            f"n = {CANONICAL_MAX_N}, where the sort would hold millions of keys"
        ),
    )
    p_enum.add_argument("--out", default=None, help="output path (default: stdout)")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser(
        "verify",
        parents=[events],
        help="check the recursive enumerations against brute force and the up-set count",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_oeis = sub.add_parser("oeis", help="emit a sequence in OEIS b-file format")
    p_oeis.add_argument("sequence", choices=SEQUENCES)
    p_oeis.add_argument("--max-n", type=int, required=True)
    p_oeis.add_argument(
        "--offset",
        type=int,
        default=0,
        help="added to the index column, should the published offset differ",
    )
    p_oeis.add_argument(
        "--allow-long",
        action="store_true",
        help=f"allow --max-n {OEIS_LONG_MAX_N} (minutes of compute)",
    )
    p_oeis.set_defaults(func=_cmd_oeis)

    p_bench = sub.add_parser(
        "bench", parents=[events], help="time the dedupe/pivot variants of the conflict recursion"
    )
    p_bench.add_argument(
        "--dedupe",
        nargs="+",
        choices=("naive", "late", "final"),
        default=["naive", "late", "final"],
    )
    p_bench.add_argument(
        "--pivot",
        nargs="+",
        choices=("naive", "heuristic"),
        default=["naive", "heuristic"],
    )
    p_bench.add_argument("--json", dest="json_path", default=None, help="also write a JSON report")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _refuse(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_GUARD


def _progress(n: int):
    if n < PROGRESS_MIN_N:
        return None

    def report(done: int, total: int) -> None:
        sys.stderr.write(f"progress: {done}/{total} order-{n - 1} preorders extended\n")
        sys.stderr.flush()

    return report


def _counter(kind: str, workers: int) -> Callable[[int], int]:
    """The count of kind at n, as a function of n; es counts on workers processes."""
    return {
        "preorders": order_enum.count_preorders,
        "posets": order_enum.count_posets,
        "es": lambda n: es_enum.count_event_structures(
            n, workers=workers, progress=_progress(n)
        ),
    }[kind]


def _cmd_count(args) -> int:
    print(_counter(args.kind, args.workers or es_enum._cores())(args.n))
    return EXIT_OK


def _row_texts(n: int, piece: Callable[[int, int], str]) -> list[LazyTable]:
    """One table per row index i: row mask -> text, where pair (i, j) reads as piece(i, j)."""
    return row_tables([[piece(i, j) for j in range(n)] for i in range(n)], "".join)


def _emit(args, out: TextIOBase) -> None:
    """Write one record per (causality, conflict) straight from the packed rows.

    A relation's text is the join of its rows' texts, looked up per (row
    index, row mask).  Each causality is formatted once for all its
    conflicts, and each distinct conflict once per stream (a LazyTable).
    Rows then bits ascending is the order of the sorted pair list, so
    every record lists its pairs sorted.
    """
    kind, n, fmt = args.kind, args.n, args.format
    rows_stream = order_enum._rows_stream(n) if kind == "preorders" else order_enum._poset_rows(n)
    if args.canonical:
        # Pair (i, j) keys as the character i*n + j, so comparing keys
        # compares the sorted pair lists.
        keys = _row_texts(n, lambda i, j: chr(i * n + j))

        def key(rows) -> str:
            return "".join(map(getitem, keys, rows))

        rows_stream = sorted(rows_stream, key=key)
    if kind == "es":
        groups = es_enum._by_poset(rows_stream)
    else:
        # One empty conflict each.  dot draws an order's cover rows, and a
        # preorder, which may contain cycles, with every arc as it is.
        draw = cover_rows if kind == "posets" and fmt == "dot" else tuple
        groups = ((rows, draw(rows), [(0,) * n]) for rows in rows_stream)

    conf_texts = LazyTable()
    if fmt == "dot":
        arcs = _row_texts(n, lambda i, j: f"  {i} -> {j};\n" if i != j else "")
        dashed = _row_texts(
            n, lambda i, j: f"  {i} -> {j} [style=dashed, dir=none];\n" if i < j else ""
        )
        conf_texts.make = lambda conf: "".join(map(getitem, dashed, conf))
        vertices = "".join(f"  {v};\n" for v in range(n))
    else:
        # Each pair's text leads with its separator; cut drops the first one.
        if fmt == "jsonl":
            texts, cut = _row_texts(n, lambda i, j: f",[{i},{j}]"), 1
        else:
            texts, cut = _row_texts(n, lambda i, j: f", ({i},{j})"), 2
        conf_texts.make = lambda conf: "".join(map(getitem, texts, conf))[cut:]
    if args.canonical:
        conf_keys = LazyTable()
        conf_keys.make = key

    index = 0
    for rows, covers, confs in groups:
        if args.canonical:
            confs = sorted(confs, key=conf_keys.__getitem__)
        if fmt == "dot":
            head = vertices + "".join(map(getitem, arcs, covers))
            for conf in confs:
                out.write(f"digraph {kind}_{index} {{\n{head}{conf_texts[conf]}}}\n")
                index += 1
            continue
        causality = "".join(map(getitem, texts, rows))[cut:]
        if fmt == "pairs" and kind != "es":
            out.write(f"{{{causality}}}\n")
            continue
        if fmt == "pairs":
            head, tail = f"({{{causality}}}, {{", "})\n"
        else:
            head, tail = f'{{"n":{n},"causality":[{causality}],"conflict":[', "]}\n"
        for conf in confs:
            out.write(head + conf_texts[conf] + tail)


def _cmd_enumerate(args) -> int:
    if args.canonical and args.n > CANONICAL_MAX_N:
        return _refuse(f"enumerate: refusing --canonical at n={args.n} (ceiling {CANONICAL_MAX_N})")
    out = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
    with out as handle:
        _emit(args, handle)
    return EXIT_OK


def _cmd_verify(args) -> int:
    n = args.n
    if n > VERIFY_MAX_N:
        return _refuse(
            f"verify: refusing n={n}; the brute-force oracle is guarded at n <= {VERIFY_MAX_N}"
        )
    # Imported here: only verify uses the brute-force oracle.
    from . import oracle

    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{name}: {'ok' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1

    try:
        expected_pre = oracle.brute_force_preorders(n)
        got_pre = {matrix_to_rel(a) for a in order_enum.enumerate_preorders(n)}
        check("preorders", got_pre == expected_pre, f"{len(expected_pre)} relations")

        expected_po = oracle.brute_force_posets(n)
        posets = order_enum.enumerate_posets(n)
        check("posets", set(posets) == expected_po, f"{len(expected_po)} relations")

        conflicts_ok = all(
            set(conflicts.allowed_conflicts(p)) == oracle.brute_force_conflicts(p)
            for p in posets
        )
        # The second route: the up-set count against the recursion's list.
        counts_ok = all(
            conflicts._count_packed(rows) == len(conflicts._conflicts_packed(rows))
            for rows in order_enum._poset_rows(n)
        )
        check(
            "conflicts",
            conflicts_ok and counts_ok,
            f"all {len(posets)} posets; brute force {'agrees' if conflicts_ok else 'differs'}, "
            f"up-set count {'matches' if counts_ok else 'differs from'} the list",
        )

        expected_es = oracle.brute_force_event_structures(n)
        got_es = set(es_enum.enumerate_event_structures(n))
        check("event structures", got_es == expected_es, f"{len(expected_es)} structures")
    except oracle.OracleGuardError as exc:
        return _refuse(f"eventstruct: {exc}")

    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_oeis(args) -> int:
    ceiling = OEIS_LONG_MAX_N if args.allow_long else OEIS_DEFAULT_MAX_N
    if args.max_n > ceiling:
        return _refuse(
            f"oeis: refusing --max-n {args.max_n} (ceiling {ceiling}; "
            f"use --allow-long for {OEIS_LONG_MAX_N})"
        )
    fn = _counter(KINDS[SEQUENCES.index(args.sequence)], es_enum._cores())
    for k in range(args.max_n + 1):
        print(f"{k + args.offset} {fn(k)}", flush=True)
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.n > BENCH_MAX_N:
        return _refuse(f"bench: refusing n={args.n} (ceiling {BENCH_MAX_N})")
    # Opened before the variants run, so an unwritable path costs no run.
    out = nullcontext() if args.json_path is None else open(args.json_path, "w", encoding="utf-8")
    with out as handle:
        return _bench(args, handle)


def _bench(args, report: TextIOBase | None) -> int:
    # Listed once, outside every variant's time.
    posets = list(order_enum._poset_rows(args.n))
    variants = [(dedupe, pivot) for dedupe in args.dedupe for pivot in args.pivot]
    results = []
    for dedupe, pivot in variants:
        started = time.perf_counter()
        # "naive" pivoting = take the first minimal element found
        count = sum(
            conflicts._count_variant(rows, heuristic=pivot == "heuristic", dedupe=dedupe)
            for rows in posets
        )
        elapsed = time.perf_counter() - started
        results.append(
            {
                "dedupe": f"dedupe-{dedupe}",
                "pivot": f"pivot-{pivot}",
                "seconds": round(elapsed, 4),
                "count": count,
            }
        )
        if args.n >= PROGRESS_MIN_N:
            print(
                f"progress: {len(results)}/{len(variants)} variants counted over "
                f"{len(posets)} posets",
                file=sys.stderr,
                flush=True,
            )

    width = max(len(f"{r['dedupe']} {r['pivot']}") for r in results)
    print(f"{'variant'.ljust(width)}  seconds  count")
    for r in results:
        name = f"{r['dedupe']} {r['pivot']}"
        print(f"{name.ljust(width)}  {r['seconds']:7.3f}  {r['count']}")

    if report is not None:
        import json  # here: only a bench report needs it

        json.dump({"n": args.n, "results": results}, report, indent=2)
        report.write("\n")

    counts = {r["count"] for r in results}
    if len(counts) > 1:
        print("bench: variants disagree on the count", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The bounds of every command's counts, checked here and in this order.
    for name, least in (("n", 0), ("max_n", 0), ("workers", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            parser.error(f"--{name.replace('_', '-')} must be >= {least}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a failed write is handled below
        return code
    except KeyboardInterrupt:
        print("eventstruct: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:
        # A pool worker's exception is re-raised here with the worker's
        # traceback, as text, for its cause; an in-process one keeps its own.
        # Imported here: the pool module costs about 10 ms at start-up.
        from multiprocessing.pool import RemoteTraceback

        if isinstance(exc.__cause__, RemoteTraceback):
            print(f"eventstruct: worker failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(exc, OSError):
            raise
        # An output failed.  What stdout holds is written if it still can
        # be; then fd 1 goes to devnull, so that the flush at exit cannot
        # fail again (status 120).  A test's stand-in for stdout is left alone.
        with suppress(OSError):
            sys.stdout.flush()
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK  # the reader closed early
        path = f"cannot write {exc.filename}: " if exc.filename else ""
        print(f"eventstruct: {path}{exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
