"""Command line front end: count, enumerate, verify, OEIS b-files, benchmarks.

Exit codes: 0 success, 1 usage error, 2 guard refusal, 3 verification or
consistency failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from typing import IO, Iterable, Iterator

from . import conflicts, es_enum, oracle, order_enum
from .relations import EMPTY_REL, BoolMatrix, covering_relation, matrix_to_rel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_VERIFY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT

VERIFY_MAX_N = 3  # bound by the event-structure brute-force guard
OEIS_DEFAULT_MAX_N = 6
OEIS_LONG_MAX_N = 7
BENCH_MAX_N = 6
PROGRESS_MIN_N = 5

KINDS = ("preorders", "posets", "es")
SEQUENCES = ("A000798", "A001035", "A284276")


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

    p_count = sub.add_parser("count", help="print the exact number of structures")
    p_count.add_argument("kind", choices=KINDS)
    p_count.add_argument("--n", type=int, required=True, help="number of events")
    p_count.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for es counting (default: available cores); "
            "capped at the number of cores, and for n <= 6 at the number "
            "of 1,024-poset batches"
        ),
    )
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="stream every structure to stdout or a file")
    p_enum.add_argument("kind", choices=KINDS)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=("pairs", "jsonl", "dot"), default="pairs")
    p_enum.add_argument(
        "--canonical",
        action="store_true",
        help="emit records in (causality, conflict) order",
    )
    p_enum.add_argument("--out", default=None, help="output path (default: stdout)")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser(
        "verify", help="check the recursive enumerations against brute force"
    )
    p_verify.add_argument("--n", type=int, required=True)
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
        help=f"allow --max-n {OEIS_LONG_MAX_N} (hours of compute)",
    )
    p_oeis.set_defaults(func=_cmd_oeis)

    p_bench = sub.add_parser(
        "bench", help="time the dedupe/pivot variants of the conflict recursion"
    )
    p_bench.add_argument("--n", type=int, required=True)
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


def _check_n(parser: argparse.ArgumentParser, n: int) -> None:
    if n < 0:
        parser.error("--n must be >= 0")


def _progress(n: int, label: str = "posets"):
    if n < PROGRESS_MIN_N:
        return None

    def report(done: int, total: int | None) -> None:
        if total is None:
            sys.stderr.write(f"progress: {done} {label} processed\n")
        else:
            sys.stderr.write(f"progress: {done}/{total} {label} processed\n")
        sys.stderr.flush()

    return report


def _cmd_count(args, parser) -> int:
    _check_n(parser, args.n)
    if args.kind == "preorders":
        print(order_enum.count_preorders(args.n))
    elif args.kind == "posets":
        print(order_enum.count_posets(args.n))
    else:
        workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            parser.error("--workers must be >= 1")
        print(
            es_enum.count_event_structures(
                args.n, workers=workers, progress=_progress(args.n)
            )
        )
    return EXIT_OK


def _groups(kind: str, n: int, canonical: bool) -> Iterator[tuple[list, Iterable[list]]]:
    """(causality, its conflicts) per relation, each relation a sorted pair list.

    Preorders and posets carry one empty conflict each.  With canonical,
    the relations are sorted, and so are the conflicts of each poset as it
    comes up: (causality, conflict) order without holding the stream.
    """
    rows_stream = order_enum._rows_stream(n) if kind == "preorders" else order_enum._poset_rows(n)
    if canonical:
        # One int i*n + j per pair, rows then bits ascending: the order of
        # the sorted pair lists, at a fraction of their memory.
        rows_stream = sorted(
            rows_stream,
            key=lambda rows: tuple(
                i * n + j for i, row in enumerate(rows) for j in range(n) if row >> j & 1
            ),
        )
    if kind == "es":
        groups = es_enum._by_poset(n, rows_stream)
    else:
        groups = ((matrix_to_rel(BoolMatrix(n, rows)), [EMPTY_REL]) for rows in rows_stream)
    for causality, conflict_stream in groups:
        conflict_lists = map(sorted, conflict_stream)
        yield sorted(causality), sorted(conflict_lists) if canonical else conflict_lists


def _braces(pairs) -> str:
    return "{" + ", ".join(f"({x},{y})" for x, y in pairs) + "}"


def _json(pairs) -> str:
    return json.dumps(pairs, separators=(",", ":"))


def _emit(args, out: IO[str]) -> None:
    """Write one record per (causality, conflict), formatting each causality once."""
    kind, n = args.kind, args.n
    index = 0
    for causality, conflict_lists in _groups(kind, n, args.canonical):
        if args.format == "pairs" and kind != "es":
            out.write(_braces(causality) + "\n")
        elif args.format == "pairs":
            head = f"({_braces(causality)}, "
            for conflict in conflict_lists:
                out.write(f"{head}{_braces(conflict)})\n")
        elif args.format == "jsonl":
            head = f'{{"n":{n},"causality":{_json(causality)},"conflict":'
            for conflict in conflict_lists:
                out.write(f"{head}{_json(conflict)}}}\n")
        else:
            if kind == "preorders":
                # A preorder may contain cycles, so no transitive reduction:
                # draw every off-diagonal arc as-is.
                arcs = [(x, y) for x, y in causality if x != y]
            else:
                arcs = sorted(covering_relation(frozenset(causality)))
            body = "".join(f"  {v};\n" for v in range(n))
            body += "".join(f"  {x} -> {y};\n" for x, y in arcs)
            for conflict in conflict_lists:
                dashed = "".join(
                    f"  {x} -> {y} [style=dashed, dir=none];\n" for x, y in conflict if x < y
                )
                out.write(f"digraph {kind}_{index} {{\n{body}{dashed}}}\n")
                index += 1


def _open_for_write(path: str) -> IO[str] | None:
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        print(f"eventstruct: cannot write {path}: {exc}", file=sys.stderr)
        return None


def _cmd_enumerate(args, parser) -> int:
    _check_n(parser, args.n)
    out = nullcontext(sys.stdout) if args.out is None else _open_for_write(args.out)
    if out is None:
        return EXIT_USAGE
    with out as handle:
        _emit(args, handle)
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    _check_n(parser, args.n)
    n = args.n
    if n > VERIFY_MAX_N:
        print(
            f"verify: refusing n={n}; the brute-force oracle is guarded at "
            f"n <= {VERIFY_MAX_N}",
            file=sys.stderr,
        )
        return EXIT_GUARD

    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        status = "ok" if ok else "FAIL"
        print(f"{name}: {status} ({detail})")
        if not ok:
            failures += 1

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
    check("conflicts", conflicts_ok, f"all {len(posets)} posets")

    expected_es = oracle.brute_force_event_structures(n)
    got_es = set(es_enum.enumerate_event_structures(n))
    check("event structures", got_es == expected_es, f"{len(expected_es)} structures")

    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_oeis(args, parser) -> int:
    if args.max_n < 0:
        parser.error("--max-n must be >= 0")
    ceiling = OEIS_LONG_MAX_N if args.allow_long else OEIS_DEFAULT_MAX_N
    if args.max_n > ceiling:
        print(
            f"oeis: refusing --max-n {args.max_n} (ceiling {ceiling}; "
            f"use --allow-long for {OEIS_LONG_MAX_N})",
            file=sys.stderr,
        )
        return EXIT_GUARD
    count_fns = {
        "A000798": order_enum.count_preorders,
        "A001035": order_enum.count_posets,
        "A284276": lambda k: es_enum.count_event_structures(k, progress=_progress(k)),
    }
    fn = count_fns[args.sequence]
    for k in range(args.max_n + 1):
        print(f"{k + args.offset} {fn(k)}", flush=True)
    return EXIT_OK


def _cmd_bench(args, parser) -> int:
    _check_n(parser, args.n)
    if args.n > BENCH_MAX_N:
        print(f"bench: refusing n={args.n} (ceiling {BENCH_MAX_N})", file=sys.stderr)
        return EXIT_GUARD
    # Opened before the variants run, so an unwritable path costs no run.
    report = nullcontext() if args.json_path is None else _open_for_write(args.json_path)
    if report is None:
        return EXIT_USAGE
    with report as handle:
        return _bench(args, handle)


def _bench(args, report: IO[str] | None) -> int:
    # Warm the shared poset cache so the first variant is not charged for it.
    order_enum.count_posets(args.n)
    results = []
    for dedupe in args.dedupe:
        for pivot in args.pivot:
            started = time.perf_counter()
            count = es_enum.count_event_structures_variant(
                args.n,
                dedupe=dedupe,
                # "naive" pivoting = take the first minimal element found
                pivot="first" if pivot == "naive" else pivot,
                progress=_progress(args.n),
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

    width = max(len(f"{r['dedupe']} {r['pivot']}") for r in results)
    print(f"{'variant'.ljust(width)}  seconds  count")
    for r in results:
        name = f"{r['dedupe']} {r['pivot']}"
        print(f"{name.ljust(width)}  {r['seconds']:7.3f}  {r['count']}")

    if report is not None:
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
    try:
        return args.func(args, parser)
    except oracle.OracleGuardError as exc:
        print(f"eventstruct: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except BrokenPipeError:
        return EXIT_OK
    except KeyboardInterrupt:
        print("eventstruct: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
