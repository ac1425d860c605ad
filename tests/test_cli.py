import argparse
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from eventstruct import cli, conflicts, es_enum, order_enum
from eventstruct.relations import covering_relation, rows_to_rel

BASE = [sys.executable, "-m", "eventstruct"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, **kwargs
    )


def test_count():
    result = run_cli("count", "es", "--n", "4")
    assert result.returncode == 0
    assert result.stdout == "916\n"
    assert run_cli("count", "preorders", "--n", "0").stdout == "1\n"
    assert run_cli("count", "posets", "--n", "3").stdout == "19\n"
    assert run_cli("count", "es", "--n", "3", "--workers", "2").stdout == "41\n"
    # n = 5 is one chunk of the 355 order-4 preorders, so one progress line
    result = run_cli("count", "es", "--n", "5")
    assert (result.returncode, result.stdout) == (0, "41099\n")
    assert result.stderr == "progress: 355/355 order-4 preorders extended\n"


def test_count_usage_errors():
    assert run_cli("count", "bogus", "--n", "2").returncode == 1
    assert run_cli("count", "es", "--n", "-1").returncode == 1
    assert run_cli("count", "es").returncode == 1


def test_count_refuses_workers_below_one(capsys):
    for kind in cli.KINDS:
        for workers in ("0", "-1"):
            with pytest.raises(SystemExit) as refused:
                cli.main(["count", kind, "--n", "3", "--workers", workers])
            assert refused.value.code == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith("\neventstruct: error: --workers must be >= 1\n")


def test_enumerate_pairs_matches_known_listing():
    result = run_cli("enumerate", "es", "--n", "2", "--format", "pairs", "--canonical")
    assert result.returncode == 0
    assert result.stdout.splitlines() == [
        "({(0,0), (0,1), (1,1)}, {})",
        "({(0,0), (1,0), (1,1)}, {})",
        "({(0,0), (1,1)}, {})",
        "({(0,0), (1,1)}, {(0,1), (1,0)})",
    ]


def test_enumerate_jsonl_poset_record():
    result = run_cli("enumerate", "posets", "--n", "0", "--format", "jsonl")
    assert result.returncode == 0
    assert result.stdout == '{"n":0,"causality":[],"conflict":[]}\n'


def test_enumerate_jsonl_round_trip():
    result = run_cli("enumerate", "es", "--n", "3", "--format", "jsonl")
    assert result.returncode == 0
    rebuilt = set()
    for line in result.stdout.splitlines():
        record = json.loads(line)
        assert record["n"] == 3
        causality = [tuple(pair) for pair in record["causality"]]
        conflict = [tuple(pair) for pair in record["conflict"]]
        assert causality == sorted(causality)
        assert conflict == sorted(conflict)
        rebuilt.add((frozenset(causality), frozenset(conflict)))
    direct = {
        (es.causality, es.conflict) for es in es_enum.enumerate_event_structures(3)
    }
    assert rebuilt == direct
    assert len(result.stdout.splitlines()) == 41


def test_enumerate_record_count_matches_count(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    for kind in ("preorders", "posets", "es"):
        for n in range(4):
            argv = ["enumerate", kind, "--n", str(n), "--format", "jsonl"]
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
            assert cli.main(["count", kind, "--n", str(n)]) == cli.EXIT_OK
            count = int(capsys.readouterr().out)
            assert len(out.read_text().splitlines()) == count


def test_enumerate_canonical_is_byte_stable():
    first = run_cli("enumerate", "es", "--n", "3", "--canonical")
    second = run_cli("enumerate", "es", "--n", "3", "--canonical")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_enumerate_dot_single_event():
    result = run_cli("enumerate", "es", "--n", "1", "--format", "dot")
    assert result.returncode == 0
    assert result.stdout == "digraph es_0 {\n  0;\n}\n"


def test_enumerate_dot_conflict_edges():
    result = run_cli("enumerate", "es", "--n", "2", "--format", "dot", "--canonical")
    graphs = result.stdout.split("digraph")
    assert result.stdout.count("digraph") == 4
    assert "0 -> 1 [style=dashed, dir=none];" in result.stdout
    # chain structures draw one covering arc
    assert any("  0 -> 1;" in g for g in graphs)


def test_enumerate_to_file(tmp_path):
    out = tmp_path / "out.jsonl"
    result = run_cli("enumerate", "es", "--n", "2", "--format", "jsonl", "--out", str(out))
    assert result.returncode == 0
    assert len(out.read_text().splitlines()) == 4
    bad = run_cli("enumerate", "es", "--n", "2", "--out", str(tmp_path / "no" / "dir"))
    assert bad.returncode == 1


# sha256 of `enumerate KIND --n N --format FORMAT [--canonical]`, recorded
# before enumerate streamed one poset at a time; the bytes must not change.
PINNED_OUTPUT = {
    ("preorders", 3, "pairs", False): "06ad91936f92dab727065d19bf2a1741bc580baaf5f58144693172ab41192728",
    ("preorders", 3, "pairs", True): "593d7a5299f965a216cab831c2b355e55b24829d31eea0181c7ae2da6f1be51b",
    ("preorders", 3, "jsonl", False): "3de10aec0b16b14e1fafb49b33b613c382822153096f8ff326afa232b908b64c",
    ("preorders", 3, "jsonl", True): "3ec84f1a232375ceafb244a5fc739535bbd8b92994451e4a579bd02ffdd2257b",
    ("preorders", 3, "dot", False): "4223222a01c991a8f02eb14c3026e3ab5b7d2d2372e3ea558cb1856821cda464",
    ("preorders", 3, "dot", True): "33504a63b9862f7444e12ad20c4841b4dc59f0e0fc82559963cbe07d5b06779d",
    ("posets", 3, "pairs", False): "d2306e48e8f411948f3145e5a33cabaea6d10a0fde1dcf00165f54c2bf54fcc5",
    ("posets", 3, "pairs", True): "5ea2cfa34bb2c799a7c98f3c7211dc183031a97dda7b18f57be57cef1ff9a177",
    ("posets", 3, "jsonl", False): "cfb27aa5aa1fe942e671850cf6870575258dffadeb1f85f1f123ec568fbf8966",
    ("posets", 3, "jsonl", True): "7479a02653af0330a600234c2f6c3c06f0ff8206db2ab8927a504e51bd732e84",
    ("posets", 3, "dot", False): "6175efa2cb5b461de6aa7623634f5e7afafbdc855f0521d3f34380dcf812c97a",
    ("posets", 3, "dot", True): "a3d5348519f77562122b30dfd4d6bf9368c1ad4e1bac242bf3ce1f7c70208d51",
    ("es", 3, "pairs", False): "27ab4c9c6af9f0b07fa7396f2fae5beebe9598c4cb343b69438733d14312be99",
    ("es", 3, "pairs", True): "49c3d01093ac4205ee4bbb49042a5485043f53bfb100c25f9b3b9b0d67a02fe0",
    ("es", 3, "jsonl", False): "2274877a3681357ae664c635e5eeef543675965967a5eabe1e8128bdaaee38f8",
    ("es", 3, "jsonl", True): "9dee33a0e6732dd2706574288b8a07f8d0f77bc360e3a1e06966a891e2c0abc3",
    ("es", 3, "dot", False): "8a0def547edeeca827228559b92c03f0650e3245f5ce1289b787b199c7a34647",
    ("es", 3, "dot", True): "1f49ddef754a2a6a240ad16e42f8f79065ce56175adbc67db5d53d0ee01a5f91",
    ("es", 4, "pairs", False): "1a95645d8273736ee2071412c287c28a4b0b054b635c85f2278384f2724cfff1",
    ("es", 4, "pairs", True): "bfdee7cd999b40c5ba208ab0331e667331a75e05207b5e8810fd49436750b3af",
    ("es", 4, "jsonl", False): "10309085ce3e202f9d0e17c63659e14beec7217c90c7e229de2a15939293d6ee",
    ("es", 4, "jsonl", True): "e656c353448a8b0309482efa42193f10f5104634a36b9bb3d2a37dc7c4d2aa78",
    ("es", 4, "dot", False): "0bb205bb8c143424c4292f074dda0d3f314742a6fa2303f8b0757502a2be053c",
    ("es", 4, "dot", True): "1251996e606b203238f66d378ea5b8c99ecd59597035e5c588b4b724a661ae06",
    # Recorded before each distinct conflict was formatted once per stream;
    # test_enumerate_matches_a_reference_formatter_at_n5 covers the rest of n = 5.
    ("es", 5, "dot", False): "ced72d697622b284701da5106ba0e0f487842d648541074a80a6d5df0aa5aea0",
    ("es", 5, "pairs", True): "da6362d94e1056eb173044fcf0fe03a9f619c07147746126cd9395a5e5048eb3",
    ("es", 5, "dot", True): "10103431340ba4b98862ec14700305688dd6dfe287adac60f2f69d33ca0a982a",
}


@pytest.mark.parametrize("setting", sorted(PINNED_OUTPUT))
def test_enumerate_output_bytes_are_pinned(setting, tmp_path):
    kind, n, fmt, canonical = setting
    path = tmp_path / "out"
    argv = ["enumerate", kind, "--n", str(n), "--format", fmt, "--out", str(path)]
    assert cli.main(argv + ["--canonical"] * canonical) == cli.EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_OUTPUT[setting]


def _reference_records(n: int, fmt: str, canonical: bool) -> str:
    """enumerate es output rebuilt from the public stream with sorted and json.dumps."""
    structures = [
        (sorted(es.causality), sorted(es.conflict))
        for es in es_enum.enumerate_event_structures(n)
    ]
    if canonical:
        structures.sort()

    def braces(pairs):
        return "{" + ", ".join(f"({x},{y})" for x, y in pairs) + "}"

    if fmt == "pairs":
        lines = (f"({braces(c)}, {braces(f)})" for c, f in structures)
    else:
        lines = (
            json.dumps({"n": n, "causality": c, "conflict": f}, separators=(",", ":"))
            for c, f in structures
        )
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt, canonical", [("jsonl", False), ("pairs", False), ("jsonl", True)])
def test_enumerate_matches_a_reference_formatter_at_n5(fmt, canonical):
    out = io.StringIO()
    cli._emit(argparse.Namespace(kind="es", n=5, format=fmt, canonical=canonical), out)
    got = out.getvalue().split("\n")
    want = _reference_records(5, fmt, canonical).split("\n")
    # Line by line: pytest's diff of two 5 MB strings would take minutes.
    for number, (line, expected) in enumerate(zip(got, want)):
        assert line == expected, f"line {number}"
    assert len(got) == len(want)


def test_canonical_is_refused_above_its_ceiling(tmp_path, capsys):
    path = tmp_path / "out"
    for kind in ("preorders", "posets", "es"):
        argv = ["enumerate", kind, "--n", str(cli.CANONICAL_MAX_N + 1), "--canonical"]
        assert cli.main(argv + ["--out", str(path)]) == cli.EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"enumerate: refusing --canonical at n={cli.CANONICAL_MAX_N + 1} "
            f"(ceiling {cli.CANONICAL_MAX_N})\n"
        )
    assert not path.exists()  # refused before the output was opened


class _Writes:
    """An output stream that only runs a callback on each write."""

    def __init__(self, on_write):
        self.write = on_write


def _enumerate_args(fmt: str, canonical: bool) -> argparse.Namespace:
    return argparse.Namespace(kind="es", n=4, format=fmt, canonical=canonical)


def test_dot_arcs_are_the_covering_relation():
    # The solid arcs of each poset's graph are its transitive reduction,
    # with the pair-set covering_relation as the reference.
    arc = re.compile(r"^  (\d+) -> (\d+);$", re.MULTILINE)
    for n in range(6):
        out = io.StringIO()
        cli._emit(argparse.Namespace(kind="posets", n=n, format="dot", canonical=False), out)
        graphs = out.getvalue().split("digraph ")[1:]
        posets = list(order_enum._poset_rows(n))
        assert len(graphs) == len(posets)
        for graph, rows in zip(graphs, posets):
            arcs = {(int(x), int(y)) for x, y in arc.findall(graph)}
            assert arcs == covering_relation(rows_to_rel(rows, range(n))), rows


def test_dot_makes_each_posets_cover_rows_once(monkeypatch):
    # es_enum._by_poset makes them for the pivot chain, and dot draws from them.
    calls = []
    cover_rows = conflicts.cover_rows

    def counted(rows):
        calls.append(1)
        return cover_rows(rows)

    for module in (conflicts, es_enum, cli):
        monkeypatch.setattr(module, "cover_rows", counted)
    out = io.StringIO()
    cli._emit(_enumerate_args("dot", False), out)
    assert out.getvalue().count("digraph ") == 916
    assert len(calls) == 219


def test_canonical_streams_from_the_first_poset(monkeypatch):
    calls = []
    listed = conflicts._conflicts_packed

    def counted(*args, **kwargs):
        calls.append(1)
        return listed(*args, **kwargs)

    seen_at_first_write = []

    def write(text):
        if not seen_at_first_write:
            seen_at_first_write.append(len(calls))

    monkeypatch.setattr(conflicts, "_conflicts_packed", counted)
    cli._emit(_enumerate_args("jsonl", True), _Writes(write))
    assert seen_at_first_write == [1]
    assert len(calls) == 219


def _counted_memos(monkeypatch) -> list:
    """Patch cli._Memo to record, per memo made, its misses and largest size."""
    memos = []

    class Counted(cli._Memo):
        __slots__ = ("misses", "largest")

        def __init__(self, make):
            super().__init__(make)
            self.misses = self.largest = 0
            memos.append(self)

        def __missing__(self, conf):
            value = super().__missing__(conf)
            self.misses += 1
            self.largest = max(self.largest, len(self))
            return value

    monkeypatch.setattr(cli, "_Memo", Counted)
    return memos


@pytest.mark.parametrize("fmt", ["pairs", "jsonl", "dot"])
@pytest.mark.parametrize("canonical", [False, True])
def test_conflict_memo_is_exact_and_bounded(fmt, canonical, monkeypatch):
    # Bound 5 against the 64 conflicts on 4 events: every memo empties
    # again and again, and each record's bytes stay the pinned ones.
    monkeypatch.setattr(cli, "_CONFLICT_TEXTS", 5)
    memos = _counted_memos(monkeypatch)
    out = io.StringIO()
    cli._emit(_enumerate_args(fmt, canonical), out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == PINNED_OUTPUT[("es", 4, fmt, canonical)]
    assert len(memos) == 1 + canonical  # the texts, and the sort keys
    for memo in memos:
        assert memo.largest == 5
        assert memo.misses > 64


def test_each_distinct_conflict_is_formatted_once(monkeypatch):
    # The 916 records on 4 events carry all 2 ** C(4, 2) = 64 symmetric
    # irreflexive relations, and the default bound evicts none of them.
    memos = _counted_memos(monkeypatch)
    out = io.StringIO()
    cli._emit(_enumerate_args("jsonl", False), out)
    assert out.getvalue().count("\n") == 916
    [memo] = memos
    assert memo.misses == len(memo) == 64


def test_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(es_enum, "count_event_structures", interrupted)
    try:
        code = cli.main(["count", "es", "--n", "3"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    captured = capsys.readouterr()
    assert code == 130
    assert captured.out == ""
    assert captured.err == "eventstruct: interrupted\n"


def _fail_count(rows):
    raise RuntimeError("count failed")


@pytest.mark.skipif(es_enum._cores() < 2, reason="needs two CPUs for a worker pool")
@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the patched count",
)
def test_worker_failure_is_one_stderr_line(monkeypatch, capsys):
    # chunks of 64 parents split the 355 order-4 preorders, so n = 5 uses the pool
    monkeypatch.setattr(es_enum, "_BATCH_SIZE", 64)
    monkeypatch.setattr(conflicts, "_count_packed", _fail_count)
    code = cli.main(["count", "es", "--n", "5", "--workers", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE == 1
    assert captured.out == ""
    assert captured.err == "eventstruct: worker failed: RuntimeError: count failed\n"


def test_in_process_failure_keeps_its_traceback(monkeypatch):
    # n = 3 is one chunk, so it counts in this process
    monkeypatch.setattr(conflicts, "_count_packed", _fail_count)
    with pytest.raises(RuntimeError, match="count failed"):
        cli.main(["count", "es", "--n", "3", "--workers", "2"])


def test_verify():
    result = run_cli("verify", "--n", "2")
    assert result.returncode == 0
    assert result.stdout.count(": ok") == 4
    refused = run_cli("verify", "--n", "9")
    assert refused.returncode == 2


def test_verify_refuses_a_guard_error_from_the_oracle(monkeypatch, capsys):
    from eventstruct import oracle

    def guarded(n):
        raise oracle.OracleGuardError("brute force refused")

    monkeypatch.setattr(oracle, "brute_force_posets", guarded)
    assert cli.main(["verify", "--n", "2"]) == cli.EXIT_GUARD == 2
    captured = capsys.readouterr()
    assert captured.out == "preorders: ok (4 relations)\n"
    assert captured.err == "eventstruct: brute force refused\n"


def test_cli_import_leaves_json_and_the_oracle_out():
    # Only bench and verify use them, and each imports its own.
    code = (
        "import sys, eventstruct.cli; "
        "print(sorted({'json', 'eventstruct.oracle'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "[]\n")


def test_verify_runs_the_up_set_count(monkeypatch, capsys):
    count = conflicts._count_packed
    monkeypatch.setattr(conflicts, "_count_packed", lambda rows: count(rows) + 1)
    assert cli.main(["verify", "--n", "2"]) == cli.EXIT_VERIFY
    assert "conflicts: FAIL (" in capsys.readouterr().out


def test_oeis():
    result = run_cli("oeis", "A284276", "--max-n", "3")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["0 1", "1 1", "2 4", "3 41"]
    assert run_cli("oeis", "A001035", "--max-n", "2").stdout.splitlines() == [
        "0 1",
        "1 1",
        "2 3",
    ]
    assert run_cli("oeis", "A000798", "--max-n", "1").stdout.splitlines() == [
        "0 1",
        "1 1",
    ]


def test_oeis_counts_on_the_default_workers(monkeypatch, capsys):
    # the same default as count es: one worker per CPU this process may use
    calls = []
    count = es_enum.count_event_structures

    def recorded(n, **kwargs):
        calls.append(kwargs["workers"])
        return count(n, **kwargs)

    monkeypatch.setattr(es_enum, "count_event_structures", recorded)
    monkeypatch.setattr(es_enum, "_cores", lambda: 3)
    assert cli.main(["oeis", "A284276", "--max-n", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1", "1 1", "2 4"]
    assert calls == [3, 3, 3]


def test_default_workers_follow_the_affinity_mask(monkeypatch, capsys):
    # one CPU allowed on a 4-core host: count es --n 6 counts in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert es_enum._cores() == 1
    assert cli.main(["count", "es", "--n", "6"]) == 0
    assert capsys.readouterr().out == "3528258\n"


def test_oeis_offset_and_guard():
    shifted = run_cli("oeis", "A000798", "--max-n", "1", "--offset", "1")
    assert shifted.stdout.splitlines() == ["1 1", "2 1"]
    assert run_cli("oeis", "A999999", "--max-n", "1").returncode == 1
    assert run_cli("oeis", "A284276", "--max-n", "7").returncode == 2


def test_bench():
    result = run_cli("bench", "--n", "3")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["variant", "seconds", "count"]
    assert len(lines) == 7  # header + 3 dedupe x 2 pivot
    assert all(line.endswith("41") for line in lines[1:])
    guard = run_cli("bench", "--n", "7")
    assert guard.returncode == 2


def test_bench_lists_the_posets_once(monkeypatch, capsys):
    calls = 0
    extend = order_enum._extend_rows

    def counted(rows, k):
        nonlocal calls
        calls += 1
        return extend(rows, k)

    monkeypatch.setattr(order_enum, "_extend_rows", counted)
    assert cli.main(["bench", "--n", "4"]) == 0
    # the 1 + 1 + 4 + 29 preorders on fewer than 4 events, once for all six variants
    assert calls == 35
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 7 and all(line.endswith(" 916") for line in lines[1:])
    assert captured.err == ""  # no progress below n = 5


def test_bench_reports_each_variant_counted(monkeypatch, capsys):
    seen = []

    def one_each(rows, **kwargs):
        seen.append((kwargs["dedupe"], kwargs["heuristic"]))
        return 1

    monkeypatch.setattr(conflicts, "_count_variant", one_each)
    args = ["bench", "--n", "5", "--dedupe", "final", "late", "--pivot", "naive"]
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "progress: 1/2 variants counted over 4231 posets\n"
        "progress: 2/2 variants counted over 4231 posets\n"
    )
    assert [line.split()[-1] for line in captured.out.splitlines()[1:]] == ["4231", "4231"]
    assert seen == [("final", False)] * 4231 + [("late", False)] * 4231


def test_bench_json_report(tmp_path):
    path = tmp_path / "bench.json"
    result = run_cli(
        "bench", "--n", "2", "--dedupe", "final", "--pivot", "heuristic",
        "--json", str(path),
    )
    assert result.returncode == 0
    report = json.loads(path.read_text())
    assert report["n"] == 2
    assert report["results"][0]["count"] == 4
    assert report["results"][0]["dedupe"] == "dedupe-final"


def test_bench_json_unwritable_path(tmp_path):
    path = tmp_path / "no" / "dir" / "r.json"
    result = run_cli("bench", "--n", "2", "--json", str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert f"eventstruct: cannot write {path}:" in result.stderr
    assert "Traceback" not in result.stderr
