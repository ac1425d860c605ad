import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from eventstruct import cli, conflicts, es_enum

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


def test_count_usage_errors():
    assert run_cli("count", "bogus", "--n", "2").returncode == 1
    assert run_cli("count", "es", "--n", "-1").returncode == 1
    assert run_cli("count", "es").returncode == 1


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


def test_enumerate_record_count_matches_count():
    for kind in ("preorders", "posets", "es"):
        for n in range(4):
            lines = run_cli(
                "enumerate", kind, "--n", str(n), "--format", "jsonl"
            ).stdout.splitlines()
            count = int(run_cli("count", kind, "--n", str(n)).stdout)
            assert len(lines) == count


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
}


@pytest.mark.parametrize("setting", sorted(PINNED_OUTPUT))
def test_enumerate_output_bytes_are_pinned(setting, tmp_path):
    kind, n, fmt, canonical = setting
    path = tmp_path / "out"
    argv = ["enumerate", kind, "--n", str(n), "--format", fmt, "--out", str(path)]
    assert cli.main(argv + ["--canonical"] * canonical) == cli.EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_OUTPUT[setting]


class _Writes:
    """An output stream that only runs a callback on each write."""

    def __init__(self, on_write):
        self.write = on_write


def _enumerate_args(fmt: str, canonical: bool) -> argparse.Namespace:
    return argparse.Namespace(kind="es", n=4, format=fmt, canonical=canonical)


def test_dot_reduces_each_poset_once(monkeypatch):
    calls = []
    reduce = cli.covering_relation

    def counted(p):
        calls.append(p)
        return reduce(p)

    monkeypatch.setattr(cli, "covering_relation", counted)
    cli._emit(_enumerate_args("dot", False), _Writes(len))
    assert len(calls) == 219  # the posets at n = 4, not the 916 structures


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


def test_verify():
    result = run_cli("verify", "--n", "2")
    assert result.returncode == 0
    assert result.stdout.count(": ok") == 4
    refused = run_cli("verify", "--n", "9")
    assert refused.returncode == 2


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
    # the same default as count es: one worker per core
    calls = []
    count = es_enum.count_event_structures

    def recorded(n, **kwargs):
        calls.append(kwargs["workers"])
        return count(n, **kwargs)

    monkeypatch.setattr(es_enum, "count_event_structures", recorded)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli.main(["oeis", "A284276", "--max-n", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1", "1 1", "2 4"]
    assert calls == [3, 3, 3]


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
