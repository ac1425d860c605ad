"""Acceptance gate: one check (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; the n=7 count is behind the `slow` marker.  C7 runs the bench
variants at n=5; their n=6 totals under both pivots are checked by the
slow `test_upset_count_matches_the_recursion_at_six` in test_conflicts.py.
"""

import json
import subprocess
import sys
import time

import pytest

from eventstruct import cli
from eventstruct.conflicts import allowed_conflicts
from eventstruct.es_enum import count_event_structures, enumerate_event_structures
from eventstruct.oracle import (
    brute_force_conflicts,
    brute_force_event_structures,
    brute_force_posets,
    brute_force_preorders,
)
from eventstruct.order_enum import (
    count_posets,
    count_preorders,
    enumerate_posets,
    enumerate_preorders,
    enumerate_strict_posets,
    enumerate_strict_preorders,
    valid_extensions,
)
from eventstruct.relations import EventStructure, covering_relation, field_of, matrix_to_rel
from spec import reflexive_transitive_closure
from test_order_enum import brute_force_extensions

PREORDER_COUNTS = [1, 1, 4, 29, 355, 6942, 209527]
POSET_COUNTS = [1, 1, 3, 19, 219, 4231, 130023]
ES_COUNTS = [1, 1, 4, 41, 916, 41099]
ES_COUNT_6 = 3528258
ES_COUNT_7 = 561658287


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}", flush=True)
    assert ok, f"{name} failed{suffix}"


def test_c1_count_fixtures_within_budget(order_six_listed):
    started = time.perf_counter()
    preorders = [count_preorders(n) for n in range(7)]
    posets = [count_posets(n) for n in range(7)]
    structures = [count_event_structures(n) for n in range(6)]
    elapsed = time.perf_counter() - started
    ok = (
        preorders == PREORDER_COUNTS
        and posets == POSET_COUNTS
        and structures == ES_COUNTS
        and elapsed < 60.0
    )
    _report("C1 count fixtures n<=6 (<60s)", ok, f"{elapsed:.1f}s")


def test_c2_event_structures_at_six():
    started = time.perf_counter()
    sequential = count_event_structures(6, workers=1)
    sequential_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = count_event_structures(6, workers=4)
    parallel_s = time.perf_counter() - started
    ok = (
        sequential == ES_COUNT_6
        and parallel == ES_COUNT_6
        and sequential_s < 300.0
        and parallel_s < 120.0
    )
    _report(
        "C2 countEventStructures(6) (<5min seq, <2min x4)",
        ok,
        f"seq {sequential_s:.1f}s, 4 workers {parallel_s:.1f}s",
    )


@pytest.mark.slow
def test_c3_event_structures_at_seven():
    import os

    started = time.perf_counter()
    count = count_event_structures(7, workers=os.cpu_count() or 1)
    elapsed = time.perf_counter() - started
    _report(
        "C3 countEventStructures(7) (long)", count == ES_COUNT_7, f"{elapsed:.0f}s"
    )


def test_c4_golden_two_event_listing():
    expected = {
        EventStructure({(0, 0), (0, 1), (1, 1)}, frozenset()),
        EventStructure({(0, 0), (1, 0), (1, 1)}, frozenset()),
        EventStructure({(0, 0), (1, 1)}, frozenset()),
        EventStructure({(0, 0), (1, 1)}, {(0, 1), (1, 0)}),
    }
    got = set(enumerate_event_structures(2))
    _report("C4 golden listing at n=2", got == expected, f"{len(got)} structures")


def test_c5_oracle_equivalence_within_budget():
    started = time.perf_counter()
    ok = True
    for n in range(5):
        ok = ok and {matrix_to_rel(a) for a in enumerate_preorders(n)} == brute_force_preorders(n)
        ok = ok and set(enumerate_posets(n)) == brute_force_posets(n)
    posets4 = enumerate_posets(4)
    ok = ok and len(posets4) == 219
    ok = ok and all(
        set(allowed_conflicts(p)) == brute_force_conflicts(p) for p in posets4
    )
    for n in range(4):
        ok = ok and set(enumerate_event_structures(n)) == brute_force_event_structures(n)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report("C5 oracle equivalence suites (<30s)", ok, f"{elapsed:.1f}s")


def test_c6a_emitted_structures_are_valid():
    ok = all(
        es.is_valid() for n in range(5) for es in enumerate_event_structures(n)
    )
    _report("C6a every emitted pair is an event structure (n<=4)", ok)


def test_c6b_duplicate_freedom():
    ok = True
    for n in range(5):
        preorders = enumerate_preorders(n)
        strict = enumerate_strict_preorders(n)
        strict_posets = enumerate_strict_posets(n)
        posets = enumerate_posets(n)
        structures = list(enumerate_event_structures(n))
        for seq in (preorders, strict, strict_posets, posets, structures):
            ok = ok and len(set(seq)) == len(seq)
        ok = ok and all(
            len(set(allowed_conflicts(p))) == len(allowed_conflicts(p)) for p in posets
        )
    _report("C6b duplicate-freedom of all enumerations (n<=4)", ok)


def test_c6c_pivot_and_successor_base_invariance():
    ok = True
    for n in range(5):
        for p in enumerate_posets(n):
            reference = set(allowed_conflicts(p))
            ok = ok and set(allowed_conflicts(p, pivot="first")) == reference
            ok = ok and set(allowed_conflicts(p, immediate_only=False)) == reference
    _report("C6c pivot + successor-base invariance (n<=4)", ok)


def test_c6d_extension_condition_pinned_by_brute_force():
    ok = all(
        set(valid_extensions(a)) == brute_force_extensions(a)
        for a in enumerate_preorders(3)
    )
    _report("C6d valid_extensions matches bordered-matrix oracle (order 3)", ok)


def test_c6e_transitive_reduction_round_trip():
    ok = all(
        reflexive_transitive_closure(covering_relation(p), field_of(p)) == p
        for n in range(5)
        for p in enumerate_posets(n)
    )
    _report("C6e covering-relation round trip (n<=4)", ok)


def test_c7_bench_variants(capsys):
    # Counts only: single runs of about 0.2 s cannot order the variants by
    # time; `eventstruct bench` is where timings are compared.
    code = cli.main(["bench", "--n", "5"])
    rows = capsys.readouterr().out.splitlines()[1:]
    counts = {row.split()[-1] for row in rows}
    ok = code == 0 and len(rows) == 6 and counts == {"41099"}
    _report("C7 bench variants agree on counts", ok, "6 variants at n=5")


def test_c8_cli_contract(tmp_path):
    base = [sys.executable, "-m", "eventstruct"]

    bfile = subprocess.run(
        base + ["oeis", "A284276", "--max-n", "5"], capture_output=True, text=True
    )
    bfile_ok = bfile.returncode == 0 and bfile.stdout.splitlines() == [
        f"{n} {value}" for n, value in enumerate(ES_COUNTS)
    ]

    jsonl = subprocess.run(
        base + ["enumerate", "es", "--n", "2", "--format", "jsonl"],
        capture_output=True,
        text=True,
    )
    rebuilt = set()
    for line in jsonl.stdout.splitlines():
        record = json.loads(line)
        rebuilt.add(
            (
                frozenset(tuple(p) for p in record["causality"]),
                frozenset(tuple(p) for p in record["conflict"]),
            )
        )
    direct = {(es.causality, es.conflict) for es in enumerate_event_structures(2)}
    jsonl_ok = jsonl.returncode == 0 and rebuilt == direct

    runs = [
        subprocess.run(
            base + ["enumerate", "es", "--n", "3", "--canonical"],
            capture_output=True,
        ).stdout
        for _ in range(2)
    ]
    canonical_ok = runs[0] == runs[1] and len(runs[0].splitlines()) == 41

    ok = bfile_ok and jsonl_ok and canonical_ok
    _report(
        "C8 CLI contract (b-file fixture, jsonl round-trip, canonical stability)", ok
    )
