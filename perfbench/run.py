"""The eventstruct benchmark: one workload per run, closed loop, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it works on the checkout that contains it and
imports the package from that checkout's src/, installing nothing.  A
single client runs one operation at a time: the next starts only after
the previous one has returned.  Operations repeat until their measured
time reaches --seconds, and a run always completes at least one.  Output
checks (see gates.py) run outside the timed regions.  End-to-end times
are scaled to a nominal host speed by a probe that runs inside the
measured process (see hostspeed.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The lines before it record the
environment, the probe's median and the raw medians, and print every
metric as "name value unit".  A traced run
also writes its spans to .perfbench/trace-<workload>-seed<N>.json.

Exit codes: 0 every output correct, 1 usage error, 2 the checkout holds
no eventstruct sources, 3 an output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from gates import ES_COUNTS, EnumerationGate, check_count
from tracer import Tracer, install, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

EXIT_OK = 0
EXIT_NO_SOURCES = 2
EXIT_CHECK_FAILED = 3

# setup_s samples: a burst before the first operation, before any later
# operation that starts SETUP_EVERY_S or more after the previous burst, and
# after the last one.  Spreading them over the run averages out the host's
# slow speed changes, which a single burst would catch at one moment.
SETUP_BURST = 5
SETUP_EVERY_S = 4.0
ENUMERATE_FORMATS = (("jsonl", False), ("pairs", False), ("dot", False), ("jsonl", True))
API_ID_RANGE = 64
RSS_METHOD = (
    "ru_maxrss from wait4() of each CLI process; for conflicts-api, "
    "getrusage(RUSAGE_SELF) of the benchmark process, which makes the calls"
)

UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "order_enum.extend_s": "s",
    "order_enum.filter_s": "s",
    "order_enum.matrices": "count",
    "order_enum.posets": "count",
    "order_enum.filter_calls": "count",
    "order_enum.keep_ratio": "ratio",
    "order_enum.matrices_per_s": "1/s",
    "conflicts.count_s": "s",
    "conflicts.count_calls": "count",
    "conflicts.count_call_p50_us": "us",
    "conflicts.count_call_p99_us": "us",
    "conflicts.list_s": "s",
    "conflicts.unpack_s": "s",
    "conflicts.structures": "count",
    "relations.validate_s": "s",
    "relations.to_rel_s": "s",
    "relations.cover_s": "s",
    "es_enum.self_s": "s",
    "es_enum.speedup_w2": "x",
    "cli.jsonl_s": "s",
    "cli.pairs_s": "s",
    "cli.dot_s": "s",
    "cli.canonical_s": "s",
    "cli.records": "count",
    "cli.bytes.jsonl": "B",
    "cli.bytes.pairs": "B",
    "cli.bytes.dot": "B",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}
END_TO_END = ("wall_s", "items_per_s", "setup_s", "peak_rss_mb", "call_p50_ms", "call_p99_ms")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


@dataclass(frozen=True)
class Workload:
    """kind is count-es, enumerate-es or conflicts-api.

    n is the number of events; for conflicts-api it is the largest poset
    size.  expected overrides the paper's count (the self-test uses it).
    """

    kind: str
    n: int
    expected: int | None = None

    def expected_count(self) -> int:
        if self.expected is not None:
            return self.expected
        return ES_COUNTS[self.n]


WORKLOADS = {
    "count-es-n6": Workload("count-es", 6),
    "enumerate-es-n5": Workload("enumerate-es", 5),
    "conflicts-api": Workload("conflicts-api", 6),
}


@dataclass
class Operation:
    """One repetition of a workload's unit of work, with its checks."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    items: int = 0
    starts: int = 0  # interpreter starts inside wall_s
    latencies: list[float] = field(default_factory=list)
    checked: int = 0
    failed: int = 0
    probe: list[float] = field(default_factory=list)  # host speed probe times (hostspeed.py)

    @property
    def scale(self) -> float:
        """Factor that states wall_s and latencies at the nominal host speed."""
        return hostspeed.scale(self.probe)


@dataclass
class Invocation:
    wall_s: float  # wall_s and cpu_s less the probe's own time
    cpu_s: float
    rss_mb: float
    stdout: str
    error: str | None
    probe: list[float] = field(default_factory=list)


class Bench:
    """State shared by the operations of one run."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.next_op = 0
        self.traces: list[dict] = []
        self.gate = (
            EnumerationGate(workload.n, workload.expected_count())
            if workload.kind == "enumerate-es"
            else None
        )
        self.blocks: list[list[frozenset]] = []  # conflicts-api inputs, in order
        self.sizes: list[int] = []  # conflicts-api result sizes, in the same order
        self._block_source = api_blocks(seed, workload.n)
        # Started while this process is still small: see launcher.py.
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=self.env,
        )

    # -- processes ---------------------------------------------------------

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def spawn(self, argv: list[str]) -> Invocation:
        """Run one python3 process to completion; time it and read its rusage."""
        out_path = self.scratch / "stdout"
        err_path = self.scratch / "stderr"
        request = {
            "argv": [sys.executable, *argv],
            "stdout": str(out_path),
            "stderr": str(err_path),
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        reply = json.loads(reply)
        error = None
        if reply["exit"] != 0:
            tail = err_path.read_text(errors="replace")[-300:]
            error = f"exit {reply['exit']}: {tail.strip()}"
        return Invocation(
            reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024, out_path.read_text(), error
        )

    def cli(self, args: list[str], *, traced: bool = False) -> Invocation:
        op = self.next_op
        self.next_op += 1
        if not traced:
            probe_path = self.scratch / "probe.json"
            inv = self.spawn([str(HERE / "hostspeed.py"), str(probe_path), "--", *args])
            if inv.error is None:
                inv.probe = json.loads(probe_path.read_text())
                inv.wall_s -= sum(inv.probe)
                inv.cpu_s -= sum(inv.probe)
            return inv
        trace_path = self.scratch / f"trace-{op}.json"
        inv = self.spawn([str(HERE / "tracer.py"), str(trace_path), str(op), "--", *args])
        if inv.error is None:
            trace = json.loads(trace_path.read_text())
            trace["argv"] = args
            self.traces.append(trace)
        return inv

    def setup_samples(self, count: int) -> list[float]:
        """Times to start the interpreter and import eventstruct."""
        times = []
        for _ in range(count):
            inv = self.spawn(["-c", "import eventstruct"])
            if inv.error is not None:
                raise RuntimeError(f"cannot import eventstruct: {inv.error}")
            times.append(inv.wall_s)
        return times

    # -- operations --------------------------------------------------------

    def operation(self, *, traced: bool = False) -> Operation:
        kind = self.workload.kind
        if kind == "count-es":
            return self.count_op(traced=traced)
        if kind == "enumerate-es":
            return self.enumerate_op(traced=traced)
        return self.api_op()

    def count_op(self, *, traced: bool = False, workers: int = 1) -> Operation:
        w = self.workload
        args = ["count", "es", "--n", str(w.n), "--workers", str(workers)]
        inv = self.cli(args, traced=traced)
        error = inv.error or check_count(inv.stdout, w.expected_count())
        report(error)
        return Operation(
            wall_s=inv.wall_s,
            cpu_s=inv.cpu_s,
            rss_mb=inv.rss_mb,
            items=w.expected_count(),
            starts=1,
            latencies=[inv.wall_s],
            checked=1,
            failed=int(error is not None),
            probe=inv.probe,
        )

    def enumerate_op(self, *, traced: bool = False) -> Operation:
        w = self.workload
        op = Operation()
        for fmt, canonical in ENUMERATE_FORMATS:
            out = self.scratch / f"enumerate-{fmt}{'-canonical' if canonical else ''}.out"
            args = ["enumerate", "es", "--n", str(w.n), "--format", fmt, "--out", str(out)]
            inv = self.cli(args + ["--canonical"] if canonical else args, traced=traced)
            data = out.read_bytes() if inv.error is None else b""
            error = inv.error or self.gate.check(fmt, canonical, data)
            report(error)
            op.wall_s += inv.wall_s
            op.cpu_s += inv.cpu_s
            op.rss_mb = max(op.rss_mb, inv.rss_mb)
            op.items += w.expected_count()
            op.starts += 1
            op.latencies.append(inv.wall_s)
            op.probe += inv.probe
            op.checked += 1
            op.failed += error is not None
            if traced and inv.error is None:
                self.traces[-1]["bytes"] = len(data)
                self.traces[-1]["records"] = data.count(b"digraph " if fmt == "dot" else b"\n")
        return op

    def api_op(self) -> Operation:
        posets = next(self._block_source)
        self.blocks.append(posets)
        op = Operation()
        with hostspeed.Probe() as probe:
            for p in posets:
                latency, cpu_s, size, error = api_call(p, probe)
                op.cpu_s += cpu_s
                op.latencies.append(latency)
                op.wall_s += latency
                op.items += size
                op.checked += 1
                self.sizes.append(size)
                report(error)
                op.failed += error is not None
        op.probe = probe.samples
        op.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return op

    def api_replay_traced(self) -> Operation:
        """Repeat every call of the untraced loop under the tracer."""
        from eventstruct import conflicts

        tracer = Tracer(self.next_op)
        uninstall = install(tracer)
        call = tracer.span("conflicts.allowed_conflicts", conflicts.allowed_conflicts)
        op = Operation()
        try:
            for p, size in zip((p for block in self.blocks for p in block), self.sizes):
                start = time.perf_counter()
                result = call(p)
                op.wall_s += time.perf_counter() - start
                op.checked += 1
                error = None
                if len(result) != size:
                    error = f"traced call listed {len(result)}, untraced {size}"
                report(error)
                op.failed += error is not None
        finally:
            uninstall()
        self.traces.append(tracer.dump())
        return op


def report(error: str | None) -> None:
    if error is not None:
        print(f"perfbench: check failed: {error}", file=sys.stderr)


def api_call(p: frozenset, probe: hostspeed.Probe) -> tuple[float, float, int, str | None]:
    """Time allowed_conflicts(p) and check its result.

    Returns the latency and the CPU time, both less the probe's time
    during the call, the number of conflicts and the failed check, if
    any.  The result is dropped on return, so the process's peak RSS
    holds at most one call's result.
    """
    from eventstruct import allowed_conflicts, count_allowed_conflicts
    from eventstruct.oracle import brute_force_conflicts

    probed = probe.total_s
    cpu = time.process_time()
    start = time.perf_counter()
    result = allowed_conflicts(p)
    latency = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    probed = probe.total_s - probed
    latency -= probed
    cpu_s -= probed
    distinct = set(result)
    if len(distinct) != len(result):
        error = f"allowed_conflicts returned {len(result) - len(distinct)} duplicates"
    elif len(result) != count_allowed_conflicts(p):
        error = f"allowed_conflicts listed {len(result)}, count_allowed_conflicts disagrees"
    elif len({e for pair in p for e in pair}) <= 4 and distinct != brute_force_conflicts(p):
        error = "allowed_conflicts differs from the brute-force oracle"
    else:
        error = None
    return latency, cpu_s, len(result), error


def api_blocks(seed: int, max_events: int):
    """Endless blocks of random posets for the conflicts-api workload.

    Each block holds one poset per stratum (k events, e DAG edges) for
    k = 3..max_events and e = 0..k(k-1)/2, so each poset's edge density
    e / C(k, 2) is drawn from a fixed stratified mix.  Every block thus
    has the same share of near-antichains of max_events events, which
    dominate the latency tail, and runs on different seeds stay
    comparable.  Which edges, and the distinct ids from 0..63 that the
    events are relabeled onto, are drawn at random.
    """
    rng = random.Random(seed)
    strata = [(k, e) for k in range(3, max_events + 1) for e in range(k * (k - 1) // 2 + 1)]
    while True:
        yield [random_poset(rng, k, e) for k, e in strata]


def random_poset(rng: random.Random, k: int, edges: int) -> frozenset:
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    reach = [1 << a for a in range(k)]
    for a, b in rng.sample(pairs, edges):
        reach[a] |= 1 << b
    for a in range(k - 1, -1, -1):  # edges point to higher indices: close from the top
        for b in range(a + 1, k):
            if reach[a] >> b & 1:
                reach[a] |= reach[b]
    ids = rng.sample(range(API_ID_RANGE), k)
    return frozenset((ids[a], ids[b]) for a in range(k) for b in range(k) if reach[a] >> b & 1)


# -- metrics ----------------------------------------------------------------


@dataclass
class Measurement:
    ops: list[Operation]
    setup_s: list[float]  # raw set-up times
    setup_scale: list[float]  # the scale of each: that of the operation after it, or the last


def measure(bench: Bench, seconds: float) -> Measurement:
    """Operations until their raw time reaches seconds, with set-up samples."""
    bench.setup_samples(1)  # writes the bytecode cache
    m = Measurement([], [], [])
    spent = 0.0
    last_burst = -math.inf
    while not m.ops or spent < seconds:
        if time.perf_counter() - last_burst >= SETUP_EVERY_S:
            m.setup_s += bench.setup_samples(SETUP_BURST)
            last_burst = time.perf_counter()
        op = bench.operation()
        m.setup_scale += [op.scale] * (len(m.setup_s) - len(m.setup_scale))
        m.ops.append(op)
        spent += op.wall_s
    m.setup_s += bench.setup_samples(SETUP_BURST)
    m.setup_scale += [m.ops[-1].scale] * SETUP_BURST
    return m


def end_to_end(m: Measurement) -> dict[str, float]:
    """Medians over operations, percentiles over single calls or CLI invocations.

    Every time is stated at the nominal host speed.
    """
    ops = m.ops
    setup_s = statistics.median(t * f for t, f in zip(m.setup_s, m.setup_scale))
    latencies = [latency * op.scale for op in ops for latency in op.latencies]
    return {
        "wall_s": statistics.median(op.wall_s * op.scale for op in ops),
        "items_per_s": statistics.median(
            op.items / (op.wall_s * op.scale - op.starts * setup_s) for op in ops
        ),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "call_p50_ms": percentile(latencies, 50) * 1e3,
        "call_p99_ms": percentile(latencies, 99) * 1e3,
    }


def per_layer(
    bench: Bench, ops: list[Operation], overhead: float, speedup_w2: float
) -> dict[str, float]:
    """Per-layer metrics from the traced operation's spans.

    Times are summed over the traced operation (for enumerate-es, its
    four CLI invocations).  Counts are per invocation: every invocation
    of one operation does the same work, so they read the paper's
    numbers.  A layer the workload does not reach reads 0.
    """
    # Without a trace (the traced operation failed, and was counted) every metric reads 0.
    empty = {"self_s": {}, "calls": {}, "tallies": {}, "percentiles_s": {}}
    summaries = [trace["summary"] for trace in bench.traces] or [empty]

    def self_s(name: str) -> float:
        return sum(s["self_s"].get(name, 0.0) for s in summaries)

    def per_invocation(key: str, name: str) -> float:
        return statistics.median(s[key].get(name, 0) for s in summaries)

    extend = self_s("order_enum.extend")
    filtered = self_s("order_enum.filter")
    matrices = per_invocation("tallies", f"order_enum.matrices.{bench.workload.n}")
    examined = per_invocation("calls", "order_enum.filter")
    posets = per_invocation("tallies", "order_enum.filter")
    count_pct = [
        s["percentiles_s"]["conflicts.count"]
        for s in summaries
        if "conflicts.count" in s["percentiles_s"]
    ]

    def count_call_us(key: str) -> float:
        return statistics.median(p[key] for p in count_pct) * 1e6 if count_pct else 0.0

    metrics = {
        "order_enum.extend_s": extend,
        "order_enum.filter_s": filtered,
        "order_enum.matrices": matrices,
        "order_enum.posets": posets,
        "order_enum.filter_calls": examined,
        "order_enum.keep_ratio": posets / examined if examined else 0.0,
        "order_enum.matrices_per_s": (
            examined * len(summaries) / (extend + filtered) if examined else 0.0
        ),
        "conflicts.count_s": self_s("conflicts.count"),
        "conflicts.count_calls": per_invocation("calls", "conflicts.count"),
        "conflicts.count_call_p50_us": count_call_us("p50"),
        "conflicts.count_call_p99_us": count_call_us("p99"),
        "conflicts.list_s": self_s("conflicts.list"),
        "conflicts.unpack_s": self_s("conflicts.unpack"),
        "conflicts.structures": per_invocation("tallies", "conflicts.count")
        + per_invocation("tallies", "conflicts.list"),
        "relations.validate_s": self_s("relations.validate"),
        "relations.to_rel_s": self_s("relations.to_rel"),
        "relations.cover_s": self_s("relations.cover"),
        "es_enum.self_s": sum(
            (v for s in summaries for k, v in s["self_s"].items() if k.startswith("es_enum.")), 0.0
        ),
        "es_enum.speedup_w2": speedup_w2,
        "process.cpu_s": statistics.median(op.cpu_s for op in ops),
        "trace.overhead_s": overhead,
        "cli.records": 0,
    }
    for fmt in ("jsonl", "pairs", "dot", "canonical"):
        metrics[f"cli.{fmt}_s"] = 0.0
        metrics[f"cli.bytes.{fmt}"] = 0
    for trace in bench.traces:
        if "records" in trace:
            args = trace["argv"]
            fmt = "canonical" if "--canonical" in args else args[args.index("--format") + 1]
            metrics[f"cli.{fmt}_s"] = trace["summary"]["self_s"].get("cli.emit", 0.0)
            metrics[f"cli.bytes.{fmt}"] = trace["bytes"]
            metrics["cli.records"] = trace["records"]
    return {name: metrics[name] for name in PER_LAYER}


def run(bench: Bench, seconds: float, trace: bool) -> tuple[dict[str, float], Measurement]:
    m = measure(bench, seconds)
    ops = m.ops
    if not trace:
        return end_to_end(m), m
    extra: list[Operation] = []
    speedup_w2 = 0.0
    if bench.workload.kind == "conflicts-api":
        traced = bench.api_replay_traced()
        overhead = traced.wall_s - sum(op.wall_s for op in ops)  # the replay repeats every call
    else:
        traced = bench.operation(traced=True)
        overhead = traced.wall_s - statistics.median(op.wall_s for op in ops)
        if bench.workload.kind == "count-es":
            parallel = bench.count_op(workers=2)
            extra.append(parallel)
            speedup_w2 = statistics.median(op.wall_s for op in ops) / parallel.wall_s
    extra.append(traced)
    m.ops = ops + extra
    return per_layer(bench, ops, overhead, speedup_w2), m


# -- environment and output -------------------------------------------------


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": git_commit(),
        "seed": seed,
        "peak_rss": RSS_METHOD,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not (SRC / "eventstruct" / "__init__.py").is_file():
        print(f"perfbench: no eventstruct sources under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCES
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = workloads[args.workload]
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        bench = Bench(workload, args.seed, scratch)
        try:
            metrics, m = run(bench, args.seconds, bool(args.trace))
        finally:
            bench.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(op.checked for op in m.ops)
    failed = sum(op.failed for op in m.ops)
    env = environment(args.seed)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print("env " + json.dumps(env))
    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "env": env, "operations": bench.traces}, handle)
        print(f"spans {trace_path}")
    probes = [t for op in m.ops for t in op.probe]
    probe_ms = statistics.median(probes) * 1e3 if probes else 0.0
    print(
        f"host probe_ms median {probe_ms:.4f} over {len(probes)} samples, "
        f"nominal {hostspeed.NOMINAL_S * 1e3:.4f}; raw medians: "
        f"wall_s {statistics.median(op.wall_s for op in m.ops)} s, "
        f"setup_s {statistics.median(m.setup_s)} s"
    )
    for name, value in metrics.items():
        print(f"{name} {value} {UNITS[name]}")
    print(f"ops_failed_ratio {failed / attempted} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
