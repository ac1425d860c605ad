"""Host speed probe, by which run.py scales its end-to-end times.

The shared host the benchmark was written on runs a process at speeds up
to 1.7 times apart.  It changes speed over minutes and from one second to
the next (see README.md, "Host speed").  Raw times of unchanged code then
differ between runs by more than a change worth reporting.

The probe is a fixed pure-Python loop that uses no eventstruct code, so
no change to the package can move it.  Like the package, it builds small
tuples, sets and frozensets; it takes about 1 ms.  A SIGALRM timer runs
it every INTERVAL_S inside the measured process itself, so it sees the
vCPU and the moment the measured code runs on.  The garbage collector is
off while it runs, so the measured code's objects do not slow it.  Probe
time is subtracted from the times it interrupts.

run.py multiplies an operation's times by NOMINAL_S / (median probe
time over the operation).  That states them at the host speed where the
loop takes NOMINAL_S: in effect, in units of the loop.

Run as a script, it runs one eventstruct CLI invocation under the probe
and writes the probe times as a JSON list when the invocation ends:

    python3 perfbench/hostspeed.py PROBE_JSON -- count es --n 6 --workers 1
"""

from __future__ import annotations

import gc
import json
import signal
import sys
import time

NOMINAL_S = 0.001  # the loop's time on the baseline host (README.md) in its fast state
INTERVAL_S = 0.05


def _loop() -> int:
    seen = set()
    for i in range(100):
        rows = [(i * 2654435761 >> s) & 63 for s in range(0, 24, 4)]
        pairs = frozenset((a, b) for a in range(6) for b in range(6) if rows[a] >> b & 1)
        seen.add(pairs)
        inverse = {b: a for a, b in pairs}
        seen.add(frozenset(sorted(rows)) | frozenset(inverse))
    return len(seen)


class Probe:
    """Runs the loop every INTERVAL_S while the with-block runs; keeps each loop's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.total_s = 0.0

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _loop()
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(elapsed)
        self.total_s += elapsed

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(samples: list[float]) -> float:
    """Factor that states a time measured while the probe took samples at NOMINAL_S speed."""
    import statistics  # here: the CLI wrapper does not need it, and it is slow to import

    if not samples:
        return 1.0
    return NOMINAL_S / statistics.median(samples)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: hostspeed.py PROBE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 1
    from eventstruct import cli

    with Probe() as probe:
        code = cli.main(argv[2:])
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump(probe.samples, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
