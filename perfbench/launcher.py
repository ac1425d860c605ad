"""Spawns the benchmark's processes on request and reports their time and rusage.

A process's ru_maxrss starts from the memory of the process that spawned
it, and the benchmark process grows while it checks outputs.  Spawning
from this small, long-lived process keeps each child's peak RSS its own.

Protocol: one JSON request per stdin line, {"argv": [...], "stdout": path,
"stderr": path}; one JSON reply per stdout line, {"wall_s": .., "cpu_s":
.., "maxrss_kb": .., "exit": ..}.  The launcher exits at end of input.
"""

import json
import os
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_CLOSE, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], WRITE, 0o644),
        ]
        argv = request["argv"]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "exit": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
