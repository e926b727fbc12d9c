"""Spawns the benchmark's child processes and reports wall time, exit code
and peak RSS for each.

Linux carries a process's peak RSS across fork and exec, so a child forked
from the benchmark process (which holds herdsim, numpy and whole traces)
would report the benchmark's RSS whenever that is larger than its own.  This
launcher imports only the standard library and stays small, so the peak RSS
that `os.wait4` returns for its children is their own.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "out"}; one
JSON reply per line on stdout, {"wall_s", "code", "rss_mb"}.  Exits at end of
input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "code": code,
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
