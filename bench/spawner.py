"""Starts and times the benchmark's child processes on behalf of run.py.

On Linux a child's ru_maxrss also counts the peak RSS of the process that
started it, whose memory map the child holds until exec. run.py holds the
output oracle (the package, numpy and scipy), so its children are started
from this small process instead, and their peak RSS is their own.

Reads one JSON request per line on stdin, `[argv, stdout path, stderr
path]`, and answers each with one JSON line on stdout, `[wall s, exit
code, peak RSS MB]`. Children inherit this process's environment and
working directory. Exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 150.0


def spawn(argv: list[str], stdout: str, stderr: str) -> tuple[float, int, float]:
    """Run one child to completion: (wall s, exit code, peak RSS MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(spawn(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
