"""Start and reap run.py's children from a process that stays small.

At exec, Linux folds the peak RSS of the process that started a child into
the child's ru_maxrss. run.py grows while it parses artifacts, so it starts
no gaplab child itself. It starts this process first, while it is still
small, and sends it one JSON request per line:

    {"cmd": [...], "cwd": "...", "env": {...}, "log": "...", "timeout": seconds}

Each reply is one JSON line with wall_s (spawn to exit), maxrss_kb, cpu_s
and returncode, taken from os.wait4 on that child alone. A child still
running after its timeout is killed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=out)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime, "returncode": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
