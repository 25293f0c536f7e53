"""Starts the CLI processes of benchmark/run.py and reports how each went.

Linux gives a child process the peak resident memory of the process that
forked it as a floor for its own peak, so the CLI processes are started from
this small process rather than from the benchmark, which holds the N=10^6
inputs in memory.

Protocol, one JSON object per line. Request on stdin:
    {"commands": [[arg, ...], ...], "logs": [path, ...], "env": {...}, "cwd": path, "timeout": s}
Reply on stdout:
    {"wall_s": s, "codes": [exit code, ...], "rss_mb": [peak RSS, ...]}
The commands of one request start together and ``wall_s`` runs until the
last one exits. A command still running after ``timeout`` seconds is
killed. End of input on stdin ends the launcher.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    procs, logs, timers = [], [], []
    codes, rss = [], []
    start = time.perf_counter()
    try:
        for command, log_path in zip(request["commands"], request["logs"]):
            logs.append(open(log_path, "w"))
            procs.append(subprocess.Popen(command, env=request["env"], cwd=request["cwd"],
                                          stdout=subprocess.DEVNULL, stderr=logs[-1]))
        timers = [threading.Timer(request["timeout"], p.kill) for p in procs]
        for timer in timers:
            timer.start()
        for p in procs:
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            codes.append(p.returncode)
            rss.append(usage.ru_maxrss / 1024.0)
        wall = time.perf_counter() - start
    finally:
        for timer in timers:
            timer.cancel()
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
        for log in logs:
            log.close()
    return {"wall_s": wall, "codes": codes, "rss_mb": rss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
