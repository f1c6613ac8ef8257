"""Starts the CLI processes that run.py times, one at a time.

A child's peak RSS, as wait4 reports it, is at least the RSS of the process
it was forked from, because the kernel carries the pre-exec high-water mark
over.  run.py holds numpy and every expected answer, so its children would
report its size instead of their own.  This process imports nothing heavy,
so the children it forks report their own peak.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "stdin",
"stdout", "stderr"} with file paths (stdin may be null); one JSON reply per
line on stdout, {"wall", "cpu", "rss_kb", "code"}.  The only argument is
the per-call timeout in seconds, after which the child is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdin"] or os.devnull, "rb") as inp, \
                open(req["stdout"], "wb") as out, \
                open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=inp, stdout=out,
                                    stderr=err, cwd=req["cwd"])
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        print(json.dumps({"wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss,
                          "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
