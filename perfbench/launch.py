"""Starts, times and reaps the benchmark's commands on behalf of run.py.

Linux carries a process's memory high-water mark across fork and exec, so
a command started by a process that has held large arrays would report
that process's peak as its own max-RSS.  run.py therefore starts this
small helper before it loads numpy or any input, and every command is
started from here.

Protocol, one JSON object per line.  Request on stdin::

    {"argv": [...], "cwd": "...", "stdout": "...", "stderr": "...", "timeout": 120}

Reply on stdout::

    {"wall_s": 0.31, "maxrss_kb": 30412, "exit_code": 0}

The helper exits when its stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    running: list[subprocess.Popen] = []

    def on_timeout(signum, frame) -> None:
        for proc in running:
            proc.kill()

    signal.signal(signal.SIGALRM, on_timeout)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"],
                cwd=request["cwd"],
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )
            running.append(proc)
            signal.alarm(request["timeout"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                running.clear()
            wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit_code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
