"""Start and time the benchmark's child processes from a small process.

Linux folds the resident-set high-water mark of the memory image a process
replaces at exec into that process's peak RSS, and a child made by fork or
vfork starts from its parent's image.  Children started by the benchmark
itself would therefore report at least the benchmark's own RSS, which grows
as it reads trajectories back.  This process imports only the standard
library, so the floor it adds to a child's peak RSS is a bare interpreter.

Protocol: one JSON request per stdin line,
    {"argv": [...], "stdout": path, "stderr": path, "limit_s": seconds}
one JSON reply per stdout line,
    {"rc", "wall_s", "maxrss_kb", "cpu_s", "killed"}.
The process exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pgid: int) -> bool:
    try:
        os.killpg(pgid, signal.SIGKILL)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def run_one(req: dict) -> dict:
    """Run one child in its own process group and wait for it.

    Wall time is taken around fork, exec and exit.  Peak RSS and CPU time
    come from wait4, so they cover the child and every descendant it
    reaped, such as the sweep's pool workers (RSS is the largest single
    process, not a sum).  A child still running at ``limit_s`` is killed
    with its whole group.
    """
    killed = []
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(req["limit_s"], 1.0),
                                lambda: _kill_group(proc.pid) and killed.append(True))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stray descendants, if any
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime, "killed": bool(killed)}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_one(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
