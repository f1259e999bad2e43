"""Start one command, wait for it, and report its exit code, wall time,
CPU time and peak RSS.

    python3 -S -I perfbench/launch.py TIMEOUT RESULT_FILE -- ARGV...

The child's stdout and stderr are this process's.  Linux counts the
memory of the process that spawned a child in the child's peak RSS, so
children are spawned from this small interpreter rather than from the
benchmark, whose own memory would otherwise be reported as theirs.  A
child still running after TIMEOUT seconds is killed and reaped.

RESULT_FILE gets one line: exit code (or "timeout"), wall seconds, CPU
seconds, peak RSS in KiB.
"""

import os
import signal
import sys
import time


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[3] != "--":
        print("usage: launch.py TIMEOUT RESULT_FILE -- ARGV...", file=sys.stderr)
        return 1
    timeout, result, argv = float(sys.argv[1]), sys.argv[2], sys.argv[4:]
    timed_out = False
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)

    def kill(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    code = "timeout" if timed_out else os.waitstatus_to_exitcode(status)
    with open(result, "w") as fh:
        fh.write(f"{code} {wall!r} {usage.ru_utime + usage.ru_stime!r} "
                 f"{usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
