"""Starts the benchmark's child processes from a small process.

On Linux a child's ru_maxrss starts from the resident size of the process
that spawned it.  The benchmark holds its inputs in memory, so children it
spawned itself would report its size as their peak.  This process stays
small: it reads one JSON request per line on stdin,

    {"argv": [...], "env": {...}, "stdout": path, "stderr": path}

runs that child to completion, and writes one JSON line back with the
child's exit code, wall seconds, peak RSS in MB, CPU seconds, and the
times of the probe loops run while it ran.  It exits at the end of its input.

Probes: every PROBE_EVERY_S seconds while the child runs, this process
times loop() once.  It shares the child's CPU (the benchmark pins both to
one), so a probe takes the CPU from the child for about a millisecond and
measures the host's speed on that CPU at that moment.
"""

import json
import os
import select
import signal
import sys
import time

LOOP = 1500
PROBE_EVERY_S = 0.25

_child = None


def loop():
    """CPU seconds of a fixed pure-Python task: counting into a dict keyed by
    small tuples, then sorting its items.  As the host slows, this slows
    about as much as the package's table code does; an arithmetic loop
    slows less.  CPU time, not wall time, so a probe the child preempts is
    not counted slow."""
    t0 = time.process_time()
    counts = {}
    for i in range(LOOP):
        key = (i % 13, i % 17)
        counts[key] = counts.get(key, 0) + i * i % 7
    sorted(counts.items())
    return time.process_time() - t0


def _stop(signum, frame):
    """On SIGTERM, end the running child with this process."""
    if _child is not None:
        os.kill(_child, signal.SIGKILL)
        os.waitpid(_child, 0)
    os._exit(1)


def run(req):
    global _child
    probes = []
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = time.perf_counter()
        _child = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                                file_actions=actions)
        exited = os.pidfd_open(_child)
        try:
            while not select.select([exited], [], [], PROBE_EVERY_S)[0]:
                probes.append(loop())
            wall = time.perf_counter() - t0
        finally:
            os.close(exited)
        _, status, ru = os.wait4(_child, 0)
        _child = None
    return {"code": os.waitstatus_to_exitcode(status), "wall": wall,
            "maxrss_mb": ru.ru_maxrss / 1024, "cpu": ru.ru_utime + ru.ru_stime,
            "probes": probes}


def main():
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
