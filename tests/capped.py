"""Run a request that a size guard must refuse in a capped child process.

If the guard regresses, the child runs out of its own address space or
CPU time and the test fails, instead of the request exhausting the host.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
MEMORY_CAP = 1 << 29   # bytes of address space
CPU_CAP = 30           # seconds

PREAMBLE = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (%d, %d))\n"
    "resource.setrlimit(resource.RLIMIT_CPU, (%d, %d))\n"
    % (MEMORY_CAP, MEMORY_CAP, CPU_CAP, CPU_CAP))


def run_capped(code, *argv):
    """Run python code (after the caps) with argv; return the finished
    process with text stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", PREAMBLE + code, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=4 * CPU_CAP)
