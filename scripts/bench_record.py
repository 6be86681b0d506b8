#!/usr/bin/env python3
"""Run the benchmark on all workloads and record its result as BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr N

Runs BENCHMARK.json's command with `--workload all`, its run_seconds,
seed 1 and trace 0, from the root of the source tree, and writes the
final metrics line (the last line of its output, one JSON object),
together with the commit, whether the working tree differed from it and
the argv that was run, to BENCH_<pr>.json at the root.  The benchmark's
own summary lines are echoed to standard error.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TRACE = 0


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="number in the output file name BENCH_<pr>.json")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"] + [
        "--workload", "all", "--seed", str(SEED),
        "--seconds", str(bench["run_seconds"]), "--trace", str(TRACE)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("bench_record: the benchmark exited %d" % done.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    record = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "tests",
                          "perfbench")),
        "command": command,
        "seed": SEED,
        "seconds": bench["run_seconds"],
        "trace": TRACE,
        "result": result,
    }
    out = ROOT / ("BENCH_%d.json" % args.pr)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out.name)
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
