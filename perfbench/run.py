"""Benchmark of the nquasigroups package and its `nqg` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  `--workload all` runs the three
workloads one after another.  `--quick` makes one pass with minimal
repetition, for the benchmark's own tests.

Untraced (--trace 0): every job is a fresh `python -m nquasigroups.cli`
process, started one at a time and waited for (one closed-loop client; the
package is imported from src/, not installed).  Whole passes of the job list
run until the next would overrun --seconds.  Reports wall_s, setup_s and
peak_rss_mb; failed_ratio is failed/attempted in the result line.  The
speed of the shared host drifts by up to twice over tens of seconds, so a
fixed pure-Python task (launcher.loop) is timed between launches and every
quarter second during each, on the CPU the children are pinned to, and each
launch's wall time is scaled to a reference speed by those loop times; the
unscaled times and the loop times are kept in the run's record.

Traced (--trace 1): one subprocess pass, one in-process `cli.run` pass, one
replay of the jobs as public library calls under spans (workload -> job ->
layer call), then timed probes of every layer.  Reports the per-layer
metrics and writes the spans to perfbench/out/.

The last line of standard output is the result as one JSON object.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from launcher import loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_Q34 = ROOT / "tests" / "golden" / "q34_count.txt"
OUT = ROOT / "perfbench" / "out"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_LAUNCHES = 20
IMPORT_LAUNCHES = 7
CALIBRATION_REPEATS = 15
# Seconds loop() takes at the reference host speed; wall_s and setup_s are
# reported as if the host ran at that speed (see calibrated).
CALIBRATION_REF_S = 0.0006


def summarize(samples):
    """Median, and the highest of p90/p99/p99.9 with ten samples beyond it."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs), "tail": None}
    for p in (99.9, 99, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            out["tail"] = {"p": p, "value": xs[math.ceil(p / 100 * len(xs)) - 1]}
            break
    return out


def calibrate():
    """Median of CALIBRATION_REPEATS timings of loop(), in seconds."""
    return statistics.median(loop() for _ in range(CALIBRATION_REPEATS))


def pin_to_one_cpu():
    """Keep this process, and so the launcher and every child, on the last
    CPU it may use.  The CPUs of the shared host change speed independently,
    so the calibration loop must run on the CPU the children run on.
    Returns the CPUs allowed before."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus


def environment(cpus):
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"commit": commit, "nproc": len(cpus), "pinned_cpu": cpus[-1],
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


@dataclass
class Launch:
    """One finished child process."""

    wall: float
    code: int
    maxrss_mb: float
    cpu: float
    probes: list


class Launcher:
    """Runs children one at a time through launcher.py, a small process, so
    their peak RSS is not inflated by this one's (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("launcher.py"))],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv, out_path, err_path):
        """Run this interpreter with argv and src/ on its path; wait for it."""
        req = {"argv": [sys.executable] + argv, "env": self.env,
               "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited with code %s" % self.proc.wait())
        return Launch(**json.loads(reply))

    def nqg(self, argv, out_path, err_path):
        return self.run(["-m", "nquasigroups.cli"] + argv, out_path, err_path)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.proc.terminate()  # the launcher kills its running child
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def calibrated(launch, count):
    """Run launch(i) for i < count, calibrating before the first and after
    each.  Returns the launches, the calibrations, and each launch's wall
    seconds scaled to reference host speed: times CALIBRATION_REF_S over the
    mean loop time of the calibrations on either side of it and the probes
    taken while it ran."""
    cal = [calibrate()]
    runs = []
    for i in range(count):
        runs.append(launch(i))
        cal.append(calibrate())
    scaled = [r.wall * CALIBRATION_REF_S / statistics.mean([c0, c1, *r.probes])
              for r, c0, c1 in zip(runs, cal, cal[1:])]
    return runs, cal, scaled


def setup_times(launcher, work, count):
    """Scaled wall seconds of `nqg --help` launches: interpreter start,
    import of the CLI and parser construction, no table work."""
    runs, cal, scaled = calibrated(
        lambda i: launcher.nqg(["--help"], work / "help.out", work / "help.err"),
        count)
    bad = 0
    for r in runs:
        if r.code != 0 or "usage: nqg" not in (work / "help.out").read_text():
            bad += 1
    return {"scaled_s": scaled, "raw_s": [r.wall for r in runs],
            "calibration_s": cal}, bad


def import_times(launcher, work, count):
    """Seconds to import nquasigroups.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import nquasigroups.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(count):
        r = launcher.run(["-c", code], work / "import.out", work / "import.err")
        if r.code != 0:
            raise RuntimeError("importing nquasigroups.cli failed")
        times.append(float((work / "import.out").read_text()))
    return times


def check_job(job, inp, code):
    """None when the job exited 0 and its output is right, else why not."""
    if code != 0:
        return "exit code %d" % code
    return job.check(Path(inp.path(job.out)).read_text())


def subprocess_pass(launcher, jobs, inp):
    """One pass of the job list; wall_s sums the jobs' scaled wall times."""
    runs, cal, scaled = calibrated(
        lambda i: launcher.nqg(jobs[i].argv, inp.path(jobs[i].out),
                               inp.path(jobs[i].name + ".err")),
        len(jobs))
    checks = {job.name: check_job(job, inp, r.code) for job, r in zip(jobs, runs)}
    return {
        "wall_s": sum(scaled),
        "raw_wall_s": sum(r.wall for r in runs),
        "calibration_s": cal,
        "peak_rss_mb": max(r.maxrss_mb for r in runs),
        "child_cpu_s": sum(r.cpu for r in runs),
        "job_wall_s": {job.name: r.wall for job, r in zip(jobs, runs)},
        "job_scaled_s": {job.name: t for job, t in zip(jobs, scaled)},
        "job_probes_s": {job.name: r.probes for job, r in zip(jobs, runs)},
        "job_maxrss_mb": {job.name: r.maxrss_mb for job, r in zip(jobs, runs)},
        "failures": {name: why for name, why in checks.items() if why},
    }


def paired_pass(launcher, jobs, inp):
    """Each job as a child process, then at once the same argv through
    cli.run in this process with stdout to the same file.  Pairing them
    job by job keeps host-speed drift out of their difference."""
    from nquasigroups import cli
    rec = {"subprocess_s": {}, "inprocess_s": {}, "child_cpu_s": 0.0,
           "failures": {}}
    for job in jobs:
        r = launcher.nqg(job.argv, inp.path(job.out), inp.path(job.name + ".err"))
        rec["subprocess_s"][job.name] = r.wall
        rec["child_cpu_s"] += r.cpu
        why = check_job(job, inp, r.code)
        if why:
            rec["failures"][job.name + " (subprocess)"] = why
        with open(inp.path(job.out), "w") as fh, contextlib.redirect_stdout(fh):
            t0 = time.perf_counter()
            code = cli.run(job.argv)
            rec["inprocess_s"][job.name] = time.perf_counter() - t0
        why = check_job(job, inp, code)
        if why:
            rec["failures"][job.name + " (cli.run)"] = why
    return rec


def traced_pass(tr, name, jobs, inp):
    failures = {}
    root = tr.begin("workload:" + name)
    for job in jobs:
        span = tr.begin("job:" + job.name)
        try:
            text = job.replay(tr)
            tr.call("cli.write", Path(inp.path(job.out)).write_text, text)
        except Exception as e:  # a library error fails this job, not the run
            failures[job.name] = "%s: %s" % (type(e).__name__, e)
        finally:
            tr.end(span)
        if job.name not in failures:
            problem = job.check(text)
            if problem:
                failures[job.name] = problem
    tr.end(root)
    return root, failures


def run_untraced(launcher, jobs, inp, work, seconds, quick):
    """Half the set-up launches before the passes and half after, so set-up
    and wall time sample the same stretch of host speed."""
    start = time.perf_counter()
    launches = 2 if quick else SETUP_LAUNCHES // 2
    first, setup_bad = setup_times(launcher, work, launches)
    reserve = time.perf_counter() - start
    passes = []
    while True:
        p = subprocess_pass(launcher, jobs, inp)
        passes.append(p)
        if quick or time.perf_counter() - start + p["raw_wall_s"] + reserve > seconds:
            break
    more, more_bad = setup_times(launcher, work, launches)
    setup = first["scaled_s"] + more["scaled_s"]
    setup_bad += more_bad
    attempted = len(jobs) * len(passes) + len(setup)
    failed = sum(len(p["failures"]) for p in passes) + setup_bad
    stats = {
        "wall_s": summarize([p["wall_s"] for p in passes]),
        "setup_s": summarize(setup),
        "peak_rss_mb": summarize([p["peak_rss_mb"] for p in passes]),
    }
    record = {"passes": passes, "setup_launches": [first, more],
              "setup_failures": setup_bad, "stats": stats}
    metrics = {m: {"value": stats[m]["median"], "unit": u} for m, u in END_TO_END}
    return metrics, attempted, failed, record


def run_traced(launcher, name, jobs, inp, work, quick, seed):
    import layers
    tr = layers.Tracer("%s-s%d-%d" % (name, seed, os.getpid()))
    imports = import_times(launcher, work, 2 if quick else IMPORT_LAUNCHES)
    # the inputs stay alive for the whole run; keep them out of the
    # collector's way so in-process calls cost what they cost in a fresh nqg
    gc.collect()
    gc.freeze()
    paired = paired_pass(launcher, jobs, inp)
    layers.warm_up()
    root, replay_failures = traced_pass(tr, name, jobs, inp)
    samples, results = layers.run_probes(tr, inp, quick=quick)

    sub_wall = sum(paired["subprocess_s"].values())
    inproc_wall = sum(paired["inprocess_s"].values())
    values = layers.medians(samples)
    values.update(layers.layer_counts(results))
    values["core.from_json.k5n8_peak_mb"] = layers.from_json_peak_mb(inp)
    values["cli.import_s"] = statistics.median(imports)
    values["cli.overhead_s"] = sub_wall - inproc_wall
    values["cli.bytes_in"] = sum(
        len(" ".join(job.argv).encode())
        + sum(Path(inp.path(f)).stat().st_size for f in job.inputs)
        for job in jobs)
    values["cli.bytes_out"] = sum(Path(inp.path(job.out)).stat().st_size
                                  for job in jobs)
    values["cli.child_cpu_s"] = paired["child_cpu_s"]
    units = {m: u for m, u, _ in layers.LAYER_METRICS}
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}

    own = layers.self_times(tr.spans)
    traced_wall = layers.duration(root)
    record = {
        "paired_pass": paired,
        "replay_failures": replay_failures,
        "traced_wall_s": traced_wall,
        "tracing_overhead_s": traced_wall - inproc_wall,
        "traced_minus_untraced_wall_s": traced_wall - sub_wall,
        "job_self_s": {s["name"][4:]: own[s["id"]] for s in tr.spans
                       if s["parent"] == root["id"]},
        "probe_samples": samples,
        "moves": {m: why for m, _, why in layers.LAYER_METRICS},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / ("spans-%s-s%d.json" % (name, seed))
    spans_path.write_text(json.dumps({"run_id": tr.run_id, "spans": tr.spans}))
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    attempted = 3 * len(jobs)
    failed = len(paired["failures"]) + len(replay_failures)
    return metrics, attempted, failed, record


def run_workload(name, seed, seconds, trace, quick, cpus):
    import jobs as jobs_mod
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        inp = jobs_mod.make_inputs(seed, work, GOLDEN_Q34)
        jobs = jobs_mod.WORKLOADS[name](inp)
        with Launcher() as launcher:
            if trace:
                metrics, attempted, failed, record = run_traced(
                    launcher, name, jobs, inp, work, quick, seed)
            else:
                metrics, attempted, failed, record = run_untraced(
                    launcher, jobs, inp, work, seconds, quick)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "quick": quick, "environment": environment(cpus),
                   "seed_reaches_nqg": name not in jobs_mod.UNSEEDED,
                   "inputs": {"pair": inp.pair, "switch": inp.switch,
                              "basepoint": inp.basepoint},
                   "attempted": attempted, "failed": failed,
                   "failed_ratio": failed / attempted, "metrics": metrics})
    (OUT / ("%s-s%d-t%d.json" % (name, seed, trace))).write_text(
        json.dumps(record, indent=1))
    return record


def print_summary(rec):
    print("%s seed %d trace %d: failed_ratio %.4g (%d/%d)"
          % (rec["workload"], rec["seed"], rec["trace"], rec["failed_ratio"],
             rec["failed"], rec["attempted"]))
    stats = rec.get("stats", {})
    for m, v in rec["metrics"].items():
        line = "  %-44s %.6g %s" % (m, v["value"], v["unit"])
        if m in stats:
            s = stats[m]
            tail = ("p%g %.6g" % (s["tail"]["p"], s["tail"]["value"]) if s["tail"]
                    else "no percentile has 10 samples beyond it")
            line += "  (median of %d; %s)" % (s["n"], tail)
        print(line)
    if "passes" in rec:
        print("  unscaled: pass wall median %.4g s, nqg --help median %.4g s"
              % (statistics.median(p["raw_wall_s"] for p in rec["passes"]),
                 statistics.median(t for s in rec["setup_launches"]
                                   for t in s["raw_s"])))
    if rec["trace"]:
        print("  tracing overhead %.4g s over the in-process pass; traced minus "
              "untraced wall %.4g s" % (rec["tracing_overhead_s"],
                                        rec["traced_minus_untraced_wall_s"]))
    failures = [p["failures"] for p in rec.get("passes", [])]
    failures += [rec.get("paired_pass", {}).get("failures", {}),
                 {job + " (replay)": why
                  for job, why in rec.get("replay_failures", {}).items()}]
    for f in failures:
        for job, why in f.items():
            print("  FAILED %s: %s" % (job, why))
    print("  environment %s" % json.dumps(rec["environment"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["exact-census", "family-certify", "table-pipeline", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "nquasigroups" / "cli.py", GOLDEN_Q34)
               if not p.is_file()]
    if missing:
        print("perfbench: not a source tree of nquasigroups, missing %s"
              % ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpus = pin_to_one_cpu()

    names = (["exact-census", "family-certify", "table-pipeline"]
             if args.workload == "all" else [args.workload])
    recs = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace, args.quick,
                           cpus)
        print_summary(rec)
        recs.append(rec)
    if len(recs) == 1:
        metrics = recs[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], m): v
                   for r in recs for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
