"""Spans and per-layer probes for the traced run.

Spans are recorded from the benchmark's side of each call into the library,
kept in memory and written out once when the run ends.  The probes time
the public functions of every layer in-process on the run's seeded inputs.
"""

import itertools
import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass

from nquasigroups import analysis, census, constructions, core


class Tracer:
    """Nested spans (name, start, end, parent) sharing one run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.results = {}  # span id -> value returned; kept in memory only
        self._stack = []
        self._t0 = time.perf_counter()

    def begin(self, name):
        span = {"id": len(self.spans), "name": name, "run_id": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        if self._stack[-1] is not span:
            raise RuntimeError("span %r closed out of order" % span["name"])
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            self.results[span["id"]] = value = fn(*args, **kwargs)
            return value
        finally:
            self.end(span)


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


# Per-layer metrics: name, unit, and the end-to-end metric and workload an
# optimisation of that layer should move (the others should stay put).
LAYER_METRICS = [
    ("core.validate.k5n6_s", "s", "wall_s on family-certify and table-pipeline; not exact-census"),
    ("core.validate.k5n8_s", "s", "wall_s on table-pipeline"),
    ("core.from_json.k5n8_s", "s", "wall_s on table-pipeline"),
    ("core.to_json.k5n8_s", "s", "wall_s on table-pipeline"),
    ("core.omega_product.n3k4_s", "s", "wall_s on exact-census (256 calls) and family-certify"),
    ("core.from_json.k5n8_peak_mb", "MB", "peak_rss_mb on table-pipeline"),
    ("analysis.reconstruct.k5n6_s", "s", "wall_s on table-pipeline"),
    ("analysis.reconstruct_with_split.k5n6_s", "s", "wall_s on table-pipeline"),
    ("analysis.extract_shell.k5n6_s", "s", "wall_s on table-pipeline"),
    ("analysis.find_reductions.k5n8_s", "s", "wall_s on table-pipeline"),
    ("analysis.find_reductions.irreducible_k5n6_s", "s", "wall_s on table-pipeline"),
    ("analysis.find_components.k5n8_s", "s", "wall_s on table-pipeline"),
    ("analysis.switch_component.k5n8_s", "s", "wall_s on table-pipeline and family-certify"),
    ("analysis.components.k5n8", "count", "a count; repeats exactly"),
    ("constructions.build_closed.n8k5_s", "s", "wall_s on table-pipeline"),
    ("constructions.build_irreducible.n6k5_s", "s", "wall_s on table-pipeline"),
    ("constructions.build_family5.n6_s", "s", "wall_s on family-certify"),
    ("constructions.build_family_k.n5k7_s", "s", "wall_s on family-certify"),
    ("census.enumerate_count.n3k4_s", "s", "wall_s on exact-census only"),
    ("census.enumerate_count.n2k5_s", "s", "wall_s on exact-census only"),
    ("census.verify_family.n6k5_s", "s", "wall_s on family-certify"),
    ("census.verify_family.n3k7_s", "s", "wall_s on family-certify"),
    ("census.verify_family.n5k7_s", "s", "wall_s on family-certify"),
    ("census.certify.materialized", "count", "a count (512 + 4096 + 0); repeats exactly"),
    ("cli.import_s", "s", "setup_s on every workload"),
    ("cli.overhead_s", "s", "wall_s, most on table-pipeline"),
    ("cli.bytes_in", "bytes", "a count"),
    ("cli.bytes_out", "bytes", "a count"),
    ("cli.child_cpu_s", "s", "diagnostic; follows wall_s"),
]

# Calls per probe: at least one, then more while they fit this many seconds.
PROBE_SECONDS = 0.3
PROBE_MAX_CALLS = 25


@dataclass
class Probe:
    """A timed call.  `args` is a tuple, or a function of the results so far.
    `jobs` name the workload jobs whose replay makes this very call, so a
    traced replay of them supplies samples and the result."""

    metric: str
    fn: object
    args: object
    jobs: tuple = ()

    @property
    def call_name(self):
        return self.metric.rsplit(".", 1)[0]


def _omega_map(seed):
    """Seeded block assignment as census builds it for (3,4)."""
    rng = random.Random(seed)
    choices = list(census.enumerate_tables(3, 2))
    blocks = itertools.product(range(2), repeat=3)
    return core.OmegaMap(2, 2, 3, {y: rng.choice(choices) for y in blocks})


def probes(inp):
    """The timed calls, on the same seeded inputs the jobs use."""
    a, b = inp.pair
    shell = analysis.extract_shell(inp.iso6, inp.basepoint)
    split = analysis.Split(frozenset((5, 6)))
    g = core.from_function(3, 2, lambda *x: sum(x) % 2)
    iso8_jobs = ("validate-iso8", "switch-iso8", "reductions-iso8")
    return [
        Probe("core.validate.k5n6_s", core.validate, (inp.iso6,)),
        Probe("core.validate.k5n8_s", core.validate, (inp.iso8,), ("validate-iso8",)),
        Probe("core.from_json.k5n8_s", core.from_json, (inp.iso8_text,), iso8_jobs),
        Probe("core.to_json.k5n8_s", core.to_json, (inp.iso8,)),
        Probe("core.omega_product.n3k4_s", core.omega_product,
              (g, _omega_map(inp.seed))),
        Probe("analysis.reconstruct.k5n6_s", analysis.reconstruct, (shell,),
              ("reconstruct-iso6",)),
        Probe("analysis.reconstruct_with_split.k5n6_s", analysis.reconstruct_with_split,
              (shell, split)),
        Probe("analysis.extract_shell.k5n6_s", analysis.extract_shell,
              (inp.iso6, inp.basepoint), ("shell-iso6",)),
        Probe("analysis.find_reductions.k5n8_s", analysis.find_reductions,
              (inp.iso8,), ("reductions-iso8",)),
        Probe("analysis.find_reductions.irreducible_k5n6_s", analysis.find_reductions,
              (inp.irr6,), ("reductions-irr6",)),
        Probe("analysis.find_components.k5n8_s", analysis.find_components,
              (inp.iso8, a, b), ("switch-iso8",)),
        Probe("analysis.switch_component.k5n8_s", analysis.switch_component,
              lambda res: (inp.iso8, res["analysis.find_components.k5n8_s"][inp.switch]),
              ("switch-iso8",)),
        Probe("constructions.build_closed.n8k5_s", constructions.build_closed,
              (8, 5, 2), ("construct-closed8",)),
        Probe("constructions.build_irreducible.n6k5_s", constructions.build_irreducible,
              (6, 5), ("construct-irr6",)),
        Probe("constructions.build_family5.n6_s", constructions.build_family5, (6,)),
        Probe("constructions.build_family_k.n5k7_s", constructions.build_family_k, (5, 7)),
        Probe("census.enumerate_count.n3k4_s", census.enumerate_count, (3, 4),
              ("census-n3k4",)),
        Probe("census.enumerate_count.n2k5_s", census.enumerate_count, (2, 5),
              ("census-n2k5",)),
        Probe("census.verify_family.n6k5_s", census.verify_family, (6, 5),
              ("census-n6k5",)),
        Probe("census.verify_family.n3k7_s", census.verify_family, (3, 7),
              ("census-n3k7",)),
        Probe("census.verify_family.n5k7_s", census.verify_family, (5, 7),
              ("census-n5k7",)),
    ]


def warm_up():
    """One small call of every probed function, so lazy set-up (fixture
    parsing, first-use allocations) is paid before any timing.  A second
    full-size call per probe would double the traced run."""
    t = constructions.build_closed(4, 5, 2)
    sh = analysis.extract_shell(t, (0, 0, 0, 0))
    core.validate(t)
    core.from_json(core.to_json(t))
    core.omega_product(core.from_function(3, 2, lambda *x: sum(x) % 2), _omega_map(0))
    analysis.reconstruct(sh)
    analysis.reconstruct_with_split(sh, analysis.Split(frozenset((3, 4))))
    analysis.find_reductions(constructions.build_irreducible(4, 5))
    comps = analysis.find_components(t, 0, 1)
    analysis.switch_component(t, comps[0])
    constructions.build_family5(3)
    constructions.build_family_k(2, 7)
    census.enumerate_count(2, 4)
    census.verify_family(2, 5)
    census.verify_family(2, 7)


def replayed(tr, probe):
    """Durations and last result of the replay's calls that match a probe."""
    jobs = {s["id"] for s in tr.spans if s["name"] in {"job:" + j for j in probe.jobs}}
    hits = [s for s in tr.spans if s["parent"] in jobs
            and s["name"] == probe.call_name and s["id"] in tr.results]
    return [duration(s) for s in hits], (tr.results[hits[-1]["id"]] if hits else None)


def run_probes(tr, inp, quick=False):
    """Time every probe under one root span, starting from the samples the
    traced replay already holds for the same call.

    Returns metric -> samples and metric -> the last call's result."""
    samples, results = {}, {}
    root = tr.begin("probes")
    for p in probes(inp):
        got, res = replayed(tr, p)
        samples[p.metric] = got
        if got:
            results[p.metric] = res
        while not got or (not quick and len(got) < PROBE_MAX_CALLS
                          and sum(got) < PROBE_SECONDS):
            args = p.args(results) if callable(p.args) else p.args
            span = tr.begin(p.metric)
            try:
                results[p.metric] = p.fn(*args)
            finally:
                tr.end(span)
            got.append(duration(span))
    tr.end(root)
    return samples, results


def layer_counts(results):
    """The counting per-layer metrics, read from the probes' answers as the
    program would print them."""
    mat = 0
    for nk in ("n6k5", "n3k7", "n5k7"):
        rep = results["census.verify_family.%s_s" % nk]
        mat += census.report_to_json_obj(rep)["certification"]["materialized"]
    return {
        "analysis.components.k5n8": len(results["analysis.find_components.k5n8_s"]),
        "census.certify.materialized": mat,
    }


def from_json_peak_mb(inp):
    """tracemalloc peak of parsing the 5^8 isotope's JSON."""
    tracemalloc.start()
    try:
        core.from_json(inp.iso8_text)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def medians(samples):
    return {m: statistics.median(v) for m, v in samples.items()}
