"""Workloads of the nquasigroups benchmark: seeded inputs, job lists, checks.

A job is one `nqg` invocation.  It carries its argv, the file that receives
its standard output, a check of that output, and a replay: the public
library calls its subcommand makes, used by the traced run.  Every file a
job reads or writes lives in one work directory, so the subprocess run, the
in-process `cli.run` run and the traced replay see the same bytes.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nquasigroups import analysis, census, constructions, core

# Expected census answers, keyed by (arity, order).  `materialized` lists
# the accepted values: the sampled omega path draws 8 assignments plus one
# perturbed twin, and the twin may coincide with a draw.
# (3,4) takes its exact count from tests/golden/q34_count.txt at run time.
CENSUS_EXPECTED = {
    (3, 4): {"exact": None, "log2": 8, "materialized": (256,), "distinct": True},
    (2, 5): {"exact": 161280, "log2": 2, "materialized": (4,), "distinct": True},
    (6, 5): {"log2": 9, "materialized": (512,), "distinct": True},
    (3, 7): {"log2": 12, "materialized": (4096,), "distinct": True},
    (5, 7): {"log2": 48, "materialized": (0,), "distinct": None},
    (3, 6): {"log2": 27, "materialized": (8, 9), "distinct": True},
}

# build_closed(8,5,2) is a right-nested iterate of one binary table, so it
# reduces over every tail of its axes; isotopy keeps that list.
REDUCTIONS_K5N8 = [list(range(lo, 9)) for lo in range(7, 1, -1)]

COMPONENTS_K5N8 = 8


def _emit_text(obj):
    return json.dumps(obj, separators=(",", ":")) + "\n"


def as_array(t):
    """Values of a table as a numpy hypercube, axis i = argument i+1."""
    return np.asarray(t.values, dtype=np.int64).reshape((t.order,) * t.arity)


def is_latin(arr):
    """Independent Latin check: every axis line is a permutation of 0..k-1."""
    k = arr.shape[0]
    for ax in range(arr.ndim):
        shape = [1] * arr.ndim
        shape[ax] = k
        if not (np.sort(arr, axis=ax) == np.arange(k).reshape(shape)).all():
            return False
    return True


def isotope(t, rng):
    """Apply independent random permutations to every argument and the result.

    Redraws until the result differs from t, so it is never the library's
    own table.  Returns the new table and the result permutation.
    """
    k, n = t.order, t.arity
    base = as_array(t)
    while True:
        res = list(range(k))
        rng.shuffle(res)
        arr = np.asarray(res)[base]
        for ax in range(n):
            perm = list(range(k))
            rng.shuffle(perm)
            arr = np.take(arr, perm, axis=ax)
        if not np.array_equal(arr, base):
            return core.QTable(n, k, tuple(arr.ravel().tolist())), res


@dataclass
class Inputs:
    """Everything a workload's jobs read, derived from the seed alone."""

    seed: int
    work: Path
    closed8: core.QTable
    irr6: core.QTable
    iso8: core.QTable
    iso6: core.QTable
    pair: tuple
    switch: int
    basepoint: tuple
    iso8_text: str
    golden_q34: int

    def path(self, name):
        return str(self.work / name)


def make_inputs(seed, work, golden_path):
    """Build the seeded tables and write the job input files into work."""
    rng = random.Random(seed)
    closed8 = constructions.build_closed(8, 5, 2)
    closed6 = constructions.build_closed(6, 5, 2)
    iso8, res8 = isotope(closed8, rng)
    iso6, _ = isotope(closed6, rng)
    # symbol 0 pairs with any other symbol in 8 components of the base; the
    # result permutation carries that pair to the isotope's symbols
    a, b = sorted((res8[0], res8[1 + rng.randrange(4)]))
    inp = Inputs(
        seed=seed,
        work=work,
        closed8=closed8,
        irr6=constructions.build_irreducible(6, 5),
        iso8=iso8,
        iso6=iso6,
        pair=(a, b),
        switch=rng.randrange(COMPONENTS_K5N8),
        basepoint=tuple(rng.randrange(5) for _ in range(6)),
        iso8_text=_emit_text(core.to_json_obj(iso8)),
        golden_q34=int(Path(golden_path).read_text().strip()),
    )
    work.mkdir(parents=True, exist_ok=True)
    (work / "iso8.json").write_text(inp.iso8_text)
    (work / "iso6.json").write_text(_emit_text(core.to_json_obj(iso6)))
    return inp


@dataclass
class Job:
    name: str
    argv: list          # nqg arguments
    out: str            # file name in the work dir receiving stdout
    inputs: list        # file names in the work dir the job reads
    check: Callable     # (output text) -> problem string, or None when right
    replay: Callable    # (tracer) -> output text, via public library calls


# ---------------------------------------------------------------------------
# checks; each returns None when the output is right


def _loads(text):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as e:
        return None, "output is not JSON: %s" % e


def _check_table(text, want=None):
    obj, err = _loads(text)
    if err:
        return None, err
    try:
        t = core.QTable(obj["arity"], obj["order"], tuple(obj["values"]))
        arr = as_array(t)
    except (KeyError, TypeError, ValueError) as e:
        return None, "malformed table: %s" % e
    if not is_latin(arr):
        return None, "table is not Latin"
    if want is not None and t.values != want.values:
        return None, "table differs from the expected one"
    return arr, None


def check_ok(text):
    return None if text.strip() == '{"ok":true}' else "validate said %r" % text[:80]


def check_equal_table(want):
    def check(text):
        return _check_table(text, want)[1]
    return check


def check_reductions(want):
    def check(text):
        obj, err = _loads(text)
        if err:
            return err
        return None if obj == want else "reductions %r, want %r" % (obj, want)
    return check


def check_switched(inp):
    a, b = inp.pair
    iso = as_array(inp.iso8)

    def check(text):
        arr, err = _check_table(text)
        if err:
            return err
        changed = arr != iso
        flipped = (iso == a) & (arr == b) | (iso == b) & (arr == a)
        if not changed.any():
            return "switch changed nothing"
        if (changed & ~flipped).any():
            return "switch changed cells other than an %d<->%d swap" % (a, b)
        if changed.sum() >= ((iso == a) | (iso == b)).sum():
            return "switch flipped every %d/%d cell, not one component" % (a, b)
        return None
    return check


def check_shell(inp):
    k, n = inp.iso6.order, inp.iso6.arity
    iso = as_array(inp.iso6)

    def check(text):
        obj, err = _loads(text)
        if err:
            return err
        try:
            ent = np.asarray(obj["entries"], dtype=np.int64)
            head = (obj["arity"], obj["order"], tuple(obj["basepoint"]))
        except (KeyError, TypeError, ValueError) as e:
            return "malformed shell: %s" % e
        if head != (n, k, inp.basepoint):
            return "shell header %r" % (head,)
        if ent.shape != (k ** n - (k - 1) ** n, n + 1):
            return "shell has %r entries" % (ent.shape,)
        cells = ent[:, :n]
        if not (cells == np.asarray(inp.basepoint)).any(axis=1).all():
            return "shell entry off the basepoint"
        if not (iso[tuple(cells.T)] == ent[:, n]).all():
            return "shell value differs from the table"
        return None
    return check


def check_census(n, k, golden_q34):
    want = dict(CENSUS_EXPECTED[(n, k)])
    if (n, k) == (3, 4):
        want["exact"] = golden_q34

    def check(text):
        rep, err = _loads(text)
        if err:
            return err
        try:
            cert = rep["certification"]
            got = {
                "arity": rep["arity"], "order": rep["order"],
                "log2": rep["family_log2"],
                "materialized": cert["materialized"],
                "distinct": cert["distinct"],
            }
            bound = max(rep["bound_exponents"].values())
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            return "malformed census report: %s" % e
        if (got["arity"], got["order"]) != (n, k):
            return "census of the wrong shape"
        if "exact" in want and rep.get("exact_count") != want["exact"]:
            return "exact_count %r, want %r" % (rep.get("exact_count"), want["exact"])
        if got["log2"] != want["log2"] or got["log2"] < bound:
            return "family_log2 %r, want %r >= %r" % (got["log2"], want["log2"], bound)
        if got["materialized"] not in want["materialized"]:
            return "materialized %r" % got["materialized"]
        if got["distinct"] != want["distinct"]:
            return "distinct %r" % got["distinct"]
        return None
    return check


# ---------------------------------------------------------------------------
# replays: the public calls each subcommand makes, one span per call


def _read(tr, inp, name):
    return tr.call("cli.read", Path(inp.path(name)).read_text)


def _emit(tr, obj):
    return tr.call("cli.emit", _emit_text, obj)


def _replay_table(tr, inp, name):
    return tr.call("core.from_json", core.from_json, _read(tr, inp, name))


def _emit_table(tr, t):
    return _emit(tr, tr.call("core.to_json_obj", core.to_json_obj, t))


def replay_validate(inp, name):
    def replay(tr):
        rep = tr.call("core.validate", core.validate, _replay_table(tr, inp, name))
        if rep.ok:
            return _emit(tr, {"ok": True})
        return _emit(tr, {"ok": False, "violations": [
            {"axis": v.axis, "fixed": list(v.fixed)} for v in rep.violations]})
    return replay


def replay_census(n, k, seed, exact):
    def replay(tr):
        count = None
        if exact:
            count = tr.call("census.enumerate_count", census.enumerate_count, n, k)
        rep = tr.call("census.verify_family", census.verify_family, n, k, seed=seed)
        rep = census.CensusReport(n, k, count, rep.bound_exponents,
                                  rep.family_log2, rep.elapsed, rep.certification)
        return _emit(tr, tr.call("census.report_to_json_obj",
                                 census.report_to_json_obj, rep))
    return replay


def _census_job(n, k, golden_q34, seed=None, exact=False):
    argv = ["census", "--n", str(n), "--k", str(k)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Job("census-n%dk%d" % (n, k), argv, "census-n%dk%d.json" % (n, k), [],
               check_census(n, k, golden_q34),
               replay_census(n, k, 0 if seed is None else seed, exact))


def exact_census_jobs(inp):
    return [_census_job(3, 4, inp.golden_q34, exact=True),
            _census_job(2, 5, inp.golden_q34, exact=True)]


def family_certify_jobs(inp):
    g = inp.golden_q34
    return [_census_job(6, 5, g), _census_job(3, 7, g), _census_job(5, 7, g),
            _census_job(3, 6, g, seed=inp.seed)]


def table_pipeline_jobs(inp):
    p = inp.path
    a, b = inp.pair

    def construct(builder, *args):
        def replay(tr):
            t = tr.call("constructions." + builder.__name__, builder, *args)
            return _emit_table(tr, t)
        return replay

    def switch(tr):
        t = _replay_table(tr, inp, "iso8.json")
        comps = tr.call("analysis.find_components", analysis.find_components, t, a, b)
        t2 = tr.call("analysis.switch_component", analysis.switch_component,
                     t, comps[inp.switch])
        return _emit_table(tr, t2)

    def reductions(name):
        def replay(tr):
            found = tr.call("analysis.find_reductions", analysis.find_reductions,
                            _replay_table(tr, inp, name))
            return _emit(tr, [list(s.axes) for s in found])
        return replay

    def shell(tr):
        sh = tr.call("analysis.extract_shell", analysis.extract_shell,
                     _replay_table(tr, inp, "iso6.json"), inp.basepoint)
        return _emit(tr, tr.call("analysis.shell_to_json_obj",
                                 analysis.shell_to_json_obj, sh))

    def reconstruct(tr):
        obj = tr.call("json.loads", json.loads, _read(tr, inp, "shell6.json"))
        sh = tr.call("analysis.shell_from_json_obj", analysis.shell_from_json_obj, obj)
        res = tr.call("analysis.reconstruct", analysis.reconstruct, sh)
        tables = res if isinstance(res, list) else [res]
        if len(tables) != 1:
            return _emit(tr, [core.to_json_obj(t) for t in tables])
        return _emit_table(tr, tables[0])

    bp = ",".join(map(str, inp.basepoint))
    return [
        Job("construct-closed8", ["construct", "--closed", "8", "5", "2"],
            "closed8.json", [], check_equal_table(inp.closed8),
            construct(constructions.build_closed, 8, 5, 2)),
        Job("construct-irr6", ["construct", "--irreducible", "6", "5"],
            "irr6.json", [], check_equal_table(inp.irr6),
            construct(constructions.build_irreducible, 6, 5)),
        Job("validate-iso8", ["validate", p("iso8.json")], "validate-iso8.json",
            ["iso8.json"], check_ok, replay_validate(inp, "iso8.json")),
        Job("switch-iso8", ["components", p("iso8.json"), "--pair", "%d,%d" % (a, b),
                            "--switch", str(inp.switch)],
            "sw8.json", ["iso8.json"], check_switched(inp), switch),
        Job("validate-sw8", ["validate", p("sw8.json")], "validate-sw8.json",
            ["sw8.json"], check_ok, replay_validate(inp, "sw8.json")),
        Job("reductions-iso8", ["analyze", p("iso8.json"), "--reductions"],
            "red-iso8.json", ["iso8.json"], check_reductions(REDUCTIONS_K5N8),
            reductions("iso8.json")),
        Job("reductions-irr6", ["analyze", p("irr6.json"), "--reductions"],
            "red-irr6.json", ["irr6.json"], check_reductions([]),
            reductions("irr6.json")),
        Job("shell-iso6", ["analyze", p("iso6.json"), "--shell", "--basepoint", bp],
            "shell6.json", ["iso6.json"], check_shell(inp), shell),
        Job("reconstruct-iso6", ["reconstruct", p("shell6.json")], "rec6.json",
            ["shell6.json"], check_equal_table(inp.iso6), reconstruct),
    ]


WORKLOADS = {
    "exact-census": exact_census_jobs,
    "family-certify": family_certify_jobs,
    "table-pipeline": table_pipeline_jobs,
}

# Workloads whose jobs see nothing derived from the seed.
UNSEEDED = {"exact-census"}
