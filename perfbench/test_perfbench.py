"""Tests of the benchmark itself, in quick mode (one pass, minimal repetition).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
run.OUT.mkdir(parents=True, exist_ok=True)


def bench(*args, cwd=run.ROOT, script=Path(run.__file__)):
    got = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                         capture_output=True, text=True, timeout=600)
    return got.returncode, got.stdout.splitlines(), got.stderr


def result(lines):
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def test_benchmark_json_names_the_code_metrics():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (m, u) for m, u, _ in layers.LAYER_METRICS]


def test_inputs_follow_the_seed():
    with tempfile.TemporaryDirectory(dir=run.OUT) as d:
        one = jobs.make_inputs(5, Path(d) / "a", run.GOLDEN_Q34)
        again = jobs.make_inputs(5, Path(d) / "b", run.GOLDEN_Q34)
        other = jobs.make_inputs(6, Path(d) / "c", run.GOLDEN_Q34)
        assert (Path(d) / "a" / "iso8.json").read_bytes() == \
            (Path(d) / "b" / "iso8.json").read_bytes()
    assert (one.pair, one.switch, one.basepoint) == \
        (again.pair, again.switch, again.basepoint)
    assert one.iso8.values != other.iso8.values
    assert one.iso8.values != one.closed8.values
    assert jobs.is_latin(jobs.as_array(one.iso8))
    assert jobs.is_latin(jobs.as_array(one.iso6))


def test_isotope_never_returns_the_base_table():
    from nquasigroups import constructions
    base = constructions.build_closed(3, 5, 2)
    rng = random.Random(0)
    for _ in range(50):
        iso, _ = jobs.isotope(base, rng)
        assert iso.values != base.values
        assert jobs.is_latin(jobs.as_array(iso))


def test_checks_reject_wrong_outputs():
    good = {"arity": 3, "order": 4, "exact_count": 55296,
            "bound_exponents": {"even": 8}, "family_log2": 8,
            "certification": {"materialized": 256, "distinct": True}}
    check = jobs.check_census(3, 4, 55296)
    assert check(json.dumps(good)) is None
    for key, bad in (("exact_count", 55295), ("family_log2", 7)):
        assert check(json.dumps(dict(good, **{key: bad})))
    assert check("not json")
    from nquasigroups import constructions, core
    t = constructions.build_closed(3, 5, 2)
    text = json.dumps(core.to_json_obj(t))
    assert jobs.check_equal_table(t)(text) is None
    vals = list(t.values)
    vals[0], vals[1] = vals[1], vals[0]
    assert jobs.check_equal_table(t)(json.dumps(dict(core.to_json_obj(t), values=vals)))
    assert jobs.check_reductions([[2, 3]])("[]")
    assert jobs.check_ok('{"ok":false}')


def test_calibrated_scales_each_launch_by_the_loops_beside_it(monkeypatch):
    loops = iter([0.002, 0.006, 0.004])
    monkeypatch.setattr(run, "calibrate", lambda: next(loops))
    probes = [[], [0.002, 0.008]]
    launch = lambda i: run.Launch(wall=[1.0, 3.0][i], code=0, maxrss_mb=1, cpu=1,
                                  probes=probes[i])
    runs, cal, scaled = run.calibrated(launch, 2)
    assert [r.wall for r in runs] == [1.0, 3.0]
    assert cal == [0.002, 0.006, 0.004]
    ref = run.CALIBRATION_REF_S
    assert scaled == pytest.approx([1.0 * ref / 0.004, 3.0 * ref / 0.005])


@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_untraced_quick_run(workload):
    code, lines, err = bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "0", "--quick")
    assert code == 0, err
    res = result(lines)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert [(m, v["unit"]) for m, v in res["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_quick_run_spans_and_layer_metrics():
    code, lines, err = bench("--workload", "exact-census", "--seed", "3",
                             "--seconds", "1", "--trace", "1", "--quick")
    assert code == 0, err
    res = result(lines)
    assert res["correct"] and res["failed"] == 0
    assert [(m, v["unit"]) for m, v in res["metrics"].items()] == [
        (m, u) for m, u, _ in layers.LAYER_METRICS]
    assert res["metrics"]["analysis.components.k5n8"]["value"] == jobs.COMPONENTS_K5N8
    assert res["metrics"]["census.certify.materialized"]["value"] == 512 + 4096 + 0

    trace = json.loads((run.OUT / "spans-exact-census-s3.json").read_text())
    spans = {s["id"]: s for s in trace["spans"]}
    assert all(s["run_id"] == trace["run_id"] for s in spans.values())
    assert all(s["parent"] is None or s["parent"] in spans for s in spans.values())
    assert all(s["start"] <= s["end"] for s in spans.values())
    root = next(s for s in spans.values() if s["name"] == "workload:exact-census")
    job_spans = [s for s in spans.values() if s["parent"] == root["id"]]
    assert [s["name"] for s in job_spans] == ["job:census-n3k4", "job:census-n2k5"]
    calls = {s["name"] for s in spans.values() if s["parent"] == job_spans[0]["id"]}
    assert {"census.enumerate_count", "census.verify_family"} <= calls


def test_fails_without_a_source_tree():
    with tempfile.TemporaryDirectory(dir=run.OUT) as d:
        shutil.copy(run.ROOT / "BENCHMARK.json", d)
        shutil.copytree(run.ROOT / "perfbench", Path(d) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines, _ = bench("--workload", "exact-census", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=d,
                               script=Path(d) / "perfbench" / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
