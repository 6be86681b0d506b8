"""Smoke tests of the scripts in scripts/, and of CI's memory probe
tests/peak_over_help.py, run as their users run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def script_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          env=script_env(), capture_output=True, text=True,
                          timeout=120)


def rows(stdout):
    return [line.split() for line in stdout.splitlines() if line.strip()]


def test_census_sweep():
    done = run_script("census_sweep.py", "--max-arity", "3", "--max-order", "5")
    assert done.returncode == 0, done.stderr
    table = rows(done.stdout)
    assert table[0] == ["n", "k", "exact", "family_log2", "max_bound",
                        "seconds"]
    # (3,4): the exact count and the certified family of 2^8 tables
    assert ["3", "4", "55296", "8", "8"] in [r[:5] for r in table]
    assert len(table) == 1 + 2 * 4


def test_family_growth():
    done = run_script("family_growth.py", "--orders", "5", "7",
                      "--max-arity", "4")
    assert done.returncode == 0, done.stderr
    table = rows(done.stdout)
    assert table[0] == ["k", "n", "family_log2", "bound", "ratio"]
    # every family reaches its bound: ratio 1 for orders 5 and 7
    assert [r[:2] for r in table[1:]] == [[k, n] for k in ("5", "7")
                                          for n in ("2", "3", "4")]
    assert all(r[4] == "1.000" for r in table[1:])


def test_peak_over_help(tmp_path):
    # nqg is this tree's cli behind a shell script on PATH, as the console
    # script is in CI
    nqg = tmp_path / "nqg"
    nqg.write_text('#!/bin/sh\nexec "%s" -m nquasigroups.cli "$@"\n'
                   % sys.executable)
    nqg.chmod(0o755)
    table = tmp_path / "t.json"
    table.write_text('{"arity":2,"order":3,"values":[0,1,2,1,2,0,2,0,1]}')
    env = dict(script_env(), PATH=os.pathsep.join(
        [str(tmp_path), os.environ.get("PATH", "")]))
    codes = []
    for bound in ("1e6", "-1"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tests" / "peak_over_help.py"),
             "--cells", "9", "--bytes-per-cell", bound, "validate",
             str(table)], env=env, capture_output=True, text=True,
            timeout=120)
        codes.append(done.returncode)
    # no launch peaks below --help, so a negative bound always fails
    assert codes == [0, 1], done.stderr
    assert done.stderr.startswith("nqg validate %s peaked at " % table)
    assert "over --help's" in done.stderr
