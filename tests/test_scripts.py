"""Smoke tests of the scripts in scripts/, run as their users run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


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
