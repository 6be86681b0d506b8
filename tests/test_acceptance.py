"""Acceptance criteria, one test per numbered criterion.

Each test pins the behavior and the runtime budget stated for it.  The
summary hook in conftest prints one PASS/FAIL line per criterion.
"""

import itertools
import time
from pathlib import Path

from nquasigroups import analysis, core, shells, switching
from nquasigroups import constructions as C
import nquasigroups.census as census

import randgen

GOLDEN = Path(__file__).parent / "golden"

D0 = [(0, 0), (0, 1), (1, 0), (1, 1)]
D1 = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 2), (4, 4)]


def test_criterion_1_fixture_integrity():
    t0 = time.perf_counter()
    for fid in C.FixtureId:
        t = C.fixture(fid)
        assert core.is_valid(t)
        assert core.is_valid(analysis.restrict_to_symbols(t, (0, 1)))
    comps = switching.find_components(C.fixture("Q52"), 0, 1)
    got = [comp.coords() for comp in comps]
    assert got == [D0, D1]
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_formula_builders():
    t0 = time.perf_counter()
    for k in range(5, 26, 2):
        t = C.build_qkr(k, 2)
        assert core.is_valid(t)
        assert core.is_valid(analysis.restrict_to_symbols(t, (0, 1)))
    for k in range(4, 26):
        for r in range(2, k // 2 + 1):
            if (k - r) % 2 == 0:
                continue
            t = C.build_qkr(k, r)
            assert core.is_valid(t)
            sub = analysis.restrict_to_symbols(t, tuple(range(r)))
            assert core.is_valid(sub)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_closed_embeddings():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        for k in range(4, 13):
            for r in range(2, k // 2 + 1):
                t = C.build_closed(n, k, r)
                assert core.is_valid(t)
                sub = analysis.restrict_to_symbols(t, tuple(range(r)))
                assert sub.order == r and core.is_valid(sub)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_4_irreducibility():
    t0 = time.perf_counter()
    grid = [(3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9),
            (4, 4), (4, 5), (4, 8)]
    for n, k in grid:
        base = C.irreducible_base(n, k)
        assert len(analysis.find_reductions(base)) > 0, (n, k)
        t = C.build_irreducible(n, k)
        assert analysis.find_reductions(t) == [], (n, k)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_5_shell_reconstruction():
    t0 = time.perf_counter()
    for i in range(50):
        k = 4 + i % 2
        q, _ = randgen.random_reducible(4, k, seed=i)
        sh = shells.extract_shell(q, (0,) * 4)
        assert [c.values for c in shells.reconstruct(sh)] == [q.values], i
    q3, f3, _ = C.build_shell_counterexample()
    sh3 = shells.extract_shell(q3, (0, 0, 0))
    cands = shells.reconstruct(sh3)
    vals = {c.values for c in cands}
    assert len(vals) >= 2
    assert q3.values in vals and f3.values in vals
    for c in cands:
        assert shells.extract_shell(c, (0, 0, 0)) == sh3
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_counting_families(family_reports):
    want = {(3, 5): (3, 8), (4, 5): (4, 16), (2, 7): (6, 64)}
    for (n, k), (s, tables) in want.items():
        rep = family_reports[(n, k)]
        cert = rep.certification
        assert rep.family_log2 == s
        assert cert["component_count"] == s
        assert cert["pairwise_disjoint"] is True
        assert cert["flips_valid"] is True
        assert cert["materialized"] == tables
        assert cert["distinct"] is True
    rep = family_reports[(3, 7)]
    cert = rep.certification
    assert rep.family_log2 == 12
    assert cert["component_count"] == 12
    assert cert["pairwise_disjoint"] is True
    assert cert["flips_valid"] is True
    elapsed = sum(family_reports[p].elapsed
                  for p in [(3, 5), (4, 5), (2, 7), (3, 7)])
    assert elapsed < 60.0


def test_criterion_7_exact_counts(exact_counts):
    t0 = time.perf_counter()
    for n in range(1, 7):
        assert census.enumerate_count(n, 2) == 2
    assert census.enumerate_count(2, 3) == 12
    assert census.enumerate_count(3, 3) == 24
    assert census.enumerate_count(4, 3) == 48
    small_elapsed = time.perf_counter() - t0
    assert small_elapsed < 10.0

    rec = exact_counts[(2, 4)]
    assert rec["count"] == rec["count_transposed"] == 576
    assert rec["elapsed"] < 10.0 and rec["elapsed_transposed"] < 10.0

    rec = exact_counts[(3, 4)]
    assert rec["count"] == rec["count_transposed"]
    golden = int((GOLDEN / "q34_count.txt").read_text().strip())
    assert rec["count"] == golden
    assert rec["elapsed"] + rec["elapsed_transposed"] < 600.0


def test_criterion_8_bound_consistency(exact_counts, family_reports):
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        for k in (4, 5, 6, 7):
            rep = family_reports[(n, k)]
            bounds = census.bound_exponents(n, k)
            assert rep.bound_exponents == bounds
            assert rep.family_log2 >= max(bounds.values()), (n, k)
            if (n, k) in exact_counts:
                assert 2 ** rep.family_log2 <= exact_counts[(n, k)]["count"]
    assert time.perf_counter() - t0 < 1.0


def test_criterion_9_component_theory():
    t0 = time.perf_counter()

    def check(t, a, b):
        comps = switching.find_components(t, a, b)
        covered = set()
        for comp in comps:
            cells = set(comp.coords())
            assert not (cells & covered)
            covered |= cells
            assert core.is_valid(switching.switch_component(t, comp))
        expect = {t.coords(i) for i, v in enumerate(t.values) if v in (a, b)}
        assert covered == expect
        # binary cycle oracle: pair the a-cell and b-cell of each row
        rows = [list(r) for r in t.rows()]
        k = t.order
        col_a = [rows[r].index(a) for r in range(k)]
        col_b = [rows[r].index(b) for r in range(k)]
        row_by_col_a = {c: r for r, c in enumerate(col_a)}
        sizes = []
        seen = set()
        for start in range(k):
            if start in seen:
                continue
            r, length = start, 0
            while r not in seen:
                seen.add(r)
                r = row_by_col_a[col_b[r]]
                length += 1
            sizes.append(2 * length)
        assert sorted(sizes) == sorted(len(c) for c in comps)

    count = 0
    seed = 0
    while count < 200:
        k = 2 + seed % 6
        t = randgen.random_binary(k, seed)
        a = seed % k
        b = (seed // k + 1 + a) % k
        if a != b:
            check(t, a, b)
            count += 1
        seed += 1
    for fid in C.FixtureId:
        t = C.fixture(fid)
        for a, b in itertools.combinations(range(t.order), 2):
            check(t, a, b)
    assert time.perf_counter() - t0 < 30.0
