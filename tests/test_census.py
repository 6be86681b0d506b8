"""Exact enumeration, lower-bound exponents, family certification."""

import itertools
import json
import math
import random
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nquasigroups.census as census
from nquasigroups import analysis, core, families, latin, switching
from nquasigroups import constructions as C

import randgen
from oracles import reference_visit_order

GOLDEN = Path(__file__).parent / "golden"


def flip(vals, idxs, ab):
    """Swap the symbols of a pair summing to ab on the given cells, in place."""
    for idx in idxs:
        vals[idx] = ab - vals[idx]


def materialized_certificate(fam):
    """Reference certifier: builds all 2^s switched tables and validates
    each one in full, as family certification did before line-local checks.
    """
    comps = fam.components
    s = len(comps)
    base = fam.base
    for comp in comps:
        switching.switch_component(base, comp)
    cert = {"path": "components", "component_count": s,
            "pairwise_disjoint": True, "flips_valid": True,
            "materialized": 0, "distinct": None}
    if 2 ** s <= census.MATERIALIZE_CAP:
        flips = []
        for comp in comps:
            a, b = sorted(comp.pair)
            flips.append([(base.index(c), a + b) for c in comp.coords()])
        seen = set()
        for mask in range(2 ** s):
            vals = list(base.values)
            for ci in range(s):
                if mask >> ci & 1:
                    for idx, ab in flips[ci]:
                        vals[idx] = ab - vals[idx]
            tv = tuple(vals)
            assert tv not in seen
            seen.add(tv)
            assert core.validate(core.QTable(base.arity, base.order, tv)).ok
        cert["materialized"] = 2 ** s
        cert["distinct"] = True
    return s, cert


def snapshot_certificate(fam):
    """The component certifier as it was before distinctness was proved:
    the same checks in the same order, each single flip checked by
    validating the flipped copy in full, then a byte snapshot of every
    table met on the Gray-code walk, refusing any repeat.  The oracle of
    census._certify_components, outcome for outcome."""
    comps = fam.components
    s = len(comps)
    if fam.claimed_log2 != s:
        raise census.CertificationError(
            "family claims log2 = %d but carries %d components"
            % (fam.claimed_log2, s))
    cellsets = [frozenset(comp.coords()) for comp in comps]
    for i in range(s):
        for j in range(i + 1, s):
            if cellsets[i] & cellsets[j]:
                raise census.CertificationError(
                    "components %d and %d share cells" % (i, j))
    base = fam.base
    rep = core.validate(base)
    if not rep.ok:
        bad = rep.violations[0]
        raise census.CertificationError(
            "base table is not Latin: axis %d line %r" % (bad.axis, bad.fixed))
    k = base.order
    vals = array("B" if k <= 256 else "H", base.values)
    flips = []
    for i, comp in enumerate(comps):
        pair = sorted(comp.pair)
        if len(pair) != 2 or not len(comp):
            raise census.CertificationError(
                "component %d does not switch: it needs two symbols and "
                "at least one cell" % i)
        a, b = pair
        idxs = sorted(base.index(c) for c in cellsets[i])
        for idx in idxs:
            if vals[idx] != a and vals[idx] != b:
                raise census.CertificationError(
                    "component %d does not switch: cell %r holds %d, not in "
                    "{%d,%d}" % (i, base.coords(idx), vals[idx], a, b))
        flips.append((idxs, a + b))
        flip(vals, idxs, a + b)
        ok = core.validate(core.QTable(base.arity, k, vals.tobytes())).ok
        flip(vals, idxs, a + b)
        if not ok:
            raise census.CertificationError(
                "component %d does not switch: the flip breaks the Latin "
                "property" % i)
    cert = {"path": "components", "component_count": s,
            "pairwise_disjoint": True, "flips_valid": True,
            "materialized": 0, "distinct": None}
    if 2 ** s <= census.MATERIALIZE_CAP:
        seen = {vals.tobytes()}
        for step in range(1, 2 ** s):
            flip(vals, *flips[(step & -step).bit_length() - 1])
            snap = vals.tobytes()
            if snap in seen:
                raise census.CertificationError(
                    "switch pattern %d duplicates an earlier table"
                    % (step ^ (step >> 1)))
            seen.add(snap)
        cert["materialized"] = 2 ** s
        cert["distinct"] = True
    return s, cert


def reference_omega_certificate(n, k, seed):
    """Reference block-product certifier: builds every assignment (past
    the cap, the seeded sample) with omega_product and validates each
    table in full, as latin._certify_omega did before it certified the
    family by construction.  It reads the skeleton, the choices and the
    product through latin, so a test's monkeypatch reaches both."""
    r, s_in = (k // 2, 2) if k % 2 == 0 else (k // 3, 3)
    g = latin.from_function(n, r, lambda *x: sum(x) % r)
    choices = list(latin.enumerate_tables(n, s_in))
    nchoices = len(choices)
    nblocks = r ** n
    if nchoices & (nchoices - 1) == 0:
        family_log2 = nblocks * (nchoices.bit_length() - 1)
    else:
        family_log2 = nblocks * math.log2(nchoices)
    blocks = list(itertools.product(range(r), repeat=n))
    sampled = nchoices ** nblocks > census.MATERIALIZE_CAP
    if sampled:
        rng = random.Random(seed)
        picks = set()
        while len(picks) < 8:
            picks.add(tuple(rng.randrange(nchoices) for _ in blocks))
        twin = list(min(picks))
        twin[0] = (twin[0] + 1) % nchoices
        picks.add(tuple(twin))
        assignments = sorted(picks)
    else:
        assignments = itertools.product(range(nchoices), repeat=nblocks)
    seen = set()
    made = 0
    for assign in assignments:
        om = latin.OmegaMap(r, s_in, n,
                            {y: choices[c] for y, c in zip(blocks, assign)})
        t = latin.omega_product(g, om)
        if not core.validate(t).ok:
            raise census.CertificationError("block product failed validation")
        if t.values in seen:
            raise census.CertificationError(
                "two block assignments gave one table")
        seen.add(t.values)
        made += 1
    return family_log2, {"path": "omega", "blocks": nblocks,
                         "choices": nchoices, "materialized": made,
                         "distinct": True, "sampled": sampled}


def certify_outcome(certify, fam):
    try:
        return certify(fam)
    except census.CertificationError as e:
        return str(e)


def family(n, k):
    if k == 5:
        return families.build_family5(n)
    return families.build_family_k(n, k)


def _raw_cell_lines(n, k, idx):
    """Global line ids (one per axis) of the cell at a flat index."""
    out = []
    block = k ** (n - 1)
    for a in range(n):
        s = k ** (n - 1 - a)
        out.append(a * block + (idx // (s * k)) * s + idx % s)
    return tuple(out)


def raw_count(n, k, visit="index"):
    """Reference count: the unreduced backtracker over every cell, as the
    census ran it before reduced tables."""
    total = k ** n
    if k == 1:
        return 1
    order = reference_visit_order(n, k, visit)
    cell_lines = [_raw_cell_lines(n, k, idx) for idx in order]
    full = (1 << k) - 1
    masks = [0] * (n * k ** (n - 1))
    placed = [0] * total
    cand = [0] * total
    count = 0
    last = total - 1
    pos = 0
    cand[0] = full
    while pos >= 0:
        m = cand[pos]
        if m == 0:
            pos -= 1
            if pos < 0:
                break
            b = placed[pos]
            for lid in cell_lines[pos]:
                masks[lid] ^= b
            continue
        if pos == last:
            count += m.bit_count()
            cand[pos] = 0
            continue
        b = m & (-m)
        cand[pos] = m ^ b
        placed[pos] = b
        for lid in cell_lines[pos]:
            masks[lid] |= b
        pos += 1
        acc = 0
        for lid in cell_lines[pos]:
            acc |= masks[lid]
        cand[pos] = full & ~acc
    return count


def raw_tables(n, k, visit="index"):
    """Reference enumeration: the table generator as it was before the
    census shared one search core; its order is the contract."""
    total = k ** n
    if k == 1:
        yield core.QTable(n, 1, (0,) * total)
        return
    order = reference_visit_order(n, k, visit)
    cell_lines = [_raw_cell_lines(n, k, idx) for idx in order]
    full = (1 << k) - 1
    masks = [0] * (n * k ** (n - 1))
    placed = [0] * total
    cand = [0] * total
    sym = [0] * total
    last = total - 1
    pos = 0
    cand[0] = full
    while pos >= 0:
        m = cand[pos]
        if m == 0:
            pos -= 1
            if pos < 0:
                break
            b = placed[pos]
            for lid in cell_lines[pos]:
                masks[lid] ^= b
            continue
        if pos == last:
            while m:
                b = m & (-m)
                m ^= b
                sym[order[pos]] = b.bit_length() - 1
                yield core.QTable(n, k, tuple(sym))
            cand[pos] = 0
            continue
        b = m & (-m)
        cand[pos] = m ^ b
        placed[pos] = b
        sym[order[pos]] = b.bit_length() - 1
        for lid in cell_lines[pos]:
            masks[lid] |= b
        pos += 1
        acc = 0
        for lid in cell_lines[pos]:
            acc |= masks[lid]
        cand[pos] = full & ~acc


VISITS = ("index", "transposed")


class TestEnumerateCount:
    def test_binary_symbols(self):
        for n in range(1, 7):
            assert census.enumerate_count(n, 2) == 2

    def test_order_three_closed_form(self):
        for n in range(2, 5):
            assert census.enumerate_count(n, 3) == 3 * 2 ** n

    def test_order_four_squares(self):
        assert census.enumerate_count(2, 4) == 576

    @pytest.mark.parametrize("visit", VISITS)
    def test_visit_order_matches_reference(self, visit):
        for n in range(1, 6):
            for k in range(1, 5):
                assert census._offsets(n, k, latin._visit_axes(n, visit)) \
                    == reference_visit_order(n, k, visit)

    def test_unknown_visit_refused(self):
        for call in (lambda: census.enumerate_count(2, 3, visit="diagonal"),
                     lambda: next(census.enumerate_tables(2, 3, visit="x"))):
            with pytest.raises(ValueError, match="visit must be 'index' or "
                               "'transposed'"):
                call()

    def test_visit_orders_agree(self):
        a = census.enumerate_count(2, 4)
        b = census.enumerate_count(2, 4, visit="transposed")
        assert a == b == 576

    def test_reduced_mode_matches(self):
        cases = [(n, 2) for n in range(1, 7)] + [(2, 3), (3, 3), (4, 3),
                                                  (1, 4), (2, 4)]
        for n, k in cases:
            for visit in VISITS:
                assert census.enumerate_count(n, k, visit=visit) \
                    == raw_count(n, k, visit)

    @pytest.mark.parametrize("visit", VISITS)
    @pytest.mark.parametrize("n,k,count", [(2, 6, 812_851_200),
                                           (4, 4, 36_972_288)])
    def test_new_goldens(self, n, k, count, visit):
        # (2,6): the classical number of Latin squares of order 6;
        # (4,4): Potapov & Krotov's count of 4-quasigroups of order 4
        assert census.enumerate_count(n, k, visit=visit) == count

    def test_q35_golden(self):
        # frozen from two full searches (index and transposed order), not
        # re-run here: 40,246 reduced 3-quasigroups of order 5 times
        # 5! * 4!^2 (McKay & Wanless, "A census of small Latin
        # hypercubes", SIAM J. Discrete Math., 2008)
        count = int((GOLDEN / "q35_count.txt").read_text())
        reduced, rest = divmod(count, math.factorial(5) * math.factorial(4) ** 2)
        assert (reduced, rest) == (40_246, 0)
        assert census.verify_family(3, 5).family_log2 <= math.log2(count)

    def test_trivial_orders(self):
        assert census.enumerate_count(3, 1) == 1
        assert census.enumerate_count(1, 4) == 24  # permutations

    def test_budget_guard(self):
        with pytest.raises(census.BudgetError):
            census.enumerate_count(6, 13)

    def test_budget_checked_before_the_bounds(self, monkeypatch):
        # bound_exponents(10^7, 5) alone takes most of a second
        def bounds(n, k):
            raise AssertionError("bounds computed first")

        monkeypatch.setattr(census, "bound_exponents", bounds)
        t0 = time.perf_counter()
        for n in (100_000, 10_000_000):
            with pytest.raises(census.BudgetError,
                               match=r"table has 5\^%d cells" % n):
                census.verify_family(n, 5)
        assert census.run_census(10_000_000, 2).exact_count is None
        assert time.perf_counter() - t0 < 1.0

    def test_budget_over_build_budget_refused(self):
        over = core.BUILD_CELL_BUDGET + 1
        for call in (lambda: census.enumerate_count(2, 3, budget=over),
                     lambda: next(census.enumerate_tables(2, 3, budget=over)),
                     lambda: census.verify_family(3, 5, budget=over),
                     lambda: census.run_census(2, 3, budget=over,
                                               exact="off")):
            with pytest.raises(census.BudgetError,
                               match="core.BUILD_CELL_BUDGET"):
                call()

    def test_time_limit(self):
        with pytest.raises(census.BudgetError):
            census.enumerate_count(2, 6, time_limit=0.05)

    @pytest.mark.parametrize("limit", [math.nan, math.inf, 0, 0.0, -1, -0.5])
    def test_time_limit_refused_unless_finite_and_positive(self, limit):
        # nan once switched the deadline off (the (2,6) search ran to its
        # end) and a limit <= 0 was applied only after 4,096 nodes
        t0 = time.perf_counter()
        for call in (lambda: census.enumerate_count(2, 6, time_limit=limit),
                     lambda: next(census.enumerate_tables(2, 6,
                                                          time_limit=limit))):
            with pytest.raises(ValueError, match="finite number of seconds"):
                call()
        assert time.perf_counter() - t0 < 0.05

    @pytest.mark.parametrize("limit", [math.nan, math.inf, 0, -1])
    def test_time_limit_refused_when_no_search_runs(self, limit):
        # a pinned-only shape returns before the search forms its
        # deadline, and exact='auto' skips the search at (3,7)
        for call in (lambda: census.enumerate_count(1, 3, time_limit=limit),
                     lambda: census.run_census(1, 3, time_limit=limit),
                     lambda: census.run_census(3, 7, time_limit=limit),
                     lambda: census.run_census(3, 4, exact="off",
                                               time_limit=limit)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == ("time limit must be a finite number "
                                      "of seconds > 0, not %r" % (limit,))

    def test_no_time_limit(self):
        assert census.enumerate_count(2, 4, time_limit=None) == 576
        assert census.enumerate_count(1, 3, time_limit=None) == 6
        assert census.run_census(1, 3, time_limit=None).exact_count == 6

    @pytest.mark.parametrize("visit", VISITS)
    @pytest.mark.parametrize("n,k", [(3, 2), (2, 3), (3, 3), (2, 4), (2, 1)])
    def test_tables_match_reference_order(self, n, k, visit):
        assert list(census.enumerate_tables(n, k, visit=visit)) \
            == list(raw_tables(n, k, visit))

    def test_reduced_tables_are_the_reference_loops(self):
        # build_shell_counterexample draws its order-5 loops from this
        # search: the reduced squares of the reference enumeration, in its
        # order; 56 reduced Latin squares of order 5 (McKay & Wanless 2008)
        ident = bytes(range(5))
        want = [t for t in raw_tables(2, 5)
                if bytes(t.values[:5]) == bytes(t.values[::5]) == ident]
        got = list(latin._tables(2, 5, *latin._reduced(2, 5, "index"),
                                 None))
        assert len(want) == 56 and got == want

    def test_emitted_tables_all_valid(self):
        tabs = list(census.enumerate_tables(2, 3))
        assert len(tabs) == 12
        vals = set()
        for t in tabs:
            assert core.is_valid(t)
            vals.add(t.values)
        assert len(vals) == 12


# Values a caller may pass by mistake: bools, floats (nan and the
# infinities too), None, and ints past any budget or float
ODD = st.one_of(st.booleans(), st.floats(), st.none(),
                st.integers(2 ** 64, 2 ** 2048),
                st.integers(-2 ** 2048, -2 ** 64))


class TestEntryPointArguments:
    """Every census entry point that takes a budget returns, or refuses
    with ValueError or BudgetError, whatever it is given."""

    @pytest.mark.parametrize("call", [
        lambda: census.enumerate_count(True, 4),
        lambda: census.enumerate_count(2, True),
        lambda: census.enumerate_count(2, 3.0),
        lambda: census.enumerate_count(2, 3, budget=1e6 + 0.5),
        lambda: census.enumerate_count(2, 3, budget=True),
        lambda: next(census.enumerate_tables(2.0, 3)),
        lambda: census.verify_family(3, 5, budget=None),
        lambda: census.run_census(3, 4.0)], ids=[
            "count-bool-arity", "count-bool-order", "count-float-order",
            "count-float-budget", "count-bool-budget", "tables-float-arity",
            "family-none-budget", "census-float-order"])
    def test_non_int_or_bool_shape_or_budget_refused(self, call):
        # enumerate_count(True, 4) once counted arity 1 (24), and a float
        # order or budget raised TypeError or AttributeError
        with pytest.raises(ValueError, match=r"^(arity|order|budget) must "
                                             r"be an integer, not "):
            call()

    @pytest.mark.parametrize("seed", [[1], "1", 1.5, True],
                             ids=["list", "str", "float", "bool"])
    @pytest.mark.parametrize("n,k", [(3, 6), (3, 4), (6, 5)])
    def test_non_int_or_bool_seed_refused(self, n, k, seed):
        # (3,6) samples its block family, and a list seed once leaked
        # TypeError from random.Random; (3,4) and (6,5) sample nothing
        # and once accepted any seed
        for call in (lambda: census.run_census(n, k, seed=seed),
                     lambda: census.verify_family(n, k, seed=seed)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "seed must be an integer, not %r" % (
                seed,)

    @pytest.mark.parametrize("limit", [True, False, 10 ** 400, "1", [1]])
    def test_bool_or_unformable_time_limit_refused(self, limit):
        # True once ran as one second, and 10^400 raised OverflowError
        # when the search formed its deadline
        for call in (lambda: census.enumerate_count(2, 3, time_limit=limit),
                     lambda: census.run_census(2, 3, time_limit=limit)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == ("time limit must be a finite number "
                                      "of seconds > 0, not %r" % (limit,))

    def test_huge_arity_of_order_one_refused(self):
        # one cell, but the pins once took a step per axis: 10^30 of them
        for call in (lambda: census.enumerate_count(10 ** 30, 1),
                     lambda: next(census.enumerate_tables(10 ** 30, 1)),
                     lambda: census.verify_family(10 ** 30, 1)):
            with pytest.raises(census.BudgetError, match="arity 10{30} is "
                               "over the 2000000-cell budget"):
                call()
        assert census.enumerate_count(5, 1) == 1

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_only_value_or_budget_errors(self, data):
        # small valid shapes keep every search that does run short
        n = data.draw(st.one_of(ODD, st.integers(-1, 3)), "n")
        k = data.draw(st.one_of(ODD, st.integers(-1, 4)), "k")
        budget = data.draw(st.one_of(ODD, st.integers(-1, 10 ** 6)), "budget")
        limit = data.draw(st.one_of(ODD, st.just(60.0)), "time_limit")
        visit = data.draw(st.one_of(ODD, st.just("index")), "visit")
        exact = data.draw(st.one_of(ODD, st.just("auto")), "exact")
        seed = data.draw(st.one_of(ODD, st.integers()), "seed")
        for call in (
                lambda: census.enumerate_count(n, k, budget, limit, visit),
                lambda: next(census.enumerate_tables(n, k, budget, limit,
                                                     visit), None),
                lambda: census.verify_family(n, k, seed, budget),
                lambda: census.run_census(n, k, budget, exact, limit, seed)):
            try:
                call()
            except (ValueError, census.BudgetError):
                pass


class TestBoundExponents:
    def test_even_and_div3(self):
        b = census.bound_exponents(4, 6)
        assert b == {"even": 81, "div3": 64}

    def test_five_residues(self):
        assert census.bound_exponents(3, 5) == {"five": 3}
        assert census.bound_exponents(2, 5) == {"five": 2}
        assert census.bound_exponents(4, 5) == {"five": 4}
        assert census.bound_exponents(5, 5) == {"five": 6}

    def test_general_odd(self):
        assert census.bound_exponents(2, 7) == {"general": 6}
        assert census.bound_exponents(3, 11) == {"general": 45}

    def test_even_only(self):
        assert census.bound_exponents(3, 4) == {"even": 8}

    def test_div3_odd(self):
        assert census.bound_exponents(2, 9) == {"div3": 18}

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            census.bound_exponents(2, 3)
        with pytest.raises(ValueError):
            census.bound_exponents(1, 6)


class TestVerifyFamily:
    def test_order5_n3(self):
        rep = census.verify_family(3, 5)
        assert rep.family_log2 == 3
        assert rep.certification["path"] == "components"
        assert rep.certification["materialized"] == 8
        assert rep.certification["distinct"] is True

    def test_order7_n2(self):
        rep = census.verify_family(2, 7)
        assert rep.family_log2 == 6
        assert rep.certification["materialized"] == 64
        assert rep.certification["distinct"] is True

    def test_omega_path_order4(self):
        rep = census.verify_family(2, 4)
        assert rep.certification["path"] == "omega"
        assert rep.family_log2 == 4
        assert rep.certification["materialized"] == 16
        assert rep.certification["distinct"] is True

    def test_omega_sampled_beyond_cap(self):
        rep = census.verify_family(4, 4)
        assert rep.family_log2 == 16
        assert rep.certification["sampled"] is True
        assert rep.certification["distinct"] is True

    def test_structural_beyond_cap_components(self):
        rep = census.verify_family(4, 7)
        assert rep.family_log2 == 24
        assert rep.certification["component_count"] == 24
        assert rep.certification["pairwise_disjoint"] is True
        assert rep.certification["flips_valid"] is True
        assert rep.certification["materialized"] == 0

    def test_bound_domination(self):
        for n in (2, 3, 4):
            for k in (4, 5, 6, 7):
                rep = census.verify_family(n, k)
                assert rep.family_log2 >= max(rep.bound_exponents.values())

    def test_overlapping_components_rejected(self):
        q = C.fixture("Q52")
        comps = switching.find_components(q, 0, 1)
        fam = families.CountingFamily(base=q,
                                       components=(comps[0], comps[0]),
                                       claimed_log2=2)
        with pytest.raises(census.CertificationError, match="share"):
            census._certify_components(fam)

    @given(st.sampled_from(["Q52", "family5-3"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sharing_parts_named_as_the_pairwise_scan_names_them(
            self, base, data):
        # parts of several pairs, repeats allowed, so that cells are shared
        # at any pair of positions: the one-pass mark names the lowest i,
        # then its lowest j, as the oracle's pairwise scan does
        q = C.fixture("Q52") if base == "Q52" else families.build_family5(
            3).base
        pairs = list(itertools.combinations(range(5), 2))
        comps = tuple(data.draw(st.sampled_from(switching.find_components(
            q, *data.draw(st.sampled_from(pairs)))))
            for _ in range(data.draw(st.integers(2, 7))))
        fam = families.CountingFamily(q, comps, len(comps))
        assert certify_outcome(census._certify_components, fam) \
            == certify_outcome(snapshot_certificate, fam)

    def test_wrong_claim_rejected(self):
        q = C.fixture("Q52")
        comps = switching.find_components(q, 0, 1)
        fam = families.CountingFamily(base=q, components=tuple(comps),
                                       claimed_log2=5)
        with pytest.raises(census.CertificationError):
            census._certify_components(fam)


class TestCertifyComponents:
    @pytest.mark.parametrize("n,k", [(3, 5), (4, 5), (2, 7), (3, 7), (6, 5)])
    def test_matches_materialized_reference(self, n, k):
        fam = family(n, k)
        assert census._certify_components(fam) == materialized_certificate(fam)
        assert census._certify_components(fam) == snapshot_certificate(fam)

    @pytest.mark.parametrize("n,k", [(2, 5), (3, 5), (6, 5), (3, 7)])
    def test_xor_walk_forms_the_byte_flip_tables(self, monkeypatch, n, k):
        # the certifier's walk of big-integer XORs, recorded table by table,
        # against the byte flips it replaced, in the same Gray-code order
        fam = family(n, k)
        walked = []
        walk = census._gray_tables

        def recorded(start, deltas):
            for table in walk(start, deltas):
                walked.append(table)
                yield table
        monkeypatch.setattr(census, "_gray_tables", recorded)
        s, cert = census._certify_components(fam)
        base = fam.base
        vals = bytearray(base.values)
        flips = [(comp.indices, sum(comp.pair)) for comp in fam.components]
        want = [bytes(vals)]
        for step in range(1, 2 ** s):
            flip(vals, *flips[(step & -step).bit_length() - 1])
            want.append(bytes(vals))
        assert [t.to_bytes(len(vals), "little") for t in walked] == want
        assert cert["materialized"] == len(set(want)) == 2 ** s

    @given(st.integers(2, 3), st.integers(2, 5), st.integers(0, 10 ** 5),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_local_check_matches_full_validate(self, n, k, seed, data):
        # the line count against a full validate of the flipped table, on
        # unions of switching components, the same with one cell added or
        # taken away (an odd part, which never switches), and random parts
        if n == 2:
            t = randgen.random_binary(k, seed)
        else:
            t = randgen.random_reducible(3, k, seed)[0]
        a, b = sorted(data.draw(st.sets(st.integers(0, k - 1),
                                        min_size=2, max_size=2)))
        ab_cells = [i for i, v in enumerate(t.values) if v in (a, b)]
        kind = data.draw(st.sampled_from(["union", "odd", "random"]))
        if kind == "random":
            part = set(data.draw(st.lists(st.sampled_from(ab_cells),
                                          min_size=1, unique=True)))
        else:
            parts = switching.find_components(t, a, b)
            picked = data.draw(st.lists(st.sampled_from(parts), min_size=1))
            part = {idx for comp in picked for idx in comp.indices}
            if kind == "odd":
                # a component has at least four cells, so part stays nonempty
                part ^= {data.draw(st.sampled_from(ab_cells))}
        comp = families.Component(sorted(part), n, k, (a, b))
        fam = families.CountingFamily(base=t, components=(comp,),
                                       claimed_log2=1)
        vals = bytearray(t.values)
        flip(vals, sorted(part), a + b)
        full = core.validate(core.QTable(n, k, vals)).ok
        got = certify_outcome(census._certify_components, fam)
        if len(part) % 2:
            assert not full
        if full:
            assert got == snapshot_certificate(fam)
        else:
            assert got == ("component 0 does not switch: the flip breaks "
                           "the Latin property")

    @given(st.integers(2, 3), st.integers(3, 5), st.integers(0, 10 ** 5),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_switched_tables_validate_once_single_flips_pass(
            self, n, k, seed, data):
        # the Gray-code walk checks no line: every switched table of a
        # family that passes the single-flip checks must validate in full.
        # The family5 base and Z_4 addition have several parts per pair.
        kind = data.draw(st.sampled_from(["random", "family5", "sum4"]))
        if kind == "family5":
            t = families.build_family5(n).base
        elif kind == "sum4":
            t = core.from_function(n, 4, lambda *x: sum(x) % 4)
        elif n == 2:
            t = randgen.random_binary(k, seed)
        else:
            t = randgen.random_reducible(3, k, seed)[0]
        k = t.order
        comps, used = [], set()
        pairs = data.draw(st.permutations(
            list(itertools.combinations(range(k), 2))))
        for a, b in pairs[:data.draw(st.integers(2, 6))]:
            if data.draw(st.integers(0, 5)) < 5:
                # the unused switching components, each left out or put in
                # one of two sets: a flip of either passes
                groups = [set(), set()]
                for part in switching.find_components(t, a, b):
                    cells = set(part.coords())
                    group = data.draw(st.integers(0, 2))
                    if group and not cells & used:
                        groups[group - 1] |= cells
            else:
                # any unused {a, b} cells: a flip of them seldom passes
                ab = [x for x in t.cells()
                      if t.values[t.index(x)] in (a, b) and x not in used]
                groups = [set(data.draw(st.lists(st.sampled_from(ab))))
                          if ab else set()]
            for cells in groups:
                if cells:
                    used |= cells
                    comps.append(families.Component(
                        sorted(t.index(x) for x in cells), t.arity, k, (a, b)))
        fam = families.CountingFamily(t, tuple(comps), len(comps))
        # no family the checks pass has two equal switched tables
        outcome = certify_outcome(census._certify_components, fam)
        assert outcome == certify_outcome(snapshot_certificate, fam)
        if isinstance(outcome, str):
            return
        for pattern in range(2 ** len(comps)):
            vals = list(t.values)
            for i, comp in enumerate(comps):
                if pattern >> i & 1:
                    total = sum(comp.pair)
                    for x in comp.coords():
                        vals[t.index(x)] = total - vals[t.index(x)]
            assert core.validate(core.QTable(n, k, tuple(vals))).ok

    def test_non_latin_base_rejected(self):
        q = C.fixture("Q52")
        comps = switching.find_components(q, 0, 1)
        vals = list(q.values)
        vals[-1] = vals[-2]
        broken = core.QTable(2, 5, tuple(vals))
        fam = families.CountingFamily(base=broken, components=(comps[0],),
                                       claimed_log2=1)
        with pytest.raises(census.CertificationError,
                           match="base table is not Latin"):
            census._certify_components(fam)

    def test_proper_subset_of_component_rejected(self):
        q = C.fixture("Q52")
        comp = max(switching.find_components(q, 0, 1), key=len)
        part = families.Component(comp.indices[1:], 2, 5, comp.pair)
        fam = families.CountingFamily(base=q, components=(part,),
                                       claimed_log2=1)
        with pytest.raises(census.CertificationError,
                           match="does not switch.*Latin"):
            census._certify_components(fam)

    def test_part_of_another_shape_rejected(self):
        comp = switching.find_components(C.fixture("Q42"), 0, 1)[0]
        fam = families.CountingFamily(base=C.fixture("Q52"),
                                       components=(comp,), claimed_log2=1)
        with pytest.raises(census.CertificationError) as err:
            census._certify_components(fam)
        assert str(err.value) == ("component 0 is a part of shape (2, 4), the "
                                  "base has shape (2, 5)")

    def test_empty_part_refused(self):
        # an empty part would flip nothing, so 2^s patterns would not be
        # distinct: it is refused before any family can carry it
        for buf in (b"", memoryview(b"").cast("I"), []):
            with pytest.raises(analysis.AnalysisError) as err:
                families.Component(buf, 2, 5, (0, 1))
            assert str(err.value) == "empty component"

    @pytest.mark.parametrize("extra", ["first", 25], ids=[
        "cell-listed-twice", "past-the-last-cell"])
    def test_part_listing_a_cell_twice_or_outside_rejected(self, extra):
        # refused by the constructor, before any family can carry the part
        q = C.fixture("Q52")
        comp = switching.find_components(q, 0, 1)[0]
        idxs = comp.indices.tolist()
        idxs.append(idxs[0] if extra == "first" else extra)
        with pytest.raises(analysis.AnalysisError) as err:
            families.Component(sorted(idxs), 2, 5, comp.pair)
        assert str(err.value) == ("component indices must be sorted, "
                                  "distinct and below 5^2")

    def test_cell_outside_pair_rejected(self):
        q = C.fixture("Q52")
        comp = switching.find_components(q, 0, 1)[0]
        stray = next(x for x in q.cells() if q.values[q.index(x)] == 2)
        bad = families.Component(sorted({*comp.indices, q.index(stray)}), 2,
                                  5, comp.pair)
        fam = families.CountingFamily(base=q, components=(bad,),
                                       claimed_log2=1)
        with pytest.raises(census.CertificationError,
                           match="does not switch.*not in"):
            census._certify_components(fam)


class TestCertifyOmega:
    @pytest.mark.parametrize("n,k", [(2, 4), (3, 4), (2, 6)])
    def test_materialized_matches_reference(self, n, k):
        cert = latin._certify_omega(n, k, 0)
        assert cert == reference_omega_certificate(n, k, 0)
        assert cert[1]["materialized"] == 2 ** cert[1]["blocks"]
        assert cert[1]["sampled"] is False

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,k", [(3, 6), (4, 4), (2, 8), (2, 9)])
    def test_sampled_matches_reference(self, n, k, seed):
        cert = latin._certify_omega(n, k, seed)
        assert cert == reference_omega_certificate(n, k, seed)
        assert cert[1]["sampled"] is True

    @pytest.mark.parametrize("n,r", [(2, 2), (3, 2)])
    def test_walk_forms_every_block_product(self, monkeypatch, n, r):
        # the walk's tables, recorded as the component walk's are, against
        # omega_product over every assignment of the two choices
        g = core.from_function(n, r, lambda *x: sum(x) % r)
        choices = list(census.enumerate_tables(n, 2))
        blocks = list(itertools.product(range(r), repeat=n))
        want = {latin.omega_product(g, latin.OmegaMap(
                    r, 2, n, {y: choices[c] for y, c in zip(blocks, assign)}
                )).values
                for assign in itertools.product(range(2), repeat=len(blocks))}
        walked = []
        walk = census._gray_tables

        def recorded(start, deltas):
            for table in walk(start, deltas):
                walked.append(table)
                yield table
        monkeypatch.setattr(census, "_gray_tables", recorded)
        _, cert = latin._certify_omega(n, 2 * r, 0)
        size = (2 * r) ** n
        assert {t.to_bytes(size, "little") for t in walked} == want
        assert cert["materialized"] == len(walked) == len(want)
        assert len(want) == 2 ** len(blocks)

    def test_only_two_choice_cases_fit_the_cap(self):
        # blocks = r^n >= 2^n, and every case has >= 2 choices, so from
        # n = 4 on (2^16 assignments) and past r^n = 12 all are sampled
        fit = set()
        for n in (2, 3, 4):
            for k in range(4, 13):
                if k % 2 and k % 3:
                    continue
                r, s = (k // 2, 2) if k % 2 == 0 else (k // 3, 3)
                nchoices = len(list(census.enumerate_tables(n, s)))
                if nchoices ** r ** n <= census.MATERIALIZE_CAP:
                    assert nchoices == 2
                    fit.add((n, k))
        assert fit == {(2, 4), (3, 4), (2, 6)}

    @pytest.mark.parametrize("n,k", [(3, 4), (2, 6), (4, 4)])
    def test_non_latin_skeleton_refused(self, monkeypatch, n, k):
        # the bare products, so that their non-Latin tables reach the
        # checks: latin walks from direct_product, the reference builds
        # with omega_product
        for name in ("direct_product", "omega_product"):
            monkeypatch.setattr(latin, name,
                                getattr(latin, name).__wrapped__)
        monkeypatch.setattr(latin, "from_function",
                            lambda n, r, fn: core.QTable(n, r, bytes(r ** n)))
        with pytest.raises(census.CertificationError):
            latin._certify_omega(n, k, 0)
        with pytest.raises(census.CertificationError):
            reference_omega_certificate(n, k, 0)

    @pytest.mark.parametrize("n,k", [(3, 4), (2, 6), (4, 4)])
    def test_duplicate_choice_refused(self, monkeypatch, n, k):
        tables = census.enumerate_tables
        monkeypatch.setattr(latin, "enumerate_tables",
                            lambda n, s: [next(tables(n, s))] * 2)
        with pytest.raises(census.CertificationError):
            latin._certify_omega(n, k, 0)
        with pytest.raises(census.CertificationError):
            reference_omega_certificate(n, k, 0)

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 4), (2, 6)])
    def test_block_cell_off_its_pair_refused(self, monkeypatch, n, k):
        # a Latin product with symbols 1 and 2 traded everywhere: block 0
        # carries pair (0, 1), and its first cell that held 1 holds 2
        product = latin.direct_product

        def traded(g, q):
            t = product(g, q)
            return core.QTable(t.arity, t.order, bytes(
                (0, 2, 1, *range(3, t.order))[v] for v in t.values))
        monkeypatch.setattr(latin, "direct_product", traded)
        with pytest.raises(census.CertificationError,
                           match=r"component 0 does not switch: cell .* "
                                 r"holds 2, not in \{0,1\}"):
            latin._certify_omega(n, k, 0)


class TestRunCensus:
    def test_exact_small(self):
        rep = census.run_census(3, 3)
        assert rep.exact_count == 24
        assert rep.bound_exponents is None

    def test_family_with_exact_cross_check(self):
        rep = census.run_census(2, 4)
        assert rep.exact_count == 576
        assert rep.family_log2 == 4
        assert 2 ** rep.family_log2 <= rep.exact_count

    def test_exact_off(self):
        rep = census.run_census(2, 4, exact="off")
        assert rep.exact_count is None
        assert rep.family_log2 == 4

    def test_auto_skips_big_orders(self):
        rep = census.run_census(2, 6)
        assert rep.exact_count is None
        assert rep.family_log2 == 9

    def test_auto_skips_search_past_cell_line_budget(self):
        # 2^20 cells fit the budget, but 20 line masks per cell do not
        t0 = time.perf_counter()
        rep = census.run_census(20, 2)
        assert time.perf_counter() - t0 < 1.0
        assert rep.exact_count is None

    def test_exact_on_forces(self):
        rep = census.run_census(2, 5, exact="on")
        assert rep.exact_count == 161280

    def test_report_json_shape(self):
        obj = census.report_to_json_obj(census.run_census(2, 4))
        # in this order: nqg census prints the keys as listed
        assert list(obj) == ["arity", "order", "exact_count",
                             "bound_exponents", "family_log2", "elapsed",
                             "certification"]
        assert obj["arity"] == 2 and obj["order"] == 4
        assert isinstance(obj["elapsed"], float)


IDENT = st.from_regex(r"[a-z_][a-z0-9_]{0,12}", fullmatch=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 40, 10 ** 40),
                   FINITE, st.sampled_from([5e-324, 2.2250738585072e-308,
                                            1.7976931348623157e308, -0.0]),
                   IDENT)


class TestReportJson:
    """census._report_json of report_to_json_obj, the text nqg census
    prints, against json.dumps, byte for byte."""

    @staticmethod
    def check(rep):
        obj = census.report_to_json_obj(rep)
        assert census._report_json(obj) == json.dumps(obj, separators=(",", ":"))

    @pytest.mark.parametrize("n,k,exact,seed", [
        (2, 4, "auto", 0), (2, 5, "auto", 0), (3, 4, "auto", 0),
        (2, 6, "auto", 0), (3, 6, "auto", 0), (3, 6, "auto", 1),
        (3, 6, "auto", 2), (3, 6, "auto", 7), (2, 9, "auto", 0),
        (6, 5, "auto", 0), (3, 7, "auto", 0), (5, 7, "auto", 0),
        (2, 4, "off", 0), (3, 3, "auto", 0)])
    def test_every_census_path(self, n, k, exact, seed):
        # exact, walked and sampled omega, a float family_log2 (2,9),
        # component families, exact_count None, no family (k = 3)
        self.check(census.run_census(n, k, exact=exact, seed=seed))

    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
           st.one_of(st.none(), st.integers(0, 10 ** 60)),
           st.one_of(st.none(), st.dictionaries(
               st.sampled_from(["even", "div3", "five", "general"]),
               st.integers(0, 10 ** 30))),
           st.one_of(st.none(), st.integers(0, 10 ** 9), FINITE),
           FINITE,
           st.one_of(st.none(), st.dictionaries(IDENT, SCALAR, max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_built_reports(self, n, k, exact, bounds, log2, elapsed, cert):
        self.check(census.CensusReport(n, k, exact, bounds, log2, elapsed,
                                       cert))
