"""Builders: closed embeddings, fixtures, switching, counting families."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nquasigroups import analysis, core, families, switching
from nquasigroups import constructions as C

import oracles
import randgen
from capped import run_capped
from oracles import table_outcome


class TestBuildQkr:
    def test_piecewise_spots(self):
        t = C.build_qkr(7, 2)
        assert core.evaluate(t, (4, 4)) == 0
        assert core.evaluate(t, (1, 5)) == 2

    def test_order5_table(self):
        want = [[0, 1, 2, 3, 4], [1, 0, 4, 2, 3], [2, 3, 0, 4, 1],
                [3, 4, 1, 0, 2], [4, 2, 3, 1, 0]]
        assert [list(r) for r in C.build_qkr(5, 2).rows()] == want

    def test_sub_block_is_cyclic(self):
        for k, r in [(5, 2), (7, 2), (9, 2), (8, 3), (11, 4)]:
            t = C.build_qkr(k, r)
            sub = analysis.restrict_to_symbols(t, tuple(range(r)))
            for i in range(r):
                for j in range(r):
                    assert core.evaluate(sub, (i, j)) == (i + j) % r

    def test_even_gap_rejected(self):
        with pytest.raises(C.ConstructionError, match="build_closed"):
            C.build_qkr(6, 2)

    def test_r_out_of_range(self):
        with pytest.raises(C.ConstructionError):
            C.build_qkr(7, 4)
        with pytest.raises(C.ConstructionError):
            C.build_qkr(7, 1)

    def test_all_admissible_to_25(self):
        for k in range(4, 26):
            for r in range(2, k // 2 + 1):
                if (k - r) % 2 == 1:
                    assert core.is_valid(C.build_qkr(k, r)), (k, r)


class TestFixtures:
    def test_all_valid_and_01_closed(self):
        for fid in C.FixtureId:
            t = C.fixture(fid)
            assert core.is_valid(t)
            sub = analysis.restrict_to_symbols(t, (0, 1))
            assert core.is_valid(sub)

    def test_spot_values(self):
        assert core.evaluate(C.fixture("Q72"), (4, 2)) == 5
        assert core.evaluate(C.fixture("Q52"), (2, 3)) == 1

    def test_corrected_order5_cells(self):
        # the two repaired positions, forced by Latin completion
        q = C.fixture("Q52")
        assert core.evaluate(q, (2, 4)) == 3
        assert core.evaluate(q, (4, 3)) == 2

    def test_order5_rows(self):
        want = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        assert [list(r) for r in C.fixture("Q52").rows()] == want

    def test_string_and_enum_ids(self):
        assert C.fixture("Q42").values == C.fixture(C.FixtureId.Q42).values

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            C.fixture("Q99")


class TestCompleteRectangle:
    def test_two_row_completion(self):
        p = C.PartialRectangle(4, ((0, 1, None, None), (1, 0, None, None)))
        t = C.complete_rectangle(p)
        assert core.is_valid(t)
        rows = [list(r) for r in t.rows()]
        assert [rows[0][:2], rows[1][:2]] == [[0, 1], [1, 0]]

    def test_full_table_unchanged(self):
        q = C.fixture("Q42")
        p = C.PartialRectangle(4, tuple(tuple(r) for r in q.rows()))
        assert C.complete_rectangle(p).values == q.values

    def test_hall_violator_reported(self):
        p = C.PartialRectangle(3, ((0, 1, None), (1, 0, None)))
        with pytest.raises(C.CompletionError) as ei:
            C.complete_rectangle(p)
        assert ei.value.violator == frozenset({2})

    def test_row_duplicate_rejected(self):
        with pytest.raises(C.ConstructionError):
            C.complete_rectangle(C.PartialRectangle(3, ((0, 0, None),)))

    def test_column_duplicate_rejected(self):
        with pytest.raises(C.ConstructionError):
            C.complete_rectangle(C.PartialRectangle(3, ((0, 1, 2), (0, None, None))))

    def test_deterministic(self):
        p = C.PartialRectangle(6, ((0, 1, 2, None, None, None),))
        assert C.complete_rectangle(p).values == C.complete_rectangle(p).values


class TestBuildClosed:
    def test_parity_block(self):
        t = C.build_closed(3, 5, 2)
        for cell in itertools.product((0, 1), repeat=3):
            assert core.evaluate(t, cell) == (cell[0] + cell[1] + cell[2]) % 2

    def test_binary_even_order(self):
        t = C.build_closed(2, 4, 2)
        assert core.is_valid(t)
        assert core.is_valid(analysis.restrict_to_symbols(t, (0, 1)))

    def test_restriction_validates_across_grid(self):
        for n in (2, 3):
            for k in range(4, 10):
                for r in range(2, k // 2 + 1):
                    t = C.build_closed(n, k, r)
                    sub = analysis.restrict_to_symbols(t, tuple(range(r)))
                    assert sub.order == r and core.is_valid(sub), (n, k, r)

    def test_arity_grows_right_nested(self):
        b = C.build_closed(2, 5, 2)
        t = C.build_closed(3, 5, 2)
        assert t.values == core.superpose(b, 2, b).values

    def test_r_too_large(self):
        with pytest.raises(C.ConstructionError):
            C.build_closed(3, 5, 3)


class TestSwitchSub:
    def test_parity_switch_differs_on_cube(self):
        q = C.build_closed(3, 4, 2)
        h = core.from_function(3, 2, lambda *x: (sum(x) + 1) % 2)
        f = C.switch_sub(q, (0, 1), h)
        assert core.is_valid(f)
        diff = [i for i, (a, b) in enumerate(zip(q.values, f.values)) if a != b]
        cube = sorted(q.index(c) for c in itertools.product((0, 1), repeat=3))
        assert diff == cube

    def test_identity_switch(self):
        q = C.build_closed(3, 6, 3)
        h = analysis.restrict_to_symbols(q, (0, 1, 2))
        assert C.switch_sub(q, (0, 1, 2), h).values == q.values

    def test_involution(self):
        q = C.build_closed(4, 5, 2)
        h = core.from_function(4, 2, lambda *x: (sum(x) + 1) % 2)
        f = C.switch_sub(q, (0, 1), h)
        back = C.switch_sub(f, (0, 1), analysis.restrict_to_symbols(q, (0, 1)))
        assert back.values == q.values

    def test_not_closed_rejected(self):
        # Q52(1,1) = 0 escapes {1,2}
        q = C.fixture("Q52")
        h = core.from_rows([[0, 1], [1, 0]])
        with pytest.raises(C.ConstructionError):
            C.switch_sub(q, (1, 2), h)

    def test_invalid_h_rejected(self):
        q = C.build_closed(3, 4, 2)
        bad = core.QTable(3, 2, tuple([0] * 8))
        with pytest.raises((C.ConstructionError, core.StructuralError)):
            C.switch_sub(q, (0, 1), bad)

    @given(st.integers(1, 4), st.integers(2, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, n, k, data):
        if n >= 2 and k >= 4 and data.draw(st.booleans()):
            r = data.draw(st.integers(2, k // 2))
            q = C.build_closed(n, k, r)
            omega = data.draw(st.sampled_from([range(r), range(k - r, k)]))
        else:
            q = core.from_function(n, k, lambda *x: sum(x) % k)
            omega = data.draw(st.lists(st.integers(-1, k), min_size=1,
                                       max_size=k))
        m = len(set(omega))
        h = core.from_function(n, m, lambda *x: (sum(x) + 1) % m)
        assert table_outcome(C.switch_sub, q, omega, h) \
            == table_outcome(oracles.reference_switch_sub, q, omega, h)

    def test_not_closed_names_the_cell(self):
        q = C.fixture("Q52")
        h = core.from_rows([[0, 1], [1, 0]])
        got = table_outcome(C.switch_sub, q, (1, 2), h)
        assert got == table_outcome(oracles.reference_switch_sub, q, (1, 2), h)
        assert got == ("ConstructionError",
                       "table is not closed on [1, 2]: value 0 at (1, 1)")


class TestBuildIrreducible:
    GRID = [(3, 4), (3, 5), (3, 6), (3, 7), (4, 4), (4, 5), (3, 8), (3, 9), (4, 8)]

    @pytest.mark.parametrize("n,k", GRID)
    def test_empty_reductions(self, n, k):
        t = C.build_irreducible(n, k)
        assert core.is_valid(t)
        assert analysis.find_reductions(t) == []

    def test_base_is_reducible_before_switch(self):
        for n, k in [(3, 4), (3, 8), (4, 4)]:
            base = C.irreducible_base(n, k)
            assert len(analysis.find_reductions(base)) > 0, (n, k)

    def test_out_of_range(self):
        with pytest.raises(C.ConstructionError):
            C.build_irreducible(2, 4)
        with pytest.raises(C.ConstructionError):
            C.build_irreducible(3, 3)


class TestBuildPtq:
    K7 = [[0, 1, 2, 3, 4, 5, 6],
          [1, 0, 3, 2, 5, 6, 4],
          [3, 4, 5, 6, 0, 1, 2],
          [4, 3, 6, 5, 1, 2, 0],
          [6, 2, 1, 4, 3, 0, 5],
          [2, 5, 4, 0, 6, 3, 1],
          [5, 6, 0, 1, 2, 4, 3]]

    def test_k7_full_table(self):
        assert [list(r) for r in families.build_ptq(7).rows()] == self.K7

    def test_k7_named_rows(self):
        rows = [list(r) for r in families.build_ptq(7).rows()]
        assert rows[1] == [1, 0, 3, 2, 5, 6, 4]
        assert rows[4] == [6, 2, 1, 4, 3, 0, 5]

    def test_k11_shifted_permutation_rows(self):
        rows = [list(r) for r in families.build_ptq(11).rows()]
        # row 5 is the first permutation shifted by 6, row 7 the second by 3
        assert rows[5] == [7, 6, 9, 8, 0, 10, 2, 1, 4, 5, 3]
        assert rows[7] == [2, 5, 4, 7, 6, 9, 8, 0, 10, 3, 1]

    @pytest.mark.parametrize("k", [7, 11, 13, 17, 19, 23])
    def test_valid(self, k):
        assert core.is_valid(families.build_ptq(k))

    @pytest.mark.parametrize("k", [7, 11, 13])
    def test_square_blocks_carry_value_pairs(self, k):
        t = families.build_ptq(k)
        for j in range(k // 3):
            for i in range(k // 2 - 1):
                got = {core.evaluate(t, (r, c))
                       for r in (2 * j, 2 * j + 1)
                       for c in (2 * i, 2 * i + 1)}
                assert got == {(2 * i + 3 * j) % k, (2 * i + 3 * j + 1) % k}

    @pytest.mark.parametrize("k", [5, 6, 9, 12, 15])
    def test_rejects_bad_orders(self, k):
        with pytest.raises(C.ConstructionError):
            families.build_ptq(k)


class TestBuildFamily5:
    def test_n2_is_the_fixture_components(self):
        fam = families.build_family5(2)
        assert fam.base.values == C.fixture("Q52").values
        sizes = sorted(len(c) for c in fam.components)
        assert sizes == [4, 6]
        cells0 = set(fam.components[0].coords())
        assert cells0 == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_n3_component_sizes(self):
        fam = families.build_family5(3)
        assert sorted(len(c) for c in fam.components) == [8, 12, 30]

    def test_n3_components_cover_the_low_cells(self):
        # the three sets of a 3-ary block partition the cells of the
        # squared fixture valued 0 or 1
        fam = families.build_family5(3)
        cells = [x for comp in fam.components for x in comp.coords()]
        assert len(cells) == len(set(cells))
        assert set(cells) == oracles.reference_low_cells(fam.base)

    def test_component_counts_by_residue(self):
        # 3^m, 4*3^(m-1), 2*3^m as n runs over 3m, 3m+1, 3m+2
        want = {2: 2, 3: 3, 4: 4, 5: 6, 6: 9, 7: 12}
        for n, s in want.items():
            fam = families.build_family5(n)
            assert len(fam.components) == s, n
            assert fam.claimed_log2 == s

    def test_components_disjoint_and_flippable(self):
        fam = families.build_family5(4)
        seen = set()
        for comp in fam.components:
            cells = set(comp.coords())
            assert not (cells & seen)
            seen |= cells
            assert core.is_valid(switching.switch_component(fam.base, comp))


class TestBuildFamilyK:
    @pytest.mark.parametrize("n,k,s", [(2, 7, 6), (3, 7, 12), (4, 7, 24),
                                       (2, 11, 15), (2, 13, 24)])
    def test_component_counts(self, n, k, s):
        fam = families.build_family_k(n, k)
        assert len(fam.components) == s
        assert fam.claimed_log2 == s == (k // 2) * (k // 3) ** (n - 1)

    def test_square_component_values_at_k7(self):
        g = core.inverse_along(families.build_ptq(7), 1)
        got = {core.evaluate(g, (r, c)) for r in (0, 1) for c in (0, 1)}
        assert got == {0, 1}

    def test_binary_components_match_search(self):
        fam = families.build_family_k(2, 7)
        by_pair = {}
        for comp in fam.components:
            by_pair.setdefault(tuple(sorted(comp.pair)), []).append(
                frozenset(comp.coords()))
        for (a, b), listed in by_pair.items():
            found = switching.find_components(fam.base, a, b)
            assert sorted(map(sorted, listed)) == sorted(
                comp.coords() for comp in found)

    def test_components_disjoint_and_flippable(self):
        fam = families.build_family_k(3, 7)
        seen = set()
        for comp in fam.components:
            cells = set(comp.coords())
            assert not (cells & seen)
            seen |= cells
            assert core.is_valid(switching.switch_component(fam.base, comp))

    def test_rejects_bad_orders(self):
        for k in (6, 9, 5):
            with pytest.raises(C.ConstructionError):
                families.build_family_k(2, k)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_cycles_match_find_components(self, k):
        # the row-cycle walk against the component search, on every pair
        # of random squares (non-group ones from k = 5 on) and of each
        # square with one of its components switched
        rng = random.Random(k)
        squares = []
        for _ in range(3):
            q = randgen.random_latin_square(k, rng)
            a, b = rng.sample(range(k), 2)
            squares += [q, switching.switch_component(
                q, rng.choice(switching.find_components(q, a, b)))]
        for q in squares:
            for a, b in itertools.permutations(range(k), 2):
                assert families._cycles(q, a, b) == [
                    comp.indices.tolist()
                    for comp in switching.find_components(q, a, b)]

    @pytest.mark.parametrize("n,k", [(2, 7), (3, 7), (4, 7), (5, 7), (2, 11),
                                     (3, 11), (2, 13), (2, 101)])
    def test_family_matches_search_reference(self, n, k):
        assert families.build_family_k(n, k) \
            == oracles.reference_build_family_k(n, k)


class TestBuildBudget:
    """Every builder checks the table size against core.BUILD_CELL_BUDGET
    before it allocates anything."""

    def test_refused_before_allocating(self):
        calls = ["build_qkr(3001, 2)", "build_closed(14, 10, 2)",
                 "build_closed(2, 3000, 2)", "irreducible_base(12, 9)",
                 "build_irreducible(12, 9)", "build_ptq(2051)",
                 "build_family5(10)", "build_family_k(30, 7)",
                 "complete_rectangle(PartialRectangle(3000, ()))"]
        # every builder through the package root, which loads its home
        done = run_capped(
            "import sys\n"
            "import nquasigroups\n"
            "from nquasigroups import PartialRectangle\n"
            "for call in sys.argv[1:]:\n"
            "    try:\n"
            "        eval('nquasigroups.' + call)\n"
            "        print('built', call)\n"
            "    except nquasigroups.ConstructionError as e:\n"
            "        print('refused', call, e)\n",
            *calls)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == len(calls)
        for call, line in zip(calls, lines):
            assert line.startswith("refused " + call)
            assert "build budget" in line

    def test_largest_in_budget_cases_still_build(self):
        assert core.is_valid(C.build_closed(9, 4, 2))
        assert families.build_family5(9).claimed_log2 == 27


class TestShellCounterexample:
    def test_loop_shape(self):
        q, f, loop = C.build_shell_counterexample()
        rows = [list(r) for r in loop.rows()]
        assert rows[0] == [0, 1, 2, 3, 4]
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]

    def test_nonassociative(self):
        q, f, loop = C.build_shell_counterexample()
        assert q.values != f.values

    def test_shells_agree(self):
        q, f, loop = C.build_shell_counterexample()
        shq = analysis.extract_shell(q, (0, 0, 0))
        shf = analysis.extract_shell(f, (0, 0, 0))
        assert shq == shf

    def test_groupings_of_loop(self):
        q, f, loop = C.build_shell_counterexample()
        for x in itertools.product(range(5), repeat=3):
            ab = core.evaluate(loop, (x[0], x[1]))
            bc = core.evaluate(loop, (x[1], x[2]))
            assert core.evaluate(q, x) == core.evaluate(loop, (ab, x[2]))
            assert core.evaluate(f, x) == core.evaluate(loop, (x[0], bc))
