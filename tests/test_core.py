"""Table representation, validation, and composition operators."""

import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nquasigroups import analysis, core, latin, tableio
from nquasigroups.constructions import (ConstructionError, build_closed,
                                        fixture, switch_sub)

import oracles
import randgen
from capped import run_capped
from oracles import reference_lines, table_outcome


def z_add(k, n=2):
    return core.from_function(n, k, lambda *x: sum(x) % k)


XOR2 = [[0, 1], [1, 0]]


class TestStructure:
    def test_index_coords_roundtrip_small(self):
        t = z_add(5)
        for i in range(25):
            assert t.index(t.coords(i)) == i

    @given(st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_index_coords_roundtrip(self, n, k):
        t = core.from_function(n, k, lambda *x: sum(x) % k)
        for i in range(min(k ** n, 200)):
            assert t.index(t.coords(i)) == i
        # coordinate 1 is most significant
        if k > 1:
            assert t.index((1,) + (0,) * (n - 1)) == k ** (n - 1)

    def test_lex_order_matches_index_order(self):
        t = z_add(3, 3)
        cells = [t.coords(i) for i in range(27)]
        assert cells == sorted(cells)

    def test_bad_length_raises(self):
        with pytest.raises(core.StructuralError):
            core.validate(core.QTable(2, 2, (0, 1, 1)))

    def test_out_of_range_symbol_raises(self):
        with pytest.raises(core.StructuralError):
            core.validate(core.QTable(1, 2, (0, 5)))

    def test_from_rows_shape_check(self):
        with pytest.raises(core.StructuralError):
            core.from_rows([[0, 1], [1]])


class TestValidate:
    def test_fixture_q72_ok(self):
        assert core.validate(fixture("Q72")).ok

    def test_xor_ok(self):
        assert core.is_valid(core.from_rows(XOR2))

    def test_duplicated_row_violation(self):
        rep = core.validate(core.from_rows([[0, 1], [0, 1]]))
        assert not rep.ok
        v = rep.violations[0]
        assert v.axis == 1
        assert v.fixed == (None, 0)

    def test_order_one_valid(self):
        assert core.is_valid(core.from_rows([[0]]))

    @given(st.integers(2, 5), st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_random_squares_validate(self, k, seed):
        assert core.is_valid(randgen.random_binary(k, seed))


def reference_table(n, k, vals):
    """The table of vals after a per-value structure check, the one the
    QTable constructor makes at C level: the oracle."""
    if len(vals) != k ** n:
        raise core.StructuralError(
            "%d values do not fill a table of order %d and arity %d"
            % (len(vals), k, n))
    for v in vals:
        if type(v) is not int or not 0 <= v < k:
            raise core.StructuralError("symbol %r out of range 0..%d" % (v, k - 1))
    return core.QTable(n, k, vals)


def reference_validate(t):
    """The per-line scan validate ran before its one-hot sums: the oracle."""
    k, n = t.order, t.arity
    vals = t.values
    violations = []
    for ax, base, stride in reference_lines(n, k):
        mask = 0
        for j in range(k):
            mask |= 1 << vals[base + j * stride]
        if mask != (1 << k) - 1:
            fixed = list(t.coords(base))
            fixed[ax] = None
            violations.append(core.LineViolation(ax + 1, tuple(fixed)))
    return core.ValidationReport(not violations, tuple(violations))


def outcome(fn, *args):
    try:
        return fn(*args)
    except core.StructuralError as e:
        return ("StructuralError", str(e))


def isotope_of_sum(n, k, rng):
    """A random isotope of the n-ary cyclic sum: Latin, every axis permuted."""
    res = list(range(k))
    rng.shuffle(res)
    perms = []
    for _ in range(n):
        perms.append(list(range(k)))
        rng.shuffle(perms[-1])
    return core.from_function(
        n, k, lambda *x: res[sum(p[c] for p, c in zip(perms, x)) % k])


def random_values(n, k, rng):
    """A table of uniformly drawn symbols: on most lines not Latin."""
    return core.QTable(n, k, tuple(rng.randrange(k) for _ in range(k ** n)))


# values a perturbed cell may take besides an in-range symbol
ODD_VALUES = [-1, 0.0, 1.5, True, False, None, "0"]


class TestValidateAgainstReference:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_tables(self, data):
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, {1: 70, 2: 30, 3: 12, 4: 7}[n]))
        t = isotope_of_sum(n, k, data.draw(st.randoms(use_true_random=False)))
        vals = list(t.values)
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(vals) - 1))
            vals[i] = data.draw(st.one_of(
                st.integers(0, k - 1), st.integers(0, k - 1),
                st.sampled_from(ODD_VALUES + [k, k + 5])))
        # the constructor refuses what the per-value check refuses, with
        # the same message; validate reports on whatever it accepts
        assert outcome(lambda: core.validate(core.QTable(n, k, tuple(vals)))) \
            == outcome(lambda: reference_validate(reference_table(n, k, vals)))

    @pytest.mark.parametrize("k", [6, 7, 13, 14, 28, 29, 58, 59, 60, 64])
    def test_field_width_boundaries(self, k):
        # widths 1 | 2 at k = 7, 2 | 4 at 14, 4 | 8 at 29, none past 59
        t = isotope_of_sum(2, k, random.Random(k))
        assert core.validate(t) == reference_validate(t) == core.ValidationReport(True)
        for i in (0, k * k // 2, k * k - 1):
            vals = list(t.values)
            vals[i] = (vals[i] + 1) % k
            bad = core.QTable(2, k, tuple(vals))
            rep = core.validate(bad)
            assert rep == reference_validate(bad) and not rep.ok

    def test_one_hot_width(self):
        assert [core._one_hot_width(k) for k in (1, 6, 7, 13, 14, 28, 29, 59, 60)] \
            == [1, 1, 2, 2, 4, 4, 8, 8, None]

    def test_two_swapped_symbols_in_one_line(self):
        # swapping two neighbours along axis 3 keeps that line a
        # permutation and breaks the axis-1 and axis-2 lines through both
        t = isotope_of_sum(3, 5, random.Random(1))
        vals = list(t.values)
        vals[0], vals[1] = vals[1], vals[0]
        bad = core.QTable(3, 5, tuple(vals))
        rep = core.validate(bad)
        assert rep == reference_validate(bad)
        assert [v.axis for v in rep.violations] == [1, 1, 2, 2]

    def test_first_bad_symbol_named(self):
        with pytest.raises(core.StructuralError, match=r"symbol 2\.0 out of range"):
            core.QTable(2, 3, (0, 1, 2, 1, 2.0, 7, 2, 0, 1))
        with pytest.raises(core.StructuralError, match="symbol 9 out of range"):
            core.QTable(2, 3, (0, 1, 2, 1, 9, -1, 2, 0, 1))

    def test_debug_validate_reports_first_violation(self):
        # the test suite checks every operator's output (conftest.py);
        # __wrapped__ is the bare operator
        outer = core.QTable(2, 3, (0, 1, 2, 1, 2, 0, 0, 1, 2))
        inner = z_add(3)
        t = core.superpose.__wrapped__(outer, 1, inner)
        first = reference_validate(t).violations[0]
        with pytest.raises(AssertionError) as err:
            core.superpose(outer, 1, inner)
        assert str(err.value) == "superpose produced an invalid table: %r" % (first,)

    @given(st.integers(1, 5), st.integers(2, 5),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_random_values_list_every_violation(self, n, k, rng):
        # violations on every axis, so each axis's chunks are scanned
        t = random_values(n, min(k, 3) if n == 5 else k, rng)
        assert core.validate(t) == reference_validate(t)

    @pytest.mark.parametrize("n,k", [(1, 61), (2, 60), (2, 64)])
    def test_orders_past_one_hot_fields(self, n, k):
        # no one-hot width: every table is scanned line by line
        rng = random.Random(k)
        for t in (isotope_of_sum(n, k, rng), random_values(n, k, rng)):
            assert core.validate(t) == reference_validate(t)


class TestOneHotAgainstLines:
    """_one_hot_latin's whole-chunk sums against the line-by-line scan,
    with one cell broken at every position, so that a violation sits at
    the first and the last line of every chunk of every axis."""

    @pytest.mark.parametrize("n,k", [(5, 3), (4, 5), (3, 7), (2, 14)],
                             ids=["3^5", "5^4", "7^3", "14^2"])
    def test_every_cell_broken(self, n, k):
        t = isotope_of_sum(n, k, random.Random(n * k))
        w = core._one_hot_width(k)
        assert core._one_hot_latin(t, w)
        for i in range(len(t.values)):
            vals = bytearray(t.values)
            vals[i] = (vals[i] + 1) % k
            bad = core.QTable(n, k, vals)
            assert not core._one_hot_latin(bad, w)
            assert core.validate(bad) == reference_validate(bad)


class TestSymbolCheckInSlices:
    """The constructor checks bytes a slice at a time and still names the
    first bad symbol, wherever it sits against the slices."""

    @pytest.mark.parametrize("size", [1, 3, 4])
    def test_bad_symbol_at_every_position(self, monkeypatch, size):
        monkeypatch.setattr(core, "_SLICE", size)
        good = bytes(z_add(5).values)
        assert core.QTable(2, 5, good) == z_add(5)
        for i in range(len(good)):
            for bad in (5, 255):
                vals = bytearray(good)
                vals[i] = bad
                with pytest.raises(core.StructuralError) as err:
                    core.QTable(2, 5, vals)
                assert str(err.value) == "symbol %d out of range 0..4" % bad


class TestEvaluate:
    def test_q72_spots(self):
        q = fixture("Q72")
        assert core.evaluate(q, (2, 4)) == 6
        assert core.evaluate(q, (0, 0)) == 0
        assert core.evaluate(q, (4, 2)) == 5

    def test_xor(self):
        assert core.evaluate(core.from_rows(XOR2), (1, 1)) == 0

    def test_cell_argument(self):
        q = fixture("Q52")
        # a cell as QTable.coords gives it
        assert core.evaluate(q, q.coords(13)) == 1

    def test_out_of_range(self):
        with pytest.raises(core.StructuralError):
            core.evaluate(fixture("Q42"), (4, 0))
        with pytest.raises(core.StructuralError):
            core.evaluate(fixture("Q42"), (0, 0, 0))
        # a bool or a float equal to a coordinate is not one
        for cell, bad in [((True, 0), True), ((0, 1.0), 1.0), ((0, -1), -1)]:
            with pytest.raises(core.StructuralError) as err:
                core.evaluate(fixture("Q52"), cell)
            assert str(err.value) == "coordinate %r out of range 0..4" % (bad,)


class TestInverseAlong:
    def test_z5_subtraction(self):
        sub = core.inverse_along(z_add(5), 1)
        # z - y: inverse(3,1) solves x + 1 = 3
        assert core.evaluate(sub, (3, 1)) == 2

    def test_involution_q72(self):
        q = fixture("Q72")
        assert core.inverse_along(core.inverse_along(q, 1), 1).values == q.values

    def test_axis_2(self):
        q = fixture("Q62")
        inv = core.inverse_along(q, 2)
        for x in range(6):
            for y in range(6):
                assert core.evaluate(inv, (x, core.evaluate(q, (x, y)))) == y

    def test_bad_axis(self):
        with pytest.raises(core.StructuralError):
            core.inverse_along(fixture("Q42"), 3)

    @given(st.integers(2, 5), st.integers(0, 10 ** 6), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_involution_random(self, k, seed, axis):
        t = randgen.random_binary(k, seed)
        assert core.inverse_along(core.inverse_along(t, axis), axis).values == t.values


class TestRetract:
    def test_q72_row0(self):
        r = analysis.retract(fixture("Q72"), {1: 0})
        assert r.arity == 1
        assert list(r.values) == [0, 1, 2, 3, 4, 5, 6]

    def test_z3_sum_middle_axis(self):
        t = z_add(3, 3)
        r = analysis.retract(t, {2: 0})
        assert r.values == z_add(3).values

    def test_all_axes_fixed_rejected(self):
        with pytest.raises(core.StructuralError):
            analysis.retract(fixture("Q42"), {1: 0, 2: 0})

    @pytest.mark.parametrize("fixed,error", [
        ({1: 1.5}, "symbol 1.5 out of range 0..4"),
        ({1: True}, "symbol True out of range 0..4"),
        ({2: 5}, "symbol 5 out of range 0..4"),
        ({True: 1}, "axis True out of range 1..3"),
        ({1.0: 1}, "axis 1.0 out of range 1..3"),
        ({4: 1}, "axis 4 out of range 1..3")],
        ids=["float-symbol", "bool-symbol", "symbol-past-order",
             "bool-axis", "float-axis", "axis-past-arity"])
    def test_bad_axis_or_symbol_refused(self, fixed, error):
        # a float symbol ended in a TypeError, a bool axis fixed axis 1
        with pytest.raises(core.StructuralError) as err:
            analysis.retract(z_add(5, 3), fixed)
        assert str(err.value) == error

    @given(st.integers(2, 5), st.integers(0, 10 ** 6), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_retract_valid(self, k, seed, axis):
        t = randgen.random_binary(k, seed)
        r = analysis.retract(t, {axis: k - 1})
        assert r.arity == 1 and core.is_valid(r)


class TestSuperpose:
    def test_xor_cubed(self):
        x = core.from_rows(XOR2)
        t = core.superpose(x, 2, x)
        assert t.arity == 3
        assert core.evaluate(t, (1, 1, 1)) == 1
        for cell in itertools.product((0, 1), repeat=3):
            assert core.evaluate(t, cell) == cell[0] ^ cell[1] ^ cell[2]

    def test_q52_squared_spot(self):
        q = fixture("Q52")
        q2 = core.superpose(q, 2, q)
        assert core.evaluate(q2, (0, 2, 3)) == 1

    def test_slot_expansion_order(self):
        # inner occupies slots 1..2 when plugged at position 1
        q = z_add(4)
        t = core.superpose(q, 1, q)
        for cell in itertools.product(range(4), repeat=3):
            assert core.evaluate(t, cell) == sum(cell) % 4

    def test_order_mismatch(self):
        with pytest.raises(core.StructuralError):
            core.superpose(fixture("Q42"), 1, fixture("Q52"))

    def test_over_budget_refused(self):
        # 256^3 cells, four times core.BUILD_CELL_BUDGET
        with pytest.raises(core.StructuralError) as err:
            core.superpose(z_add(256), 1, z_add(256))
        assert str(err.value) == ("a table of arity 3 and order 256 holds "
                                  "256^3 cells, over the 4194304-cell build "
                                  "budget")

    @given(st.integers(2, 5), st.integers(0, 10 ** 5), st.integers(0, 10 ** 5),
           st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_superpose_valid(self, k, s1, s2, pos):
        t = core.superpose(randgen.random_binary(k, s1), pos,
                           randgen.random_binary(k, s2))
        assert t.arity == 3 and core.is_valid(t)


    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_cell_by_cell(self, n_out, m, k, data):
        # any values, Latin or not: __wrapped__ skips the suite's check
        rng = data.draw(st.randoms(use_true_random=False))
        outer, inner = random_values(n_out, k, rng), random_values(m, k, rng)
        pos = data.draw(st.integers(1, n_out))
        t = core.superpose.__wrapped__(outer, pos, inner)
        want = [core.evaluate(outer, x[:pos - 1]
                              + (core.evaluate(inner, x[pos - 1:pos - 1 + m]),)
                              + x[pos - 1 + m:])
                for x in itertools.product(range(k), repeat=n_out + m - 1)]
        assert (t.arity, t.order, list(t.values)) == (n_out + m - 1, k, want)


class TestIterate:
    def test_parity(self):
        t = core.iterate(core.from_rows(XOR2), 2)
        for cell in itertools.product((0, 1), repeat=3):
            assert core.evaluate(t, cell) == sum(cell) % 2

    def test_unfolds_to_superpose(self):
        q = fixture("Q52")
        assert core.iterate(q, 2).values == core.superpose(q, 2, q).values

    def test_identity_at_one(self):
        q = fixture("Q62")
        assert core.iterate(q, 1).values == q.values

    def test_z5_sum(self):
        t = core.iterate(z_add(5), 3)
        assert core.evaluate(t, (1, 1, 1, 1)) == 4

    def test_m_below_one(self):
        with pytest.raises(core.StructuralError):
            core.iterate(z_add(5), 0)

    def test_over_budget_refused_before_building(self):
        # 2^23 cells, twice core.BUILD_CELL_BUDGET; an arity of a million
        # is refused as fast, without forming 2^1000001
        for m in (22, 10 ** 6):
            with pytest.raises(core.StructuralError) as err:
                core.iterate(z_add(2), m)
            assert str(err.value) == (
                "a table of arity %d and order 2 holds 2^%d cells, over the "
                "4194304-cell build budget" % (m + 1, m + 1))

    def test_exactly_the_budget_still_built(self):
        t = core.iterate(z_add(2), 21)
        assert len(t.values) == core.BUILD_CELL_BUDGET == 2 ** 22
        assert core.evaluate(t, (1,) * 22) == 0


class TestDirectProduct:
    def test_xor_pair_encoding(self):
        x = core.from_rows(XOR2)
        p = latin.direct_product(x, x)
        assert p.order == 4
        # x1 = (1,1) -> 3, x2 = (1,0) -> 2, value (0,1) -> 1
        assert core.evaluate(p, (3, 2)) == 1

    def test_componentwise(self):
        g = z_add(3)
        q = core.from_rows(XOR2)
        p = latin.direct_product(g, q)
        for a1, b1, a2, b2 in itertools.product(range(3), range(2), range(3), range(2)):
            got = core.evaluate(p, (a1 * 2 + b1, a2 * 2 + b2))
            assert got == ((a1 + a2) % 3) * 2 + (b1 ^ b2)

    def test_arity_mismatch(self):
        with pytest.raises(core.StructuralError):
            latin.direct_product(z_add(3), z_add(3, 3))

    @given(st.integers(0, 10 ** 5), st.integers(0, 10 ** 5))
    @settings(max_examples=10, deadline=None)
    def test_product_valid(self, s1, s2):
        p = latin.direct_product(randgen.random_binary(3, s1),
                                 randgen.random_binary(2, s2))
        assert p.order == 6 and core.is_valid(p)


class TestOmegaProduct:
    def _omega(self, tables):
        x = core.from_rows(XOR2)
        assign = {}
        for idx, cell in enumerate(itertools.product((0, 1), repeat=2)):
            assign[cell] = tables[idx]
        return latin.OmegaMap(outer_order=2, inner_order=2, arity=2,
                              assignment=assign)

    def test_defining_formula_spot(self):
        x = core.from_rows(XOR2)
        om = self._omega([x, x, x, x])
        t = latin.omega_product(x, om)
        assert t.order == 4
        # (2,3): g(1,1)*2 + omega<1,1>(0,1) = 0*2 + 1
        assert core.evaluate(t, (2, 3)) == 1

    def test_all_sixteen_distinct(self):
        x = core.from_rows(XOR2)
        nx = core.from_rows([[1, 0], [0, 1]])
        seen = set()
        for pick in itertools.product((x, nx), repeat=4):
            t = latin.omega_product(x, self._omega(list(pick)))
            assert core.is_valid(t)
            seen.add(t.values)
        assert len(seen) == 16

    def test_missing_entry(self):
        x = core.from_rows(XOR2)
        om = latin.OmegaMap(2, 2, 2, {(0, 0): x})
        with pytest.raises(core.StructuralError):
            latin.omega_product(x, om)

    @pytest.mark.parametrize("args,message", [
        ((0, 2, 2, {}), "outer_order must be an integer >= 1"),
        ((2, "2", 2, {}), "inner_order must be an integer >= 1"),
        ((2, 1.5, 2, {}), "inner_order must be an integer >= 1"),
        # a bool is not quietly taken as 1
        ((2, True, 2, {}), "inner_order must be an integer >= 1"),
        ((2, 2, 0, {}), "arity must be an integer >= 1"),
        ((2, 2, 2, None), "assignment must be a dict"),
        ((2, 2, 2, []), "assignment must be a dict")])
    def test_malformed_map_refused(self, args, message):
        with pytest.raises(core.StructuralError) as err:
            latin.OmegaMap(*args)
        assert str(err.value) == message

    def test_block_that_is_not_a_table_refused(self):
        x = core.from_rows(XOR2)
        om = self._omega([x, x, 5, x])
        with pytest.raises(core.StructuralError) as err:
            latin.omega_product(x, om)
        assert str(err.value) == ("omega block (1, 0) holds 5, not a table "
                                  "of shape (2,2)")

    def test_over_build_budget_refused_first(self):
        # (2 * 10^6)^2 cells: refused before the map is even checked
        x = core.from_rows(XOR2)
        om = latin.OmegaMap(2, 10 ** 6, 2, {})
        with pytest.raises(core.StructuralError, match="build budget"):
            latin.omega_product(x, om)


class TestBlockProductAgainstReference:
    """direct_product and omega_product against their per-cell versions."""

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_direct_product(self, n, kg, kq, is_latin, rng):
        make = isotope_of_sum if is_latin else random_values
        g, q = make(n, kg, rng), make(n, kq, rng)
        # __wrapped__: the product without the suite's output check
        op = latin.direct_product
        if not is_latin:
            op = op.__wrapped__
        assert table_outcome(op, g, q) \
            == table_outcome(oracles.reference_direct_product, g, q)

    def test_direct_product_arity_mismatch(self):
        g, q = z_add(3), z_add(3, 3)
        got = table_outcome(latin.direct_product, g, q)
        assert got == table_outcome(oracles.reference_direct_product, g, q)
        assert got == ("StructuralError", "arity mismatch: 2 vs 3")

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from(["whole", "missing", "misshapen"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_omega_product(self, n, r, s, defect, rng):
        g = isotope_of_sum(n, r, rng)
        blocks = list(itertools.product(range(r), repeat=n))
        assign = {y: isotope_of_sum(n, s, rng) for y in blocks}
        if defect != "whole":
            y = rng.choice(blocks)
            if defect == "missing":
                del assign[y]
            else:
                assign[y] = isotope_of_sum(n, s + 1, rng)
        om = latin.OmegaMap(r, s, n, assign)
        got = table_outcome(latin.omega_product, g, om)
        assert got == table_outcome(oracles.reference_omega_product, g, om)
        assert (got[0] == "ok") == (defect == "whole")

    def test_omega_product_argument_errors(self):
        x = core.from_rows(XOR2)
        for om in (None, latin.OmegaMap(3, 2, 2, {}),
                   latin.OmegaMap(2, 2, 3, {})):
            got = table_outcome(latin.omega_product, x, om)
            assert got == table_outcome(oracles.reference_omega_product, x, om)
            assert got[0] == "StructuralError"

    def test_tables_that_do_not_fill_their_shape_refused(self):
        # such a table never reaches a product: its constructor refuses it
        for vals in ((0, 1, 1), (0,) * 5):
            with pytest.raises(core.StructuralError) as err:
                core.QTable(2, 2, vals)
            assert str(err.value) == ("%d values do not fill a table of "
                                      "order 2 and arity 2" % len(vals))

    def test_product_past_order_256_refused(self):
        x = core.from_rows(XOR2)
        q = core.from_function(1, 129, lambda v: v)
        with pytest.raises(core.StructuralError) as err:
            latin.direct_product(core.from_function(1, 2, lambda v: v), q)
        assert str(err.value) == ("order 258 is over 256, the most symbols "
                                  "a table holds")
        assert latin.direct_product(x, x).order == 4

    def test_direct_product_over_build_budget_refused(self):
        # 2^11 x 3^11 would hold 6^11 cells: refused before allocating, in
        # a capped child in case the guard ever goes
        done = run_capped(
            "import time\n"
            "from nquasigroups import core, latin\n"
            "g = core.from_function(11, 2, lambda *x: sum(x) % 2)\n"
            "q = core.from_function(11, 3, lambda *x: sum(x) % 3)\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    latin.direct_product(g, q)\n"
            "except core.StructuralError as e:\n"
            "    print(time.perf_counter() - t0, e)\n")
        assert done.returncode == 0, done.stderr
        seconds, message = done.stdout.split(" ", 1)
        assert float(seconds) < 1
        assert message == ("a table of arity 11 and order 6 holds 6^11 "
                           "cells, over the 4194304-cell build budget\n")


class TestRestrictToSymbols:
    @given(st.integers(1, 4), st.integers(1, 6), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, n, k, closed, data):
        rng = data.draw(st.randoms(use_true_random=False))
        if closed and n >= 2 and k >= 4:
            t = build_closed(n, k, data.draw(st.integers(2, k // 2)))
        else:
            t = isotope_of_sum(n, k, rng)
        omega = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                   max_size=k))
        assert table_outcome(analysis.restrict_to_symbols, t, omega) \
            == table_outcome(oracles.reference_restrict_to_symbols, t, omega)

    def test_not_closed_names_the_cell(self):
        t = fixture("Q52")
        got = table_outcome(analysis.restrict_to_symbols, t, (1, 2))
        assert got == table_outcome(oracles.reference_restrict_to_symbols,
                                    t, (1, 2))
        assert got == ("StructuralError",
                       "table is not closed on (1, 2): value 0 at (1, 1)")

    @pytest.mark.parametrize("omega", [(0, 5), (-1, 0), (7,), ()])
    def test_symbols_outside_the_order_refused(self, omega):
        # (0, 5) read the cell (1, 0) through flat index 5, and -1 wrapped
        # to the last cell
        with pytest.raises(core.StructuralError) as e:
            analysis.restrict_to_symbols(fixture("Q52"), omega)
        assert str(e.value) == "omega must be a nonempty subset of 0..4"


class TestCellBudget:
    def test_boundary(self):
        budget = core.BUILD_CELL_BUDGET
        assert budget == 1 << 22
        core.check_cell_budget(22, 2, ValueError)
        core.check_cell_budget(11, 4, ValueError)
        core.check_cell_budget(10 ** 9, 1, ValueError)
        core.check_cell_budget(1, budget, ValueError)
        for n, k in [(23, 2), (12, 4), (1, budget + 1), (2, 2049)]:
            with pytest.raises(ValueError, match="over the 4194304-cell"):
                core.check_cell_budget(n, k, ValueError)

    def test_huge_arity_never_forms_the_power(self):
        # capped: forming (10^6)^(10^18) would exhaust memory
        done = run_capped(
            "from nquasigroups import core\n"
            "try:\n"
            "    core.check_cell_budget(10 ** 18, 10 ** 6, ValueError)\n"
            "except ValueError as e:\n"
            "    print(e)\n")
        assert done.returncode == 0, done.stderr
        assert "build budget" in done.stdout


class TestSerialization:
    def test_json_roundtrip_fixture(self):
        q = fixture("Q72")
        assert tableio.from_json(tableio.to_json(q)).values == q.values

    def test_json_fields(self):
        obj = json.loads(tableio.to_json(fixture("Q42")))
        assert set(obj) == {"arity", "order", "values"}
        assert obj["arity"] == 2 and obj["order"] == 4
        assert len(obj["values"]) == 16

    def test_text_roundtrip(self):
        q = fixture("Q62")
        txt = tableio.to_text(q)
        assert txt.endswith("\n") and len(txt.splitlines()) == 6
        assert tableio.from_text(txt).values == q.values

    def test_text_binary_only(self):
        t = z_add(3, 3)
        with pytest.raises(core.StructuralError):
            tableio.to_text(t)

    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_any_arity(self, n, k, data):
        # any values in range, Latin or not
        vals = data.draw(st.lists(st.integers(0, k - 1), min_size=k ** n,
                                  max_size=k ** n))
        t = core.QTable(n, k, tuple(vals))
        assert tableio.from_json(tableio.to_json(t)) == t

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_text_roundtrip_property(self, k, data):
        vals = data.draw(st.lists(st.integers(0, k - 1), min_size=k * k,
                                  max_size=k * k))
        t = core.QTable(2, k, tuple(vals))
        assert tableio.from_text(tableio.to_text(t)) == t

    def test_malformed_json(self):
        with pytest.raises(core.StructuralError):
            tableio.from_json('{"arity": 2, "order": 2}')
        with pytest.raises(core.StructuralError):
            tableio.from_text("0 1\n1\n")

    @pytest.mark.parametrize("obj", [
        {"arity": 2, "order": 2, "values": [0.9, 1.2, 1, 0]},
        {"arity": 2, "order": 2, "values": [0.0, 1, 1, 0]},
        {"arity": 2, "order": 2, "values": [False, True, True, False]},
        {"arity": True, "order": 2, "values": [0, 1]},
        {"arity": 2, "order": 2.0, "values": [0, 1, 1, 0]},
        {"arity": "2", "order": 2, "values": [0, 1, 1, 0]},
        {"arity": 2, "order": 2, "values": [0, 1, 1]},
        {"arity": 10 ** 12, "order": 2, "values": [0, 1, 1, 0]},
        {"arity": 0, "order": 2, "values": [0]},
        # one bad value at the very end of a 5^4 list
        {"arity": 4, "order": 5, "values": [0] * 624 + [True]},
        {"arity": 4, "order": 5, "values": [0] * 624 + [1.0]},
    ])
    def test_strict_json_fields(self, obj):
        with pytest.raises(core.StructuralError):
            tableio.from_json_obj(obj)


def loads_reference(text):
    """from_json before its compact path: json.loads, then from_json_obj."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise core.StructuralError("bad table JSON: %s" % e)
    return tableio.from_json_obj(obj)


def read_outcome(read, text):
    try:
        return read(text)
    except ValueError as e:
        return type(e).__name__, str(e)


def small_table(data, kmax=12):
    """A drawn table of order <= kmax and at most 150 cells, Latin or not."""
    k = data.draw(st.integers(1, kmax))
    n = data.draw(st.integers(1, max(1, {1: 7, 2: 7, 3: 4, 4: 3}.get(k, 2))))
    return core.QTable(n, k, data.draw(st.lists(
        st.integers(0, k - 1), min_size=k ** n, max_size=k ** n)))


def mutated_text(t, data):
    """The compact JSON of t, mutated by one drawn edit."""
    items = [str(v) for v in t.values]
    keys = [("arity", str(t.arity)), ("order", str(t.order)),
            ("values", "[%s]")]
    kind = data.draw(st.sampled_from((
        "none", "inner-space", "outer-space", "symbol", "header", "reorder",
        "duplicate", "trailing", "trailing-comma", "no-bracket")))
    if kind == "symbol":
        i = data.draw(st.integers(0, len(items) - 1))
        items[i] = data.draw(st.sampled_from(
            ("05", "-1", "10", "1.0", "true", "9", "0", "", "\u0663",
             "\ud800")))
    elif kind == "header":
        i = data.draw(st.integers(0, 1))
        keys[i] = (keys[i][0], data.draw(st.sampled_from(
            ("0" + keys[i][1], "-" + keys[i][1], keys[i][1] + ".0", "true",
             "1e1", '"%s"' % keys[i][1], "1" * 30))))
    elif kind == "trailing-comma":
        items.append("")
    elif kind == "reorder":
        keys = data.draw(st.permutations(keys))
    elif kind == "duplicate":
        keys.append(data.draw(st.sampled_from(keys)))
    text = "{%s}" % ",".join('"%s":%s' % kv for kv in keys)
    text = text.replace("[%s]", "[%s]" % ",".join(items))
    if kind == "inner-space":
        i = data.draw(st.integers(1, len(text) - 1))
        text = text[:i] + data.draw(st.sampled_from(" \n\t\r")) + text[i:]
    elif kind == "outer-space":
        # JSON whitespace, then characters that str.strip() would drop
        text = data.draw(st.sampled_from(("", " \n", "\x0c", "\xa0"))) \
            + text + data.draw(st.sampled_from(
                ("", "\t\r\n", "\x0b", "\u2028", "\xa0 ")))
    elif kind == "trailing":
        text += data.draw(st.sampled_from(("x", " 0", "]}", ",", "{}")))
    elif kind == "no-bracket":
        text = text.replace("]", "", 1)
    return text


class TestCompactJson:
    """from_json's compact path and the digit writer against json."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_read_matches_json_loads(self, data):
        text = mutated_text(small_table(data), data)
        assert read_outcome(tableio.from_json, text) \
            == read_outcome(loads_reference, text)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_writers_match_json_dumps(self, data):
        # orders 1..12: both sides of the single-digit cutoff at 10
        import contextlib
        import io

        from nquasigroups import commands

        t = small_table(data)
        obj = tableio.to_json_obj(t)
        assert tableio.to_json(t) == json.dumps(obj)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            commands._emit_table(t, False)
        assert out.getvalue() == json.dumps(obj, separators=(",", ":")) + "\n"
        assert tableio.from_json(out.getvalue()) == t

    @pytest.mark.parametrize("text,error", [
        ('{"arity":2,"order":2,"values":[0,1,1]}',
         "3 values do not fill a table of order 2 and arity 2"),
        ('{"arity":2,"order":2,"values":[0,1,1,5]}',
         "symbol 5 out of range 0..1"),
        ('{"arity":1,"order":300,"values":[0]}',
         "order 300 is over 256, the most symbols a table holds"),
        ('{"arity":0,"order":2,"values":[0]}',
         "arity must be an integer >= 1"),
        ('{"arity":99999999999999,"order":2,"values":[0]}',
         "1 values do not fill a table of order 2 and arity 99999999999999"),
    ])
    def test_compact_refusals(self, text, error):
        # the compact path gives the constructor's errors, as json does
        for read in (tableio.from_json, loads_reference):
            with pytest.raises(core.StructuralError) as err:
                read(text)
            assert str(err.value) == error


def drawn_table(data, orders):
    """A drawn table of an order in orders and at most about 150 cells:
    a cyclic n-ary group with its symbols permuted (Latin), or any
    symbols."""
    k = data.draw(st.sampled_from(orders))
    n = data.draw(st.integers(1, max(1, {1: 7, 2: 7, 3: 4, 4: 3}.get(k, 2))))
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(k)))
        return core.QTable(n, k, bytes(
            perm[sum(x) % k] for x in itertools.product(range(k), repeat=n)))
    return core.QTable(n, k, data.draw(st.lists(
        st.integers(0, k - 1), min_size=k ** n, max_size=k ** n)))


def edited_compact(t, data):
    """The compact JSON of t with one drawn edit, in one place."""
    text = json.dumps(tableio.to_json_obj(t), separators=(",", ":"))
    lo, hi = text.index("[") + 1, text.rindex("]")
    values = [m.span() for m in re.finditer(r"[0-9]+", text[lo:hi])]
    commas = [i for i in range(lo, hi) if text[i] == ","]
    kind = data.draw(st.sampled_from((
        "none", "drop-comma", "double-comma", "other-separator", "big-symbol",
        "non-ascii", "tail", "no-close", "empty-list", "leading")))
    if kind in ("big-symbol", "non-ascii"):
        a, b = data.draw(st.sampled_from(values))
        symbol = (str(data.draw(st.integers(t.order, t.order + 12)))
                  if kind == "big-symbol" else data.draw(st.sampled_from(
                      ("\u0663", "\uff11", "\u0967", "\U0001d7d8",
                       "\ud800"))))
        return text[:lo + a] + symbol + text[lo + b:]
    if kind in ("drop-comma", "double-comma", "other-separator") and commas:
        i = data.draw(st.sampled_from(commas))
        if kind == "other-separator":
            # the same length, so only the comma test can see it
            other = data.draw(st.sampled_from(" ;.:0"))
            return text[:i] + other + text[i + 1:]
        return text[:i] + "," * (kind == "double-comma") + text[i:]
    if kind == "tail":
        return text + data.draw(st.sampled_from(
            ("\r\n", "\t", " ", "\n", " \r\n\t", "\x0c", "\xa0")))
    if kind == "no-close":
        return data.draw(st.sampled_from(
            (text[:-2], text[:-1], text[:-2] + "}")))
    if kind == "empty-list":
        return text[:lo] + text[hi:]
    if kind == "leading":
        return data.draw(st.sampled_from((" ", "\n", "\t\r\n "))) + text
    return text


def structural_outcome(read, text):
    try:
        return read(text)
    except core.StructuralError as e:
        return str(e)


class TestJsonByOffsets:
    """from_json's reading by offsets and _json_bytes, the writer to_json
    and nqg share, against json on one-edit variants of compact texts."""

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_read_matches_json_loads(self, data):
        text = edited_compact(drawn_table(data, range(1, 13)), data)
        assert structural_outcome(tableio.from_json, text) \
            == structural_outcome(loads_reference, text)
        # bytes take the same compact reader, and json.loads otherwise
        raw = text.encode("utf-8", "surrogatepass")
        assert structural_outcome(tableio.from_json, raw) \
            == structural_outcome(loads_reference, raw)

    @pytest.mark.parametrize("orders", [range(1, 11), range(11, 17)],
                             ids=["single-digit", "past-10"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_writer_matches_json_dumps(self, orders, data):
        t = drawn_table(data, orders)
        obj = tableio.to_json_obj(t)
        assert b"".join(tableio._json_bytes(t)) == (
            json.dumps(obj, separators=(",", ":")) + "\n").encode()
        separators = data.draw(st.sampled_from(
            ((", ", ": "), ("", ""), (" ,\n", " :"), ("\u2028", "::"))))
        assert tableio.to_json(t, separators) \
            == json.dumps(obj, separators=separators)
        assert tableio.to_json(t) == json.dumps(obj)


class TestWriterPieces:
    """_json_bytes yields the head, then one piece per _PIECE cells, the
    last closing the list, or one piece past order 10; joined, they are
    json.dumps plus end."""

    # every separator pair src/ writes with: nqg's and to_json's default
    SEPARATORS = [(",", ":"), (", ", ": ")]

    @staticmethod
    def z_sum(n, k):
        return core.QTable(n, k, bytes(
            sum(x) % k for x in itertools.product(range(k), repeat=n)))

    def check(self, t, separators, end):
        pieces = list(tableio._json_bytes(t, separators, end))
        assert b"".join(pieces) == (json.dumps(
            tableio.to_json_obj(t), separators=separators).encode() + end)
        return pieces

    @pytest.mark.parametrize("separators", SEPARATORS)
    @pytest.mark.parametrize("shape", [(1, 1), (4, 3), (3, 5), (2, 10)])
    def test_cell_counts_around_the_piece_size(self, monkeypatch, shape,
                                               separators):
        t = self.z_sum(*shape)
        cells = len(t.values)
        for piece in sorted({1, max(cells - 1, 1), cells, cells + 1}):
            monkeypatch.setattr(tableio, "_PIECE", piece)
            for end in (b"\n", b""):
                pieces = self.check(t, separators, end)
                assert len(pieces) == 1 + -(-cells // piece)

    @pytest.mark.parametrize("separators", SEPARATORS)
    @pytest.mark.parametrize("n,k", [(10, 3), (8, 4), (7, 5)],
                             ids=["below", "at", "above"])
    def test_tables_around_the_real_piece_size(self, n, k, separators):
        # 3^10 = 59,049, 4^8 = 65,536 and 5^7 = 78,125 cells
        pieces = self.check(self.z_sum(n, k), separators, b"\n")
        assert len(pieces) == 1 + -(-k ** n // tableio._PIECE)
        # a digit and a separator per cell, "]}\n" over the last separator
        assert max(map(len, pieces)) <= tableio._PIECE * (
            1 + len(separators[0])) + 2

    @pytest.mark.parametrize("separators", SEPARATORS)
    @pytest.mark.parametrize("k", [11, 12, 16, 256])
    def test_past_order_10_one_piece(self, k, separators):
        t = core.QTable(2 if k < 256 else 1, k, bytes(
            (x + y) % k for x in range(k) for y in range(k if k < 256 else 1)))
        assert len(self.check(t, separators, b"\n")) == 1


class TestOffsets:
    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_index_over_product(self, n, k, data):
        axes = data.draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        t = core.QTable(n, k, (0,) * k ** n)
        want = []
        for x in itertools.product(range(k), repeat=len(axes)):
            cell = [0] * n
            for a, c in zip(axes, x):
                cell[a - 1] = c
            want.append(t.index(cell))
        assert core._offsets(n, k, axes) == want


T3 = z_add(5, 3)


@pytest.mark.parametrize("call,error,message", [
    (lambda: core.inverse_along(T3, 1.0), core.StructuralError,
     "axis 1.0 out of range 1..3"),
    (lambda: core.inverse_along(T3, True), core.StructuralError,
     "axis True out of range 1..3"),
    (lambda: core.superpose(fixture("Q52"), 1.0, fixture("Q52")),
     core.StructuralError, "position 1.0 out of range 1..2"),
    (lambda: core.superpose(fixture("Q52"), True, fixture("Q52")),
     core.StructuralError, "position True out of range 1..2"),
    (lambda: core.iterate(fixture("Q52"), 2.0), core.StructuralError,
     "iterate needs an integer m >= 1"),
    (lambda: core.iterate(fixture("Q52"), True), core.StructuralError,
     "iterate needs an integer m >= 1"),
    (lambda: analysis.restrict_to_symbols(T3, (0, 1.5)), core.StructuralError,
     "omega must be a nonempty subset of 0..4"),
    (lambda: analysis.restrict_to_symbols(T3, (0, True)), core.StructuralError,
     "omega must be a nonempty subset of 0..4"),
    (lambda: analysis.restrict_to_symbols(T3, (0, "a")), core.StructuralError,
     "omega must be a nonempty subset of 0..4"),
    (lambda: switch_sub(T3, (0, 1.5), z_add(2, 3)), ConstructionError,
     "omega must be a nonempty subset of 0..4"),
    (lambda: switch_sub(T3, (0, "a"), z_add(2, 3)), ConstructionError,
     "omega must be a nonempty subset of 0..4"),
    (lambda: analysis.is_reducible_wrt(T3, {True, 2}),
     analysis.AnalysisError, "split axes must lie in 1..3"),
    (lambda: analysis.is_reducible_wrt(T3, {1.0, 2}),
     analysis.AnalysisError, "split axes must lie in 1..3"),
    (lambda: analysis.is_reducible_wrt(T3, {"a", 2}),
     analysis.AnalysisError, "split axes must lie in 1..3"),
], ids=["inverse-float-axis", "inverse-bool-axis", "superpose-float",
        "superpose-bool", "iterate-float", "iterate-bool",
        "restrict-float-symbol", "restrict-bool-symbol", "restrict-str-symbol",
        "switch-sub-float-symbol", "switch-sub-str-symbol", "split-bool-axis",
        "split-float-axis", "split-str-axis"])
def test_argument_refused_with_module_error(call, error, message):
    # each ended in a TypeError or took the bool or float as an int
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
