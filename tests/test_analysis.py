"""Reducibility decisions, shells, reconstruction, switching components."""

import contextlib
import copy
import functools
import io
import itertools
import json
import operator
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nquasigroups import analysis as A
from nquasigroups import cli, commands
from nquasigroups import constructions as C
from nquasigroups import core
from nquasigroups import reducibility as R
from nquasigroups import shells as SH
from nquasigroups import families, latin, switching, tableio

import oracles
import randgen
from oracles import reference_lines


def z_add(k, n=2):
    return core.from_function(n, k, lambda *x: sum(x) % k)


class TestIsReducibleWrt:
    def test_group_sum(self):
        t = z_add(5, 3)
        assert A.is_reducible_wrt(t, A.Split(frozenset({1, 2})))

    def test_irreducible_all_splits(self):
        t = C.build_irreducible(3, 4)
        for S in ({1, 2}, {1, 3}, {2, 3}):
            assert not A.is_reducible_wrt(t, A.Split(frozenset(S)))

    def test_superposed_fixture(self):
        q = C.fixture("Q52")
        t = core.superpose(q, 2, q)
        assert A.is_reducible_wrt(t, A.Split(frozenset({2, 3})))

    def test_witness_partition(self):
        t = z_add(3, 3)
        ok, wit = A.is_reducible_wrt(t, A.Split(frozenset({1, 2})),
                                     return_witness=True)
        assert ok
        # witness labels S-tuples by g-fiber; fibers of (x1+x2) mod 3
        labels = dict(zip(itertools.product(range(3), repeat=2), wit))
        for a, b in labels:
            for c, d in labels:
                same = (a + b) % 3 == (c + d) % 3
                assert (labels[(a, b)] == labels[(c, d)]) == same

    def test_accepts_axis_iterable(self):
        t = z_add(4, 3)
        assert A.is_reducible_wrt(t, (1, 3))

    def test_split_size_bounds(self):
        t = z_add(4, 3)
        with pytest.raises(A.AnalysisError):
            A.is_reducible_wrt(t, (1,))
        with pytest.raises(A.AnalysisError):
            A.is_reducible_wrt(t, (1, 2, 3))

    @given(st.integers(2, 4), st.integers(0, 10 ** 5), st.integers(0, 10 ** 5),
           st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_literal_superpositions_detected(self, k, s1, s2, pos):
        outer = core.superpose(randgen.random_binary(k, s1), 1,
                               randgen.random_binary(k, s2))
        pos = min(pos, outer.arity)
        inner = randgen.random_binary(k, s1 ^ s2)
        t = core.superpose(outer, pos, inner)
        assert A.is_reducible_wrt(t, A.Split(frozenset({pos, pos + 1})))


class TestFindReductions:
    def test_group_sum_all_ten(self):
        t = z_add(5, 4)
        found = A.find_reductions(t)
        assert len(found) == 10
        assert [s.axes for s in found] == sorted(
            (s.axes for s in found),
            key=lambda axes: sum(1 << (a - 1) for a in axes))

    def test_irreducible_empty(self):
        assert A.find_reductions(C.build_irreducible(4, 4)) == []

    def test_contains_construction_split(self):
        g = randgen.random_binary(4, 7)
        h = randgen.random_binary(4, 8)
        t = core.superpose(g, 2, h)
        axes = {s.axes for s in A.find_reductions(t)}
        assert (2, 3) in axes

    def test_binary_rejected(self):
        with pytest.raises(A.AnalysisError):
            A.find_reductions(C.fixture("Q42"))

    def test_product_with_group_stays_irreducible(self):
        t = latin.direct_product(C.build_irreducible(3, 4), z_add(2, 3))
        assert A.find_reductions(t) == []

    def test_split_cap(self, monkeypatch):
        # the Z_2 iterate reduces over every split: arity 10 has 1,012,
        # under the cap, and arity 11 has 2,035, refused before any test
        assert A.REDUCTION_SPLIT_CAP == 1024
        assert len(A.find_reductions(z_add(2, 10))) == 2 ** 10 - 12
        monkeypatch.setattr(R, "reduction_witness", None)
        for n in (11, 16):
            with pytest.raises(A.AnalysisError) as err:
                A.find_reductions(z_add(2, n))
            assert str(err.value) == (
                "arity %d has 2^%d - %d splits to test, over the 1024-split "
                "cap (REDUCTION_SPLIT_CAP)" % (n, n, n + 2))


def xor_table(k, n=2):
    return core.from_function(n, k, lambda *x: functools.reduce(
        operator.xor, x))


# the brute-force oracle tries all 2^k - 2 subsets, so these keep k <= 10
ORACLE_TABLES = (
    [z_add(k, n) for n in (2, 3) for k in range(2, 11)]
    + [C.build_closed(n, k, r) for n, k, r in
       [(2, 4, 2), (2, 6, 3), (2, 8, 4), (2, 10, 5), (2, 10, 3), (3, 6, 2),
        (3, 8, 4), (4, 4, 2)]]
    + [core.iterate(xor_table(4), 3), xor_table(8), xor_table(8, 3),
       core.from_function(2, 9, lambda x, y: (5 * x + 5 * y) % 9),
       core.QTable(1, 10, (1, 0, 3, 4, 2, 6, 7, 8, 9, 5)),
       core.QTable(2, 6, bytes(36))]
    + [C.fixture(fid) for fid in ("Q42", "Q52", "Q62", "Q72")])


class TestFindSubquasigroups:
    @pytest.mark.parametrize("q", ORACLE_TABLES,
                             ids=lambda q: "%d^%d" % (q.order, q.arity))
    def test_matches_brute_force_on_fixed_tables(self, q):
        assert A.find_subquasigroups(q) \
            == oracles.reference_find_subquasigroups(q)

    @given(st.integers(0, 10 ** 6), st.sampled_from(["magma", "latin"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_on_random_tables(self, seed, kind):
        # a closure round reads only the tuples that use a symbol new in
        # the round before; without a group's many paths to each product,
        # a symbol reached only from two new ones shows a missed tuple
        rng = random.Random(seed)
        if kind == "latin":
            q = randgen.random_binary(rng.randrange(3, 11), seed)
        else:
            n = rng.choice((2, 3))
            k = rng.randrange(3, 9 if n == 2 else 6)
            q = core.QTable(n, k, bytes(rng.randrange(k)
                                        for _ in range(k ** n)))
        assert A.find_subquasigroups(q) \
            == oracles.reference_find_subquasigroups(q)

    def test_cap_refused(self, monkeypatch):
        # xor on 16 symbols: its 66 proper closed sets are its subgroups
        q = xor_table(16)
        assert len(A.find_subquasigroups(q)) == 66
        monkeypatch.setattr(A, "SUBQUASIGROUP_CAP", 66)
        assert len(A.find_subquasigroups(q)) == 66
        monkeypatch.setattr(A, "SUBQUASIGROUP_CAP", 65)
        with pytest.raises(A.AnalysisError) as err:
            A.find_subquasigroups(q)
        assert str(err.value) == ("table has more than 65 proper closed "
                                  "symbol sets (SUBQUASIGROUP_CAP)")

    def test_fixture_01(self):
        assert (0, 1) in A.find_subquasigroups(C.fixture("Q72"))

    def test_z5_only_zero(self):
        assert A.find_subquasigroups(z_add(5)) == [(0,)]

    def test_closed_builder_block(self):
        assert (0, 1, 2) in A.find_subquasigroups(C.build_closed(3, 6, 3))

    def test_ordering_and_properness(self):
        subs = A.find_subquasigroups(C.fixture("Q62"))
        assert all(0 < len(om) < 6 for om in subs)
        assert subs == sorted(subs, key=lambda om: (len(om), om))

    def test_restrictions_validate(self):
        q = C.build_closed(2, 8, 4)
        for om in A.find_subquasigroups(q):
            assert core.is_valid(A.restrict_to_symbols(q, om))

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 10 ** 6),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, n, k, seed, closed):
        if closed and n >= 2 and k >= 4:
            q = C.build_closed(n, k, 2 + seed % (k // 2 - 1))
        elif n >= 2:
            q = randgen.random_reducible(n, k, seed)[0] if n >= 3 \
                else randgen.random_binary(k, seed)
        else:
            q = core.QTable(1, k, tuple((v + seed) % k for v in range(k)))
        assert A.find_subquasigroups(q) \
            == oracles.reference_find_subquasigroups(q)


def entries(sh):
    """The [cell..., value] rows of a shell's JSON form."""
    return SH.shell_to_json_obj(sh)["entries"]


class TestExtractShell:
    def test_entry_count_2_5(self):
        sh = SH.extract_shell(C.fixture("Q52"), (0, 0))
        assert len(entries(sh)) == 9

    def test_entry_count_4_4_offcenter(self):
        t = C.build_closed(4, 4, 2)
        sh = SH.extract_shell(t, (2, 2, 2, 2))
        assert len(entries(sh)) == 175

    def test_xor_shell(self):
        sh = SH.extract_shell(core.from_rows([[0, 1], [1, 0]]), (0, 0))
        assert entries(sh) == [[0, 0, 0], [0, 1, 1], [1, 0, 1]]
        assert sh.values == bytes((0, 1, 1, 0))

    def test_off_shell_cells_are_zero(self):
        # the cells that miss the basepoint on every axis hold 0
        q = C.fixture("Q62")
        sh = SH.extract_shell(q, (3, 1))
        for x in q.cells():
            v = sh.values[q.index(x)]
            assert v == (core.evaluate(q, x) if x[0] == 3 or x[1] == 1
                         else 0)

    def test_entries_match_table(self):
        q = C.fixture("Q62")
        sh = SH.extract_shell(q, (3, 1))
        for *cell, v in entries(sh):
            assert cell[0] == 3 or cell[1] == 1
            assert core.evaluate(q, cell) == v

    def test_json_roundtrip(self):
        t = C.build_closed(3, 4, 2)
        sh = SH.extract_shell(t, (1, 2, 3))
        assert SH.shell_from_json_obj(SH.shell_to_json_obj(sh)) == sh


SHELL_BASE = (0, 1, 0)
SHELL_TABLE = C.build_closed(3, 4, 2)
SHELL_VALUES = SH.extract_shell(SHELL_TABLE, SHELL_BASE).values
SHELL_ENTRIES = oracles.reference_extract_shell(SHELL_TABLE, SHELL_BASE)[3]
LAST = max(SHELL_ENTRIES)  # (3, 3, 0)


def edited(drop=None, add=()):
    """SHELL_ENTRIES without the cell drop, then updated with add."""
    entries = {c: v for c, v in SHELL_ENTRIES.items() if c != drop}
    entries.update(add)
    return entries


def shell_obj(arity, order, basepoint, entries):
    """The JSON object of a shell with these fields, entries a dict."""
    if isinstance(basepoint, tuple):
        basepoint = list(basepoint)
    return {"arity": arity, "order": order, "basepoint": basepoint,
            "entries": [list(cell) + [v] for cell, v in entries.items()]}


def shell_case(id, error, arity=3, order=4, basepoint=SHELL_BASE,
               entries=SHELL_ENTRIES):
    return pytest.param(shell_obj(arity, order, basepoint, entries), error,
                        id=id)


BASEPOINT_ERROR = "basepoint must list 3 integers in 0..3"
VALUE_ERROR = "shell values must be integers in 0..3"
ROW_ERROR = ("shell entry %r must list coordinates and a value, all JSON "
             "integers")


REFUSED_SHELLS = [
    shell_case("short-basepoint", BASEPOINT_ERROR, basepoint=(0, 1)),
    shell_case("basepoint-out-of-range", BASEPOINT_ERROR,
               basepoint=(0, 4, 0)),
    shell_case("bool-basepoint", BASEPOINT_ERROR, basepoint=(0, True, 0)),
    shell_case("float-basepoint", BASEPOINT_ERROR, basepoint=(0, 1.0, 0)),
    shell_case("str-basepoint", BASEPOINT_ERROR, basepoint="010"),
    shell_case("zero-arity", "shell arity and order must be integers "
               ">= 1", arity=0),
    shell_case("bool-order", "shell arity and order must be integers "
               ">= 1", order=True),
    shell_case("missing-entry", "shell of arity 3, order 4 has 36 "
               "entries, not k^n - (k-1)^n", entries=edited(drop=LAST)),
    shell_case("extra-entry", "shell of arity 3, order 4 has 38 entries, "
               "not k^n - (k-1)^n", entries=edited(add={(3, 3, 3): 0})),
    shell_case("off-basepoint-entry", "shell misses cell (3, 3, 0), "
               "which touches the basepoint",
               entries=edited(drop=LAST, add={(3, 3, 3): 0})),
    shell_case("longer-cell", "shell misses cell (3, 3, 0), which "
               "touches the basepoint",
               entries=edited(drop=LAST, add={(3, 3, 0, 0): 0})),
    shell_case("value-out-of-range", VALUE_ERROR,
               entries=edited(add={LAST: 4})),
    shell_case("negative-value", VALUE_ERROR,
               entries=edited(add={LAST: -1})),
    shell_case("bool-value", ROW_ERROR % ([3, 3, 0, True],),
               entries=edited(add={LAST: True})),
    # cells equal to a cell of the shell, but not all JSON integers
    shell_case("float-cell", ROW_ERROR % ([3, 3.0, 0, 1],),
               entries=edited(drop=LAST, add={(3, 3.0, 0): 1})),
    shell_case("bool-cell", ROW_ERROR % ([3, 3, False, 1],),
               entries=edited(drop=LAST, add={(3, 3, False): 1})),
    shell_case("order-over-256", "shell order 300 is over 256, the most "
               "symbols a table holds", arity=2, order=300,
               basepoint=(0, 0), entries={(0, y): y for y in range(300)}
               | {(x, 0): x for x in range(1, 300)}),
]


class TestShellRecord:
    """A shell is checked when it is built or read: its record checks the
    head and the values, its JSON reader the entries."""

    @pytest.mark.parametrize("obj,error", REFUSED_SHELLS)
    def test_refused(self, obj, error):
        with pytest.raises(A.AnalysisError) as err:
            SH.shell_from_json_obj(obj)
        assert str(err.value) == error

    @pytest.mark.parametrize("values", [
        SHELL_VALUES[:-1], SHELL_VALUES + b"\0", list(SHELL_VALUES),
        SHELL_VALUES.replace(b"\3", b"\4"), None])
    def test_bad_values_refused(self, values):
        with pytest.raises(A.AnalysisError) as err:
            SH.Shell(3, 4, SHELL_BASE, values)
        assert str(err.value) == "shell values must be 4^3 bytes in 0..3"

    def test_values_off_the_shell_dropped(self):
        # (3, 3, 3) misses the basepoint (0, 1, 0): its byte is not kept
        vals = bytearray(SHELL_TABLE.values)
        vals[SHELL_TABLE.index((3, 3, 3))] = 200
        sh = SH.Shell(3, 4, SHELL_BASE, vals)
        assert sh.values == SHELL_VALUES and sh.values[63] == 0

    def test_float_key_never_serialised(self):
        # a float coordinate equal to an int is refused when read, so no
        # shell can write it back as [0, 1.0, 1]
        obj = shell_obj(2, 2, (0, 0), {(0, 0): 0, (0, 1.0): 1, (1, 0): 1})
        with pytest.raises(A.AnalysisError) as err:
            SH.shell_from_json_obj(obj)
        assert str(err.value) == ROW_ERROR % ([0, 1.0, 1],)

    def test_arity_1_split_checked_before_the_retracts(self):
        # an arity-1 shell has no retracts of arity >= 1: the split error
        # is the one reported
        sh = SH.Shell(1, 2, (0,), bytes(2))
        with pytest.raises(A.AnalysisError) as err:
            SH.reconstruct_with_split(sh, (1, 2))
        assert str(err.value) == "split axes must lie in 1..1"

    def test_keeps_its_own_entries(self):
        # the caller may edit its buffer after construction; the shell
        # keeps its own copy
        vals = bytearray(SHELL_VALUES)
        sh = SH.Shell(3, 4, SHELL_BASE, vals)
        vals[0] ^= 1
        assert sh.values == SHELL_VALUES and type(sh.values) is bytes
        assert SH.reconstruct(sh)

    def test_list_basepoint_stored_as_tuple(self):
        assert (SH.Shell(3, 4, list(SHELL_BASE), SHELL_VALUES)
                == SH.Shell(3, 4, SHELL_BASE, SHELL_VALUES))

    def test_head_refused_by_the_record(self):
        with pytest.raises(A.AnalysisError, match=BASEPOINT_ERROR):
            SH.Shell(3, 4, (0, 1), SHELL_VALUES)
        with pytest.raises(A.AnalysisError, match="integers >= 1"):
            SH.Shell(3.0, 4, SHELL_BASE, SHELL_VALUES)
        with pytest.raises(A.AnalysisError, match="over 256"):
            SH.Shell(1, 257, (0,), bytes(257))

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_property(self, n, k, data):
        # any table with values in range, Latin or not, at any basepoint
        vals = data.draw(st.lists(st.integers(0, k - 1), min_size=k ** n,
                                  max_size=k ** n))
        base = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                        max_size=n)))
        sh = SH.extract_shell(core.QTable(n, k, tuple(vals)), base)
        obj = json.loads(json.dumps(SH.shell_to_json_obj(sh)))
        assert len(obj["entries"]) == k ** n - (k - 1) ** n
        assert SH.shell_from_json_obj(obj) == sh


def read_outcome(read, to_json, obj):
    """The JSON form of the shell read makes of obj, or the class of the
    error it raises."""
    try:
        return to_json(read(obj))
    except Exception as e:
        return type(e)


class TestShellAgainstReference:
    """The byte shell against the dict of coordinate tuples it replaced
    (tests/oracles.py): the same JSON, and the same verdict on edited
    entries."""

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_json_equals_reference(self, n, k, data):
        vals = data.draw(st.lists(st.integers(0, k - 1), min_size=k ** n,
                                  max_size=k ** n))
        base = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                        max_size=n)))
        q = core.QTable(n, k, vals)
        assert (SH.shell_to_json_obj(SH.extract_shell(q, base))
                == oracles.reference_shell_to_json_obj(
                    oracles.reference_extract_shell(q, base)))

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_edited_entries_read_as_the_reference_reads_them(self, n, k,
                                                             data):
        # rows dropped, duplicated (with any value), moved along an axis
        # (on or off the basepoint) or given any value, then shuffled
        rng = data.draw(st.randoms(use_true_random=False))
        vals = [rng.randrange(k) for _ in range(k ** n)]
        base = data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                  max_size=n))
        rows = entries(SH.extract_shell(core.QTable(n, k, vals), base))
        value = st.integers(-1, k)
        for edit in data.draw(st.lists(st.sampled_from(
                ("drop", "duplicate", "move", "value")), max_size=3)):
            if not rows:
                break
            i = data.draw(st.integers(0, len(rows) - 1))
            if edit == "drop":
                del rows[i]
            elif edit == "duplicate":
                rows.append(rows[i][:-1] + [data.draw(value)])
            elif edit == "move":
                row = list(rows[i])
                row[data.draw(st.integers(0, n - 1))] = data.draw(
                    st.integers(-1, k))
                rows[i] = row
            else:
                rows[i] = rows[i][:-1] + [data.draw(value)]
        rng.shuffle(rows)
        obj = {"arity": n, "order": k, "basepoint": base, "entries": rows}
        assert (read_outcome(SH.shell_from_json_obj, SH.shell_to_json_obj, obj)
                == read_outcome(oracles.reference_shell_from_json_obj,
                                oracles.reference_shell_to_json_obj, obj))

    @pytest.mark.parametrize("obj,error", REFUSED_SHELLS)
    def test_refused_as_the_reference_refuses(self, obj, error):
        got = read_outcome(SH.shell_from_json_obj, SH.shell_to_json_obj, obj)
        want = read_outcome(oracles.reference_shell_from_json_obj,
                            oracles.reference_shell_to_json_obj, obj)
        assert got is A.AnalysisError
        # an order past 256 is now refused when read; the dict form took it
        assert want == (got if obj["order"] <= 256
                        else oracles.reference_shell_to_json_obj(
                            oracles.reference_shell_from_json_obj(obj)))


def random_shell(data, k_max=12):
    """A shell of any values in range at any basepoint, at most 4,096
    cells; orders past 10 keep the arity at 3 or below."""
    k = data.draw(st.integers(1, k_max))
    n = data.draw(st.integers(1, 4 if k <= 8 else 3))
    rng = data.draw(st.randoms(use_true_random=False))
    base = [rng.randrange(k) for _ in range(n)]
    return SH.Shell(n, k, base, bytes(rng.randrange(k) for _ in range(k ** n)))


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def slow_shell_read(text):
    """The reference reader: json.loads, then shell_from_json_obj."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise A.AnalysisError("bad shell JSON: %s" % e)
    return SH.shell_from_json_obj(obj)


def text_outcome(read, text):
    """The Shell read makes of text, or the class and text of its error."""
    try:
        return read(text)
    except A.AnalysisError as e:
        return type(e), str(e)


SHELL_TEXT_EDITS = ("space", "shuffle", "drop", "duplicate", "value_k",
                    "coord_k", "two_digits", "base_length", "trailing",
                    "truncate")


class TestShellText:
    """The compact shell text written and read in one byte pass, against
    json.dumps of shell_to_json_obj and json.loads with
    shell_from_json_obj."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_writer_matches_json_dumps(self, data):
        # orders 1..12 cover both sides of the single-digit cut at 10
        sh = random_shell(data)
        assert SH._shell_json(sh) == compact(SH.shell_to_json_obj(sh))

    def test_writer_on_the_closed6_shell(self):
        sh = SH.extract_shell(C.build_closed(6, 5, 2), (3, 0, 4, 1, 2, 1))
        text = SH._shell_json(sh)
        assert len(text) == 184523
        assert text == compact(SH.shell_to_json_obj(sh))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_json_loads(self, data):
        sh = random_shell(data)
        n, k = sh.arity, sh.order
        obj = SH.shell_to_json_obj(sh)
        rows = obj["entries"]
        pick = st.integers(0, len(rows) - 1)
        edit = data.draw(st.sampled_from((None,) + SHELL_TEXT_EDITS))
        if edit == "shuffle":
            data.draw(st.randoms(use_true_random=False)).shuffle(rows)
        elif edit == "drop":
            del rows[data.draw(pick)]
        elif edit == "duplicate":
            i = data.draw(pick)
            rows.insert(i, list(rows[i]))
        elif edit == "value_k":
            rows[data.draw(pick)][-1] = k
        elif edit == "coord_k":
            rows[data.draw(pick)][data.draw(st.integers(0, n - 1))] = k
        elif edit == "two_digits":
            rows[data.draw(pick)][data.draw(st.integers(0, n))] = \
                data.draw(st.integers(10, 99))
        elif edit == "base_length":
            obj["basepoint"] = (obj["basepoint"] + [0] if data.draw(
                st.booleans()) else obj["basepoint"][:-1])
        text = compact(obj)
        if edit == "space":
            # after a bracket, brace, comma or colon, outside the keys
            i = data.draw(st.sampled_from(
                [i + 1 for i, c in enumerate(text) if c in "[]{},:"]))
            text = text[:i] + data.draw(st.sampled_from(" \t\n\r")) + text[i:]
        elif edit == "trailing":
            text += data.draw(st.sampled_from(
                ("x", "]", "}", "0", ",", "]}", " x", "\u00e9")))
        elif edit == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        if data.draw(st.booleans()):
            text = " \n" + text + "\r\t "
        got = text_outcome(SH._shell_from_json, text)
        assert got == text_outcome(slow_shell_read, text)
        if edit in (None, "shuffle", "space"):
            assert got == sh

    def test_canonical_text_skips_json(self, monkeypatch):
        sh = SH.extract_shell(C.build_closed(4, 5, 2), (4, 0, 3, 1))
        text = SH._shell_json(sh)

        def refuse(obj):
            raise AssertionError("json path taken")

        monkeypatch.setattr(SH, "shell_from_json_obj", refuse)
        assert SH._shell_from_json(text) == sh
        assert SH._shell_from_json("\n " + text + " \n") == sh
        with pytest.raises(AssertionError, match="json path"):
            SH._shell_from_json(text.replace(",", ", ", 1))

    @pytest.mark.parametrize("text", [
        # arity 40 claims 2^40 - 1 entries: the count refuses it
        '{"arity":40,"order":2,"basepoint":[%s],"entries":[[%s]]}'
        % (",".join("0" * 40), ",".join("0" * 41)),
        # 2^23 cells, over the build budget, with one row: the count again
        '{"arity":23,"order":2,"basepoint":[%s],"entries":[[%s]]}'
        % (",".join("0" * 23), ",".join("0" * 24))])
    def test_huge_heads_refused_as_json_refuses(self, text):
        assert (text_outcome(SH._shell_from_json, text)
                == text_outcome(slow_shell_read, text))


class TestReconstructWithSplit:
    def test_fixture_roundtrip_n3(self):
        q = C.fixture("Q52")
        t = core.superpose(q, 2, q)
        sh = SH.extract_shell(t, (0, 0, 0))
        r = SH.reconstruct_with_split(sh, A.Split(frozenset({2, 3})))
        assert r.values == t.values

    def test_closed_roundtrip_n4(self):
        t = C.build_closed(4, 4, 2)
        sh = SH.extract_shell(t, (0, 0, 0, 0))
        r = SH.reconstruct_with_split(sh, A.Split(frozenset({3, 4})))
        assert r.values == t.values

    def test_wrong_split_on_counterexample(self):
        q, f, loop = C.build_shell_counterexample()
        sh = SH.extract_shell(q, (0, 0, 0))
        try:
            t = SH.reconstruct_with_split(sh, A.Split(frozenset({2, 3})))
        except SH.ReconstructionError:
            return
        assert t.values != q.values

    def test_nonzero_basepoint(self):
        t, split = randgen.random_reducible(4, 5, 21)
        sh = SH.extract_shell(t, (4, 1, 0, 2))
        r = SH.reconstruct_with_split(sh, A.Split(frozenset(split)))
        assert r.values == t.values

    def test_over_build_budget_refused_first(self, monkeypatch):
        # 78,247 entries of the cyclic order-162 ternary table, which holds
        # 162^3 = 4,251,528 cells: the JSON shell is refused when it is
        # read, before its cells are formed
        k = 162
        budget_error = ("a table of arity 3 and order 162 holds 162^3 cells, "
                        "over the 4194304-cell build budget")
        cells = [(0, y, z) for y in range(k) for z in range(k)]
        cells += [(x, 0, z) for x in range(1, k) for z in range(k)]
        cells += [(x, y, 0) for x in range(1, k) for y in range(1, k)]
        obj = shell_obj(3, k, (0, 0, 0), {x: sum(x) % k for x in cells})
        assert len(obj["entries"]) == k ** 3 - (k - 1) ** 3 == 78247
        with pytest.raises(A.AnalysisError) as err:
            SH.shell_from_json_obj(obj)
        assert str(err.value) == budget_error

        # a record built from the values is refused before it is read
        sh = SH.Shell(3, k, (0, 0, 0), bytes(k ** 3))

        def unread(*args):
            raise AssertionError("the shell was read")

        monkeypatch.setattr(SH, "_shell_read", unread)
        monkeypatch.setattr(SH, "retract", unread)
        for split in [(1, 2), (2, 3), (1, 3)]:
            with pytest.raises(A.AnalysisError) as err:
                SH.reconstruct_with_split(sh, split)
            assert str(err.value) == budget_error
        # 3 splits of 162^3 cells fit reconstruct's own budget, and the
        # cell budget refuses each assembly
        with pytest.raises(A.AnalysisError, match="4194304-cell build budget"):
            SH.reconstruct(sh)


class TestReconstruct:
    def test_unique_n4(self):
        t = C.build_closed(4, 5, 2)
        sh = SH.extract_shell(t, (0, 0, 0, 0))
        assert [c.values for c in SH.reconstruct(sh)] == [t.values]

    def test_counterexample_ambiguity(self):
        q, f, loop = C.build_shell_counterexample()
        sh = SH.extract_shell(q, (0, 0, 0))
        cands = SH.reconstruct(sh)
        vals = {c.values for c in cands}
        assert len(vals) >= 2
        assert q.values in vals and f.values in vals

    def test_irreducible_shell_fails_n4(self):
        t = C.build_irreducible(4, 4)
        sh = SH.extract_shell(t, (0, 0, 0, 0))
        with pytest.raises(SH.ReconstructionError):
            SH.reconstruct(sh)

    def test_low_arity_rejected(self):
        sh = SH.extract_shell(C.fixture("Q42"), (0, 0))
        with pytest.raises(A.AnalysisError):
            SH.reconstruct(sh)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_roundtrips_with_random_basepoints(self, seed):
        import random
        rng = random.Random(seed + 1000)
        t, _ = randgen.random_reducible(4, 4, seed)
        for _ in range(3):
            bp = tuple(rng.randrange(4) for _ in range(4))
            sh = SH.extract_shell(t, bp)
            assert [c.values for c in SH.reconstruct(sh)] == [t.values]

    @pytest.mark.parametrize("n", [3, 4])
    def test_partial_shell_refused(self, n):
        # every Shell is complete: JSON missing an entry is refused when
        # it is read, so reconstruct never meets it
        t, _ = randgen.random_reducible(n, 4, 5)
        rows = entries(SH.extract_shell(t, (1,) * n))
        for i in range(0, len(rows), 7):
            obj = {"arity": n, "order": 4, "basepoint": [1] * n,
                   "entries": rows[:i] + rows[i + 1:]}
            with pytest.raises(A.AnalysisError, match=r"entries, not k\^n"):
                SH.shell_from_json_obj(obj)

    def test_retracts_prune_before_assembly(self, monkeypatch):
        assembled = []
        covered = []  # splits skipped because a found candidate covers them
        assemble = SH._assemble
        reducible = A.is_reducible_wrt

        def checked(q, split, **kw):
            # a 5-ary test of a split not yet assembled is a coverage test
            verdict = reducible(q, split, **kw)
            if q.arity == 5 and verdict and split.axes not in assembled:
                covered.append(split)
            return verdict

        t, split = randgen.random_reducible(5, 4, 1)
        reductions = A.find_reductions(t)
        assert A.Split(frozenset(split)) in reductions
        monkeypatch.setattr(SH, "_assemble",
                            lambda sh, split, *a: assembled.append(split)
                            or assemble(sh, split, *a))
        monkeypatch.setattr(A, "is_reducible_wrt", checked)
        assert [c.values for c in SH.reconstruct(
            SH.extract_shell(t, (0,) * 5))] == [t.values]
        # every split t reduces over survives the retract pruning and is
        # either assembled or skipped as covered by a found candidate
        for sp in reductions:
            assert sp.axes in assembled or sp in covered
        assert len(assembled) < 25
        assembled.clear()
        with pytest.raises(SH.ReconstructionError):
            SH.reconstruct(SH.extract_shell(C.build_irreducible(5, 4), (0,) * 5))
        assert assembled == []

    @staticmethod
    def assembled(sh):
        """(S, table) for every admissible S that _assemble accepts."""
        out = []
        for size in range(2, sh.arity):
            for S in itertools.combinations(range(1, sh.arity + 1), size):
                try:
                    out.append((S, SH._assemble(sh, S)))
                except SH.ReconstructionError:
                    pass
        return out

    @given(st.integers(3, 6), st.integers(0, 10 ** 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_assembly_is_reducible_over_its_split(self, n, seed, data):
        # reconstruct keeps every table _assemble returns without testing
        # it: each is reducible over its split, the source's among them
        k = data.draw(st.integers(2, {3: 6, 4: 5, 5: 4, 6: 3}[n]))
        t, split = randgen.random_reducible(n, k, seed)
        bp = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                      max_size=n)))
        got = self.assembled(SH.extract_shell(t, bp))
        assert (split, t) in got
        for S, u in got:
            assert A.is_reducible_wrt(u, S)

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 8), (4, 4), (4, 5), (5, 4),
                                     (6, 4)])
    def test_assembly_from_an_irreducible_shell(self, n, k):
        # at the zero basepoint from arity 4 on, no split assembles.  An
        # assembled table is reducible over its split, so never the source.
        # From arity 4 on two reducible tables share no shell, but an
        # irreducible one can share a reducible one's: build_irreducible's
        # (4, 4) table at basepoint (0, 1, 2, 3) assembles over {1, 2}
        t = C.build_irreducible(n, k)
        for bp in ((0,) * n, tuple(i % k for i in range(n))):
            got = self.assembled(SH.extract_shell(t, bp))
            if n >= 4 and not any(bp):
                assert got == []
            for S, u in got:
                assert A.is_reducible_wrt(u, S) and u != t

    @pytest.mark.parametrize("basepoint", [
        (0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 4), (0, -1, 0, 0), (0, 0.0, 0, 0)])
    def test_malformed_basepoint_rejected(self, basepoint):
        t = C.build_closed(4, 4, 2)
        # refused when the shell is built, whether by hand or from a table
        with pytest.raises(A.AnalysisError, match="basepoint must list 4"):
            SH.Shell(4, 4, basepoint, t.values)
        with pytest.raises(A.AnalysisError, match="basepoint must list 4"):
            SH.extract_shell(t, basepoint)

    def test_scale_5_7_nonzero_basepoint(self, monkeypatch):
        # about 2 s with pruning; assembling all 119 splits took 25-50 s
        assembled = []
        assemble = SH._assemble
        monkeypatch.setattr(SH, "_assemble",
                            lambda sh, split, *a: assembled.append(split)
                            or assemble(sh, split, *a))
        t, _ = randgen.random_reducible(7, 5, 3)
        sh = SH.extract_shell(t, (2, 0, 4, 1, 3, 0, 2))
        t0 = time.perf_counter()
        assert [c.values for c in SH.reconstruct(sh)] == [t.values]
        assert time.perf_counter() - t0 < 15.0
        # 5 splits survive the retracts; the first candidate covers the rest
        assert len(assembled) == 1


def class_signature(values):
    """Level-set partition of a value sequence, labeled by first appearance."""
    labels = {}
    sig = []
    for v in values:
        if v not in labels:
            labels[v] = len(labels)
        sig.append(labels[v])
    return tuple(sig)


def reference_is_reducible_wrt(q, split, return_witness=False):
    """Tuple-by-tuple reducibility test: one class signature per fixing of
    the complement, offsets summed per tuple."""
    n, k = q.arity, q.order
    S = A._checked_axes(split, n)
    C = [i for i in range(1, n + 1) if i not in S]
    w = [k ** (n - i) for i in range(n + 1)]
    s_offsets = [sum(c * w[a] for a, c in zip(S, tup))
                 for tup in itertools.product(range(k), repeat=len(S))]
    ref = None
    for ctup in itertools.product(range(k), repeat=len(C)):
        c_off = sum(c * w[a] for a, c in zip(C, ctup))
        sig = class_signature(q.values[c_off + s] for s in s_offsets)
        if ref is None:
            ref = sig
        elif sig != ref:
            return (False, None) if return_witness else False
    return (True, ref) if return_witness else True


def all_splits(n):
    return [A.Split(frozenset(S)) for size in range(2, n)
            for S in itertools.combinations(range(1, n + 1), size)]


def reference_reconstruct_with_split(sh, split):
    """Cell-by-cell assembly from coordinate tuples, as reconstruct_with_split
    did before it went through flat offsets."""
    n, k = sh.arity, sh.order
    S = A._checked_axes(split, n)
    probe = S[0]
    C_ = [i for i in range(1, n + 1) if i not in S]
    base, ent = sh.basepoint, oracles.reference_entries(sh)

    def shell_cell(assign):
        return tuple(assign.get(i, base[i - 1]) for i in range(1, n + 1))

    delta = [ent[shell_cell({probe: x})] for x in range(k)]
    g0 = {stup: ent[shell_cell(dict(zip(S, stup)))]
          for stup in itertools.product(range(k), repeat=len(S))}
    h0 = {}
    for xp in range(k):
        for ctup in itertools.product(range(k), repeat=len(C_)):
            assign = dict(zip(C_, ctup))
            assign[probe] = xp
            h0[(xp,) + ctup] = ent[shell_cell(assign)]
    if sorted(delta) != list(range(k)):
        raise SH.ReconstructionError(
            "split inconsistent with shell: probe retract is not a permutation")
    dinv = [0] * k
    for x, v in enumerate(delta):
        dinv[v] = x
    vals = []
    for x in itertools.product(range(k), repeat=n):
        stup = tuple(x[a - 1] for a in S)
        ctup = tuple(x[a - 1] for a in C_)
        vals.append(h0[(dinv[g0[stup]],) + ctup])
    t = core.QTable(n, k, tuple(vals))
    if not core.validate(t).ok:
        raise SH.ReconstructionError(
            "split inconsistent with shell: assembled table is not Latin")
    for cell, v in ent.items():
        if t.values[t.index(cell)] != v:
            raise SH.ReconstructionError(
                "split inconsistent with shell: assembled table disagrees at %r"
                % (cell,))
    return t


def assembly_outcome(fn, sh, split):
    try:
        return fn(sh, split).values
    except SH.ReconstructionError as e:
        return str(e)


def reference_reconstruct(sh):
    """Every split assembled and checked in full; the candidate list, empty
    when no split survives."""
    candidates = []
    seen = set()
    for split in all_splits(sh.arity):
        try:
            t = reference_reconstruct_with_split(sh, split)
        except SH.ReconstructionError:
            continue
        if reference_is_reducible_wrt(t, split) and t.values not in seen:
            seen.add(t.values)
            candidates.append(t)
    return candidates


def reconstruct_or_empty(sh):
    try:
        return SH.reconstruct(sh)
    except SH.ReconstructionError:
        return []


class TestShellAgreement:
    """reconstruct_with_split compares the assembled table's shell with
    the given one; only a disagreement scans them, naming the first
    disagreeing cell in index order as the cell-by-cell reference does.
    A partial or padded JSON shell is refused when it is read."""

    def setup_method(self):
        t, split = randgen.random_reducible(4, 4, 3)
        self.t = t
        self.split = A.Split(frozenset(split))
        self.sh = SH.extract_shell(t, (1, 2, 0, 3))
        self.cells = list(oracles.reference_entries(self.sh))

    def altered(self, *cells):
        """The shell with the values of these cells moved up by 1 mod 4."""
        vals = bytearray(self.sh.values)
        for c in cells:
            vals[self.t.index(c)] = (vals[self.t.index(c)] + 1) % 4
        return SH.Shell(4, 4, self.sh.basepoint, vals)

    def outcomes(self, sh):
        return [assembly_outcome(fn, sh, split)
                for fn in (SH.reconstruct_with_split,
                           reference_reconstruct_with_split)
                for split in (self.split, A.Split(frozenset((1, 4))))]

    def test_agreeing_assembly_scans_nothing(self, monkeypatch):
        calls = []
        index = core.QTable.index
        monkeypatch.setattr(core.QTable, "index",
                            lambda q, c: calls.append(c) or index(q, c))
        monkeypatch.setattr(core.QTable, "coords",
                            lambda q, i: calls.append(i))
        assert SH.reconstruct_with_split(self.sh, self.split) == self.t
        assert calls == []

    def test_each_altered_entry(self):
        for cell in self.cells:
            got = self.outcomes(self.altered(cell))
            assert got[:2] == got[2:]

    def test_first_disagreement_in_entries_order(self):
        # two altered cells: the cell named is the reference's, which
        # scans its entries in index order
        named = set()
        for i in range(0, len(self.cells), 5):
            got = self.outcomes(self.altered(self.cells[-1 - i],
                                             self.cells[i]))
            assert got[:2] == got[2:]
            named.add(got[0])
        assert any("disagrees at" in str(o) for o in named)

    def test_missing_and_extra_entries(self):
        # 4^4 - 3^4 = 175 cells touch the basepoint; (3, 3, 3, 2) does not
        rows = entries(self.sh)
        extra = [3, 3, 3, 2, 0]
        for i in range(0, len(rows), 3):
            obj = {"arity": 4, "order": 4, "basepoint": [1, 2, 0, 3],
                   "entries": rows[:i] + rows[i + 1:]}
            with pytest.raises(A.AnalysisError, match="has 174 entries"):
                SH.shell_from_json_obj(obj)
            obj["entries"].append(extra)
            with pytest.raises(A.AnalysisError) as err:
                SH.shell_from_json_obj(obj)
            # sorted, the rows first differ from the cells at the missing
            # cell, or at the extra row when it sorts first
            cell = rows[i][:-1]
            assert str(err.value) == (
                "shell misses cell %r, which touches the basepoint"
                % (tuple(cell),) if cell < extra else
                "shell entry %r is not a cell touching the basepoint"
                % (extra,))
        for value in range(4):
            obj = {"arity": 4, "order": 4, "basepoint": [1, 2, 0, 3],
                   "entries": rows + [[3, 3, 3, 2, value]]}
            with pytest.raises(A.AnalysisError, match="has 176 entries"):
                SH.shell_from_json_obj(obj)


def check_reductions(t):
    """Every verdict and witness of is_reducible_wrt, and find_reductions,
    equal the reference's."""
    for split in all_splits(t.arity):
        assert (A.is_reducible_wrt(t, split, return_witness=True)
                == reference_is_reducible_wrt(t, split, return_witness=True))
    assert A.find_reductions(t) == [
        s for s in sorted(all_splits(t.arity), key=A.Split.bitmask)
        if reference_is_reducible_wrt(t, s)]


class TestAgainstReference:
    """The reducibility test, the offset assembly and the retract-pruned
    reconstruct against the slow paths they replace."""

    def check_shell(self, sh):
        for split in all_splits(sh.arity):
            assert (assembly_outcome(SH.reconstruct_with_split, sh, split)
                    == assembly_outcome(reference_reconstruct_with_split, sh, split))
        got = [c.values for c in reconstruct_or_empty(sh)]
        assert got == [c.values for c in reference_reconstruct(sh)]
        return got

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_random_reducible(self, n, k):
        import random
        rng = random.Random(100 * n + k)
        for seed in range(2):
            t, _ = randgen.random_reducible(n, k, 10 * n + k + seed)
            check_reductions(t)
            bp = tuple(rng.randrange(k) for _ in range(n))
            assert t.values in self.check_shell(SH.extract_shell(t, bp))

    def test_shell_counterexample(self):
        q, f, _ = C.build_shell_counterexample()
        for t in (q, f):
            check_reductions(t)
        got = self.check_shell(SH.extract_shell(q, (0, 0, 0)))
        assert q.values in got and f.values in got

    @pytest.mark.parametrize("n,k", [(3, 4), (4, 4), (5, 4), (4, 5)])
    def test_irreducible(self, n, k):
        t = C.build_irreducible(n, k)
        check_reductions(t)
        got = self.check_shell(SH.extract_shell(t, (0,) * n))
        # at arity 3 a reducible table can share the irreducible one's shell
        assert n == 3 or got == []
        # at other basepoints one may share it at any arity: build_irreducible
        # (4, 4) at (3, 3, 3, 3) is one case, so only agreement is asserted
        self.check_shell(SH.extract_shell(t, (k - 1,) * n))


def drawn_table(n, k, kind, rng):
    """A table of arity n and order k with values in 0..k-1, Latin or
    not: uniform values on a drawn palette, or h(g(x_S), x_C) with
    arbitrary g and h, where h(., c) is one bijection of classes to
    symbols per C-tuple when kind is "injective" (so S is a reduction)
    and any map otherwise (S a reduction only by chance)."""
    palette = rng.sample(range(k), rng.randint(1, k))
    if kind == "uniform":
        return core.QTable(n, k, [rng.choice(palette) for _ in range(k ** n)])
    size = rng.randint(2, n - 1)
    S = sorted(rng.sample(range(1, n + 1), size))
    rest = [i for i in range(1, n + 1) if i not in S]
    m = len(palette)
    g = {s: rng.randrange(m)
         for s in itertools.product(range(k), repeat=size)}
    h = {}
    for c in itertools.product(range(k), repeat=n - size):
        h[c] = (rng.sample(palette, m) if kind == "injective"
                else [rng.choice(palette) for _ in range(m)])
    return core.QTable(n, k, [
        h[tuple(x[i - 1] for i in rest)][g[tuple(x[i - 1] for i in S)]]
        for x in itertools.product(range(k), repeat=n)])


class TestReductionKernel:
    """is_reducible_wrt's two steps, the box prefilter and the exact check
    on the S-major copy, against the tuple-by-tuple reference on any
    table."""

    @given(st.integers(3, 5), st.integers(1, 6),
           st.sampled_from(["uniform", "composed", "injective"]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_any_table_matches_reference(self, n, k, kind, seed):
        if n == 5 and k > 4:
            n = 4  # keep a drawn table under 1,300 cells
        import random
        check_reductions(drawn_table(n, k, kind, random.Random(seed)))

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_compared_in_pieces(self, monkeypatch, seed):
        # a split that ends at the last axis is read in place: with more
        # S-tuples than rows, row by row, here 3 S-tuples at a time
        import random
        monkeypatch.setattr(R, "_SLICE", 3)
        rng = random.Random(seed)
        for kind in ("uniform", "composed", "injective"):
            check_reductions(drawn_table(4, 3, kind, rng))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_isotope_runs_read_in_place(self, seed):
        # the benchmark's kind of reductions: every tail of the axes of an
        # isotope of an iterate, read in place by columns (2 and 3 axes)
        # or by rows (4 and 5), and splits read from the S-major copy
        t = isotope(C.build_closed(6, 5, 2), seed)
        for S in [(5, 6), (4, 5, 6), (3, 4, 5, 6), (2, 3, 4, 5, 6),
                  (1, 2, 3), (2, 3), (3, 4, 5), (2, 6)]:
            split = A.Split(frozenset(S))
            assert (A.is_reducible_wrt(t, split, return_witness=True)
                    == reference_is_reducible_wrt(t, split,
                                                  return_witness=True))

    def test_values_outside_the_order(self):
        # no such table exists: the constructor refuses the first bad symbol
        t, _ = randgen.random_reducible(4, 3, 5)
        for f in (lambda v: 1000 + v, lambda v: -v, str,
                  lambda v: 300 * (v % 2), (0, 128, 1).__getitem__):
            vals = [f(v) for v in t.values]
            bad = next(v for v in vals if v not in (0, 1, 2))
            with pytest.raises(core.StructuralError) as err:
                core.QTable(4, 3, vals)
            assert str(err.value) == "symbol %r out of range 0..2" % (bad,)
        # the kernel reads bytes, where 0 and 128 differ in the top bit of
        # the XOR's zero-byte test only; an injective relabeling keeps
        # every verdict and witness
        raw = bytes(map((0, 128, 1).__getitem__, t.values))
        for split in all_splits(4):
            # the kernel's witness is a bytes-like of the labels, the
            # public one a tuple of them
            wit = R.reduction_witness(raw, 4, 3, split.axes)
            assert (None if wit is None else tuple(wit)) \
                == A.is_reducible_wrt(t, split, return_witness=True)[1]

    @pytest.mark.parametrize("k", [3, 4])
    def test_classes_merging_off_the_prefilter_rows(self, k):
        # q = h(x1 + x2, x3, x4) with h injective in its first argument
        # except where x3 and x4 are both nonzero, which no row of the
        # prefilter reaches: every column follows its class, but two
        # classes meet, so (1, 2) is no reduction
        t = core.from_function(4, k, lambda x1, x2, x3, x4: (
            max((x1 + x2) % k, 1) if x3 and x4 else (x1 + x2 + x3) % k))
        assert R._boxes_agree(t.values.obj, 4, k, (1, 2), [3, 4])
        assert not A.is_reducible_wrt(t, (1, 2))
        check_reductions(t)

    def test_wrong_value_count_refused(self):
        # no such table reaches the kernel: the constructor refuses it
        with pytest.raises(core.StructuralError) as err:
            core.QTable(3, 3, [v % 3 for v in range(26)])
        assert str(err.value) == ("26 values do not fill a table of order 3 "
                                  "and arity 3")

    def test_one_changed_cell_breaks_a_long_split(self):
        # S = (2..6) of a 5^6 table has 3,125 S-tuples, compared in
        # slices of 1,024; a cell changed at x1 = 1 off the prefilter's
        # boxes breaks the reduction, on either side of a slice boundary
        t = C.build_closed(6, 5, 2)
        S = (2, 3, 4, 5, 6)
        assert A.is_reducible_wrt(t, S)
        for s in (1023, 1024, 2047, 3124):
            vals = list(t.values)
            vals[5 ** 5 + s] = (vals[5 ** 5 + s] + 1) % 5
            bad = core.QTable(6, 5, vals)
            assert R._boxes_agree(bad.values.obj, 6, 5, S, [1])
            assert A.is_reducible_wrt(bad, S, return_witness=True) \
                == reference_is_reducible_wrt(bad, S, return_witness=True) \
                == (False, None)

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 4)])
    def test_switched_reducible_tables(self, monkeypatch, n, k):
        # one a<->b flip of a reducible table leaves some splits that pass
        # the box prefilter, and the exact check must reject them
        boxes = R._boxes_agree
        passed = []
        monkeypatch.setattr(R, "_boxes_agree", lambda *args: (
            boxes(*args) and not passed.append(args[3])))
        t = C.build_closed(n, k, 2)
        rejected = 0
        for comp in switching.find_components(t, 0, 1)[:4]:
            switched = switching.switch_component(t, comp)
            passed.clear()
            found = {s.axes for s in A.find_reductions(switched)}
            rejected += len(set(passed) - found)
            check_reductions(switched)
        assert rejected

    def test_rejected_splits_never_reach_the_exact_check(self, monkeypatch):
        exact = R._s_major_witness
        checked = []
        monkeypatch.setattr(R, "_s_major_witness", lambda vals, n, k, S: (
            checked.append(list(S)) or exact(vals, n, k, S)))
        # build_closed(8, 5, 2) reduces over exactly the six tails of its
        # axes, the list the benchmark checks
        tails = [list(range(lo, 9)) for lo in range(7, 1, -1)]
        assert [list(s.axes) for s in A.find_reductions(
            C.build_closed(8, 5, 2))] == tails
        assert sorted(checked) == sorted(tails)
        checked.clear()
        assert A.find_reductions(C.build_irreducible(6, 5)) == []
        assert checked == []
        # h(g(x1, x3), x2, x4) with h irreducible: the box (1, 3) of the
        # split (1, 2, 3) agrees on every row, its box (2, 3) does not
        h = C.build_irreducible(3, 4)
        g = randgen.random_binary(4, 2)
        t = core.from_function(4, 4, lambda x1, x2, x3, x4: core.evaluate(
            h, (core.evaluate(g, (x1, x3)), x2, x4)))
        assert [s.axes for s in A.find_reductions(t)] == [(1, 3)]
        assert checked == [[1, 3]]


def reference_find_components(q, a, b):
    """The dict union-find over cells that find_components ran before its
    whole-axis hit sums: the oracle."""
    n, k = q.arity, q.order
    vals = q.values
    parent = {}

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for ax, bidx, stride in reference_lines(n, k):
        ca = cb = None
        for j in range(k):
            idx = bidx + j * stride
            if vals[idx] == a:
                ca = idx
            elif vals[idx] == b:
                cb = idx
        if ca is None or cb is None:
            raise A.AnalysisError("table is not Latin; components are undefined")
        for x in (ca, cb):
            parent.setdefault(x, x)
        ri, rj = find(ca), find(cb)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for idx in parent:
        groups.setdefault(find(idx), []).append(idx)
    return [families.Component(sorted(groups[r]), n, k, (a, b))
            for r in sorted(groups, key=lambda r: min(groups[r]))]


def latin_tables():
    """Latin tables of arity 1..5 and orders 2..7: random squares,
    superpositions, isotopes of the cyclic sum, irreducible builds."""
    import random
    rng = random.Random(7)
    out = [z_add(2, 1), z_add(7, 1), C.fixture("Q52"), families.build_ptq(7)]
    out += [randgen.random_binary(k, 30 + k) for k in range(2, 8)]
    out += [randgen.random_reducible(n, k, n * k)[0]
            for n, k in [(3, 3), (3, 5), (4, 4), (5, 3), (3, 6)]]
    for n, k in [(3, 4), (4, 5), (5, 2), (2, 6)]:
        res, perms = list(range(k)), [list(range(k)) for _ in range(n)]
        for p in [res] + perms:
            rng.shuffle(p)
        out.append(core.from_function(
            n, k, lambda *x: res[sum(p[c] for p, c in zip(perms, x)) % k]))
    out += [C.build_irreducible(3, 4), C.build_irreducible(4, 5)]
    return out


class TestFindComponentsAgainstReference:
    @pytest.mark.parametrize("t", latin_tables(),
                             ids=lambda t: "%d^%d" % (t.order, t.arity))
    def test_every_pair(self, t):
        assert core.validate(t).ok
        for a, b in itertools.permutations(range(t.order), 2):
            assert (switching.find_components(t, a, b)
                    == reference_find_components(t, a, b))

    def test_order_past_256(self):
        # a byte holds every symbol and every position on a line: wider
        # orders are refused when the table is built
        assert switching.find_components(z_add(256), 255, 3) \
            == reference_find_components(z_add(256), 255, 3)
        with pytest.raises(core.StructuralError) as err:
            z_add(257)
        assert str(err.value) == ("order 257 is over 256, the most symbols "
                                  "a table holds")

    def test_non_latin_rejected(self):
        # every line holds a 0 and a 1, but row 0 holds two 0s; the old
        # union-find returned components here
        t = core.QTable(2, 3, (0, 1, 0, 1, 2, 0, 2, 0, 1))
        assert reference_find_components(t, 0, 1)
        with pytest.raises(A.AnalysisError, match="not Latin"):
            switching.find_components(t, 0, 1)
        # a line missing the pair
        with pytest.raises(A.AnalysisError, match="not Latin"):
            switching.find_components(core.QTable(2, 2, (0, 1, 0, 1)), 0, 1)
        # an out-of-range symbol and a short table are refused when built
        for vals, error in [((0, 1, 1, 5), "symbol 5 out of range 0..1"),
                            ((0, 1, 1), "3 values do not fill a table of "
                                        "order 2 and arity 2")]:
            with pytest.raises(core.StructuralError) as err:
                core.QTable(2, 2, vals)
            assert str(err.value) == error


def isotope(t, seed):
    """t with seeded random permutations of the result and of every
    argument, drawn in perfbench's order, by flat index arithmetic."""
    rng = random.Random(seed)
    n, k = t.arity, t.order
    res = list(range(k))
    rng.shuffle(res)
    offs = [0]
    for _ in range(n):
        perm = list(range(k))
        rng.shuffle(perm)
        offs = [o * k + p for o in offs for p in perm]
    return core.QTable(n, k, bytes(map(t.values.__getitem__, offs)).translate(
        bytes(res) + bytes(256 - k)))


def assert_parts_match_union_find(t, a, b):
    """find_components' block search against the union-find it replaced,
    part for part: pair, shape, index bytes and order."""
    got = [(c.pair, c.shape, bytes(c.indices))
           for c in switching.find_components(t, a, b)]
    want = [(c.pair, c.shape, bytes(c.indices))
            for c in oracles.union_find_components(t, a, b)]
    assert got == want
    return len(got)


CLOSED8 = C.build_closed(8, 5, 2)


class TestBlockSearchAgainstUnionFind:
    @pytest.mark.parametrize("t", latin_tables(),
                             ids=lambda t: "%d^%d" % (t.order, t.arity))
    def test_every_pair(self, t):
        for a, b in itertools.permutations(range(t.order), 2):
            assert_parts_match_union_find(t, a, b)

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_closed8_and_its_isotopes(self, seed):
        # few distinct block patterns; either order of each pair
        t = CLOSED8 if seed is None else isotope(CLOSED8, seed)
        assert core.validate(t).ok and (seed is None) == (t == CLOSED8)
        for a, b in itertools.combinations(range(5), 2):
            assert_parts_match_union_find(t, *((a, b), (b, a))[(a + b) % 2])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_reducible(self, seed):
        # patterns repeat less than in the iterates' isotopes
        t = randgen.random_reducible(8, 5, seed)[0]
        for a, b in [(0, seed), (4, seed - 1)]:
            assert_parts_match_union_find(t, a, b)

    @pytest.mark.parametrize("t,a,b", [
        (C.build_closed(6, 5, 2), 0, 1), (core.iterate(z_add(3), 7), 0, 1),
        (isotope(C.build_closed(6, 5, 2), 1), 1, 2),
        (isotope(C.build_closed(6, 5, 2), 2), 0, 2)],
        ids=["closed-6-5", "z3-iterate-8", "isotope-1", "isotope-2"])
    def test_memo_past_the_slice(self, monkeypatch, t, a, b):
        # with _SLICE at 25 cells the joins read their lines 25 at a time;
        # the iterates repeat their patterns, the isotopes less
        monkeypatch.setattr(switching, "_SLICE", 25)
        assert_parts_match_union_find(t, a, b)

    def test_memo_checks_the_pattern(self):
        # an entry under a block's key whose offset holds another pattern
        # is not used, and stays; the block is solved as with no memo
        t = C.build_closed(4, 5, 2)
        raw, pair = t.values.obj, bytearray(256)
        pair[0], pair[1] = 1, 2

        def pattern(at, cells):
            return raw[at:at + cells].translate(pair)
        blocks = [pattern(at, 25) for at in range(0, 625, 25)]
        j = next(j for j, p in enumerate(blocks) if p != blocks[0])
        planted = 0, (0, bytearray())
        memo = {(25, hash(blocks[j])): planted}
        got = switching._block(25 * j, 25, 5, pattern, memo)
        assert memo[25, hash(blocks[j])] is planted
        fresh = switching._block(25 * j, 25, 5, pattern, {})
        assert got == fresh and got[0] > 0
        # found again under its key once solved
        memo = {}
        got = switching._block(25 * j, 25, 5, pattern, memo)
        assert memo[25, hash(blocks[j])] == (25 * j, got)
        assert switching._block(25 * j, 25, 5, pattern, memo) is got

    @pytest.mark.parametrize("t,a,b,parts,widest", [
        (z_add(8, 5), 0, 4, 256, 256), (z_add(6, 6), 0, 3, 243, 256),
        (C.build_closed(10, 4, 2), 0, 1, 512, 512)],
        ids=["z8-iterate-5", "z6-iterate-6", "closed-10-4"])
    def test_many_parts(self, monkeypatch, t, a, b, parts, widest):
        # 256 or more labels take 2-byte fields: at 256 parts, past 255
        # labels in the sub-blocks of a 243-part table, and at 512 parts
        counts = []
        width = switching._width
        monkeypatch.setattr(switching, "_width",
                            lambda c: counts.append(c) or width(c))
        assert assert_parts_match_union_find(t, a, b) == parts
        assert max(counts) >= widest

    @given(st.integers(2, 5), st.integers(3, 6), st.integers(0, 10 ** 6),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_other_symbols_relabelled(self, n, k, seed, data):
        # only where a and b stand decides the partition
        t = (randgen.random_binary(k, seed) if n == 2
             else randgen.random_reducible(n, k, seed)[0])
        a, b = data.draw(st.lists(st.integers(0, k - 1), min_size=2,
                                  max_size=2, unique=True))
        others = [s for s in range(k) if s not in (a, b)]
        moved = data.draw(st.permutations(others))
        table = list(range(256))
        for s, v in zip(others, moved):
            table[s] = v
        u = core.QTable(n, k, bytes(t.values).translate(bytes(table)))
        assert core.validate(u).ok
        assert (switching.find_components(u, a, b)
                == switching.find_components(t, a, b))


def assert_flips_match_switch_component(t, a, b, parts=None):
    """The label flip behind `nqg components --switch i` against
    switch_component on find_components' part i, in both orders of the
    pair, for every part or for the parts listed.  Returns the count."""
    for x, y in ((a, b), (b, a)):
        comps = switching.find_components(t, x, y)
        assert switching._labelled(t, x, y)[0] == len(comps)
        for i in range(len(comps)) if parts is None else parts:
            # _flip writes over the labels: a fresh pair for each part
            got = switching._flipped(core.QTable(t.arity, t.order, b"".join(
                switching._flip(t, x, y, switching._labelled(t, x, y), i))))
            want = switching.switch_component(t, comps[i])
            assert (got.arity, got.order, got.values.obj) == \
                (want.arity, want.order, want.values.obj), (x, y, i)
    return len(comps)


class TestFlipAgainstSwitchComponent:
    @pytest.mark.parametrize("t", latin_tables(),
                             ids=lambda t: "%d^%d" % (t.order, t.arity))
    def test_every_pair(self, t):
        for a, b in itertools.combinations(range(t.order), 2):
            assert_flips_match_switch_component(t, a, b)

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_closed8_and_its_isotopes(self, seed):
        t = CLOSED8 if seed is None else isotope(CLOSED8, seed)
        assert_flips_match_switch_component(t, 0, 1 + (seed or 0))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_reducible(self, seed):
        t = randgen.random_reducible(8, 5, seed)[0]
        assert_flips_match_switch_component(t, 4, seed - 1)

    @pytest.mark.parametrize("t,a,b,parts,checked", [
        (z_add(8, 5), 0, 4, 256, None), (z_add(6, 6), 0, 3, 243, None),
        # 1,024 validates of 4^10 cells take a minute: the ends of each
        # byte plane of the 2-byte labels and a spread between them
        (C.build_closed(10, 4, 2), 0, 1, 512,
         [0, 1, 127, 255, 256, 257, 383, 510, 511])],
        ids=["z8-iterate-5", "z6-iterate-6", "closed-10-4"])
    def test_many_parts(self, t, a, b, parts, checked):
        assert assert_flips_match_switch_component(t, a, b, checked) == parts

    def test_non_switching_flip_refused(self):
        # a part of one cell does not follow the lines: the flipped table
        # is validated and refused with switch_component's text
        t = C.fixture("Q52")
        labels = bytearray(len(t.values))
        labels[t.values.obj.index(0)] = 1
        with pytest.raises(A.AnalysisError) as err:
            switching._flipped(core.QTable(t.arity, t.order, b"".join(
                switching._flip(t, 0, 1, (2, [labels]), 1))))
        assert str(err.value) == \
            "not a component: the flip breaks the Latin property"


def bfs_find_components(q, a, b):
    """The parts of the ab-cells as coordinate tuples, by breadth-first
    search: from each ab-cell not yet reached, in coordinate order, walk
    the k cells of every axis line through each reached cell with
    evaluate and step to the line's cell holding the other symbol.  Reads
    no axis chunk, hit position or flat line number, so it shares no
    helper with find_components: the oracle.  Parts start at their
    smallest cell, so they come in find_components' order."""
    n, k = q.arity, q.order
    seen = set()
    parts = []
    for start in itertools.product(range(k), repeat=n):
        if start in seen or core.evaluate(q, start) not in (a, b):
            continue
        seen.add(start)
        part = [start]
        for x in part:  # part grows while it is walked: a BFS queue
            other = a + b - core.evaluate(q, x)
            for ax in range(n):
                for c in range(k):
                    y = x[:ax] + (c,) + x[ax + 1:]
                    if y not in seen and core.evaluate(q, y) == other:
                        seen.add(y)
                        part.append(y)
        parts.append(sorted(part))
    return parts


def klein_iterate(n):
    """The Klein four-group's table iterated to arity n: many small parts."""
    return core.iterate(core.from_function(2, 4, lambda x, y: x ^ y), n - 1)


class TestFindComponentsAgainstBfs:
    @pytest.mark.parametrize("t", [
        core.QTable(1, 5, (3, 0, 4, 1, 2)), z_add(2, 1),
        core.iterate(z_add(2), 9), klein_iterate(4), klein_iterate(5),
        *(randgen.random_reducible(n, k, 7 * n + k)[0]
          for n, k in [(3, 3), (3, 5), (4, 4), (5, 3), (4, 5)])],
        ids=["1-5-perm", "1-2-sum", "z2-iterate-10", "klein-iterate-4",
             "klein-iterate-5", "reducible-3-3", "reducible-3-5",
             "reducible-4-4", "reducible-5-3", "reducible-4-5"])
    def test_every_pair(self, t):
        for a, b in itertools.permutations(range(t.order), 2):
            comps = switching.find_components(t, a, b)
            assert [c.coords() for c in comps] == bfs_find_components(t, a, b)
            assert all(c.pair == {a, b} for c in comps)

    def test_part_counts(self):
        # the oracle itself: one part on the Z_2 iterate, many on Klein
        assert len(bfs_find_components(core.iterate(z_add(2), 9), 0, 1)) == 1
        assert len(bfs_find_components(klein_iterate(5), 0, 1)) == 16


class TestFindComponents:
    def test_q52_named_components(self):
        comps = switching.find_components(C.fixture("Q52"), 0, 1)
        got = [comp.coords() for comp in comps]
        assert got == [
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            [(2, 2), (2, 3), (3, 3), (3, 4), (4, 2), (4, 4)]]

    def test_xor_single_component(self):
        comps = switching.find_components(core.from_rows([[0, 1], [1, 0]]),
                                          0, 1)
        assert [len(c) for c in comps] == [4]

    def test_inverted_ptq7_pattern(self):
        g = core.inverse_along(families.build_ptq(7), 1)
        comps = switching.find_components(g, 0, 1)
        assert sorted(len(c) for c in comps) == [4, 4, 6]

    def test_same_symbol_rejected(self):
        with pytest.raises(A.AnalysisError):
            switching.find_components(C.fixture("Q42"), 1, 1)

    def test_partition_and_validity_random(self):
        for seed in range(6):
            k = 4 + seed % 4
            t = randgen.random_binary(k, seed)
            a, b = seed % k, (seed + 1) % k
            comps = switching.find_components(t, a, b)
            covered = set()
            for comp in comps:
                cells = set(comp.coords())
                assert not (cells & covered)
                covered |= cells
                assert core.is_valid(switching.switch_component(t, comp))
            want = {t.coords(i) for i, v in enumerate(t.values) if v in (a, b)}
            assert covered == want

    def test_cycle_oracle_random(self):
        # binary case: component sizes = twice the cycle lengths of
        # (column of b by row) composed with inverse of (column of a by row)
        for seed in range(8):
            k = 4 + seed % 4
            t = randgen.random_binary(k, seed * 17 + 1)
            a, b = 0, 1 + seed % (k - 1)
            if a == b:
                continue
            rows = [list(r) for r in t.rows()]
            col_a = {r: rows[r].index(a) for r in range(k)}
            col_b = {r: rows[r].index(b) for r in range(k)}
            row_of_col_a = {c: r for r, c in col_a.items()}
            perm = {r: row_of_col_a[col_b[r]] for r in range(k)}
            sizes = []
            seen = set()
            for r in range(k):
                if r in seen:
                    continue
                length = 0
                while r not in seen:
                    seen.add(r)
                    r = perm[r]
                    length += 1
                sizes.append(2 * length)
            got = sorted(len(c) for c in switching.find_components(t, a, b))
            assert got == sorted(sizes)

    def test_minimality_small_components(self):
        # no nonempty proper subset of a small component flips validly
        for seed in range(4):
            t = randgen.random_binary(5, seed + 40)
            comps = switching.find_components(t, 0, 1)
            for comp in comps:
                cells = comp.coords()
                if len(cells) > 8:
                    continue
                for r in range(1, len(cells)):
                    for subset in itertools.combinations(cells, r):
                        vals = list(t.values)
                        for coords in subset:
                            i = t.index(coords)
                            vals[i] = 1 - vals[i]
                        cand = core.QTable(t.arity, t.order, tuple(vals))
                        assert not core.is_valid(cand), (comp, subset)


class TestSwitchComponent:
    def test_q52_first_component(self):
        q = C.fixture("Q52")
        comps = switching.find_components(q, 0, 1)
        sw = switching.switch_component(q, comps[0])
        rows = [list(r) for r in sw.rows()]
        assert rows[0][:2] == [1, 0] and rows[1][:2] == [0, 1]

    def test_involution(self):
        q = C.fixture("Q52")
        comp = switching.find_components(q, 0, 1)[1]
        flip = switching.switch_component
        assert flip(flip(q, comp), comp).values == q.values

    def test_independent_switches_distinct(self):
        q = C.fixture("Q52")
        c0, c1 = switching.find_components(q, 0, 1)
        flip = switching.switch_component
        tabs = {q.values, flip(q, c0).values, flip(q, c1).values,
                flip(flip(q, c0), c1).values}
        assert len(tabs) == 4

    def test_not_a_component_rejected(self):
        q = C.fixture("Q52")
        fake = families.Component([0, 1], 2, 5, (0, 1))
        with pytest.raises(A.AnalysisError):
            switching.switch_component(q, fake)

    def test_wrong_table_rejected(self):
        comp = switching.find_components(C.fixture("Q52"), 0, 1)[0]
        other = z_add(5)
        with pytest.raises(A.AnalysisError):
            switching.switch_component(other, comp)

    def test_part_of_another_shape_refused(self):
        # a part of Q52 is never flipped by its indices on a smaller, a
        # wider or a higher table; the refusal names both shapes
        comp = switching.find_components(C.fixture("Q52"), 0, 1)[1]
        for q in (C.fixture("Q42"), z_add(6), z_add(5, 3)):
            with pytest.raises(A.AnalysisError) as err:
                switching.switch_component(q, comp)
            assert str(err.value) == (
                "not a component of this table: a part of shape (2, 5), the "
                "table has shape %r" % ((q.arity, q.order),))

    @pytest.mark.parametrize("cells", [
        ([0, 5], 3), ([0, 1], 1), ([-1, 0], 2), ([True, 6], 2)])
    def test_foreign_cells_refused(self, cells):
        # never mapped onto some other cell of q: Component refuses an
        # index that is not an int, switch_component a part of a table of
        # another arity
        indices, arity = cells
        q = C.fixture("Q52")
        with pytest.raises(A.AnalysisError) as err:
            switching.switch_component(
                q, families.Component(indices, arity, 5, (0, 1)))
        if arity == 2:
            assert str(err.value) == ("component index %r is not an integer "
                                      "in 0..2^32-1" % (indices[0],))
        else:
            assert str(err.value) == (
                "not a component of this table: a part of shape (%d, 5), the "
                "table has shape (2, 5)" % arity)


class TestComponentRecord:
    """Component checks its indices, shape and pair when it is built."""

    @pytest.mark.parametrize("indices,pair,error", [
        ([], (0, 1), "empty component"),
        ([0], (1, 1), "component pair (1, 1) is not two distinct "
                      "symbols in 0..4"),
        ([0], (0, 5), "component pair (0, 5) is not two distinct "
                      "symbols in 0..4"),
        ([0], (0, 1, 2), "component pair (0, 1, 2) is not two distinct "
                         "symbols in 0..4"),
        ([0], (0, True), "component pair (0, True) is not two distinct "
                         "symbols in 0..4"),
        ([0, -1], (0, 1), "component index -1 is not an integer in "
                          "0..2^32-1"),
        ([0, 25], (0, 1), "component indices must be sorted, distinct and "
                          "below 5^2"),
        ([0, True], (0, 1), "component index True is not an integer in "
                            "0..2^32-1"),
        ([0, 1.0], (0, 1), "component index 1.0 is not an integer in "
                           "0..2^32-1"),
        ([0, 1 << 32], (0, 1), "component index 4294967296 is not an "
                               "integer in 0..2^32-1"),
    ], ids=["empty", "one-symbol-pair", "pair-out-of-range", "three-symbols",
            "bool-symbol", "negative-coordinate", "coordinate-out-of-range",
            "bool-coordinate", "float-coordinate", "index-overflow"])
    def test_refused(self, indices, pair, error):
        # the coordinate cases pass the index of the cell they named
        with pytest.raises(A.AnalysisError) as err:
            families.Component(indices, 2, 5, pair)
        assert str(err.value) == error

    @pytest.mark.parametrize("indices,pair,error", [
        ([1], (1, 1), "component pair (1, 1) is not two distinct symbols "
                      "in 0..4"),
        ([1], (0, 5), "component pair (0, 5) is not two distinct symbols "
                      "in 0..4"),
        ([1], (0, True), "component pair (0, True) is not two distinct "
                         "symbols in 0..4"),
    ], ids=["one-symbol-pair", "pair-out-of-range", "bool-symbol"])
    def test_from_indices_refused(self, indices, pair, error):
        with pytest.raises(A.AnalysisError) as err:
            families.Component(indices, 2, 5, pair)
        assert str(err.value) == error

    @pytest.mark.parametrize("indices", [
        [0, 1, 99], [3, 1], [1, 1], [24, 25], memoryview(
            bytearray(b"\x02\0\0\0\x01\0\0\0")).cast("I")],
        ids=["past-the-table", "unsorted", "repeated", "one-past",
             "unsorted-buffer"])
    def test_from_indices_bad_indices_refused(self, indices):
        # a part listing cells past the table reached an IndexError in
        # switch_component; now no such part exists
        with pytest.raises(A.AnalysisError) as err:
            families.Component(indices, 2, 5, (0, 1))
        assert str(err.value) == ("component indices must be sorted, "
                                  "distinct and below 5^2")

    @pytest.mark.parametrize("index", [-1, 1 << 32, 1.0, None])
    def test_from_indices_not_uint32_refused(self, index):
        with pytest.raises(A.AnalysisError) as err:
            families.Component([0, index], 2, 5, (0, 1))
        assert str(err.value) == ("component index %r is not an integer in "
                                  "0..2^32-1" % (index,))

    @pytest.mark.parametrize("arity,order", [
        (0, 5), (2, 0), (True, 5), (2, 5.0), ("2", 5)],
        ids=["zero-arity", "zero-order", "bool-arity", "float-order",
             "str-arity"])
    def test_bad_shape_refused(self, arity, order):
        with pytest.raises(A.AnalysisError) as err:
            families.Component([0], arity, order, (0, 1))
        assert str(err.value) == ("component arity and order must be "
                                  "integers >= 1")

    def test_short_table_never_reaches_switch(self):
        # a hand-built table of 24 cells reached an IndexError in
        # switch_component; the constructor refuses it
        q = C.fixture("Q52")
        with pytest.raises(core.StructuralError) as err:
            core.QTable(2, 5, q.values[:24])
        assert str(err.value) == ("24 values do not fill a table of order 5 "
                                  "and arity 2")

    def test_from_indices_list_or_buffer(self):
        want = families.Component([1, 3], 2, 3, (0, 1))
        assert want.coords() == [(0, 1), (1, 0)]
        for idxs in ([1, 3], (1, 3), want.indices, range(1, 4, 2)):
            comp = families.Component(idxs, 2, 3, [1, 0])
            assert comp == want and comp.pair == frozenset((0, 1))
            assert comp.shape == (2, 3) and comp.indices.tolist() == [1, 3]

    def test_copy_and_pickle(self):
        comps = switching.find_components(C.build_closed(4, 5, 2), 0, 1)
        comps.append(families.Component([1, 3], 2, 3, (1, 0)))
        for comp in comps:
            for twin in (copy.copy(comp), copy.deepcopy(comp),
                         pickle.loads(pickle.dumps(comp))):
                assert twin == comp and not twin != comp
                assert hash(twin) == hash(comp)
                assert twin.indices.tolist() == comp.indices.tolist()
                assert twin.shape == comp.shape and twin.pair == comp.pair
        assert len({comp: i for i, comp in enumerate(comps + comps)}) \
            == len(comps)

    def test_record_fields(self):
        comp = families.Component([1, 3], 2, 3, (1, 0))
        assert not hasattr(comp, "__dict__")
        with pytest.raises(AttributeError, match="cannot assign to field"):
            comp.pair = frozenset((0, 2))
        with pytest.raises(AttributeError, match="cannot delete field"):
            del comp.shape
        assert comp != families.Component([1, 3], 2, 3, (0, 2))
        assert comp != families.Component([1, 3], 2, 4, (0, 1))
        assert comp != families.Component([1, 4], 2, 3, (0, 1))
        assert comp != (comp.pair, comp.shape, comp._data)

    @given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 10 ** 6),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_rebuilt_from_coords_property(self, n, k, seed, data):
        if n == 1:
            t = core.QTable(1, k, tuple(data.draw(st.permutations(range(k)))))
        elif n == 2:
            t = randgen.random_binary(k, seed)
        else:
            t = randgen.random_reducible(n, k, seed)[0]
        a, b = data.draw(st.lists(st.integers(0, k - 1), min_size=2,
                                  max_size=2, unique=True))
        for comp in switching.find_components(t, a, b):
            cells = comp.coords()
            assert cells == sorted(cells) and len(cells) == len(comp)
            rebuilt = families.Component(sorted(t.index(x) for x in cells),
                                          n, k, (b, a))
            assert rebuilt == comp and hash(rebuilt) == hash(comp)


def cell_find_components(q, a, b):
    """find_components as it was before parts kept flat indices: the same
    whole-axis union-find, then each part's cells sorted; the oracle."""
    n, k = q.arity, q.order
    try:
        latin = core.validate(q).ok
    except core.StructuralError:
        latin = False
    if not latin:
        raise A.AnalysisError("table is not Latin; components are undefined")
    vals = q.values
    raw = bytes(vals)
    lines = k ** (n - 1)
    (bases, slices), = core._axis_chunks(n, k, n - 1)
    last_a = oracles.hit_positions(raw, a, bases, slices)
    last_b = oracles.hit_positions(raw, b, bases, slices)
    parent = list(range(lines))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for ax in range(n - 1):
        stride = k ** (n - 1 - ax)
        for bases, slices in core._axis_chunks(n, k, ax):
            pos_a = oracles.hit_positions(raw, a, bases, slices)
            pos_b = oracles.hit_positions(raw, b, bases, slices)
            for base, i, j in zip(bases, pos_a, pos_b):
                x = find((base + i * stride) // k)
                y = find((base + j * stride) // k)
                parent[max(x, y)] = min(x, y)
    groups = {}
    for i, (j, l) in enumerate(zip(last_a, last_b)):
        groups.setdefault(find(i), []).extend((i * k + j, i * k + l))
    return [families.Component(sorted(cells), n, k, (a, b))
            for cells in groups.values()]


def cell_switch_component(q, comp):
    """switch_component as it was before: every cell, in coordinate order,
    mapped back through q.index; the oracle."""
    a, b = sorted(comp.pair)
    vals = list(q.values)
    for cell in comp.coords():
        idx = q.index(cell)
        v = vals[idx]
        if v != a and v != b:
            raise A.AnalysisError(
                "not a component of this table: cell %r holds %d, not in {%d,%d}"
                % (cell, v, a, b))
        vals[idx] = a + b - v
    t = core.QTable(q.arity, q.order, tuple(vals))
    if not core.validate(t).ok:
        raise A.AnalysisError("not a component: the flip breaks the Latin property")
    return t


def cell_listing(q, comps):
    """The nqg components listing, each cell's coordinates read back from
    its index by q.coords."""
    return json.dumps([{"pair": sorted(c.pair), "size": len(c.indices),
                        "cells": [list(q.coords(i)) for i in c.indices]}
                       for c in comps], separators=(",", ":")) + "\n"


def switch_outcome(fn, q, comp):
    try:
        return "table", fn(q, comp).values
    except Exception as e:  # the oracle may fail in ways the library must too
        return type(e).__name__, str(e)


class TestIndexedComponents:
    """Parts of find_components keep sorted flat indices."""

    def test_hand_built_equals_indexed(self):
        q = C.fixture("Q52")
        comps = switching.find_components(q, 0, 1)
        assert comps[0].indices.tolist() == [0, 1, 5, 6]
        assert comps[0].shape == (2, 5)
        cells = [(1, 1), (0, 0), (1, 0), (0, 1)]
        hand = families.Component(sorted(q.index(x) for x in cells), 2, 5,
                                   (1, 0))
        assert hand == comps[0] and comps[0] == hand
        assert hash(hand) == hash(comps[0])
        assert hand != comps[1] and hand.indices.tolist() == [0, 1, 5, 6]
        assert families.Component(comps[0].indices, 2, 5,
                                   frozenset((0, 1))) == hand
        # the same cells of a table of another order are another part
        assert families.Component(hand.indices, 2, 6, (0, 1)) != hand
        assert comps[0].coords() == hand.coords() == [
            (0, 0), (0, 1), (1, 0), (1, 1)]
        assert repr(hand) == "Component([0, 1, 5, 6], 2, 5, [0, 1])"
        assert eval(repr(hand), {"Component": families.Component}) == hand
        with pytest.raises(AttributeError):
            comps[0].pair = frozenset((0, 2))

    @pytest.mark.parametrize("t", latin_tables(),
                             ids=lambda t: "%d^%d" % (t.order, t.arity))
    def test_cli_output_matches_cell_oracle(self, t, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        with open(path, "w") as fh:
            fh.write(tableio.to_json(t))
        for a, b in itertools.permutations(range(t.order), 2):
            comps = switching.find_components(t, a, b)
            old = cell_find_components(t, a, b)
            assert comps == old
            argv = ["components", path, "--pair", "%d,%d" % (a, b)]
            assert cli.run(argv) == 0
            assert capsys.readouterr().out == cell_listing(t, old)
            for i, (comp, want) in enumerate(zip(comps, old)):
                switched = cell_switch_component(t, want)
                assert switching.switch_component(t, comp) == switched
                assert cli.run(argv + ["--switch", str(i)]) == 0
                out = capsys.readouterr().out
                assert json.loads(out) == tableio.to_json_obj(switched)
                if i == 0:
                    assert cli.run(argv + ["--switch", str(i), "--pretty"]) == 0
                    assert capsys.readouterr().out == commands._pretty(switched)

    @pytest.mark.parametrize("t", latin_tables(),
                             ids=lambda t: "%d^%d" % (t.order, t.arity))
    def test_switch_errors_match_cell_oracle(self, t):
        n, k = t.arity, t.order
        # every symbol moved on: most ab-cells now hold a third symbol
        shifted = core.QTable(n, k, tuple((v + 1) % k for v in t.values))
        wider = z_add(k + 1, n)
        for a, b in itertools.permutations(range(k), 2):
            for comp, old in zip(switching.find_components(t, a, b),
                                 cell_find_components(t, a, b)):
                # a proper part of a minimal component: its flip breaks Latin
                part = families.Component(comp.indices[1:], n, k, comp.pair)
                old_part = families.Component(
                    sorted(t.index(x) for x in old.coords()[1:]), n, k,
                    old.pair)
                assert part == old_part
                got = switch_outcome(switching.switch_component, t, part)
                assert got == switch_outcome(cell_switch_component, t, old_part)
                assert got == ("AnalysisError", "not a component: the flip "
                               "breaks the Latin property")
                got = switch_outcome(switching.switch_component, shifted, comp)
                assert got == switch_outcome(cell_switch_component, shifted, old)
                # a part of another shape is refused, never flipped on the
                # same coordinates of the wider table
                assert switch_outcome(switching.switch_component, wider,
                                      comp) == (
                    "AnalysisError", "not a component of this table: a part "
                    "of shape %r, the table has shape %r" % ((n, k), (n, k + 1)))

    @given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 10 ** 6),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_switching_any_part_validates(self, n, k, seed, data):
        if n == 1:
            t = core.QTable(1, k, tuple(data.draw(st.permutations(range(k)))))
        elif n == 2:
            t = randgen.random_binary(k, seed)
        else:
            t = randgen.random_reducible(n, k, seed)[0]
        a, b = data.draw(st.lists(st.integers(0, k - 1), min_size=2,
                                  max_size=2, unique=True))
        comps = switching.find_components(t, a, b)
        comp = comps[data.draw(st.integers(0, len(comps) - 1))]
        switched = switching.switch_component(t, comp)
        assert core.validate(switched).ok
        changed = [i for i, (u, v) in enumerate(zip(t.values, switched.values))
                   if u != v]
        assert changed == comp.indices.tolist()
        assert all({t.values[i], switched.values[i]} == {a, b}
                   for i in changed)


def retract_reference(t, fixed):
    """The retract's values read cell by cell through the free axes'
    offsets, as retract read them before its extended slices."""
    n, k = t.arity, t.order
    free = [ax for ax in range(1, n + 1) if ax not in fixed]
    base = sum(sym * k ** (n - ax) for ax, sym in fixed.items())
    return bytes(t.values[base + o] for o in core._offsets(n, k, free))


def pruned_reconstruct_reference(sh):
    """reconstruct with its retract tests made by is_reducible_wrt on the
    retract tables, each with a fresh box memo, as before the kernel was
    called on the retracts' values with one memo per retract."""
    n = sh.arity
    table = core.QTable(n, sh.order, sh.values)
    retracts = [SH.retract(table, {i: o}) for i, o in enumerate(sh.basepoint, 1)]

    def survives(S):
        return all(A.is_reducible_wrt(
            retracts[i - 1], [a - (a > i) for a in S if a != i])
            for i in range(1, n + 1)
            if not (len(S) < 3 if i in S else len(S) > n - 2))

    candidates = []
    for split in all_splits(n):
        if survives(split.axes) and not any(
                A.is_reducible_wrt(c, split) for c in candidates):
            try:
                candidates.append(SH._assemble(sh, split.axes))
            except SH.ReconstructionError:
                pass
    return [c.values for c in candidates]


class TestFastPathsAgainstReferences:
    """The shared box memo, the first-seen scan, the sliced retract, the
    per-retract memos of reconstruct and the json-free outputs, each
    against the slower path it replaced."""

    def tables(self, rng):
        yield isotope(C.build_closed(5, 4, 2), rng.randrange(100))
        yield C.build_irreducible(4, 4)
        for n, k in [(3, 5), (4, 3), (5, 3), (4, 4)]:
            yield randgen.random_reducible(n, k, rng.randrange(10 ** 5))[0]
            for kind in ("uniform", "composed", "injective"):
                yield drawn_table(n, k, kind, rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_memo_matches_fresh_tests(self, seed):
        rng = random.Random(seed)
        for t in self.tables(rng):
            fresh = [s for s in sorted(all_splits(t.arity),
                                       key=A.Split.bitmask)
                     if A.is_reducible_wrt(t, s)]
            assert A.find_reductions(t) == fresh
            # the same on the bytes 0/128 relabelling the kernel reads
            if t.order == 3:
                raw = bytes(map((0, 128, 1).__getitem__, t.values))
                memo = {}
                for s in all_splits(t.arity):
                    shared = R.reduction_witness(raw, t.arity, 3, s.axes, memo)
                    alone = R.reduction_witness(raw, t.arity, 3, s.axes)
                    assert (shared is None) == (alone is None)
                    assert shared is None or bytes(shared) == bytes(alone)

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_first_seen_matches_dict_fromkeys(self, first):
        # any byte values, not only those below an order
        expected = {v: first.index(v) for v in dict.fromkeys(first)}
        assert list(R._first_seen(first).items()) == list(expected.items())

    def test_first_seen_on_high_bytes(self):
        first = bytes([200, 3, 255, 3, 0, 128, 200, 7])
        assert list(R._first_seen(first).items()) == [
            (200, 0), (3, 1), (255, 2), (0, 4), (128, 5), (7, 7)]

    @pytest.mark.parametrize("n,k", [(2, 5), (3, 4), (4, 3), (5, 2), (5, 5),
                                     (4, 5), (3, 7)])
    def test_retract_matches_offsets_reference(self, n, k):
        rng = random.Random(n * 10 + k)
        t = randgen.random_reducible(n, k, rng.randrange(10 ** 5))[0] \
            if n >= 3 else randgen.random_binary(k, 3)
        for size in range(1, n):
            for axes in itertools.combinations(range(1, n + 1), size):
                fixed = {ax: rng.randrange(k) for ax in axes}
                r = SH.retract(t, fixed)
                assert (r.arity, r.order) == (n - size, k)
                assert r.values.obj == retract_reference(t, fixed)

    @pytest.mark.parametrize("n,k", [(3, 4), (4, 4), (5, 4), (4, 5)])
    def test_reconstruct_memos_match_fresh_retract_tests(self, monkeypatch,
                                                         n, k):
        assemble, assembled = SH._assemble, []
        monkeypatch.setattr(SH, "_assemble", lambda sh, S: (
            assembled.append(S) or assemble(sh, S)))
        rng = random.Random(n * k)
        for t in [randgen.random_reducible(n, k, rng.randrange(10 ** 5))[0],
                  C.build_irreducible(n, k)]:
            sh = SH.extract_shell(t, tuple(rng.randrange(k) for _ in range(n)))
            assembled.clear()
            got = [c.values for c in reconstruct_or_empty(sh)]
            tried = list(assembled)
            assembled.clear()
            assert got == pruned_reconstruct_reference(sh)
            # the same splits survive the retract tests
            assert tried == assembled

    @given(st.lists(st.lists(st.integers(1, 12), min_size=2, max_size=6,
                             unique=True).map(sorted), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_reductions_printed_as_json_dumps(self, lists):
        found = [A.Split(frozenset(x)) for x in lists]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(commands, "_read_table", lambda path: None)
            mp.setattr(A, "find_reductions", lambda t: found)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(["analyze", "T", "--reductions"]) == 0
        assert out.getvalue() == json.dumps(
            [list(s.axes) for s in found], separators=(",", ":")) + "\n"

    def test_validate_ok_printed_as_json_dumps(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(tableio.to_json(C.build_closed(3, 4, 2)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["validate", str(path)]) == 0
        assert out.getvalue() == json.dumps(
            {"ok": True}, separators=(",", ":")) + "\n"
