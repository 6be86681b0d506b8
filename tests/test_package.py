"""Public surface: the lazily loaded package names, the records that
keep the equality, hash, repr and immutability of frozen dataclasses, and
the size of each module's source."""

import copy
import dataclasses
import pickle
import sys
import tokenize
from pathlib import Path

import pytest

import nquasigroups
from nquasigroups import (analysis, census, core, families, latin, shells,
                          switching, tableio)
from nquasigroups import constructions as C

PUBLIC = (
    "AnalysisError BudgetError CensusReport CertificationError "
    "CompletionError Component ConstructionError CountingFamily FixtureId "
    "OmegaMap PartialRectangle QTable ReconstructionError Shell Split "
    "StructuralError ValidationReport bound_exponents build_closed "
    "build_family5 build_family_k build_irreducible build_ptq build_qkr "
    "build_shell_counterexample complete_rectangle direct_product "
    "enumerate_count enumerate_tables evaluate extract_shell find_components "
    "find_reductions find_subquasigroups fixture from_function from_json "
    "from_json_obj from_rows from_text inverse_along irreducible_base "
    "is_reducible_wrt is_valid iterate omega_product reconstruct "
    "reconstruct_with_split report_to_json_obj restrict_to_symbols retract "
    "run_census shell_from_json_obj shell_to_json_obj superpose "
    "switch_component switch_sub to_json to_json_obj to_text validate "
    "verify_family").split()


class TestLazyNames:
    def test_all_is_unchanged(self):
        assert sorted(nquasigroups.__all__) == sorted(PUBLIC)

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_modules_object(self, name):
        obj = getattr(nquasigroups, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert obj.__module__.startswith("nquasigroups.")

    def test_star_import(self):
        ns = {}
        exec("from nquasigroups import *", ns)
        assert set(ns) - {"__builtins__"} == set(PUBLIC)
        assert ns["QTable"] is core.QTable and ns["run_census"] is \
            census.run_census

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nquasigroups.no_such_name
        with pytest.raises(ImportError):
            exec("from nquasigroups import no_such_name", {})

    def test_moved_names_still_answer_in_their_old_modules(self):
        # the 14 names the benchmark harness reads in their old modules
        # are forwarded, not copied; the other moved names answer only
        # in their home
        forwarded = 0
        for module, home, names, gone in [
                (analysis, switching, "find_components switch_component",
                 "Component"),
                (analysis, shells, "extract_shell reconstruct "
                 "reconstruct_with_split shell_from_json_obj shell_to_json_obj",
                 "Shell ReconstructionError retract _shell_json "
                 "_shell_from_json RECONSTRUCT_BUDGET"),
                (C, families, "build_family5 build_family_k",
                 "CountingFamily build_ptq"),
                (core, latin, "OmegaMap omega_product", "direct_product"),
                (core, tableio, "from_json to_json to_json_obj",
                 "from_json_obj from_text to_text _json_bytes _TO_DIGITS "
                 "_COMPACT_HEAD"),
                (core, analysis, "", "retract restrict_to_symbols"),
                (core, shells, "", "retract extract_shell"),
                (census, latin, "",
                 "OmegaMap direct_product omega_product _block_product "
                 "_certify_omega _search _reduced _tables _visit_axes")]:
            for name in names.split():
                assert getattr(module, name) is getattr(home, name)
                # and the forward itself, called directly
                assert module.__getattr__(name) is getattr(home, name)
                forwarded += 1
            for name in gone.split() + ["no_such_name"]:
                with pytest.raises(AttributeError, match=name):
                    getattr(module, name)
        assert forwarded == 14
        assert analysis.AnalysisError is core.AnalysisError
        assert C.ConstructionError is core.ConstructionError

    def test_submodules_still_import(self):
        ns = {}
        exec("from nquasigroups import analysis, census, constructions, core",
             ns)
        assert ns["census"] is census and ns["analysis"] is analysis


Q = core.QTable(2, 2, (0, 1, 1, 0))
# xor's shell at (0, 0); the cell (1, 1) misses the basepoint and holds 0
SHELL_VALUES = bytes((0, 1, 1, 0))

# (record, its fields in order, a record differing in one field)
RECORDS = [
    (Q, (2, 2, (0, 1, 1, 0)), core.QTable(2, 2, (1, 0, 0, 1))),
    (latin.OmegaMap(1, 2, 1, {(0,): core.QTable(1, 2, (0, 1))}),
     (1, 2, 1, {(0,): core.QTable(1, 2, (0, 1))}),
     latin.OmegaMap(1, 2, 1, {(0,): core.QTable(1, 2, (1, 0))})),
    (analysis.Split(frozenset({1, 2})), (frozenset({1, 2}),),
     analysis.Split(frozenset({2, 3}))),
    (shells.Shell(2, 2, (0, 0), SHELL_VALUES),
     (2, 2, (0, 0), SHELL_VALUES),
     shells.Shell(2, 2, (1, 1), SHELL_VALUES)),
    (core.ValidationReport(True), (True, ()), core.ValidationReport(False)),
    (core.ValidationReport(False, (core.LineViolation(1, (None, 0)),)),
     (False, (core.LineViolation(1, (None, 0)),)),
     core.ValidationReport(False, (core.LineViolation(2, (0, None)),))),
    (census.CensusReport(2, 4), (2, 4, None, None, None, 0.0, None),
     census.CensusReport(2, 4, 576)),
    (census.CensusReport(2, 4, 576, {"even": 4}, 4, 0.5, {"path": "omega"}),
     (2, 4, 576, {"even": 4}, 4, 0.5, {"path": "omega"}),
     census.CensusReport(2, 4, 576, {"even": 4}, 4, 0.5, {"path": "x"})),
    (families.CountingFamily(Q, (), 0), (Q, (), 0), families.CountingFamily(Q, (), 1)),
    (C.PartialRectangle(2, ((0, 1),)), (2, ((0, 1),)),
     C.PartialRectangle(2, ((1, 0),))),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


def as_dataclass(rec, fields):
    """The frozen dataclass the record replaced, holding the same fields."""
    cls = dataclasses.make_dataclass(
        type(rec).__name__, list(rec.__slots__), frozen=True)
    return cls(*fields)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as e:
        return str(e)


@pytest.mark.parametrize("rec,fields,other", RECORDS, ids=IDS)
class TestRecords:
    def test_repr(self, rec, fields, other):
        assert repr(rec) == repr(as_dataclass(rec, fields))

    def test_equality(self, rec, fields, other):
        same = type(rec)(*fields)
        assert rec == same and not rec != same
        assert rec != other and not rec == other
        # like a dataclass, never equal to another class with the same fields
        assert rec != as_dataclass(rec, fields) and rec != fields

    def test_hash(self, rec, fields, other):
        # a dict field makes the record unhashable, as it did the dataclass
        assert hash_or_error(rec) == hash_or_error(as_dataclass(rec, fields))

    def test_immutable(self, rec, fields, other):
        name = rec.__slots__[0]
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.no_such_field = 1
        assert getattr(rec, name) == fields[0]

    def test_keywords_and_copies(self, rec, fields, other):
        assert type(rec)(**dict(zip(rec.__slots__, fields))) == rec
        assert copy.copy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec


class TestRecordConstructors:
    def test_normalization(self):
        assert tuple(core.QTable(2, 2, [0, 1, 1, 0]).values) == (0, 1, 1, 0)
        assert analysis.Split({1, 2}).inside == frozenset({1, 2})
        assert C.PartialRectangle(2, [[0, 1]]).rows == ((0, 1),)

    @pytest.mark.parametrize("args,message", [
        ((0, 2, ()), "arity must be an integer >= 1"),
        ((2, 0, ()), "order must be an integer >= 1"),
        ((2.0, 2, ()), "arity must be an integer >= 1"),
        # a bool would be written back as JSON true, not as a number
        ((True, 2, (0, 1)), "arity must be an integer >= 1"),
        ((1, True, (0,)), "order must be an integer >= 1")])
    def test_qtable_validation(self, args, message):
        with pytest.raises(core.StructuralError) as e:
            core.QTable(*args)
        assert str(e.value) == message

    def test_defaults(self):
        assert core.ValidationReport(True).violations == ()
        rep = census.CensusReport(3, 4)
        assert (rep.exact_count, rep.bound_exponents, rep.family_log2,
                rep.elapsed, rep.certification) == (None, None, None, 0.0,
                                                    None)

    def test_no_instance_dict(self):
        assert not hasattr(analysis.Split({1, 2}), "__dict__")
        assert not hasattr(Q, "__dict__")


# Python's parser doubles its token array past this many tokens while it
# compiles a module from source, and every launch that compiles the module
# pays for the larger array in peak RSS
TOKEN_STEP = 4096
MODULES = sorted((Path(__file__).parent.parent / "src" / "nquasigroups")
                 .glob("*.py"))


def source_tokens(path):
    """Tokens of a source file, counted as the CI "Source size" step
    counts them: without comments, non-logical newlines and the
    encoding."""
    with open(path, "rb") as fh:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL,
                                  tokenize.ENCODING)
                   for t in tokenize.tokenize(fh.readline))


class TestSourceSize:
    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_module_under_the_token_step(self, path):
        assert source_tokens(path) < TOKEN_STEP

    def test_every_module_is_counted(self):
        assert {"analysis.py", "cli.py", "core.py"} <= {p.name for p in MODULES}
