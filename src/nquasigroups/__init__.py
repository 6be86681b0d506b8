"""Finite n-ary quasigroups: dense tables, constructions, switching, counting.

The public names below load their module on first use (PEP 562), so
importing the package, or running one nqg subcommand, compiles only the
modules that are used.
"""

import importlib

__version__ = "0.1.0"


class _UsageError(Exception):
    """Exit code 2 from cli or commands: no module imports cli."""


_EXPORTS = {
    "core": """AnalysisError ConstructionError QTable StructuralError
        ValidationReport evaluate from_function from_rows inverse_along
        is_valid iterate superpose validate""",
    "tableio": "from_json from_json_obj from_text to_json to_json_obj to_text",
    "analysis": """Split find_reductions find_subquasigroups
        is_reducible_wrt restrict_to_symbols""",
    "shells": """ReconstructionError Shell extract_shell reconstruct
        reconstruct_with_split retract shell_from_json_obj
        shell_to_json_obj""",
    "switching": "find_components switch_component",
    "families": """Component CountingFamily build_family5 build_family_k
        build_ptq""",
    "constructions": """CompletionError FixtureId PartialRectangle
        build_closed build_irreducible build_qkr build_shell_counterexample
        complete_rectangle fixture irreducible_base switch_sub""",
    "census": """BudgetError CensusReport CertificationError
        bound_exponents enumerate_count enumerate_tables report_to_json_obj
        run_census verify_family""",
    "latin": "OmegaMap direct_product omega_product",
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
