"""Finite n-ary quasigroups: dense tables, constructions, switching, counting.

The public names below load their module on first use (PEP 562), so
importing the package, or running one nqg subcommand, compiles only the
modules that are used.  The same _forward serves the names that moved
out of core, analysis and constructions and still answer there.
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

__all__ = sorted(" ".join(_EXPORTS.values()).split())


def _forward(module, homes):
    """A module __getattr__ (PEP 562) for module that reads each name of
    homes, a dict from a module of this package to the names it answers
    for, from that module on first use, so that the alias costs no
    import.  Nothing is cached: each use asks the home module."""
    home_of = {name: home for home, names in homes.items()
               for name in names.split()}

    def __getattr__(name):
        if name not in home_of:
            raise AttributeError("module %r has no attribute %r"
                                 % (module, name))
        return getattr(importlib.import_module(
            "." + home_of[name], __name__), name)
    return __getattr__


__getattr__ = _forward(__name__, _EXPORTS)
