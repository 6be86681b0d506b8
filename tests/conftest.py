"""Shared fixtures and the acceptance-criteria summary hook."""

import functools
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nquasigroups import (analysis, census, constructions, core, families,
                          latin, shells, switching)

CRITERIA = {
    1: "embedded fixtures validate and match published spot values",
    2: "two-symbol-closed binary builder correct for admissible orders",
    3: "closed embeddings exist for every arity/order/sub-order in range",
    4: "irreducible builders verified irreducible on the whole grid",
    5: "shell reconstruction round-trips; ternary ambiguity exhibited",
    6: "counting families certified disjoint, valid, and distinct",
    7: "exact censuses match the closed forms and the frozen golden",
    8: "family sizes never exceed exact counts where both exist",
    9: "component partitions verified against the cycle oracle",
}


# the table operators whose every output the tests validate, by home module
OPERATORS = {core: ("superpose", "inverse_along"), shells: ("retract",),
             latin: ("omega_product", "direct_product")}


def _validated(op):
    """op, then validate its table; AssertionError names the first
    violated line.  The bare operator stays reachable as __wrapped__."""
    @functools.wraps(op)
    def checked(*args, **kwargs):
        t = op(*args, **kwargs)
        rep = core.validate(t)
        if not rep.ok:
            raise AssertionError("%s produced an invalid table: %r"
                                 % (op.__name__, rep.violations[0]))
        return t
    return checked


CHECKED = {name: _validated(getattr(home, name))
           for home, names in OPERATORS.items() for name in names}


# the names a module only forwards (core._forward), by forwarding module
# and home module
FORWARDED = {core: {latin: ("omega_product",)},
             analysis: {shells: ("extract_shell", "reconstruct",
                                 "reconstruct_with_split",
                                 "shell_from_json_obj", "shell_to_json_obj")}}


@pytest.fixture(autouse=True)
def _validate_operators(monkeypatch):
    # the last test's undo must not have written a forwarded name into
    # its forwarding module, where it would shadow the forward for every
    # later test
    for module, homes in FORWARDED.items():
        for home, names in homes.items():
            for name in names:
                assert name not in vars(module)
                assert module.__getattr__(name) is getattr(home, name)
    # every module that calls an operator by name reaches the checked one,
    # so every table an operator derives during a test is revalidated.
    # Only a module's own names are patched: core's forward of
    # omega_product reaches latin's patched one.
    for module in (core, constructions, analysis, shells, census, latin,
                   families, switching):
        for name, checked in CHECKED.items():
            if name in vars(module):
                monkeypatch.setattr(module, name, checked)


@pytest.fixture(scope="session")
def exact_counts():
    """Exact census results shared by the counting criteria.

    Maps (n, k) to a dict with the count, the transposed-order recount
    (where the cross-check is required), and the elapsed time of each run.
    """
    import nquasigroups.census as census

    out = {}
    for n, k, dual in [(2, 4, True), (2, 5, False), (3, 4, True)]:
        t0 = time.perf_counter()
        count = census.enumerate_count(n, k)
        rec = {"count": count, "elapsed": time.perf_counter() - t0}
        if dual:
            t0 = time.perf_counter()
            rec["count_transposed"] = census.enumerate_count(
                n, k, visit="transposed")
            rec["elapsed_transposed"] = time.perf_counter() - t0
        out[(n, k)] = rec
    return out


@pytest.fixture(scope="session")
def family_reports():
    """verify_family reports over the acceptance grid."""
    import nquasigroups.census as census

    return {(n, k): census.verify_family(n, k)
            for n in range(2, 5) for k in range(4, 8)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = terminalreporter.stats
    outcome = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_criterion_" not in name:
                continue
            num = name.split("test_criterion_")[1]
            num = int("".join(ch for ch in num if ch.isdigit()) or 0)
            if num in CRITERIA:
                prev = outcome.get(num)
                ok = status == "passed" and prev in (None, True)
                outcome[num] = ok
    if not outcome:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num not in outcome:
            continue
        verdict = "PASS" if outcome[num] else "FAIL"
        terminalreporter.write_line(
            "ACCEPTANCE CRITERION %d: %s - %s" % (num, verdict, CRITERIA[num]))
