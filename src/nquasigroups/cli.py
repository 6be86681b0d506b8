"""Command-line front end.

Subcommands: validate, eval, construct, analyze, components, reconstruct,
census.  Tables travel as JSON (any arity) or as the k-line text form
(binary only); '-' reads standard input.  Results go to standard output as
compact JSON, or as aligned digit grids with --pretty.  Exit codes:
0 success, 1 domain error, 2 usage error.  A reader that closes the
output pipe early ends the command quietly, with exit code 0.

Each handler imports the modules it runs, and building the parser imports
none, so a launch compiles only what its subcommand needs: validate and
eval load core; analyze and reconstruct add analysis, and the
reducibility kernel when they test a split (analyze --reductions and
--split, reconstruct); components adds switching; construct adds
constructions, and switching for the stored fixtures, --ptq and the
families; census loads core and census, plus switching for the component
families (order 5 and odd orders prime to 3).  The parser's literals
below copy library constants; tests pin them to their sources.
"""

import argparse
import itertools
import json
import os
import sys

_FIXTURES = ("Q42", "Q52", "Q62", "Q72")   # constructions.FixtureId values
_CELL_BUDGET = 2_000_000                   # census.DEFAULT_CELL_BUDGET
_TIME_LIMIT = 600.0                        # census.DEFAULT_TIME_LIMIT
_BUILD_CELL_BUDGET = 1 << 22               # core.BUILD_CELL_BUDGET


class _UsageError(Exception):
    pass


def _int_list(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


def _pair(text):
    parts = _int_list(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected exactly two symbols: a,b")
    return parts


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_table(path):
    from . import core

    data = _read_input(path)
    if data.lstrip().startswith("{"):
        return core.from_json(data)
    return core.from_text(data)


def _read_shell(path):
    from . import analysis

    data = _read_input(path)
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as e:
        raise analysis.AnalysisError("bad shell JSON: %s" % e)
    return analysis.shell_from_json_obj(obj)


def _emit(obj):
    print(json.dumps(obj, separators=(",", ":")))


def _pretty(t):
    w = len(str(t.order - 1))
    k = t.order

    def grid(vals):
        rows = []
        for i in range(k):
            rows.append(" ".join(str(v).rjust(w) for v in vals[i * k:(i + 1) * k]))
        return rows

    if t.arity == 1:
        return " ".join(str(v).rjust(w) for v in t.values) + "\n"
    if t.arity == 2:
        return "\n".join(grid(t.values)) + "\n"
    chunks = []
    step = k * k
    for pos, prefix in enumerate(itertools.product(range(k), repeat=t.arity - 2)):
        chunks.append("[" + ",".join(str(c) for c in prefix) + "]")
        chunks.extend(grid(t.values[pos * step:(pos + 1) * step]))
        chunks.append("")
    return "\n".join(chunks[:-1]) + "\n"


def _emit_table(t, pretty):
    if pretty:
        print(_pretty(t), end="")
    else:
        from .core import to_json

        print(to_json(t, (",", ":")))


def _component_obj(c):
    a, b = sorted(c.pair)
    return {
        "pair": [a, b],
        "size": len(c),
        "cells": [list(x) for x in c.coords()],
    }


def _family_obj(fam):
    from .core import to_json_obj

    return {
        "base": to_json_obj(fam.base),
        "claimed_log2": fam.claimed_log2,
        "components": [_component_obj(c) for c in fam.components],
    }


def _cmd_validate(args):
    from . import core

    rep = core.validate(_read_table(args.table))
    if rep.ok:
        _emit({"ok": True})
        return 0
    _emit({"ok": False, "violations": [
        {"axis": v.axis, "fixed": list(v.fixed)} for v in rep.violations]})
    return 1


def _cmd_eval(args):
    from . import core

    t = _read_table(args.table)
    _emit({"value": core.evaluate(t, tuple(args.coords))})
    return 0


def _cmd_construct(args):
    from . import constructions, core

    table = None
    obj = None
    if args.qkr:
        table = constructions.build_qkr(*args.qkr)
    elif args.fixture:
        table = constructions.fixture(args.fixture)
    elif args.closed:
        table = constructions.build_closed(*args.closed)
    elif args.irreducible:
        table = constructions.build_irreducible(*args.irreducible)
    elif args.ptq is not None:
        table = constructions.build_ptq(args.ptq)
    elif args.family5 is not None:
        obj = _family_obj(constructions.build_family5(args.family5))
    elif args.family_k:
        obj = _family_obj(constructions.build_family_k(*args.family_k))
    else:
        q, f, loop = constructions.build_shell_counterexample()
        obj = {"q": core.to_json_obj(q), "f": core.to_json_obj(f),
               "loop": core.to_json_obj(loop)}
    if table is not None:
        _emit_table(table, args.pretty)
    else:
        if args.pretty:
            raise _UsageError("--pretty applies to single-table outputs only")
        _emit(obj)
    return 0


def _cmd_analyze(args):
    from . import analysis

    t = _read_table(args.table)
    if args.reductions:
        _emit([list(s.axes) for s in analysis.find_reductions(t)])
    elif args.subquasigroups:
        _emit([list(om) for om in analysis.find_subquasigroups(t)])
    elif args.split:
        ok, wit = analysis.is_reducible_wrt(
            t, analysis.Split(frozenset(args.split)), return_witness=True)
        _emit({"reducible": ok, "witness": list(wit) if ok else None})
    else:
        if args.basepoint is None:
            raise _UsageError("--shell requires --basepoint")
        sh = analysis.extract_shell(t, args.basepoint)
        _emit(analysis.shell_to_json_obj(sh))
    return 0


def _cmd_components(args):
    from . import switching

    t = _read_table(args.table)
    a, b = args.pair
    comps = switching.find_components(t, a, b)
    if args.switch is None:
        _emit([_component_obj(c) for c in comps])
    else:
        if not 0 <= args.switch < len(comps):
            raise _UsageError(
                "--switch index out of range 0..%d" % (len(comps) - 1))
        _emit_table(switching.switch_component(t, comps[args.switch]),
                    args.pretty)
    return 0


def _cmd_reconstruct(args):
    from . import analysis, core

    sh = _read_shell(args.shell)
    if args.split:
        t = analysis.reconstruct_with_split(
            sh, analysis.Split(frozenset(args.split)))
        _emit_table(t, args.pretty)
        return 0
    tables = analysis.reconstruct(sh)
    if sh.arity == 3:
        if args.pretty:
            raise _UsageError("--pretty applies to single-table outputs only")
        _emit([core.to_json_obj(t) for t in tables])
        return 0
    # theorem (1): a reducible table of arity >= 4 is fixed by its shell
    if len(tables) > 1:
        raise analysis.ReconstructionError(
            "shell admits %d distinct tables; uniqueness expected at arity >= 4"
            % len(tables))
    _emit_table(tables[0], args.pretty)
    return 0


def _cmd_census(args):
    from . import census

    rep = census.run_census(args.n, args.k, budget=args.budget,
                            exact=args.exact, time_limit=args.time_limit,
                            seed=args.seed)
    _emit(census.report_to_json_obj(rep))
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="nqg",
        description="Construct, analyze, switch, and count n-ary quasigroups.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the Latin property")
    sp.add_argument("table", help="table file (JSON or text), or - for stdin")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("eval", help="evaluate a table at one cell")
    sp.add_argument("table")
    sp.add_argument("coords", nargs="+", type=int, help="cell coordinates")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("construct", help="run one of the builders")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--qkr", nargs=2, type=int, metavar=("K", "R"))
    g.add_argument("--fixture", choices=_FIXTURES)
    g.add_argument("--closed", nargs=3, type=int, metavar=("N", "K", "R"))
    g.add_argument("--irreducible", nargs=2, type=int, metavar=("N", "K"))
    g.add_argument("--ptq", type=int, metavar="K")
    g.add_argument("--family5", type=int, metavar="N")
    g.add_argument("--family-k", nargs=2, type=int, metavar=("N", "K"))
    g.add_argument("--counterexample", action="store_true")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("analyze", help="reducibility, closures, shells")
    sp.add_argument("table")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--reductions", action="store_true")
    g.add_argument("--subquasigroups", action="store_true")
    g.add_argument("--split", type=_int_list, metavar="A,B,...")
    g.add_argument("--shell", action="store_true")
    sp.add_argument("--basepoint", type=_int_list, metavar="O1,...,ON")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("components", help="switching components of a pair")
    sp.add_argument("table")
    sp.add_argument("--pair", type=_pair, required=True, metavar="A,B")
    sp.add_argument("--switch", type=int, metavar="INDEX",
                    help="emit the table with this component flipped")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=_cmd_components)

    sp = sub.add_parser("reconstruct", help="rebuild a table from its shell")
    sp.add_argument("shell", help="shell file (JSON), or - for stdin")
    sp.add_argument("--split", type=_int_list, metavar="A,B,...")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=_cmd_reconstruct)

    sp = sub.add_parser("census", help="exact counts, bounds, family checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--budget", type=int, default=_CELL_BUDGET,
                    help="most cells the exact search or the family build "
                    "may touch (default %%(default)s, at most %d, "
                    "core.BUILD_CELL_BUDGET)" % _BUILD_CELL_BUDGET)
    sp.add_argument("--exact", choices=["auto", "on", "off"], default="auto")
    sp.add_argument("--time-limit", type=float, default=_TIME_LIMIT)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_census)

    return p


def _domain_errors():
    """Exceptions reported with exit code 1.  Called only once an
    exception reaches run, so census loads only on that path."""
    from .census import BudgetError, CertificationError

    return ValueError, BudgetError, CertificationError, OSError


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except _domain_errors() as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


def main():
    code = run(sys.argv[1:])
    # sys.stdout is None when nqg starts with its output descriptor closed
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone: send what is still buffered to /dev/null,
            # so that the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
