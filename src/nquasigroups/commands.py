"""The table commands of nqg: validate, eval, construct, analyze,
components and reconstruct, which cli calls (cli._handler); --help and
census compile none of this.

Each handler imports what it runs: core, plus analysis for analyze and
reconstruct (and reducibility to test a split), switching for components
(and families for the parts it lists; --switch i flips part i from the
block labels), constructions for construct (families for Q52, --ptq and
the families).  Tables of order <= 10 and shells are read and written in
one byte pass (core.from_json, _json_bytes, analysis._shell_json), so
json loads only on their fallback and for results written by json.dumps.
"""

import itertools
import sys

from . import _UsageError


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_table(path):
    from . import core

    data = _read_input(path)
    return (core.from_json if data.lstrip().startswith("{")
            else core.from_text)(data)


def _emit(obj):
    import json

    print(json.dumps(obj, separators=(",", ":")))


def _pretty(t):
    k, w = t.order, len(str(t.order - 1))
    rows = [" ".join(str(v).rjust(w) for v in t.values[i:i + k])
            for i in range(0, len(t.values), k)]
    if t.arity > 2:
        grids, rows = rows, []
        for pos, prefix in enumerate(
                itertools.product(range(k), repeat=t.arity - 2)):
            rows += ["[%s]" % ",".join(map(str, prefix)),
                     *grids[pos * k:pos * k + k], ""]
        rows.pop()
    return "\n".join(rows) + "\n"


def _emit_table(t, pretty):
    if pretty:
        print(_pretty(t), end="")
    elif sys.stdout:  # None when the output descriptor is closed
        from .core import _json_bytes

        out = _json_bytes(t)
        if hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.write(out)
        else:  # a text stream, such as io.StringIO
            sys.stdout.write(out.decode())


def _component_obj(c):
    return {"pair": sorted(c.pair), "size": len(c),
            "cells": [list(x) for x in c.coords()]}


def _family_obj(fam):
    from .core import to_json_obj

    return {"base": to_json_obj(fam.base), "claimed_log2": fam.claimed_log2,
            "components": [_component_obj(c) for c in fam.components]}


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
    from . import core

    # the families and their binary base are built in families
    if args.ptq is not None or args.family5 is not None or args.family_k:
        from . import families as builders
    else:
        from . import constructions as builders
    table = obj = None
    if args.qkr:
        table = builders.build_qkr(*args.qkr)
    elif args.fixture:
        table = builders.fixture(args.fixture)
    elif args.closed:
        table = builders.build_closed(*args.closed)
    elif args.irreducible:
        table = builders.build_irreducible(*args.irreducible)
    elif args.ptq is not None:
        table = builders.build_ptq(args.ptq)
    elif args.family5 is not None:
        obj = _family_obj(builders.build_family5(args.family5))
    elif args.family_k:
        obj = _family_obj(builders.build_family_k(*args.family_k))
    else:
        q, f, loop = builders.build_shell_counterexample()
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
        print(analysis._shell_json(analysis.extract_shell(t, args.basepoint)))
    return 0


def _cmd_components(args):
    from . import switching

    t = _read_table(args.table)
    a, b = args.pair
    if args.switch is None:
        _emit([_component_obj(c) for c in switching.find_components(t, a, b)])
    else:
        labelled = switching._labelled(t, a, b)
        if not 0 <= args.switch < labelled[1]:
            raise _UsageError(
                "--switch index out of range 0..%d" % (labelled[1] - 1))
        vals = switching._flip(t, a, b, labelled, args.switch)
        del labelled  # not held while the flip is validated and written
        t = switching._flipped(t, vals)
        _emit_table(t, args.pretty)
    return 0


def _cmd_reconstruct(args):
    from . import analysis, core

    sh = analysis._shell_from_json(_read_input(args.shell))
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
