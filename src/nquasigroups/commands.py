"""The table commands of nqg: validate, eval, construct, analyze,
components and reconstruct, which cli calls (cli._handler); --help and
census compile none of this.

Each handler imports what it runs: tableio to read or write a table
(and core, which it imports), plus analysis for analyze but --shell (and
reducibility to test a split), shells for analyze --shell and for
reconstruct (which adds analysis and reducibility), switching for
components (and families for the parts it lists; --switch i flips part i
from the block labels), constructions for construct (families for Q52,
--ptq and the families).  Files are read as bytes into a buffer that a
compact table is compacted in, and decoded as in text mode otherwise;
tables of order <= 10 are written in pieces and shells in one pass, and
validate's {"ok":true} and analyze --reductions' axis lists are printed
as they are, so json loads only on other outputs and on fallbacks.
"""

import itertools
import os
import sys

from . import _UsageError


def _read(path):
    """The bytes of the file at path, or of stdin for -, in a bytearray of
    their own, and the (encoding, errors, newline) of text mode's read
    (Python's stdin translates newlines on Windows only).  A file is read
    into a buffer of its fstat size, with no copy; closed stdin is refused
    with OSError, which nqg reports with exit code 1."""
    if path == "-":
        stdin = sys.stdin
        if stdin is None:
            raise OSError("cannot read -: standard input is closed")
        data, read = bytearray(), stdin.buffer.read
        while chunk := read(1 << 16):
            data += chunk
        mode = None if sys.platform == "win32" else "\n"
        return data, (stdin.encoding, stdin.errors, mode)
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
        data += fh.read()  # what fstat did not count: a pipe, a file grown
    return data, ("utf-8", "strict", None)


def _text(data, codec):
    """data decoded as text mode's read decodes it: newline None
    translates \\r\\n and \\r to \\n (universal newlines), "\\n" nothing."""
    encoding, errors, newline = codec
    text = data.decode(encoding, errors)
    return text if newline else text.replace("\r\n", "\n").replace("\r", "\n")


def _read_table(path):
    """The table in the file at path, or stdin for -: compact table JSON
    from _read's buffer in place (tableio._table), any other text decoded
    (_text) and read by from_json or from_text, as text mode read it."""
    from . import tableio

    data, codec = _read(path)
    found = tableio._compact(data)
    if found:
        return tableio._table(data, *found)
    text = _text(data, codec)
    del data
    return (tableio.from_json if text.lstrip().startswith("{")
            else tableio.from_text)(text)


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
        from .tableio import _json_bytes

        if hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.writelines(_json_bytes(t))
        else:  # a text stream, such as io.StringIO
            sys.stdout.writelines(p.decode() for p in _json_bytes(t))


def _component_obj(c):
    return {"pair": sorted(c.pair), "size": len(c),
            "cells": [list(x) for x in c.coords()]}


def _family_obj(fam):
    from .tableio import to_json_obj

    return {"base": to_json_obj(fam.base), "claimed_log2": fam.claimed_log2,
            "components": [_component_obj(c) for c in fam.components]}


def _cmd_validate(args):
    from . import core

    rep = core.validate(_read_table(args.table))
    if rep.ok:
        print('{"ok":true}')
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
        from .tableio import to_json_obj

        q, f, loop = builders.build_shell_counterexample()
        obj = {"q": to_json_obj(q), "f": to_json_obj(f),
               "loop": to_json_obj(loop)}
    if table is not None:
        _emit_table(table, args.pretty)
    else:
        if args.pretty:
            raise _UsageError("--pretty applies to single-table outputs only")
        _emit(obj)
    return 0


def _cmd_analyze(args):
    t = _read_table(args.table)  # before analysis compiles: a lower peak
    if args.shell:
        if args.basepoint is None:
            raise _UsageError("--shell requires --basepoint")
        from . import shells

        print(shells._shell_json(shells.extract_shell(t, args.basepoint)))
        return 0
    from . import analysis

    if args.reductions:  # lists of ints: json.dumps' compact text
        print(str([list(s.axes) for s in analysis.find_reductions(t)])
              .replace(" ", ""))
    elif args.subquasigroups:
        _emit([list(om) for om in analysis.find_subquasigroups(t)])
    else:
        ok, wit = analysis.is_reducible_wrt(
            t, analysis.Split(frozenset(args.split)), return_witness=True)
        _emit({"reducible": ok, "witness": list(wit) if ok else None})
    return 0


def _cmd_components(args):
    t = _read_table(args.table)  # before switching compiles: a lower peak
    from . import switching

    a, b = args.pair
    if args.switch is None:
        _emit([_component_obj(c) for c in switching.find_components(t, a, b)])
    else:
        labelled = switching._labelled(t, a, b)
        if not 0 <= args.switch < labelled[0]:
            raise _UsageError(
                "--switch index out of range 0..%d" % (labelled[0] - 1))
        from .core import QTable

        shape = t.arity, t.order
        vals = switching._flip(t, a, b, labelled, args.switch)
        del labelled, t  # not held while the flip is validated and written
        t = QTable(*shape, b"".join(vals))
        del vals  # the table holds a copy
        _emit_table(switching._flipped(t), args.pretty)
    return 0


def _cmd_reconstruct(args):
    from . import shells, tableio

    sh = shells._shell_from_json(_text(*_read(args.shell)))
    if args.split:
        t = shells.reconstruct_with_split(sh, args.split)
        _emit_table(t, args.pretty)
        return 0
    tables = shells.reconstruct(sh)
    if sh.arity == 3:
        if args.pretty:
            raise _UsageError("--pretty applies to single-table outputs only")
        _emit([tableio.to_json_obj(t) for t in tables])
        return 0
    # theorem (1): a reducible table of arity >= 4 is fixed by its shell
    if len(tables) > 1:
        raise shells.ReconstructionError(
            "shell admits %d distinct tables; uniqueness expected at arity >= 4"
            % len(tables))
    _emit_table(tables[0], args.pretty)
    return 0
