"""Command-line front end.

Subcommands: validate, eval, construct, analyze, components, reconstruct,
census.  Tables travel as JSON (any arity) or as the k-line text form
(binary only); '-' reads standard input.  Results go to standard output as
compact JSON, or as aligned digit grids with --pretty.  Exit codes:
0 success, 1 domain error, 2 usage error.  A reader that closes the
output pipe early ends the command quietly, with exit code 0.

The command line is read from one table, _COMMANDS, by _parse, with
argparse's rules but without loading argparse.  Each handler imports the
modules it runs, so a launch compiles only what its subcommand needs:
validate and eval load core; analyze and reconstruct add analysis, and
the reducibility kernel when they test a split (analyze --reductions and
--split, reconstruct); components adds switching, and its --switch i
flips part i straight from the block labels, building no parts;
construct adds constructions, and switching for the stored Q52, but
--ptq and the families add switching alone; census loads core and
census, plus switching for the component families (order 5 and odd
orders prime to 3).  A table of order <= 10 is read by offsets into its
text and written as one bytearray to stdout's byte stream
(core.from_json, _json_bytes); a shell takes one byte pass each way
(analysis._shell_json and _shell_from_json).  So json loads only on
their fallback and where other results are written with json.dumps.
The table's literals below copy library constants; tests pin them to
their sources.
"""

import itertools
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
        raise ValueError("expected comma-separated integers")


def _pair(text):
    parts = _int_list(text)
    if len(parts) != 2:
        raise ValueError("expected exactly two symbols: a,b")
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

    return analysis._shell_from_json(_read_input(path))


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
    from . import core

    # the families and their binary base are built in switching
    if args.ptq is not None or args.family5 is not None or args.family_k:
        from . import switching as builders
    else:
        from . import constructions as builders
    table = None
    obj = None
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


# Each command: its help line, its arguments, and its required groups, each
# a string of the options of which exactly one must be given.  An argument
# is (spec, type[, default[, help]]).  A positional's spec is its name; one
# ending in "..." takes one or more values, as a list.  An option's spec is
# its flag and the names of its values: one value is stored as it is, more
# as a list, and an option without values is a switch, False unless given.
# A tuple type lists the choices.
_COMMANDS = {
    "validate": ("check the Latin property", [
        ("table", str, None, "table file (JSON or text), or - for stdin")], ()),
    "eval": ("evaluate a table at one cell", [
        ("table", str), ("coords...", int, None, "cell coordinates")], ()),
    "construct": ("run one of the builders", [
        ("--qkr K R", int), ("--fixture ID", _FIXTURES),
        ("--closed N K R", int), ("--irreducible N K", int), ("--ptq K", int),
        ("--family5 N", int), ("--family-k N K", int),
        ("--counterexample", None), ("--pretty", None)],
        ["--qkr --fixture --closed --irreducible --ptq --family5 --family-k "
         "--counterexample"]),
    "analyze": ("reducibility, closures, shells", [
        ("table", str), ("--reductions", None), ("--subquasigroups", None),
        ("--split A,B,...", _int_list), ("--shell", None),
        ("--basepoint O1,...,ON", _int_list)],
        ["--reductions --subquasigroups --split --shell"]),
    "components": ("switching components of a pair", [
        ("table", str), ("--pair A,B", _pair),
        ("--switch INDEX", int, None,
         "emit the table with this component flipped"),
        ("--pretty", None)], ["--pair"]),
    "reconstruct": ("rebuild a table from its shell", [
        ("shell", str, None, "shell file (JSON), or - for stdin"),
        ("--split A,B,...", _int_list), ("--pretty", None)], ()),
    "census": ("exact counts, bounds, family checks", [
        ("--n N", int), ("--k K", int),
        ("--budget CELLS", int, _CELL_BUDGET,
         "most cells the exact search or the family build may touch (at "
         "most %d, core.BUILD_CELL_BUDGET)" % _BUILD_CELL_BUDGET),
        ("--exact MODE", ("auto", "on", "off"), "auto"),
        ("--time-limit SECONDS", float, _TIME_LIMIT), ("--seed SEED", int, 0)],
        ["--n", "--k"]),
}
_TOP = ("Construct, analyze, switch, and count n-ary quasigroups.",
        [("command", tuple(_COMMANDS))], ())
_HELP = ("-h", "--help")


class _Args:
    """The parsed command line: command, func and one attribute per
    argument."""


def _dest(spec):
    return spec.split()[0].strip("-.").replace("-", "_")


def _show(spec, typ):
    """spec as usage shows it, with the choices in place of a value name."""
    if type(typ) is tuple:
        spec = spec.split()[0] + " {%s}" % ",".join(typ)
    return spec


def _usage(cmd):
    if cmd is None:
        return "nqg [-h] COMMAND ..."
    _, arguments, groups = _COMMANDS[cmd]
    shown = {_dest(a[0]): _show(*a[:2]) for a in arguments}
    words = ["nqg", cmd, "[-h]"] + [s for s in shown.values() if s[0] != "-"]
    for group in groups:
        flags = [shown.pop(_dest(f)) for f in group.split()]
        words.append("(%s)" % " | ".join(flags) if flags[1:] else flags[0])
    words += ["[%s]" % s for s in shown.values() if s[0] == "-"]
    return " ".join(words)


def _help(cmd):
    """Usage, the help line, then a line per command or argument."""
    spec = _COMMANDS[cmd] if cmd else _TOP
    lines = ["usage: " + _usage(cmd), "", spec[0], ""]
    if cmd is None:
        lines += ["  %-12s %s" % (c, s[0]) for c, s in _COMMANDS.items()]
        lines += ["", "'nqg COMMAND -h' lists a command's arguments."]
    for arg in spec[1] * bool(cmd):
        name, typ, default, text = arg + (None,) * (4 - len(arg))
        if default is not None:
            text = "%sdefault %s" % (text + "; " if text else "", default)
        lines.append(("  %-24s %s" % (_show(name, typ), text or "")).rstrip())
    return "\n".join(lines)


def _fail(cmd, why):
    print("usage: %s\nnqg: error: %s" % (_usage(cmd), why), file=sys.stderr)
    sys.exit(2)


def _value(cmd, arg, word):
    """word read by the type of argument arg, or a usage error."""
    typ = arg[1]
    try:
        if type(typ) is not tuple:
            return typ(word)
        if word in typ:
            return word
        raise ValueError("invalid choice %r (choose from %s)"
                         % (word, ", ".join(typ)))
    except ValueError as e:
        _fail(cmd, "argument %s: %s" % (_dest(arg[0]), e))


def _optional(word, options):
    """Whether word is an option, known or not.  As in argparse, "-",
    negative numbers and words with a space are values."""
    return word.partition("=")[0] in options or (
        word[:1] == "-" and len(word) > 1 and " " not in word
        and not (word[1:].replace(".", "", 1).isdecimal() and word[-1] != "."))


def _parse(argv):
    """The args of argv as _COMMANDS reads them, with argparse's rules.

    An option's values follow it as separate words, or one value after
    "=", and the last of a repeated option wins.  After the command, "--"
    makes every later word a value.  Help (-h, --help) prints to stdout
    and exits 0; a usage error prints the usage and the reason to stderr
    and exits 2.  An unknown option or a surplus value is refused at the
    end, so that help after it still wins.
    """
    args, cmd, groups, late, only_values = _Args(), None, (), None, False
    args.command, wanted, options = None, _TOP[1][:], dict.fromkeys(_HELP)
    given = set()
    i = 0
    while i < len(argv):
        word = argv[i]
        i += 1
        flag, eq, value = word.partition("=")
        if word == "--" and cmd and not only_values:
            only_values = True
        elif only_values or word == "--" or not _optional(word, options):
            if not wanted:
                late = late or "unrecognized argument: " + word
                continue
            arg = wanted[0]
            value = _value(cmd, arg, word)
            if arg[0].endswith("..."):
                value = (getattr(args, _dest(arg[0])) or []) + [value]
            else:
                del wanted[0]
            setattr(args, _dest(arg[0]), value)
            if cmd is None:
                cmd = value
                _, arguments, groups = _COMMANDS[cmd]
                args.func = globals()["_cmd_" + cmd]
                wanted = [a for a in arguments if a[0][0] != "-"]
                for a in arguments:
                    if a[0][0] == "-":
                        options[a[0].split()[0]] = a
                    setattr(args, _dest(a[0]), a[2] if len(a) > 2
                            else None if a[1] else False)
        elif wanted and getattr(args, _dest(wanted[0][0])) is not None:
            # an option ends a list of values, as in argparse
            del wanted[0]
            i -= 1
        elif flag in _HELP:
            if eq:
                _fail(cmd, "argument %s: expected no value" % flag)
            print(_help(cmd))
            sys.exit(0)
        elif flag not in options:
            late = late or "unrecognized argument: " + word
        else:
            arg = options[flag]
            names = arg[0].split()[1:]
            words = [value] if eq else argv[i:i + len(names)]
            if (len(names) != 1 if eq else len(words) < len(names)
                    or any(_optional(w, options) for w in words)):
                _fail(cmd, "argument %s: expected %s"
                      % (flag, " ".join(names) or "no value"))
            i += 0 if eq else len(names)
            for group in groups:
                rivals = given & (set(group.split()) - {flag})
                if flag in group.split() and rivals:
                    _fail(cmd, "argument %s: not allowed with %s"
                          % (flag, rivals.pop()))
            given.add(flag)
            values = [_value(cmd, arg, w) for w in words]
            setattr(args, _dest(flag), values if len(names) > 1
                    else values[0] if names else True)
    missing = [a[0] for a in wanted if getattr(args, _dest(a[0])) is None]
    missing += [group.replace(" ", " | ") for group in groups
                if not given & set(group.split())]
    if missing:
        _fail(cmd, "required: " + ", ".join(missing))
    if late:
        _fail(cmd, late)
    return args


def _domain_errors():
    """Exceptions reported with exit code 1.  Called only once an
    exception reaches run, so census loads only on that path."""
    from .census import BudgetError, CertificationError

    return ValueError, BudgetError, CertificationError, OSError


def run(argv):
    try:
        args = _parse(argv)
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
