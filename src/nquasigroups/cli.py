"""Command-line front end.

Subcommands: validate, eval, construct, analyze, components, reconstruct,
census.  Tables travel as JSON (any arity) or as the k-line text form
(binary only); '-' reads standard input.  Results go to standard output as
compact JSON, or as aligned digit grids with --pretty.  Exit codes:
0 success, 1 domain error, 2 usage error.  A reader that closes the
output pipe early ends the command quietly, with exit code 0.

_parse reads the command line by one table, _COMMANDS, with argparse's
rules but without loading argparse.  census runs here, on core and census
(and families at order 5 and odd orders prime to 3), and writes its
report without json; the table commands run in commands (_handler).  No
module imports this one, which python -m runs as __main__.  The table's
literals copy library constants; tests pin them to their sources.
"""

import os
import sys

from . import _UsageError

_FIXTURES = ("Q42", "Q52", "Q62", "Q72")   # constructions.FixtureId values
_CELL_BUDGET = 2_000_000                   # census.DEFAULT_CELL_BUDGET
_TIME_LIMIT = 600.0                        # census.DEFAULT_TIME_LIMIT
_BUILD_CELL_BUDGET = 1 << 22               # core.BUILD_CELL_BUDGET


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


def _cmd_census(args):
    from . import census

    rep = census.run_census(args.n, args.k, budget=args.budget,
                            exact=args.exact, time_limit=args.time_limit,
                            seed=args.seed)
    print(census._report_json(census.report_to_json_obj(rep)))
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
    """The parsed command line: command and one attribute per argument."""


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


def _handler(cmd):
    """The function that runs cmd: census's is here, every other command's
    is in commands, which only those commands load."""
    if cmd == "census":
        return _cmd_census
    from . import commands

    return getattr(commands, "_cmd_" + cmd)


def run(argv):
    try:
        args = _parse(argv)
        return _handler(args.command)(args)
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
