"""Per-cell reference versions of the kernels that now walk flat offsets.

Each is the library code as it read before the offset gather (core._offsets
with a symbol subset), kept as the slow path the differential tests compare
the fast one against: coordinate tuples from itertools.product and one
QTable.index per cell.  The reference shell is the dict of coordinate
tuples that Shell held before its zero-padded k^n byte form.
"""

import argparse
import itertools
import sys

from nquasigroups import cli, commands, core, families, latin, switching
from nquasigroups.analysis import AnalysisError
from nquasigroups.constructions import ConstructionError
from nquasigroups.families import Component


def reference_lines(n, k):
    """Yield (axis, base_index, stride) for every axis line of a k**n cube,
    0-based axes in order and first cells ascending: the line walk the
    library used before validate read its lines from _axis_chunks."""
    for ax in range(n):
        stride = k ** (n - 1 - ax)
        block = stride * k
        for hi in range(k ** ax):
            top = hi * block
            for lo in range(stride):
                yield ax, top + lo, stride


def reference_visit_order(n, k, visit):
    """Flat indices in census visitation order."""
    total = k ** n
    if visit == "index":
        return list(range(total))
    if visit == "transposed":
        # lexicographic over reversed coordinate tuples
        order = []
        for x in itertools.product(range(k), repeat=n):
            idx = 0
            for c in reversed(x):
                idx = idx * k + c
            order.append(idx)
        return order
    raise ValueError("visit must be 'index' or 'transposed'")


def reference_direct_product(g, q):
    if g.arity != q.arity:
        raise core.StructuralError(
            "arity mismatch: %d vs %d" % (g.arity, q.arity))
    n = g.arity
    kg, kq = g.order, q.order
    kk = kg * kq
    vals = []
    for x in itertools.product(range(kk), repeat=n):
        a = tuple(c // kq for c in x)
        b = tuple(c % kq for c in x)
        vals.append(g.values[g.index(a)] * kq + q.values[q.index(b)])
    return core.QTable(n, kk, tuple(vals))


def reference_omega_product(g, om):
    if not isinstance(om, latin.OmegaMap):
        raise core.StructuralError("second argument must be an OmegaMap")
    if om.outer_order != g.order or om.arity != g.arity:
        raise core.StructuralError("omega map does not match the outer table")
    n, r, s = g.arity, om.outer_order, om.inner_order
    core.check_cell_budget(n, r * s, core.StructuralError)
    for y in itertools.product(range(r), repeat=n):
        t = om.assignment.get(y)
        if t is None:
            raise core.StructuralError("omega map misses block %r" % (y,))
        if t.arity != n or t.order != s:
            raise core.StructuralError(
                "omega block %r has shape (%d,%d), want (%d,%d)"
                % (y, t.arity, t.order, n, s))
    kk = r * s
    vals = []
    for z in itertools.product(range(kk), repeat=n):
        y = tuple(c // s for c in z)
        x = tuple(c % s for c in z)
        inner = om.assignment[y]
        vals.append(g.values[g.index(y)] * s + inner.values[inner.index(x)])
    return core.QTable(n, kk, tuple(vals))


def reference_restrict_to_symbols(t, omega):
    omega = tuple(sorted(set(omega)))
    pos = {sym: i for i, sym in enumerate(omega)}
    n = t.arity
    vals = []
    for x in itertools.product(omega, repeat=n):
        v = t.values[t.index(x)]
        if v not in pos:
            raise core.StructuralError(
                "table is not closed on %r: value %d at %r" % (omega, v, x))
        vals.append(pos[v])
    return core.QTable(n, len(omega), tuple(vals))


def reference_find_subquasigroups(q):
    """Every proper symbol subset on which q is closed, by trying all
    2^k - 2 of them in (size, tuple) order: analysis.find_subquasigroups
    before it searched closed sets only, the oracle for k <= 10."""
    n, k = q.arity, q.order
    vals = q.values
    out = []
    for size in range(1, k):
        for omega in itertools.combinations(range(k), size):
            inside = set(omega)
            if all(vals[o] in inside
                   for o in core._offsets(n, k, range(1, n + 1), omega)):
                out.append(omega)
    return out


def reference_switch_sub(q, omega, h):
    om = tuple(sorted(set(omega)))
    n, k = q.arity, q.order
    if not om or any(not 0 <= s < k for s in om):
        raise ConstructionError("omega must be a nonempty subset of 0..%d"
                                % (k - 1))
    if h.arity != n or h.order != len(om):
        raise ConstructionError(
            "replacement table has shape (%d,%d), want (%d,%d)"
            % (h.arity, h.order, n, len(om)))
    if not core.validate(h).ok:
        raise ConstructionError("replacement table is not a quasigroup")
    pos = {s: i for i, s in enumerate(om)}
    vals = list(q.values)
    for x in itertools.product(om, repeat=n):
        idx = q.index(x)
        if vals[idx] not in pos:
            raise ConstructionError(
                "table is not closed on %s: value %d at %r"
                % (list(om), vals[idx], x))
        vals[idx] = om[h.values[h.index(tuple(pos[c] for c in x))]]
    return core.QTable(n, k, tuple(vals))


def reference_low_cells(q2):
    """build_family5's low cells: the cells of q2 valued 0 or 1."""
    return frozenset(
        x for x in itertools.product(range(q2.order), repeat=q2.arity)
        if q2.values[q2.index(x)] in (0, 1))


# A shell as the library kept it before its zero-padded byte form: the
# tuple (arity, order, basepoint, entries), entries a dict from each cell
# touching the basepoint, a coordinate tuple, to its value.

def _reference_hyperplane(base, k, i):
    """The cells with x_i = base_i, in itertools.product order."""
    return itertools.product(
        *[(o,) if j == i else range(k) for j, o in enumerate(base, 1)])


def reference_shell(arity, order, basepoint, entries):
    """The checks of the dict-based Shell constructor; the checked shell."""
    n, k = arity, order
    if type(n) is not int or type(k) is not int or n < 1 or k < 1:
        raise AnalysisError("shell arity and order must be integers >= 1")
    if not (isinstance(basepoint, (tuple, list)) and len(basepoint) == n
            and core._ints_below(basepoint, k)):
        raise AnalysisError(
            "basepoint must list %d integers in 0..%d" % (n, k - 1))
    entries = dict(entries)
    count = len(entries)
    if ((k > 1 and n - 1 >= count.bit_length())
            or k ** n - (k - 1) ** n != count):
        raise AnalysisError(
            "shell of arity %d, order %d has %d entries, not k^n - (k-1)^n"
            % (n, k, count))
    vals = entries.values()
    if not (set(map(type, vals)) <= {int} and 0 <= min(vals)
            and max(vals) < k):
        raise AnalysisError(
            "shell values must be integers in 0..%d" % (k - 1))
    basepoint = tuple(basepoint)
    for i in range(1, n + 1):
        if None in map(entries.get, _reference_hyperplane(basepoint, k, i)):
            missing = next(x for x in _reference_hyperplane(basepoint, k, i)
                           if x not in entries)
            raise AnalysisError(
                "shell misses cell %r, which touches the basepoint"
                % (missing,))
    if not set(map(type, itertools.chain.from_iterable(entries))) <= {int}:
        bad = next(x for x in entries if not core._ints_below(x, k))
        raise AnalysisError(
            "shell cell %r is not a tuple of %d integers" % (bad, n))
    return n, k, basepoint, entries


def reference_extract_shell(q, basepoint):
    """The cells of q having some coordinate at the basepoint, each with
    its value, in index order."""
    n, k = q.arity, q.order
    base = tuple(basepoint)
    # the cells that miss the basepoint on each of the n axes
    away = set(itertools.product(*[[c for c in range(k) if c != o]
                                   for o in base[:n]]))
    entries = {x: v for x, v in zip(q.cells(), q.values) if x not in away}
    return reference_shell(n, k, base, entries)


def reference_entries(sh):
    """The entries dict of a library Shell: its cells touching the
    basepoint, in index order, each with its value."""
    return reference_extract_shell(
        core.QTable(sh.arity, sh.order, sh.values), sh.basepoint)[3]


def reference_shell_to_json_obj(shell):
    n, k, basepoint, entries = shell
    return {
        "arity": n,
        "order": k,
        "basepoint": list(basepoint),
        "entries": [list(cell) + [v] for cell, v in sorted(entries.items())],
    }


def reference_shell_from_json_obj(obj):
    if not isinstance(obj, dict):
        raise AnalysisError("shell JSON must be an object")
    try:
        n, k = obj["arity"], obj["order"]
        base, rows = obj["basepoint"], obj["entries"]
    except KeyError as e:
        raise AnalysisError("shell JSON misses field %s" % e)
    if not isinstance(rows, list):
        raise AnalysisError("shell entries must be a list")
    entries = {}
    for row in rows:
        if not (type(row) is list and row and set(map(type, row)) <= {int}):
            raise AnalysisError(
                "shell entry %r must list coordinates and a value, all "
                "JSON integers" % (row,))
        cell = tuple(row[:-1])
        if cell in entries:
            raise AnalysisError("shell lists cell %r twice" % (cell,))
        entries[cell] = row[-1]
    return reference_shell(n, k, base, entries)


def table_outcome(fn, *args):
    """('ok', values) or (exception class name, message) of fn(*args)."""
    try:
        return ("ok", fn(*args).values)
    except (ValueError, AssertionError) as e:
        return (type(e).__name__, str(e))


def reference_build_parser():
    """The argparse parser nqg was built from before its option table:
    cli._build_parser as it read then, the names it used taken from cli."""
    p = argparse.ArgumentParser(
        prog="nqg",
        description="Construct, analyze, switch, and count n-ary quasigroups.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the Latin property")
    sp.add_argument("table", help="table file (JSON or text), or - for stdin")
    sp.set_defaults(func=commands._cmd_validate)

    sp = sub.add_parser("eval", help="evaluate a table at one cell")
    sp.add_argument("table")
    sp.add_argument("coords", nargs="+", type=int, help="cell coordinates")
    sp.set_defaults(func=commands._cmd_eval)

    sp = sub.add_parser("construct", help="run one of the builders")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--qkr", nargs=2, type=int, metavar=("K", "R"))
    g.add_argument("--fixture", choices=cli._FIXTURES)
    g.add_argument("--closed", nargs=3, type=int, metavar=("N", "K", "R"))
    g.add_argument("--irreducible", nargs=2, type=int, metavar=("N", "K"))
    g.add_argument("--ptq", type=int, metavar="K")
    g.add_argument("--family5", type=int, metavar="N")
    g.add_argument("--family-k", nargs=2, type=int, metavar=("N", "K"))
    g.add_argument("--counterexample", action="store_true")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=commands._cmd_construct)

    sp = sub.add_parser("analyze", help="reducibility, closures, shells")
    sp.add_argument("table")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--reductions", action="store_true")
    g.add_argument("--subquasigroups", action="store_true")
    g.add_argument("--split", type=cli._int_list, metavar="A,B,...")
    g.add_argument("--shell", action="store_true")
    sp.add_argument("--basepoint", type=cli._int_list, metavar="O1,...,ON")
    sp.set_defaults(func=commands._cmd_analyze)

    sp = sub.add_parser("components", help="switching components of a pair")
    sp.add_argument("table")
    sp.add_argument("--pair", type=cli._pair, required=True, metavar="A,B")
    sp.add_argument("--switch", type=int, metavar="INDEX",
                    help="emit the table with this component flipped")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=commands._cmd_components)

    sp = sub.add_parser("reconstruct", help="rebuild a table from its shell")
    sp.add_argument("shell", help="shell file (JSON), or - for stdin")
    sp.add_argument("--split", type=cli._int_list, metavar="A,B,...")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=commands._cmd_reconstruct)

    sp = sub.add_parser("census", help="exact counts, bounds, family checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--budget", type=int, default=cli._CELL_BUDGET,
                    help="most cells the exact search or the family build "
                    "may touch (default %%(default)s, at most %d, "
                    "core.BUILD_CELL_BUDGET)" % cli._BUILD_CELL_BUDGET)
    sp.add_argument("--exact", choices=["auto", "on", "off"], default="auto")
    sp.add_argument("--time-limit", type=float, default=cli._TIME_LIMIT)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cli._cmd_census)

    return p


def hit_positions(raw, symbol, bases, slices):
    """Position j of symbol on each line of an _axis_chunks chunk, in bases
    order.  Each slice of raw is translated to 0/1 flags "cell holds
    symbol", so no whole-table copy is made; on Latin lines the flags hold
    one 1 per line, so the j-weighted sum of the k slices puts j in that
    line's byte."""
    flags = bytes(symbol) + b"\x01" + bytes(255 - symbol)
    pos = sum(j * int.from_bytes(raw[sl].translate(flags), "little")
              for j, sl in enumerate(slices) if j)
    return pos.to_bytes(len(bases), "little")


def union_find_components(q, a, b):
    """switching.find_components as it was before the block search: a
    union-find over the last-axis lines, joined along every other axis
    by the positions of a and b that whole-axis big-integer sums give
    (hit_positions), then one scan by line that appends each line's two
    cells to its root's uint32 buffer; the oracle."""
    n, k = q.arity, q.order
    if a == b or not core._ints_below((a, b), k):
        raise AnalysisError("component pair %r is not two distinct symbols "
                            "in 0..%d" % ((a, b), k - 1))
    if not core.validate(q).ok:
        raise AnalysisError("table is not Latin; components are undefined")

    raw = q.values.obj
    lines = k ** (n - 1)
    parent = list(range(lines))
    for ax in range(n - 1):
        stride = k ** (n - 1 - ax)
        for bases, slices in core._axis_chunks(n, k, ax):
            pos_a = hit_positions(raw, a, bases, slices)
            pos_b = hit_positions(raw, b, bases, slices)
            for base, i, j in zip(bases, pos_a, pos_b):
                # path halving: parent[x] (old x) and then x take x's
                # grandparent, until x is a root
                x = (base + i * stride) // k
                while x != (r := parent[x]):
                    parent[x] = x = parent[r]
                y = (base + j * stride) // k
                while y != (r := parent[y]):
                    parent[y] = y = parent[r]
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y

    # the last axis: one chunk, its lines in order.  parent[i] <= i
    # throughout, so one step from an already flattened parent finds the
    # root, and a root opens its part before the rest of its lines
    (bases, slices), = core._axis_chunks(n, k, n - 1)
    parts = {}
    for i, j, l in zip(range(lines), hit_positions(raw, a, bases, slices),
                       hit_positions(raw, b, bases, slices)):
        r = parent[i] = parent[parent[i]]
        if r == i:
            parts[i] = part = bytearray()
        else:
            part = parts[r]
        x = i * k
        if l < j:
            j, l = l, j
        part += (x + j).to_bytes(4, sys.byteorder)
        part += (x + l).to_bytes(4, sys.byteorder)
    return [Component(memoryview(part).cast("I"), n, k, (a, b))
            for part in parts.values()]


def reference_build_family_k(n, k):
    """families.build_family_k as it was before the row-cycle walk
    (families._cycles): the binary parts of each pair from
    switching.find_components, then the same lift through every extra
    argument."""
    if n < 2:
        raise ConstructionError("need arity >= 2")
    core.check_cell_budget(n, k, ConstructionError)
    g = core.inverse_along(families.build_ptq(k), 1)
    npairs = k // 3
    level = []
    for j in range(npairs):
        found = [comp.indices.tolist()
                 for comp in switching.find_components(g, 2 * j, 2 * j + 1)]
        if len(found) != k // 2:
            raise ConstructionError(
                "expected %d components for pair {%d,%d}, found %d"
                % (k // 2, 2 * j, 2 * j + 1, len(found)))
        for i in range(k // 2 - 1):
            rows = ((2 * i + 3 * j) % k, (2 * i + 3 * j + 1) % k)
            if sorted(k * x + y for x in rows
                      for y in (2 * i, 2 * i + 1)) not in found:
                raise ConstructionError(
                    "analytic square block is not a component at k=%d" % k)
        level.extend((j, idxs) for idxs in found)
    for m in range(2, n):
        level = [(j1, [p * k ** m + i
                       for p in sorted(((2 * j2 + 3 * j1) % k,
                                        (2 * j2 + 3 * j1 + 1) % k))
                       for i in idxs])
                 for j1 in range(npairs) for j2, idxs in level]
    comps = tuple(Component(idxs, n, k, (2 * j, 2 * j + 1))
                  for j, idxs in level)
    return families.CountingFamily(core.iterate(g, n - 1), comps, len(comps))
