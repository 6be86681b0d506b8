"""Per-cell reference versions of the kernels that now walk flat offsets.

Each is the library code as it read before the offset gather (core._offsets
with a symbol subset), kept as the slow path the differential tests compare
the fast one against: coordinate tuples from itertools.product and one
QTable.index per cell.
"""

import itertools

from nquasigroups import core
from nquasigroups.constructions import ConstructionError


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
    if not isinstance(om, core.OmegaMap):
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
    n, k = q.arity, q.order
    vals = q.values
    out = []
    for size in range(1, k):
        for omega in itertools.combinations(range(k), size):
            inside = set(omega)
            if all(vals[q.index(x)] in inside
                   for x in itertools.product(omega, repeat=n)):
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


def table_outcome(fn, *args):
    """('ok', values) or (exception class name, message) of fn(*args)."""
    try:
        return ("ok", fn(*args).values)
    except (ValueError, AssertionError) as e:
        return (type(e).__name__, str(e))
