"""Decision procedures over quasigroup tables.

Reducibility testing, subquasigroup search, switching-component detection,
and shell extraction/reconstruction.  Everything here is a pure function of
immutable inputs.
"""

import itertools
from dataclasses import dataclass

from .core import Cell, QTable, _lines, validate

# reconstruct tries every split and assembles k^n cells for each one:
# refuse shells whose splits times cells exceed this (4^8 still fits)
RECONSTRUCT_BUDGET = 1 << 24


class AnalysisError(ValueError):
    """Bad arguments to an analysis procedure."""


class ReconstructionError(AnalysisError):
    """Shell cannot be assembled into a table under the requested split."""


@dataclass(frozen=True)
class Split:
    """A candidate decomposition: the set of axes grouped under the inner map.

    A table q of arity n is reducible with respect to inside=S when
    q(x) = h(g(x restricted to S), x restricted to the complement) for some
    quasigroups h, g.  Requires 2 <= |S| <= n-1.
    """

    inside: frozenset

    def __post_init__(self):
        if not isinstance(self.inside, frozenset):
            object.__setattr__(self, "inside", frozenset(self.inside))

    @property
    def axes(self):
        return tuple(sorted(self.inside))

    def bitmask(self):
        return sum(1 << (i - 1) for i in self.inside)


@dataclass(frozen=True)
class Shell:
    """Values of a table on all cells touching a basepoint.

    entries maps a coordinate tuple to its symbol, totally over the cells
    having x_i = basepoint_i in at least one position i.
    """

    arity: int
    order: int
    basepoint: tuple
    entries: dict


@dataclass(frozen=True)
class Component:
    """A switching set: cells valued in {a,b} whose a<->b flip stays Latin.

    Components returned by find_components are additionally inclusion-minimal;
    constructed families may carry larger (non-minimal) switching sets.
    """

    cells: frozenset   # of Cell
    pair: frozenset    # the two symbols {a, b}

    def sorted_cells(self):
        return sorted(self.cells, key=lambda c: c.coords)

    def __len__(self):
        return len(self.cells)


def component_from_tuples(cells, a, b):
    """Component from plain coordinate tuples."""
    return Component(frozenset(Cell(tuple(c)) for c in cells), frozenset((a, b)))


def _checked_axes(split, n):
    if not isinstance(split, Split):
        split = Split(frozenset(split))
    S = split.axes
    if any(not isinstance(a, int) or not 1 <= a <= n for a in S):
        raise AnalysisError("split axes must lie in 1..%d" % n)
    if not 2 <= len(S) <= n - 1:
        raise AnalysisError(
            "split must group between 2 and %d axes, got %d" % (n - 1, len(S)))
    return S


def _class_signature(values):
    """Level-set partition of a value sequence, labeled by first appearance."""
    labels = {}
    sig = []
    for v in values:
        if v not in labels:
            labels[v] = len(labels)
        sig.append(labels[v])
    return tuple(sig)


def is_reducible_wrt(q, split, return_witness=False):
    """Test whether q decomposes as h(g(inside axes), remaining axes).

    The criterion: the level-set partition of the map (S-tuple -> value)
    must be identical for every fixing of the complement axes.  That
    partition (the fibers of the inner map) is the witness.
    """
    n, k = q.arity, q.order
    S = _checked_axes(split, n)
    sset = set(S)
    C = [i for i in range(1, n + 1) if i not in sset]
    w = [k ** (n - i) for i in range(n + 1)]  # w[i] = weight of axis i, 1-based
    s_offsets = [
        sum(c * w[a] for a, c in zip(S, tup))
        for tup in itertools.product(range(k), repeat=len(S))
    ]
    vals = q.values
    ref = None
    for ctup in itertools.product(range(k), repeat=len(C)):
        c_off = sum(c * w[a] for a, c in zip(C, ctup))
        sig = _class_signature(vals[c_off + s] for s in s_offsets)
        if ref is None:
            ref = sig
        elif sig != ref:
            return (False, None) if return_witness else False
    return (True, ref) if return_witness else True


def find_reductions(q):
    """All splits under which q is reducible, sorted by axis bitmask.

    Empty result means q is permutably irreducible.  Exhausts all
    2^n - n - 2 admissible axis subsets.
    """
    n = q.arity
    if n < 3:
        raise AnalysisError("reducibility is defined for arity >= 3")
    found = []
    for size in range(2, n):
        for S in itertools.combinations(range(1, n + 1), size):
            sp = Split(frozenset(S))
            if is_reducible_wrt(q, sp):
                found.append(sp)
    found.sort(key=Split.bitmask)
    return found


def find_subquasigroups(q):
    """All proper symbol subsets on which q is closed.

    Closure suffices: on finite sets the restriction of a quasigroup to a
    closed subset is itself Latin.  Returns sorted tuples, smallest first.
    """
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


def extract_shell(q, basepoint):
    """Restrict q to the cells having some coordinate at the basepoint.

    The result has exactly k^n - (k-1)^n entries.
    """
    n, k = q.arity, q.order
    base = tuple(basepoint)
    if len(base) != n:
        raise AnalysisError("basepoint must have %d coordinates" % n)
    for o in base:
        if not isinstance(o, int) or not 0 <= o < k:
            raise AnalysisError("basepoint symbol %r out of range" % (o,))
    entries = {}
    vals = q.values
    for idx, x in enumerate(q.cells()):
        if any(c == o for c, o in zip(x, base)):
            entries[x] = vals[idx]
    return Shell(n, k, base, entries)


def reconstruct_with_split(sh, split, probe=None):
    """Assemble the full table from a shell, assuming reducibility over split.

    With S the split, C its complement, p the probe axis (default min(S)),
    and all omitted coordinates at the basepoint, the shell determines
    g0 over the S-axes, h0 over (p, C-axes), and the unary d(x) = value at
    x in the probe slot alone.  The table is h0(d^-1(g0(x_S)), x_C).
    The result must validate and agree with the shell, else the split is
    inconsistent with the shell.
    """
    n, k = sh.arity, sh.order
    S = _checked_axes(split, n)
    if probe is None:
        probe = S[0]
    if probe not in S:
        raise AnalysisError("probe axis %r is not in the split" % (probe,))
    sset = set(S)
    C = [i for i in range(1, n + 1) if i not in sset]
    base = sh.basepoint
    ent = sh.entries

    def shell_cell(assign):
        return tuple(assign.get(i, base[i - 1]) for i in range(1, n + 1))

    try:
        delta = [ent[shell_cell({probe: x})] for x in range(k)]
        g0 = {
            stup: ent[shell_cell(dict(zip(S, stup)))]
            for stup in itertools.product(range(k), repeat=len(S))
        }
        h0 = {}
        for xp in range(k):
            for ctup in itertools.product(range(k), repeat=len(C)):
                assign = dict(zip(C, ctup))
                assign[probe] = xp
                h0[(xp,) + ctup] = ent[shell_cell(assign)]
    except KeyError as e:
        raise ReconstructionError("shell is missing required entry %s" % e)

    if sorted(delta) != list(range(k)):
        raise ReconstructionError(
            "split inconsistent with shell: probe retract is not a permutation")
    dinv = [0] * k
    for x, v in enumerate(delta):
        dinv[v] = x

    vals = []
    spos = [a - 1 for a in S]
    cpos = [a - 1 for a in C]
    for x in itertools.product(range(k), repeat=n):
        stup = tuple(x[p] for p in spos)
        ctup = tuple(x[p] for p in cpos)
        vals.append(h0[(dinv[g0[stup]],) + ctup])
    t = QTable(n, k, tuple(vals))

    if not validate(t).ok:
        raise ReconstructionError(
            "split inconsistent with shell: assembled table is not Latin")
    for cell, v in ent.items():
        if t.values[t.index(cell)] != v:
            raise ReconstructionError(
                "split inconsistent with shell: assembled table disagrees at %r"
                % (cell,))
    return t


def reconstruct(sh):
    """Recover a reducible table from its shell.

    Tries every admissible split and keeps each assembled table that
    validates and matches the shell.  For arity >= 4 all survivors are
    provably identical and the single table is returned; for arity 3 the
    deduplicated candidate list is returned, since distinct reducible
    tables can share a shell there.  Shells whose 2^n - n - 2 splits times
    k^n cells exceed RECONSTRUCT_BUDGET are refused before any split.
    """
    n, k = sh.arity, sh.order
    if n < 3:
        raise AnalysisError("reconstruction needs arity >= 3")
    # 2^n - n - 2 >= 2^(n-2) for n >= 3: past the budget's bit length the
    # splits alone exceed it, and 2^n is never formed
    if (n - 2 > RECONSTRUCT_BUDGET.bit_length()
            or (2 ** n - n - 2) * k ** n > RECONSTRUCT_BUDGET):
        raise AnalysisError(
            "reconstruction at arity %d, order %d tries 2^%d - %d splits of "
            "%d^%d cells each, over the %d-cell budget"
            % (n, k, n, n + 2, k, n, RECONSTRUCT_BUDGET))
    candidates = []
    seen = set()
    for size in range(2, n):
        for S in itertools.combinations(range(1, n + 1), size):
            split = Split(frozenset(S))
            try:
                t = reconstruct_with_split(sh, split)
            except ReconstructionError:
                continue
            if not is_reducible_wrt(t, split):
                continue
            if t.values not in seen:
                seen.add(t.values)
                candidates.append(t)
    if not candidates:
        raise ReconstructionError("not reducible or shell inconsistent")
    if n == 3:
        return candidates
    if len(candidates) > 1:
        raise ReconstructionError(
            "shell admits %d distinct tables; uniqueness expected at arity >= 4"
            % len(candidates))
    return candidates[0]


def find_components(q, a, b):
    """Minimal ab-switching components of q, as a partition of the ab-cells.

    Every axis line holds exactly one a-cell and one b-cell; those two must
    flip together, so components are the connected parts of the cell graph
    with one edge per line.  Each part flips to a valid table and no proper
    nonempty subset of a part does.  Sorted by smallest cell index.
    """
    n, k = q.arity, q.order
    if k < 2:
        raise AnalysisError("components need order >= 2")
    if a == b:
        raise AnalysisError("component pair must be two distinct symbols")
    for s in (a, b):
        if not isinstance(s, int) or not 0 <= s < k:
            raise AnalysisError("symbol %r out of range 0..%d" % (s, k - 1))

    vals = q.values
    parent = {}

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(i, j):
        for x in (i, j):
            if x not in parent:
                parent[x] = x
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for ax, bidx, stride in _lines(n, k):
        ca = cb = None
        for j in range(k):
            idx = bidx + j * stride
            v = vals[idx]
            if v == a:
                ca = idx
            elif v == b:
                cb = idx
        if ca is None or cb is None:
            raise AnalysisError("table is not Latin; components are undefined")
        union(ca, cb)

    groups = {}
    for idx in parent:
        groups.setdefault(find(idx), []).append(idx)
    comps = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        cells = frozenset(Cell(q.coords(i)) for i in groups[root])
        comps.append(Component(cells, frozenset((a, b))))
    return comps


def switch_component(q, comp):
    """Swap the component's two symbols on its cells; re-verifies on the way.

    Checks that every cell is valued in the pair and that the flipped table
    is Latin, so a set that is not actually a switching set of q is refused.
    """
    pair = sorted(comp.pair)
    if len(pair) != 2:
        raise AnalysisError("component pair must hold two symbols")
    a, b = pair
    if not comp.cells:
        raise AnalysisError("empty component")
    vals = list(q.values)
    for cell in comp.cells:
        idx = q.index(cell.coords)
        v = vals[idx]
        if v != a and v != b:
            raise AnalysisError(
                "not a component of this table: cell %r holds %d, not in {%d,%d}"
                % (cell.coords, v, a, b))
        vals[idx] = a + b - v
    t = QTable(q.arity, q.order, tuple(vals))
    if not validate(t).ok:
        raise AnalysisError("not a component: the flip breaks the Latin property")
    return t


# ---------------------------------------------------------------------------
# shell file format

def shell_to_json_obj(sh):
    rows = sorted(sh.entries.items())
    return {
        "arity": sh.arity,
        "order": sh.order,
        "basepoint": list(sh.basepoint),
        "entries": [list(cell) + [v] for cell, v in rows],
    }


def _symbols_in_range(xs, length, k):
    return (isinstance(xs, list) and len(xs) == length
            and all(type(x) is int and 0 <= x < k for x in xs))


def shell_from_json_obj(obj):
    """Shell from its JSON object.

    arity and order must be integers >= 1; the basepoint lists arity
    coordinates and each entry arity coordinates plus a value, all JSON
    integers in 0..order-1.  Anything else raises AnalysisError.
    """
    if not isinstance(obj, dict):
        raise AnalysisError("shell JSON must be an object")
    try:
        n, k = obj["arity"], obj["order"]
        base, rows = obj["basepoint"], obj["entries"]
    except KeyError as e:
        raise AnalysisError("shell JSON misses field %s" % e)
    if type(n) is not int or type(k) is not int or n < 1 or k < 1:
        raise AnalysisError("shell arity and order must be integers >= 1")
    if not _symbols_in_range(base, n, k):
        raise AnalysisError(
            "basepoint must list %d integers in 0..%d" % (n, k - 1))
    if not isinstance(rows, list):
        raise AnalysisError("shell entries must be a list")
    entries = {}
    for row in rows:
        if not _symbols_in_range(row, n + 1, k):
            raise AnalysisError(
                "shell entry %r must list %d coordinates + value, integers "
                "in 0..%d" % (row, n, k - 1))
        entries[tuple(row[:n])] = row[n]
    return Shell(n, k, tuple(base), entries)
