"""Decision procedures over quasigroup tables.

Reducibility testing, subquasigroup search, switching-component detection,
and shell extraction/reconstruction.  Everything here is a pure function of
immutable inputs.
"""

import itertools
import operator
import sys

from .core import (QTable, _axis_chunks, _ints_below, _offsets, _Record,
                   check_cell_budget, retract, validate)

# reconstruct assembles k^n cells for every split its retract tests leave,
# at worst all of them: refuse shells whose splits times cells exceed this
# (4^8 and 5^7 still fit)
RECONSTRUCT_BUDGET = 1 << 24


class AnalysisError(ValueError):
    """Bad arguments to an analysis procedure."""


class ReconstructionError(AnalysisError):
    """Shell cannot be assembled into a table under the requested split."""


class Split(_Record):
    """A candidate decomposition: the set of axes grouped under the inner map.

    A table q of arity n is reducible with respect to inside=S when
    q(x) = h(g(x restricted to S), x restricted to the complement) for some
    quasigroups h, g.  Requires 2 <= |S| <= n-1.
    """

    __slots__ = ("inside",)

    def __init__(self, inside):
        if not isinstance(inside, frozenset):
            inside = frozenset(inside)
        _Record.__init__(self, inside)

    @property
    def axes(self):
        return tuple(sorted(self.inside))

    def bitmask(self):
        return sum(1 << (i - 1) for i in self.inside)


class Shell(_Record):
    """Values of a table on all cells touching a basepoint.

    entries maps each cell having x_i = basepoint_i for some i, and no
    other, to its symbol.  AnalysisError refuses anything else, and an
    arity or order that is not an integer >= 1, a basepoint that is not
    arity integers in 0..order-1, a value outside 0..order-1, or a cell
    key that is not a tuple of arity ints (a float or bool coordinate
    equal to an int included).  The n hyperplanes x_i = basepoint_i hold
    exactly the cells touching it, so with k^n - (k-1)^n entries, all of
    them found, there is no other.  The shell keeps its own copy of
    entries, which must not be mutated.
    """

    __slots__ = ("arity", "order", "basepoint", "entries")

    def __init__(self, arity, order, basepoint, entries):
        n, k = arity, order
        if type(n) is not int or type(k) is not int or n < 1 or k < 1:
            raise AnalysisError("shell arity and order must be integers >= 1")
        if not (isinstance(basepoint, (tuple, list)) and len(basepoint) == n
                and _ints_below(basepoint, k)):
            raise AnalysisError(
                "basepoint must list %d integers in 0..%d" % (n, k - 1))
        # the cells touching the basepoint number k^n - (k-1)^n >= k^(n-1),
        # at least 2^(n-1) for k >= 2: test bit lengths so k^n is never
        # formed for a huge arity
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
            if None in map(entries.get, _hyperplane(basepoint, k, i)):
                missing = next(x for x in _hyperplane(basepoint, k, i)
                               if x not in entries)
                raise AnalysisError(
                    "shell misses cell %r, which touches the basepoint"
                    % (missing,))
        # every key equals a cell found above: only its types can differ
        if not set(map(type, itertools.chain.from_iterable(entries))) <= {int}:
            bad = next(x for x in entries if not _ints_below(x, k))
            raise AnalysisError(
                "shell cell %r is not a tuple of %d integers" % (bad, n))
        _Record.__init__(self, n, k, basepoint, entries)


def _hyperplane(base, k, i):
    """The cells with x_i = base_i, in itertools.product order."""
    return itertools.product(
        *[(o,) if j == i else range(k) for j, o in enumerate(base, 1)])


def _coord_tuples(indices, n, k):
    """Coordinate tuples of flat row-major indices of a k^n table, in the
    order given; each is a high half plus a low half from two short
    tables."""
    m = k ** (n // 2)
    high = list(itertools.product(range(k), repeat=n - n // 2))
    low = list(itertools.product(range(k), repeat=n // 2))
    return [high[i // m] + low[i % m] for i in indices]


class Component(_Record):
    """A switching set: cells valued in {a,b} whose a<->b flip stays Latin.

    Components returned by find_components are additionally inclusion-minimal;
    constructed families may carry larger (non-minimal) switching sets.

    Component(indices, arity, order, pair) is a part of a table of shape
    (arity, order), kept as its pair {a, b} and the sorted flat row-major
    indices of its cells, given as a uint32 buffer or a sequence of ints.
    AnalysisError refuses an arity or order that is not an int >= 1, a
    pair that is not two distinct symbols in 0..order-1, an empty part,
    an index that is not an int in 0..2^32-1, and indices unsorted,
    repeated or past order^arity.
    """

    __slots__ = ("pair", "shape", "_data")

    def __init__(self, indices, arity, order, pair):
        if not (type(arity) is int and type(order) is int
                and arity >= 1 and order >= 1):
            raise AnalysisError("component arity and order must be "
                                "integers >= 1")
        symbols = frozenset(pair)
        if len(symbols) != 2 or not _ints_below(symbols, order):
            raise AnalysisError("component pair %r is not two distinct symbols "
                                "in 0..%d" % (pair, order - 1))
        if not len(indices):
            raise AnalysisError("empty component")
        if getattr(indices, "format", None) != "I":
            if not _ints_below(indices, 1 << 32):
                bad = next(i for i in indices if not _ints_below((i,), 1 << 32))
                raise AnalysisError("component index %r is not an integer "
                                    "in 0..2^32-1" % (bad,))
            buf = memoryview(bytearray(4 * len(indices))).cast("I")
            for j, i in enumerate(indices):
                buf[j] = i
            indices = buf
        # order^32 >= 2^32 passes every uint32 when order >= 2
        if not (all(map(operator.lt, indices, indices[1:]))
                and indices[-1] < order ** min(arity, 32)):
            raise AnalysisError(
                "component indices must be sorted, distinct and below %d^%d"
                % (order, arity))
        _Record.__init__(self, symbols, (arity, order), bytes(indices))

    @property
    def indices(self):
        """Sorted flat indices of the cells."""
        return memoryview(self._data).cast("I")

    def coords(self):
        """Coordinate tuples of the cells in row-major (coordinate) order."""
        return _coord_tuples(self.indices, *self.shape)

    def __len__(self):
        return len(self._data) // 4

    def __reduce__(self):
        return Component, (self.indices.tolist(), *self.shape,
                           sorted(self.pair))

    def __repr__(self):
        return "Component(%r, %d, %d, %r)" % (
            self.indices.tolist(), *self.shape, sorted(self.pair))


def _checked_axes(split, n):
    if not isinstance(split, Split):
        split = Split(frozenset(split))
    if not _ints_below(split.inside, n + 1, 1):
        raise AnalysisError("split axes must lie in 1..%d" % n)
    S = split.axes
    if not 2 <= len(S) <= n - 1:
        raise AnalysisError(
            "split must group between 2 and %d axes, got %d" % (n - 1, len(S)))
    return S


def is_reducible_wrt(q, split, return_witness=False):
    """Test whether q decomposes as h(g(inside axes), remaining axes).

    The criterion: the level-set partition of the map (S-tuple -> value)
    must be identical for every fixing of the complement axes C, i.e. on
    every row.  That partition (the fibers of the inner map) is the
    witness, labeled by first appearance on the row C = 0.  Any table is
    decided, Latin or not, in two steps of the reducibility module, on
    the bytes of its values:

    (a) A necessary condition, _boxes_agree: on the k x k boxes of
        S-tuples that vary (S[0], S[-1]) and (S[-2], S[-1]), the other
        S axes at 0, each row reached from C = 0 by changing one C axis
        has the box's partition on the row C = 0.  A reduction's
        partition is common to all rows, and so is its restriction to a
        box: no reducible split fails (a), and most others fail it
        within a row or two.
    (b) The exact check, _s_major_witness, only on splits that pass (a).
        In the S-major copy each S-tuple owns the column of its values
        over the C-tuples.  Let the representative of a class be its
        first S-tuple on the row C = 0.  q is reducible exactly when
        (1) every column equals its representative's, and (2) the
        representatives' columns differ at every C position.  (1) keeps
        every class together on every row and (2) keeps classes apart,
        so every row has the partition of the row C = 0; conversely a
        reduction's classes are that partition, so (1) and (2) hold.

    The criterion passes to retracts, which reconstruct uses to prune.
    Fixing an axis outside S only drops rows, so the retract is reducible
    over S (when |S| <= n-2 leaves it admissible there).  Fixing an axis
    i in S keeps the S-tuples with that value of x_i in every row, and the
    common partition restricted to them is common again: the retract is
    reducible over S minus i (when |S| >= 3).
    """
    # imported here: commands that test no reducibility skip compiling it
    from .reducibility import reduction_witness

    S = _checked_axes(split, q.arity)
    witness = reduction_witness(q.values.obj, q.arity, q.order, S)
    if return_witness:
        return witness is not None, witness
    return witness is not None


def find_reductions(q):
    """All splits under which q is reducible, sorted by axis bitmask.

    Empty result means q is permutably irreducible.  Exhausts all
    2^n - n - 2 admissible axis subsets.
    """
    from .reducibility import reduction_witness

    n = q.arity
    if n < 3:
        raise AnalysisError("reducibility is defined for arity >= 3")
    vals = q.values.obj
    found = []
    for size in range(2, n):
        for S in itertools.combinations(range(1, n + 1), size):
            if reduction_witness(vals, n, q.order, S) is not None:
                found.append(Split(frozenset(S)))
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
            if all(vals[o] in inside
                   for o in _offsets(n, k, range(1, n + 1), omega)):
                out.append(omega)
    return out


def extract_shell(q, basepoint):
    """Restrict q to the cells having some coordinate at the basepoint.

    The result has exactly k^n - (k-1)^n entries; the Shell constructor
    refuses a bad basepoint and out-of-range values.
    """
    n, k = q.arity, q.order
    base = tuple(basepoint)
    # the cells that miss the basepoint on each of the n axes
    away = set(itertools.product(*[[c for c in range(k) if c != o]
                                   for o in base[:n]]))
    entries = {x: v for x, v in zip(q.cells(), q.values) if x not in away}
    return Shell(n, k, base, entries)


def _shell_read(sh, free):
    """Shell values over the cells whose 1-based axis i ranges over
    free[i], every other axis at the basepoint, in itertools.product
    order."""
    base, ent = sh.basepoint, sh.entries
    return [ent[x] for x in itertools.product(
        *[free.get(i, (base[i - 1],)) for i in range(1, len(base) + 1)])]


def reconstruct_with_split(sh, split):
    """Assemble the full table from a shell, assuming reducibility over split.

    With S the split, C its complement, p = min(S), and all omitted
    coordinates at the basepoint, the shell determines g0 over the S-axes,
    h0 over (p, C-axes), and the unary d(x) = value at x in axis p alone.
    The table is h0(d^-1(g0(x_S)), x_C).  Any other axis of S would give
    the same table: a Latin table that agrees with the shell is reducible
    over S, and the shell fixes it.
    The result must validate and agree with the shell, else the split is
    inconsistent with the shell; agreement is checked hyperplane by
    hyperplane, and only a disagreement scans the entries to name the
    first disagreeing cell.  A table of more than BUILD_CELL_BUDGET cells
    is refused before the shell is read.
    """
    check_cell_budget(sh.arity, sh.order, AnalysisError)
    return _assemble(sh, _checked_axes(split, sh.arity), _shell_retracts(sh))


def _assemble(sh, S, planes):
    """reconstruct_with_split over the checked axes S, given the shell's
    _shell_retracts."""
    n, k = sh.arity, sh.order
    sset = set(S)
    C = [i for i in range(1, n + 1) if i not in sset]
    every = range(k)

    # every cell read touches the basepoint, so the shell holds it
    probe = S[0]
    delta = _shell_read(sh, {probe: every})
    g0 = _shell_read(sh, dict.fromkeys(S, every))
    # one row over the C-tuples per probe value
    h0 = [_shell_read(sh, {probe: (xp,), **dict.fromkeys(C, every)})
          for xp in every]

    if sorted(delta) != list(every):
        raise ReconstructionError(
            "split inconsistent with shell: probe retract is not a permutation")
    dinv = [0] * k
    for x, v in enumerate(delta):
        dinv[v] = x

    # the cell with S-part s and C-part c sits at s_off[s] + c_off[c]
    vals = bytearray(k ** n)
    c_offs = _offsets(n, k, C)
    for s_off, g in zip(_offsets(n, k, S), g0):
        for c_off, v in zip(c_offs, h0[dinv[g]]):
            vals[s_off + c_off] = v
    t = QTable(n, k, vals)

    if not validate(t).ok:
        raise ReconstructionError(
            "split inconsistent with shell: assembled table is not Latin")
    # the cells touching the basepoint are the n hyperplanes x_i = o_i, so
    # t agrees with the shell when its retracts through the basepoint
    # (gathered through flat offsets) equal the shell's
    if not all(retract(t, {i: o}).values == plane.values
               for i, (o, plane) in enumerate(zip(sh.basepoint, planes), 1)):
        for cell, v in sh.entries.items():
            if t.values[t.index(cell)] != v:
                raise ReconstructionError(
                    "split inconsistent with shell: assembled table disagrees "
                    "at %r" % (cell,))
    return t


def _shell_retracts(sh):
    """The n retracts of the shell's table through its basepoint.

    Retract i fixes axis i at basepoint_i; its axes are the others in
    order.
    """
    n, k, ent = sh.arity, sh.order, sh.entries
    return [QTable(n - 1, k, bytes(map(ent.__getitem__,
                                       _hyperplane(sh.basepoint, k, i))))
            for i in range(1, n + 1)]


def reconstruct(sh):
    """Recover a reducible table from its shell: the deduplicated list of
    every table that validates, matches the shell and is reducible over
    some admissible split, in split order.

    For arity >= 4 the list provably holds one table (the caller may
    insist on it); for arity 3 distinct reducible tables can share a
    shell.  Splits are pruned before any k^n assembly on the shell's own
    retracts through the basepoint.  If q(x) = h(g(x_S), x_C), fixing
    axis i keeps the level sets of the inner map: for i outside S and
    |S| <= n-2 retract i is reducible over S, and for i in S and
    |S| >= 3 it is reducible over S minus i (axes renumbered in the
    retract).  Both hold for every table is_reducible_wrt accepts, and a
    candidate's retracts are the shell's, so a split failing either test
    cannot yield a candidate; the surviving splits are assembled and
    checked in full.  Arity 3 has no such test and tries every split.
    A surviving split over which a candidate already found is reducible
    is skipped: a table reducible over S is h0(d^-1(g0(x_S)), x_C) with
    g0, h0 and d read from its own shell, so assembling S would rebuild
    that candidate.
    Shells whose 2^n - n - 2 splits times k^n cells exceed
    RECONSTRUCT_BUDGET, or whose k^n cells exceed BUILD_CELL_BUDGET, are
    refused before any split.
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
    check_cell_budget(n, k, AnalysisError)
    retracts = _shell_retracts(sh)
    verdicts = {}  # (i, split of retract i) -> is_reducible_wrt

    def survives(S):
        for i in range(1, n + 1):
            if len(S) < 3 if i in S else len(S) > n - 2:
                continue
            key = (i, tuple(a - (a > i) for a in S if a != i))
            if key not in verdicts:
                verdicts[key] = is_reducible_wrt(retracts[i - 1], key[1])
            if not verdicts[key]:
                return False
        return True

    candidates = []
    seen = set()
    for size in range(2, n):
        for S in itertools.combinations(range(1, n + 1), size):
            if not survives(S):
                continue
            split = Split(frozenset(S))
            # a candidate reducible over S agrees with the shell, so the
            # assembly over S would rebuild that same table
            if any(is_reducible_wrt(c, split) for c in candidates):
                continue
            try:
                t = _assemble(sh, S, retracts)
            except ReconstructionError:
                continue
            if not is_reducible_wrt(t, split):
                continue
            if t.values not in seen:
                seen.add(t.values)
                candidates.append(t)
    if not candidates:
        raise ReconstructionError("not reducible or shell inconsistent")
    return candidates


def _hit_positions(raw, symbol, bases, slices):
    """Position j of symbol on each line of an _axis_chunks chunk, in bases
    order.  Each slice of raw is translated to 0/1 flags "cell holds
    symbol", so no whole-table copy is made; on Latin lines the flags hold
    one 1 per line, so the j-weighted sum of the k slices puts j in that
    line's byte."""
    flags = bytes(symbol) + b"\x01" + bytes(255 - symbol)
    pos = sum(j * int.from_bytes(raw[sl].translate(flags), "little")
              for j, sl in enumerate(slices) if j)
    return pos.to_bytes(len(bases), "little")


def find_components(q, a, b):
    """Minimal ab-switching components of q, as a partition of the ab-cells.

    Every axis line holds exactly one a-cell and one b-cell; those two must
    flip together, so components are the connected parts of the cell graph
    with one edge per line.  Each part flips to a valid table and no proper
    nonempty subset of a part does.  Sorted by smallest cell index.

    A non-Latin table has no such graph and raises AnalysisError; the
    check is validate's one-hot sums.  On a Latin table the 0/1 flags
    "cell holds a" put exactly one 1 on every line, so the sum over j of
    j times the flags of a line's j-th cells is the position of its
    a-cell; the same big-integer sums validate takes, weighted by j, give
    the positions of a and of b on every line of an axis at once
    (_hit_positions).  The two ab-cells of a line along the last axis are
    joined by that line's edge, so the union-find runs over those lines,
    line number = cell index // k, and a root is the smallest line of its
    part: parts met in a scan by line come in the order of their smallest
    lines, and so of their smallest cells.  The parents are a list of
    ints, read without unpacking, and each find halves its path.  One
    last scan by line flattens the parents and appends each line's two
    cells, the smaller first, to its root's uint32 buffer, so every
    part's flat cell indices come out sorted, parts in order of roots.
    """
    n, k = q.arity, q.order
    if a == b or not _ints_below((a, b), k):
        raise AnalysisError("component pair %r is not two distinct symbols "
                            "in 0..%d" % ((a, b), k - 1))
    if not validate(q).ok:
        raise AnalysisError("table is not Latin; components are undefined")

    raw = q.values.obj
    lines = k ** (n - 1)
    parent = list(range(lines))
    for ax in range(n - 1):
        stride = k ** (n - 1 - ax)
        for bases, slices in _axis_chunks(n, k, ax):
            pos_a = _hit_positions(raw, a, bases, slices)
            pos_b = _hit_positions(raw, b, bases, slices)
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
    (bases, slices), = _axis_chunks(n, k, n - 1)
    parts = {}
    for i, j, l in zip(range(lines), _hit_positions(raw, a, bases, slices),
                       _hit_positions(raw, b, bases, slices)):
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


def switch_component(q, comp):
    """Swap the component's two symbols on its cells; re-verifies on the way.

    Refuses a part of a table of another shape than q's, a cell that
    does not hold one of the pair (naming the first in index order), and
    a flip that breaks the Latin property, so a set that is not actually
    a switching set of q is refused.
    """
    if comp.shape != (q.arity, q.order):
        raise AnalysisError(
            "not a component of this table: a part of shape %r, the table "
            "has shape %r" % (comp.shape, (q.arity, q.order)))
    a, b = sorted(comp.pair)
    vals = bytearray(q.values)
    for idx in comp.indices:
        v = vals[idx]
        if v != a and v != b:
            raise AnalysisError(
                "not a component of this table: cell %r holds %d, not in {%d,%d}"
                % (q.coords(idx), v, a, b))
        vals[idx] = a + b - v
    t = QTable(q.arity, q.order, vals)
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


def shell_from_json_obj(obj):
    """Shell from its JSON object.

    The object needs the fields arity, order, basepoint and entries, and
    every entry is a list of JSON integers, the coordinates of a cell and
    then its value, no cell listed twice; the Shell constructor checks
    the rest.  Anything else raises AnalysisError.
    """
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
    return Shell(n, k, base, entries)
