"""Decision procedures over quasigroup tables.

Reducibility testing, subquasigroup search, switching-component detection,
and shell extraction/reconstruction.  Everything here is a pure function of
immutable inputs.
"""

import itertools

from .core import (Cell, QTable, StructuralError, _axis_chunks, _offsets,
                   _Record, retract, validate)

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

    entries maps a coordinate tuple to its symbol, totally over the cells
    having x_i = basepoint_i in at least one position i.
    """

    __slots__ = ("arity", "order", "basepoint", "entries")

    def __init__(self, arity, order, basepoint, entries):
        _Record.__init__(self, arity, order, basepoint, entries)


def _coord_tuples(indices, n, k):
    """Coordinate tuples of flat row-major indices of a k^n table, in the
    order given; each is a high half plus a low half from two short
    tables."""
    m = k ** (n // 2)
    high = list(itertools.product(range(k), repeat=n - n // 2))
    low = list(itertools.product(range(k), repeat=n // 2))
    return [high[i // m] + low[i % m] for i in indices]


class Component:
    """A switching set: cells valued in {a,b} whose a<->b flip stays Latin.

    Components returned by find_components are additionally inclusion-minimal;
    constructed families may carry larger (non-minimal) switching sets.

    Built by hand as Component(cells, pair), with cells a frozenset of
    Cell and pair the two symbols {a, b}.  find_components instead keeps
    the sorted flat row-major indices of its cells in a table of the
    given shape (indices, a read-only uint32 memoryview) and builds the
    Cell frozenset only when a caller reads .cells.  Both forms of the
    same part compare equal.
    """

    __slots__ = ("pair", "shape", "_data", "_cells")

    def __init__(self, cells, pair):
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "shape", None)  # (arity, order) if indexed
        object.__setattr__(self, "_data", None)
        object.__setattr__(self, "_cells", cells)

    @classmethod
    def from_indices(cls, indices, arity, order, pair):
        """Component of a table of the given shape from the sorted flat
        indices of its cells (any uint32 buffer)."""
        comp = cls(None, pair)
        object.__setattr__(comp, "shape", (arity, order))
        object.__setattr__(comp, "_data", bytes(indices))
        return comp

    def __setattr__(self, name, value):
        raise AttributeError("Component is immutable")

    @property
    def indices(self):
        """Sorted flat indices of the cells, or None for a hand-built
        component."""
        if self._data is None:
            return None
        return memoryview(self._data).cast("I")

    @property
    def cells(self):
        """The cells as a frozenset of Cell, built on first read."""
        if self._cells is None:
            n, k = self.shape
            object.__setattr__(self, "_cells", frozenset(
                Cell(x) for x in _coord_tuples(self.indices, n, k)))
        return self._cells

    def coords(self):
        """Coordinate tuples of the cells in row-major (coordinate) order."""
        if self._data is None:
            return sorted(c.coords for c in self._cells)
        return _coord_tuples(self.indices, *self.shape)

    def sorted_cells(self):
        return [Cell(x) for x in self.coords()]

    def __len__(self):
        if self._data is None:
            return len(self._cells)
        return len(self._data) // 4

    def __eq__(self, other):
        if not isinstance(other, Component):
            return NotImplemented
        if self.pair != other.pair:
            return False
        if self._data is not None and self.shape == other.shape:
            return self._data == other._data
        return self.cells == other.cells

    def __hash__(self):
        return hash((len(self), self.pair))

    def __repr__(self):
        return "Component(cells=%r, pair=%r)" % (self.cells, self.pair)


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


def is_reducible_wrt(q, split, return_witness=False):
    """Test whether q decomposes as h(g(inside axes), remaining axes).

    The criterion: the level-set partition of the map (S-tuple -> value)
    must be identical for every fixing of the complement axes C, i.e. on
    every row.  That partition (the fibers of the inner map) is the
    witness, labeled by first appearance on the row C = 0.  Any table is
    decided, Latin or not, in two steps of the reducibility module, on
    one typed_values copy of its values:

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
    from .reducibility import reduction_witness, typed_values

    S = _checked_axes(split, q.arity)
    witness = reduction_witness(typed_values(q), q.arity, q.order, S)
    if return_witness:
        return witness is not None, witness
    return witness is not None


def find_reductions(q):
    """All splits under which q is reducible, sorted by axis bitmask.

    Empty result means q is permutably irreducible.  Exhausts all
    2^n - n - 2 admissible axis subsets, on one typed_values copy of
    q.values.
    """
    from .reducibility import reduction_witness, typed_values

    n = q.arity
    if n < 3:
        raise AnalysisError("reducibility is defined for arity >= 3")
    vals = typed_values(q)
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
    for x, v in zip(q.cells(), q.values):
        if any(c == o for c, o in zip(x, base)):
            entries[x] = v
    return Shell(n, k, base, entries)


def _check_basepoint(sh):
    """Refuse a hand-built shell whose basepoint does not list arity
    coordinates in 0..order-1 (shell_from_json_obj never builds one)."""
    n, k, base = sh.arity, sh.order, sh.basepoint
    if not (isinstance(base, (tuple, list))
            and _symbols_in_range(list(base), n, k)):
        raise AnalysisError(
            "basepoint must list %d integers in 0..%d" % (n, k - 1))


def _shell_read(sh, free):
    """Shell values over the cells whose 1-based axis i ranges over
    free[i], every other axis at the basepoint, in itertools.product
    order.  A missing cell raises KeyError naming it."""
    base, ent = sh.basepoint, sh.entries
    return [ent[x] for x in itertools.product(
        *[free.get(i, (base[i - 1],)) for i in range(1, len(base) + 1)])]


def _shell_planes(sh):
    """The shell's retracts through its basepoint (_shell_retracts) when
    it lists exactly the cells touching the basepoint, else None: a
    partial or padded shell, whose entries are checked one by one."""
    n, k = sh.arity, sh.order
    if len(sh.entries) != k ** n - (k - 1) ** n:
        return None
    try:
        return _shell_retracts(sh)
    except ReconstructionError:
        return None


def reconstruct_with_split(sh, split, probe=None):
    """Assemble the full table from a shell, assuming reducibility over split.

    With S the split, C its complement, p the probe axis (default min(S)),
    and all omitted coordinates at the basepoint, the shell determines
    g0 over the S-axes, h0 over (p, C-axes), and the unary d(x) = value at
    x in the probe slot alone.  The table is h0(d^-1(g0(x_S)), x_C).
    The result must validate and agree with the shell, else the split is
    inconsistent with the shell; agreement is checked hyperplane by
    hyperplane, and only a disagreement scans the entries to name the
    first disagreeing cell.
    """
    return _assemble(sh, split, probe, _shell_planes(sh))


def _assemble(sh, split, probe, planes):
    """reconstruct_with_split, given the shell's _shell_planes."""
    n, k = sh.arity, sh.order
    S = _checked_axes(split, n)
    _check_basepoint(sh)
    if probe is None:
        probe = S[0]
    if probe not in S:
        raise AnalysisError("probe axis %r is not in the split" % (probe,))
    sset = set(S)
    C = [i for i in range(1, n + 1) if i not in sset]
    ent = sh.entries
    every = range(k)

    try:
        delta = _shell_read(sh, {probe: every})
        g0 = _shell_read(sh, dict.fromkeys(S, every))
        # one row over the C-tuples per probe value
        h0 = [_shell_read(sh, {probe: (xp,), **dict.fromkeys(C, every)})
              for xp in every]
    except KeyError as e:
        raise ReconstructionError("shell is missing required entry %s" % e)

    if sorted(delta) != list(every):
        raise ReconstructionError(
            "split inconsistent with shell: probe retract is not a permutation")
    dinv = [0] * k
    for x, v in enumerate(delta):
        dinv[v] = x

    # the cell with S-part s and C-part c sits at s_off[s] + c_off[c]
    vals = [None] * k ** n
    c_offs = _offsets(n, k, C)
    for s_off, g in zip(_offsets(n, k, S), g0):
        for c_off, v in zip(c_offs, h0[dinv[g]]):
            vals[s_off + c_off] = v
    t = QTable(n, k, tuple(vals))

    if not validate(t).ok:
        raise ReconstructionError(
            "split inconsistent with shell: assembled table is not Latin")
    # the cells touching the basepoint are the n hyperplanes x_i = o_i, so
    # t agrees with a full shell when its retracts through the basepoint
    # (gathered through flat offsets) equal the shell's
    if planes is None or not all(
            retract(t, {i: o}).values == plane.values
            for i, (o, plane) in enumerate(zip(sh.basepoint, planes), 1)):
        for cell, v in ent.items():
            if t.values[t.index(cell)] != v:
                raise ReconstructionError(
                    "split inconsistent with shell: assembled table disagrees "
                    "at %r" % (cell,))
    return t


def _shell_retracts(sh):
    """The n retracts of the shell's table through its basepoint.

    Retract i fixes axis i at basepoint_i; its axes are the others in
    order.  Every cell read touches the basepoint, so the shell holds it.
    """
    n, k = sh.arity, sh.order
    retracts = []
    try:
        for i in range(1, n + 1):
            free = dict.fromkeys((j for j in range(1, n + 1) if j != i),
                                 range(k))
            retracts.append(QTable(n - 1, k, tuple(_shell_read(sh, free))))
    except KeyError as e:
        raise ReconstructionError("shell is missing required entry %s" % e)
    return retracts


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
    RECONSTRUCT_BUDGET are refused before any split, and so are shells
    whose basepoint is not arity coordinates in 0..order-1.
    """
    n, k = sh.arity, sh.order
    if n < 3:
        raise AnalysisError("reconstruction needs arity >= 3")
    _check_basepoint(sh)
    # 2^n - n - 2 >= 2^(n-2) for n >= 3: past the budget's bit length the
    # splits alone exceed it, and 2^n is never formed
    if (n - 2 > RECONSTRUCT_BUDGET.bit_length()
            or (2 ** n - n - 2) * k ** n > RECONSTRUCT_BUDGET):
        raise AnalysisError(
            "reconstruction at arity %d, order %d tries 2^%d - %d splits of "
            "%d^%d cells each, over the %d-cell budget"
            % (n, k, n, n + 2, k, n, RECONSTRUCT_BUDGET))
    planes = _shell_planes(sh)
    retracts = planes if planes is not None else _shell_retracts(sh)
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
                t = _assemble(sh, split, None, planes)
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


def _hit_positions(vals, k, hits, sym, bases, slices):
    """Position j of sym on each line of an _axis_chunks chunk, in bases
    order.  On Latin lines the 0/1 hit flags hold one 1 per line, so the
    j-weighted sum of the k slices puts j in that line's byte."""
    if k > 256:
        return [line.index(sym) for line in zip(*[vals[sl] for sl in slices])]
    pos = sum(j * int.from_bytes(hits[sl], "little")
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
    lines, and so of their smallest cells.  A counting pass sizes each
    part, and a second scan by line writes every part's flat cell indices,
    already sorted, into one uint32 buffer; each Component keeps its slice
    and builds no Cell until .cells is read.
    """
    n, k = q.arity, q.order
    if k < 2:
        raise AnalysisError("components need order >= 2")
    if a == b:
        raise AnalysisError("component pair must be two distinct symbols")
    for s in (a, b):
        if not isinstance(s, int) or not 0 <= s < k:
            raise AnalysisError("symbol %r out of range 0..%d" % (s, k - 1))
    try:
        latin = validate(q).ok
    except StructuralError:
        latin = False
    if not latin:
        raise AnalysisError("table is not Latin; components are undefined")

    vals = q.values
    if k <= 256:
        raw = bytes(vals)
        hits_a = raw.translate(bytes(a) + b"\x01" + bytes(255 - a))
        hits_b = raw.translate(bytes(b) + b"\x01" + bytes(255 - b))
    else:
        hits_a = hits_b = None
    lines = k ** (n - 1)
    # the last axis: one chunk, its lines in order
    (bases, slices), = _axis_chunks(n, k, n - 1)
    last_a = _hit_positions(vals, k, hits_a, a, bases, slices)
    last_b = _hit_positions(vals, k, hits_b, b, bases, slices)

    parent = memoryview(bytearray(4 * lines)).cast("I")
    for i in range(lines):
        parent[i] = i
    for ax in range(n - 1):
        stride = k ** (n - 1 - ax)
        for bases, slices in _axis_chunks(n, k, ax):
            pos_a = _hit_positions(vals, k, hits_a, a, bases, slices)
            pos_b = _hit_positions(vals, k, hits_b, b, bases, slices)
            for base, i, j in zip(bases, pos_a, pos_b):
                x = (base + i * stride) // k
                while True:
                    r = parent[x]
                    if r == x:
                        break
                    g = parent[r]
                    parent[x] = g
                    x = g
                y = (base + j * stride) // k
                while True:
                    r = parent[y]
                    if r == y:
                        break
                    g = parent[r]
                    parent[y] = g
                    y = g
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y

    # parent[i] <= i throughout, so one step from an already flattened
    # parent finds the root; a root is met before the rest of its part
    fill = memoryview(bytearray(4 * lines)).cast("I")
    roots = []
    for i in range(lines):
        r = parent[i] = parent[parent[i]]
        if r == i:
            roots.append(i)
        fill[r] += 2
    # every part's cells, two per line, in one buffer; fill[r] becomes the
    # next free slot of root r's span
    spans = []
    start = 0
    for r in roots:
        end = start + fill[r]
        spans.append((start, end))
        fill[r] = start
        start = end
    cells = memoryview(bytearray(4 * start)).cast("I")
    for i, (j, l) in enumerate(zip(last_a, last_b)):
        r = parent[i]
        p = fill[r]
        fill[r] = p + 2
        x = i * k
        if j < l:
            cells[p] = x + j
            cells[p + 1] = x + l
        else:
            cells[p] = x + l
            cells[p + 1] = x + j
    pair = frozenset((a, b))
    return [Component.from_indices(cells[s:e], n, k, pair) for s, e in spans]


def switch_component(q, comp):
    """Swap the component's two symbols on its cells; re-verifies on the way.

    Checks that every cell is valued in the pair and that the flipped table
    is Latin, so a set that is not actually a switching set of q is refused.
    A component of a table of q's shape flips by its flat indices; only a
    cell outside the pair sends it to the Cell scan, which names the first
    such cell in the order of comp.cells, or the first that is not q.arity
    coordinates in 0..q.order-1 (a hand-built part, or another shape's).
    """
    pair = sorted(comp.pair)
    if len(pair) != 2:
        raise AnalysisError("component pair must hold two symbols")
    a, b = pair
    if not len(comp):
        raise AnalysisError("empty component")
    if comp.shape == (q.arity, q.order):
        vals = list(q.values)
        for idx in comp.indices:
            v = vals[idx]
            if v != a and v != b:
                break
            vals[idx] = a + b - v
        else:
            return _flipped(q, vals)
    vals = list(q.values)
    for cell in comp.cells:
        if not _symbols_in_range(list(cell.coords), q.arity, q.order):
            raise AnalysisError(
                "not a component of this table: cell %r is not %d "
                "coordinates in 0..%d" % (cell.coords, q.arity, q.order - 1))
        idx = q.index(cell.coords)
        v = vals[idx]
        if v != a and v != b:
            raise AnalysisError(
                "not a component of this table: cell %r holds %d, not in {%d,%d}"
                % (cell.coords, v, a, b))
        vals[idx] = a + b - v
    return _flipped(q, vals)


def _flipped(q, vals):
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
    integers in 0..order-1.  The entries must list every cell touching the
    basepoint once and no other cell.  Anything else raises AnalysisError.
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
    base = tuple(base)
    entries = {}
    for row in rows:
        if not _symbols_in_range(row, n + 1, k):
            raise AnalysisError(
                "shell entry %r must list %d coordinates + value, integers "
                "in 0..%d" % (row, n, k - 1))
        cell = tuple(row[:n])
        if cell in entries:
            raise AnalysisError("shell lists cell %r twice" % (cell,))
        if not any(c == o for c, o in zip(cell, base)):
            raise AnalysisError(
                "shell cell %r has no coordinate at the basepoint" % (cell,))
        entries[cell] = row[n]
    # the cells touching the basepoint number k^n - (k-1)^n >= k^(n-1),
    # at least 2^(n-1) for k >= 2: test bit lengths so k^n is never formed
    # for a huge arity
    count = len(entries)
    if (k > 1 and n - 1 >= count.bit_length()) or k ** n - (k - 1) ** n != count:
        raise AnalysisError(
            "shell of arity %d, order %d has %d entries, not k^n - (k-1)^n"
            % (n, k, count))
    return Shell(n, k, base, entries)
