"""Switching sets: the minimal components of a symbol pair, their flips,
and the disjoint switching families behind the growth bounds.

find_components and switch_component give the parts and flip one;
`nqg components` lists the parts, and its --switch i reads part i from
the block labels (_labelled) and flips it one first-axis block at a time
(_flip), building no parts; the flipped values are validated
(_flipped) once the labels are dropped.
build_family5 and build_family_k build the families that `nqg census`
certifies at order 5 and at odd orders prime to 3.  Only core is
imported, so neither path compiles analysis or constructions, which
re-export these names.
"""

import itertools
import operator
import sys

from .core import (AnalysisError, ConstructionError, QTable, _axis_chunks,
                   _ints_below, _Record, check_cell_budget, from_rows,
                   inverse_along, iterate, superpose, validate)

# The order-5 fixture Q52, {0,1}-closed, that constructions.fixture serves.
_Q52 = QTable(2, 5, bytes((0, 1, 2, 3, 4,
                           1, 0, 3, 4, 2,
                           2, 4, 0, 1, 3,
                           3, 2, 4, 0, 1,
                           4, 3, 1, 2, 0)))


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


# memoryview formats of native unsigned fields, by width in bytes
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(count):
    """Bytes per field of the labels 0..count-1."""
    return 1 if count < 256 else 2 if count < 65536 else 4


def _relabel(labels, w, new, width):
    """w-byte native labels mapped through the sequence new, as width-byte
    native fields.  Byte i of each output field is one plane: a translate
    of 1-byte labels or a C-level map of wider ones, so no label is held
    as a Python int."""
    if w == width == 1:
        return labels.translate(bytes(new).ljust(256, b"\0"))
    out = bytearray(width * (len(labels) // w))
    cells = memoryview(labels).cast(_FORMATS[w])
    for i in range(width):
        plane = bytes([x >> 8 * i & 255 for x in new])
        out[i if sys.byteorder == "little" else width - 1 - i::width] = (
            labels.translate(plane.ljust(256, b"\0")) if w == 1
            else bytes(map(plane.__getitem__, cells)))
    return out


def _block(pat, k, memo=None):
    """(count, labels): the parts of a block of k^m contiguous cells, those
    sharing their first n-m coordinates, joined by the block's own lines.

    They depend only on the block's a/b pattern pat (1 at a, 2 at b, 0
    elsewhere), so memo keeps one answer per distinct pattern.  The top
    call (no memo) starts one, takes its own sub-blocks as views of pat
    rather than copies, and empties the memo once they are solved, since
    only their labels are read after that.  Parts are numbered by first
    cell; labels holds each cell's part in _width(count)-byte fields,
    some part at cells outside the pair.  A line (m = 1) is one part.
    Otherwise the parts of the k sub-blocks, each shifted past those of
    the sub-blocks before it, are joined by the block's first-axis lines.
    A Latin line holds one a and one b, so the labels of every line's
    a-cell, and of its b-cell, are the sums over the sub-blocks of their
    labels masked to a, and to b: big-integer passes over whole
    sub-blocks.  The union-find sees only the distinct (a, b) label
    pairs.  A merged part starts at the first cell of its smallest label,
    so parts renumbered in order of their smallest labels stay numbered
    by first cell.
    """
    size = len(pat) // k
    if size == 1:
        return 1, bytes(k)
    top = memo is None
    if top:
        memo, pat = {}, memoryview(pat)
    got = memo.get(pat)
    if got is not None:
        return got
    subs = [pat[i:i + size] if top else bytes(pat[i:i + size])
            for i in range(0, len(pat), size)]
    kids = [_block(sub, k, memo) for sub in subs]
    if top:
        memo.clear()
    *starts, total = itertools.accumulate((c for c, _ in kids), initial=0)
    w = _width(total)
    full = 256 ** w - 1
    # each line's a-cell label, then its b-cell label: full fields mask
    # the shifted labels to the sub-block's a-cells, then to its b-cells
    ends = [0, 0]
    for sub, (c, labels), start in zip(subs, kids, starts):
        shifted = int.from_bytes(_relabel(labels, _width(c),
                                          range(start, start + c), w),
                                 sys.byteorder)
        for j, mask in enumerate(((0, full), (0, 0, full))):
            ends[j] += shifted & int.from_bytes(
                _relabel(bytes(sub), 1, mask, w), sys.byteorder)
    pairs = bytearray(2 * w * size)
    view = memoryview(pairs).cast(_FORMATS[w])
    for j, end in enumerate(ends):
        view[j::2] = memoryview(end.to_bytes(w * size, sys.byteorder)).cast(
            _FORMATS[w])
    parent = list(range(total))
    for pair in set(memoryview(pairs).cast(_FORMATS[2 * w])):
        # path halving; the smaller root wins
        x, y = pair >> 8 * w, pair & full
        while x != (r := parent[x]):
            parent[x] = x = parent[r]
        while y != (r := parent[y]):
            parent[y] = y = parent[r]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    # parent[g] <= g, so one step from a flattened parent finds the root
    new = [0] * total
    count = 0
    for g in range(total):
        r = parent[g] = parent[parent[g]]
        if r == g:
            new[g] = count
            count += 1
        else:
            new[g] = new[r]
    width = _width(count)
    out = bytearray(width * len(pat))
    for j, ((c, labels), start) in enumerate(zip(kids, starts)):
        out[j * width * size:(j + 1) * width * size] = _relabel(
            labels, _width(c), new[start:start + c], width)
    memo[pat] = count, out
    return count, out


def _labelled(q, a, b):
    """(pat, count, labels) of the pair {a, b} of q: its a/b pattern and
    the whole table's block (_block), after the pair check and the
    non-Latin refusal that every path to the parts shares."""
    k = q.order
    if a == b or not _ints_below((a, b), k):
        raise AnalysisError("component pair %r is not two distinct symbols "
                            "in 0..%d" % ((a, b), k - 1))
    if not validate(q).ok:
        raise AnalysisError("table is not Latin; components are undefined")
    pair = bytearray(256)
    pair[a], pair[b] = 1, 2
    pat = q.values.obj.translate(pair)
    return (pat, *_block(pat, k))


def find_components(q, a, b):
    """Minimal ab-switching components of q, as a partition of the ab-cells.

    Every axis line holds exactly one a-cell and one b-cell; those two must
    flip together, so components are the connected parts of the cell graph
    with one edge per line.  Each part flips to a valid table and no proper
    nonempty subset of a part does.  Sorted by smallest cell index.

    A non-Latin table has no such graph and raises AnalysisError; the
    check is validate's one-hot sums.  The parts come from the whole
    table's block (_block), divided along the first axis down to lines and
    solved once per distinct a/b pattern: the tables built here are
    superpositions and isotopes of iterates, whose blocks repeat a few
    patterns.  One C-level pass then appends every ab-cell's uint32
    index, in index order, to its part, so each part comes out sorted and
    the parts in order of their smallest cells.
    """
    pat, count, labels = _labelled(q, a, b)
    parts = [bytearray() for _ in range(count)]
    # bytearray.extend returns None, so any() runs the whole map
    any(map(bytearray.extend, map(parts.__getitem__, itertools.compress(
        memoryview(labels).cast(_FORMATS[_width(count)]), pat)),
        map(int.to_bytes, itertools.compress(range(len(pat)), pat),
            itertools.repeat(4), itertools.repeat(sys.byteorder))))
    return [Component(memoryview(part).cast("I"), q.arity, q.order, (a, b))
            for part in parts]


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
    return _flipped(q, vals)


def _flipped(q, vals):
    """The table of q's shape holding vals, refused unless it is Latin."""
    t = QTable(q.arity, q.order, vals)
    if not validate(t).ok:
        raise AnalysisError("not a component: the flip breaks the Latin property")
    return t


def _flip(q, a, b, labelled, i):
    """The values of switch_component(q, find_components(q, a, b)[i]), as
    bytes, from labelled = _labelled(q, a, b), building no part; the
    caller validates them (_flipped).

    One first-axis block of k^(n-1) cells at a time: the block's a/b
    cells (from pat) whose label matches i in every byte plane, one
    translate per plane to 1 at i's byte, form a mask, and a ^ b times
    the mask is XORed into the block's values as one big integer.
    Blocks without a cell of part i are q's own bytes.
    """
    pat, count, labels = labelled
    w = _width(count)
    size = len(pat) // q.order
    blocks = []
    for lo in range(0, len(pat), size):
        hi = lo + size
        mask = int.from_bytes(pat[lo:hi].translate(
            bytes(0 < v < 3 for v in range(256))), "little")
        # byte j of each native w-byte label against byte j of i
        for j, byte in enumerate(i.to_bytes(w, sys.byteorder)):
            mask &= int.from_bytes(labels[lo * w + j:hi * w:w].translate(
                bytes(v == byte for v in range(256))), "little")
        block = q.values[lo:hi]
        blocks.append((int.from_bytes(block, "little") ^ (a ^ b) * mask)
                      .to_bytes(size, "little") if mask else block)
    return b"".join(blocks)


# ---------------------------------------------------------------------------
# counting families

class CountingFamily(_Record):
    """A base table plus pairwise disjoint switching sets.

    Flipping the sets independently yields 2**claimed_log2 distinct
    quasigroups.
    """

    __slots__ = ("base", "components", "claimed_log2")

    def __init__(self, base, components, claimed_log2):
        _Record.__init__(self, base, components, claimed_log2)


# Cells of the two 01-switching sets of the order-5 fixture.
_D0 = ((0, 0), (0, 1), (1, 0), (1, 1))
_D1 = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 2), (4, 4))


def build_family5(n):
    """Disjoint 01-switching sets on an order-5 table of arity n >= 2.

    The base is a superposition of squared copies of the order-5 fixture;
    each 3-ary block carries three disjoint sets (T0, T1, T2) and each
    2-ary block two (D0, D1).  Their per-block products are switching sets
    of the whole table, giving 3^m, 4*3^(m-1), or 2*3^m of them according
    to n mod 3.
    """
    if n < 2:
        raise ConstructionError("need arity >= 2")
    check_cell_budget(n, 5, ConstructionError)
    q2 = iterate(_Q52, 2)

    # the arity as blocks of 3 (squared table) and 2 (plain table): a
    # remainder of 1 trades one 3 for two 2s, a remainder of 2 adds a 2
    m, rem = divmod(n, 3)
    blocks = [3] * (m - (rem == 1)) + [2] * (-rem % 3)
    tables = {2: _Q52, 3: q2}
    if len(blocks) == 1:
        base = tables[blocks[0]]
    else:
        base = iterate(_Q52, len(blocks) - 1)
        for pos in range(len(blocks), 0, -1):
            base = superpose(base, pos, tables[blocks[pos - 1]])

    # sorted flat indices in each block's 5^b cube; a concatenated cell
    # sits at idx_prefix * 5^b + idx_block, so products stay sorted
    d_sets = [sorted(5 * x + y for x, y in d) for d in (_D0, _D1)]
    t01 = [[25 * x0 + i for x0 in (0, 1) for i in d] for d in d_sets]
    taken = set(t01[0] + t01[1])
    low = [i for i, v in enumerate(q2.values) if v < 2 and i not in taken]
    t_sets = (t01[0], t01[1], low)

    options = [d_sets if b == 2 else t_sets for b in blocks]
    comps = []
    for combo in itertools.product(*options):
        idxs = [0]
        for b, part in zip(blocks, combo):
            idxs = [acc * 5 ** b + i for acc in idxs for i in part]
        comps.append(Component(idxs, n, 5, (0, 1)))
    return CountingFamily(base, tuple(comps), len(comps))


def build_ptq(k):
    """Binary quasigroup of odd order k >= 7 (k not divisible by 3) whose
    2x2 blocks {2j,2j+1} x {2i,2i+1} carry consecutive value pairs.

    Rows 2j are translations by 3j; rows 2j+1 apply the permutation pi
    first; the next floor(k/3) rows use tau; the final one (k = 1 mod 3)
    or two (k = 2 mod 3) rows follow fixed tail patterns.  The result is
    always validated: a Latin failure means the pattern does not extend to
    this k and is reported, never returned.
    """
    if k < 7 or k % 2 == 0 or k % 3 == 0:
        raise ConstructionError(
            "order must be odd, >= 7, and not divisible by 3; got %d" % k)
    check_cell_budget(2, k, ConstructionError)
    t = k // 3

    pi = list(range(k))
    for m2 in range(0, k - 4, 2):  # transpositions (2m, 2m+1) while 2m <= k-5
        pi[m2], pi[m2 + 1] = pi[m2 + 1], pi[m2]
    pi[k - 3], pi[k - 2], pi[k - 1] = k - 2, k - 1, k - 3

    tau = list(range(k))
    tau[0] = k - 1
    for m2 in range(1, k - 3, 2):  # transpositions (2m+1, 2m+2) while 2m+2 <= k-3
        tau[m2], tau[m2 + 1] = tau[m2 + 1], tau[m2]
    tau[k - 2] = 0
    tau[k - 1] = k - 2

    rows = [[0] * k for _ in range(k)]
    for j in range(t):
        for i in range(k):
            rows[2 * j][i] = (i + 3 * j) % k
            rows[2 * j + 1][i] = (pi[i] + 3 * j) % k
    for j in range(t):
        for i in range(k):
            rows[2 * t + j][i] = (tau[i] + 3 * j) % k
    if k % 3 == 2:
        for i in range(k - 2):
            rows[k - 2][i] = (i - 3) % k
        rows[k - 2][k - 2] = k - 4
        rows[k - 2][k - 1] = k - 5
    for i in range(k - 2):
        rows[k - 1][i] = (i - 2) % k
    rows[k - 1][k - 2] = k - 3
    rows[k - 1][k - 1] = k - 4

    table = from_rows(rows)
    rep = validate(table)
    if not rep.ok:
        raise ConstructionError(
            "row pattern does not close into a Latin square at k=%d "
            "(first bad line: axis %d at %r)"
            % (k, rep.violations[0].axis, rep.violations[0].fixed))
    return table


def build_family_k(n, k):
    """Disjoint switching sets on an order-k table, k >= 7 odd, 3 not | k.

    The binary base g is the axis-1 inverse of build_ptq(k); it has
    floor(k/2) components for each value pair {2j,2j+1} (the square ones are
    known in closed form, the leftover one is discovered).  Each component
    lifts through every extra argument by prefixing a two-element row set,
    for floor(k/2)*floor(k/3)^(n-1) pairwise disjoint sets in total.
    """
    if n < 2:
        raise ConstructionError("need arity >= 2")
    check_cell_budget(n, k, ConstructionError)
    g = inverse_along(build_ptq(k), 1)
    npairs = k // 3

    level = []  # (pair index j, sorted flat indices in a k^2 table)
    for j in range(npairs):
        found = [comp.indices.tolist()
                 for comp in find_components(g, 2 * j, 2 * j + 1)]
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

    # prefixing row p to a cell of a k^m table puts it at p * k^m + idx
    for m in range(2, n):
        lifted = []
        for j1 in range(npairs):
            for j2, idxs in level:
                prefix = sorted(((2 * j2 + 3 * j1) % k,
                                 (2 * j2 + 3 * j1 + 1) % k))
                lifted.append(
                    (j1, [p * k ** m + i for p in prefix for i in idxs]))
        level = lifted

    comps = tuple(Component(idxs, n, k, (2 * j, 2 * j + 1))
                  for j, idxs in level)
    want = (k // 2) * npairs ** (n - 1)
    if len(comps) != want:
        raise ConstructionError("component count %d, want %d" % (len(comps), want))
    return CountingFamily(iterate(g, n - 1), comps, len(comps))
