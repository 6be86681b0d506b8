"""The switching families behind the growth bounds: switching sets
(Component) and the disjoint families of them that `nqg census` certifies
at order 5 (build_family5) and at odd orders prime to 3 (build_family_k,
on build_ptq's base), which `nqg construct` also builds.  None of them
loads switching's search: build_family_k reads its binary base's parts
off the a/b cycles of a Latin square (_cycles).
"""

import itertools
import operator

from .core import (_FROM_DIGITS, AnalysisError, ConstructionError, QTable,
                   _ints_below, _Record, check_cell_budget, from_rows,
                   inverse_along, iterate, superpose, validate)

# The order-5 fixture Q52, {0,1}-closed, that constructions.fixture serves,
# as the digits of its rows.
_Q52 = QTable(2, 5, b"0123410342240133240143120".translate(_FROM_DIGITS))


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




class CountingFamily(_Record):
    """A base table plus pairwise disjoint switching sets, whose
    independent flips yield 2**claimed_log2 distinct quasigroups."""

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

    # pi swaps 2m and 2m+1 below k-3 and cycles the last three; tau
    # swaps 2m+1 and 2m+2 below k-2, then maps 0, k-2, k-1 to k-1, 0, k-2
    pi = [m ^ 1 for m in range(k - 3)] + [k - 2, k - 1, k - 3]
    tau = [k - 1] + [((m - 1) ^ 1) + 1 for m in range(1, k - 2)] + [0, k - 2]
    rows = [[(x + 3 * j) % k for x in perm]
            for j in range(t) for perm in (range(k), pi)]
    rows += [[(x + 3 * j) % k for x in tau] for j in range(t)]
    if k % 3 == 2:
        rows.append([(i - 3) % k for i in range(k - 2)] + [k - 4, k - 5])
    rows.append([(i - 2) % k for i in range(k - 2)] + [k - 3, k - 4])

    table = from_rows(rows)
    rep = validate(table)
    if not rep.ok:
        raise ConstructionError(
            "row pattern does not close into a Latin square at k=%d "
            "(first bad line: axis %d at %r)"
            % (k, rep.violations[0].axis, rep.violations[0].fixed))
    return table


def _cycles(g, a, b):
    """switching.find_components(g, a, b) of the Latin square g, as sorted
    flat indices, without its search.  Every row and column holds one a
    and one b, so the a/b cells form disjoint cycles alternating rows and
    columns, each one part.  From the lowest unvisited row the walk takes
    the row's two cells, then the row whose a sits in the column of this
    row's b, until the cycle closes; a part's smallest cell is in the row
    its walk starts from, so the parts come out in order of it."""
    k, raw = g.order, g.values.obj
    col_a = [raw.index(a, r * k, r * k + k) - r * k for r in range(k)]
    col_b = [raw.index(b, r * k, r * k + k) - r * k for r in range(k)]
    row_a = [0] * k
    for r, c in enumerate(col_a):
        row_a[c] = r
    seen = bytearray(k)
    parts = []
    for start in range(k):
        part, r = [], start
        while not seen[r]:
            seen[r] = 1
            part += (r * k + col_a[r], r * k + col_b[r])
            r = row_a[col_b[r]]
        if part:
            parts.append(sorted(part))
    return parts


def build_family_k(n, k):
    """Disjoint switching sets on an order-k table, k >= 7 odd, 3 not | k.

    The binary base g is the axis-1 inverse of build_ptq(k); it has
    floor(k/2) components for each value pair {2j,2j+1} (_cycles finds
    them; the square ones, known in closed form, are checked).  Each
    component lifts through every extra argument by prefixing a
    two-element row set, for floor(k/2)*floor(k/3)^(n-1) pairwise
    disjoint sets in total.
    """
    if n < 2:
        raise ConstructionError("need arity >= 2")
    check_cell_budget(n, k, ConstructionError)
    g = inverse_along(build_ptq(k), 1)
    npairs = k // 3

    level = []  # (pair index j, sorted flat indices in a k^2 table)
    for j in range(npairs):
        found = _cycles(g, 2 * j, 2 * j + 1)
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
