"""Dense value tables for n-ary quasigroups and the operations that combine them.

A table of arity n and order k stores all k**n values flat, row-major with
coordinate 1 most significant: index(x_1..x_n) = sum x_i * k**(n-i).
Symbols are always 0..k-1.

The table file formats live in tableio, the block products OmegaMap,
omega_product and direct_product in latin, and retract and
restrict_to_symbols in analysis.  core still answers to from_json,
to_json, to_json_obj, OmegaMap and omega_product, loading their module
on first use (_forward), for the benchmark harness that reads them here.
"""

import importlib
import itertools


class StructuralError(ValueError):
    """Malformed table data: wrong length, out-of-range symbol, bad axis."""


# Here rather than in analysis and constructions, so that families, which
# raises both, loads neither.
class AnalysisError(ValueError):
    """Bad arguments to an analysis procedure."""


class ConstructionError(ValueError):
    """A builder was asked for parameters it cannot serve."""


def _forward(module, homes):
    """A module __getattr__ (PEP 562) for module that reads each name of
    homes, a dict from a sibling module to the names it answers for, from
    that module on first use, so that the alias costs no import."""
    home_of = {name: home for home, names in homes.items()
               for name in names.split()}

    def __getattr__(name):
        if name not in home_of:
            raise AttributeError("module %r has no attribute %r"
                                 % (module, name))
        return getattr(importlib.import_module(
            "." + home_of[name], module.rpartition(".")[0]), name)
    return __getattr__


__getattr__ = _forward(__name__, {"latin": "OmegaMap omega_product",
                                  "tableio": "from_json to_json to_json_obj"})


# The most cells a builder or a block product allocates: 4^11, and 5^9 with
# room to spare.  check_cell_budget refuses larger tables up front.
BUILD_CELL_BUDGET = 1 << 22


def _power_over(n, k, cells):
    """k^n > cells, for ints n >= 0 and k >= 1.  For k >= 2, k^n >= 2^n,
    so an arity past the bit length of cells decides without forming k^n."""
    return (k > 1 and n > cells.bit_length()) or k ** n > cells


def check_cell_budget(n, k, error):
    """Raise error (a ValueError class, so the CLI exits 1) when a table
    of arity n and order k holds more than BUILD_CELL_BUDGET cells, before
    anything is allocated (see _power_over)."""
    if _power_over(n, k, BUILD_CELL_BUDGET):
        raise error(
            "a table of arity %d and order %d holds %d^%d cells, over the "
            "%d-cell build budget" % (n, k, k, n, BUILD_CELL_BUDGET))


# The most symbols a table holds: one byte per cell.
MAX_ORDER = 256

# digit d as the symbol d (tableio._TO_DIGITS maps back): the stored
# tables and the compact readers spell their values this way
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def _ints_below(xs, k, low=0):
    """True when every x is an int, not a bool, in low..k-1."""
    return all(type(x) is int and low <= x < k for x in xs)


class _Record:
    """Immutable record whose fields are its class's __slots__, in order.

    Equality (same class and fields), hash, repr and the AttributeError on
    assignment are those of a frozen dataclass; the dataclasses module
    itself is not loaded, to keep nqg's start-up short.  A subclass's
    __init__ validates and passes every field to _Record.__init__.
    """

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % field for field in zip(self.__slots__, self._fields())))

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class QTable(_Record):
    """Value hypercube of an n-ary operation on {0..k-1}, k <= MAX_ORDER.

    Immutable, and checked at construction: StructuralError refuses an
    arity or order that is not an int >= 1, an order past MAX_ORDER, a
    value count other than k^n, and a symbol that is not an int in
    0..k-1; bools are refused throughout.  The Latin property is left to
    validate(), so that tables breaking it can exist as values to be
    reported on.  values is a read-only memoryview (format B) of
    values.obj, a bytes; ==, hash and repr read it as a tuple of ints.
    """

    __slots__ = ("arity", "order", "values")

    def __init__(self, arity, order, values):
        if type(arity) is not int or arity < 1:
            raise StructuralError("arity must be an integer >= 1")
        if type(order) is not int or order < 1:
            raise StructuralError("order must be an integer >= 1")
        if order > MAX_ORDER:
            raise StructuralError("order %d is over %d, the most symbols a "
                                  "table holds" % (order, MAX_ORDER))
        if isinstance(values, (bytes, bytearray)):
            data = bytes(values)
        else:
            values = values if isinstance(values, (tuple, list)) else list(values)
            data = None
        count = len(values)
        if _power_over(arity, order, count) or order ** arity != count:
            raise StructuralError(
                "%d values do not fill a table of order %d and arity %d"
                % (count, order, arity))
        if (data is None and set(map(type, values)) <= {int}
                and 0 <= min(values) and max(values) < order):
            data = bytes(values)
        # C-level passes first; the scan only names the first bad symbol
        if data is None or data.translate(None, bytes(range(order))):
            bad = next(v for v in values
                       if type(v) is not int or not 0 <= v < order)
            raise StructuralError("symbol %r out of range 0..%d"
                                  % (bad, order - 1))
        # set directly: tables are built by the thousand
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", memoryview(data))

    def _fields(self):
        return self.arity, self.order, tuple(self.values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.arity == other.arity and self.order == other.order
                and self.values.obj == other.values.obj)

    __hash__ = _Record.__hash__

    def __reduce__(self):
        return QTable, (self.arity, self.order, self.values.obj)

    def index(self, coords):
        """Flat index of a coordinate tuple; coordinate 1 most significant."""
        idx = 0
        for c in coords:
            idx = idx * self.order + c
        return idx

    def coords(self, idx):
        """Inverse of index()."""
        out = [0] * self.arity
        for pos in range(self.arity - 1, -1, -1):
            idx, out[pos] = divmod(idx, self.order)
        return tuple(out)

    def cells(self):
        """All coordinate tuples in index order."""
        return itertools.product(range(self.order), repeat=self.arity)

    def rows(self):
        """Nested list view, binary tables only."""
        if self.arity != 2:
            raise StructuralError("rows() is defined for binary tables")
        k = self.order
        return [self.values[i * k:(i + 1) * k].tolist() for i in range(k)]


class LineViolation(_Record):
    __slots__ = ("axis",    # 1-based
                 "fixed")   # length n, None at the free axis

    def __init__(self, axis, fixed):
        _Record.__init__(self, axis, fixed)


class ValidationReport(_Record):
    __slots__ = ("ok", "violations")

    def __init__(self, ok, violations=()):
        _Record.__init__(self, ok, violations)


def _axis_chunks(n, k, ax):
    """Cover the lines along 0-based axis ax with k aligned slices each.

    Yields (bases, slices): bases lists the first cells of some lines,
    and slices[j] picks from a flat row-major sequence the cell
    base + j * stride of each of them, in bases order.  When the k**ax
    blocks are no more than the stride the slices are the k contiguous
    rows of one block, otherwise the k strided columns through one offset;
    either way an axis takes at most k**((n - 1) // 2) chunks.
    """
    size = k ** n
    stride = k ** (n - 1 - ax)
    block = stride * k
    if k ** ax <= stride:
        for top in range(0, size, block):
            yield (range(top, top + stride),
                   [slice(top + j * stride, top + (j + 1) * stride)
                    for j in range(k)])
    else:
        for lo in range(stride):
            yield (range(lo, size, block),
                   [slice(lo + j * stride, size, block) for j in range(k)])


def _offsets(n, k, axes, symbols=None):
    """Flat offsets of all assignments to the given 1-based axes.

    Each listed axis ranges over symbols (default 0..k-1), in
    itertools.product order over the axes as listed, the last varying
    fastest; the cells of a k**n cube with every other axis at 0.
    """
    steps = range(k) if symbols is None else symbols
    offs = [0]
    for a in axes:
        w = k ** (n - a)
        offs = [o + c * w for o in offs for c in steps]
    return offs


def _one_hot_width(k):
    """Bytes per one-hot field such that k fields of 1 << (k-1) add up
    without a carry, or None past 8."""
    for w in (1, 2, 4, 8):
        if k << (k - 1) < 1 << (8 * w):
            return w
    return None


def _one_hot_latin(t, w):
    """Latin verdict from whole-axis sums of w-byte one-hot fields (see
    validate)."""
    k, n = t.order, t.arity
    raw = t.values.obj
    # byte i of 1 << v, as a translation table over v: 1-byte fields are
    # the one plane, wider ones interleave the planes in a bytearray (a
    # stepped slice of it is a plain C loop, unlike a memoryview's)
    planes = (raw.translate(bytes(8 * i) + b"\x01\x02\x04\x08\x10\x20\x40\x80"
                            + bytes(248 - 8 * i)) for i in range(w))
    fields = next(planes) if w == 1 else bytearray(w * len(raw))
    for i, plane in enumerate(planes):  # none left when w == 1
        fields[i::w] = plane
    if w > 1:
        fields = memoryview(fields).cast({2: "H", 4: "I", 8: "Q"}[w])
    full = ((1 << k) - 1).to_bytes(w, "little")
    targets = {}
    for ax in range(n):
        for bases, slices in _axis_chunks(n, k, ax):
            total = sum(int.from_bytes(fields[sl], "little") for sl in slices)
            count = len(bases)
            if count not in targets:
                targets[count] = int.from_bytes(full * count, "little")
            if total != targets[count]:
                return False
    return True


def validate(t):
    """Check the Latin property on every axis line.

    Returns a ValidationReport listing all violated lines (first entry is
    the first offending axis in scan order).  Structural problems, wrong
    length or out-of-range symbols, are refused by the QTable constructor
    instead: they are not Latin violations.

    The verdict comes from one-hot sums over whole axes.  Cell value v
    becomes the field 1 << v, w bytes wide.  A line is Latin exactly when
    its k fields add up to 2^k - 1: distinct values give each bit once,
    and k powers of two that sum to a number with k one bits must be
    distinct, since merging a repeated pair would write it with fewer
    than k.  The width leaves room for k * 2^(k-1), so fields never carry
    into each other, and one big-integer sum of k slices of the flat
    fields (_axis_chunks) checks many lines at once.  Only a failing
    table, or an order too large for 8-byte fields, is scanned line by
    line, by axis and first cell, to list its violations.
    """
    k, n = t.order, t.arity
    w = _one_hot_width(k)
    if w is not None and _one_hot_latin(t, w):
        return ValidationReport(True)
    vals = t.values
    violations = []
    for ax in range(n):
        bad = []
        for bases, slices in _axis_chunks(n, k, ax):
            lines = zip(*[vals[sl] for sl in slices])
            bad.extend(b for b, line in zip(bases, lines)
                       if len(set(line)) != k)
        for base in sorted(bad):
            fixed = list(t.coords(base))
            fixed[ax] = None
            violations.append(LineViolation(ax + 1, tuple(fixed)))
    return ValidationReport(not violations, tuple(violations))


def is_valid(t):
    return validate(t).ok


def evaluate(t, coords):
    """Value of t at a cell, given as a tuple of coordinates."""
    coords = tuple(coords)
    if len(coords) != t.arity:
        raise StructuralError(
            "cell has %d coordinates, table arity is %d" % (len(coords), t.arity))
    for c in coords:
        if not _ints_below((c,), t.order):
            raise StructuralError("coordinate %r out of range 0..%d"
                                  % (c, t.order - 1))
    return t.values[t.index(coords)]


def from_function(arity, order, fn):
    """Materialize fn over all coordinate tuples into a QTable."""
    vals = [fn(*x) for x in itertools.product(range(order), repeat=arity)]
    return QTable(arity, order, vals)


def from_rows(rows):
    """Binary QTable from a nested list, row = first argument."""
    k = len(rows)
    flat = []
    for row in rows:
        if len(row) != k:
            raise StructuralError("rows of a binary table must have length %d" % k)
        flat.extend(row)
    return QTable(2, k, flat)


def inverse_along(t, i):
    """Invert t in its i-th argument (1-based).

    The result t' satisfies t'(.., z at i, ..) = x_i whenever t(.., x_i, ..) = z.
    Requires t to be Latin along axis i; raises StructuralError otherwise.
    """
    n, k = t.arity, t.order
    if not _ints_below((i,), n + 1, 1):
        raise StructuralError("axis %r out of range 1..%d" % (i, n))
    stride = k ** (n - i)
    out = [None] * len(t.values)
    for idx, z in enumerate(t.values):
        xi = (idx // stride) % k
        out[idx + (z - xi) * stride] = xi
    if None in out:
        raise StructuralError("table is not Latin along axis %d" % i)
    return QTable(n, k, bytes(out))


def superpose(outer, position, inner):
    """Plug inner into argument slot `position` (1-based) of outer.

    The slot expands in place, so the result's axes are outer's axes with
    axis `position` replaced by all of inner's axes.  A result of more
    than BUILD_CELL_BUDGET cells is refused before anything is allocated.
    """
    if outer.order != inner.order:
        raise StructuralError(
            "order mismatch: %d vs %d" % (outer.order, inner.order))
    if not _ints_below((position,), outer.arity + 1, 1):
        raise StructuralError(
            "position %r out of range 1..%d" % (position, outer.arity))
    check_cell_budget(outer.arity + inner.arity - 1, outer.order,
                      StructuralError)
    k = outer.order
    post = k ** (outer.arity - position)
    src, inner_vals = outer.values.obj, inner.values.obj
    size = len(inner_vals) * post
    vals = bytearray(k ** (position - 1) * size)
    # the result's cell (pre, x, j), x an inner cell, holds outer's cell
    # (pre, inner(x), j): inner's values translated by the column of the
    # outer block of pre that j selects
    for pre in range(k ** (position - 1)):
        block = src[pre * k * post:(pre + 1) * k * post]
        for j in range(post):
            vals[pre * size + j:(pre + 1) * size:post] = inner_vals.translate(
                block[j::post].ljust(256, b"\0"))
    return QTable(outer.arity + inner.arity - 1, k, vals)


def iterate(q, m):
    """Right-nested m-fold self-superposition of a binary table, arity m+1.

    A result of more than BUILD_CELL_BUDGET cells is refused before the
    first superposition.
    """
    if q.arity != 2:
        raise StructuralError("iterate needs a binary table")
    if type(m) is not int or m < 1:
        raise StructuralError("iterate needs an integer m >= 1")
    check_cell_budget(m + 1, q.order, StructuralError)
    t = q
    for _ in range(m - 1):
        t = superpose(q, 2, t)
    return t
