"""Dense value tables for n-ary quasigroups and the operations that combine them.

A table of arity n and order k stores all k**n values flat, row-major with
coordinate 1 most significant: index(x_1..x_n) = sum x_i * k**(n-i).
Symbols are always 0..k-1.
"""

import itertools
import json


class StructuralError(ValueError):
    """Malformed table data: wrong length, out-of-range symbol, bad axis."""


# The most cells a builder or omega_product allocates: 4^11, and 5^9 with
# room to spare.  check_cell_budget refuses larger tables up front.
BUILD_CELL_BUDGET = 1 << 22


def check_cell_budget(n, k, error):
    """Raise error (a ValueError class, so the CLI exits 1) when a table
    of arity n and order k holds more than BUILD_CELL_BUDGET cells.

    Runs before anything is allocated.  For k >= 2, k^n >= 2^n, so an
    arity past the budget's bit length is refused without forming k^n.
    """
    if k > 1 and (n > BUILD_CELL_BUDGET.bit_length()
                  or k ** n > BUILD_CELL_BUDGET):
        raise error(
            "a table of arity %d and order %d holds %d^%d cells, over the "
            "%d-cell build budget" % (n, k, k, n, BUILD_CELL_BUDGET))


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
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class QTable(_Record):
    """Value hypercube of an n-ary operation on {0..k-1}.

    Immutable after construction.  Construction only normalizes; the Latin
    property and even symbol ranges are checked by validate(), so that
    broken tables can exist as values to be reported on.
    """

    __slots__ = ("arity", "order", "values")

    def __init__(self, arity, order, values):
        if not isinstance(arity, int) or arity < 1:
            raise StructuralError("arity must be an integer >= 1")
        if not isinstance(order, int) or order < 1:
            raise StructuralError("order must be an integer >= 1")
        # set directly: tables are built by the thousand
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", values if isinstance(values, tuple)
                           else tuple(values))

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
        return [list(self.values[i * k:(i + 1) * k]) for i in range(k)]


class Cell(_Record):
    """A coordinate tuple into some table."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        _Record.__init__(self, coords if isinstance(coords, tuple)
                         else tuple(coords))


class OmegaMap(_Record):
    """Assignment of one inner table of order s to every outer cell.

    assignment maps each tuple in {0..r-1}**n to a QTable of arity n and
    order s.  Used by omega_product to build tables of order r*s.
    """

    __slots__ = ("outer_order", "inner_order", "arity", "assignment")

    def __init__(self, outer_order, inner_order, arity, assignment):
        _Record.__init__(self, outer_order, inner_order, arity, assignment)

    def blocks(self):
        """The inner tables in index order of the outer cells, checked."""
        r, s, n = self.outer_order, self.inner_order, self.arity
        for y in itertools.product(range(r), repeat=n):
            t = self.assignment.get(y)
            if t is None:
                raise StructuralError("omega map misses block %r" % (y,))
            if t.arity != n or t.order != s:
                raise StructuralError(
                    "omega block %r has shape (%d,%d), want (%d,%d)"
                    % (y, t.arity, t.order, n, s))
            yield t


class LineViolation(_Record):
    __slots__ = ("axis",    # 1-based
                 "fixed")   # length n, None at the free axis

    def __init__(self, axis, fixed):
        _Record.__init__(self, axis, fixed)


class ValidationReport(_Record):
    __slots__ = ("ok", "violations")

    def __init__(self, ok, violations=()):
        _Record.__init__(self, ok, violations)


def _check_structure(t):
    k, n = t.order, t.arity
    vals = t.values
    if len(vals) != k ** n:
        raise StructuralError(
            "values length %d, want %d" % (len(vals), k ** n))
    # C-level passes first; the per-value loop only names the first bad one
    if all(issubclass(tp, int) for tp in set(map(type, vals))):
        distinct = set(vals)
        if 0 <= min(distinct) and max(distinct) < k:
            return
    for v in vals:
        if not isinstance(v, int) or not 0 <= v < k:
            raise StructuralError("symbol %r out of range 0..%d" % (v, k - 1))


def _lines_through(n, k, idx):
    """Yield (base_index, stride) of the n axis lines through a flat index.

    Axes in order; the line along an axis holds the cells
    base_index + j * stride for j in 0..k-1.
    """
    block = k ** n
    for _ in range(n):
        stride = block // k
        yield idx - idx % block + idx % stride, stride
        block = stride


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
    raw = bytes(t.values)
    buf = bytearray(w * len(raw))
    for i in range(w):
        # byte i of 1 << v, as a translation table over v
        buf[i::w] = raw.translate(
            bytes(8 * i) + b"\x01\x02\x04\x08\x10\x20\x40\x80"
            + bytes(248 - 8 * i))
    # slicing a bytearray with a step is a plain C loop, much faster than
    # copying a strided memoryview
    fields = buf if w == 1 else memoryview(buf).cast(
        {2: "H", 4: "I", 8: "Q"}[w])
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
    length or out-of-range symbols, raise StructuralError instead: they are
    not Latin violations.

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
    _check_structure(t)
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


def evaluate(t, x):
    """Value of t at cell x (a Cell or a plain coordinate tuple)."""
    coords = x.coords if isinstance(x, Cell) else tuple(x)
    if len(coords) != t.arity:
        raise StructuralError(
            "cell has %d coordinates, table arity is %d" % (len(coords), t.arity))
    for c in coords:
        if not isinstance(c, int) or not 0 <= c < t.order:
            raise StructuralError("coordinate %r out of range 0..%d" % (c, t.order - 1))
    return t.values[t.index(coords)]


def from_function(arity, order, fn):
    """Materialize fn over all coordinate tuples into a QTable."""
    vals = [fn(*x) for x in itertools.product(range(order), repeat=arity)]
    return QTable(arity, order, tuple(vals))


def from_rows(rows):
    """Binary QTable from a nested list, row = first argument."""
    k = len(rows)
    flat = []
    for row in rows:
        if len(row) != k:
            raise StructuralError("rows of a binary table must have length %d" % k)
        flat.extend(row)
    return QTable(2, k, tuple(flat))


def inverse_along(t, i):
    """Invert t in its i-th argument (1-based).

    The result t' satisfies t'(.., z at i, ..) = x_i whenever t(.., x_i, ..) = z.
    Requires t to be Latin along axis i; raises StructuralError otherwise.
    """
    n, k = t.arity, t.order
    if not 1 <= i <= n:
        raise StructuralError("axis %r out of range 1..%d" % (i, n))
    ax = i - 1
    stride = k ** (n - 1 - ax)
    out = [None] * len(t.values)
    for idx, z in enumerate(t.values):
        xi = (idx // stride) % k
        out[idx + (z - xi) * stride] = xi
    if any(v is None for v in out):
        raise StructuralError("table is not Latin along axis %d" % i)
    return QTable(n, k, tuple(out))


def retract(t, fixed):
    """Fix some arguments to constants; fixed maps 1-based axis to symbol."""
    n, k = t.arity, t.order
    for ax, sym in fixed.items():
        if not 1 <= ax <= n:
            raise StructuralError("axis %r out of range 1..%d" % (ax, n))
        if not 0 <= sym < k:
            raise StructuralError("symbol %r out of range 0..%d" % (sym, k - 1))
    free = [ax for ax in range(1, n + 1) if ax not in fixed]
    if not free:
        raise StructuralError("retract must leave at least one axis free")
    base = sum(sym * k ** (n - ax) for ax, sym in fixed.items())
    vals = [t.values[base + o] for o in _offsets(n, k, free)]
    return QTable(len(free), k, tuple(vals))


def superpose(outer, position, inner):
    """Plug inner into argument slot `position` (1-based) of outer.

    The slot expands in place, so the result's axes are outer's axes with
    axis `position` replaced by all of inner's axes.
    """
    if outer.order != inner.order:
        raise StructuralError(
            "order mismatch: %d vs %d" % (outer.order, inner.order))
    if not 1 <= position <= outer.arity:
        raise StructuralError(
            "position %r out of range 1..%d" % (position, outer.arity))
    k = outer.order
    n_out = outer.arity
    post = k ** (n_out - position)
    vals = []
    outer_vals, inner_vals = outer.values, inner.values
    for pre in range(k ** (position - 1)):
        pre_base = pre * k
        for v in inner_vals:
            base = (pre_base + v) * post
            vals.extend(outer_vals[base:base + post])
    return QTable(n_out + inner.arity - 1, k, tuple(vals))


def iterate(q, m):
    """Right-nested m-fold self-superposition of a binary table, arity m+1."""
    if q.arity != 2:
        raise StructuralError("iterate needs a binary table")
    if m < 1:
        raise StructuralError("iterate needs m >= 1")
    t = q
    for _ in range(m - 1):
        t = superpose(q, 2, t)
    return t


def _block_product(g, s, blocks):
    """Order r*s table holding g(y) * s + block_y(x) at the cell y*s + x
    (coordinatewise); blocks lists the order-s block_y for the cells y of
    g in index order, and is drawn only once the budget is checked."""
    n, kk = g.arity, g.order * s
    check_cell_budget(n, kk, StructuralError)
    axes = range(1, n + 1)
    cells = _offsets(n, kk, axes, range(s))
    vals = [0] * kk ** n
    # strict: a table whose values do not fill its shape raises ValueError
    for corner, top, block in zip(_offsets(n, kk, axes, range(0, kk, s)),
                                  g.values, blocks, strict=True):
        top *= s
        for c, v in zip(cells, block.values, strict=True):
            vals[corner + c] = top + v
    return QTable(n, kk, tuple(vals))


def direct_product(g, q):
    """Componentwise product; symbol pairs (a, b) encode as a*q.order + b."""
    if g.arity != q.arity:
        raise StructuralError("arity mismatch: %d vs %d" % (g.arity, q.arity))
    return _block_product(g, q.order, itertools.repeat(q, len(g.values)))


def omega_product(g, om):
    """Block product of order r*s from an order-r skeleton g.

    f(z) = g(floor(z/s)) * s + om<floor(z/s)>(z mod s), coordinatewise.
    Distinct assignments om give distinct results.
    """
    if not isinstance(om, OmegaMap):
        raise StructuralError("second argument must be an OmegaMap")
    if om.outer_order != g.order or om.arity != g.arity:
        raise StructuralError("omega map does not match the outer table")
    return _block_product(g, om.inner_order, om.blocks())


def restrict_to_symbols(t, omega):
    """Restriction of t to a symbol subset, relabeled to 0..len(omega)-1.

    Raises StructuralError if omega is not a nonempty subset of
    0..order-1, or if t maps omega**n outside omega (not closed).
    """
    omega = tuple(sorted(set(omega)))
    if not omega or not 0 <= omega[0] <= omega[-1] < t.order:
        raise StructuralError("omega must be a nonempty subset of 0..%d"
                              % (t.order - 1))
    pos = {sym: i for i, sym in enumerate(omega)}
    n = t.arity
    vals = []
    for off in _offsets(n, t.order, range(1, n + 1), omega):
        v = t.values[off]
        if v not in pos:
            raise StructuralError("table is not closed on %r: value %d at %r"
                                  % (omega, v, t.coords(off)))
        vals.append(pos[v])
    return QTable(n, len(omega), tuple(vals))


# ---------------------------------------------------------------------------
# file formats

def to_json_obj(t):
    return {"arity": t.arity, "order": t.order, "values": list(t.values)}


def from_json_obj(obj):
    """Table from its JSON object.

    arity, order and every value must be JSON integers, not floats or
    booleans, and there must be order**arity values; anything else raises
    StructuralError.  Symbol ranges are left to validate().
    """
    if not isinstance(obj, dict):
        raise StructuralError("table JSON must be an object")
    try:
        arity, order, values = obj["arity"], obj["order"], obj["values"]
    except KeyError as e:
        raise StructuralError("table JSON misses field %s" % e)
    if type(arity) is not int or type(order) is not int:
        raise StructuralError("arity and order must be integers")
    if not isinstance(values, list):
        raise StructuralError("values must be a list")
    if not set(map(type, values)) <= {int}:
        raise StructuralError("values must be integers")
    t = QTable(arity, order, tuple(values))
    count = len(values)
    # order**arity > count whenever order >= 2 and 2**arity > count; the
    # test keeps a huge arity from ever reaching the power
    if (order > 1 and arity >= count.bit_length()) or order ** arity != count:
        raise StructuralError(
            "%d values do not fill a table of order %d and arity %d"
            % (count, order, arity))
    return t


def to_json(t):
    return json.dumps(to_json_obj(t))


def from_json(s):
    try:
        obj = json.loads(s)
    except (json.JSONDecodeError, RecursionError) as e:
        raise StructuralError("bad table JSON: %s" % e)
    return from_json_obj(obj)


def to_text(t):
    """k lines of k space-separated integers; binary tables only."""
    if t.arity != 2:
        raise StructuralError("text format covers binary tables only")
    return "\n".join(" ".join(str(v) for v in row) for row in t.rows()) + "\n"


def from_text(s):
    lines = [ln for ln in s.splitlines() if ln.strip()]
    k = len(lines)
    if k == 0:
        raise StructuralError("empty text table")
    rows = []
    for ln in lines:
        try:
            row = [int(w) for w in ln.split()]
        except ValueError:
            raise StructuralError("non-integer entry in text table")
        if len(row) != k:
            raise StructuralError(
                "text table is not square: %d lines, row of %d" % (k, len(row)))
        rows.append(row)
    return from_rows(rows)
