"""Switching components: the minimal parts of a symbol pair, and flips.

find_components and switch_component give the parts and flip one.  `nqg
components --switch i` reads part i from the block labels (_labelled),
XORs it into the values, written over the labels (_flip), and validates
the table once the input is dropped (_flipped): it builds no parts, and
compiles no family code, since find_components alone imports Component.
"""

import itertools
import sys

from .core import _SLICE, AnalysisError, QTable, _ints_below, validate

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


def _links(pattern, off, size, kids, starts, w):
    """The distinct (a-cell, b-cell) label pairs of the first-axis lines of
    the block at offset off as 2w-byte fields, _SLICE lines at a time (see
    _join); its sub-blocks hold size cells, and pattern(at, cells) is the
    a/b pattern of the table's cells from at on."""
    full = 256 ** w - 1
    links = set()
    for lo in range(0, size, _SLICE):
        hi, ends = min(lo + _SLICE, size), [0, 0]
        for j, ((c, labels), start) in enumerate(zip(kids, starts)):
            lw = _width(c)
            shifted = int.from_bytes(_relabel(
                labels[lo * lw:hi * lw], lw, range(start, start + c), w),
                sys.byteorder)
            sub = pattern(off + j * size + lo, hi - lo)
            for e, mask in enumerate(((0, full), (0, 0, full))):
                ends[e] += shifted & int.from_bytes(
                    _relabel(sub, 1, mask, w), sys.byteorder)
        pairs = bytearray(2 * w * (hi - lo))
        view = memoryview(pairs).cast(_FORMATS[w])
        for e, end in enumerate(ends):
            view[e::2] = memoryview(end.to_bytes(
                w * (hi - lo), sys.byteorder)).cast(_FORMATS[w])
        links.update(memoryview(pairs).cast(_FORMATS[2 * w]))
    return links


def _join(kids, pattern, off, size):
    """(count, parts) of the block at offset off from the (count, labels)
    of its k sub-blocks of size cells each (_block): parts, the list kids
    reused, holds the block's labels as one bytearray per sub-block.

    A Latin line holds one a and one b, so the labels of every
    first-axis line's a-cell, and of its b-cell, are sums over the
    sub-blocks of their labels, each shifted past those of the
    sub-blocks before it, masked to a, and to b (_links); the union-find
    sees their distinct pairs.  A merged part starts at the first cell of
    its smallest label, so parts renumbered in order of their smallest
    labels stay numbered by first cell.
    """
    *starts, total = itertools.accumulate((c for c, _ in kids), initial=0)
    w = _width(total)
    parent, shift = list(range(total)), 256 ** w
    for pair in _links(pattern, off, size, kids, starts, w):
        # path halving; the smaller root wins
        x, y = divmod(pair, shift)
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
    for j, start in enumerate(starts):
        # each sub-block's labels in a bytearray of their own, the old
        # ones freed as soon as they are renumbered
        c, labels = kids[j]
        kids[j] = _relabel(labels, _width(c), new[start:start + c], width)
    return count, kids


def _block(off, cells, k, pattern, memo, pat=None):
    """(count, labels): the parts of the block of the table's cells off to
    off + cells - 1, k^m of them, those sharing their first n-m
    coordinates, joined by the block's own lines.

    pattern(at, cells) reads the a/b pattern (1 at a, 2 at b, 0
    elsewhere) of the table's cells from at on; pat, a memoryview of the
    block's, is read so when not given.  Parts are numbered by first
    cell; labels holds each cell's part in _width(count)-byte fields,
    some part at cells outside the pair.  A line (m = 1) is one part.
    Otherwise the parts of the k sub-blocks, given views of pat, are
    joined by the block's first-axis lines (_join), which reads their
    pattern from the table, so pat is dropped first.

    The parts depend only on pat, so memo maps a block's size and its
    pattern's hash to the offset of the first block solved with them and
    that block's answer; the pattern at that offset is compared with pat
    before the answer is used, so the memo is exact.  A key taken by
    another pattern keeps its entry, and the block is solved.
    """
    if cells == k:
        return 1, bytearray(k)
    if pat is None:
        pat = memoryview(pattern(off, cells))
    key = cells, hash(pat)
    known = memo.get(key)
    if known and pattern(known[0], cells) == pat:
        return known[1]
    size = cells // k
    kids = [_block(off + i, size, k, pattern, memo, pat[i:i + size])
            for i in range(0, cells, size)]
    del pat
    count, parts = _join(kids, pattern, off, size)
    got = count, bytearray().join(parts)
    del parts
    if not known:
        memo[key] = off, got
    return got


def _labelled(q, a, b):
    """(count, parts) of the pair {a, b} of q, after the pair check and
    the non-Latin refusal that every path to the parts shares: the
    labels of _block, as k bytearrays, one per first-axis sub-block, so
    that they are never copied into one.  The parts are the join (_join)
    of the k sub-blocks (_block), solved in turn, each from its own a/b
    pattern: no table-sized pattern is made, and the join reads the
    pattern of the lines it links from q's values, _SLICE at a time."""
    k = q.order
    if a == b or not _ints_below((a, b), k):
        raise AnalysisError("component pair %r is not two distinct symbols "
                            "in 0..%d" % ((a, b), k - 1))
    if not validate(q).ok:
        raise AnalysisError("table is not Latin; components are undefined")
    raw, pair = q.values.obj, bytearray(256)
    pair[a], pair[b] = 1, 2

    def pattern(at, cells):
        return raw[at:at + cells].translate(pair)
    size = len(raw) // k
    if size == 1:  # arity 1: one line
        return 1, [bytearray(k)]
    memo = {}
    kids = [_block(lo, size, k, pattern, memo)
            for lo in range(0, len(raw), size)]
    del memo  # every repeat below the top is found
    return _join(kids, pattern, 0, size)


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
    patterns.  One C-level pass then appends every ab-cell's uint32 index,
    in index order, to its part, so each part comes out sorted and the
    parts in order of their smallest cells.
    """
    from .families import Component

    count, labels = _labelled(q, a, b)
    pat = q.values.obj.translate(bytes(v in (a, b) for v in range(256)))
    parts = [bytearray() for _ in range(count)]
    fmt = _FORMATS[_width(count)]
    # bytearray.extend returns None, so any() runs the whole map
    any(map(bytearray.extend, map(parts.__getitem__, itertools.compress(
        itertools.chain.from_iterable(
            memoryview(part).cast(fmt) for part in labels), pat)),
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
    return _flipped(QTable(q.arity, q.order, vals))


def _flipped(t):
    """t, refused unless it is Latin."""
    if not validate(t).ok:
        raise AnalysisError("not a component: the flip breaks the Latin property")
    return t


def _flip(q, a, b, labelled, i):
    """The values of switch_component(q, find_components(q, a, b)[i]), as
    bytearrays that the caller joins and validates, written over the
    labels of labelled = _labelled(q, a, b), whose parts this consumes
    and returns: part j holds the labels of the j-th of as many equal
    runs of cells.  q's values are XORed _SLICE cells at a time with
    a ^ b times the mask of the a/b cells whose label is i in every byte
    plane.  The values go to their cells' offsets in the part, which
    never pass the labels already read (w bytes a cell), and the labels
    past the last are cut."""
    count, parts = labelled
    w = _width(count)
    ab = bytes(v in (a, b) for v in range(256))
    # byte j of each native w-byte label against byte j of i
    planes = [bytes(v == byte for v in range(256))
              for byte in i.to_bytes(w, sys.byteorder)]
    vals = q.values.obj
    size = len(vals) // len(parts)
    for at, labels in zip(range(0, len(vals), size), parts):
        for lo in range(0, size, _SLICE):
            chunk = vals[at + lo:at + min(lo + _SLICE, size)]
            mask = int.from_bytes(chunk.translate(ab), "little")
            for j, plane in enumerate(planes):
                mask &= int.from_bytes(labels[
                    lo * w + j:(lo + _SLICE) * w:w].translate(plane), "little")
            labels[lo:lo + len(chunk)] = (int.from_bytes(chunk, "little") ^ (
                a ^ b) * mask).to_bytes(len(chunk), "little") if mask else chunk
        del labels[size:]
    return parts
