"""Switching components: the minimal parts of a symbol pair, and flips.

find_components and switch_component give the parts and flip one.  `nqg
components --switch i` reads part i from the block labels (_labelled),
XORs it into one copy of the values (_flip) and validates that once the
labels and the input are dropped (_flipped): it builds no parts, and
compiles no family code, since find_components alone imports Component.
"""

import io
import itertools
import sys

from .core import AnalysisError, QTable, _ints_below, validate

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


def _links(subs, kids, starts, w):
    """The distinct (a-cell, b-cell) label pairs of a block's first-axis
    lines as 2w-byte fields, 2^14 lines at a time (see _block)."""
    full = 256 ** w - 1
    links = set()
    for lo in range(0, len(subs[0]), 1 << 14):
        ends = [0, 0]
        for sub, (c, labels), start in zip(subs, kids, starts):
            cells, lw = bytes(sub[lo:lo + (1 << 14)]), _width(c)
            shifted = int.from_bytes(_relabel(
                labels[lo * lw:(lo + len(cells)) * lw], lw,
                range(start, start + c), w), sys.byteorder)
            for j, mask in enumerate(((0, full), (0, 0, full))):
                ends[j] += shifted & int.from_bytes(
                    _relabel(cells, 1, mask, w), sys.byteorder)
        pairs = bytearray(2 * w * len(cells))
        view = memoryview(pairs).cast(_FORMATS[w])
        for j, end in enumerate(ends):
            view[j::2] = memoryview(end.to_bytes(
                w * len(cells), sys.byteorder)).cast(_FORMATS[w])
        links.update(memoryview(pairs).cast(_FORMATS[2 * w]))
    return links


def _block(pat, k, memo=None):
    """(count, labels): the parts of a block of k^m contiguous cells, those
    sharing their first n-m coordinates, joined by the block's own lines.

    They depend only on the block's a/b pattern pat (1 at a, 2 at b, 0
    elsewhere), so memo, keyed by views of pat, keeps one answer per
    distinct pattern; the top call (no memo) starts it and empties it
    once its sub-blocks are solved.  Parts are numbered by first cell;
    labels holds each cell's part in _width(count)-byte fields, some
    part at cells outside the pair.  A line (m = 1) is one part.
    Otherwise the parts of the k sub-blocks, each shifted past those of
    the sub-blocks before it, are joined by the block's first-axis lines.
    A Latin line holds one a and one b, so the labels of every line's
    a-cell, and of its b-cell, are sums over the sub-blocks of their
    labels masked to a, and to b (_links); the union-find sees their
    distinct pairs.  A merged part starts at the first cell of its
    smallest label, so parts renumbered in order of their smallest
    labels stay numbered by first cell.
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
    subs = [pat[i:i + size] for i in range(0, len(pat), size)]
    kids = [_block(sub, k, memo) for sub in subs]
    if top:
        memo.clear()
    *starts, total = itertools.accumulate((c for c, _ in kids), initial=0)
    w = _width(total)
    parent = list(range(total))
    for pair in _links(subs, kids, starts, w):
        # path halving; the smaller root wins
        x, y = divmod(pair, 256 ** w)
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
    out = bytearray()
    for j, start in enumerate(starts):
        (c, labels), kids[j] = kids[j], None  # each freed once written
        out += _relabel(labels, _width(c), new[start:start + c], width)
    memo[pat] = count, out
    return count, out


def _labelled(q, a, b):
    """(count, labels) of the pair {a, b} of q: the block (_block) of its
    a/b pattern, which is then dropped, after the pair check and the
    non-Latin refusal that every path to the parts shares."""
    k = q.order
    if a == b or not _ints_below((a, b), k):
        raise AnalysisError("component pair %r is not two distinct symbols "
                            "in 0..%d" % ((a, b), k - 1))
    if not validate(q).ok:
        raise AnalysisError("table is not Latin; components are undefined")
    pair = bytearray(256)
    pair[a], pair[b] = 1, 2
    return _block(q.values.obj.translate(pair), k)


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
    from .families import Component

    count, labels = _labelled(q, a, b)
    pat = q.values.obj.translate(bytes(v in (a, b) for v in range(256)))
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
    return _flipped(q.arity, q.order, vals)


def _flipped(arity, order, vals):
    """The table of this shape holding vals, refused unless it is Latin."""
    t = QTable(arity, order, vals)
    if not validate(t).ok:
        raise AnalysisError("not a component: the flip breaks the Latin property")
    return t


def _flip(q, a, b, labelled, i):
    """The values of switch_component(q, find_components(q, a, b)[i]) as
    bytes, from labelled = _labelled(q, a, b); the caller validates them.
    One copy of q's values, an io.BytesIO's buffer, is XORed 2^14 cells at
    a time with a ^ b times the mask of the a/b cells whose label is i in
    every byte plane; getvalue hands the buffer over without a copy."""
    count, labels = labelled
    w = _width(count)
    ab = bytes(v in (a, b) for v in range(256))
    # byte j of each native w-byte label against byte j of i
    planes = [bytes(v == byte for v in range(256))
              for byte in i.to_bytes(w, sys.byteorder)]
    vals, step = q.values.obj, 1 << 14
    copy = io.BytesIO(vals)
    with copy.getbuffer() as out:
        for lo in range(0, len(vals), step):
            chunk = vals[lo:lo + step]
            mask = int.from_bytes(chunk.translate(ab), "little")
            for j, plane in enumerate(planes):
                mask &= int.from_bytes(labels[
                    lo * w + j:(lo + step) * w:w].translate(plane), "little")
            if mask:
                out[lo:lo + step] = (int.from_bytes(chunk, "little") ^ (
                    a ^ b) * mask).to_bytes(len(chunk), "little")
    return copy.getvalue()
