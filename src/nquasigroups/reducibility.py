"""The reducibility kernel behind analysis.is_reducible_wrt,
find_reductions and the retract tests of shells.reconstruct: a box
prefilter whose checks a memo decides once per table, then an exact check
on the values, read in place or from an S-major copy (the argument is in
is_reducible_wrt's docstring).

A module of its own so that the commands that never test reducibility
(components, analyze --shell, construct) do not compile it.
"""

from operator import itemgetter

from .core import _SLICE, _offsets


def reduction_witness(vals, n, k, S, memo=None):
    """The witness of is_reducible_wrt over the sorted axes S as bytes, a
    label per S-tuple, or None; vals is the bytes of the table's values.
    memo, a dict kept for one table, holds the box checks decided so far
    (_boxes_agree)."""
    C = [i for i in range(1, n + 1) if i not in S]
    if not _boxes_agree(vals, n, k, S, C, memo):
        return None
    return _s_major_witness(vals, n, k, S)


def _boxes_agree(vals, n, k, S, C, memo=None):
    """Step (a) of is_reducible_wrt.  Each box's cells are read through
    one itemgetter of their offsets; two rows have the same partition
    exactly when the pairs of their values are a bijection, i.e. there
    are as many distinct pairs as distinct values on each side.

    The box of an axis pair has every other axis at 0, and the row at
    offset c changes one C axis, so a check's verdict depends on the
    table, the pair and c only, not on the split: memo keeps it under
    (pair, c), and a box is read only when one of its checks is new."""
    steps = [v * k ** (n - i) for i in C for v in range(1, k)]
    if not steps:  # order 1: one cell per box, one row
        return True
    if memo is None:
        memo = {}
    view = memoryview(vals)
    for pair in {(S[0], S[-1]), (S[-2], S[-1])}:
        box = None
        for c in steps:
            agree = memo.get((pair, c))
            if agree is None:
                if box is None:
                    box = itemgetter(*_offsets(n, k, pair))
                    base = box(view)
                    classes = len(set(base))
                row = box(view[c:])
                agree = memo[pair, c] = (
                    len(set(zip(base, row))) == classes == len(set(row)))
            if not agree:
                return False
    return True


def _to_front(src, a, r, b):
    """Row-major cube of shape (a, r, b) -> bytearray of shape (r, a, b).

    Each assignment moves one extended slice, folding the largest of the
    three dimensions, so a move takes a*r*b / max(a, r, b) slices.
    """
    dst = bytearray(len(src))  # every cell is overwritten
    block = a * b
    if b >= a and b >= r:  # contiguous runs of b cells
        for j in range(r):
            for i in range(a):
                dst[(j * a + i) * b:(j * a + i + 1) * b] = \
                    src[(i * r + j) * b:(i * r + j + 1) * b]
    elif a >= r:  # fold i: stride r*b in src, b in dst
        for j in range(r):
            for t in range(b):
                dst[j * block + t:(j + 1) * block:b] = src[j * b + t::r * b]
    else:  # fold j: stride b in src, a*b in dst
        for i in range(a):
            for t in range(b):
                dst[i * b + t::block] = src[i * r * b + t:(i + 1) * r * b:b]
    return dst


def _s_major(vals, n, k, S):
    """Copy of vals with the axes of S first, in order, then the others.

    Each run of consecutive axes in S moves to the front as one block,
    last run first, so the runs end up in order; a single run that
    starts at axis 1 is already in place.
    """
    runs = []
    for i in S:
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    order = list(range(1, n + 1))
    for run in reversed(runs):
        p = order.index(run[0])
        if p:
            vals = _to_front(vals, k ** p, k ** len(run),
                             k ** (n - p - len(run)))
            order[:p + len(run)] = run + order[:p]
    return vals


def _apart(columns, length):
    """Check (2) of _s_major_witness: no two of the columns, each length
    bytes, agree at any position.  Two columns are XORed as big integers,
    4096 positions at a time, and the result asked for a zero byte: with
    LO the 1 of every byte and HI the top bit of every byte,
    (x - LO) & ~x & HI is nonzero exactly when a byte of x is zero.
    Without a zero field no field borrows, and f - 1 has the top bit only
    when f has it too, which ~x then clears; the lowest zero field
    receives no borrow and turns to all ones, its top bit set in ~x as
    well."""
    for at in range(0, length, 1 << 12):
        lo = int.from_bytes(b"\1" * min(1 << 12, length - at), "little")
        hi = lo << 7
        parts = [int.from_bytes(c[at:at + (1 << 12)], "little")
                 for c in columns]
        for i, x in enumerate(parts):
            for y in parts[i + 1:]:
                d = x ^ y
                if (d - lo) & ~d & hi:
                    return False
    return True


def _s_major_witness(vals, n, k, S):
    """Step (b) of is_reducible_wrt.  In S-major order each S-tuple owns
    the column of its values over the C-tuples; check (1) asks every
    column to equal its representative's, check (2) the representatives'
    columns to differ at every position (_apart).

    When S is a run of axes that ends at axis n, the values are read in
    place, a row of the S-tuples' values per C-tuple: with no more
    S-tuples than rows, each column is one stepped slice; with more,
    each row must be the row C = 0 translated by a map of the
    representatives' values that is one to one, which is (1) and (2) on
    that row, compared _SLICE S-tuples at a time.  Otherwise check (1)
    joins the representatives' columns in S-tuple order and compares the
    result with the S-major copy (_s_major; vals itself for a run that
    starts at axis 1).
    """
    cols, rows = k ** len(S), k ** (n - len(S))
    if S[-1] - S[0] == len(S) - 1 and S[-1] == n:
        first = vals[:cols]
        # the distinct values of the row C = 0 in order of first
        # appearance, each mapped to the first S-tuple holding it
        reps = _first_seen(first)
        if cols > rows:
            for c in range(0, rows * cols, cols):  # each row's offset
                image = bytearray(256)
                for v, s in reps.items():
                    image[v] = vals[c + s]
                if len(set(map(image.__getitem__, reps))) < len(reps):
                    return None
                for lo in range(0, cols, _SLICE):
                    if first[lo:lo + _SLICE].translate(image) != vals[
                            c + lo:c + min(lo + _SLICE, cols)]:
                        return None
        elif not (all(vals[s::cols] == vals[reps[v]::cols]
                      for s, v in enumerate(first))
                  and _apart([vals[s::cols] for s in reps.values()], rows)):
            return None
    else:
        m = _s_major(vals, n, k, S)
        first = m[::rows]
        raw = memoryview(m)
        # as above, each mapped to the column of that S-tuple
        reps = {v: raw[s * rows:(s + 1) * rows]
                for v, s in _first_seen(first).items()}
        # bytes.join holds an 80-byte buffer record per piece, so the
        # columns are joined and compared up to 256 S-tuples and _SLICE
        # bytes at a time, one join alive at once
        for lo in range(0, cols, step := min(256, 1 + _SLICE // rows)):
            if b"".join(map(reps.__getitem__, first[lo:lo + step])) \
                    != raw[lo * rows:(lo + step) * rows]:
                return None
        if not _apart(list(reps.values()), rows):
            return None
    labels = bytearray(256)
    for label, v in enumerate(reps):
        labels[v] = label
    return first.translate(labels)


_BYTES = bytes(range(256))


def _first_seen(first):
    """{value: position of its first byte} over the values of the bytes
    first, in order of first appearance: the same dict as
    {v: first.index(v) for v in dict.fromkeys(first)}, with one find per
    distinct value instead of a step per byte."""
    present = _BYTES.translate(None, _BYTES.translate(None, first))
    return {v: at for at, v in sorted((first.find(v), v) for v in present)}
