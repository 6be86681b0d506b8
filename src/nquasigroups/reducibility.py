"""The reducibility kernel behind analysis.is_reducible_wrt and
find_reductions: a box prefilter, then an exact check on an S-major copy
of the values (the argument is in is_reducible_wrt's docstring).

A module of its own so that the commands that never test reducibility
(components, analyze --shell, construct) do not compile it.
"""

from operator import itemgetter

from .core import _offsets


def reduction_witness(vals, n, k, S):
    """The witness of is_reducible_wrt over the sorted axes S as bytes, a
    label per S-tuple, or None; vals is the bytes of the table's values."""
    C = [i for i in range(1, n + 1) if i not in S]
    if not _boxes_agree(vals, n, k, S, C):
        return None
    return _s_major_witness(vals, n, k, S)


def _boxes_agree(vals, n, k, S, C):
    """Step (a) of is_reducible_wrt.  Each box's cells are read through
    one itemgetter of their offsets; two rows have the same partition
    exactly when the pairs of their values are a bijection, i.e. there
    are as many distinct pairs as distinct values on each side."""
    view = memoryview(vals)
    steps = [v * k ** (n - i) for i in C for v in range(1, k)]
    if not steps:  # order 1: one cell per box, one row
        return True
    for pair in {(S[0], S[-1]), (S[-2], S[-1])}:
        box = itemgetter(*_offsets(n, k, pair))
        base = box(view)
        classes = len(set(base))
        for c in steps:
            row = box(view[c:])
            if not len(set(zip(base, row))) == classes == len(set(row)):
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


def _s_major_witness(vals, n, k, S):
    """Step (b) of is_reducible_wrt, on the S-major copy of vals.

    Check (1) joins the representatives' columns in S-tuple order and
    compares the result with the copy.  Check (2) XORs two columns read
    as big integers and asks for a zero byte: with LO the 1 of every
    byte and HI the top bit of every byte, (x - LO) & ~x & HI is nonzero
    exactly when a byte of x is zero.  Without a zero field no field borrows, and f - 1 has the top
    bit only when f has it too, which ~x then clears; the lowest zero
    field receives no borrow and turns to all ones, its top bit set in
    ~x as well.
    """
    m = _s_major(vals, n, k, S)
    cols = k ** (n - len(S))
    first = m[::cols]
    raw = memoryview(m)
    # the distinct values of the row C = 0 in order of first appearance,
    # each mapped to the column of the first S-tuple holding it
    reps = dict.fromkeys(first)
    for v in reps:
        s = first.index(v)
        reps[v] = raw[s * cols:(s + 1) * cols]
    # bytes.join holds an 80-byte buffer record per piece, so the columns
    # are joined and compared up to 1024 S-tuples and 2^16 bytes at a time
    for lo in range(0, len(first), step := min(1024, 1 + (1 << 16) // cols)):
        part = b"".join(map(reps.__getitem__, first[lo:lo + step]))
        if part != raw[lo * cols:lo * cols + len(part)]:
            return None
    lo = int.from_bytes(b"\1" * cols, "little")
    hi = lo << 7
    cols_as_ints = [int.from_bytes(c, "little") for c in reps.values()]
    for i, x in enumerate(cols_as_ints):
        for y in cols_as_ints[i + 1:]:
            d = x ^ y
            if (d - lo) & ~d & hi:
                return None
    labels = dict(zip(reps, range(len(reps))))
    return first.translate(bytes(labels.get(v, 0) for v in range(256)))
