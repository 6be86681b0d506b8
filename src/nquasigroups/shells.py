"""Shells of quasigroup tables: the values on the cells touching a
basepoint, their JSON form, retracts, and the reconstruction of a
reducible table from its shell (claim (1) of the paper).  A shell and a
retract cut the table's hyperplanes x_i = o by one slice walk, _plane.

The reducibility tests that reconstruction prunes and checks with are
imported from analysis and reducibility inside reconstruct_with_split and
reconstruct, so `nqg analyze --shell` compiles neither.
"""

import itertools
import re

from .core import (_FROM_DIGITS, _SLICE, BUILD_CELL_BUDGET, MAX_ORDER,
                   AnalysisError, QTable, StructuralError, _ints_below,
                   _offsets, _power_over, _Record, check_cell_budget,
                   validate)
from .tableio import _TO_DIGITS

# reconstruct assembles k^n cells for every split its retract tests leave,
# at worst all of them: refuse shells whose splits times cells exceed this
# (4^8 and 5^7 still fit)
RECONSTRUCT_BUDGET = 1 << 24



class ReconstructionError(AnalysisError):
    """Shell cannot be assembled into a table under the requested split."""


class Shell(_Record):
    """Values of a table on all cells touching a basepoint.

    values is k^n bytes, row-major like a QTable's: the given values on
    the cells with x_i = basepoint_i for some i, 0 on every other cell.
    AnalysisError refuses an arity or order that is not an int >= 1 or
    past MAX_ORDER, a basepoint that is not arity ints in 0..order-1, and
    values that are not k^n bytes, kept values in 0..order-1.
    """

    __slots__ = ("arity", "order", "basepoint", "values")

    def __init__(self, arity, order, basepoint, values):
        n, k = arity, order
        basepoint = _checked_head(n, k, basepoint)
        data = (bytes(values)
                if isinstance(values, (bytes, bytearray, memoryview)) else b"")
        if (_power_over(n, k, len(data)) or k ** n != len(data)
                or (data := bytes(_on_shell(n, k, basepoint, data))).translate(
                    None, bytes(range(k)))):
            raise AnalysisError("shell values must be %d^%d bytes in 0..%d"
                                % (k, n, k - 1))
        _Record.__init__(self, n, k, basepoint, data)


def _checked_head(n, k, basepoint):
    """The basepoint as a tuple, once n, k and it pass Shell's checks."""
    if type(n) is not int or type(k) is not int or n < 1 or k < 1:
        raise AnalysisError("shell arity and order must be integers >= 1")
    if k > MAX_ORDER:
        raise AnalysisError("shell order %d is over %d, the most symbols a "
                            "table holds" % (k, MAX_ORDER))
    if not (isinstance(basepoint, (tuple, list)) and len(basepoint) == n
            and _ints_below(basepoint, k)):
        raise AnalysisError(
            "basepoint must list %d integers in 0..%d" % (n, k - 1))
    return tuple(basepoint)


def _plane(size, k, w, o):
    """(source, target) slice pairs for the hyperplane x_i = o of size =
    k^n row-major cells, with w = k^(n-i): its cells o*w + t + j*k*w,
    t < w, sit at t + j*w in the retract that fixes x_i.  They are w
    extended slices, or runs of w when there are fewer runs than w."""
    if w * w * k <= size:
        return [(slice(o * w + t, None, k * w), slice(t, None, w))
                for t in range(w)]
    return [(slice(j * k + o * w, j * k + o * w + w), slice(j, j + w))
            for j in range(0, size // k, w)]


def _on_shell(n, k, base, src):
    """The k^n bytes src on the cells touching base, 0 elsewhere: the
    hyperplanes x_i = base_i (_plane), copied in place."""
    out = bytearray(len(src))
    for i, o in enumerate(base, 1):
        for cells, _ in _plane(len(src), k, k ** (n - i), o):
            out[cells] = src[cells]
    return out


def extract_shell(q, basepoint):
    """Restrict q to the cells having some coordinate at the basepoint;
    the Shell constructor refuses a bad basepoint."""
    return Shell(q.arity, q.order, basepoint, q.values)


def _shell_read(sh, axes):
    """Shell values over the 1-based axes in itertools.product order,
    every other axis at the basepoint."""
    n, k = sh.arity, sh.order
    at = sum(o * k ** (n - i) for i, o in enumerate(sh.basepoint, 1)
             if i not in axes)
    return [sh.values[at + off] for off in _offsets(n, k, axes)]


def reconstruct_with_split(sh, split):
    """Assemble the full table from a shell, assuming reducibility over split.

    With S the split, C its complement, p = min(S), and all omitted
    coordinates at the basepoint, the shell determines g0 over the S-axes,
    h0 over (p, C-axes), and the unary d(x) = value at x in axis p alone.
    The table is h0(d^-1(g0(x_S)), x_C).  Any other axis of S would give
    the same table: a Latin table that agrees with the shell is reducible
    over S, and the shell fixes it.
    The result must validate and have this shell, else the split is
    inconsistent with the shell, naming the first disagreeing cell in
    index order.  A table of more than BUILD_CELL_BUDGET cells is
    refused before the shell is read.
    """
    from .analysis import _checked_axes

    check_cell_budget(sh.arity, sh.order, AnalysisError)
    return _assemble(sh, _checked_axes(split, sh.arity))


def _assemble(sh, S):
    """reconstruct_with_split over the checked axes S."""
    n, k = sh.arity, sh.order
    C = [i for i in range(1, n + 1) if i not in S]

    # every cell read touches the basepoint, so the shell holds it
    probe = S[0]
    delta = _shell_read(sh, [probe])
    g0 = _shell_read(sh, S)
    # one run over the C-tuples per probe value
    h0 = _shell_read(sh, [probe, *C])
    m = k ** len(C)

    if sorted(delta) != list(range(k)):
        raise ReconstructionError(
            "split inconsistent with shell: probe retract is not a permutation")
    # the run of probe value x serves the S-parts with g0 = delta[x]
    runs = [h0[x * m:x * m + m] for _, x in sorted(zip(delta, range(k)))]

    # the cell with S-part s and C-part c sits at s_off[s] + c_off[c]
    vals = bytearray(k ** n)
    c_offs = _offsets(n, k, C)
    for s_off, g in zip(_offsets(n, k, S), g0):
        for c_off, v in zip(c_offs, runs[g]):
            vals[s_off + c_off] = v
    t = QTable(n, k, vals)

    if not validate(t).ok:
        raise ReconstructionError(
            "split inconsistent with shell: assembled table is not Latin")
    # both shells are zero off the cells touching the basepoint
    own = Shell(n, k, sh.basepoint, t.values)
    if own != sh:
        i = next(i for i, (a, b) in enumerate(zip(own.values, sh.values))
                 if a != b)
        raise ReconstructionError(
            "split inconsistent with shell: assembled table disagrees at %r"
            % (t.coords(i),))
    return t


def retract(t, fixed):
    """Fix some arguments to constants; fixed maps 1-based axis to symbol.

    The fixed axes are taken last first, so the others keep their
    numbers.  Fixing axis i at o keeps the hyperplane x_i = o of the
    m-ary values, each slice of it copied to its place (_plane).
    """
    n, k = t.arity, t.order
    for ax, sym in fixed.items():
        if not _ints_below((ax,), n + 1, 1):
            raise StructuralError("axis %r out of range 1..%d" % (ax, n))
        if not _ints_below((sym,), k):
            raise StructuralError("symbol %r out of range 0..%d" % (sym, k - 1))
    if len(fixed) == n:
        raise StructuralError("retract must leave at least one axis free")
    vals, m = t.values.obj, n
    for ax in sorted(fixed, reverse=True):
        out = bytearray(len(vals) // k)
        for cells, to in _plane(len(vals), k, k ** (m - ax), fixed[ax]):
            out[to] = vals[cells]
        vals, m = out, m - 1
    return QTable(m, k, vals)


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
    The retract tests call the reducibility kernel on the retract's values
    with one memo of box checks per retract (is_reducible_wrt step (a)).
    A surviving split over which a candidate already found is reducible
    is skipped: a table reducible over S is h0(d^-1(g0(x_S)), x_C) with
    g0, h0 and d read from its own shell, so assembling S would rebuild
    that candidate.  That also deduplicates the list: a table assembled
    over S is reducible over S, so it equals no earlier candidate.  It
    is t(x) = h0(d^-1(g0(x_S)), x_C), returned only once t validates.
    On the probe axis g0 is d, so the line of t along it, the rest of S
    at the basepoint, reads h0(., x_C); that line is Latin, so each
    h0(., x_C) is a permutation, and every C-row of t has g0's partition.
    Shells whose 2^n - n - 2 splits times k^n cells exceed
    RECONSTRUCT_BUDGET, or whose k^n cells exceed BUILD_CELL_BUDGET, are
    refused before any split.
    """
    from .analysis import Split, is_reducible_wrt
    from .reducibility import reduction_witness

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
    # retract i fixes axis i at basepoint_i; its axes are the others in order
    table = QTable(n, k, sh.values)
    retracts = [retract(table, {i: o}).values.obj
                for i, o in enumerate(sh.basepoint, 1)]
    memos = [{} for _ in retracts]  # retract i's box checks (reducibility)
    verdicts = {}  # (i, split of retract i) -> is_reducible_wrt

    def survives(S):
        for i in range(1, n + 1):
            if len(S) < 3 if i in S else len(S) > n - 2:
                continue
            key = (i, tuple(a - (a > i) for a in S if a != i))
            if key not in verdicts:
                verdicts[key] = reduction_witness(
                    retracts[i - 1], n - 1, k, key[1], memos[i - 1]) is not None
            if not verdicts[key]:
                return False
        return True

    candidates = []
    for size in range(2, n):
        for S in itertools.combinations(range(1, n + 1), size):
            if not survives(S):
                continue
            split = Split(frozenset(S))
            # a candidate reducible over S agrees with the shell, so the
            # assembly over S would rebuild that same table
            if any(is_reducible_wrt(c, split) for c in candidates):
                continue
            # reducible over S, unlike every earlier candidate (see the
            # docstring), so new to the list
            try:
                candidates.append(_assemble(sh, S))
            except ReconstructionError:
                pass
    if not candidates:
        raise ReconstructionError("not reducible or shell inconsistent")
    return candidates


# ---------------------------------------------------------------------------
# shell file format

def _touching(n, k, base):
    """1 on the k^n cells touching base, 0 elsewhere."""
    return _on_shell(n, k, base, b"\x01" * k ** n)


def shell_to_json_obj(sh):
    n, k = sh.arity, sh.order
    mask = _touching(n, k, sh.basepoint)
    cells = itertools.compress(itertools.product(range(k), repeat=n), mask)
    return {
        "arity": n,
        "order": k,
        "basepoint": list(sh.basepoint),
        "entries": [[*x, v] for x, v in
                    zip(cells, itertools.compress(sh.values, mask))],
    }


def _rows(n, k, mask, values):
    """The entries of an order-k <= 10 shell as compact JSON rows, each
    [x_1,..,x_n,v] and a comma: 2n+4 bytes per touching cell of mask, in
    index order, with the given values.  One template row is repeated and
    each column filled with its digits by one extended slice."""
    w = 2 * n + 4
    rows = bytearray(b"[" + b"0," * n + b"0],") * len(values)
    cells = bytes(itertools.chain.from_iterable(itertools.compress(
        itertools.product(range(k), repeat=n), mask)))
    for j in range(n):
        rows[2 * j + 1::w] = cells[j::n].translate(_TO_DIGITS)
    rows[2 * n + 1::w] = values.translate(_TO_DIGITS)
    return rows


def _shell_json(sh):
    """json.dumps(shell_to_json_obj(sh), separators=(",", ":")), with the
    entries of an order up to 10 written by _rows."""
    n, k = sh.arity, sh.order
    if k > 10:
        import json

        return json.dumps(shell_to_json_obj(sh), separators=(",", ":"))
    mask = _touching(n, k, sh.basepoint)
    rows = _rows(n, k, mask, bytes(itertools.compress(sh.values, mask)))
    return '{"arity":%d,"order":%d,"basepoint":[%s],"entries":[%s]}' % (
        n, k, ",".join(map(str, sh.basepoint)), rows[:-1].decode())


# the head _shell_json writes for an order up to 10, single-digit
# basepoint coordinates, up to the first entry
_SHELL_HEAD = (r'[ \t\n\r]*\{"arity":([1-9][0-9]{0,8}),"order":([1-9]|10),'
               r'"basepoint":\[((?:[0-9],)*[0-9])\],"entries":\[')


def _shell_from_json(s):
    """Shell from its JSON text, else AnalysisError.

    The form _shell_json writes, with whitespace only around it, is read
    directly when it holds a shell: rows of 2n+4 bytes, the right count
    (tested before k^n is formed, which stays within BUILD_CELL_BUDGET),
    values below k, and the coordinates _rows writes.  Every other text
    takes json.loads and shell_from_json_obj, so both ways give one
    Shell or one error.  The rows are read from s where they stand and
    compared with _rows' a slice at a time, so the text is not copied.
    """
    head = re.match(_SHELL_HEAD, s)
    end = len(s.rstrip(" \t\n\r"))
    if head and s.isascii() and s.endswith("]}", at := head.end(), end):
        n, k = int(head[1]), int(head[2])
        base = list(map(int, head[3][::2]))
        w = 2 * n + 4
        count, one = divmod(end - at, w)
        # the rows, but the last one's comma, are s[at:end - 2]
        digits = s[at + 2 * n + 1:end - 2:w].encode()
        if (one == 1 and len(base) == n and max(base) < k
                and not digits.translate(None, b"0123456789"[:k])
                and not _power_over(n - 1, k, count)
                and k ** n - (k - 1) ** n == count
                and not _power_over(n, k, BUILD_CELL_BUDGET)):
            mask = _touching(n, k, base)
            values = digits.translate(_FROM_DIGITS)
            rows = memoryview(_rows(n, k, mask, values))[:-1]
            if all(s.startswith(str(rows[lo:lo + _SLICE], "ascii"), at + lo)
                   for lo in range(0, len(rows), _SLICE)):
                # accumulate(mask) is 1 + the entry index on a touching
                # cell; the constructor zeroes the others
                return Shell(n, k, base, bytes(map(
                    (b"\0" + values).__getitem__, itertools.accumulate(mask))))
    import json

    try:
        obj = json.loads(s)
    except (json.JSONDecodeError, RecursionError) as e:
        raise AnalysisError("bad shell JSON: %s" % e)
    return shell_from_json_obj(obj)


def shell_from_json_obj(obj):
    """Shell from its JSON object, else AnalysisError.

    The fields are arity, order, basepoint and entries, each entry a list
    of JSON ints, a cell then its value, listing each cell touching the
    basepoint once in any order.  The types, the head and the entry
    count are checked before k^n, at most BUILD_CELL_BUDGET, is formed.
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
    # C-level passes first; the scan only names the first bad row
    if not (set(map(type, rows)) <= {list} and all(rows) and set(
            map(type, itertools.chain.from_iterable(rows))) <= {int}):
        bad = next(row for row in rows if not (
            type(row) is list and row and set(map(type, row)) <= {int}))
        raise AnalysisError(
            "shell entry %r must list coordinates and a value, all JSON "
            "integers" % (bad,))
    base = _checked_head(n, k, base)
    # k^n - (k-1)^n >= k^(n-1): a huge arity never reaches the power
    count = len(rows)
    if _power_over(n - 1, k, count) or k ** n - (k - 1) ** n != count:
        raise AnalysisError(
            "shell of arity %d, order %d has %d entries, not k^n - (k-1)^n"
            % (n, k, count))
    check_cell_budget(n, k, AnalysisError)
    rows = sorted(rows)
    vals = [row[-1] for row in rows]
    if not (0 <= min(vals) and max(vals) < k):
        raise AnalysisError("shell values must be integers in 0..%d" % (k - 1))
    # sorted rows list the cells in index order: the first mismatch is a
    # cell listed twice, one off the basepoint, or a missing one
    mask = _touching(n, k, base)
    cells = itertools.compress(itertools.product(range(k), repeat=n), mask)
    for p, (row, cell) in enumerate(zip(rows, map(list, cells))):
        if (got := row[:-1]) != cell:
            if p and got == rows[p - 1][:-1]:
                raise AnalysisError("shell lists cell %r twice"
                                    % (tuple(got),))
            raise AnalysisError(
                "shell entry %r is not a cell touching the basepoint" % (row,)
                if got < cell else "shell misses cell %r, which touches the "
                "basepoint" % (tuple(cell),))
    vals = iter(vals)
    return Shell(n, k, base, bytes(next(vals) if m else 0 for m in mask))
