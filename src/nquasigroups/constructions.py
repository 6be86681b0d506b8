"""Constructive builders: closed quasigroups, rectangle completion, switching,
irreducible tables.  The switching-component counting families and their
binary base live in families; build_family5 and build_family_k still
resolve here on first use, for the benchmark harness that reads them.
"""

import enum

from . import _forward
from .core import (
    _FROM_DIGITS,
    ConstructionError,
    QTable,
    _Record,
    _ints_below,
    _offsets,
    check_cell_budget,
    from_function,
    from_rows,
    iterate,
    superpose,
    validate,
)

__getattr__ = _forward(__name__,
                       {"families": "build_family5 build_family_k"})


class CompletionError(ConstructionError):
    """Partial rectangle admits no completion; names a Hall-violating set."""

    def __init__(self, violator):
        self.violator = frozenset(violator)
        super().__init__(
            "no completion: symbols %s cannot all be placed"
            % sorted(self.violator))


class FixtureId(enum.Enum):
    Q42 = "Q42"
    Q52 = "Q52"
    Q62 = "Q62"
    Q72 = "Q72"


# Three of the four stored arrays, all {0,1}-closed, as the digits of their
# rows; the order-5 one is stored with the family it carries, as
# families._Q52.
_FIXTURES = {
    "Q42": QTable(2, 4, b"0123103223013210".translate(_FROM_DIGITS)),
    "Q62": QTable(2, 6, b"012345103254450123541032234501325410"
                  .translate(_FROM_DIGITS)),
    "Q72": QTable(2, 7, b"0123456103456224016353560124465201352463016315240"
                  .translate(_FROM_DIGITS)),
}


def fixture(fid):
    """One of the four stored binary arrays, by id.

    Q52 is the corrected order-5 array: the two out-of-range glyphs in its
    published form (row 2 col 4, row 4 col 3) are replaced by the values 3
    and 2 forced by the Latin property on the surrounding rows/columns.
    """
    fid = FixtureId(fid).value
    if fid == "Q52":
        from .families import _Q52

        return _Q52
    return _FIXTURES[fid]


def build_qkr(k, r):
    """Closed-formula binary quasigroup of order k with {0..r-1} closed.

    Needs 2 <= r <= k//2 and k - r odd.  The sub-block on {0..r-1}^2 is
    (i+j) mod r; the remaining three blocks are built from arithmetic
    modulo m = k - r.
    """
    if not (isinstance(k, int) and isinstance(r, int)):
        raise ConstructionError("k and r must be integers")
    if not 2 <= r <= k // 2:
        raise ConstructionError("need 2 <= r <= k//2, got r=%d, k=%d" % (r, k))
    m = k - r
    if m % 2 == 0:
        raise ConstructionError(
            "formula inapplicable for even k - r; use build_closed")
    check_cell_budget(2, k, ConstructionError)

    def q(i, j):
        if i < r and j < r:
            return (i + j) % r
        if i >= r and j < r:
            return ((i - r) + j) % m + r
        if i < r and j >= r:
            return (2 * i + (j - r)) % m + r
        d = ((i - r) - (j - r)) % m
        if d < r:
            return d
        return (2 * (i - r) - (j - r)) % m + r

    t = from_function(2, k, q)
    rep = validate(t)
    if not rep.ok:
        raise ConstructionError("formula produced a non-Latin table at k=%d r=%d"
                                % (k, r))
    return t


class PartialRectangle(_Record):
    """First rows of an order-k square, entries in {0..k-1} or None.

    No symbol may repeat within a row or within a column's filled cells.
    """

    __slots__ = ("order", "rows")

    def __init__(self, order, rows):
        _Record.__init__(self, order, tuple(tuple(r) for r in rows))


def _check_partial(p):
    k = p.order
    if len(p.rows) > k:
        raise ConstructionError("more rows than the order allows")
    col_used = [set() for _ in range(k)]
    for i, row in enumerate(p.rows):
        if len(row) != k:
            raise ConstructionError("row %d has length %d, want %d"
                                    % (i, len(row), k))
        seen = set()
        for j, v in enumerate(row):
            if v is None:
                continue
            if not isinstance(v, int) or not 0 <= v < k:
                raise ConstructionError("entry %r out of range at (%d,%d)"
                                        % (v, i, j))
            if v in seen:
                raise ConstructionError("symbol %d repeats in row %d" % (v, i))
            if v in col_used[j]:
                raise ConstructionError("symbol %d repeats in column %d" % (v, j))
            seen.add(v)
            col_used[j].add(v)
    return col_used


def _match_row(symbols, columns, col_used):
    """Assign each symbol a column it may occupy, or raise CompletionError.

    Kuhn's matching with ascending scan everywhere, so the completion is
    deterministic.  On failure the reachable symbol set is a Hall violator.
    """
    match = {}   # column -> symbol

    def augment(s, visited):
        for c in columns:
            if c in visited or s in col_used[c]:
                continue
            visited.add(c)
            if c not in match or augment(match[c], visited):
                match[c] = s
                return True
        return False

    for s in symbols:
        visited = set()
        if not augment(s, visited):
            violator = {s} | {match[c] for c in visited if c in match}
            raise CompletionError(violator)
    return {s: c for c, s in match.items()}


def complete_rectangle(p):
    """Extend a partial rectangle to a full order-k quasigroup.

    First fills the holes of each given row (top to bottom), then appends
    the missing rows, choosing cells by bipartite matching of symbols
    against admissible columns.  A full valid table passes through
    unchanged.
    """
    check_cell_budget(2, p.order, ConstructionError)
    col_used = _check_partial(p)
    k = p.order
    rows = [list(r) for r in p.rows]
    for row in rows:
        holes = [j for j, v in enumerate(row) if v is None]
        if not holes:
            continue
        missing = sorted(set(range(k)) - {v for v in row if v is not None})
        placed = _match_row(missing, holes, col_used)
        for s, c in placed.items():
            row[c] = s
            col_used[c].add(s)
    while len(rows) < k:
        placed = _match_row(range(k), range(k), col_used)
        row = [None] * k
        for s, c in placed.items():
            row[c] = s
            col_used[c].add(s)
        rows.append(row)
    t = from_rows(rows)
    rep = validate(t)
    if not rep.ok:
        raise ConstructionError("completion produced a non-Latin table")
    return t


def _closed_binary(k, r):
    """Binary {0..r-1}-closed table: direct formula when it applies,
    otherwise completion of the cyclic block."""
    if (k - r) % 2 == 1:
        return build_qkr(k, r)
    seed = tuple(
        tuple((i + j) % r if j < r else None for j in range(k))
        for i in range(r))
    return complete_rectangle(PartialRectangle(k, seed))


def build_closed(n, k, r):
    """n-ary quasigroup of order k closed on {0..r-1}.

    Right-nested superposition of a single closed binary table, so the
    restriction to the sub-alphabet is that binary table iterated.
    """
    if n < 2:
        raise ConstructionError("need arity >= 2")
    if not 2 <= r <= k // 2:
        raise ConstructionError("need 2 <= r <= k//2, got r=%d, k=%d" % (r, k))
    check_cell_budget(n, k, ConstructionError)
    return iterate(_closed_binary(k, r), n - 1)


def switch_sub(q, omega, h):
    """Replace q on omega^n by h, keeping all other values.

    q must map omega^n into omega; h is an order-|omega| table whose symbols
    0..|omega|-1 stand for the sorted elements of omega.
    """
    om = set(omega)
    n, k = q.arity, q.order
    if not om or not _ints_below(om, k):
        raise ConstructionError("omega must be a nonempty subset of 0..%d"
                                % (k - 1))
    om = tuple(sorted(om))
    if h.arity != n or h.order != len(om):
        raise ConstructionError(
            "replacement table has shape (%d,%d), want (%d,%d)"
            % (h.arity, h.order, n, len(om)))
    if not validate(h).ok:
        raise ConstructionError("replacement table is not a quasigroup")
    inside = set(om)
    vals = bytearray(q.values)
    # om is sorted, so its cells in product order are h's in index order
    for idx, v in zip(_offsets(n, k, range(1, n + 1), om), h.values):
        if vals[idx] not in inside:
            raise ConstructionError(
                "table is not closed on %s: value %d at %r"
                % (list(om), vals[idx], q.coords(idx)))
        vals[idx] = om[v]
    return QTable(n, k, vals)


def _parity_shift(n, shift):
    return from_function(n, 2, lambda *x: (sum(x) + shift) % 2)


def irreducible_base(n, k):
    """The reducible table that build_irreducible switches.

    Exposed so the pre-switch table can be checked to be reducible.
    """
    if n < 3 or k < 4:
        raise ConstructionError("need arity >= 3 and order >= 4")
    check_cell_budget(n, k, ConstructionError)
    if n >= 4:
        return build_closed(n, k, 2)
    if k <= 7:
        fix = fixture(FixtureId("Q%d2" % k))
        return superpose(fix, 1, fix)
    return build_closed(3, k, 4)


def build_irreducible(n, k):
    """A permutably irreducible n-ary quasigroup of order k (n>=3, k>=4).

    For n >= 4: a {0,1}-closed table with its parity block replaced by
    parity+1.  For n = 3 and k <= 7: the left-nested square of the stored
    order-k array, same parity switch.  For n = 3 and k >= 8: an order-4
    irreducible ternary table transplanted into a {0,1,2,3}-closed one.
    """
    base = irreducible_base(n, k)
    if n >= 4 or k <= 7:
        return switch_sub(base, (0, 1), _parity_shift(n, 1))
    return switch_sub(base, (0, 1, 2, 3), build_irreducible(3, 4))


def build_shell_counterexample():
    """Two distinct ternary order-5 tables agreeing on the basepoint shell.

    Searches lexicographically for a nonassociative order-5 loop L and
    returns (q, f, loop) with q = L(L(x1,x2),x3) and f = L(x1,L(x2,x3)).
    Both agree wherever some argument is 0 because 0 is the identity of L,
    yet they differ as tables.
    """
    # imported here: only this builder searches
    from .latin import _reduced, _tables

    # the reduced binary tables are the loops with identity 0; q = f
    # exactly when L is associative
    for loop in _tables(2, 5, *_reduced(2, 5, "index"), None):
        q = superpose(loop, 1, loop)
        f = superpose(loop, 2, loop)
        if q.values != f.values:
            return q, f, loop
    raise ConstructionError("no nonassociative loop found")
