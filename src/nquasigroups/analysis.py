"""Decision procedures over quasigroup tables: reducibility, subquasigroup
search and restriction to a closed symbol set.

Everything here is a pure function of immutable inputs.  Shells, retracts
and reconstruction live in shells, and the switching components in
switching; `nqg analyze --reductions` compiles neither.  The names the
benchmark harness reads here (find_components, switch_component,
extract_shell, reconstruct, reconstruct_with_split, shell_to_json_obj,
shell_from_json_obj) resolve from their home module on first use.
"""

import itertools

from . import _forward
from .core import (AnalysisError, QTable, StructuralError, _ints_below,
                   _offsets, _Record)

# find_subquasigroups' work and output grow with the closed sets it finds:
# refuse tables with more than this (xor on 256 symbols, with 417,198,
# reaches it in under 1 s)
SUBQUASIGROUP_CAP = 1 << 10

# find_reductions tests each of the 2^n - n - 2 splits with a pass over the
# table: refuse arities with more splits than this (arity 10 has 1,012)
REDUCTION_SPLIT_CAP = 1 << 10

__getattr__ = _forward(__name__, {
    "switching": "find_components switch_component",
    "shells": """extract_shell reconstruct reconstruct_with_split
        shell_from_json_obj shell_to_json_obj"""})


class Split(_Record):
    """A candidate decomposition: the set of axes grouped under the inner map.

    A table q of arity n is reducible with respect to inside=S when
    q(x) = h(g(x restricted to S), x restricted to the complement) for some
    quasigroups h, g.  Requires 2 <= |S| <= n-1.
    """

    __slots__ = ("inside",)

    def __init__(self, inside):
        if not isinstance(inside, frozenset):
            inside = frozenset(inside)
        _Record.__init__(self, inside)

    @property
    def axes(self):
        return tuple(sorted(self.inside))

    def bitmask(self):
        return sum(1 << (i - 1) for i in self.inside)


def _checked_axes(split, n):
    if not isinstance(split, Split):
        split = Split(frozenset(split))
    if not _ints_below(split.inside, n + 1, 1):
        raise AnalysisError("split axes must lie in 1..%d" % n)
    S = split.axes
    if not 2 <= len(S) <= n - 1:
        raise AnalysisError(
            "split must group between 2 and %d axes, got %d" % (n - 1, len(S)))
    return S


def is_reducible_wrt(q, split, return_witness=False):
    """Test whether q decomposes as h(g(inside axes), remaining axes).

    The criterion: the level-set partition of the map (S-tuple -> value)
    must be identical for every fixing of the complement axes C, i.e. on
    every row.  That partition (the fibers of the inner map) is the
    witness, labeled by first appearance on the row C = 0.  Any table is
    decided, Latin or not, in two steps of the reducibility module, on
    the bytes of its values:

    (a) A necessary condition, _boxes_agree: on the k x k boxes of
        S-tuples that vary (S[0], S[-1]) and (S[-2], S[-1]), the other
        S axes at 0, each row reached from C = 0 by changing one C axis
        has the box's partition on the row C = 0.  A reduction's
        partition is common to all rows, and so is its restriction to a
        box: no reducible split fails (a), and most others fail it
        within a row or two.  One check's verdict depends only on the
        table, the axis pair and the changed C axis and value, not on
        the split, so find_reductions and reconstruct decide each once
        per table (a memo); a single test here keeps a fresh one.
    (b) The exact check, _s_major_witness, only on splits that pass (a).
        Each S-tuple owns the column of its values over the C-tuples,
        read by one algorithm through two strides: in place when S is a
        run of axes that ends at axis n, else from an S-major copy (none
        is made for a run that starts at axis 1).  Let the
        representative of a class be its first S-tuple on the row C = 0.
        q is reducible exactly when (1) every column equals its
        representative's, and (2) the representatives' columns differ at
        every C position.  (1) keeps every class together on every row
        and (2) keeps classes apart, so every row has the partition of
        the row C = 0; conversely a reduction's classes are that
        partition, so (1) and (2) hold.

    The criterion passes to retracts, which shells.reconstruct uses to
    prune.
    Fixing an axis outside S only drops rows, so the retract is reducible
    over S (when |S| <= n-2 leaves it admissible there).  Fixing an axis
    i in S keeps the S-tuples with that value of x_i in every row, and the
    common partition restricted to them is common again: the retract is
    reducible over S minus i (when |S| >= 3).
    """
    # imported here: commands that test no reducibility skip compiling it
    from .reducibility import reduction_witness

    S = _checked_axes(split, q.arity)
    witness = reduction_witness(q.values.obj, q.arity, q.order, S)
    if return_witness:
        return witness is not None, witness and tuple(witness)
    return witness is not None


def find_reductions(q):
    """All splits under which q is reducible, sorted by axis bitmask.

    Empty result means q is permutably irreducible.  Exhausts all
    2^n - n - 2 admissible axis subsets, sharing one memo of box checks
    among them (step (a) of is_reducible_wrt); an arity with more than
    REDUCTION_SPLIT_CAP of them is refused with AnalysisError.
    """
    from .reducibility import reduction_witness

    n = q.arity
    if n < 3:
        raise AnalysisError("reducibility is defined for arity >= 3")
    # for a power of two 2^c (c >= 3), 2^n - n - 2 > 2^c exactly when n > c
    if n >= REDUCTION_SPLIT_CAP.bit_length():
        raise AnalysisError(
            "arity %d has 2^%d - %d splits to test, over the %d-split cap "
            "(REDUCTION_SPLIT_CAP)" % (n, n, n + 2, REDUCTION_SPLIT_CAP))
    vals, memo = q.values.obj, {}
    found = []
    for size in range(2, n):
        for S in itertools.combinations(range(1, n + 1), size):
            if reduction_witness(vals, n, q.order, S, memo) is not None:
                found.append(Split(frozenset(S)))
    found.sort(key=Split.bitmask)
    return found


def _closure(raw, n, k, closed, x):
    """The closure of closed | {x} under the table raw, or None when it
    gains a symbol below x or reaches all k symbols.  closed is closed, so
    each round reads only the tuples that use a symbol new in the round
    before: those whose first such symbol is at axis i, for each i."""
    old, members = closed, closed | {x}
    while len(members) < k:
        fresh = members - old
        new = set()
        for i in range(1, n + 1):
            mids = _offsets(n, k, (i,), fresh)
            heads = [h + m for h in _offsets(n, k, range(1, i), old)
                     for m in mids]
            tails = _offsets(n, k, range(i + 1, n + 1), members)
            new.update(map(raw.__getitem__,
                           [h + t for h in heads for t in tails]))
        new -= members
        if not new:
            return members
        if min(new) < x:
            return None
        old, members = members, members | new
    return None


def find_subquasigroups(q):
    """All proper symbol subsets on which q is closed, sorted by size,
    then as tuples.

    Closure suffices: on finite sets the restriction of a quasigroup to a
    closed subset is itself Latin.  Only closed sets are visited, each
    once, as a tree.  A closed proper S is the closure of one chain
    s_1 < s_2 < .. of its symbols: s_i is the least symbol of S outside
    C_(i-1), the closure of s_1..s_(i-1), and every C_i lies inside S.
    So from a closed C reached by adding g (the empty set, g = -1, is the
    root), the search closes C | {x} for each x > g outside C, and keeps
    the closure when it gains no symbol below x and is not all k symbols:
    exactly when C and x are the last link of its own chain.  A table
    with more than SUBQUASIGROUP_CAP closed proper sets is refused with
    AnalysisError.
    """
    n, k = q.arity, q.order
    raw = q.values.obj
    found = []
    todo = [(frozenset(), -1)]
    while todo:
        closed, g = todo.pop()
        for x in range(g + 1, k):
            if x in closed:
                continue
            sub = _closure(raw, n, k, closed, x)
            if sub is None:
                continue
            if len(found) == SUBQUASIGROUP_CAP:
                raise AnalysisError(
                    "table has more than %d proper closed symbol sets "
                    "(SUBQUASIGROUP_CAP)" % SUBQUASIGROUP_CAP)
            found.append(tuple(sorted(sub)))
            todo.append((sub, x))
    return sorted(found, key=lambda om: (len(om), om))


def restrict_to_symbols(t, omega):
    """Restriction of t to a symbol subset, relabeled to 0..len(omega)-1.

    Raises StructuralError if omega is not a nonempty subset of
    0..order-1, or if t maps omega**n outside omega (not closed).
    """
    omega = set(omega)
    if not omega or not _ints_below(omega, t.order):
        raise StructuralError("omega must be a nonempty subset of 0..%d"
                              % (t.order - 1))
    omega = tuple(sorted(omega))
    pos = {sym: i for i, sym in enumerate(omega)}
    n = t.arity
    vals = []
    for off in _offsets(n, t.order, range(1, n + 1), omega):
        v = t.values[off]
        if v not in pos:
            raise StructuralError("table is not closed on %r: value %d at %r"
                                  % (omega, v, t.coords(off)))
        vals.append(pos[v])
    return QTable(n, len(omega), bytes(vals))
