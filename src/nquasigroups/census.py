"""Exact enumeration of small quasigroup spaces and certification of the
double-exponential lower-bound families.
It also holds the block products, which _block_product lays out.
"""

import itertools
import math
import random
import time

from .core import (BUILD_CELL_BUDGET, QTable, StructuralError, _offsets,
                   _Record, _power_over, check_cell_budget, from_function,
                   validate)

DEFAULT_CELL_BUDGET = 2_000_000
DEFAULT_TIME_LIMIT = 600.0
MATERIALIZE_CAP = 4096


class BudgetError(RuntimeError):
    """Enumeration refused or aborted: too many cells or out of time."""


class CertificationError(RuntimeError):
    """A claimed switching family failed one of its checks."""


class CensusReport(_Record):
    __slots__ = ("arity", "order", "exact_count", "bound_exponents",
                 "family_log2", "elapsed", "certification")

    def __init__(self, arity, order, exact_count=None, bound_exponents=None,
                 family_log2=None, elapsed=0.0, certification=None):
        _Record.__init__(self, arity, order, exact_count, bound_exponents,
                         family_log2, elapsed, certification)


def report_to_json_obj(rep):
    return dict(zip(rep.__slots__, rep._fields()))


def _report_json(v):
    """v, report_to_json_obj's dict or a value in it, as json.dumps writes
    it with separators (",", ":"), without loading json.  A report holds
    dicts with identifier keys over None, bools, ints, floats (written by
    float.__repr__, as json writes them) and identifier strings, so no
    string needs an escape."""
    if isinstance(v, dict):
        return "{%s}" % ",".join('"%s":%s' % (key, _report_json(x))
                                 for key, x in v.items())
    if v is None or isinstance(v, bool):
        return {None: "null", True: "true", False: "false"}[v]
    if isinstance(v, str):
        return '"%s"' % v
    return (float if isinstance(v, float) else int).__repr__(v)


def _visit_axes(n, visit):
    """Axes whose _offsets list the cells in visitation order: 1..n, or
    n..1 for transposed order (lexicographic over reversed coordinates)."""
    if visit not in ("index", "transposed"):
        raise ValueError("visit must be 'index' or 'transposed'")
    return range(1, n + 1) if visit == "index" else range(n, 0, -1)


def _check_ceiling(n, k, budget):
    # a family is built as a whole table, which the builders cap at
    # BUILD_CELL_BUDGET cells; one ceiling holds for every census path
    if budget > BUILD_CELL_BUDGET:
        raise BudgetError(
            "budget %d is over the %d-cell build budget "
            "(core.BUILD_CELL_BUDGET), the most cells any table is built with"
            % (budget, BUILD_CELL_BUDGET))
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")


def _check_budget(n, k, budget):
    _check_ceiling(n, k, budget)
    if _power_over(n, k, budget):
        raise BudgetError(
            "table has %d^%d cells, over the %d-cell budget; a search would "
            "touch at least that many nodes" % (k, n, budget))


def _check_time_limit(time_limit):
    """Refuse a time limit that is neither None nor a finite number > 0."""
    if time_limit is not None and not 0 < time_limit < math.inf:
        raise ValueError("time limit must be a finite number of seconds > 0,"
                         " not %r" % (time_limit,))


def _search(n, k, cells, pinned, time_limit):
    """Backtrack over the given cells of a k^n table, in the given order.

    pinned maps flat indices outside cells to fixed symbols.  Each cell
    tries, lowest first, the symbols not yet used on any of its n axis
    lines, with one used-symbol bitmask per line.  At the last cell the
    generator yields (placed, m): placed[i] is the bit of the symbol at
    cells[i] for every earlier cell, and each bit of m completes a Latin
    table.  placed is the live search state, valid until the next step.
    time_limit is None, for no limit, or a finite number of seconds > 0
    (_check_time_limit, which the public entry points call first).
    """
    deadline = math.inf if time_limit is None else time.monotonic() + time_limit
    total = k ** n
    strides = [k ** (n - 1 - ax) for ax in range(n)]

    def line_ids(idx):
        # a line is keyed by its axis and its first cell
        return tuple(ax * total + idx - idx // s % k * s
                     for ax, s in enumerate(strides))

    cell_lines = [line_ids(idx) for idx in cells]
    masks = [0] * (n * total)
    for idx, sym in pinned.items():
        for lid in line_ids(idx):
            masks[lid] |= 1 << sym
    full = (1 << k) - 1
    last = len(cells) - 1
    placed = [0] * len(cells)
    cand = [0] * len(cells)

    pos = 0
    acc = 0
    for lid in cell_lines[0]:
        acc |= masks[lid]
    cand[0] = full & ~acc
    nodes = 0
    while True:
        m = cand[pos]
        if m == 0:
            pos -= 1
            if pos < 0:
                return
            b = placed[pos]
            for lid in cell_lines[pos]:
                masks[lid] ^= b
            continue
        if pos == last:
            yield placed, m
            cand[pos] = 0
            continue
        b = m & (-m)
        cand[pos] = m ^ b
        placed[pos] = b
        for lid in cell_lines[pos]:
            masks[lid] |= b
        pos += 1
        acc = 0
        for lid in cell_lines[pos]:
            acc |= masks[lid]
        cand[pos] = full & ~acc
        nodes += 1
        if nodes & 0xFFF == 0 and time.monotonic() > deadline:
            raise BudgetError(
                "time limit exceeded after %d nodes at (n=%d, k=%d)"
                % (nodes, n, k))


def _reduced(n, k, visit):
    """(cells, pins): the axis lines through the origin are the identity."""
    pinned = {j * k ** (n - 1 - ax): j for ax in range(n) for j in range(k)}
    return ([idx for idx in _offsets(n, k, _visit_axes(n, visit))
             if idx not in pinned], pinned)


def _tables(n, k, cells, pinned, time_limit):
    """Yield every table _search completes, in search order."""
    *head, last = cells
    vals = bytearray(pinned.get(idx, 0) for idx in range(k ** n))
    for placed, m in _search(n, k, cells, pinned, time_limit):
        # placed holds the earlier cells' bits; m those of the last cell
        for idx, b in zip(head, placed):
            vals[idx] = b.bit_length() - 1
        while m:
            b = m & (-m)
            m ^= b
            vals[last] = b.bit_length() - 1
            yield QTable(n, k, vals)


def enumerate_count(n, k, budget=DEFAULT_CELL_BUDGET,
                    time_limit=DEFAULT_TIME_LIMIT, visit="index"):
    """Exact number of n-ary quasigroups of order k, by backtracking.

    Only reduced tables are searched: every axis line through the origin
    is pinned to the identity, f(0,..,x,..,0) = x.  The result is R times
    k! * ((k-1)!)^(n-1), R the number of reduced tables, and this is exact
    because f maps one-to-one onto (sigma, tau_2..tau_n, g): sigma is the
    symbol permutation read off axis 1 through the origin, tau_a the
    argument permutation of axis a, fixing 0, that turns axis a's origin
    line into sigma, and g = sigma^-1 f(x_1, tau_2 x_2, .., tau_n x_n) is
    reduced (the normalisation of McKay & Wanless, "A census of small
    Latin hypercubes", 2008).  The free cells are filled in the chosen
    visitation order.  Deterministic.
    """
    _check_time_limit(time_limit)
    _check_budget(n, k, budget)
    cells, pinned = _reduced(n, k, visit)
    multiplier = math.factorial(k) * math.factorial(k - 1) ** (n - 1)
    if not cells:
        return multiplier
    reduced = 0
    for _, m in _search(n, k, cells, pinned, time_limit):
        reduced += m.bit_count()
    return reduced * multiplier


def enumerate_tables(n, k, budget=DEFAULT_CELL_BUDGET,
                     time_limit=DEFAULT_TIME_LIMIT, visit="index"):
    """Yield every n-ary quasigroup of order k, in search order."""
    _check_time_limit(time_limit)
    _check_budget(n, k, budget)
    yield from _tables(n, k, _offsets(n, k, _visit_axes(n, visit)), {},
                       time_limit)


def bound_exponents(n, k):
    """log2 lower bounds on |Q(n,k)| by divisibility class of k.

    even: (k/2)^n when k is even.  div3: n*(k/3)^n when 3 | k.  five: the
    order-5 family size by n mod 3.  general: floor(k/2)*floor(k/3)^(n-1)
    for odd k >= 7 not divisible by 3.  Keys that do not apply are absent.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError("arity must be an integer >= 2")
    if not isinstance(k, int) or k < 4:
        raise ValueError("order must be an integer >= 4")
    out = {}
    if k % 2 == 0:
        out["even"] = (k // 2) ** n
    if k % 3 == 0:
        out["div3"] = n * (k // 3) ** n
    if k == 5:
        # 3^m, 4*3^(m-1) or 2*3^m, by n = 3m + rem
        m, rem = divmod(n, 3)
        out["five"] = (1, 4, 2)[rem] * 3 ** (m - (rem == 1))
    if k >= 7 and k % 2 == 1 and k % 3 != 0:
        out["general"] = (k // 2) * (k // 3) ** (n - 1)
    return out


def _certify_components(fam):
    """Check a component family: its log2 claim is its part count and each
    part has the base's shape; the rest is _certify_parts."""
    comps = fam.components
    s = len(comps)
    if fam.claimed_log2 != s:
        raise CertificationError(
            "family claims log2 = %d but carries %d components"
            % (fam.claimed_log2, s))
    base = fam.base
    for i, comp in enumerate(comps):
        if comp.shape != (base.arity, base.order):
            raise CertificationError(
                "component %d is a part of shape %r, the base has shape %r"
                % (i, comp.shape, (base.arity, base.order)))
    made = _certify_parts(base, [(comp.pair, comp.indices) for comp in comps])
    return s, {
        "path": "components",
        "component_count": s,
        "pairwise_disjoint": True,
        "flips_valid": True,
        "materialized": made,
        "distinct": True if made else None,
    }


def _certify_parts(base, parts):
    """Certify switching parts, each a (pair, cell indices): a Latin base,
    disjoint parts, valid single flips, and (when 2^s fits the cap) all
    2^s switched tables walked.  Returns the tables walked, 0 past the cap.

    Parts are nonempty and list each cell of the base at most once (the
    Component constructor refuses the rest; blocks are built so).  The
    base is validated once in full, so each axis line holds one a and
    one b and meets a part X of pair (a, b), whose cells hold a or b, in
    0, 1 or 2 cells; the flip keeps the line Latin unless it meets X
    once.  With c1 lines meeting X once and c2 twice, |X| = c1 + 2*c2
    and X meets c1 + c2 lines, so the flip is valid exactly when X meets
    |X|/2 distinct lines along each axis; along stride sd the line of
    cell idx starts at idx - (idx // sd % k) * sd.  Disjoint valid flips
    compose, so every switched table is Latin, and distinct: the parts
    are nonempty and a flip changes every cell of its part.  While 2^s
    fits the cap the patterns are still walked in Gray-code order, step
    i flipping part ctz(i), so that the count is of tables actually
    formed.  A table is its values read as one little-endian integer,
    and a flip XORs in the part's delta, a ^ b on its cells and 0
    elsewhere (on a cell holding a or b, v ^ a ^ b is a + b - v); the
    closing flip of the last part returns the walk to the base.
    """
    s = len(parts)
    taken = bytearray(len(base.values))
    for _, idxs in parts:
        for idx in idxs:
            if taken[idx]:
                # name the lowest i sharing a cell, then its lowest j
                sets = [set(idxs) for _, idxs in parts]
                raise CertificationError(
                    "components %d and %d share cells" % next(
                        (i, j) for i in range(s) for j in range(i + 1, s)
                        if not sets[i].isdisjoint(sets[j])))
            taken[idx] = 1
    rep = validate(base)
    if not rep.ok:
        bad = rep.violations[0]
        raise CertificationError(
            "base table is not Latin: axis %d line %r" % (bad.axis, bad.fixed))
    k = base.order
    strides = [k ** e for e in range(base.arity)]
    vals = base.values
    walk = 2 ** s <= MATERIALIZE_CAP
    deltas = []
    for i, (pair, idxs) in enumerate(parts):
        a, b = sorted(pair)
        for idx in idxs:
            if vals[idx] != a and vals[idx] != b:
                raise CertificationError(
                    "component %d does not switch: cell %r holds %d, not in "
                    "{%d,%d}" % (i, base.coords(idx), vals[idx], a, b))
        if walk:
            delta = bytearray(len(vals))
            for idx in idxs:
                delta[idx] = a ^ b
            deltas.append(int.from_bytes(delta, "little"))
        if any(2 * len({idx - idx // sd % k * sd for idx in idxs}) != len(idxs)
               for sd in strides):
            raise CertificationError(
                "component %d does not switch: the flip breaks the Latin "
                "property" % i)
    if not walk:
        return 0
    start = int.from_bytes(vals, "little")
    made = 0
    for table in _gray_tables(start, deltas):
        made += 1
    assert (table ^ deltas[-1] if deltas else table) == start
    return made


def _gray_tables(start, deltas):
    """Yield start, then start XOR the deltas of each other subset, in
    Gray-code order: step i XORs in delta ctz(i)."""
    table = start
    yield table
    for step in range(1, 2 ** len(deltas)):
        table ^= deltas[(step & -step).bit_length() - 1]
        yield table


class OmegaMap(_Record):
    """Assignment of one inner table of order s to every outer cell.

    assignment maps each tuple in {0..r-1}**n to a QTable of arity n and
    order s, for omega_product.  StructuralError refuses orders and arity
    that are not ints >= 1 (nor bools) and an assignment that is not a dict.
    """

    __slots__ = ("outer_order", "inner_order", "arity", "assignment")

    def __init__(self, outer_order, inner_order, arity, assignment):
        for name, v in zip(self.__slots__, (outer_order, inner_order, arity)):
            if type(v) is not int or v < 1:
                raise StructuralError("%s must be an integer >= 1" % name)
        if not isinstance(assignment, dict):
            raise StructuralError("assignment must be a dict")
        _Record.__init__(self, outer_order, inner_order, arity, assignment)

    def blocks(self):
        """The inner tables in index order of the outer cells, checked."""
        r, s, n = self.outer_order, self.inner_order, self.arity
        for y in itertools.product(range(r), repeat=n):
            t = self.assignment.get(y)
            if t is None:
                raise StructuralError("omega map misses block %r" % (y,))
            if not isinstance(t, QTable):
                raise StructuralError(
                    "omega block %r holds %r, not a table of shape (%d,%d)"
                    % (y, t, n, s))
            if t.arity != n or t.order != s:
                raise StructuralError(
                    "omega block %r has shape (%d,%d), want (%d,%d)"
                    % (y, t.arity, t.order, n, s))
            yield t


def _block_product(g, s, blocks):
    """Order r*s table holding g(y) * s + block_y(x) at the cell y*s + x
    (coordinatewise); blocks lists the order-s block_y for the cells y of
    g in index order, and is drawn only once the budget is checked."""
    n, kk = g.arity, g.order * s
    check_cell_budget(n, kk, StructuralError)
    axes = range(1, n + 1)
    cells = _offsets(n, kk, axes, range(s))
    # a list: an order past MAX_ORDER is left to the QTable constructor
    vals = [0] * kk ** n
    for corner, top, block in zip(_offsets(n, kk, axes, range(0, kk, s)),
                                  g.values, blocks):
        top *= s
        for c, v in zip(cells, block.values):
            vals[corner + c] = top + v
    return QTable(n, kk, vals)


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


def _certify_omega(n, k, seed):
    """Certify the block-product family for even k or 3 | k.

    The skeleton g is modular addition of order r = k/2 or k/3, and each
    of its r^n blocks may carry any inner quasigroup of order s = 2 or 3
    (the choices): block y's cell x holds g(y) * s + choice_y(x).  When
    all choices^blocks assignments fit MATERIALIZE_CAP (s = 2 there),
    the two choices must be one 0-1 flip apart.  Trading one for the
    other on block y then swaps the symbols 2g(y) and 2g(y) + 1 on its
    2^n cells, so the blocks are switching parts of the product with
    choice 0 everywhere (direct_product), and _certify_parts certifies
    and walks them.  Past the cap a seeded sample of 8 assignments, plus
    the least of them with block 0 changed, is built with _block_product
    and validated in full.
    """
    if k % 2 == 0:
        r, s_in = k // 2, 2
    elif k % 3 == 0:
        r, s_in = k // 3, 3
    else:
        raise ValueError("no block family for order %d" % k)
    g = from_function(n, r, lambda *x: sum(x) % r)
    choices = list(enumerate_tables(n, s_in))
    nchoices = len(choices)
    nblocks = r ** n
    if nchoices & (nchoices - 1) == 0:
        family_log2 = nblocks * (nchoices.bit_length() - 1)
    else:
        family_log2 = nblocks * math.log2(nchoices)

    sampled = nchoices ** nblocks > MATERIALIZE_CAP
    if sampled:
        rng = random.Random(seed)
        picks = set()
        while len(picks) < 8:
            picks.add(tuple(rng.randrange(nchoices) for _ in range(nblocks)))
        twin = list(min(picks))
        twin[0] = (twin[0] + 1) % nchoices
        picks.add(tuple(twin))
        seen = set()
        for assign in sorted(picks):
            t = _block_product(g, s_in, [choices[c] for c in assign])
            if not validate(t).ok:
                raise CertificationError("block product failed validation")
            if t.values in seen:
                raise CertificationError(
                    "two block assignments gave one table")
            seen.add(t.values)
        made = len(seen)
    else:
        # only s = 2 fits the cap, where Q(n, 2) is two tables
        if nchoices != 2 or any(
                a == b for a, b in zip(choices[0].values, choices[1].values)):
            raise CertificationError(
                "the block choices are not two tables one 0-1 flip apart")
        axes = range(1, n + 1)
        cells = _offsets(n, k, axes, range(2))
        made = _certify_parts(direct_product(g, choices[0]), [
            ((2 * top, 2 * top + 1), [corner + c for c in cells])
            for corner, top in zip(_offsets(n, k, axes, range(0, k, 2)),
                                   g.values)])
    return family_log2, {"path": "omega", "blocks": nblocks,
                         "choices": nchoices, "materialized": made,
                         "distinct": True, "sampled": sampled}


def verify_family(n, k, seed=0, budget=DEFAULT_CELL_BUDGET):
    """Build and certify the switching family for (n, k); k >= 4.

    Dispatch: order 5 and odd orders >= 7 prime to 3 use component
    families; even orders and multiples of 3 use the block product.  The
    certified family_log2 must reach every applicable exponent from
    bound_exponents, else CertificationError.

    Both families are certified from their parts by one certifier,
    _certify_parts.  The base is validated in full, and a part switches
    exactly when it meets half as many lines along each axis as it has
    cells; disjoint switching parts make all 2^s patterns Latin and
    distinct.  A component family's parts are its components; a walked
    block family's are its blocks, each a 0-1 flip of its order-2 block
    (_certify_omega).  While a family fits MATERIALIZE_CAP its tables are
    walked in Gray-code order, one big-integer XOR per step
    (_gray_tables), and counted as materialized.  Past the cap a block
    family is checked on a seeded sample of 9 tables, each validated in
    full.
    """
    t0 = time.monotonic()
    _check_budget(n, k, budget)
    bounds = bound_exponents(n, k)
    if k == 5 or (k % 2 == 1 and k % 3 != 0):
        # imported here: the block-product path needs only core
        from .families import build_family5, build_family_k

        fam = build_family5(n) if k == 5 else build_family_k(n, k)
        family_log2, cert = _certify_components(fam)
    else:
        family_log2, cert = _certify_omega(n, k, seed)
    needed = max(bounds.values())
    if family_log2 < needed:
        raise CertificationError(
            "family exponent %s is below the claimed bound %s"
            % (family_log2, needed))
    return CensusReport(n, k, None, bounds, family_log2,
                        time.monotonic() - t0, cert)


_EXACT_AUTO = {(2, 4), (2, 5), (3, 4)}


def run_census(n, k, budget=DEFAULT_CELL_BUDGET, exact="auto",
           time_limit=DEFAULT_TIME_LIMIT, seed=0):
    """Full report for (n, k): exact count when affordable, bounds, family.

    exact='auto' enumerates only the desk-scale cases with known-bounded
    runtimes: (2,4), (2,5), (3,4), and any k <= 3 while n * k**n fits the
    budget, since the search holds n line masks per cell; past that the
    count is None.  'on' forces the attempt, 'off' skips it.  A budget
    over core.BUILD_CELL_BUDGET is refused with BudgetError, and a time
    limit that is neither None nor a finite number of seconds > 0 with
    ValueError, whether or not a search runs.
    """
    _check_time_limit(time_limit)
    if exact not in ("auto", "on", "off"):
        raise ValueError("exact must be 'auto', 'on', or 'off'")
    _check_ceiling(n, k, budget)
    t0 = time.monotonic()
    exact_count = None
    if exact == "on" or (
            exact == "auto" and not _power_over(n, k, budget // n)
            and (k <= 3 or (n, k) in _EXACT_AUTO)):
        exact_count = enumerate_count(n, k, budget=budget,
                                      time_limit=time_limit)
    family_log2 = bounds = cert = None
    if k >= 4:
        rep = verify_family(n, k, seed=seed, budget=budget)
        bounds, family_log2, cert = (rep.bound_exponents, rep.family_log2,
                                     rep.certification)
    if (exact_count is not None and family_log2 is not None
            and family_log2 > math.log2(exact_count) + 1e-9):
        raise CertificationError(
            "family of 2^%s tables exceeds the exact count %d"
            % (family_log2, exact_count))
    return CensusReport(n, k, exact_count, bounds, family_log2,
                        time.monotonic() - t0, cert)
