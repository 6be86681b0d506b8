"""Exact enumeration of small quasigroup spaces and certification of the
double-exponential lower-bound families.
The backtracker and the block products live in latin, which the exact
counts and the block family import when they run.
"""

import math
import sys
import time

from .core import BUILD_CELL_BUDGET, _offsets, _Record, _power_over, validate

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


def _check_ceiling(n, k, budget, seed=0):
    # a family is built as a whole table, which the builders cap at
    # BUILD_CELL_BUDGET cells; one ceiling holds for every census path
    for name, v in dict(arity=n, order=k, budget=budget, seed=seed).items():
        if type(v) is not int:
            raise ValueError("%s must be an integer, not %r" % (name, v))
    if budget > BUILD_CELL_BUDGET:
        raise BudgetError(
            "budget %d is over the %d-cell build budget "
            "(core.BUILD_CELL_BUDGET), the most cells any table is built with"
            % (budget, BUILD_CELL_BUDGET))
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")


def _check_budget(n, k, budget, seed=0):
    _check_ceiling(n, k, budget, seed)
    if _power_over(n, k, budget):
        raise BudgetError(
            "table has %d^%d cells, over the %d-cell budget; a search would "
            "touch at least that many nodes" % (k, n, budget))
    # only k = 1 gets here with n > budget: one cell, but n axes to pin
    if n > budget:
        raise BudgetError("arity %d is over the %d-cell budget; a search "
                          "pins a line per axis" % (n, budget))


def _check_time_limit(time_limit):
    """Refuse a time limit that is neither None nor an int or float (not a
    bool) in 0 < t <= sys.float_info.max, so a deadline can be formed."""
    if time_limit is not None and not (
            type(time_limit) in (int, float)
            and 0 < time_limit <= sys.float_info.max):
        raise ValueError("time limit must be a finite number of seconds > 0,"
                         " not %r" % (time_limit,))


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
    from .latin import _reduced, _search

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
    from .latin import _tables, _visit_axes

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
    (latin._certify_omega).  While a family fits MATERIALIZE_CAP its
    tables are walked in Gray-code order, one big-integer XOR per step
    (_gray_tables), and counted as materialized.  Past the cap a block
    family is checked on a seeded sample of 9 tables, each validated in
    full; a seed that is not an int is refused with ValueError.
    """
    t0 = time.monotonic()
    _check_budget(n, k, budget, seed)
    bounds = bound_exponents(n, k)
    if k == 5 or (k % 2 == 1 and k % 3 != 0):
        # imported here: each path compiles only its own family's code
        from .families import build_family5, build_family_k

        fam = build_family5(n) if k == 5 else build_family_k(n, k)
        family_log2, cert = _certify_components(fam)
    else:
        from .latin import _certify_omega

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
    over core.BUILD_CELL_BUDGET is refused with BudgetError, and a seed
    that is not an int or a time limit that is neither None nor a finite
    number of seconds > 0 with ValueError, whether or not a path runs.
    """
    _check_time_limit(time_limit)
    if exact not in ("auto", "on", "off"):
        raise ValueError("exact must be 'auto', 'on', or 'off'")
    _check_ceiling(n, k, budget, seed)
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
