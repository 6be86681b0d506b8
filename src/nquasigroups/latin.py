"""The exact Latin backtracker and the block-product family.

_search fills the free cells of a k^n table with one used-symbol bitmask
per axis line; census.enumerate_count counts with it and
census.enumerate_tables lists with it (_tables), each importing this
module when it runs, so a census that certifies a component family
compiles no search.  The block products (OmegaMap, omega_product,
direct_product, laid out by _block_product) are here too, with
_certify_omega, the family that census.verify_family certifies at even
orders and multiples of 3, whose inner choices the backtracker lists.
What it uses of census is imported at the top, which works because
census imports this module only inside the functions that run it.
"""

import itertools
import math
import random
import time

from .census import (MATERIALIZE_CAP, BudgetError, CertificationError,
                     _certify_parts, enumerate_tables)
from .core import (QTable, StructuralError, _offsets, _Record,
                   check_cell_budget, from_function, validate)

def _visit_axes(n, visit):
    """Axes whose _offsets list the cells in visitation order: 1..n, or
    n..1 for transposed order (lexicographic over reversed coordinates)."""
    if visit not in ("index", "transposed"):
        raise ValueError("visit must be 'index' or 'transposed'")
    return range(1, n + 1) if visit == "index" else range(n, 0, -1)

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
