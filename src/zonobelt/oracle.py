"""Exact-arithmetic referee for the partition-based face calculus.

Everything here works on integer zone matrices (rows e_i - e_j, one per
edge) with fraction-free elimination; no floating point.  Facets are
recovered as closed corank-1 row subsets, belts as rank-(d-2) overlaps,
independently of the connectivity reasoning in the other modules.  An
overlap of fewer than d - 2 rows cannot reach that rank, so it is answered
without elimination.

Each facet hyperplane is reached once, through its greedy basis: the rows
picked by scanning the hyperplane's rows in index order and keeping each
one independent of those kept so far.  A support reached twice means that
invariant broke, and raises instead of being merged away.
"""

from __future__ import annotations

from math import comb, gcd

from .zgraph import ZGraph, dimension

SUBSET_CAP = 10**8
# same-belt checks in one verification: F(F-1)/2 for F facet pairs.  511
# pairs, the most any graph on 10 vertices has, still pass.
SAME_BELT_PAIR_CAP = 511 * 510 // 2


class OracleBudgetError(Exception):
    """Raised when the oracle's work would exceed one of its caps."""


def zone_matrix(g: ZGraph) -> list[tuple[int, ...]]:
    rows = []
    for i, j in g.sorted_edges():
        row = [0] * g.n
        row[i] = 1
        row[j] = -1
        rows.append(tuple(row))
    return rows


def exact_rank(rows) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    width = len(m[0])
    rank = 0
    prev = 1
    for col in range(width):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, len(m)):
            factor = m[r][col]
            row = m[r]
            top = m[rank]
            for k in range(width):
                row[k] = (pivot * row[k] - factor * top[k]) // prev
        prev = pivot
        rank += 1
        if rank == len(m):
            break
    return rank


def _eliminate(v, row, c: int) -> list[int]:
    """v with column c cleared by row, whose pivot column is c, gcd divided out."""
    vc = v[c]
    if not vc:
        return v
    p = row[c]
    v = [p * x - vc * y for x, y in zip(v, row)]
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


class IntSpan:
    """Growable integer row space with exact membership tests."""

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _reduce(self, v):
        for row, c in zip(self.rows, self.pivots):
            v = _eliminate(v, row, c)
        return v

    def contains(self, v) -> bool:
        return not any(self._reduce(v))

    def with_added(self, v):
        """A new span extended by v, or None if v is already in it.

        Stored rows are never mutated, so the child shares them.
        """
        r = self._reduce(v)
        for c, x in enumerate(r):
            if x:
                s = IntSpan()
                s.rows = self.rows + [r]
                s.pivots = self.pivots + [c]
                return s
        return None

    @property
    def rank(self) -> int:
        return len(self.rows)


def oracle_facets(g: ZGraph) -> list[frozenset]:
    """Supports of all closed corank-1 row subsets, as edge sets.

    Each hyperplane is reached once, through its greedy basis.  The
    backtracking picks rows in increasing index order, and every row it
    passes over is either inside the span built so far or outside it.  A
    basis is the greedy basis of its span exactly when no row passed over
    while outside ends up in the span, so a branch is cut as soon as one
    does.  An outside row is kept as its residual modulo the span, and it
    lies in the span extended by a new row exactly when one elimination
    step against that row clears it.  The support of a leaf is the inside
    rows, the chosen rows and the later rows the span contains.  A support
    reached twice would mean the pruning is wrong, so it raises
    RuntimeError instead of being merged.
    """
    d = dimension(g)
    if d < 2:
        raise ValueError("need dimension >= 2")
    edges = g.sorted_edges()
    rows = zone_matrix(g)
    need = d - 1
    if comb(len(rows), need) > SUBSET_CAP:
        raise OracleBudgetError(
            "subset enumeration over C(%d,%d) exceeds cap" % (len(rows), need)
        )
    m = len(rows)
    found: set[frozenset] = set()
    inside: list[int] = []    # rows passed over inside the span, this branch
    chosen: list[int] = []

    def extend(start: int, span: IntSpan, outside: list):
        # outside: residuals modulo span of the rows passed over outside it,
        # a fresh list per call
        mark = len(inside)
        # range end: leave enough rows to still reach corank 1
        for k in range(start, m - (need - span.rank) + 1):
            child = span.with_added(rows[k])
            if child is None:
                inside.append(k)
                continue
            r, c = child.rows[-1], child.pivots[-1]
            residuals = []
            for res in outside:
                res = _eliminate(res, r, c)
                if not any(res):
                    break   # not a greedy basis
                residuals.append(res)
            else:
                if child.rank == need:
                    support = frozenset(
                        edges[j] for j in inside + chosen + [k]
                        + [j for j in range(k + 1, m) if child.contains(rows[j])]
                    )
                    if support in found:
                        raise RuntimeError(
                            "oracle reached the support %r twice" % sorted(support)
                        )
                    found.add(support)
                else:
                    chosen.append(k)
                    extend(k + 1, child, residuals)
                    chosen.pop()
            outside.append(r)
        del inside[mark:]

    extend(0, IntSpan(), [])
    return sorted(found, key=lambda s: sorted(s))


def oracle_same_belt(g: ZGraph, s1: frozenset, s2: frozenset) -> bool:
    """Do two facet supports meet in a rank d-2 (codimension-2) zone set?

    A rank is at most the number of rows, so fewer than d - 2 shared edges
    answer False exactly, without elimination.
    """
    if s1 == s2:
        raise ValueError("identical supports")
    d = dimension(g)
    shared = s1 & s2
    if len(shared) < d - 2:
        return False
    rows = []
    for i, j in sorted(shared):
        row = [0] * g.n
        row[i] = 1
        row[j] = -1
        rows.append(row)
    return exact_rank(rows) == d - 2
