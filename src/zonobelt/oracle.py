"""Exact-arithmetic referee for the partition-based face calculus.

Everything here works on integer zone matrices (rows e_i - e_j, one per
edge) with fraction-free elimination; no floating point.  Facets are
recovered as closed corank-1 row subsets, belts as rank-(d-2) overlaps,
independently of the connectivity reasoning in the other modules.
"""

from __future__ import annotations

from math import comb, gcd

from .zgraph import ZGraph, dimension

SUBSET_CAP = 10**8


class OracleBudgetError(Exception):
    """Raised when the subset enumeration would exceed the evaluation cap."""


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


class IntSpan:
    """Growable integer row space with exact membership tests."""

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _reduce(self, v) -> list[int]:
        v = list(v)
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                p, vc = row[c], v[c]
                for k in range(len(v)):
                    v[k] = p * v[k] - vc * row[k]
                g = 0
                for x in v:
                    g = gcd(g, x)
                if g > 1:
                    for k in range(len(v)):
                        v[k] //= g
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

    Enumerates independent (d-1)-subsets of rows by backtracking, takes the
    closure of each span, and deduplicates.
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
    found: set[frozenset] = set()

    def extend(start: int, span: IntSpan):
        if span.rank == need:
            support = frozenset(
                edges[k] for k in range(len(rows)) if span.contains(rows[k])
            )
            found.add(support)
            return
        # range end: leave enough rows to still reach corank 1
        for k in range(start, len(rows) - (need - span.rank) + 1):
            child = span.with_added(rows[k])
            if child is not None:
                extend(k + 1, child)

    extend(0, IntSpan())
    return sorted(found, key=lambda s: sorted(s))


def oracle_same_belt(g: ZGraph, s1: frozenset, s2: frozenset) -> bool:
    """Do two facet supports meet in a rank d-2 (codimension-2) zone set?"""
    if s1 == s2:
        raise ValueError("identical supports")
    d = dimension(g)
    shared = s1 & s2
    rows = []
    for i, j in sorted(shared):
        row = [0] * g.n
        row[i] = 1
        row[j] = -1
        rows.append(row)
    return exact_rank(rows) == d - 2
