"""Reference facet oracles on list rows, and the list-based span they use.

``oracle_facets`` is the direct reading of "closed corank-1 row subsets":
enumerate every independent (d-1)-subset of zone rows, take the closure
of its span and keep the distinct closures.  It visits each hyperplane
once per basis, C(|E|, d-1) subsets at worst, so it is only run on small
or sparse graphs.  ``oracle_facets_greedy`` reaches each hyperplane
through its greedy basis row by row, as ``oracle.oracle_facets`` did
before it walked parallel classes, re-reducing each row through the whole
span on every visit; it is fast enough for dense graphs on 8 to 10
vertices.  ``span_rank`` is the reference for
``oracle.packed_rank`` on list rows that ``pack`` packs.  All of it keeps
its own span arithmetic and its own zone matrix.  ``bareiss_clear`` is
the fraction-free (Bareiss) step on packed rows, at any pivot, with the
pivot of the step before as an argument.  ``oracle._clear`` takes only
unit steps, whose rows are the Bareiss rows up to sign, and raises at
any other pivot; the tests compare the two step by step, and put
``bareiss_clear`` with previous pivot 1 in the kernel's place.
"""

from math import gcd

from zonobelt.oracle import field_width
from zonobelt.zgraph import ZGraph, dimension


def bareiss_clear(rows, r: int, prev: int, width: int, bias: int):
    """One Bareiss step on packed rows: (rows cleared by r, r's pivot).

    The pivot column c of r is its lowest nonzero field and p the entry
    there; each v becomes (p*v - v[c]*r) // prev, where prev is the pivot
    of the step before (1 for the first).
    """
    shift = ((r & -r).bit_length() - 1) // width * width
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    p = ((r + bias) >> shift & mask) - half
    return [(p * v - (((v + bias) >> shift & mask) - half) * r) // prev for v in rows], p


def zone_matrix(g: ZGraph) -> list[tuple[int, ...]]:
    """One row e_i - e_j per edge (i, j), edges sorted."""
    rows = []
    for i, j in g.sorted_edges():
        row = [0] * g.n
        row[i] = 1
        row[j] = -1
        rows.append(tuple(row))
    return rows


def pack(rows) -> tuple[list[int], int, int]:
    """(packed rows, width, columns) of integer list rows, the arguments of
    ``oracle.packed_rank``: field i of a packed row holds entry i, and the
    width holds the Hadamard bound of the rows' minors."""
    columns = len(rows[0]) if rows else 0
    bound = 1
    for s in sorted((sum(x * x for x in r) for r in rows), reverse=True)[:columns]:
        bound *= max(s, 1)
    width = field_width(bound)
    return [sum(x << width * i for i, x in enumerate(r)) for r in rows], width, columns


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
        """A new span extended by v, or None if v is already in it."""
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
    """Supports of all closed corank-1 row subsets, as edge sets."""
    d = dimension(g)
    if d < 2:
        raise ValueError("need dimension >= 2")
    edges = g.sorted_edges()
    rows = zone_matrix(g)
    need = d - 1
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


def span_rank(rows) -> int:
    """Rank of integer rows, one IntSpan extension per independent row."""
    span = IntSpan()
    for row in rows:
        span = span.with_added(row) or span
    return span.rank


def _eliminate(v, row, c: int) -> list[int]:
    """v with column c cleared by row, whose pivot column is c, gcd divided out."""
    vc = v[c]
    if not vc:
        return v
    p = row[c]
    v = [p * x - vc * y for x, y in zip(v, row)]
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def oracle_facets_greedy(g: ZGraph) -> list[frozenset]:
    """Supports of all closed corank-1 row subsets, each reached once
    through its greedy basis.

    The backtracking picks rows in increasing index order.  A branch is cut
    as soon as a row it passed over while outside the span falls into it;
    each such row is kept as its residual modulo the span.  A support
    reached twice raises RuntimeError.
    """
    d = dimension(g)
    if d < 2:
        raise ValueError("need dimension >= 2")
    edges = g.sorted_edges()
    rows = zone_matrix(g)
    need = d - 1
    m = len(rows)
    found: set[frozenset] = set()
    inside: list[int] = []
    chosen: list[int] = []

    def extend(start: int, span: IntSpan, outside: list):
        mark = len(inside)
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
                    break
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
    """Same belt: the shared rows have rank d - 2, always found by elimination."""
    if s1 == s2:
        raise ValueError("identical supports")
    span = IntSpan()
    for i, j in sorted(s1 & s2):
        row = [0] * g.n
        row[i] = 1
        row[j] = -1
        span = span.with_added(row) or span
    return span.rank == dimension(g) - 2
