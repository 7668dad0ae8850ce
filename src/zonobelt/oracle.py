"""Exact-arithmetic referee for the partition-based face calculus.

Everything here works on integer zone matrices (rows e_i - e_j, one per
edge) with elimination at unit pivots; no floating point.  Facets are
recovered as closed corank-1 row subsets and codimension-2 faces as closed
rank-(d-2) row subsets (flats), independently of the connectivity
reasoning in the other modules.  Two facets share a belt exactly when
their supports meet in a rank-(d-2) flat.

One walk finds both (`oracle_facets`).  Each flat of rank d - 2 or d - 1
is reached once, through its greedy basis: the rows picked by scanning the
flat's rows in index order and keeping each one independent of those kept
so far.  The rows outside a node's span fall into parallel classes, and
only a class's lowest row can extend a greedy basis, taking the whole
class in, so the walk picks classes in the order of their lowest rows.
One elimination step carries the other classes to the child's span: those
that become parallel merge, and those parallel to a passed-over class are
dropped, as no greedy branch can take them in.  A node's support is its
parent's span and the picked class.  A support reached twice means that
invariant broke, and raises instead of being merged away.  A node builds
one list of its passed-over and own residuals, and each step clears that
whole list, the picked residual going to 0.  A node of rank d - 2 records
its children, the facets, in place.  A child that would take no step is
not built: one of rank d - 3 with at most one class has its one flat, if
any, recorded by its parent, and a lower one records nothing.

The class key is the residual up to sign: the zone matrix is a graph's
incidence matrix, hence totally unimodular, so every residual entry is a
minor in {-1, 0, 1} and parallel residuals are equal or opposite.  A key
that kept two parallel classes apart below rank d - 1 would leave a zero
residual at the next step, which raises too.  `oracle_same_belt` ranks
the overlap of two given supports on its own; an overlap of fewer than
d - 2 rows cannot reach that rank, so it is answered without elimination.

One kernel does every elimination.  A row is packed into one int with a
signed field of `width` bits per column, field i holding entry i, so a
row operation is a few big-int operations.  `_clear` clears the pivot
column c of r from every row v by the unit step v -> v - v[c]*(p*r),
with no product of v and no division, and raises at a pivot p that is
not a unit.  On a totally unimodular matrix every pivot is a unit, so
the walk and `packed_rank`, which both take only such rows, never raise.
Up to that raise each row is its fraction-free (Bareiss) row up to sign,
so every entry is a minor of the input rows up to sign; `field_width`
sizes the fields from the Hadamard bound on those minors, so no field
overflows and the pivot the raise names is exact.

The walk passes through at most min(C(|E|, r), S(n, n - r)) flats of each
rank r from 1 to d - 2 (`walk_bound`, S the Stirling numbers of the second
kind).  `oracle_facets` refuses a graph whose sum exceeds WALK_FLAT_CAP
before any elimination.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .zgraph import ZGraph, dimension

# flats of rank 1..d-2 the class walk may pass through, as `walk_bound`
# counts them before any oracle work: 115,462 for K10, the most of any
# graph on 10 vertices, and a few seconds of walk at the cap
WALK_FLAT_CAP = 10**6
# same-belt checks in one verification: F(F-1)/2 for F facet pairs.  511
# pairs, the most any graph on 10 vertices has, still pass.
SAME_BELT_PAIR_CAP = 511 * 510 // 2


class OracleBudgetError(Exception):
    """Raised when the oracle's work would exceed one of its caps."""


@lru_cache(maxsize=256)
def walk_bound(n: int, m: int, d: int) -> int:
    """At most how many flats of rank 1..d-2 the zone matrix of m rows on
    n vertices has.  A rank-r flat is the closure of r of its rows, and it
    is the set of rows inside the blocks of a partition of the vertices
    into n - r blocks, so there are at most min(C(m, r), S(n, n - r)) of
    them, S the Stirling numbers of the second kind."""
    stirling = [1]   # S(i, k) for k = 0..i
    for i in range(1, n + 1):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, i)] + [1]
    return sum(min(comb(m, r), stirling[n - r]) for r in range(1, d - 1))


def field_width(bound: int) -> int:
    """Bits per signed field that hold every minor of the rows, from the
    squared Hadamard bound: the product of the largest squared row norms,
    as many as a minor has rows (at most one per column)."""
    return (bound.bit_length() + 1) // 2 + 1


def _bias(width: int, columns: int) -> int:
    """Half the field range in each field: adding it makes every field of a
    packed row nonnegative, so a field reads off without borrows."""
    return (1 << width - 1) * (((1 << width * columns) - 1) // ((1 << width) - 1))


def _clear(rows, r: int, width: int, bias: int) -> list[int]:
    """One unit elimination step on packed rows: the rows cleared by r.

    The pivot column c of r is its lowest nonzero field and p the entry
    there.  Each v becomes v - v[c]*(p*r), with no product of v and no
    division.  A pivot that is not a unit raises: after unit steps only,
    each row is its Bareiss row up to sign, so every entry, p included, is
    a minor of the input rows up to sign and is read exactly.
    """
    shift = ((r & -r).bit_length() - 1) // width * width
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    p = ((r + bias) >> shift & mask) - half
    if p * p != 1:
        raise RuntimeError("pivot %d is not a unit: the rows are not totally unimodular" % p)
    r *= p
    # a loop, not a comprehension: a comprehension would make a closure
    # over five names at every step
    out = []
    for v in rows:
        out.append(v - (((v + bias) >> shift & mask) - half) * r)
    return out


def packed_rank(rows, width: int, columns: int) -> int:
    """Rank of totally unimodular packed rows with `columns` fields of
    `width` bits; the list is consumed.  Raises RuntimeError at a pivot
    that is not a unit."""
    bias = _bias(width, columns)
    rank = 0
    while rows:
        r = rows.pop()
        if r:
            rows = _clear(rows, r, width, bias)
            rank += 1
    return rank


def oracle_facets(g: ZGraph, flats: set | None = None) -> list[int]:
    """Supports of all closed corank-1 row subsets, ascending, each as an
    edge-index bitmask (bit k for the k-th sorted edge), from the class
    walk of the module docstring.  The support of each closed rank-(d-2)
    flat the walk passes through goes into `flats`, when given, likewise.

    Raises OracleBudgetError before any elimination when `walk_bound`
    exceeds WALK_FLAT_CAP.
    """
    d = dimension(g)
    if d < 2:
        raise ValueError("need dimension >= 2")
    edges = g.sorted_edges()
    m = len(edges)
    need = d - 1
    bound = walk_bound(g.n, m, d)
    if bound > WALK_FLAT_CAP:
        raise OracleBudgetError(
            "class walk over up to %d flats of rank 1..%d exceeds cap %d"
            % (bound, d - 2, WALK_FLAT_CAP)
        )
    width = field_width(1 << min(m, g.n))   # a zone row has squared norm 2
    bias = _bias(width, g.n)
    found: set[int] = set()
    # the only rank-0 flat is the closure of nothing: no zone row is 0
    codim2: set[int] = {0} if d == 2 else set()

    def reached_twice(support: int):
        return RuntimeError(
            "oracle reached the support %r twice"
            % [edges[j] for j in range(m) if support >> j & 1]
        )

    def extend(node_rows: list, base: int, masks: list, held: int, rank: int):
        # node_rows: the residuals of the classes passed over, then from
        # index base on those of the classes to pick, in the order of their
        # lowest rows, none parallel to another or to a passed-over class;
        # masks[t]: row bitmask of the t-th class to pick; held: bitmask of
        # the rows in the span; rank: the span's rank once a class is picked.
        # Each step clears all of node_rows, the picked residual going to 0
        res = node_rows[base:]
        if rank == need:   # only at the root, when d == 2: each row is a facet
            found.update(masks)
            return
        # a child needs need - 1 - rank later classes to reach rank d - 2,
        # and takes a step only with more than max(1, need - 2 - rank)
        stop = len(res) - max(1, need - 1 - rank)
        few = max(1, need - 2 - rank)
        at_flats = rank == need - 1   # each pick makes a flat of rank d - 2
        for t, r in enumerate(res):
            support = held | masks[t]
            if at_flats:
                if support in codim2:
                    raise reached_twice(support)
                codim2.add(support)
            if t >= stop:
                continue
            # one step takes the other classes to the child's span; abs() keys
            split = base + t
            cleared = _clear(node_rows, r, width, bias)
            passed = set(map(abs, cleared[:split]))
            later: dict[int, int] = {}
            for v, mask in zip(map(abs, cleared[split + 1:]), masks[t + 1:]):
                if v in later:
                    later[v] |= mask
                elif v not in passed:
                    later[v] = mask
            if 0 in passed or 0 in later:
                raise RuntimeError("oracle kept two parallel classes apart")
            if at_flats:   # the children are facets
                for mask in later.values():
                    mask |= support
                    if mask in found:
                        raise reached_twice(mask)
                    found.add(mask)
            elif len(later) > few:
                extend([*passed, *later], len(passed), list(later.values()), support, rank + 1)
            elif rank == need - 2:
                # the child would record its one flat, if any, and take no step
                for mask in later.values():
                    mask |= support
                    if mask in codim2:
                        raise reached_twice(mask)
                    codim2.add(mask)

    rows = [(1 << width * i) - (1 << width * j) for i, j in edges]
    extend(rows, 0, [1 << k for k in range(m)], 0, 1)
    if flats is not None:
        flats |= codim2
    return sorted(found)


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
    width = field_width(1 << min(len(shared), g.n))
    rows = [(1 << width * i) - (1 << width * j) for i, j in shared]
    return packed_rank(rows, width, g.n) == d - 2
