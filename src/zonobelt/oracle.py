"""Exact-arithmetic referee for the partition-based face calculus.

Everything here works on integer zone matrices (rows e_i - e_j, one per
edge) with fraction-free elimination; no floating point.  Facets are
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
its children, the facets, in place.

The class key is the residual up to sign: the zone matrix is a graph's
incidence matrix, hence totally unimodular, so every residual entry is a
minor in {-1, 0, 1} and parallel residuals are equal or opposite.  A key
that kept two parallel classes apart below rank d - 1 would leave a zero
residual at the next step, which raises too.  `oracle_same_belt` ranks
the overlap of two given supports on its own; an overlap of fewer than
d - 2 rows cannot reach that rank, so it is answered without elimination.

One kernel does every elimination.  A row is packed into one int with a
signed field of `width` bits per column, field i holding entry i, so a
row operation is a few big-int operations.  `_clear` takes one
fraction-free (Bareiss) step, v -> (p*v - v[c]*r) // prev: by Sylvester's
identity the division is exact and every entry stays a minor of the input
rows.  `field_width` sizes the fields from the Hadamard bound on those
minors, so no field can overflow.
"""

from __future__ import annotations

from math import comb

from .zgraph import ZGraph, dimension

SUBSET_CAP = 10**8
# same-belt checks in one verification: F(F-1)/2 for F facet pairs.  511
# pairs, the most any graph on 10 vertices has, still pass.
SAME_BELT_PAIR_CAP = 511 * 510 // 2


class OracleBudgetError(Exception):
    """Raised when the oracle's work would exceed one of its caps."""


def field_width(bound: int) -> int:
    """Bits per signed field that hold every minor of the rows, from the
    squared Hadamard bound: the product of the largest squared row norms,
    as many as a minor has rows (at most one per column)."""
    return (bound.bit_length() + 1) // 2 + 1


def _bias(width: int, columns: int) -> int:
    """Half the field range in each field: adding it makes every field of a
    packed row nonnegative, so a field reads off without borrows."""
    return (1 << width - 1) * (((1 << width * columns) - 1) // ((1 << width) - 1))


def _clear(rows, r: int, prev: int, width: int, bias: int):
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


def packed_rank(rows, width: int, columns: int) -> int:
    """Rank of packed rows with `columns` fields of `width` bits; the list
    is consumed."""
    bias = _bias(width, columns)
    rank = 0
    prev = 1
    while rows:
        r = rows.pop()
        if r:
            rows, prev = _clear(rows, r, prev, width, bias)
            rank += 1
    return rank


def oracle_facets(g: ZGraph, flats: set | None = None) -> list[int]:
    """Supports of all closed corank-1 row subsets, ascending, each as an
    edge-index bitmask (bit k for the k-th sorted edge), from the class
    walk of the module docstring.  The support of each closed rank-(d-2)
    flat the walk passes through goes into `flats`, when given, likewise.
    """
    d = dimension(g)
    if d < 2:
        raise ValueError("need dimension >= 2")
    edges = g.sorted_edges()
    m = len(edges)
    need = d - 1
    if comb(m, need) > SUBSET_CAP:
        raise OracleBudgetError(
            "subset enumeration over C(%d,%d) exceeds cap" % (m, need)
        )
    width = field_width(1 << min(m, g.n))   # a zone row has squared norm 2
    bias = _bias(width, g.n)
    found: set[int] = set()
    # the only rank-0 flat is the closure of nothing: no zone row is 0
    codim2: set[int] = {0} if d == 2 else set()

    def record(seen: set, support: int):
        if support in seen:
            raise RuntimeError(
                "oracle reached the support %r twice"
                % [edges[j] for j in range(m) if support >> j & 1]
            )
        seen.add(support)

    def extend(res: list, masks: list, outside: list, prev: int, held: int, rank: int):
        # res[t], masks[t]: residual and row bitmask of class t, in the order
        # of their lowest rows, none parallel to another or to a passed-over
        # class; outside: residuals of the classes passed over; held: bitmask
        # of the rows in the span; rank: the span's rank once a class is picked
        if rank == need:   # only at the root, when d == 2
            for support in masks:
                record(found, support)
            return
        # one row list per node: r clears itself to 0, at index split
        node_rows = outside + res
        for t, r in enumerate(res):
            support = held | masks[t]
            if rank == need - 1:
                record(codim2, support)
            # a child needs need - 1 - rank later classes to reach rank d - 2
            if len(res) - t <= max(1, need - 1 - rank):
                continue
            # one step takes the other classes to the child's span; abs() keys
            split = len(outside) + t
            cleared, p = _clear(node_rows, r, prev, width, bias)
            passed = set(map(abs, cleared[:split]))
            later: dict[int, int] = {}
            for v, mask in zip(map(abs, cleared[split + 1:]), masks[t + 1:]):
                if v not in passed:
                    later[v] = later.get(v, 0) | mask
            if 0 in passed or 0 in later:
                raise RuntimeError("oracle kept two parallel classes apart")
            if rank == need - 1:   # the children are facets
                for mask in later.values():
                    record(found, support | mask)
            else:
                extend(list(later), list(later.values()), list(passed), p, support, rank + 1)

    rows = [(1 << width * i) - (1 << width * j) for i, j in edges]
    extend(rows, [1 << k for k in range(m)], [], 1, 0, 1)
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
