"""Face calculus on connected-part partitions.

A codimension-k face of the zonotope of a connected graph is an ordered
partition of the vertex set into k+1 parts, each inducing a connected
subgraph.  Facets are the 2-part case; a belt collects the 4 or 6 facets
parallel to a codimension-2 face, whose core is the unordered 3-partition.

Both are read off one table of the connected vertex sets of a graph
(`connected_table`): a facet is a part a holding vertex 0 with a and V∖a
connected, and the core pass (`_core_merges`) reads every connectivity
answer from the same table, so `facets_and_cores` builds it once for
both.  Every belt query applies one rule: at least 3 vertices, then a
connected graph.  `_belt_faces` checks the size and then calls
`facets_and_cores`, which refuses a disconnected graph;
`venkov.belt_distance`, which builds no connectivity table, checks both
in the same order, with the same messages.
`connected_splits` lists the splits of one side into two connected
parts, for the belt neighbours of one facet pair, with no connectivity
test per part.  Both read their sets off one walk, `connected_sets`,
which lists the connected subsets of a side, each once.  `in_same_belt`
tests one pair of facet pairs for a shared belt, by bit tests and at most
one connectivity walk.  `first_common_neighbour` finds the least facet
pair sharing a belt with both of two pairs: the least of all, {0}, by
three `reach` calls, and otherwise from one `connected_sets` walk of each
intersection of their sides, so a belt distance of at most 2 needs no
neighbour list.

`dual_neighbours` lists, by first part, the dual neighbours of each
facet whose first part holds vertex 0, written per belt shape from the
core pass's merge bits; the other half of the dual graph is their mirror
image under x → −x.  `belt_adjacency` reads the Venkov graph off that
table, `dual.dual_adjacency` the dual graph and `venkov.diameters` both
diameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import and_, attrgetter

from .zgraph import ZGraph, bits, reach

# A facet is an ordered pair of vertex bitmasks (a, b); (b, a) is the
# opposite facet.  Ordered partitions in general are tuples of bitmasks.
FacetId = tuple[int, int]


def unordered_pair(f: FacetId) -> FacetId:
    """Canonical representative of {A,B}: the part with vertex 0 first."""
    return f if f[0] & 1 else (f[1], f[0])


def validate_partition(g: ZGraph, parts) -> tuple[int, ...]:
    """Check disjoint nonempty connected parts covering all vertices."""
    acc = 0
    for p in parts:
        if p == 0:
            raise ValueError("empty part")
        if p & acc:
            raise ValueError("parts not disjoint")
        acc |= p
        if not g.connected_in(p):
            raise ValueError("part does not induce a connected subgraph")
    if acc != g.full_mask:
        raise ValueError("parts do not cover the vertex set")
    return tuple(parts)


def connected_sets(g: ZGraph, side: int) -> list[int]:
    """The connected subsets of side, each once, grown from its least vertex
    v with the vertices below v and outside side banned.  Each branch adds
    one extension vertex, whose neighbours outside banned join the
    extension and banned, so an entry grows once each connected superset
    of its set that meets banned only in the set and its extension."""
    adj = g.adj
    outside = g.full_mask ^ side
    stack = []
    for v in bits(side):
        ban = (2 << v) - 1 | outside    # v, every vertex below it, the outside
        stack.append((1 << v, adj[v] & ~ban, adj[v] | ban))
    out = []
    while stack:
        part, ext, ban = stack.pop()
        out.append(part)
        while ext:
            v = ext & -ext
            ext ^= v
            new = adj[v.bit_length() - 1] & ~ban
            stack.append((part | v, ext | new, ban | new))
    return out


def in_same_belt(g: ZGraph, a: int, c: int) -> bool:
    """Do the distinct facet pairs {a, V∖a} and {c, V∖c} share a belt?

    a and c are the parts holding vertex 0.  The pairs share a belt exactly
    when one of the four intersections of their parts is empty and the
    other three are connected.  a∩c holds vertex 0, and one of a∖c, c∖a,
    V∖(a∪c) is empty exactly when c ⊃ a, a ⊃ c or a∪c = V.  Then two of
    the three live parts are sides of the pairs, connected already, and
    only the part between them, c∖a, a∖c or a∩c, is tested, by one
    unmemoised `reach`.
    """
    if not a & ~c or not c & ~a:    # a ⊂ c or c ⊂ a: c∖a or a∖c
        mid = a ^ c
    elif a | c == g.full_mask:
        mid = a & c
    else:
        return False
    return reach(g.adj, mid & -mid, mid) == mid


def first_common_neighbour(g: ZGraph, a: int, b: int) -> int | None:
    """The part holding vertex 0 of the least facet pair, by size and then
    mask, sharing a belt with both of the distinct facet pairs {a, V∖a}
    and {b, V∖b}; None when there is none.

    Such a pair {X, V∖X} has a side X strictly inside a side P of the
    first pair; write P' = V∖P, and Q, Q' for the sides of the second.
    (i)  X ⊊ Q: X is a connected subset of the cell P∩Q other than P and
         Q, P∖X and Q∖X are connected, and V∖X = P' ∪ P∖X is then
         connected exactly when P∖X touches P' (and Q∖X touches Q').
    (ii) V∖X ⊊ Q: the pairs nest, Q' ⊊ P, and X = Q' ∪ S with S and
         (P∩Q)∖S nonempty and connected, S touching Q' and (P∩Q)∖S
         touching P'.
    So one `connected_sets` walk per nonempty cell lists every candidate
    once.  Bit tests come first; only P∖X and Q∖X in case (i) take a
    `reach`, and candidates are tried in sorted order.

    The least key, 1, is tried before any walk: every other part holding
    vertex 0 has more vertices.  {{0}, V∖{0}} is a common neighbour exactly
    when a ≠ 1, b ≠ 1, a∖{0} and b∖{0} are connected (the `in_same_belt`
    tests of {0} ⊂ a and {0} ⊂ b) and V∖{0} is, so that it is a facet
    pair: three `reach` calls and no walk.
    """
    full = g.full_mask
    adj = g.adj
    if a != 1 != b and all(reach(adj, m & -m, m) == m for m in (a ^ 1, b ^ 1, full ^ 1)):
        return 1
    touch = dict.fromkeys((a, full ^ a, b, full ^ b), 0)    # side -> its neighbours
    for v, near in enumerate(adj):
        touch[a if a >> v & 1 else full ^ a] |= near
        touch[b if b >> v & 1 else full ^ b] |= near
    found = {}      # vertex 0's part -> the masks left to test by reach
    for p in (a, full ^ a):
        out_p = touch[full ^ p]
        for q in (b, full ^ b):
            cell = p & q
            if not cell:
                continue
            out_q = touch[full ^ q]
            sets = connected_sets(g, cell)
            for x in sets:
                if x != p and x != q and (p ^ x) & out_p and (q ^ x) & out_q:
                    found[x if x & 1 else full ^ x] = (p ^ x, q ^ x)
            if p | q == full:       # the pairs nest: V∖q ⊊ p
                conn = set(sets)
                for s in sets:
                    rest = cell ^ s
                    if s & out_q and rest & out_p and rest in conn:
                        x = (full ^ q) | s
                        found[x if x & 1 else full ^ x] = ()
    keys = sorted(found)
    keys.sort(key=int.bit_count)
    for x in keys:
        for m in found[x]:
            if reach(adj, m & -m, m) != m:
                break
        else:
            return x
    return None


def connected_splits(g: ZGraph, side: int) -> list[int]:
    """The splits of side into two connected parts, each named once by its
    part C holding side's least vertex: C and side∖C are both listed by
    one `connected_sets` walk, which never lists the empty set."""
    sets = connected_sets(g, side)
    low = side & -side
    conn = bytearray(side + 1)
    for part in sets:
        conn[part] = 1
    return [part for part in sets if part & low and conn[side ^ part]]


def connected_table(g: ZGraph) -> bytearray:
    """table[m] is 1 exactly when m is a nonempty connected vertex set."""
    table = bytearray(1 << g.n)
    for part in connected_sets(g, g.full_mask):
        table[part] = 1
    return table


def enumerate_facets(g: ZGraph) -> list[FacetId]:
    """All ordered 2-partitions with both parts connected, sorted."""
    return facets_and_cores(g)[0]


def facets_and_cores(g: ZGraph):
    """(enumerate_facets(g), the `_core_merges` generator), from one
    `connected_table`."""
    conn = connected_table(g)
    if not conn[g.full_mask]:
        raise ValueError("graph must be connected")
    if g.n < 2:
        raise ValueError("need at least 2 vertices")
    return _facets(g, conn), _core_merges(g, conn)


def _belt_faces(g: ZGraph):
    """`facets_and_cores(g)` for a belt query: every belt query needs a
    connected graph on at least 3 vertices (dimension >= 2)."""
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    return facets_and_cores(g)


def _facets(g: ZGraph, conn: bytearray) -> list[FacetId]:
    """The facets read off conn = connected_table(g), sorted.

    Partitions sort by the size of their part holding vertex 0, then by
    their parts.  A part a holding vertex 0 names the facets (a, V∖a) and
    (V∖a, a) when conn[a] and conn[V∖a], and a is the part holding vertex
    0 of both, so facets sort by |a|, then by first part.
    """
    full = g.full_mask
    by_size = [[] for _ in range(g.n)]
    # for odd a, V∖a = full - a: conn[1::2] pairs with conn[full - 1::-2]
    for a in compress(range(1, full, 2), map(and_, conn[1::2], conn[full - 1::-2])):
        by_size[a.bit_count()] += (a, full ^ a)
    out = []
    for firsts in by_size:
        firsts.sort()
        out += [(a, full ^ a) for a in firsts]
    return out


@dataclass(frozen=True, slots=True)
class Belt:
    core: tuple[int, int, int]      # unordered 3-partition, masks ascending
    members: tuple[FacetId, ...]    # the 4 or 6 facets parallel to the core
    directions: int                 # nonempty crossing-edge classes, 2 or 3


def _core_merges(g: ZGraph, conn: bytearray):
    """Yield (p, q, r, pq, pr, qr) once per codimension-2 core.

    p, q, r are the parts of an unordered 3-partition with connected parts:
    p holds vertex 0 and q the least vertex outside p.  pq, pr and qr are
    the merge bits, 1 when p|q, p|r, q|r is connected and 0 otherwise;
    for connected parts x and y, x|y is connected exactly when an edge
    crosses between them, so the bits name the belt's members and its
    crossing directions.  Every connectivity answer is read from
    conn = connected_table(g).
    """
    full = g.full_mask
    rest0 = full ^ 1
    sub = rest0
    while True:
        p = sub | 1
        rest = full ^ p
        if rest and conn[p]:
            low = rest & -rest
            rest2 = rest ^ low
            sub2 = rest2
            while True:
                q = sub2 | low
                r = rest ^ q
                if r and conn[q] and conn[r]:
                    yield p, q, r, conn[p | q], conn[p | r], conn[q | r]
                if sub2 == 0:
                    break
                sub2 = (sub2 - 1) & rest2
        if sub == 0:
            break
        sub = (sub - 1) & rest0


def enumerate_codim2(g: ZGraph) -> list[Belt]:
    """All belts, one per unordered 3-partition with connected parts.

    Members are the facet list's own tuples, so belts share them: the belt
    list is the largest object a query builds (several MB at 10 vertices)."""
    facets, cores = _belt_faces(g)
    full = g.full_mask
    facet = [None] * (full + 1)
    for f in facets:
        facet[f[0]] = f
    belts = []
    for p, q, r, pq, pr, qr in cores:
        members = []
        # with the core ascending (a, b, c) the merges run a|b, a|c, b|c,
        # i.e. by the part left out, descending
        for rest, ok in sorted(((r, pq), (q, pr), (p, qr)), reverse=True):
            if ok:
                members += (facet[full ^ rest], facet[rest])
        belts.append(Belt(tuple(sorted((p, q, r))), tuple(members), pq + pr + qr))
    # sorted like the facets, by the size of the part holding vertex 0 and
    # then by the parts, from two stable sorts whose keys allocate nothing
    belts.sort(key=attrgetter("core"))
    belts.sort(key=_zero_part_size)
    return belts


def _zero_part_size(belt: Belt) -> int:
    a, b, c = belt.core
    return (a if a & 1 else b if b & 1 else c).bit_count()


def dual_neighbours(facets: list[FacetId], cores) -> list:
    """Half of the dual graph as lists indexed by vertex mask, with no node
    indices.

    facets and cores are the pair `facets_and_cores(g)` returns, the cores
    as that generator or as a list of what it yields.  For a part a holding
    vertex 0, near[a] lists the first parts of the dual neighbours of the
    facet (a, V∖a), one per codimension-2 face it holds; every other mask
    holds None.  x → −x maps the facet (V∖a, a) and its neighbours to
    (a, V∖a) and theirs, so the neighbours of (V∖a, a) are the opposites
    of those listed for a.

    The facets of a belt form a cycle of the dual graph, one edge per
    codimension-2 face.  Writing [x] for (x | rest) and [xy] for
    (x∪y | rest), the cycle of a core whose three parts all touch is
    [p] [pq] [q] [qr] [r] [pr], and when x and y share no edge (z touching
    both) it is [x] [xz] [yz] [y].  With p holding vertex 0, the facets
    whose first part holds it are those of [p], [pq] and [pr] in the
    belt: each gets its two cycle neighbours, read straight off the merge
    bits.
    """
    full = facets[0][0] | facets[0][1]
    near = [None] * (full + 1)
    for a, _ in facets:
        if a & 1:
            near[a] = []
    for p, q, r, pq, pr, qr in cores:
        if pq and pr and qr:    # [p] [pq] [q] [qr] [r] [pr]
            near[p] += (p | q, p | r)
            near[p | q] += (p, q)
            near[p | r] += (r, p)
        elif not pq:            # [p] [pr] [qr] [q]
            near[p] += (q, p | r)
            near[p | r] += (p, q | r)
        elif not pr:            # [p] [pq] [qr] [r]
            near[p] += (r, p | q)
            near[p | q] += (p, q | r)
        else:                   # [q] [pq] [pr] [r]
            near[p | q] += (q, p | r)
            near[p | r] += (p | q, r)
    return near


def belt_adjacency(facets: list[FacetId], near: list) -> list[int]:
    """Venkov adjacency bitmasks of the facet pairs (vertex 0's part first),
    read off near = `dual_neighbours`: the Venkov graph is the dual graph
    divided by x → −x, so a pair's row ORs the pair bits of its facet's
    dual neighbours, and both facets of a pair share its bit."""
    full = len(near) - 1
    bit = [0] * len(near)
    pairs = [a for a, _ in facets if a & 1]
    for i, a in enumerate(pairs):
        bit[a] = bit[full ^ a] = 1 << i
    # OR, not sum: a facet of a 4-cycle [x] [xz] [yz] [y] neighbours both
    # facets of the pair {y, xz}
    out = []
    for a in pairs:
        row = 0
        for m in near[a]:
            row |= bit[m]
        out.append(row)
    return out
