"""Reference definitions the library's fast paths are checked against.

These are the direct readings of the definitions: facets by a scan of
every vertex mask, belts built core by core with an explicit crossing-edge
test, Venkov and dual adjacency tested for every pair of facets, diameters
by one BFS per source node, and belt distance by a BFS that scans every
facet for each frontier node.  They are quadratic or worse, so the library
derives the same objects from one table of the connected vertex sets, one
pass over the codimension-2 cores, and belt distance from generated
neighbours, instead.  The core pass itself is kept here as the scan that
asked `connected_in` for every mask (`core_merges_scan`); the library reads
the table instead.  `partition_key` is the order the library's facet and
belt lists must follow, which it reaches without building the key.  The
full dual-neighbour table (`dual_neighbours`, walking each belt's
`dual_cycle`) lists both ends of every dual edge; the library keeps only
the lists of the facets whose first part holds vertex 0, written per belt
shape, and reads the others through x → −x.
"""

from zonobelt.faces import (
    Belt,
    enumerate_facets,
    unordered_pair,
    validate_partition,
)
from zonobelt.zgraph import ZGraph, bits


def partition_key(parts: tuple[int, ...]):
    """Deterministic sort key: (size of the part holding vertex 0, masks)."""
    zero_part = next(p for p in parts if p & 1)
    return (zero_part.bit_count(), parts)


def enumerate_facets_scan(g: ZGraph):
    """All ordered 2-partitions with both parts connected, from every mask."""
    full = g.full_mask
    out = []
    for a in range(1, full):
        b = full ^ a
        if g.connected_in(a) and g.connected_in(b):
            out.append((a, b))
    out.sort(key=partition_key)
    return out


def in_same_belt(g: ZGraph, f1, f2) -> bool:
    """Do the facet pairs {A,B} and {C,D} lie in a common belt?

    True iff exactly one of the four intersections is empty and the other
    three induce connected subgraphs.  Orientation-insensitive.
    """
    a, b = f1
    c, d = f2
    if {a, b} == {c, d}:
        raise ValueError("same facet pair")
    parts = (a & c, a & d, b & c, b & d)
    live = [p for p in parts if p]
    if len(live) != 3:
        return False
    return all(g.connected_in(p) for p in live)


def opposite(f):
    """The facet (B, A) of the facet (A, B)."""
    return (f[1], f[0])


def has_cross(g: ZGraph, a: int, b: int) -> bool:
    """Is there an edge with one endpoint in a and the other in b?"""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    return any(g.adj[v] & b for v in bits(a))


def belt_of(g: ZGraph, core) -> Belt:
    """The belt of a codimension-2 core: every facet it refines."""
    p, q, r = sorted(core)
    validate_partition(g, (p, q, r))
    members = []
    for merged, rest in ((p | q, r), (p | r, q), (q | r, p)):
        if g.connected_in(merged):
            members.append((merged, rest))
            members.append((rest, merged))
    directions = sum(
        1 for x, y in ((p, q), (p, r), (q, r)) if has_cross(g, x, y)
    )
    return Belt((p, q, r), tuple(members), directions)


def enumerate_codim2(g: ZGraph) -> list[Belt]:
    """All belts: every unordered 3-partition with connected parts."""
    full = g.full_mask
    cores = set()
    for a in range(1, full + 1, 2):         # a holds vertex 0
        rest = full ^ a
        b = rest
        while b:
            c = rest ^ b
            if c and b < c and all(g.connected_in(m) for m in (a, b, c)):
                cores.add(tuple(sorted((a, b, c))))
            b = (b - 1) & rest
    return [belt_of(g, c) for c in sorted(cores, key=partition_key)]


def core_merges_scan(g: ZGraph):
    """`faces._core_merges` as a submask scan over `connected_in`.

    Yields (p, q, r, pq, pr, qr) in the library's order: p runs down the
    masks holding vertex 0, q down the masks of the rest holding its least
    vertex, and every connectivity answer is one memoized `connected_in`.
    """
    full = g.full_mask
    conn = g.connected_in
    rest0 = full ^ 1
    sub = rest0
    while True:
        p = sub | 1
        rest = full ^ p
        if rest and conn(p):
            low = rest & -rest
            rest2 = rest ^ low
            sub2 = rest2
            while True:
                q = sub2 | low
                r = rest ^ q
                if r and conn(q) and conn(r):
                    yield p, q, r, conn(p | q), conn(p | r), conn(q | r)
                if sub2 == 0:
                    break
                sub2 = (sub2 - 1) & rest2
        if sub == 0:
            break
        sub = (sub - 1) & rest0


def facet_adjacent(g: ZGraph, f1, f2) -> bool:
    """Do the ordered facets f1 and f2 share a codimension-2 face?"""
    a, b = f1
    c, d = f2
    if f1 == f2:
        raise ValueError("identical facets")
    ac, ad, bc, bd = a & c, a & d, b & c, b & d
    live = [p for p in (ac, ad, bc, bd) if p]
    if len(live) != 3:
        return False
    if not all(g.connected_in(p) for p in live):
        return False
    if ac == 0:
        return not has_cross(g, a, c)
    if bd == 0:
        return not has_cross(g, b, d)
    return True


def _pairwise(nodes, related) -> list[int]:
    adj = [0] * len(nodes)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if related(nodes[i], nodes[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def build_venkov(g: ZGraph):
    """(nodes, adjacency): facet pairs joined when in_same_belt holds."""
    nodes = [f for f in enumerate_facets(g) if f[0] & 1]
    return nodes, _pairwise(nodes, lambda f1, f2: in_same_belt(g, f1, f2))


def build_dual(g: ZGraph):
    """(nodes, adjacency): ordered facets joined when facet_adjacent holds."""
    nodes = enumerate_facets(g)
    return nodes, _pairwise(nodes, lambda f1, f2: facet_adjacent(g, f1, f2))


def _bfs_masks(adj: list[int], src: int):
    """Yield (frontier mask, depth) layers of a bitmask BFS."""
    seen = 1 << src
    frontier = seen
    depth = 0
    while frontier:
        yield frontier, depth
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
        depth += 1


def farthest(adj: list[int], src: int) -> tuple[int, int]:
    """(eccentricity of src, lowest-index node realizing it)."""
    last = 0
    node = src
    seen = 0
    for frontier, depth in _bfs_masks(adj, src):
        last = depth
        node = (frontier & -frontier).bit_length() - 1
        seen |= frontier
    if seen != (1 << len(adj)) - 1:
        raise RuntimeError("graph is disconnected")
    return last, node


def eccentricity(adj: list[int], src: int) -> int:
    return farthest(adj, src)[0]


def diameter_witness(adj: list[int]) -> tuple[int, tuple[int, int]]:
    """(diameter, first node pair realizing it), one BFS per source."""
    best = -1
    pair = (0, 0)
    for i in range(len(adj)):
        ecc, j = farthest(adj, i)
        if ecc > best:
            best = ecc
            pair = (i, j)
    return best, pair


def belt_distance_reference(g: ZGraph, f1, f2):
    """(distance, path) by a BFS testing in_same_belt against every facet."""
    nodes = [f for f in enumerate_facets(g) if f[0] & 1]
    index = {f: i for i, f in enumerate(nodes)}
    key1, key2 = unordered_pair(f1), unordered_pair(f2)
    if key1 not in index or key2 not in index:
        raise ValueError("not a facet of this graph")
    src, dst = index[key1], index[key2]
    if src == dst:
        return 0, [nodes[src]]
    parent = {src: -1}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            fu = nodes[u]
            for v, fv in enumerate(nodes):
                if v in parent or not in_same_belt(g, fu, fv):
                    continue
                parent[v] = u
                if v == dst:
                    path = [v]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return len(path) - 1, [nodes[x] for x in path]
                nxt.append(v)
        frontier = nxt
    raise RuntimeError("facet pairs not connected in the Venkov graph")


def belt_neighbors_reference(g: ZGraph, a: int) -> list[int]:
    """Vertex-0 parts of the facet pairs in_same_belt with {a, V∖a}."""
    f = (a, g.full_mask ^ a)
    return [c for c, d in enumerate_facets(g)
            if c & 1 and c != a and in_same_belt(g, f, (c, d))]


def belt_neighbors_submasks(g: ZGraph, a: int) -> list[int]:
    """Vertex-0 parts of the neighbours of {a, V∖a}, from every submask.

    Walks every proper submask C of both sides P and keeps it when C and
    P∖C are connected and P∖C touches the other side O, so that C, P∖C, O
    is a core and {C, V∖C} a member of its belt.  That asks O to be
    connected, which it is for a facet pair; for any other 2-partition a
    side whose O is not connected adds nothing.
    """
    full = g.full_mask
    conn = g.connected_in
    adj = g.adj
    out = []
    for side in (a, full ^ a):
        other = full ^ side
        if not conn(other):
            continue
        touch = 0
        for v in bits(other):
            touch |= adj[v]
        sub = (side - 1) & side
        while sub:
            rest = side ^ sub
            if rest & touch and conn(sub) and conn(rest):
                out.append(sub if sub & 1 else full ^ sub)
            sub = (sub - 1) & side
    out.sort()
    out.sort(key=int.bit_count)
    return out


def dual_cycle(p: int, q: int, r: int, pq: int, pr: int, qr: int) -> tuple[int, ...]:
    """The first parts of a belt's 4 or 6 facets, in dual-cycle order.

    The arguments are one tuple `faces._core_merges` yields.  The facets of
    a belt form a cycle of the dual graph, one edge per codimension-2 face;
    writing [x] for (x | rest) and [xy] for (x∪y | rest), the cycle of a
    core whose three parts all touch is [p] [pq] [q] [qr] [r] [pr], and
    when x and y share no edge (z touching both) it is [x] [xz] [yz] [y].
    The cycle is closed under x → −x: its second half is the opposites of
    its first half, in the same order.
    """
    if pq and pr and qr:
        return (p, p | q, q, q | r, r, p | r)
    if not pq:
        return (p, p | r, q | r, q)
    if not pr:
        return (p, p | q, r | q, r)
    return (q, q | p, r | p, r)


def dual_neighbours(facets, cores) -> list:
    """The full dual-neighbour table: near[m] lists the first parts of the
    dual neighbours of every facet (m, V∖m), both ends of each edge of
    each belt's `dual_cycle`; a mask that is no facet's first part holds
    None."""
    full = facets[0][0] | facets[0][1]
    near = [None] * (full + 1)
    for a, _ in facets:
        near[a] = []
    for core in cores:
        cycle = dual_cycle(*core)
        at = cycle[-1]
        for m in cycle:
            near[at].append(m)
            near[m].append(at)
            at = m
    return near
