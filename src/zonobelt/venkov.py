"""Venkov graph: opposite-facet pairs joined when they share a belt.

Two facet pairs share a belt exactly when they are members of the belt of
one codimension-2 core, and every belt's 2 or 3 pairs are mutually
adjacent.  So the adjacency is read off the cores rather than by testing
every pair of facets: each belt's 4 or 6 facets form a dual cycle, and
the Venkov graph is the dual graph divided by x → −x, so pair i's
neighbours are the pairs of its facet's dual neighbours
(faces.belt_adjacency, over the table faces.dual_neighbours writes, which
lists only the facets whose first part holds vertex 0).  The
nodes and the cores are read off one table of the graph's connected
vertex sets behind the one guard of every belt query (faces._belt_faces).

Diameters grow every node's BFS ball at once: ball_1(i) is i with its
neighbours, and ball_{k+1}(i) joins ball_k(j) over i and its neighbours j,
read straight from the adjacency bitmask.  A node's eccentricity is the
first k at which its ball is full.  The whole graph takes one round per
unit of diameter, each at most one OR per adjacent pair, instead of one
BFS per source.

The central symmetry σ: x → −x maps each facet to its opposite; a
belt's dual cycle is closed under it and collapses onto the belt's Venkov
clique.  So a Venkov ball is the projection of the dual ball around
either facet of the pair, and σ makes half of the dual balls mirror
images of the other half.  `diameters` therefore grows the balls of one
facet per pair, the one whose first part holds vertex 0, over the dual
neighbour table, which lists neighbours for those facets only, and reads
both diameters off them; `diameter_witness` stays for dual.check_diameter_bound, which
reports a witness pair for each graph.

A belt distance needs neither.  Distance 1 is one pair test of the ends
(faces.in_same_belt), and distance 2 their least common neighbour
(faces.first_common_neighbour): {{0}, V∖{0}}, the least pair of all,
when three connectivity tests pass, and otherwise read off the four
intersections of their sides.  Only farther pairs list neighbours:
belt_neighbors reads a node's neighbours off the connected subsets of
each of its two parts (faces.connected_splits), so belt_distance never
lists the facets nor builds a table of the connected sets of the whole
vertex set.
"""

from __future__ import annotations

from .faces import FacetId, _belt_faces, belt_adjacency, connected_splits, dual_neighbours
from .faces import first_common_neighbour, in_same_belt, unordered_pair, validate_partition
from .zgraph import ZGraph, bits


def build_venkov(g: ZGraph) -> tuple[list[FacetId], list[int]]:
    """(nodes, adjacency): the facet pairs, vertex 0's part first, and their
    Venkov adjacency bitmasks."""
    facets, cores = _belt_faces(g)
    return [f for f in facets if f[0] & 1], belt_adjacency(facets, dual_neighbours(facets, cores))


def diameter_witness(adj: list[int]) -> tuple[int, tuple[int, int]]:
    """(diameter, first node pair realizing it) of a connected graph.

    The pair is the lowest node of largest eccentricity and the lowest node
    at that distance from it.  A disconnected graph raises RuntimeError
    with the message of `diameters`, so every diameter query reports a
    broken adjacency model alike.
    """
    full = (1 << len(adj)) - 1
    ball = [1 << i for i in range(len(adj))]
    active = [i for i in range(len(adj)) if ball[i] != full]
    diameter = 0
    pair = (0, 0)
    while active:
        diameter += 1
        grown = []
        for i in active:
            b = ball[i] | adj[i]            # all of ball_1(i)
            m = adj[i] if diameter > 1 else 0
            while m and b != full:
                low = m & -m
                m ^= low
                b |= ball[low.bit_length() - 1]
            if b == ball[i]:
                raise RuntimeError("dual graph disconnected: adjacency model violated")
            grown.append(b)
        first = active[0]
        outside = full ^ ball[first]
        pair = (first, (outside & -outside).bit_length() - 1)
        for i, b in zip(active, grown):
            ball[i] = b
        active = [i for i in active if ball[i] != full]
    return diameter, pair


def diameters(facets: list[FacetId], cores) -> tuple[int, int]:
    """(belt diameter, dual diameter) from one ball growth over the dual graph.

    facets and cores are the pair `facets_and_cores(g)` returns.  Node i is
    the i-th facet pair in Venkov order, with its part holding vertex 0
    first, and node i + N is its opposite.  x → −x maps node i to i + N and
    is an automorphism of the dual graph, so only the balls of i < N grow;
    the ball of i + N is the mirror image, its two halves of N bits
    swapped.  A belt's dual cycle collapses onto its Venkov clique, so the
    Venkov ball of radius k around pair i is the projection of the dual
    ball of radius k around either of its facets: pair i's eccentricity is
    the first k at which the ball reaches every pair.  Balls sit in a list
    indexed by each facet's first part, a vertex mask, like the neighbour
    lists of `faces.dual_neighbours`.  A disconnected dual graph raises
    RuntimeError("dual graph disconnected: adjacency model violated").
    """
    pairs = [a for a, _ in facets if a & 1]
    n = len(pairs)
    near = dual_neighbours(facets, cores)
    full = len(near) - 1
    ball = [0] * len(near)      # the facet (m, V∖m)'s ball, over node bits
    for i, a in enumerate(pairs):
        ball[a] = 1 << i
        ball[full ^ a] = 1 << (i + n)
    low = (1 << n) - 1
    done = (1 << 2 * n) - 1
    active = pairs
    belt = 1 if n > 1 else 0
    dual = 0
    while active:
        dual += 1
        grown = []
        for a in active:
            b = ball[a]
            for m in near[a]:
                b |= ball[m]
                if b == done:
                    break
            grown.append(b)
        for a, b in zip(active, grown):
            if b == ball[a]:
                raise RuntimeError("dual graph disconnected: adjacency model violated")
            ball[a] = b
            ball[full ^ a] = b >> n | (b & low) << n
            if (b | b >> n) & low != low:
                belt = dual + 1
        active = [a for a in active if ball[a] != done]
    return belt, dual


def belt_neighbors(g: ZGraph, a: int) -> list[int]:
    """Venkov neighbours of the facet pair {a, V∖a}, sorted like the facets.

    Each neighbour {C, V∖C} is named by its part holding vertex 0.  It shares
    a belt with {a, V∖a} exactly when C is a proper submask of one side P,
    C, rest = P∖C and the other side O are connected, and V∖C = O ∪ rest is
    connected, which holds exactly when rest touches O.

    So each side P is split into two connected parts (connected_splits),
    and either part is a neighbour
    when the other touches O.  O is connected when {a, V∖a} is a facet
    pair; for any other 2-partition a side is skipped when O is not, so the
    list still holds the facet pairs that share a belt with it.
    """
    full = g.full_mask
    adj = g.adj
    out = []
    for side in (a, full ^ a):
        if not g.connected_in(full ^ side):
            continue
        touch = 0
        for v in bits(full ^ side):
            touch |= adj[v]
        for part in connected_splits(g, side):
            rest = side ^ part
            if rest & touch:
                out.append(part if part & 1 else full ^ part)
            if part & touch:
                out.append(rest if rest & 1 else full ^ rest)
    out.sort()
    out.sort(key=int.bit_count)
    return out


def _discovered(g: ZGraph, src: int):
    """(node, parent) in the discovery order of a BFS from src; src first."""
    yield src, None
    seen = {src}
    queue = [src]
    for u in queue:                     # grows while read: a FIFO queue
        for v in belt_neighbors(g, u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
                yield v, u


def _pair_key(g: ZGraph, f) -> FacetId:
    if len(f) == 2:
        try:
            return validate_partition(g, tuple(unordered_pair(f)))
        except ValueError:
            pass
    raise ValueError("not a facet of this graph")


def belt_distance(g: ZGraph, f1: FacetId, f2: FacetId):
    """(BFS distance between the facet pairs, one shortest belt path).

    The path is the one a BFS over the sorted facet list returns, and its
    ends are f1 and f2 with vertex 0's part first.  Distance 1 is one
    `in_same_belt` test of the ends.  Distance 2 goes through their least
    common neighbour (`first_common_neighbour`), with no neighbour list:
    neighbour lists sort alike, so the BFS meets the least of the source's
    neighbours that is next to the goal first.  Only farther pairs list
    neighbours (belt_neighbors) and run the BFS, which generates neighbours
    instead of scanning every facet and stops at the first node it finds
    next to the goal, so the last level is never expanded.  Nodes are
    expanded in discovery order over sorted neighbour lists.  The graph
    must have at least 3 vertices and be connected, as for every belt
    query.
    """
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    if not g.connected_in(g.full_mask):
        raise ValueError("graph must be connected")
    start, goal = _pair_key(g, f1), _pair_key(g, f2)
    src, dst = start[0], goal[0]
    if src == dst:
        return 0, [start]
    full = g.full_mask
    if in_same_belt(g, src, dst):
        return 1, [start, goal]
    w = first_common_neighbour(g, src, dst)
    if w is not None:
        return 2, [start, (w, full ^ w), goal]
    near = set(belt_neighbors(g, dst))
    parent = {}
    for v, u in _discovered(g, src):
        parent[v] = u
        if v in near:
            break
    else:
        raise RuntimeError("facet pairs not connected in the Venkov graph")
    path = [goal]
    while v != src:
        path.append((v, full ^ v))
        v = parent[v]
    path.append(start)
    path.reverse()
    return len(path) - 1, path


def belt_diameter(g: ZGraph) -> int:
    return diameters(*_belt_faces(g))[0]
