"""Venkov graph: opposite-facet pairs joined when they share a belt.

Two facet pairs share a belt exactly when they are members of the belt of
one codimension-2 core, and every belt's 2 or 3 pairs are mutually
adjacent.  So the adjacency is built from one pass over the cores
(faces.belt_adjacency), joining each belt's pairs into a clique, rather
than by testing every pair of facets.

Diameters grow every node's BFS ball at once: ball_1(i) is i with its
neighbours, and ball_{k+1}(i) joins ball_k(j) over i and its neighbours j,
read straight from the adjacency bitmask.  A node's eccentricity is the
first k at which its ball is full.  The whole graph takes one round per
unit of diameter, each at most one OR per adjacent pair, instead of one
BFS per source.
"""

from __future__ import annotations

from .faces import FacetId, belt_adjacency, enumerate_facets, in_same_belt, unordered_pair
from .zgraph import ZGraph


class VenkovGraph:
    """Nodes are unordered facet pairs (stored with vertex 0's part first)."""

    def __init__(self, nodes: list[FacetId], adj: list[int]):
        self.nodes = nodes
        self.adj = adj                      # bitmask over node indices


def build_venkov(g: ZGraph) -> VenkovGraph:
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    facets = enumerate_facets(g)
    adj, _ = belt_adjacency(g, facets, dual=False)
    return VenkovGraph([f for f in facets if f[0] & 1], adj)


def diameter_witness(adj: list[int]) -> tuple[int, tuple[int, int]]:
    """(diameter, first node pair realizing it) of a connected graph.

    The pair is the lowest node of largest eccentricity and the lowest node
    at that distance from it.  Raises RuntimeError when disconnected.
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
                raise RuntimeError("graph is disconnected")
            grown.append(b)
        first = active[0]
        outside = full ^ ball[first]
        pair = (first, (outside & -outside).bit_length() - 1)
        for i, b in zip(active, grown):
            ball[i] = b
        active = [i for i in active if ball[i] != full]
    return diameter, pair


def belt_distance(g: ZGraph, f1: FacetId, f2: FacetId):
    """(BFS distance between the facet pairs, one shortest belt path).

    Neighbors are computed lazily so a short distance never pays for the
    full Venkov adjacency of a large instance.
    """
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


def belt_diameter(g: ZGraph) -> int:
    return diameter_witness(build_venkov(g).adj)[0]
