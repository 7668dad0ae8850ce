"""Dual edge graph: facets adjacent when they share a codimension-2 face.

Two ordered facets (A,B) and (C,D) share a codimension-2 face exactly when
one of the four intersections A∩C, A∩D, B∩C, B∩D is empty, the remaining
three induce connected subgraphs, and the orientations agree.  The empty
slot decides the orientation condition: A∩D = 0 or B∩C = 0 means one facet
refines the other on a side (always consistent), while A∩C = 0 or B∩D = 0
puts the two disjoint parts on opposite sides of both facets, which is
consistent only when no edge joins them.

That definition is not evaluated pair by pair.  Every codimension-2 face
lies in exactly two facets, both in the belt of its core {x, y, z}, so the
belt's 4 or 6 facets form a cycle and the edges come from one pass over
the cores (faces.dual_cycle, walked by faces.dual_neighbours).  For an
ordering (x, y, z) of a core in which x-y and y-z carry crossing edges,
the face x < y < z lies in (x | y∪z) and (x∪y | z).  When x and y share
no edge (so both cross z), the faces with x, y incomparable link
(x | y∪z) with (y | x∪z), and (y∪z | x) with (x∪z | y).

Each such cycle is closed under σ: x → −x, which swaps every facet with
its opposite, so σ is an automorphism of the dual graph and the Venkov
graph is its quotient by σ.  `dual_diameter` therefore grows balls for
only half of the facets, one per opposite pair, and mirrors the rest
(venkov.diameters).  `check_diameter_bound` reports witness pairs, so it
grows every node's ball (venkov.diameter_witness) in both adjacencies,
read off one table of dual neighbours.
"""

from __future__ import annotations

from .faces import FacetId, belt_adjacency, dual_neighbours, facets_and_cores, neighbour_rows
from .venkov import diameter_witness, diameters
from .zgraph import ZGraph, dimension


def dual_diameter(g: ZGraph) -> int:
    if g.n < 3 or dimension(g) < 2:
        raise ValueError("need a connected graph of dimension >= 2")
    try:
        return diameters(*facets_and_cores(g))[1]
    except RuntimeError:
        raise RuntimeError("dual graph disconnected: adjacency model violated")


def dual_adjacency(facets: list[FacetId], near: list) -> list[int]:
    """Dual adjacency bitmasks of the facets, read off faces.dual_neighbours."""
    bit = [0] * len(near)
    for i, (a, _) in enumerate(facets):
        bit[a] = 1 << i
    return neighbour_rows(near, bit, [a for a, _ in facets])


def check_diameter_bound(g: ZGraph) -> dict:
    """Compute both diameters and test dual <= belt + 1, with witnesses."""
    if g.n < 3:
        raise ValueError("need at least 3 vertices")
    facets, cores = facets_and_cores(g)
    near = dual_neighbours(facets, cores)
    vadj, dadj = belt_adjacency(facets, near), dual_adjacency(facets, near)
    pairs = [f for f in facets if f[0] & 1]
    belt, (bi, bj) = diameter_witness(vadj)
    dual, (di, dj) = diameter_witness(dadj)
    return {
        "belt_diameter": belt,
        "belt_witness": (pairs[bi], pairs[bj]),
        "dual_diameter": dual,
        "dual_witness": (facets[di], facets[dj]),
        "bound_holds": dual <= belt + 1,
    }
