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
the cores (faces.dual_neighbours).  For an
ordering (x, y, z) of a core in which x-y and y-z carry crossing edges,
the face x < y < z lies in (x | y∪z) and (x∪y | z).  When x and y share
no edge (so both cross z), the faces with x, y incomparable link
(x | y∪z) with (y | x∪z), and (y∪z | x) with (x∪z | y).

Each such cycle is closed under σ: x → −x, which swaps every facet with
its opposite, so σ is an automorphism of the dual graph and the Venkov
graph is its quotient by σ.  So the table of dual neighbours lists only
the facets whose first part holds vertex 0, and `dual_adjacency` reads
the row of an opposite facet through σ: its neighbours are the opposites
of its partner's.  `dual_diameter` grows balls for only half of the
facets, one per opposite pair, and mirrors the rest (venkov.diameters,
which reports a broken adjacency model as venkov.belt_diameter does),
behind the one guard of every belt query (faces._belt_faces).
`check_diameter_bound` reports witness pairs, so it grows every node's
ball (venkov.diameter_witness) in both adjacencies, read off one table
of dual neighbours.
"""

from __future__ import annotations

from .faces import FacetId, _belt_faces, belt_adjacency, dual_neighbours
from .venkov import diameter_witness, diameters
from .zgraph import ZGraph


def dual_diameter(g: ZGraph) -> int:
    return diameters(*_belt_faces(g))[1]


def dual_adjacency(facets: list[FacetId], near: list) -> list[int]:
    """Dual adjacency bitmasks of the facets, read off faces.dual_neighbours.

    near lists the neighbours of the facets (a, V∖a) with vertex 0 in a;
    the neighbours of (V∖a, a) are their opposites, and the bit of the
    opposite (V∖m, m) sits at mirror[m]."""
    bit = [0] * len(near)
    for i, (a, _) in enumerate(facets):
        bit[a] = 1 << i
    mirror = bit[::-1]      # mirror[m] = bit[full - m] = bit[full ^ m]
    out = []
    for a, b in facets:
        row = 0
        if a & 1:
            for m in near[a]:
                row |= bit[m]
        else:
            for m in near[b]:
                row |= mirror[m]
        out.append(row)
    return out


def check_diameter_bound(g: ZGraph) -> dict:
    """Compute both diameters and test dual <= belt + 1, with witnesses."""
    facets, cores = _belt_faces(g)
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
