"""Dual graph adjacency and the dual-vs-belt diameter bound."""

import random

import pytest

from adjacency_reference import facet_adjacent, in_same_belt, opposite
from zonobelt import dual, venkov
from zonobelt.dual import check_diameter_bound, dual_adjacency, dual_diameter
from zonobelt.faces import dual_neighbours, enumerate_codim2, enumerate_facets, facets_and_cores
from zonobelt.venkov import belt_diameter, build_venkov
from zonobelt.zgraph import ZGraph


def dual_graph(g):
    """(facets, dual adjacency) from the library's builder."""
    facets, cores = facets_and_cores(g)
    return facets, dual_adjacency(facets, dual_neighbours(facets, cores))


def path(n):
    return ZGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return ZGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def connected_random_graphs(n, count, seed, p=0.6):
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    while len(out) < count:
        g = ZGraph(n, [e for e in pairs if rng.random() < p])
        if g.connected_in(g.full_mask):
            out.append(g)
    return out


def test_cube_dual_is_octahedron():
    # the path-graph zonotope on 4 vertices is the cube
    nodes, adj = dual_graph(path(4))
    assert len(nodes) == 6
    assert all(row.bit_count() == 4 for row in adj)
    # opposite facets are the unique non-neighbors
    for idx, f in enumerate(nodes):
        opp = nodes.index(opposite(f))
        assert not adj[idx] >> opp & 1
    assert dual_diameter(path(4)) == 2


def test_dual_diameters_frozen():
    assert dual_diameter(complete(3)) == 3   # hexagon
    assert dual_diameter(complete(4)) == 3
    assert dual_diameter(path(5)) == 2


def test_facet_adjacent_basics():
    g = path(4)
    # ({0}, {123}) and ({01}, {23}): containment slot, no extra condition
    assert facet_adjacent(g, (0b0001, 0b1110), (0b0011, 0b1100))
    # a facet is never adjacent to itself or its opposite
    with pytest.raises(ValueError, match="identical"):
        facet_adjacent(g, (0b0001, 0b1110), (0b0001, 0b1110))
    assert not facet_adjacent(g, (0b0001, 0b1110), (0b1110, 0b0001))


def test_facet_adjacent_crossing_condition():
    g = complete(4)
    # K_4: {01|23} vs {23|01} both disjoint slots carry crossing edges
    assert not facet_adjacent(g, (0b0011, 0b1100), (0b1100, 0b0011))
    assert facet_adjacent(g, (0b0011, 0b1100), (0b0111, 0b1000))


def test_adjacent_facets_share_exactly_one_belt():
    for g in connected_random_graphs(5, 25, seed=21):
        belts = enumerate_codim2(g)
        nodes, adj = dual_graph(g)
        for i, f1 in enumerate(nodes):
            for j in range(i + 1, len(nodes)):
                if not adj[i] >> j & 1:
                    continue
                f2 = nodes[j]
                shared = [
                    b for b in belts
                    if f1 in b.members and f2 in b.members
                ]
                assert len(shared) == 1


def test_venkov_is_dual_with_opposites_glued():
    # unordered pairs share a belt iff some orientation combo is dual-adjacent
    for g in connected_random_graphs(5, 25, seed=22):
        facets = [f for f in enumerate_facets(g) if f[0] & 1]
        for i in range(len(facets)):
            for j in range(i + 1, len(facets)):
                f1, f2 = facets[i], facets[j]
                combos = [
                    facet_adjacent(g, x, y)
                    for x in (f1, opposite(f1))
                    for y in (f2, opposite(f2))
                ]
                assert in_same_belt(g, f1, f2) == any(combos)


def test_dual_connected_on_random_graphs():
    for g in connected_random_graphs(6, 15, seed=23):
        d = dual_diameter(g)  # raises RuntimeError if the dual is disconnected
        assert d >= 1


def test_check_diameter_bound_k4():
    rep = check_diameter_bound(complete(4))
    assert rep["belt_diameter"] == 2
    assert rep["dual_diameter"] == 3
    assert rep["bound_holds"]
    w1, w2 = rep["belt_witness"]
    assert w1 in enumerate_facets(complete(4))
    assert w2 in enumerate_facets(complete(4))


def test_bound_holds_on_random_graphs():
    for g in connected_random_graphs(6, 15, seed=24):
        assert dual_diameter(g) <= belt_diameter(g) + 1


@pytest.mark.parametrize(
    "query", [enumerate_codim2, build_venkov, belt_diameter, dual_diameter, check_diameter_bound],
    ids=lambda query: query.__name__)
def test_every_belt_query_passes_one_guard(query):
    with pytest.raises(ValueError, match="^graph must be connected$"):
        query(ZGraph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="^need at least 3 vertices$"):
        query(ZGraph(2, [(0, 1)]))


def emptied_first_facet(facets, cores):
    """dual_neighbours with the first facet's neighbour list emptied."""
    near = dual_neighbours(facets, cores)
    near[facets[0][0]] = []
    return near


def test_a_broken_model_surfaces_with_one_message(monkeypatch):
    cycle4 = ZGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    monkeypatch.setattr(venkov, "dual_neighbours", emptied_first_facet)
    monkeypatch.setattr(dual, "dual_neighbours", emptied_first_facet)
    for query in (belt_diameter, dual_diameter, check_diameter_bound):
        with pytest.raises(RuntimeError, match="^dual graph disconnected: adjacency model violated$"):
            query(cycle4)
