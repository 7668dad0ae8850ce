"""Venkov graph construction, distances, and diameters."""

import random

import pytest

from adjacency_reference import eccentricity, farthest
from zonobelt.faces import enumerate_facets, in_same_belt, unordered_pair
from zonobelt.venkov import (
    belt_diameter,
    belt_distance,
    build_venkov,
    diameter_witness,
)
from zonobelt.zgraph import ZGraph


def path(n):
    return ZGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return ZGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_path4_venkov_is_triangle():
    vg = build_venkov(path(4))
    assert [unordered_pair(f) for f in vg.nodes] == vg.nodes
    assert len(vg.nodes) == 3
    assert vg.adj == [0b110, 0b101, 0b011]


def test_triangle_venkov_complete():
    vg = build_venkov(complete(3))
    assert len(vg.nodes) == 3
    assert all(adj.bit_count() == 2 for adj in vg.adj)


def test_belt_diameters():
    assert belt_diameter(path(4)) == 1
    assert belt_diameter(complete(3)) == 1
    assert belt_diameter(complete(4)) == 2


def test_belt_distance_k4():
    g = complete(4)
    dist, route = belt_distance(g, (0b0011, 0b1100), (0b0101, 0b1010))
    assert dist == 2
    assert len(route) == 3
    assert route[0] == (0b0011, 0b1100)
    assert route[-1] == (0b0101, 0b1010)
    # consecutive route facets share a belt
    for f1, f2 in zip(route, route[1:]):
        assert in_same_belt(g, f1, f2)


def test_belt_distance_same_pair():
    g = complete(4)
    dist, route = belt_distance(g, (0b0011, 0b1100), (0b1100, 0b0011))
    assert dist == 0
    assert route == [(0b0011, 0b1100)]


def test_belt_distance_rejects_non_facet():
    with pytest.raises(ValueError, match="not a facet"):
        belt_distance(path(4), (0b0101, 0b1010), (0b0001, 0b1110))


def test_belt_distance_agrees_with_bfs_on_full_graph():
    # lazy search against the eager adjacency matrix, all pairs
    rng = random.Random(9)
    pairs5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    done = 0
    while done < 25:
        g = ZGraph(5, [p for p in pairs5 if rng.random() < 0.6])
        try:
            vg = build_venkov(g)
        except ValueError:
            continue
        done += 1
        dist = {}
        for i in range(len(vg.nodes)):
            seen = {i: 0}
            frontier = [i]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for u in frontier:
                    for w in range(len(vg.nodes)):
                        if vg.adj[u] >> w & 1 and w not in seen:
                            seen[w] = depth
                            nxt.append(w)
                frontier = nxt
            dist[i] = seen
        for i in range(len(vg.nodes)):
            for j in range(len(vg.nodes)):
                got, route = belt_distance(g, vg.nodes[i], vg.nodes[j])
                assert got == dist[i][j]
                assert len(route) == got + 1


def test_eccentricity_and_witness():
    vg = build_venkov(complete(4))
    eccs = [eccentricity(vg.adj, i) for i in range(len(vg.nodes))]
    assert max(eccs) == 2
    diam, (u, v) = diameter_witness(vg.adj)
    assert diam == 2
    assert eccentricity(vg.adj, u) == 2
    far, node = farthest(vg.adj, u)
    assert far == 2


def test_farthest_disconnected_raises():
    with pytest.raises(RuntimeError, match="disconnected"):
        farthest([0, 0], 0)
