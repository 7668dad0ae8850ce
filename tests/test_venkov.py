"""Venkov graph construction, distances, and diameters.

belt_distance and belt_neighbors generate neighbours; they are checked
against the facet-scanning references in adjacency_reference on every
facet-pair query of every connected graph with n <= 6, on seeded graphs
with 7..12 vertices and on the odd and even family witnesses up to d = 14.
faces.in_same_belt, the pair test behind distances 1 and 2, is checked
against the reference on every ordered pair of distinct facet pairs of
every connected graph with 3..6 vertices and on seeded graphs with 7..12.
belt_neighbors' connected splits are also checked against the submask walk
they replaced, on every facet of every connected graph with n <= 7, on
every 2-partition of every connected graph with n <= 6 and on seeded
graphs with 8..12 vertices.
"""

import random
from collections import Counter

import pytest

import adjacency_reference as ref
from adjacency_reference import eccentricity, farthest, in_same_belt
from zonobelt import faces, venkov
from zonobelt.faces import enumerate_facets, unordered_pair
from conjugate_reference import color_facets
from growth_reference import enumerate_connected_graphs
from zonobelt.symmetric import gen_even_extremal, gen_odd_extremal
from zonobelt.venkov import (
    belt_diameter,
    belt_distance,
    belt_neighbors,
    build_venkov,
    diameter_witness,
)
from zonobelt.zgraph import ZGraph, dimension


def path(n):
    return ZGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return ZGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_path4_venkov_is_triangle():
    nodes, adj = build_venkov(path(4))
    assert [unordered_pair(f) for f in nodes] == nodes
    assert len(nodes) == 3
    assert adj == [0b110, 0b101, 0b011]


def test_triangle_venkov_complete():
    nodes, adj = build_venkov(complete(3))
    assert len(nodes) == 3
    assert all(row.bit_count() == 2 for row in adj)


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
    g = path(4)
    ok = (0b0001, 0b1110)
    # a disconnected part, parts not covering, overlapping, an empty part,
    # a bit outside the graph, three parts, one part, no parts
    for bad in ((0b0101, 0b1010), (0b0001, 0b0110), (0b0011, 0b1110),
                (0b1111, 0), (0b10001, 0b1110), (0b0001, 0b0110, 0b1000),
                (0b0010,), ()):
        for f1, f2 in ((bad, ok), (ok, bad)):
            with pytest.raises(ValueError, match="not a facet"):
                belt_distance(g, f1, f2)


def test_belt_distance_rejects_bad_graphs():
    with pytest.raises(ValueError, match="graph must be connected"):
        belt_distance(ZGraph(4, [(0, 1), (2, 3)]), (0b0011, 0b1100), (0b0001, 0b1110))
    # the rule of every belt query: at least 3 vertices, then connectivity
    for g, f in ((ZGraph(1, []), (1, 0)), (ZGraph(2, [(0, 1)]), (1, 2)), (ZGraph(2, []), (1, 2))):
        with pytest.raises(ValueError, match="^need at least 3 vertices$"):
            belt_distance(g, f, f[::-1])


def test_belt_distance_unreachable_raises(monkeypatch):
    monkeypatch.setattr(venkov, "belt_neighbors", lambda g, a: [])
    with pytest.raises(RuntimeError, match="not connected"):
        belt_distance(complete(4), (0b0011, 0b1100), (0b0101, 0b1010))


def test_belt_distance_list_facets_give_tuples():
    g = complete(5)
    f1, f2 = (0b00011, 0b11100), (0b01010, 0b10101)
    want = belt_distance(g, f1, f2)
    assert want == ref.belt_distance_reference(g, f1, f2) and want[0] == 2
    for a, b in ((list(f1), list(f2)), (list(f1[::-1]), list(f2[::-1]))):
        got = belt_distance(g, a, b)
        assert got == want
        assert all(type(f) is tuple and all(type(x) is int for x in f) for f in got[1])
    assert belt_distance(g, [0b11100, 0b00011], f1) == (0, [f1])


def test_belt_distance_agrees_with_bfs_on_full_graph():
    # lazy search against the eager adjacency matrix, all pairs
    rng = random.Random(9)
    pairs5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    done = 0
    while done < 25:
        g = ZGraph(5, [p for p in pairs5 if rng.random() < 0.6])
        try:
            nodes, adj = build_venkov(g)
        except ValueError:
            continue
        done += 1
        dist = {}
        for i in range(len(nodes)):
            seen = {i: 0}
            frontier = [i]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for u in frontier:
                    for w in range(len(nodes)):
                        if adj[u] >> w & 1 and w not in seen:
                            seen[w] = depth
                            nxt.append(w)
                frontier = nxt
            dist[i] = seen
        for i in range(len(nodes)):
            for j in range(len(nodes)):
                got, route = belt_distance(g, nodes[i], nodes[j])
                assert got == dist[i][j]
                assert len(route) == got + 1


def test_eccentricity_and_witness():
    nodes, adj = build_venkov(complete(4))
    eccs = [eccentricity(adj, i) for i in range(len(nodes))]
    assert max(eccs) == 2
    diam, (u, v) = diameter_witness(adj)
    assert diam == 2
    assert eccentricity(adj, u) == 2
    far, node = farthest(adj, u)
    assert far == 2


def test_farthest_disconnected_raises():
    with pytest.raises(RuntimeError, match="disconnected"):
        farthest([0, 0], 0)


def facet_pairs(g):
    return [f for f in enumerate_facets(g) if f[0] & 1]


def seeded_graphs(ns, per, seed):
    """per connected graphs for each n in ns at edge densities 0.3/0.5/0.7."""
    rng = random.Random(seed)
    out = []
    for n in ns:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p in (0.3, 0.5, 0.7):
            made = 0
            while made < per:
                g = ZGraph(n, [e for e in pairs if rng.random() < p])
                if dimension(g) == n - 1:
                    out.append(g)
                    made += 1
    return out


@pytest.mark.parametrize("n", range(3, 7))
def test_belt_distance_matches_reference_on_every_query(n):
    for g in enumerate_connected_graphs(n):
        nodes = facet_pairs(g)
        for f1 in nodes:
            for f2 in nodes:
                assert belt_distance(g, f1, f2) == ref.belt_distance_reference(g, f1, f2)


def test_belt_distance_matches_reference_on_seeded_graphs():
    rng = random.Random(71)
    for g in seeded_graphs(range(7, 13), 2, 70):
        nodes, adj = build_venkov(g)
        _, (i, j) = diameter_witness(adj)
        queries = [(nodes[i], nodes[j])]
        queries += [rng.sample(nodes, 2) for _ in range(8)]
        for f1, f2 in queries:
            if rng.random() < 0.5:
                f2 = f2[::-1]
            assert belt_distance(g, f1, f2) == ref.belt_distance_reference(g, f1, f2)


def test_belt_distance_matches_reference_from_one_source_on_seeded_graphs():
    # every target of one source: a distance-2 pair with several common
    # neighbours must go through the first in sorted order
    rng = random.Random(77)
    for g in seeded_graphs(range(7, 11), 1, 75):
        nodes = facet_pairs(g)
        src = rng.choice(nodes)
        for f in nodes:
            assert belt_distance(g, src, f) == ref.belt_distance_reference(g, src, f)


@pytest.mark.parametrize("n", range(3, 7))
def test_in_same_belt_matches_reference_on_every_pair(n):
    for g in enumerate_connected_graphs(n):
        nodes = facet_pairs(g)
        for f1 in nodes:
            for f2 in nodes:
                if f1 != f2:
                    assert faces.in_same_belt(g, f1[0], f2[0]) == in_same_belt(g, f1, f2)


def test_in_same_belt_matches_reference_on_seeded_graphs():
    # both orders of every pair with one of 12 seeded nodes of each graph
    rng = random.Random(76)
    for g in seeded_graphs(range(7, 13), 2, 70):
        nodes = facet_pairs(g)
        for f1 in rng.sample(nodes, min(12, len(nodes))):
            for f2 in nodes:
                if f1 != f2:
                    assert faces.in_same_belt(g, f1[0], f2[0]) == in_same_belt(g, f1, f2)
                    assert faces.in_same_belt(g, f2[0], f1[0]) == in_same_belt(g, f2, f1)


def test_belt_distance_lists_neighbours_beyond_distance_one_only(monkeypatch):
    # distance 1 is one pair test, and distance 2 lists the goal's
    # neighbours alone
    calls = []

    def counting(g, a):
        calls.append(a)
        return belt_neighbors(g, a)

    monkeypatch.setattr(venkov, "belt_neighbors", counting)
    dists = Counter()
    for n in range(3, 6):
        for g in enumerate_connected_graphs(n):
            nodes = facet_pairs(g)
            for f1 in nodes:
                for f2 in nodes:
                    calls.clear()
                    dist, _ = belt_distance(g, f1, f2)
                    assert len(calls) == (1 if dist == 2 else 0), (g, f1, f2)
                    dists[dist] += 1
    assert sorted(dists) == [0, 1, 2]


@pytest.mark.parametrize("cg", [gen_odd_extremal(n) for n in range(2, 6)]
                         + [gen_even_extremal(n) for n in range(3, 6)],
                         ids=lambda cg: "d%d" % (cg.base.n - 1))
def test_belt_distance_matches_reference_on_family_witnesses(cg):
    fr, fb = color_facets(cg)
    got = belt_distance(cg.base, fr, fb)
    assert got[0] == 3
    assert got == ref.belt_distance_reference(cg.base, fr, fb)


@pytest.mark.parametrize("n", range(2, 7))
def test_belt_neighbors_match_scan_on_every_graph(n):
    for g in enumerate_connected_graphs(n):
        for a, _ in facet_pairs(g):
            assert belt_neighbors(g, a) == ref.belt_neighbors_reference(g, a)


def test_belt_neighbors_match_scan_on_seeded_graphs():
    for g in seeded_graphs(range(7, 11), 1, 72):
        for a, _ in facet_pairs(g):
            assert belt_neighbors(g, a) == ref.belt_neighbors_reference(g, a)


@pytest.mark.parametrize("n", range(2, 8))
def test_belt_neighbors_match_submask_walk_on_every_graph(n):
    for g in enumerate_connected_graphs(n):
        for a, _ in facet_pairs(g):
            assert belt_neighbors(g, a) == ref.belt_neighbors_submasks(g, a)


@pytest.mark.parametrize("n", range(2, 7))
def test_belt_neighbors_match_submask_walk_on_every_partition(n):
    # every 2-partition, not only the facet pairs: a side may be disconnected
    for g in enumerate_connected_graphs(n):
        for a in range(1, g.full_mask, 2):
            assert belt_neighbors(g, a) == ref.belt_neighbors_submasks(g, a), (g, a)


def test_belt_neighbors_of_a_disconnected_side():
    # path 0-1-2-3 with a = {0, 3}: the side {0, 3} splits into {0} and {3},
    # each touching {1, 2}; the side {1, 2} adds nothing, as {0, 3} is not
    # connected
    assert belt_neighbors(path(4), 0b1001) == [0b0001, 0b0111]


def test_belt_neighbors_match_submask_walk_on_seeded_graphs():
    for g in seeded_graphs(range(8, 13), 1, 73):
        for a, _ in facet_pairs(g):
            assert belt_neighbors(g, a) == ref.belt_neighbors_submasks(g, a)


def test_belt_neighbors_match_submask_walk_on_family_witnesses():
    # the 15-vertex witness, along every node its belt_distance discovers
    cg = gen_even_extremal(5)
    g = cg.base
    fr, fb = color_facets(cg)
    _, path_nodes = belt_distance(g, fr, fb)
    seen = {a for a, _ in path_nodes}
    for a in list(seen):
        seen.update(belt_neighbors(g, a))
    for a in sorted(seen):
        assert belt_neighbors(g, a) == ref.belt_neighbors_submasks(g, a)


def test_belt_distance_tests_few_masks(monkeypatch):
    # connected_in is asked about the whole vertex set and the two parts of
    # each asked or expanded pair, never about a split's parts: the submask
    # walk asked about 14,738 masks on this query, and a connectivity test
    # per split part about 5,222
    cg = gen_even_extremal(5)
    fr, fb = color_facets(cg)
    masks = set()
    real = ZGraph.connected_in

    def recording(self, mask):
        masks.add(mask)
        return real(self, mask)

    monkeypatch.setattr(ZGraph, "connected_in", recording)
    assert belt_distance(cg.base, fr, fb)[0] == 3
    assert len(masks) <= 16


def test_connected_splits_call_no_connected_in(monkeypatch):
    # both halves of every split come off one connected-subset walk
    graphs = [gen_even_extremal(5).base] + seeded_graphs(range(8, 11), 1, 74)
    calls = Counter()
    real = ZGraph.connected_in

    def counting(self, mask):
        calls[mask] += 1
        return real(self, mask)

    monkeypatch.setattr(ZGraph, "connected_in", counting)
    for g in graphs:
        for side in (g.full_mask, 0b1011, g.full_mask ^ 0b1011):
            faces.connected_splits(g, side)
    assert calls == {}


def test_belt_distance_scans_no_facets(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # venkov binds its own names at import, so patching faces alone misses it;
    # the facets are listed only off a table of every connected vertex set
    for mod in (faces, venkov):
        for name in ("enumerate_facets", "facets_and_cores", "connected_table"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(faces, name)))
    cg = gen_even_extremal(5)
    assert belt_distance(cg.base, *color_facets(cg))[0] == 3
    assert calls == {}
