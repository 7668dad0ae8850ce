"""Facet and belt combinatorics against set-based reference enumerators."""

import random
from itertools import permutations

import pytest

from adjacency_reference import core_merges_scan, enumerate_facets_scan, has_cross, in_same_belt
from growth_reference import enumerate_connected_graphs
from zonobelt import faces
from zonobelt.faces import (
    connected_sets,
    connected_splits,
    connected_table,
    enumerate_codim2,
    enumerate_facets,
    unordered_pair,
    validate_partition,
)
from zonobelt.symmetric import gen_even_extremal, gen_odd_extremal
from zonobelt.zgraph import ZGraph, bits, dimension, mask_of, reach


def path(n):
    return ZGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return ZGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# reference connectivity on plain vertex sets, independent of the bitmask code
def ref_connected(edges, part):
    part = set(part)
    if not part:
        return False
    seen = {min(part)}
    frontier = [min(part)]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            if a == u and b in part and b not in seen:
                seen.add(b)
                frontier.append(b)
            elif b == u and a in part and a not in seen:
                seen.add(a)
                frontier.append(a)
    return seen == part


def ref_facets(n, edges):
    out = set()
    verts = set(range(n))
    for m in range(1, 2 ** n - 1):
        a = {v for v in range(n) if m >> v & 1}
        b = verts - a
        if ref_connected(edges, a) and ref_connected(edges, b):
            out.add((frozenset(a), frozenset(b)))
    return out


def ref_cores(n, edges):
    # unordered partitions into three connected parts
    out = set()
    for m1 in range(1, 2 ** n):
        for m2 in range(1, 2 ** n):
            if m1 & m2 or not (m1 | m2) < 2 ** n - 1:
                continue
            m3 = (2 ** n - 1) ^ m1 ^ m2
            parts = [
                {v for v in range(n) if m >> v & 1} for m in (m1, m2, m3)
            ]
            if all(ref_connected(edges, p) for p in parts):
                out.add(frozenset(frozenset(p) for p in parts))
    return out


def to_sets(f):
    return (frozenset(bits(f[0])), frozenset(bits(f[1])))


def test_opposite_and_unordered():
    f = (0b0001, 0b1110)
    assert unordered_pair(f) == f
    assert unordered_pair((0b1110, 0b0001)) == f


def test_validate_partition_errors():
    g = path(4)
    with pytest.raises(ValueError, match="empty part"):
        validate_partition(g, (0, 0b1111))
    with pytest.raises(ValueError, match="disjoint"):
        validate_partition(g, (0b0011, 0b0110))
    with pytest.raises(ValueError, match="cover"):
        validate_partition(g, (0b0001, 0b0110))
    with pytest.raises(ValueError, match="connected"):
        validate_partition(g, (0b1001, 0b0110))


def test_path_facets_frozen():
    assert enumerate_facets(path(4)) == [
        (1, 14), (14, 1), (3, 12), (12, 3), (7, 8), (8, 7),
    ]


def test_facet_counts():
    assert len(enumerate_facets(complete(4))) == 14
    assert len(enumerate_facets(ZGraph(4, [(0, 1), (0, 2), (0, 3)]))) == 6


def test_facets_match_reference():
    rng = random.Random(3)
    for n in (4, 5, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(30):
            edges = [p for p in pairs if rng.random() < 0.6]
            g = ZGraph(n, edges)
            try:
                ours = enumerate_facets(g)
            except ValueError:
                assert not ref_connected(edges, range(n))
                continue
            assert {to_sets(f) for f in ours} == {
                (a, b) for a, b in ref_facets(n, edges)
            }


@pytest.mark.parametrize("n", range(2, 8))
def test_facets_match_scan_on_every_graph(n):
    for g in enumerate_connected_graphs(n):
        assert enumerate_facets(g) == enumerate_facets_scan(g)


def test_facets_match_scan_on_seeded_graphs():
    rng = random.Random(11)
    for n in range(8, 17):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p in (0.2, 0.3, 0.5, 0.7):
            made = 0
            while made < 2:
                g = ZGraph(n, [e for e in pairs if rng.random() < p])
                if dimension(g) == n - 1:
                    assert enumerate_facets(g) == enumerate_facets_scan(g)
                    made += 1


@pytest.mark.parametrize("cg", [gen_odd_extremal(n) for n in range(2, 5)]
                         + [gen_even_extremal(n) for n in range(3, 6)],
                         ids=lambda cg: "d%d" % (cg.base.n - 1))
def test_facets_match_scan_on_family_witnesses(cg):
    assert enumerate_facets(cg.base) == enumerate_facets_scan(cg.base)


def splits_match_submasks(g, sides):
    # the submasks holding each side's least vertex whose two parts are
    # connected, by set-based connectivity
    edges = g.sorted_edges()
    for side in sides:
        low = side & -side
        want = []
        c = (side - 1) & side   # the proper submasks, descending
        while c:
            if c & low and ref_connected(edges, bits(c)) and ref_connected(edges, bits(side ^ c)):
                want.append(c)
            c = (c - 1) & side
        assert sorted(connected_splits(g, side)) == sorted(want), (g, side)


@pytest.mark.parametrize("n", range(2, 7))
def test_connected_splits_match_submasks(n):
    # every side of every facet
    for g in enumerate_connected_graphs(n):
        splits_match_submasks(g, [side for side, _ in enumerate_facets(g)])


def seeded_graphs():
    """Seeded connected graphs on 8..16 vertices, four densities each."""
    rng = random.Random(19)
    graphs = []
    for n in range(8, 17):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p in (0.2, 0.3, 0.5, 0.7):
            while True:
                g = ZGraph(n, [e for e in pairs if rng.random() < p])
                if dimension(g) == n - 1:
                    break
            graphs.append(g)
    return graphs


def test_connected_splits_match_submasks_on_seeded_graphs_and_family_witnesses():
    # both sides of six seeded facets of each graph: the walk bans the
    # vertices outside a proper side from its first entry
    rng = random.Random(23)
    graphs = seeded_graphs()
    graphs += [gen_odd_extremal(n).base for n in range(2, 5)]
    graphs += [gen_even_extremal(n).base for n in range(3, 6)]
    for g in graphs:
        facets = enumerate_facets(g)
        splits_match_submasks(g, [side for f in rng.sample(facets, 6) for side in f])


def disconnected_sides(g, rng, count):
    """count seeded proper vertex sets of g that are not connected."""
    sides = []
    while len(sides) < count:
        side = rng.randrange(1, g.full_mask)
        if reach(g.adj, side & -side, side) != side:
            sides.append(side)
    return sides


def test_connected_splits_match_submasks_on_disconnected_sides():
    # a side need not be connected: its two parts then do not touch
    rng = random.Random(29)
    splits_match_submasks(path(4), [0b1001, 0b0101])
    assert connected_splits(path(4), 0b1001) == [0b0001]
    for g in seeded_graphs()[:16]:
        splits_match_submasks(g, disconnected_sides(g, rng, 6))


def sets_match_reach(g, sides):
    # every connected submask of each side, each exactly once
    for side in sides:
        got = connected_sets(g, side)
        assert len(got) == len(set(got)), (g, side)
        want = []
        c = side
        while c:
            if reach(g.adj, c & -c, c) == c:
                want.append(c)
            c = (c - 1) & side
        assert sorted(got) == sorted(want), (g, side)


def test_connected_sets_match_reach_on_facet_sides():
    rng = random.Random(31)
    for g in seeded_graphs():
        sets_match_reach(g, [side for f in rng.sample(enumerate_facets(g), 3) for side in f])


def test_connected_sets_match_reach_on_disconnected_sides():
    rng = random.Random(37)
    sets_match_reach(path(4), [0b1001, 0b1101])
    for g in seeded_graphs():
        sets_match_reach(g, disconnected_sides(g, rng, 3))


def test_connected_sets_match_reach_on_the_vertex_set():
    for g in seeded_graphs()[::3] + [complete(12), path(16)]:
        sets_match_reach(g, [g.full_mask])


def split_walk_matches_facets(g):
    # the split walk over the whole vertex set yields each Venkov node, the
    # part of a facet pair holding vertex 0, exactly once
    want = [a for a, _ in enumerate_facets(g) if a & 1]
    assert sorted(connected_splits(g, g.full_mask)) == sorted(want), g


@pytest.mark.parametrize("n", range(2, 8))
def test_connected_splits_of_the_vertex_set_are_the_venkov_nodes(n):
    for g in enumerate_connected_graphs(n):
        split_walk_matches_facets(g)


def test_connected_splits_of_the_vertex_set_on_seeded_graphs():
    for g in seeded_graphs():
        split_walk_matches_facets(g)


@pytest.mark.parametrize("n", range(3, 8))
def test_core_merges_match_scan_on_every_graph(n):
    # the same (p, q, r, pq, pr, qr) sequence, order included, as the scan
    # that asked connected_in about every mask
    for g in enumerate_connected_graphs(n):
        cores = faces._core_merges(g, connected_table(g))
        assert list(cores) == list(core_merges_scan(g)), g


def test_core_merges_match_scan_on_seeded_graphs():
    rng = random.Random(13)
    for n in range(8, 13):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p in (0.3, 0.6):
            while True:
                g = ZGraph(n, [e for e in pairs if rng.random() < p])
                if dimension(g) == n - 1:
                    break
            cores = faces._core_merges(g, connected_table(g))
            assert list(cores) == list(core_merges_scan(g)), g


def test_connected_table_matches_reach():
    # every mask, the empty one included, of seeded graphs on 1..16
    # vertices (connected or not) and of K16
    rng = random.Random(17)
    graphs = [complete(16)]
    for n in range(1, 17):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs += [ZGraph(n, [e for e in pairs if rng.random() < p]) for p in (0.15, 0.5)]
    for g in graphs:
        table = connected_table(g)
        assert len(table) == 1 << g.n and table[0] == 0
        want = [m for m in range(1, 1 << g.n) if reach(g.adj, m & -m, m) == m]
        assert [m for m in range(1 << g.n) if table[m]] == want, g


def test_cores_match_reference():
    rng = random.Random(4)
    for n in (4, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(30):
            edges = [p for p in pairs if rng.random() < 0.6]
            g = ZGraph(n, edges)
            if not ref_connected(edges, range(n)):
                continue
            belts = enumerate_codim2(g)
            got = {
                frozenset(frozenset(bits(m)) for m in b.core) for b in belts
            }
            assert got == ref_cores(n, edges)


def test_path_cores_frozen():
    got = [(b.core, len(b.members), b.directions) for b in enumerate_codim2(path(4))]
    assert got == [
        ((1, 2, 12), 4, 2),
        ((1, 6, 8), 4, 2),
        ((3, 4, 8), 4, 2),
    ]


def test_k4_belts_all_hexagonal():
    belts = enumerate_codim2(complete(4))
    assert len(belts) == 6
    assert all(len(b.members) == 6 and b.directions == 3 for b in belts)


def test_triangle_belt():
    belts = enumerate_codim2(complete(3))
    assert len(belts) == 1
    assert belts[0].core == (1, 2, 4)
    assert len(belts[0].members) == 6
    assert belts[0].directions == 3


def test_belt_members_are_core_merges():
    g = path(5)
    for belt in enumerate_codim2(g):
        p, q, r = belt.core
        for a, b in belt.members:
            assert a | b == g.full_mask
            assert {a, b} <= {p | q, p | r, q | r, p, q, r}


def test_has_cross():
    g = path(4)
    assert has_cross(g, 0b0011, 0b1100)
    assert not has_cross(g, 0b0001, 0b0100)


def test_in_same_belt_k4():
    g = complete(4)
    assert in_same_belt(g, (0b0001, 0b1110), (0b0011, 0b1100))
    assert not in_same_belt(g, (0b0011, 0b1100), (0b0101, 0b1010))
    with pytest.raises(ValueError, match="same facet pair"):
        in_same_belt(g, (0b0011, 0b1100), (0b1100, 0b0011))


def test_in_same_belt_matches_belt_membership():
    # two facets share a belt iff some enumerated belt contains both
    rng = random.Random(5)
    pairs5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for _ in range(40):
        edges = [p for p in pairs5 if rng.random() < 0.6]
        g = ZGraph(5, edges)
        if not ref_connected(edges, range(5)):
            continue
        belts = enumerate_codim2(g)
        facets = [f for f in enumerate_facets(g) if f[0] & 1]
        for i in range(len(facets)):
            for j in range(i + 1, len(facets)):
                f1, f2 = facets[i], facets[j]
                members = set()
                for b in belts:
                    got = {unordered_pair(m) for m in b.members}
                    if f1 in got and f2 in got:
                        members.add(b.core)
                assert in_same_belt(g, f1, f2) == bool(members)
