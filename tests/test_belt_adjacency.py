"""Core-derived belts, Venkov and dual graphs, and ball-growth diameters
against the pairwise and per-source-BFS references.

Every connected graph on 3..7 vertices (up to isomorphism) and 24 seeded
random connected graphs on 8..10 vertices must give the same belts, the
same node order, the same adjacency bitmasks, the same diameters and the
same witness pairs.  `faces.belt_adjacency` and `dual.dual_adjacency`
read the two graphs off one dual-neighbour table, the Venkov rows as
quotients of dual rows, and
`venkov.diameters` grows dual balls over the same table only for one
facet of each pair, mirrors them by x → −x, and reads the belt diameter
off their projections; both must match the pairwise references on those
graphs and on the odd and even family witnesses.  That rests on the
Venkov graph being the dual graph divided by x → −x, which is checked on
its own for every graph with n ≤ 7.  The table keeps lists only for the
facets whose first part holds vertex 0; on every connected graph with
n ≤ 7, on the seeded graphs and on the family witnesses each of those
lists must hold, in some order, what the full table of
`adjacency_reference.dual_neighbours` lists for that facet, and the full
table's list for the opposite facet must be their opposites.
"""

import random

import pytest

import adjacency_reference as ref
from growth_reference import enumerate_connected_graphs
from zonobelt import dual, faces, symmetric, venkov
from zonobelt.zgraph import ZGraph, dimension


def random_connected(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = len(out)
        n = 8 + k % 3
        p = (0.3, 0.5, 0.7)[k // 3 % 3]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = ZGraph(n, [e for e in pairs if rng.random() < p])
        if dimension(g) == n - 1:
            out.append(g)
    return out


def assert_adjacency_matches_reference(g):
    """belt_adjacency and dual_adjacency give the pairwise reference
    graphs; returns them as (vnodes, vadj, dnodes, dadj)."""
    vnodes, vadj = ref.build_venkov(g)
    dnodes, dadj = ref.build_dual(g)
    facets, cores = faces.facets_and_cores(g)
    assert facets == dnodes
    assert [f for f in facets if f[0] & 1] == vnodes
    near = faces.dual_neighbours(facets, cores)
    assert faces.belt_adjacency(facets, near) == vadj
    assert dual.dual_adjacency(facets, near) == dadj
    return vnodes, vadj, dnodes, dadj


def assert_half_table_matches_reference(g):
    """The library's table holds, sorted, the reference's list for each
    facet whose first part holds vertex 0, and None everywhere else; the
    reference's list for the opposite facet is the opposites of that list,
    which is what dual_adjacency reads through the mirror."""
    facets, cores = faces.facets_and_cores(g)
    cores = list(cores)
    near = faces.dual_neighbours(facets, cores)
    full_table = ref.dual_neighbours(facets, cores)
    full = g.full_mask
    odd = {a for a, _ in facets if a & 1}
    assert [m for m, row in enumerate(near) if row is not None] == sorted(odd)
    for a in odd:
        assert sorted(near[a]) == sorted(full_table[a]), (g.sorted_edges(), a)
        assert sorted(full ^ m for m in near[a]) == sorted(full_table[full ^ a])


def assert_matches_reference(g):
    belts = faces.enumerate_codim2(g)
    assert belts == ref.enumerate_codim2(g)

    vnodes, vadj, dnodes, dadj = assert_adjacency_matches_reference(g)
    assert venkov.build_venkov(g) == (vnodes, vadj)

    belt, (bi, bj) = ref.diameter_witness(vadj)
    ddiam, (di, dj) = ref.diameter_witness(dadj)
    assert venkov.diameter_witness(vadj) == (belt, (bi, bj))
    assert venkov.diameter_witness(dadj) == (ddiam, (di, dj))
    assert venkov.diameters(*faces.facets_and_cores(g)) == (belt, ddiam)
    assert venkov.belt_diameter(g) == belt
    assert dual.dual_diameter(g) == ddiam
    assert dual.check_diameter_bound(g) == {
        "belt_diameter": belt,
        "belt_witness": (vnodes[bi], vnodes[bj]),
        "dual_diameter": ddiam,
        "dual_witness": (dnodes[di], dnodes[dj]),
        "bound_holds": ddiam <= belt + 1,
    }


@pytest.mark.parametrize("n", range(3, 8))
def test_every_connected_graph_matches_reference(n):
    for g in enumerate_connected_graphs(n):
        assert_matches_reference(g)


@pytest.mark.parametrize("n", range(2, 8))
def test_half_table_matches_full_table_on_every_connected_graph(n):
    for g in enumerate_connected_graphs(n):
        assert_half_table_matches_reference(g)


def test_half_table_matches_full_table_on_seeded_graphs():
    for g in random_connected(24, seed=20261018):
        assert_half_table_matches_reference(g)


def test_random_graphs_8_to_10_match_reference():
    graphs = random_connected(24, seed=20261018)
    assert {g.n for g in graphs} == {8, 9, 10}
    for g in graphs:
        assert_matches_reference(g)


@pytest.mark.parametrize("cg", [symmetric.gen_odd_extremal(n) for n in (3, 4)]
                         + [symmetric.gen_even_extremal(n) for n in (3, 4)],
                         ids=lambda cg: "d%d" % (cg.base.n - 1))
def test_diameters_match_reference_on_family_witnesses(cg):
    g = cg.base
    assert_half_table_matches_reference(g)
    _, vadj, _, dadj = assert_adjacency_matches_reference(g)
    belt = ref.diameter_witness(vadj)[0]
    ddiam = ref.diameter_witness(dadj)[0]
    assert venkov.diameters(*faces.facets_and_cores(g)) == (belt, ddiam)


@pytest.mark.parametrize("n", range(3, 8))
def test_venkov_graph_is_the_antipodal_quotient_of_the_dual(n):
    # pair i's Venkov neighbours are the pairs of the dual neighbours of
    # either of its facets, i itself never among them
    for g in enumerate_connected_graphs(n):
        facets, cores = faces.facets_and_cores(g)
        near = faces.dual_neighbours(facets, cores)
        vadj, dadj = faces.belt_adjacency(facets, near), dual.dual_adjacency(facets, near)
        pair = {a: i for i, (a, _) in enumerate(f for f in facets if f[0] & 1)}
        for j, f in enumerate(facets):
            i = pair[faces.unordered_pair(f)[0]]
            quotient = 0
            for k in range(len(facets)):
                if dadj[j] >> k & 1:
                    quotient |= 1 << pair[faces.unordered_pair(facets[k])[0]]
            assert quotient == vadj[i], (g.sorted_edges(), f)


def test_ball_growth_matches_bfs_on_random_adjacency():
    # arbitrary connected adjacencies, not only Venkov and dual graphs
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randrange(1, 30)
        adj = [0] * k
        for v in range(1, k):
            u = rng.randrange(v)                # a random spanning tree
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        for _ in range(rng.randrange(k + 1)):
            u, v = rng.randrange(k), rng.randrange(k)
            if u != v:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        assert venkov.diameter_witness(adj) == ref.diameter_witness(adj)


def test_ball_growth_single_node():
    assert venkov.diameter_witness([0]) == (0, (0, 0))


@pytest.mark.parametrize("adj", [
    [0, 0],
    [0b010, 0b001, 0],                  # isolated third node
    [0b0010, 0b0001, 0b1000, 0b0100],   # two edges, two components
])
def test_ball_growth_disconnected_raises(adj):
    with pytest.raises(RuntimeError, match="disconnected"):
        venkov.diameter_witness(adj)
