"""Rank-based facet oracle: exact arithmetic route, independent of faces."""

import random

import pytest

import adjacency_reference
import oracle_reference as reference
from growth_reference import enumerate_connected_graphs, sample_connected_graphs
from zonobelt import oracle
from zonobelt.oracle import OracleBudgetError, oracle_facets, oracle_same_belt, packed_rank
from zonobelt.zgraph import ZGraph, dimension


def path(n):
    return ZGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return ZGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edge_masks(g, supports):
    """Edge sets as edge-index bitmasks (bit k for the k-th sorted edge),
    ascending, as oracle_facets returns its supports."""
    bit = {e: 1 << k for k, e in enumerate(g.sorted_edges())}
    return sorted(sum(bit[e] for e in s) for s in supports)


def test_zone_matrix_entries():
    rows = reference.zone_matrix(path(3))
    assert [list(r) for r in rows] == [[1, -1, 0], [0, 1, -1]]


def rank(rows) -> int:
    return packed_rank(*reference.pack(rows))


def test_packed_rank_small():
    assert rank([[1, -1, 0], [0, 1, -1], [1, 0, -1]]) == 2
    assert rank([]) == 0
    assert rank([[0, 0]]) == 0


def zone_rows(rng, n):
    """The zone rows of a seeded graph on n vertices, connected or not,
    some of them negated or repeated: a totally unimodular matrix."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = ZGraph(n, [p for p in pairs if rng.random() < 0.4])
    rows = [list(r) for r in reference.zone_matrix(g)]
    rows += rng.sample(rows, len(rows) // 3)
    rng.shuffle(rows)
    return [[-x for x in r] if rng.random() < 0.5 else r for r in rows]


def test_packed_rank_matches_reference_on_zone_matrices():
    rng = random.Random(20261019)
    for _ in range(300):
        rows = zone_rows(rng, rng.randrange(1, 17))
        assert rank(rows) == reference.span_rank(rows), rows


def test_packed_rank_raises_on_a_pivot_that_is_not_a_unit():
    # the last row is the first pivot row; [[1, 1], [1, -1]] meets the
    # pivot 2 after one unit step.  The fields hold the Hadamard bound, so
    # a pivot near 2^40 is named exactly: every entry alone takes 42 bits
    for rows in ([[1, 1], [2, 0]], [[1, 1], [1, -1]]):
        with pytest.raises(RuntimeError, match="pivot 2 "):
            rank(rows)
    big = (1 << 40) + 7
    with pytest.raises(RuntimeError, match="pivot %d " % (1 - big)):
        rank([[big, 1], [1, 1]])
    assert oracle.field_width(big * big) >= 42


def steps_up_to_sign(rows):
    """Clear packed rows one pivot row at a time, the last row first, with
    oracle._clear and with the reference Bareiss step side by side; assert
    that each step's rows agree up to sign, and that the kernel raises,
    naming the pivot up to sign, at the first pivot that is not a unit.
    Returns the number of unit steps and whether the kernel raised."""
    packed, width, columns = reference.pack(rows)
    bias = oracle._bias(width, columns)
    ours = list(packed)
    theirs, their_prev = list(packed), 1
    unit = 0
    while ours:
        r, s = ours.pop(), theirs.pop()
        assert r in (s, -s)
        if not r:
            continue
        want, q = reference.bareiss_clear(theirs, s, their_prev, width, bias)
        if q * q != 1:
            with pytest.raises(RuntimeError, match=r"pivot -?%d " % abs(q)):
                oracle._clear(ours, r, width, bias)
            return unit, True
        got = oracle._clear(ours, r, width, bias)
        unit += 1
        assert all(v in (w, -w) for v, w in zip(got, want))
        ours, theirs, their_prev = got, want, q
    return unit, False


def test_kernel_rows_are_the_bareiss_rows_up_to_sign():
    # rows of -7..7, and rows of -1, 0, 1 whose minors grow past units after
    # a few steps: each step starts from the kernel's own rows, signs and
    # all, and the first pivot that is not a unit raises
    rng = random.Random(20261021)
    for entries in ((-7, 8), (-1, 2)):
        unit = raised = 0
        for _ in range(300):
            columns = rng.randrange(1, 17)
            rows = [[rng.randrange(*entries) for _ in range(columns)]
                    for _ in range(rng.randrange(1, 19))]
            u, r = steps_up_to_sign(rows)
            unit += u
            raised += r
        assert unit >= 40 and raised >= 100, entries


def test_kernel_takes_only_unit_steps_on_zone_matrices():
    rng = random.Random(20261022)
    for _ in range(100):
        n = rng.randrange(2, 11)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = ZGraph(n, [p for p in pairs if rng.random() < 0.5])
        rows = [list(r) for r in reference.zone_matrix(g)]
        if rows:
            assert not steps_up_to_sign(rows)[1], g


def walk(g):
    flats = set()
    return oracle_facets(g, flats), flats


def assert_same_walk_under_bareiss(monkeypatch, graphs):
    ours = [walk(g) for g in graphs]
    monkeypatch.setattr(oracle, "_clear", lambda rows, r, width, bias:
                        reference.bareiss_clear(rows, r, 1, width, bias)[0])
    theirs = [walk(g) for g in graphs]
    monkeypatch.undo()
    for g, a, b in zip(graphs, ours, theirs):
        assert a == b, g


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_walk_under_the_bareiss_step_is_the_same_on_every_connected_graph(monkeypatch, n):
    # the same facet lists and flats with the reference step in the kernel's
    # place, from the same walk
    assert_same_walk_under_bareiss(monkeypatch, enumerate_connected_graphs(n))


def test_walk_under_the_bareiss_step_is_the_same_on_seeded_and_complete_graphs(monkeypatch):
    rng = random.Random(20261019)
    graphs = [complete(8), complete(9), complete(10)]
    for k in range(12):
        n = 8 + k % 3
        graphs.append(sparse_connected(rng, n, rng.randrange(5)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(ZGraph(n, [p for p in pairs if rng.random() < 0.6]))
    assert_same_walk_under_bareiss(monkeypatch, [g for g in graphs if dimension(g) == g.n - 1])


def test_a_pivot_that_is_not_a_unit_raises(monkeypatch):
    # the walk rests on total unimodularity: a pivot row that is doubled on
    # its way into the kernel brings the pivot 2, which is refused
    real = oracle._clear
    monkeypatch.setattr(oracle, "_clear", lambda rows, r, width, bias:
                        real(rows, 2 * r, width, bias))
    with pytest.raises(RuntimeError, match="pivot 2"):
        oracle_facets(complete(4))


def test_rank_equals_dimension_random():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(2, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = ZGraph(n, [p for p in pairs if rng.random() < 0.5])
        assert rank(reference.zone_matrix(g)) == dimension(g)


def test_oracle_facets_path():
    # edges (0, 1), (1, 2), (2, 3) are bits 0, 1, 2
    assert oracle_facets(path(4)) == [0b011, 0b101, 0b110]


def test_oracle_facets_k4_count():
    assert len(oracle_facets(complete(4))) == 7


def test_oracle_facets_star():
    # edges (0, 1), (0, 2), (0, 3) are bits 0, 1, 2
    g = ZGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert oracle_facets(g) == [0b011, 0b101, 0b110]


def test_oracle_same_belt_path():
    g = path(4)
    s1 = frozenset({(0, 1), (1, 2)})   # internal edges of {012 | 3}
    s2 = frozenset({(0, 1), (2, 3)})   # internal edges of {01 | 23}
    assert oracle_same_belt(g, s1, s2)
    with pytest.raises(ValueError, match="identical"):
        oracle_same_belt(g, s1, frozenset(s1))


def test_oracle_same_belt_k4_disjoint_supports():
    g = complete(4)
    s1 = frozenset({(0, 1), (2, 3)})
    s2 = frozenset({(0, 2), (1, 3)})
    assert not oracle_same_belt(g, s1, s2)


def test_budget_cap():
    with pytest.raises(OracleBudgetError):
        oracle_facets(complete(16))


def test_budget_cap_names_the_bound_and_the_cap():
    # K11's walk bound, 677,545 flats, passes the cap; K12's does not, and
    # it is refused before any elimination
    assert oracle.walk_bound(11, 55, 10) == 677545 <= oracle.WALK_FLAT_CAP
    with pytest.raises(OracleBudgetError, match="4211548 flats .* cap %d" % oracle.WALK_FLAT_CAP):
        oracle_facets(complete(12))


@pytest.mark.parametrize("n", range(3, 11))
def test_walk_bound_on_complete_graphs_is_the_partition_count(n):
    # every partition of K_n's vertices into connected blocks is a flat, and
    # C(|E|, r) >= S(n, n - r), so the bound is the flat count of rank 1..d-2
    m = n * (n - 1) // 2
    assert oracle.walk_bound(n, m, n - 1) == sum(stirling2(n, k) for k in range(3, n))


def test_walk_steps_stay_within_the_walk_bound(monkeypatch):
    # at most one step per flat of rank 1..d-2 the walk passes through
    calls = []
    real = oracle._clear

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_clear", counting)
    rng = random.Random(20261021)
    graphs = [g for n in range(3, 7) for g in enumerate_connected_graphs(n)]
    graphs += [sparse_connected(rng, n, rng.randrange(8)) for n in (8, 9, 10) for _ in range(3)]
    for g in graphs:
        del calls[:]
        oracle_facets(g)
        assert len(calls) <= oracle.walk_bound(g.n, len(g.edges), dimension(g)), g


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_every_connected_graph_matches_reference(n):
    for g in enumerate_connected_graphs(n):
        assert oracle_facets(g) == edge_masks(g, reference.oracle_facets(g)), g


def sparse_connected(rng, n, extra):
    """A random spanning tree on n vertices plus `extra` further edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[v], order[rng.randrange(v)]))) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges.update(rng.sample(pairs, extra))
    return ZGraph(n, edges)


def test_random_sparse_graphs_8_to_10_match_reference():
    # the reference visits C(|E|, d-1) subsets, so keep to |E| <= n + 4
    rng = random.Random(20261018)
    for k in range(12):
        n = 8 + k % 3
        g = sparse_connected(rng, n, rng.randrange(5))
        assert len(g.edges) <= n + 4 and dimension(g) == n - 1
        assert oracle_facets(g) == edge_masks(g, reference.oracle_facets(g)), g


def test_dense_graphs_8_to_10_match_greedy_reference():
    # too many bases for the all-bases reference: the list-based greedy walk
    # re-reduces every row through the whole span at each visit instead.
    # Dense graphs, K8 and K9 above all, have the largest parallel classes;
    # the flats the class walk passes through must be the core supports
    rng = random.Random(20261019)
    graphs = [complete(8), complete(9)]
    for k in range(6):
        n = 8 + k % 3
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(ZGraph(n, [p for p in pairs if rng.random() < 0.6]))
    for g in graphs:
        n = g.n
        assert dimension(g) == n - 1 and len(g.edges) >= 2 * n
        flats = set()
        assert oracle_facets(g, flats) == edge_masks(g, reference.oracle_facets_greedy(g)), g
        cores = core_supports(g)
        assert len(cores) == len(flats) and set(cores) == flats, g


def stirling2(n, k):
    """Partitions of an n-set into k blocks."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


@pytest.mark.parametrize("n", range(4, 10))
def test_clear_calls_on_complete_graphs_within_the_flats(monkeypatch, n):
    # the flats of rank 1..d-2 of K_n are its partitions into n-1..3 blocks,
    # 20,890 at n = 9; the class walk takes at most one step per flat it
    # passes through, where the row-by-row greedy walk made 189,456 steps
    calls = []
    real = oracle._clear

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_clear", counting)
    flats = set()
    assert len(oracle_facets(complete(n), flats)) == 2 ** (n - 1) - 1
    assert len(flats) == stirling2(n, 3)
    assert len(calls) <= sum(stirling2(n, k) for k in range(3, n))


def test_a_key_that_keeps_parallel_classes_apart_raises(monkeypatch):
    # a signed key keeps opposite residuals in two classes; clearing one
    # by the other leaves a zero residual, which the walk refuses
    monkeypatch.setattr(oracle, "abs", lambda v: v, raising=False)
    with pytest.raises(RuntimeError, match="parallel classes apart"):
        oracle_facets(complete(5))


@pytest.mark.parametrize("n", [4, 5])
def test_a_walk_that_reaches_a_support_twice_raises(monkeypatch, n):
    # a walk that credits every class of a node with its first class's rows
    # gives two children one support; the walk refuses it instead of
    # merging the two away
    monkeypatch.setattr(oracle, "enumerate", lambda res: ((0, r) for r in res),
                        raising=False)
    with pytest.raises(RuntimeError, match="reached the support .* twice"):
        oracle_facets(complete(n))


def test_same_belt_shortcut_matches_reference(monkeypatch):
    # every facet pair of every connected graph on 3..6 vertices, and of
    # seeded 7-vertex graphs: fewer than d - 2 shared edges answer without
    # elimination, and every answer equals the reference's
    ranks = []
    real = oracle.packed_rank

    def counting(rows, width, columns):
        ranks.append(len(rows))
        return real(rows, width, columns)

    monkeypatch.setattr(oracle, "packed_rank", counting)
    graphs = [g for n in range(3, 7) for g in enumerate_connected_graphs(n)]
    graphs += sample_connected_graphs(7, 12, seed=20261019)
    pairs = short = 0
    for g in graphs:
        edges = g.sorted_edges()
        supports = [frozenset(e for k, e in enumerate(edges) if m >> k & 1)
                    for m in oracle_facets(g)]
        for i, s1 in enumerate(supports):
            for s2 in supports[i + 1:]:
                got = oracle_same_belt(g, s1, s2)
                assert got == reference.oracle_same_belt(g, s1, s2), (g, s1, s2)
                pairs += 1
                short += len(s1 & s2) < dimension(g) - 2
    assert short > 0 and len(ranks) == pairs - short


def core_supports(g):
    """Edge-index bitmasks of the edges inside the parts of each core, from
    the set-based reference belts."""
    edges = g.sorted_edges()
    return [sum(1 << k for k, (i, j) in enumerate(edges)
                if any(part >> i & part >> j & 1 for part in belt.core))
            for belt in adjacency_reference.enumerate_codim2(g)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_walk_flats_are_the_core_supports(n):
    # the rank-(d-2) flats the facet walk passes through are the edge sets
    # inside the parts of the codimension-2 cores, one flat per core
    for g in enumerate_connected_graphs(n):
        flats = set()
        oracle_facets(g, flats)
        cores = core_supports(g)
        assert len(cores) == len(flats) and set(cores) == flats, g
