"""Conjugate colorings: checks, enumeration, generators, reduction, search."""

import random
from collections import Counter
from itertools import combinations, islice

import pytest

import growth_reference
from growth_reference import enumerate_connected_graphs
from adjacency_reference import in_same_belt
import conjugate_reference
from conjugate_reference import (
    bipartite_trees_reference,
    color_facets,
    colored_key,
    d8_common_neighbors_lists,
    d8_common_neighbors_reference,
    enumerate_conjugate,
    enumerate_conjugate_classes,
    free_trees_by_pruefer,
    red_forest_reps,
    search_extremal_reference,
    tree_bipartition,
)
from zonobelt import faces, symmetric, venkov, zgraph
from zonobelt.faces import enumerate_facets
from zonobelt.symmetric import (
    D8_X1,
    D8_X2,
    D8_Y1,
    D8_Y2,
    ColoredZGraph,
    bipartite_trees,
    check_conjugate,
    conjugate_colorings,
    cross_completions,
    find_common_leaf,
    free_trees,
    gen_even_extremal,
    gen_k2dm1,
    gen_odd_extremal,
    is_bipartite,
    permutahedron_graph,
    red_blue_distance,
    reduce_to_symmetric,
    search_d8_nonsymmetric,
    search_extremal,
)
from zonobelt.venkov import belt_distance
from zonobelt.zgraph import ZGraph, bits, dimension, mask_of
from zonobelt.zgraph import reach as zgraph_reach


def path(n):
    return ZGraph(n, [(i, i + 1) for i in range(n - 1)])


def swapped(cg):
    return ColoredZGraph(cg.base, cg.blue, cg.red)


# set-based reference conjugacy check, independent of the library's
def ref_conjugate(n, red, blue):
    def comps(edges):
        left = set(range(n))
        parts = []
        while left:
            v = min(left)
            part = {v}
            frontier = [v]
            while frontier:
                u = frontier.pop()
                for a, b in edges:
                    w = b if a == u else a if b == u else None
                    if w is not None and w not in part:
                        part.add(w)
                        frontier.append(w)
            parts.append(part)
            left -= part
        return parts

    rc, bc = comps(red), comps(blue)
    if len(rc) != 2 or len(bc) != 2:
        return False
    if len(red) != n - 2 or len(blue) != n - 2:
        return False
    for a, b in red:
        if (a in bc[0]) == (b in bc[0]):
            return False
    for a, b in blue:
        if (a in rc[0]) == (b in rc[0]):
            return False
    return True


def test_colored_graph_validation():
    g = ZGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="both colors"):
        ColoredZGraph(g, [(0, 1)], [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="exactly one color"):
        ColoredZGraph(g, [(0, 1)], [])


def test_colorings_share_the_graph_edge_objects():
    red = [(1, 0), (2, 3)]
    blue = [(0, 3), (2, 1)]
    cg = ColoredZGraph(ZGraph(4, red + blue), [(0, 1), (2, 3)], blue)
    other = ColoredZGraph(ZGraph(4, [(3, 2), (1, 2), (1, 0), (3, 0)]), red, blue)
    for a, b in ((cg, other), (swapped(cg), swapped(other))):
        for e in a.red | a.blue:
            assert any(e is f for f in b.base.edges)
            assert any(e is f for f in a.base.edges)
    for tree in bipartite_trees(mask_of([0, 1]), mask_of([2, 3])):
        for e in tree:
            assert e is zgraph.PAIR[e[0]][e[1]]


def test_check_conjugate_reports_reasons():
    g = ZGraph(4, [(0, 1), (1, 2), (2, 3)])
    cg = ColoredZGraph(g, [(0, 1), (1, 2)], [(2, 3)])
    ok, reasons = check_conjugate(cg)
    assert not ok
    assert any("blue edge count" in r for r in reasons)


def test_find_common_leaf_requires_conjugate():
    g = ZGraph(4, [(0, 1), (1, 2), (2, 3)])
    cg = ColoredZGraph(g, [(0, 1), (1, 2)], [(2, 3)])
    with pytest.raises(ValueError, match="not conjugate"):
        find_common_leaf(cg)


def test_enumerate_conjugate_matches_brute_force():
    for n in (4, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        brute = 0
        for red in combinations(pairs, n - 2):
            rest = [p for p in pairs if p not in red]
            for blue in combinations(rest, n - 2):
                if ref_conjugate(n, red, blue):
                    brute += 1
        ours = 0
        for cg in enumerate_conjugate(n):
            assert ref_conjugate(n, sorted(cg.red), sorted(cg.blue))
            ours += 1
        assert ours == brute


def test_conjugate_class_counts():
    assert len(enumerate_conjugate_classes(4)) == 2
    assert len(enumerate_conjugate_classes(5)) == 2
    assert len(enumerate_conjugate_classes(6)) == 4
    assert len(enumerate_conjugate_classes(7)) == 7


def test_classes_cover_labeled_enumeration():
    for n in (4, 5, 6):
        keys = {colored_key(cg) for cg in enumerate_conjugate(n)}
        reps = {colored_key(cg) for cg in enumerate_conjugate_classes(n)}
        assert keys == reps


def test_conjugate_colorings_cover_every_class():
    # every completion of every red forest of free trees is a conjugate
    # coloring, and together they meet every class: 3, 3, 10, 28 and 240
    # completions for the 2, 2, 4, 7 and 24 classes on 4..8 vertices
    for n, count, classes in ((4, 3, 2), (5, 3, 2), (6, 10, 4), (7, 28, 7), (8, 240, 24)):
        colorings = list(conjugate_colorings(n))
        assert len(colorings) == count
        assert all(check_conjugate(cg)[0] for cg in colorings)
        keys = {colored_key(cg) for cg in enumerate_conjugate_classes(n)}
        assert len(keys) == classes
        assert {colored_key(cg) for cg in colorings} == keys


def test_colored_key_invariance():
    rng = random.Random(51)
    for cg in enumerate_conjugate_classes(6):
        n = cg.base.n
        key = colored_key(cg)
        relab = list(range(n))
        rng.shuffle(relab)
        red = [(relab[i], relab[j]) for i, j in cg.red]
        blue = [(relab[i], relab[j]) for i, j in cg.blue]
        moved = ColoredZGraph(ZGraph(n, red + blue), red, blue)
        assert colored_key(moved) == key
        assert colored_key(swapped(moved)) == key


def test_free_trees_counts():
    # 1, 1, 1, 2, 3, 6, 11, 23, 47, 106 free trees on 1..10 vertices
    for k, want in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11),
                    (8, 23), (9, 47), (10, 106)):
        assert len(free_trees(k)) == want


def test_free_trees_match_pruefer_reference():
    for k in range(1, 8):
        assert free_trees(k) == free_trees_by_pruefer(k)


def test_free_trees_match_unfiltered_growth():
    for k in range(1, 10):
        assert free_trees(k) == growth_reference.free_trees(k)


def test_free_trees_match_twin_rule_growth():
    for k in range(1, 11):
        assert free_trees(k) == growth_reference.free_trees_by_twins(k)


def test_tree_growth_stays_within_labeling_budget(monkeypatch):
    # leaf attachment labels only trees whose new leaf is a least leaf, one
    # leaf per orbit of the tree's automorphism group (113 calls up to
    # k = 9, 136 with twin swaps only, 326 with every attachment labeled);
    # labeling every Pruefer tree takes 1,302 calls for k = 6 alone
    calls = []

    def counting(adj):
        calls.append(len(adj))
        if len(calls) > 1000:
            raise AssertionError("more than 1000 labelings")

    growth_reference.on_every_labeling(monkeypatch, counting)
    symmetric._tree_forms.cache_clear()   # grow every level under the counter
    assert len(free_trees(9)) == 47
    symmetric._tree_forms.cache_clear()
    res = search_extremal(9, max_nodes=50)
    assert res.status == "found" and res.distance == 3
    assert calls
    # the search grows trees on at most d - 1 vertices and labels nothing
    # else: 113 labelings for d = 10, against 257 with the 10-vertex trees
    calls.clear()
    symmetric._tree_forms.cache_clear()
    res = search_extremal(10)
    assert res.status == "found" and res.distance == 3
    assert len(calls) <= 400
    # every size up to 10: 257 labelings, 302 with twin swaps only
    calls.clear()
    symmetric._tree_forms.cache_clear()
    assert len(free_trees(10)) == 106
    assert len(calls) <= 260


def test_bipartite_trees_cayley_count():
    # spanning trees of K_{a,b}: a^(b-1) * b^(a-1)
    xs = mask_of([0, 1])
    ys = mask_of([2, 3, 4])
    got = list(bipartite_trees(xs, ys))
    assert len(got) == 2 ** 2 * 3 ** 1
    assert len(set(got)) == len(got)
    for tree in got:
        assert len(tree) == 4


def test_bipartite_trees_degree_floor():
    xs = mask_of([0])
    ys = mask_of([1, 2])
    # the star is the only tree; leaf floors of 2 are unsatisfiable
    assert list(bipartite_trees(xs, ys, {1: 2})) == []
    assert len(list(bipartite_trees(xs, ys))) == 1


def _floors(rng, vertices):
    return {v: rng.choice((1, 2, 2, 3)) for v in vertices if rng.random() < 0.5}


def test_bipartite_trees_match_reference_on_every_small_split():
    rng = random.Random(41)
    for n in range(1, 8):
        full = (1 << n) - 1
        for xs in range(full + 1):
            ys = full ^ xs
            for floor in (None, _floors(rng, range(n)), _floors(rng, range(n))):
                assert (list(bipartite_trees(xs, ys, floor))
                        == list(bipartite_trees_reference(xs, ys, floor)))


def test_bipartite_trees_match_reference_on_seeded_splits():
    rng = random.Random(42)
    for case in range(40):
        k = rng.randint(8, 12)
        vertices = rng.sample(range(16), k)
        cut = rng.randint(1, k - 1)
        xs, ys = mask_of(vertices[:cut]), mask_of(vertices[cut:])
        floor = {v: 2 for v in vertices if rng.random() < 0.3} if case % 2 else None
        got = list(islice(bipartite_trees(xs, ys, floor), 200))
        assert got == list(islice(bipartite_trees_reference(xs, ys, floor), 200))


def _classes_and_searches():
    classes = [[(cg.base.n, sorted(cg.red), sorted(cg.blue))
                for cg in enumerate_conjugate_classes(n)] for n in range(2, 9)]
    searches = []
    for d in range(3, 11):
        res = search_extremal(d)
        witness = res.witness and (sorted(res.witness.red), sorted(res.witness.blue))
        searches.append((res.status, res.distance, res.nodes, witness))
    return classes, searches


def test_classes_and_searches_match_reference_tree_walk(monkeypatch):
    got = _classes_and_searches()
    monkeypatch.setattr(symmetric, "bipartite_trees", bipartite_trees_reference)
    assert _classes_and_searches() == got


def test_leaf_floor_drops_exactly_the_common_leaf_completions():
    # forbid_common_leaf prunes inside the tree search; it must keep every
    # completion that a filter on the finished coloring would keep
    for n in range(4, 10):
        for forest in red_forest_reps(n):
            leaves = {v for v in range(n) if sum(v in e for e in forest) == 1}
            want = [c for c in cross_completions(n, forest)
                    if not any(sum(v in e for e in c) == 1 for v in leaves)]
            assert list(cross_completions(n, forest, forbid_common_leaf=True)) == want


def test_cross_completions_are_conjugate():
    red = ((0, 1), (2, 3), (3, 4))
    for blue in cross_completions(5, red):
        cg = ColoredZGraph(ZGraph(5, red + tuple(blue)), red, blue)
        ok, reasons = check_conjugate(cg)
        assert ok, reasons


def test_gen_k2dm1():
    cg = gen_k2dm1(5)
    assert cg.base.n == 6
    assert check_conjugate(cg)[0]
    assert find_common_leaf(cg) is not None
    assert red_blue_distance(cg) == 2
    with pytest.raises(ValueError):
        gen_k2dm1(2)


def test_permutahedron_graph():
    g = permutahedron_graph(4)
    assert g.n == 5
    assert len(g.edges) == 10
    assert dimension(g) == 4


def test_generators_hit_distance_three():
    cg = gen_odd_extremal(2)
    assert cg.base.n == 8 and red_blue_distance(cg) == 3
    cg = gen_even_extremal(3)
    assert cg.base.n == 11 and red_blue_distance(cg) == 3
    with pytest.raises(ValueError):
        gen_odd_extremal(1)
    with pytest.raises(ValueError):
        gen_even_extremal(2)


def test_color_facets_match_components():
    cg = gen_k2dm1(4)
    fr, fb = color_facets(cg)
    assert fr[0] | fr[1] == cg.base.full_mask
    assert fb[0] | fb[1] == cg.base.full_mask
    assert bits(fr[0]) == [0]   # blue star center is its own red component
    assert bits(fb[0]) == [0, 2, 3, 4]


def test_is_bipartite():
    assert is_bipartite(path(4))
    assert not is_bipartite(ZGraph(3, [(0, 1), (1, 2), (0, 2)]))


def test_is_bipartite_matches_reference_on_every_connected_graph():
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            assert is_bipartite(g) == conjugate_reference.is_bipartite(g), g


def test_is_bipartite_matches_reference_on_seeded_graphs():
    # random bipartite graphs, half of them with one edge inside a side;
    # sparse ones fall apart, so later components get checked too
    rng = random.Random(71)
    verdicts = Counter()
    for _ in range(300):
        n = rng.randint(8, 12)
        side = [rng.random() < 0.5 for _ in range(n)]
        p = rng.choice((0.15, 0.3, 0.5))
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)
                 if side[i] != side[j] and rng.random() < p}
        if rng.random() < 0.5:
            edges.add(rng.choice([(i, j) for i in range(n) for j in range(i + 1, n)
                                  if side[i] == side[j]]))
        g = ZGraph(n, edges)
        want = conjugate_reference.is_bipartite(g)
        assert is_bipartite(g) == want, g
        verdicts[want, len(zgraph.components(g)) > 1] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_two_coloring_matches_tree_bipartition_on_every_forest():
    # the classes, root class first, that cross_completions pairs up
    for n in range(2, 10):
        for forest in red_forest_reps(n):
            g = ZGraph(n, forest)
            for comp in zgraph.components(g):
                assert (symmetric._two_coloring(g.adj, comp & -comp)
                        == tree_bipartition(n, forest, comp)), (forest, comp)


def test_common_leaf_matches_degree_scan():
    for n in range(4, 9):
        for cg in enumerate_conjugate_classes(n):
            assert find_common_leaf(cg) == conjugate_reference.find_common_leaf(cg)
    for cg in enumerate_conjugate(5):
        assert find_common_leaf(cg) == conjugate_reference.find_common_leaf(cg)


def test_reduce_to_symmetric_identity_case():
    # an already conjugate pair reduces to itself
    cg0 = gen_k2dm1(4)
    f1, f2 = color_facets(cg0)
    cg, i1, i2 = reduce_to_symmetric(cg0.base, f1, f2)
    assert cg.base.edges == cg0.base.edges
    assert {i1[0], i1[1]} == {f1[0], f1[1]}
    assert {i2[0], i2[1]} == {f2[0], f2[1]}


def test_reduce_to_symmetric_rejects_equal_pairs():
    g = path(4)
    with pytest.raises(ValueError, match="distinct"):
        reduce_to_symmetric(g, (0b0011, 0b1100), (0b1100, 0b0011))


def test_reduce_to_symmetric_random_invariants():
    rng = random.Random(61)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    done = 0
    while done < 40:
        g = ZGraph(6, [p for p in pairs if rng.random() < 0.6])
        if not g.connected_in(g.full_mask):
            continue
        fs = [f for f in enumerate_facets(g) if f[0] & 1]
        if len(fs) < 2:
            continue
        f1, f2 = rng.sample(fs, 2)
        before = belt_distance(g, f1, f2)[0]
        cg, i1, i2 = reduce_to_symmetric(g, f1, f2)
        ok, reasons = check_conjugate(cg)
        assert ok, reasons
        fr, fb = color_facets(cg)
        assert {i1[0], i1[1]} == {fr[0], fr[1]}
        assert {i2[0], i2[1]} == {fb[0], fb[1]}
        assert red_blue_distance(cg) >= before
        done += 1


def _reduction_or_error(reduce, g, f1, f2):
    try:
        cg, i1, i2 = reduce(g, f1, f2)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return cg.base.n, sorted(cg.red), sorted(cg.blue), i1, i2


def seeded_reduction_pairs():
    """(g, f1, f2): five facet pairs on each of 60 seeded graphs per n = 4..10."""
    rng = random.Random(63)
    for n in range(4, 11):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs = 0
        while graphs < 60:
            g = ZGraph(n, [p for p in pairs if rng.random() < rng.choice((0.4, 0.6, 0.8))])
            fs = enumerate_facets(g) if g.connected_in(g.full_mask) else []
            if len(fs) < 2:
                continue
            graphs += 1
            for _ in range(5):
                yield (g, *rng.sample(fs, 2))


def test_reduction_matches_reference_on_seeded_pairs():
    cases = 0
    for g, f1, f2 in seeded_reduction_pairs():
        assert (_reduction_or_error(reduce_to_symmetric, g, f1, f2)
                == _reduction_or_error(conjugate_reference.reduce_to_symmetric,
                                       g, f1, f2)), (g, f1, f2)
        cases += 1
    assert cases == 2100


def test_reduction_builds_at_most_three_graphs(monkeypatch):
    # the reduction runs on one copy of the neighbour masks: the image and
    # the two color graphs of its conjugacy check are its only graphs
    cases = [*seeded_reduction_pairs(), (ZGraph(9, D8_WITNESS_SEED12), D8_F1, D8_F2),
             (ZGraph(9, D8_WITNESS_SEED1), D8_F1, D8_F2)]
    built = []
    real = ZGraph.__init__

    def counting(self, *args):
        built.append(1)
        real(self, *args)

    monkeypatch.setattr(ZGraph, "__init__", counting)
    most = 0
    for g, f1, f2 in cases:
        built.clear()
        _reduction_or_error(reduce_to_symmetric, g, f1, f2)
        most = max(most, len(built))
    assert most == 3


def test_search_extremal_low_dimensions():
    for d in (3, 4, 5):
        res = search_extremal(d)
        assert res.status == "none"
    res = search_extremal(7)
    assert res.status == "found"
    assert res.distance == 3
    assert find_common_leaf(res.witness) is None


@pytest.mark.parametrize("d", range(3, 10))
def test_search_extremal_matches_reference(d):
    res = search_extremal(d)
    status, distance, _ = search_extremal_reference(d)
    assert (res.status, res.distance) == (status, distance)
    if res.status == "found":
        assert res.witness.base.n == d + 1
        assert check_conjugate(res.witness)[0]
        assert find_common_leaf(res.witness) is None
        assert red_blue_distance(res.witness) == 3
    else:
        assert res.witness is None


def test_small_conjugate_classes_all_have_common_leaves():
    # the d <= 6 "none" without the leaf-count argument
    for n in range(4, 8):
        for cg in enumerate_conjugate_classes(n):
            assert find_common_leaf(cg) is not None
        assert search_extremal(n - 1).nodes == 0


def test_search_extremal_validates_d(monkeypatch):
    # no graph has more than 16 vertices: d > 15 is refused before any tree grows
    monkeypatch.setattr(symmetric, "free_trees", None)
    with pytest.raises(ValueError, match="need d >= 3"):
        search_extremal(2)
    for d in (16, 40):
        with pytest.raises(ValueError, match="need d <= 15"):
            search_extremal(d, budget_seconds=0.5)


def test_search_extremal_budget_exhaustion():
    # d = 8 completes three forests before answering "none"
    res = search_extremal(8, max_nodes=1)
    assert res.status == "inconclusive"
    assert res.nodes == 2


def test_search_d8_budget_exhaustion():
    res = search_d8_nonsymmetric(max_nodes=1, seed=3)
    assert res.status == "inconclusive"
    assert res.witness is None


# the d8 climb's witnesses from restart seeds 12 (node 97) and 1 (node 844)
D8_WITNESS_SEED12 = [(0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 3), (1, 6), (1, 7), (2, 5),
                     (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (4, 8), (5, 8), (6, 7), (7, 8)]
D8_WITNESS_SEED1 = [(0, 2), (0, 4), (0, 5), (0, 8), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (2, 5),
                    (2, 7), (2, 8), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 8), (5, 6), (6, 7),
                    (7, 8)]
D8_F1 = (D8_X1, D8_Y1)
D8_F2 = (D8_X2, D8_Y2)


def test_d8_common_neighbors_in_k9():
    # in K9 every part is connected, so only the empty intersections decide
    k9 = permutahedron_graph(8)
    brute = [f for f in enumerate_facets(k9)
             if f[0] & 1 and {f[0], f[1]} not in ({D8_X1, D8_Y1}, {D8_X2, D8_Y2})
             and in_same_belt(k9, f, D8_F1) and in_same_belt(k9, f, D8_F2)]
    assert d8_score(k9) == d8_common_neighbors_lists(k9) == len(brute) == 16


def d8_score(g):
    return symmetric._d8_rank(symmetric._d8_answers(g))


def fixed_parts_penalty(g):
    return 100 * sum(not g.connected_in(m) for m in (D8_X1, D8_Y1, D8_X2, D8_Y2))


def test_d8_score_matches_full_scan_on_random_graphs():
    rng = random.Random(88)
    pairs = list(combinations(range(9), 2))
    unpenalised = 0
    for p in (0.3, 0.5, 0.7):
        for _ in range(100):
            g = ZGraph(9, [e for e in pairs if rng.random() < p])
            if not g.connected_in(g.full_mask):
                continue
            want = d8_common_neighbors_reference(g)
            assert d8_common_neighbors_lists(g) == want
            score = d8_score(g)
            if score < 100:
                assert score == want
                unpenalised += 1
            else:
                assert score == fixed_parts_penalty(g)
    assert unpenalised >= 30


def flipped(adj, i, j):
    """The graph of adj with the edge {i, j} flipped."""
    adj = list(adj)
    adj[i] ^= 1 << j
    adj[j] ^= 1 << i
    return ZGraph(9, [(u, v) for u, v in combinations(range(9), 2) if adj[u] >> v & 1])


def test_d8_score_matches_full_scan_along_a_climb(monkeypatch):
    # every graph the seed-12 climb scores: its restarts in full, its flips
    # from the answers the flip can change
    real_answers, real_flip = symmetric._d8_answers, symmetric._d8_flip
    scored = []

    def recording_answers(g):
        answers = real_answers(g)
        scored.append((g, symmetric._d8_rank(answers), answers))
        return answers

    def recording_flip(adj, answers, i, j):
        before = list(adj)
        score, flip_answers = real_flip(adj, answers, i, j)
        assert adj == before
        scored.append((flipped(adj, i, j), score, flip_answers))
        return score, flip_answers

    monkeypatch.setattr(symmetric, "_d8_answers", recording_answers)
    monkeypatch.setattr(symmetric, "_d8_flip", recording_flip)
    res = search_d8_nonsymmetric(max_nodes=400, seed=12)
    assert (res.status, res.nodes) == ("found", 97)
    assert res.witness[0].sorted_edges() == D8_WITNESS_SEED12
    checked = 0
    for g, score, answers in scored:
        # the real function: the recording one would grow the list walked here
        assert answers == real_answers(g)
        if score < 100:
            assert score == d8_common_neighbors_reference(g)
            checked += 1
        else:
            assert score == fixed_parts_penalty(g)
    assert checked > 1000


def test_d8_flips_from_disconnected_fixed_parts_match_full_scan():
    # 300 seeded graphs with a fixed part that is not connected: every flip
    # rescored from the answers equals the full score of the flipped graph
    rng = random.Random(2025)
    pairs = list(combinations(range(9), 2))
    graphs = unpenalised = 0
    while graphs < 300:
        g = ZGraph(9, [e for e in pairs if rng.random() < rng.choice((0.3, 0.5, 0.7))])
        if not fixed_parts_penalty(g):
            continue
        graphs += 1
        adj, answers = list(g.adj), symmetric._d8_answers(g)
        for i, j in pairs:
            score, flip_answers = symmetric._d8_flip(adj, answers, i, j)
            h = flipped(adj, i, j)
            assert flip_answers == symmetric._d8_answers(h)
            if score < 100:
                assert score == d8_common_neighbors_reference(h)
                unpenalised += 1
            else:
                assert score == fixed_parts_penalty(h)
        assert adj == list(g.adj)
    assert unpenalised >= 30


def test_d8_score_asks_each_mask_once(monkeypatch):
    # 60 fixed masks decide the score: one reach per mask, no neighbour list
    calls = Counter()
    asked = []

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def reach(adj, start, mask):
        asked.append(mask)
        return zgraph_reach(adj, start, mask)

    for mod in (faces, venkov, symmetric):
        if hasattr(mod, "enumerate_facets"):
            monkeypatch.setattr(mod, "enumerate_facets",
                                counting("enumerate_facets", faces.enumerate_facets))
    monkeypatch.setattr(venkov, "belt_neighbors",
                        counting("belt_neighbors", venkov.belt_neighbors))
    monkeypatch.setattr(zgraph, "reach", reach)
    # K9: every part is connected and all 16 common neighbours count
    for g, score in ((permutahedron_graph(8), 16), (ZGraph(9, D8_WITNESS_SEED12), 0)):
        asked.clear()
        assert d8_score(g) == score
        assert calls == {}
        assert sorted(asked) == sorted(symmetric._D8_MASKS) and len(asked) == 60


def test_d8_flips_ask_only_the_masks_they_can_change(monkeypatch):
    # a capped climb makes no neighbour-list call; a flip of {i, j} asks only
    # masks holding both ends whose answer it can change: an added edge only
    # masks that were not connected, a removed one only those that were
    flips = []

    def no_lists(*args):
        raise AssertionError("belt_neighbors called")

    def reach(adj, start, mask):
        flips[-1][-1].append(mask)
        return zgraph_reach(adj, start, mask)

    real_flip = symmetric._d8_flip

    def recording_flip(adj, answers, i, j):
        flips.append((not adj[i] >> j & 1, answers, i, j, []))
        return real_flip(adj, answers, i, j)

    monkeypatch.setattr(venkov, "belt_neighbors", no_lists)
    monkeypatch.setattr(symmetric, "reach", reach)
    monkeypatch.setattr(symmetric, "_d8_flip", recording_flip)
    res = search_d8_nonsymmetric(max_nodes=90, seed=12)
    assert (res.status, res.nodes) == ("inconclusive", 91)
    index = {m: k for k, m in enumerate(symmetric._D8_MASKS)}
    asked = holding = 0
    for adding, answers, i, j, masks in flips:
        for m in masks:
            assert m >> i & m >> j & 1, (i, j, m)
            assert (answers >> index[m] & 1) != adding, (i, j, m)
        assert len(masks) == len(set(masks))
        asked += len(masks)
        holding += sum(m >> i & m >> j & 1 for m in symmetric._D8_MASKS)
    assert len(flips) > 1000
    assert asked < holding


def d8_outcome(res):
    return res.status, res.nodes, res.distance, res.witness and res.witness[0].sorted_edges()


@pytest.mark.parametrize("seed, max_nodes", [(s, 10) for s in range(1, 41)] + [(12, 400)],
                         ids=lambda x: str(x))
def test_d8_climb_matches_the_full_rescoring_climb(seed, max_nodes):
    res = search_d8_nonsymmetric(budget_seconds=None, max_nodes=max_nodes, seed=seed)
    assert d8_outcome(res) == d8_outcome(conjugate_reference.search_d8_reference(max_nodes, seed))


@pytest.mark.parametrize("edges", [D8_WITNESS_SEED12, D8_WITNESS_SEED1])
def test_d8_witnesses_reduce_to_leaf_free_colorings(edges):
    g = ZGraph(9, edges)
    assert (_reduction_or_error(reduce_to_symmetric, g, D8_F1, D8_F2)
            == _reduction_or_error(conjugate_reference.reduce_to_symmetric, g, D8_F1, D8_F2))
    cg, i1, i2 = reduce_to_symmetric(g, D8_F1, D8_F2)
    assert cg.base.n == 8
    assert check_conjugate(cg)[0]
    assert find_common_leaf(cg) is None
    assert red_blue_distance(cg) == 3


def test_each_public_call_checks_a_coloring_once(monkeypatch):
    # one conjugacy pass per call: the base graph's dimension and each
    # color's components once, plus the base components behind is_bipartite
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    cg = gen_even_extremal(5)
    monkeypatch.setattr(symmetric, "components", counting("components", zgraph.components))
    monkeypatch.setattr(symmetric, "dimension", counting("dimension", zgraph.dimension))
    for fn, want in ((symmetric.build_report, 3), (check_conjugate, 2),
                     (find_common_leaf, 2), (red_blue_distance, 2)):
        calls.clear()
        fn(cg)
        assert calls == {"components": want, "dimension": 1}, fn.__name__
    # the completion's forest, then one pass over the finished coloring
    calls.clear()
    gen_even_extremal(5)
    assert calls == {"components": 3, "dimension": 1}


@pytest.mark.parametrize("limits", [{"max_nodes": -1}, {"budget_seconds": -0.5}],
                         ids=["max_nodes", "budget_seconds"])
def test_negative_budgets_are_rejected(limits):
    with pytest.raises(ValueError, match=">= 0"):
        search_extremal(5, **limits)
    with pytest.raises(ValueError, match=">= 0"):
        search_d8_nonsymmetric(seed=1, **limits)


def test_zero_budget_still_answers_what_needs_no_work():
    res = search_extremal(5, max_nodes=0)
    assert (res.status, res.nodes) == ("none", 0)
    assert search_extremal(8, max_nodes=0).status == "inconclusive"


@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize("limit", [{"budget_seconds": 0}, {"max_nodes": 0}],
                         ids=["budget_seconds", "max_nodes"])
def test_low_dimensions_answer_none_before_growing_trees(monkeypatch, d, limit):
    # for d <= 6 two trees already have more than (d + 1) // 2 leaves, so
    # "none" needs no tree and no budget: not even a zero one is checked
    symmetric._tree_forms.cache_clear()
    monkeypatch.setattr(symmetric._Budget, "tick", None)
    res = search_extremal(d, **limit)
    assert (res.status, res.witness, res.nodes) == ("none", None, 0)
    assert symmetric._tree_forms.cache_info().currsize == 0
