"""Graph enumeration, sampling, and the campaign runner."""

import ast
import itertools
import random

import pytest

import growth_reference
import oracle_reference
from zonobelt import faces, oracle, sweep, symmetric, venkov
from growth_reference import edge_label, enumerate_connected_graphs, sample_connected_graphs
from zonobelt.sweep import (
    CONNECTED_COUNTS,
    CSV_HEADER,
    oracle_agrees,
    report_csv,
    report_json,
    run_sweep,
)
from zonobelt.zgraph import ZGraph, dimension, relabel


def test_connected_counts_to_seven():
    for n in range(1, 8):
        assert len(enumerate_connected_graphs(n)) == CONNECTED_COUNTS[n - 1]


def test_enumeration_errors():
    with pytest.raises(ValueError, match="n >= 1"):
        enumerate_connected_graphs(0)
    with pytest.raises(ValueError, match="exhaustive sweep needs n <= 8, got 9"):
        enumerate_connected_graphs(9)
    with pytest.raises(ValueError, match="exhaustive sweep needs n <= 8, got 9"):
        next(sweep.connected_levels(4, 9))   # before growing any level


def test_a_level_of_the_wrong_size_raises(monkeypatch):
    # growth that loses one form of level 5 yields 20 graphs, not 21: the
    # count is checked, not trusted, also on a level that is not yielded
    real = sweep.grow_canonical
    monkeypatch.setattr(sweep, "grow_canonical", lambda forms, k, masks: itertools.islice(
        real(forms, k, masks), 1 if k == 4 else 0, None))
    with pytest.raises(RuntimeError, match="made 20 connected graphs on 5 vertices, not 21"):
        list(sweep.connected_levels(1, 5))
    with pytest.raises(RuntimeError, match="on 5 vertices"):
        list(sweep.connected_levels(6, 6))


def test_enumeration_labels_each_candidate_once(monkeypatch):
    calls = counting_labelings(monkeypatch)
    graphs = enumerate_connected_graphs(6)
    # level k grows every connected graph on k vertices by 2^k - 1 attachments
    candidates = sum(CONNECTED_COUNTS[k - 1] * ((1 << k) - 1) for k in range(1, 6))
    assert len(graphs) == CONNECTED_COUNTS[5]
    assert 0 < len(calls) <= candidates


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_unfiltered_growth(n):
    # the invariant filter drops no class and changes no canonical form
    got = [tuple(g.sorted_edges()) for g in enumerate_connected_graphs(n)]
    assert got == growth_reference.connected_graphs(n)


def counting_labelings(monkeypatch) -> list:
    """The vertex counts of the labelings made from now on."""
    calls = []
    growth_reference.on_every_labeling(monkeypatch, lambda adj: calls.append(len(adj)))
    return calls


def consume(levels) -> list:
    """Each level of a `connected_levels` run, read through once, as a list."""
    return [list(graphs) for graphs in levels]


def test_enumeration_stays_within_labeling_budget(monkeypatch):
    # only candidates whose new vertex is a least non-cut vertex, one per
    # orbit of the parent's automorphism group, are labeled, and at the
    # streamed top level only those whose least non-cut vertex is not
    # unique: 463 labelings up to n = 7, against 1,028 with the top level
    # labeled and sorted, 1,305 with twin swaps only and 7,815 with every
    # candidate labeled
    calls = counting_labelings(monkeypatch)
    levels = consume(sweep.connected_levels(1, 7))
    assert [len(graphs) for graphs in levels] == CONNECTED_COUNTS[:7]
    assert 0 < len(calls) <= 480


def test_levels_to_eight_match_twin_rule_growth(monkeypatch):
    # canonical augmentation keeps exactly the classes, canonical forms and
    # order of the twin rule with one dictionary per level, up to n = 8, in
    # 4,414 labelings against 12,858 with the top level labeled and sorted
    # and the twin rule's 15,687 (116,146 with every candidate labeled);
    # the streamed top level, labeled here, gives the same forms
    calls = counting_labelings(monkeypatch)
    levels = consume(sweep.connected_levels(1, 8))
    assert 0 < len(calls) <= 4450
    monkeypatch.undo()
    assert [len(graphs) for graphs in levels] == CONNECTED_COUNTS
    levels[-1] = growth_reference.canonical_level(levels[-1])
    for n, graphs in enumerate(levels, 1):
        got = [tuple(g.sorted_edges()) for g in graphs]
        assert got == growth_reference.connected_graphs_by_twins(n), n


def test_levels_match_unfiltered_growth():
    # one generator grows every level once, from the level below; the
    # streamed n = 7 level, labeled here, holds the same forms
    levels = consume(sweep.connected_levels(1, 7))
    assert [len(graphs) for graphs in levels] == CONNECTED_COUNTS[:7]
    levels[-1] = growth_reference.canonical_level(levels[-1])
    for n, graphs in enumerate(levels, 1):
        assert [tuple(g.sorted_edges()) for g in graphs] == growth_reference.connected_graphs(n)
    assert [g.n for g in next(sweep.connected_levels(3, 5))] == [3, 3]


def test_the_top_level_streams_in_growth_labels():
    # every level is an iterator; below the top it gives canonical forms in
    # key order, and some graphs of the top level are not canonical
    levels = sweep.connected_levels(6, 7)
    lower, top = next(levels), next(levels)
    assert not isinstance(lower, list) and not isinstance(top, list)
    assert [g.sorted_edges() for g in lower] == [
        g.sorted_edges() for g in enumerate_connected_graphs(6)]
    streamed = list(top)
    assert len(streamed) == CONNECTED_COUNTS[6]
    forms = {tuple(g.sorted_edges()) for g in growth_reference.canonical_level(streamed)}
    assert any(tuple(g.sorted_edges()) not in forms for g in streamed)


def test_independence_number_never_rises_in_key_order():
    # with one edge class a least key opens with a largest independent
    # set, so a graph with a larger independence number has a smaller key:
    # the rule the sweep's witness rests on
    for n in range(2, 8):
        graphs = enumerate_connected_graphs(n)
        alphas = [sweep._independence(g.adj, g.full_mask) for g in graphs]
        assert alphas == sorted(alphas, reverse=True), n
        assert alphas[0] == n - 1 and alphas[-1] == 1


def test_enumeration_is_canonical_and_sorted():
    graphs = enumerate_connected_graphs(5)
    labels = [edge_label(5, g.edges) for g in graphs]
    keys = [key for key, _, _ in labels]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for g, (_, perm, _) in zip(graphs, labels):
        assert relabel(g.edges, perm) == tuple(g.sorted_edges())


def test_canonical_key_relabel_invariant():
    rng = random.Random(41)
    for g in enumerate_connected_graphs(5):
        relab = list(range(5))
        rng.shuffle(relab)
        h = ZGraph(5, [(relab[i], relab[j]) for i, j in g.edges])
        assert edge_label(5, h.edges)[0] == edge_label(5, g.edges)[0]


def test_sampling_deterministic_and_connected():
    a = sample_connected_graphs(7, 20, seed=5)
    b = sample_connected_graphs(7, 20, seed=5)
    assert [g.edges for g in a] == [g.edges for g in b]
    assert len({g.edges for g in a}) == 20
    for g in a:
        assert dimension(g) == 6


def test_oracle_agrees_small():
    for g in enumerate_connected_graphs(4):
        assert oracle_agrees(g)


def edge_sets(g, masks):
    """Edge-index bitmasks, bit k for the k-th sorted edge, as edge sets."""
    edges = g.sorted_edges()
    return [frozenset(e for k, e in enumerate(edges) if m >> k & 1) for m in masks]


def test_oracle_relation_matches_reference():
    # two supports share a belt iff their intersection is one of the flats
    # the facet walk passed through, exactly as the reference ranks every
    # pair by elimination
    graphs = [g for n in range(3, 7) for g in enumerate_connected_graphs(n)]
    graphs += sample_connected_graphs(7, 12, seed=20261019)
    for g in graphs:
        flats = set()
        masks = oracle.oracle_facets(g, flats)
        supports = edge_sets(g, masks)
        same = set()
        for i, s1 in enumerate(supports):
            for j in range(i + 1, len(supports)):
                want = oracle_reference.oracle_same_belt(g, s1, supports[j])
                assert ((masks[i] & masks[j]) in flats) == want, (g, i, j)
                if want:
                    same.add(masks[i] & masks[j])
        assert same == flats, g   # and every flat is where two facets meet


G5 = ZGraph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])


def test_oracle_agrees_catches_a_flipped_venkov_bit(monkeypatch):
    assert oracle_agrees(G5)
    real = faces.belt_adjacency

    def flipped(facets, near):
        vadj = real(facets, near)
        vadj[0] ^= 1 << 1
        vadj[1] ^= 1 << 0
        return vadj

    monkeypatch.setattr(faces, "belt_adjacency", flipped)
    assert not oracle_agrees(G5)


def test_oracle_agrees_catches_a_lying_oracle(monkeypatch):
    # the oracle's walk drops one flat, or adds one intersection of two
    # facet supports that is not a flat
    def drop(flats, masks):
        flats.remove(min(flats))

    def add(flats, masks):
        flats.add(min(a & b for a in masks for b in masks if a != b and a & b not in flats))

    real = oracle.oracle_facets
    for lie in (drop, add):
        def lying(g, flats=None):
            supports = real(g, flats)
            lie(flats, supports)
            return supports

        monkeypatch.setattr(oracle, "oracle_facets", lying)
        assert not oracle_agrees(G5), lie.__name__


def test_sweep_reports_a_dropped_core(monkeypatch):
    # a core pass that loses one core, while belt_adjacency keeps answering
    # from every core: only the check of the flats against the cores can
    # tell; the graph is a canonical form, as the sweep's levels give
    g = ZGraph(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    assert oracle_agrees(g)
    facets, cores = faces.facets_and_cores(g)
    cores = list(cores)
    vadj = faces.belt_adjacency(facets, faces.dual_neighbours(facets, cores))
    real = faces._core_merges
    monkeypatch.setattr(faces, "_core_merges",
                        lambda g, conn: itertools.islice(real(g, conn), 1, None))
    monkeypatch.setattr(faces, "belt_adjacency", lambda facets, near: list(vadj))
    assert list(faces.facets_and_cores(g)[1]) == cores[1:]
    assert not oracle_agrees(g)
    monkeypatch.setattr(sweep, "connected_levels", lambda lo, hi: iter([[g]]))
    rep = run_sweep(4)
    assert rep.violations == ["n=4 [(0, 3), (1, 2), (1, 3), (2, 3)]: oracle mismatch"]


def test_run_sweep_small():
    rep = run_sweep(5)
    assert rep.ok
    assert [r.d for r in rep.rows] == [3, 4]
    assert [r.instances for r in rep.rows] == [6, 21]
    assert [r.max_belt_diameter for r in rep.rows] == [2, 2]
    assert [r.max_dual_diameter for r in rep.rows] == [3, 3]
    assert report_csv(rep) == (
        CSV_HEADER + "\n"
        "3,6,2,3,0\n"
        "4,21,2,3,0\n"
    )


def inflated_belts(monkeypatch):
    """Belt diameter 3 for every graph with fewer than 40 facets."""
    real = venkov.diameters

    def inflated(facets, cores):
        belt, dual = real(facets, cores)
        return (3 if len(facets) < 40 else belt), dual

    monkeypatch.setattr(venkov, "diameters", inflated)


def test_each_row_counts_its_own_violations(monkeypatch):
    # belt diameter 3 below 40 facets: two violations per graph at d = 3,
    # one at d = 4
    inflated_belts(monkeypatch)
    rep = run_sweep(5)
    assert [row.violations for row in rep.rows] == [12, 21]
    for row, line in zip(rep.rows, report_csv(rep).splitlines()[1:]):
        assert line.split(",")[-1] == str(row.violations)
        assert row.violations == sum(v.startswith("n=%d " % (row.d + 1)) for v in rep.violations)


def test_streamed_violations_name_canonical_edges_in_key_order(monkeypatch):
    # the n = 5 level streams in growth labels; its violating graphs are
    # labeled, and their lines name canonical edges in key order, as the
    # lines of a level checked in key order did
    real = venkov.diameters
    monkeypatch.setattr(venkov, "diameters", lambda facets, cores: (3, real(facets, cores)[1]))
    rep = run_sweep(5)
    assert rep.violations[12:] == ["n=5 %r: belt diameter 3 > 2" % g.sorted_edges()
                                   for g in enumerate_connected_graphs(5)]


def test_a_violation_only_growth_labels_show_is_still_reported(monkeypatch):
    # belt diameter 3 whenever {0, 1} is a facet's part, which needs the
    # edge (0, 1): no canonical form on 5 vertices but K5 has it, so the
    # re-check in canonical labels comes back clean for the others, and
    # their growth-label lines stand
    real = venkov.diameters

    def inflated(facets, cores):
        belt, dual = real(facets, cores)
        return (3 if any(a == 0b11 for a, _ in facets) else belt), dual

    monkeypatch.setattr(venkov, "diameters", inflated)
    rep = run_sweep(5)
    streamed = list(next(sweep.connected_levels(5, 5)))
    shown = [g for g in streamed if any(a == 0b11 for a, _ in faces.facets_and_cores(g)[0])]
    assert len(shown) > 1 and rep.rows[1].violations == len(shown)
    complete = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    want = {"n=5 %r: belt diameter 3 > 2" % (complete if len(g.edges) == 10 else g.sorted_edges())
            for g in shown}
    assert set(rep.violations[-len(shown):]) == want


def test_each_witness_is_the_first_graph_of_largest_belt_diameter():
    # the witness rule of a level in key order, with the top level streamed
    rep = run_sweep(6)
    for row in rep.rows:
        graphs = enumerate_connected_graphs(row.d + 1)
        belts = [venkov.diameters(*faces.facets_and_cores(g))[0] for g in graphs]
        assert row.witness == graphs[belts.index(max(belts))].sorted_edges(), row.d


def test_run_sweep_to_seven_stays_within_labeling_budget(monkeypatch):
    # 463 labelings grow the levels, the witnesses take 26 and the free
    # trees of the leaf check 13: 502 from a fresh tree cache.  The leaf
    # check labels no coloring (88 more when it deduplicated them), and
    # the top level labeled and sorted took 1,129
    calls = counting_labelings(monkeypatch)
    symmetric._tree_forms.cache_clear()
    rep = run_sweep(7)
    assert rep.ok and len(calls) == 502
    assert rep.oracle_samples == 200


@pytest.mark.parametrize("shape", [list, iter])
@pytest.mark.parametrize("lie", [False, True], ids=["clean", "inflated_belts"])
def test_the_sweep_ignores_labels_and_order(monkeypatch, lie, shape):
    # each graph of levels 4-6 relabeled at random and each level shuffled,
    # given as lists or as iterators: the rows and the violation lines
    # (canonical edges, in key order) are those of the levels as grown
    if lie:
        inflated_belts(monkeypatch)
    want = run_sweep(6)
    assert bool(want.violations) == lie
    rng = random.Random(20261020)
    real = sweep.connected_levels

    def relabeled(lo, hi):
        for graphs in real(lo, hi):
            level = []
            for g in graphs:
                perm = list(range(g.n))
                rng.shuffle(perm)
                level.append(ZGraph(g.n, relabel(g.edges, perm)))
            rng.shuffle(level)
            yield shape(level)

    def rows(rep):
        return [(r.instances, r.max_belt_diameter, r.max_dual_diameter, r.witness)
                for r in rep.rows]

    monkeypatch.setattr(sweep, "connected_levels", relabeled)
    got = run_sweep(6)
    assert rows(got) == rows(want)
    assert got.violations == want.violations


def test_a_class_streamed_twice_raises(monkeypatch):
    # one grown graph comes again in reversed labels, inside the streamed
    # top level: its invariants meet the first copy's, both are labeled, and
    # the equal keys raise before the level's count is checked
    real = sweep.grow_canonical
    dup = []

    def twice(forms, k, masks):
        grown = list(real(forms, k, masks))
        if k == 4:
            edges = grown[3][0]
            dup.append(edge_label(5, edges)[0])
            grown.insert(10, ([(4 - i, 4 - j) for i, j in edges], None))
        return iter(grown)

    monkeypatch.setattr(sweep, "grow_canonical", twice)
    with pytest.raises(RuntimeError) as err:
        run_sweep(5)
    assert str(err.value) == "growth reached the class of key %d twice" % dup[0]


def test_belt_size_check_reads_crossings_from_edges(monkeypatch):
    # on the path 0-3-2-1, in canonical labels, the core {0},{1},{2,3} has
    # two crossing directions, so merge bits claiming six members must be
    # reported, by the belt_size check and by the oracle, whose flats no
    # longer match the cores
    path = ZGraph(4, [(0, 3), (1, 2), (2, 3)])
    true = venkov.diameters(*faces.facets_and_cores(path))   # from the true merges
    lying = (0b0001, 0b0010, 0b1100, True, True, True)
    monkeypatch.setattr(sweep, "connected_levels", lambda lo, hi: iter([[path]]))
    monkeypatch.setattr(venkov, "diameters", lambda facets, cores: true)
    monkeypatch.setattr(faces, "_core_merges", lambda g, conn: iter([lying]))
    rep = run_sweep(4)
    assert rep.violations == ["n=4 [(0, 3), (1, 2), (2, 3)]: merges 111 with crossings 011",
                              "n=4 [(0, 3), (1, 2), (2, 3)]: oracle mismatch"]


def test_belt_size_check_compares_which_merges_are_set(monkeypatch):
    # on the path 0-3-2-1, in canonical labels, the core {0},{1},{2,3} has
    # crossings (pq, pr, qr) = (0, 1, 1): merge bits (1, 0, 1) have the
    # right size and direction count, but name the wrong pairs; both
    # referees see it
    path = ZGraph(4, [(0, 3), (1, 2), (2, 3)])
    true = venkov.diameters(*faces.facets_and_cores(path))
    lying = (0b0001, 0b0010, 0b1100, 1, 0, 1)
    monkeypatch.setattr(sweep, "connected_levels", lambda lo, hi: iter([[path]]))
    monkeypatch.setattr(venkov, "diameters", lambda facets, cores: true)
    monkeypatch.setattr(faces, "_core_merges", lambda g, conn: iter([lying]))
    rep = run_sweep(4)
    assert rep.violations == ["n=4 [(0, 3), (1, 2), (2, 3)]: merges 101 with crossings 011",
                              "n=4 [(0, 3), (1, 2), (2, 3)]: oracle mismatch"]


def test_every_violation_kind_keeps_its_wording(monkeypatch):
    # each kind forced once, by diameters out of bound or by lying merge
    # bits: every violation carries the graph's label, a clean graph none
    path4 = ZGraph(4, [(0, 1), (1, 2), (2, 3)])
    path8 = ZGraph(8, [(i, i + 1) for i in range(7)])
    lying = [(0b0001, 0b0010, 0b1100, 1, 1, 1), (0b0001, 0b0010, 0b1100, 0, 0, 0),
             (0b0001, 0b0010, 0b1100, 1, 0, 1), (0b0001, 0b0010, 0b1100, 0, 1, 1)]

    def forced(g, diameters, cores=None):
        monkeypatch.setattr(venkov, "diameters", lambda facets, cores: diameters)
        if cores is not None:
            monkeypatch.setattr(faces, "_core_merges", lambda g, conn: iter(cores))
        found = sweep._check_graph(g, False)[4]
        monkeypatch.undo()
        return found

    assert forced(path4, (2, 3)) == []
    assert forced(path4, (3, 5)) == [
        "n=4 [(0, 1), (1, 2), (2, 3)]: belt diameter 3 > d-1",
        "n=4 [(0, 1), (1, 2), (2, 3)]: belt diameter 3 > 2",
        "n=4 [(0, 1), (1, 2), (2, 3)]: dual 5 > belt 3 + 1",
        "n=4 [(0, 1), (1, 2), (2, 3)]: dual diameter 5 > 3",
    ]
    edges8 = "n=8 [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]"
    assert forced(path8, (4, 6)) == [
        edges8 + ": belt diameter 4 > 3",
        edges8 + ": dual 6 > belt 4 + 1",
        edges8 + ": dual diameter 6 > 4",
    ]
    # one text names both bit strings, whatever is wrong with the merges
    assert forced(path4, (2, 3), lying) == [
        "n=4 [(0, 1), (1, 2), (2, 3)]: merges 111 with crossings 101",
        "n=4 [(0, 1), (1, 2), (2, 3)]: merges 000 with crossings 101",
        "n=4 [(0, 1), (1, 2), (2, 3)]: merges 011 with crossings 101",
    ]


def count_face_passes(monkeypatch) -> dict:
    calls = {"_core_merges": 0, "connected_table": 0}
    for name in calls:
        real = getattr(faces, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(faces, name, counting)
    return calls


def test_run_sweep_builds_one_table_and_one_core_pass_per_graph(monkeypatch):
    # 139 graphs on 4..6 vertices, each checked by the sweep and then by
    # the oracle from the same face pass: one connectivity table and one
    # core pass apiece, and the facets never come from a walk over the
    # whole vertex set other than the table's own
    calls = count_face_passes(monkeypatch)
    sides = []
    real_sets = faces.connected_sets

    def sets(g, side):
        sides.append(side == g.full_mask)
        return real_sets(g, side)

    # every walk goes through this name: each connectivity table walks the
    # whole vertex set once, and the belt distances of the leaves check
    # walk the cells of the common-neighbour step or a side's splits
    monkeypatch.setattr(faces, "connected_sets", sets)
    rep = run_sweep(6)
    assert rep.ok and sum(r.instances for r in rep.rows) == 139
    assert calls == {"_core_merges": 139, "connected_table": 139}
    assert sides.count(True) == 139 < len(sides)


def test_run_sweep_to_seven_builds_one_table_per_checked_graph(monkeypatch):
    # 992 graphs on 4..7 vertices, one face pass apiece: the oracle checks
    # the 139 graphs up to n = 6 and 200 of the 853 at n = 7 from the
    # sweep's own pass
    calls = count_face_passes(monkeypatch)
    rep = run_sweep(7)
    assert rep.ok and sum(r.instances for r in rep.rows) == 992
    assert calls == {"_core_merges": 992, "connected_table": 992}


def oracle_checked(monkeypatch, seed) -> tuple:
    """The graphs `run_sweep(7, seed)` hands the oracle, and the level it
    streams at n = 7; each oracle call must carry the sweep's face pass."""
    checked, top = [], []
    real_agrees, real_levels = sweep.oracle_agrees, sweep.connected_levels

    def agrees(g, facets=None, cores=None):
        assert facets is not None and isinstance(cores, list)
        checked.append(g)
        return real_agrees(g, facets, cores)

    def levels(lo, hi):
        for graphs in real_levels(lo, hi):
            level = list(graphs)
            if level[0].n == hi:
                top.extend(level)
            yield level

    monkeypatch.setattr(sweep, "oracle_agrees", agrees)
    monkeypatch.setattr(sweep, "connected_levels", levels)
    assert run_sweep(7, seed=seed).ok
    monkeypatch.undo()
    return checked, top


def test_the_oracle_checks_a_seeded_sample_of_the_level_itself(monkeypatch):
    # every graph up to n = 6, and 200 distinct graphs of the n = 7 level
    # the sweep checked, picked by seed
    checked, top = oracle_checked(monkeypatch, 20260815)
    assert len(checked) == 339
    assert [sum(g.n == n for g in checked) for n in range(4, 8)] == [6, 21, 112, 200]
    sevens = [g for g in checked if g.n == 7]
    assert len(top) == 853 and {id(g) for g in sevens} <= {id(g) for g in top}
    assert len({edge_label(7, g.edges)[0] for g in sevens}) == 200
    others = [g for g in oracle_checked(monkeypatch, 1)[0] if g.n == 7]
    assert {g.edges for g in others} != {g.edges for g in sevens}


def test_every_oracle_mismatch_names_a_canonical_form(monkeypatch):
    # an oracle that never agrees: all 139 graphs up to n = 6 and the 200
    # picked at n = 7 are reported, each in canonical edges, in key order
    monkeypatch.setattr(sweep, "oracle_agrees", lambda g, facets=None, cores=None: False)
    rep = run_sweep(7)
    assert len(rep.violations) == 339
    assert all(v.endswith(": oracle mismatch") for v in rep.violations)
    named = [ast.literal_eval(v.split(" ", 1)[1].rsplit(":", 1)[0])
             for v in rep.violations if v.startswith("n=7 ")]
    forms = [g.sorted_edges() for g in enumerate_connected_graphs(7)]
    assert len(named) == 200
    assert named == [edges for edges in forms if edges in named]


def test_each_graph_lines_come_together(monkeypatch):
    # belt diameter 3 below 40 facets, and an oracle that disagrees on an
    # odd edge count: a level lists its graphs by key, each with its check
    # lines and then its mismatch line
    inflated_belts(monkeypatch)
    monkeypatch.setattr(sweep, "oracle_agrees",
                        lambda g, facets=None, cores=None: len(g.edges) % 2 == 0)
    rep = run_sweep(5)
    want = []
    for g in enumerate_connected_graphs(5):
        label = "n=5 %r: " % g.sorted_edges()
        if len(faces.enumerate_facets(g)) < 40:
            want.append(label + "belt diameter 3 > 2")
        if len(g.edges) % 2:
            want.append(label + "oracle mismatch")
    assert rep.violations[-len(want):] == want
    assert rep.rows[1].violations == len(want)


def test_the_leaves_check_runs_at_every_level(monkeypatch):
    # one path graph per level keeps the sweep to n = 8 small: the leaf
    # criterion is asked for the conjugate colorings of every n
    asked = []

    def colorings(n):
        asked.append(n)
        return []

    monkeypatch.setattr(symmetric, "conjugate_colorings", colorings)
    monkeypatch.setattr(sweep, "connected_levels", lambda lo, hi: iter(
        [[ZGraph(n, [(i, i + 1) for i in range(n - 1)])] for n in range(lo, hi + 1)]))
    rep = run_sweep(8)
    assert rep.ok and [r.instances for r in rep.rows] == [1] * 5
    assert asked == [4, 5, 6, 7, 8]


def test_run_sweep_validates_args():
    with pytest.raises(ValueError, match="max_n >= 4"):
        run_sweep(3)


def test_report_json_shape():
    rep = run_sweep(4)
    # up to n = 6 the oracle checks every graph and draws no sample
    assert rep.oracle_samples == 0
    doc = report_json(rep)
    assert doc["max_n"] == 4
    assert doc["checks"] == ["belt_bound", "dual_bound", "oracle_equiv", "leaves_iff", "belt_size"]
    assert doc["violations"] == []
    row = doc["rows"][0]
    assert set(row) == {
        "d", "instances", "max_belt_diameter", "max_dual_diameter",
        "witness_edges", "runtime_sec",
    }


def test_the_leaf_check_makes_one_conjugacy_pass_per_coloring(monkeypatch):
    # run_sweep(7) checks 44 colorings, and one conjugacy pass per coloring
    # gives both its common leaf and its red-blue distance
    calls = []
    real = symmetric._conjugacy

    def counting(cg):
        calls.append(cg)
        return real(cg)

    monkeypatch.setattr(symmetric, "_conjugacy", counting)
    rep = run_sweep(7)
    assert rep.ok and len(calls) == 44
    assert len({repr(cg) for cg in calls}) == 44


def test_the_leaf_check_refuses_a_non_conjugate_coloring(monkeypatch):
    bad = symmetric.ColoredZGraph(ZGraph(4, [(0, 1), (1, 2), (2, 3)]),
                                  [(0, 1), (1, 2)], [(2, 3)])
    monkeypatch.setattr(symmetric, "conjugate_colorings", lambda n: iter([bad]))
    with pytest.raises(ValueError, match="^not conjugate: "):
        run_sweep(4)
