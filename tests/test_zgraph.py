"""Core graph type: masks, connectivity, canonical labeling."""

import random
from itertools import permutations

import pytest

import growth_reference
from growth_reference import edge_label, one_bit_key
from zonobelt import sweep, symmetric
from zonobelt.zgraph import (
    PAIR,
    ZGraph,
    _least_noncut,
    _orbit_reps,
    bits,
    canonical_forms,
    components,
    dimension,
    grow_canonical,
    key_sorted,
    mask_of,
    min_label_perm,
    pair,
)


def path(n):
    return ZGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return ZGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n):
    return ZGraph(n, [(0, v) for v in range(1, n)])


def test_mask_helpers():
    assert mask_of([0, 2, 3]) == 0b1101
    assert bits(0b1101) == [0, 2, 3]
    assert bits(0) == []


def test_edge_normalization():
    g = ZGraph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.sorted_edges() == [(0, 2), (1, 2)]


def test_edge_validation():
    with pytest.raises(ValueError):
        ZGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        ZGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        ZGraph(0, [])
    with pytest.raises(ValueError):
        ZGraph(17, [])


def test_connected_in():
    g = path(4)
    assert g.connected_in(0b1111)
    assert g.connected_in(0b0110)
    assert not g.connected_in(0b1001)  # endpoints only
    assert g.connected_in(0b0001)


def test_least_noncut_matches_definition():
    # move each non-cut vertex of every connected graph on 2..6 vertices to the
    # last slot: the filter passes it exactly when no non-cut vertex has a
    # smaller (degree, sorted neighbour degrees), so some vertex always
    # passes, and then returns the non-cut vertices of least invariant
    for n in range(2, 7):
        for edges in growth_reference.connected_graphs(n):
            g = ZGraph(n, edges)
            deg = [a.bit_count() for a in g.adj]

            def invariant(v):
                return (deg[v], sorted(deg[u] for u in bits(g.adj[v])))

            noncut = [v for v in range(n) if g.connected_in(g.full_mask ^ 1 << v)]
            least = min(invariant(v) for v in noncut)
            for v in noncut:
                swap = list(range(n))
                swap[v], swap[n - 1] = n - 1, v
                h = ZGraph(n, [(swap[i], swap[j]) for i, j in edges])
                parent = [a & ~(1 << n - 1) for a in h.adj[:-1]]
                tied = mask_of(swap[u] for u in noncut if invariant(u) == least)
                want = tied if invariant(v) == least else 0
                assert _least_noncut(parent)(h.adj[-1]) == want


def test_twin_rule_skips_only_swapped_copies():
    # every mask the reference twin rule skips on a connected parent of 2..6
    # vertices swaps, twin for twin, into a kept mask with the same verdict
    # and child
    skipped_total = 0
    for k in range(2, 7):
        for edges in growth_reference.connected_graphs(k):
            parent = list(ZGraph(k, edges).adj)
            twins = growth_reference.twins(parent)
            for u, v in twins:
                a, b = bits(u)[0], bits(v)[0]
                assert a < b and parent[a] & ~v == parent[b] & ~u
            passes = _least_noncut(parent)

            def skipped(m):
                return any(m & v and not m & u for u, v in twins)

            def child_key(m):
                return edge_label(k + 1, list(edges) + [(v, k) for v in bits(m)])[0]

            for m in range(1, 1 << k):
                if not skipped(m):
                    continue
                skipped_total += 1
                kept = m
                while skipped(kept):
                    u, v = next((u, v) for u, v in twins if kept & v and not kept & u)
                    kept ^= u | v
                assert bool(passes(kept)) == bool(passes(m)), (edges, m, kept)
                assert child_key(kept) == child_key(m), (edges, m, kept)
    assert skipped_total > 0


def brute_automorphisms(n, code) -> set:
    """Every permutation a (a[v] the image of v) that keeps the code, by
    extending partial maps one vertex at a time."""
    out = set()
    a = []

    def extend():
        i = len(a)
        if i == n:
            out.add(tuple(a))
            return
        for w in range(n):
            if w not in a and all(code[a[j]][w] == code[j][i] for j in range(i)):
                a.append(w)
                extend()
                a.pop()

    extend()
    return out


def generated(n, gens) -> set:
    """The group the permutations gens generate, by closure."""
    group = {tuple(range(n))}
    frontier = list(group)
    for a in frontier:
        for g in gens:
            b = tuple(g[a[v]] for v in range(n))
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


def edge_code(n, edges):
    code = [[0] * n for _ in range(n)]
    for i, j in edges:
        code[i][j] = code[j][i] = 1
    return code


def code_masks(code) -> list[int]:
    """The neighbour masks of the graph whose 0/1 code matrix is code."""
    return [sum(c << x for x, c in enumerate(row)) for row in code]


def shuffled(rng, n, edges):
    relab = list(range(n))
    rng.shuffle(relab)
    return [(relab[i], relab[j]) for i, j in edges]


def test_automorphisms_generate_the_group():
    # every connected graph on 1..6 vertices, 60 seeded classes on 7 and 40
    # seeded graphs on 8 (half of them with a twin pair), each under a
    # seeded relabeling, and 200 seeded dense graphs on 3..7 vertices:
    # each returned map keeps the code, and together they generate the
    # whole automorphism group
    rng = random.Random(20261019)
    codes = []
    for n in range(1, 7):
        codes += [(n, edge_code(n, shuffled(rng, n, e)))
                  for e in growth_reference.connected_graphs(n)]
    sevens = growth_reference.connected_graphs(7)
    codes += [(7, edge_code(7, shuffled(rng, 7, e))) for e in rng.sample(sevens, 60)]
    for i, g in enumerate(growth_reference.sample_connected_graphs(8, 40, seed=8)):
        edges = list(g.edges)
        if i % 2:   # make vertex 7 a twin of vertex 0
            edges = [e for e in edges if 7 not in e and e != (0, 7)]
            edges += [(u, 7) for u in range(1, 7) if (0, u) in g.edges]
            edges += [(0, 7)] * (i % 4 == 1)
        codes.append((8, edge_code(8, edges)))
    for _ in range(200):
        n = rng.randrange(3, 8)
        code = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                code[i][j] = code[j][i] = rng.choice((0, 1, 1))
        codes.append((n, code))
    nontrivial = 0
    for n, code in codes:
        _, _, autos = min_label_perm(code_masks(code))
        group = brute_automorphisms(n, code)
        assert {tuple(a) for a in autos} <= group, code
        assert generated(n, autos) == group, code
        nontrivial += len(group) > 1
    assert nontrivial > len(codes) // 2


def test_grown_generators_are_each_forms_group():
    # the generators grow_canonical yields, in canonical labels, generate
    # the automorphism group of the canonical form: connected graphs on up
    # to 7 vertices and free trees on up to 9
    level = [(0, (), [])]
    for k in range(1, 7):
        grown = grow_canonical([f[1:] for f in level], k, range(1, 1 << k))
        level = key_sorted(canonical_forms(grown, k + 1))
        for _, edges, gens in level:
            assert generated(k + 1, gens) == brute_automorphisms(k + 1, edge_code(k + 1, edges))
    for k in range(1, 10):
        for edges, gens in zip(*symmetric._tree_forms(k)):
            assert generated(k, gens) == brute_automorphisms(k, edge_code(k, edges))


def test_orbit_reps_are_one_mask_per_orbit():
    # on every connected form with 1..6 vertices, the masks attached are the
    # first of each orbit of the brute-force automorphism group, both on
    # all nonempty masks and on single bits
    level = [(0, (), [])]
    for k in range(1, 7):
        for _, edges, gens in level:
            group = brute_automorphisms(k, edge_code(k, edges))
            for masks in (range(1, 1 << k), [1 << v for v in range(k)]):
                firsts, seen = [], set()
                for m in masks:
                    if m not in seen:
                        firsts.append(m)
                        seen |= {mask_of(a[v] for v in bits(m)) for a in group}
                assert list(_orbit_reps(gens, masks)) == firsts, (edges, masks)
        grown = grow_canonical([f[1:] for f in level], k, range(1, 1 << k))
        level = key_sorted(canonical_forms(grown, k + 1))


def test_each_class_grows_from_its_canonical_deletion():
    # each connected class on 2..7 vertices and each tree on 2..9 grows from
    # one parent: the form left when its canonical deletion vertex goes.
    # In a canonical form the canonical placement is an automorphism, so
    # that vertex's orbit is the orbit of the least label among the least
    # non-cut vertices
    def deletion_parent(n, edges):
        g = ZGraph(n, edges)
        deg = [a.bit_count() for a in g.adj]

        def invariant(v):
            return (deg[v], sorted(deg[u] for u in bits(g.adj[v])))

        noncut = [v for v in range(n) if g.connected_in(g.full_mask ^ 1 << v)]
        least = min(invariant(v) for v in noncut)
        d = min(v for v in noncut if invariant(v) == least)
        rest = [(i - (i > d), j - (j > d)) for i, j in edges if d not in (i, j)]
        return edge_label(n - 1, rest)[0]

    level = [(0, (), [])]
    for k in range(1, 7):
        grown = []
        for key, edges, gens in level:
            for child in grow_canonical([(edges, gens)], k, range(1, 1 << k)):
                # a label comes only from the acceptance test, and is the full one
                assert child[1] in (None, edge_label(k + 1, child[0]))
                form = next(canonical_forms([child], k + 1))
                assert deletion_parent(k + 1, form[1]) == key, (edges, form[1])
                grown.append(form)
        level = key_sorted(grown)
    for k in range(1, 9):
        for edges, gens in zip(*symmetric._tree_forms(k)):
            key = edge_label(k, edges)[0]
            grown = grow_canonical([(edges, gens)], k, [1 << v for v in range(k)])
            for child in canonical_forms(grown, k + 1):
                assert deletion_parent(k + 1, child[1]) == key, (edges, child[1])


def test_a_class_grown_twice_raises():
    # a level holding one class twice grows each child twice; the keys
    # meet, and the level is refused rather than merged
    level = key_sorted(canonical_forms(grow_canonical([((), [])], 1, [1]), 2))
    assert [f[1] for f in level] == [((0, 1),)]
    twice = [level[0][1:]] * 2
    with pytest.raises(RuntimeError, match="twice"):
        key_sorted(canonical_forms(grow_canonical(twice, 2, range(1, 4)), 3))
    assert key_sorted([(2, "b"), (1, "a")]) == [(1, "a"), (2, "b")]


def test_components_by_least_vertex():
    g = ZGraph(4, [])
    assert components(g) == [1, 2, 4, 8]
    g = ZGraph(4, [(0, 2), (1, 3)])
    assert components(g) == [0b0101, 0b1010]


def test_dimension():
    assert dimension(path(4)) == 3
    assert dimension(complete(4)) == 3
    assert dimension(star(4)) == 3
    assert dimension(ZGraph(5, [(0, 1)])) == 1


def test_graphs_share_edge_objects():
    g = ZGraph(5, [(0, 1), (3, 2), (4, 1)])
    h = ZGraph(5, [(2, 3), (1, 4), (1, 0)])
    assert g == h
    for e in g.edges:
        assert e is PAIR[e[0]][e[1]] is PAIR[e[1]][e[0]]
        assert any(e is f for f in h.edges)
    assert len({id(e) for row in PAIR for e in row if e}) == 120


def test_pair_shares_only_valid_edges():
    assert pair(3, 1) is PAIR[1][3]
    assert pair(2, 2) == (2, 2)
    assert pair(-1, 3) == (-1, 3)
    assert pair(16, 3) == (3, 16)


def brute_min_key(n, code):
    # reference canonical key: try every permutation, column-major 1-bit pack
    best = None
    for perm in permutations(range(n)):
        key = 0
        for col in range(1, n):
            for row in range(col):
                key = (key << 1) | code[perm[row]][perm[col]]
        if best is None or key < best:
            best = key
    return best


def test_min_label_perm_matches_brute_force():
    rng = random.Random(11)
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(40):
            g = ZGraph(n, [p for p in pairs if rng.random() < 0.5])
            key, perm, _ = min_label_perm(g.adj)
            assert key == brute_min_key(n, edge_code(n, g.edges))
            assert sorted(perm) == list(range(n))


def test_min_label_perm_relabel_invariant():
    rng = random.Random(12)
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    for _ in range(25):
        g = ZGraph(7, [p for p in pairs if rng.random() < 0.4])
        key = min_label_perm(g.adj)[0]
        relab = list(range(7))
        rng.shuffle(relab)
        h = ZGraph(7, [(relab[i], relab[j]) for i, j in g.edges])
        key2 = min_label_perm(h.adj)[0]
        assert key == key2


def test_min_label_perm_single_vertex():
    assert min_label_perm([0]) == (0, (0,), [])


def labelings_of(monkeypatch, run) -> list:
    """The neighbour masks of every labeling that run() asks for."""
    seen = []
    growth_reference.on_every_labeling(monkeypatch, lambda adj: seen.append(list(adj)))
    run()
    monkeypatch.undo()
    return seen


def grow_free_trees():
    symmetric._tree_forms.cache_clear()   # grow every level under the recorder
    symmetric.free_trees(10)


def assert_matches_reference(adj):
    # the library's placement is the reference's on the 0/1 code matrix,
    # and its key is the reference key with each 2-bit cell read as one bit
    n = len(adj)
    code = [[a >> u & 1 for u in range(n)] for a in adj]
    key, perm = growth_reference.min_label_perm(n, code)
    assert min_label_perm(adj)[:2] == (one_bit_key(key), perm), adj


@pytest.mark.parametrize("run, count", [
    (lambda: list(sweep.connected_levels(1, 7)), 463),
    (grow_free_trees, None),
], ids=["connected_levels", "free_trees"])
def test_min_label_perm_matches_reference_on_library_inputs(monkeypatch, run, count):
    # the columns carried down the recursion give the same (key, placement)
    # as columns rebuilt from the placed vertices at every node
    seen = labelings_of(monkeypatch, run)
    assert seen and count in (None, len(seen))
    for adj in seen:
        assert_matches_reference(adj)


def test_min_label_perm_matches_reference_on_random_codes():
    # 1,000 seeded graphs on 1..9 vertices, sparse, even and dense
    rng = random.Random(20261019)
    for _ in range(1000):
        n = rng.randrange(1, 10)
        p = rng.choice((0.15, 0.5, 0.85))
        g = ZGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        assert_matches_reference(g.adj)
