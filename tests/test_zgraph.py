"""Core graph type: masks, connectivity, contraction, canonical labeling."""

import random
from itertools import permutations

import pytest

import growth_reference
from zonobelt import sweep, symmetric, zgraph
from zonobelt.zgraph import (
    PAIR,
    ZGraph,
    _least_noncut,
    _twins,
    bits,
    canonical_label,
    components,
    contract_map,
    delete_edge,
    dimension,
    mask_of,
    min_label_perm,
    pair,
    relabel,
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
    # smaller (degree, sorted neighbour degrees), so some vertex always passes
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
                assert _least_noncut(parent)(h.adj[-1]) == (invariant(v) == least)


def test_twin_rule_skips_only_swapped_copies():
    # every mask grow_canonical skips on a connected parent of 2..6 vertices
    # swaps, twin for twin, into a kept mask with the same verdict and child
    skipped_total = 0
    for k in range(2, 7):
        for edges in growth_reference.connected_graphs(k):
            parent = list(ZGraph(k, edges).adj)
            twins = _twins(parent)
            for u, v in twins:
                a, b = bits(u)[0], bits(v)[0]
                assert a < b and parent[a] & ~v == parent[b] & ~u
            passes = _least_noncut(parent)

            def skipped(m):
                return any(m & v and not m & u for u, v in twins)

            def child_key(m):
                return canonical_label(k + 1, (list(edges) + [(v, k) for v in bits(m)],))[0]

            for m in range(1, 1 << k):
                if not skipped(m):
                    continue
                skipped_total += 1
                kept = m
                while skipped(kept):
                    u, v = next((u, v) for u, v in twins if kept & v and not kept & u)
                    kept ^= u | v
                assert passes(kept) == passes(m), (edges, m, kept)
                assert child_key(kept) == child_key(m), (edges, m, kept)
    assert skipped_total > 0


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


def test_contract_path():
    g = contract_map(path(4), 1, 2)[0]
    assert g.n == 3
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_contract_complete_collapses_parallel():
    g = contract_map(complete(4), 0, 1)[0]
    assert g.n == 3
    assert g.sorted_edges() == [(0, 1), (0, 2), (1, 2)]


def test_contract_errors():
    with pytest.raises(ValueError):
        contract_map(path(4), 2, 2)
    with pytest.raises(ValueError):
        contract_map(path(4), 0, 4)


def test_contract_map_labels():
    g, m = contract_map(path(4), 1, 2)
    # merged vertex keeps the lower slot, later labels shift down
    assert m == [0, 1, 1, 2]
    assert g.n == 3


def test_delete_edge():
    g = delete_edge(path(4), 1, 2)
    assert g.sorted_edges() == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        delete_edge(g, 1, 2)


def brute_min_key(n, code):
    # reference canonical key: try every permutation, column-major 2-bit pack
    best = None
    for perm in permutations(range(n)):
        key = 0
        for col in range(1, n):
            for row in range(col):
                key = (key << 2) | code[perm[row]][perm[col]]
        if best is None or key < best:
            best = key
    return best


def graph_code(g):
    code = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edges:
        code[i][j] = code[j][i] = 1
    return code


def test_min_label_perm_matches_brute_force():
    rng = random.Random(11)
    for n in range(2, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for _ in range(40):
            g = ZGraph(n, [p for p in pairs if rng.random() < 0.5])
            code = graph_code(g)
            key, perm = min_label_perm(n, code)
            assert key == brute_min_key(n, code)
            assert sorted(perm) == list(range(n))


def test_min_label_perm_relabel_invariant():
    rng = random.Random(12)
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    for _ in range(25):
        g = ZGraph(7, [p for p in pairs if rng.random() < 0.4])
        key, _ = min_label_perm(7, graph_code(g))
        relab = list(range(7))
        rng.shuffle(relab)
        h = ZGraph(7, [(relab[i], relab[j]) for i, j in g.edges])
        key2, _ = min_label_perm(7, graph_code(h))
        assert key == key2


def test_min_label_perm_single_vertex():
    assert min_label_perm(1, [[0]]) == (0, (0,))


def labelings_of(monkeypatch, run) -> list:
    """(n, code) of every labeling that run() asks for."""
    seen = []
    real = zgraph.min_label_perm

    def recording(n, code):
        seen.append((n, [list(row) for row in code]))
        return real(n, code)

    monkeypatch.setattr(zgraph, "min_label_perm", recording)
    run()
    monkeypatch.setattr(zgraph, "min_label_perm", real)
    return seen


def grow_free_trees():
    symmetric.free_trees.cache_clear()   # grow every level under the recorder
    symmetric.free_trees(10)


@pytest.mark.parametrize("run, count", [
    (lambda: list(sweep.connected_levels(1, 7)), 1305),
    (lambda: [symmetric.enumerate_conjugate_classes(n) for n in range(2, 9)], None),
    (grow_free_trees, None),
], ids=["connected_levels", "conjugate_classes", "free_trees"])
def test_min_label_perm_matches_reference_on_library_inputs(monkeypatch, run, count):
    # the columns carried down the recursion give the same (key, placement)
    # as columns rebuilt from the placed vertices at every node
    seen = labelings_of(monkeypatch, run)
    assert seen and count in (None, len(seen))
    for n, code in seen:
        assert min_label_perm(n, code) == growth_reference.min_label_perm(n, code), code


def test_min_label_perm_matches_reference_on_random_codes():
    rng = random.Random(20261019)
    for _ in range(1000):
        n = rng.randrange(1, 10)
        code = [[0] * n for _ in range(n)]
        weights = rng.choice(((1, 1, 1, 1), (6, 1, 1, 1), (1, 3, 0, 0)))
        for i in range(n):
            for j in range(i + 1, n):
                code[i][j] = code[j][i] = rng.choices(range(4), weights)[0]
        assert min_label_perm(n, code) == growth_reference.min_label_perm(n, code), code


def test_canonical_label_codes_edge_classes():
    rng = random.Random(13)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    for _ in range(20):
        red = [p for p in pairs if rng.random() < 0.3]
        blue = [p for p in pairs if p not in red and rng.random() < 0.3]
        code = [[0] * 6 for _ in range(6)]
        for c, edges in ((1, red), (2, blue)):
            for i, j in edges:
                code[i][j] = code[j][i] = c
        key, perm = canonical_label(6, (red, blue))
        assert (key, perm) == min_label_perm(6, code)
        # the placement carries each class onto the same canonical edges
        # from any starting labeling
        relab = list(range(6))
        rng.shuffle(relab)
        moved = [[(relab[i], relab[j]) for i, j in edges] for edges in (red, blue)]
        key2, perm2 = canonical_label(6, moved)
        assert key2 == key
        assert [relabel(e, perm2) for e in moved] == [relabel(e, perm) for e in (red, blue)]
