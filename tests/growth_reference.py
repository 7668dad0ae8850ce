"""Reference isomorph-free growth steps.

The library's `zgraph.grow_canonical` attaches one mask per orbit of the
parent's automorphism group, labels a candidate only when its new vertex
is a non-cut vertex of least invariant, and keeps it only when that vertex
lies in the orbit of the canonical deletion vertex.  Two older steps live
on here, so the tests can check that the library drops no class and
changes no canonical form:

- `grow_canonical` labels every candidate and keeps the first form per key;
- `grow_by_twins` skips the masks that hold a vertex but not its nearest
  earlier twin, labels only candidates that pass the least non-cut filter,
  and keeps the first form per key in a dictionary.

`min_label_perm` is the labeling that rebuilds every unplaced vertex's
column from the placed vertices at each node; the library's carries the
columns down the recursion and must return the same (key, placement).

`enumerate_connected_graphs` is the canonical top level the tests read:
`sweep.connected_levels` streams its top level in growth labels, and
`canonical_level` labels every streamed graph, asserts that the keys are
distinct and sorts the canonical forms by key.  `sample_connected_graphs`
draws seeded random labeled graphs for the cross-checks that do not run
on whole levels.
"""

import random

from zonobelt import sweep
from zonobelt.zgraph import ZGraph, _least_noncut, bits, canonical_label, dimension, relabel


def canonical_level(graphs) -> list:
    """The graphs of one level as canonical forms ordered by key; each
    graph is labeled, and two of one class fail an assertion."""
    forms = {}
    for g in graphs:
        key, perm, _ = canonical_label(g.n, (g.edges,))
        assert key not in forms, "class of key %d streamed twice" % key
        forms[key] = ZGraph(g.n, relabel(g.edges, perm))
    return [forms[key] for key in sorted(forms)]


def enumerate_connected_graphs(n: int) -> list:
    """Connected graphs on n vertices up to isomorphism, as canonical forms
    ordered by key: the streamed top level of `sweep.connected_levels(n, n)`."""
    return canonical_level(next(sweep.connected_levels(n, n)))


def sample_connected_graphs(n: int, count: int, seed: int) -> list[ZGraph]:
    """Distinct random connected labeled graphs, edge probability 1/2."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    out = []
    while len(out) < count:
        edges = frozenset(e for e in pairs if rng.random() < 0.5)
        g = ZGraph(n, edges)
        if edges in seen or dimension(g) != n - 1:
            continue
        seen.add(edges)
        out.append(g)
    return out


def min_label_perm(n: int, code) -> tuple[int, tuple[int, ...]]:
    """Lexicographically minimal relabeling of a symmetric code matrix,
    by branch and bound over placements; (key, placement)."""
    if n == 1:
        return 0, (0,)
    total_bits = n * (n - 1)
    # interchangeable vertices: identical code rows away from each other
    twin = [[False] * n for _ in range(n)]
    for u in range(n):
        for w in range(u + 1, n):
            if all(code[u][x] == code[w][x] for x in range(n) if x != u and x != w):
                twin[u][w] = True

    best_key = None
    best_perm = None
    placed = []

    def dfs(key: int, used: int):
        nonlocal best_key, best_perm
        k = len(placed)
        if k == n:
            if best_key is None or key < best_key:
                best_key = key
                best_perm = tuple(placed)
            return
        cands = []
        for v in range(n):
            if used & (1 << v):
                continue
            col = 0
            for p in placed:
                col = (col << 2) | code[p][v]
            cands.append((col, v))
        cands.sort()
        tried = []
        for col, v in cands:
            if any(twin[min(u, v)][max(u, v)] for u in tried):
                tried.append(v)
                continue
            tried.append(v)
            new_key = (key << (2 * k)) | col
            if best_key is not None:
                shift = total_bits - (k + 1) * k
                if new_key > (best_key >> shift):
                    break  # cands sorted: the rest are no better
            placed.append(v)
            dfs(new_key, used | (1 << v))
            placed.pop()

    dfs(0, 0)
    return best_key, best_perm


def grow_canonical(forms, k: int, masks) -> dict:
    """Canonical forms on k + 1 vertices: each form gains vertex k joined to
    each mask, every candidate is labeled, and the first form per key is kept."""
    attachments = [[(v, k) for v in bits(m)] for m in masks]
    grown = {}
    for edges in forms:
        base = list(edges)
        for attach in attachments:
            new = base + attach
            key, perm, _ = canonical_label(k + 1, (new,))
            if key not in grown:
                grown[key] = relabel(new, perm)
    return grown


def twins(parent) -> list[tuple[int, int]]:
    """(1 << u, 1 << v) for each vertex v and its nearest earlier twin u.

    u and v are twins when N(u)∖{v} = N(v)∖{u}; swapping them is then an
    automorphism of the graph whose neighbour masks are parent.
    """
    out = []
    for v in range(1, len(parent)):
        for u in range(v - 1, -1, -1):
            if parent[u] & ~(1 << v) == parent[v] & ~(1 << u):
                out.append((1 << u, 1 << v))
                break
    return out


def grow_by_twins(forms, k: int, masks) -> dict:
    """Canonical forms on k + 1 vertices, key -> edges: each form gains
    vertex k joined to each mask that holds no vertex without its nearest
    earlier twin, a candidate is labeled when vertex k is a least non-cut
    vertex, and the first form per key is kept."""
    attachments = [(m, [(v, k) for v in bits(m)]) for m in masks]
    grown = {}
    for edges in forms:
        base = list(edges)
        parent = [0] * k
        for i, j in base:
            parent[i] |= 1 << j
            parent[j] |= 1 << i
        passes = _least_noncut(parent)
        pairs = twins(parent)
        for m, attach in attachments:
            if any(m & v and not m & u for u, v in pairs) or not passes(m):
                continue
            new = base + attach
            key, perm, _ = canonical_label(k + 1, (new,))
            if key not in grown:
                grown[key] = relabel(new, perm)
    return grown


def connected_graphs_by_twins(n: int) -> list[tuple]:
    """`connected_graphs(n)` grown by `grow_by_twins`."""
    reps = {0: ()}
    for k in range(1, n):
        reps = grow_by_twins(reps.values(), k, range(1, 1 << k))
    return [reps[key] for key in sorted(reps)]


def free_trees_by_twins(k: int) -> tuple:
    """`free_trees(k)` grown by `grow_by_twins`."""
    forms = ((),)
    for j in range(1, k):
        forms = tuple(sorted(grow_by_twins(forms, j, [1 << v for v in range(j)]).values()))
    return forms


def connected_graphs(n: int) -> list[tuple]:
    """Canonical edge tuples of the connected graphs on n vertices, by key."""
    reps = {0: ()}
    for k in range(1, n):
        reps = grow_canonical(reps.values(), k, range(1, 1 << k))
    return [reps[key] for key in sorted(reps)]


def free_trees(k: int) -> tuple:
    """Free trees on k vertices as sorted canonical edge tuples."""
    forms = ((),)
    for j in range(1, k):
        forms = tuple(sorted(grow_canonical(forms, j, [1 << v for v in range(j)]).values()))
    return forms
