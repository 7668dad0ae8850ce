"""References for the conjugate-coloring enumeration and the extremal search.

The library grows free trees one leaf at a time and lists a conjugate
coloring for every completion of every red forest of free trees
(`conjugate_colorings`); these enumerate every labeled tree (Pruefer
decoding) and every labeled conjugate coloring instead, so the tests can
check the isomorph-free paths against them.  `enumerate_conjugate_classes`
keeps one coloring per class up to isomorphism and color swap, by
`colored_key`, which labels the coloring's two red/blue code matrices with
`growth_reference.min_label_perm`; the sweep's leaf check ran on these
classes before it read every completion.  The library's extremal search
completes only the forests its leaf-count bound admits; the three-regime
search kept here reaches the same answers by other routes.

The library checks a coloring in one conjugacy pass, 2-colors by bitmask
BFS layers and reads common leaves off each color's leaf list; the
dictionary searches, the degree scan and the reduction with its dimension
test per deletion kept here are the versions it replaced.  The library's
reduction works on one copy of the neighbour masks; this one builds a
graph per contraction and per deletion it tries (`contract_map`,
`delete_edge`), relabeling the vertices each time.  The tests read
the red and blue facets of a coloring with `color_facets`, which no
library code needs.

The d8 climb keeps one connectivity answer per fixed vertex mask and
rescores a flip from the answers it can change; `search_d8_reference` is
the climb it replaced, which builds every flipped graph and scores it by
intersecting the two fixed pairs' neighbour lists (`d8_score_reference`).
"""

import random
from itertools import product

import growth_reference
from adjacency_reference import in_same_belt
from growth_reference import edge_label
from zonobelt.faces import enumerate_facets, validate_partition
from zonobelt.symmetric import (
    D8_X1,
    D8_X2,
    D8_Y1,
    D8_Y2,
    ColoredZGraph,
    SearchResult,
    _forests,
    _reduces_leaf_free,
    check_conjugate,
    cross_completions,
    free_trees,
    red_blue_distance,
)
from zonobelt.venkov import belt_diameter, belt_distance, belt_neighbors
from zonobelt.zgraph import (
    ZGraph,
    bits,
    components,
    dimension,
    mask_of,
    relabel,
)


def color_facets(cg: ColoredZGraph):
    """The red facet {R1,R2} and the blue facet {B1,B2}: the two components
    of each color, least vertex first."""
    (r1, r2), (b1, b2) = (components(ZGraph(cg.base.n, e)) for e in (cg.red, cg.blue))
    return (r1, r2), (b1, b2)


def is_bipartite(g: ZGraph) -> bool:
    """No odd cycle, by a dictionary DFS over every vertex."""
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in bits(g.adj[u]):
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def tree_bipartition(n: int, edges, comp_mask: int) -> tuple[int, int]:
    """Bipartition classes of a tree component, root class first."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    root = comp_mask & -comp_mask
    side = {root.bit_length() - 1: 0}
    stack = [root.bit_length() - 1]
    while stack:
        u = stack.pop()
        for v in bits(adj[u] & comp_mask):
            if v not in side:
                side[v] = 1 - side[u]
                stack.append(v)
    zero = mask_of(v for v, s in side.items() if s == 0)
    return zero, comp_mask ^ zero


def find_common_leaf(cg: ColoredZGraph):
    """The least vertex of degree 1 in both colors, by a degree scan, or None."""
    ok, reasons = check_conjugate(cg)
    if not ok:
        raise ValueError("not conjugate: " + "; ".join(reasons))
    for v in range(cg.base.n):
        if (sum(1 for e in cg.red if v in e) == 1
                and sum(1 for e in cg.blue if v in e) == 1):
            return v
    return None


def contract_map(g: ZGraph, i: int, j: int) -> tuple[ZGraph, list[int]]:
    """Glue vertices i and j (an i-j edge need not exist); (graph, label map).

    The merged vertex lands in min(i,j)'s slot, remaining labels compact
    down preserving relative order; parallel edges collapse, loops drop.
    The map sends each old label to its new one.
    """
    if i == j:
        raise ValueError("cannot contract a vertex with itself")
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ValueError("vertex out of range")
    lo, hi = (i, j) if i < j else (j, i)
    new = [lo if v == hi else v - 1 if v > hi else v for v in range(g.n)]
    edges = [(new[a], new[b]) for a, b in g.edges if new[a] != new[b]]
    return ZGraph(g.n - 1, edges), new


def delete_edge(g: ZGraph, i: int, j: int) -> ZGraph:
    e = (i, j) if i < j else (j, i)
    if e not in g.edges:
        raise ValueError("edge (%d,%d) not present" % (i, j))
    return ZGraph(g.n, g.edges - {e})


def _internal(mask_pair, i, j) -> bool:
    e = (1 << i) | (1 << j)
    return e & ~mask_pair[0] == 0 or e & ~mask_pair[1] == 0


def _remap_mask(mask: int, relabel_map: list[int]) -> int:
    return mask_of(relabel_map[v] for v in bits(mask))


def reduce_to_symmetric(g: ZGraph, f1, f2):
    """The reduction with a dimension test after each part-connected deletion."""
    validate_partition(g, f1)
    validate_partition(g, f2)
    if {f1[0], f1[1]} == {f2[0], f2[1]}:
        raise ValueError("facet pairs must be distinct")
    a, b = f1
    c, d = f2
    while True:
        shared = [e for e in g.sorted_edges()
                  if _internal((a, b), *e) and _internal((c, d), *e)]
        if shared:
            i, j = shared[0]
            g, m = contract_map(g, i, j)
            a, b, c, d = (_remap_mask(x, m) for x in (a, b, c, d))
            continue
        changed = False
        for part_pair, own in (((a, b), (a, b)), ((c, d), (c, d))):
            for i, j in g.sorted_edges():
                if not _internal(part_pair, i, j):
                    continue
                part = own[0] if ((1 << i) | (1 << j)) & ~own[0] == 0 else own[1]
                g2 = delete_edge(g, i, j)
                if g2.connected_in(part) and dimension(g2) == dimension(g):
                    g = g2
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        for i, j in g.sorted_edges():
            if _internal((a, b), i, j) or _internal((c, d), i, j):
                continue
            g2 = delete_edge(g, i, j)
            if dimension(g2) == dimension(g):
                g = g2
                changed = True
                break
        if not changed:
            break
    red = [e for e in g.sorted_edges() if _internal((a, b), *e)]
    blue = [e for e in g.sorted_edges() if _internal((c, d), *e)]
    cg = ColoredZGraph(g, red, blue)
    ok, reasons = check_conjugate(cg)
    if not ok:
        raise RuntimeError("reduction did not reach a conjugate pair: %s" % reasons)
    return cg, (a, b), (c, d)


def labeled_trees(vertices: tuple[int, ...]):
    """All labeled trees on the given vertices (Pruefer decoding)."""
    k = len(vertices)
    if k == 1:
        yield ()
        return
    if k == 2:
        yield ((min(vertices), max(vertices)),)
        return
    for seq in product(vertices, repeat=k - 2):
        degree = dict.fromkeys(vertices, 1)
        for s in seq:
            degree[s] += 1
        edges = []
        used = set()
        for s in seq:
            leaf = min(v for v in vertices if degree[v] == 1 and v not in used)
            edges.append((min(leaf, s), max(leaf, s)))
            used.add(leaf)
            degree[s] -= 1
        rest = [v for v in vertices if v not in used]
        edges.append((min(rest), max(rest)))
        yield tuple(sorted(edges))


def free_trees_by_pruefer(k: int) -> tuple:
    """Free trees on k vertices: every labeled tree, deduplicated by key."""
    seen = {}
    for edges in labeled_trees(tuple(range(k))):
        key, perm, _ = edge_label(k, edges)
        if key not in seen:
            seen[key] = relabel(edges, perm)
    return tuple(sorted(seen.values()))


def colored_key(cg: ColoredZGraph):
    """Canonical key over relabelings and the red/blue swap: the least
    reference key of the code matrix with red 1 and blue 2, or swapped."""
    n = cg.base.n
    keys = []
    for first, second in ((cg.red, cg.blue), (cg.blue, cg.red)):
        code = [[0] * n for _ in range(n)]
        for c, edges in ((1, first), (2, second)):
            for i, j in edges:
                code[i][j] = code[j][i] = c
        keys.append(growth_reference.min_label_perm(n, code)[0])
    return (n, min(keys))


def enumerate_conjugate_classes(n: int) -> list[ColoredZGraph]:
    """Conjugate colorings up to isomorphism and color swap, by key."""
    seen = {}
    for a in range(1, n // 2 + 1):
        for red in _forests(n, a):
            for blue in cross_completions(n, red):
                cg = ColoredZGraph(ZGraph(n, red + blue), red, blue)
                key = colored_key(cg)
                if key not in seen:
                    seen[key] = cg
    return [seen[k] for k in sorted(seen)]


def enumerate_conjugate(n: int):
    """All labeled conjugate colorings on n vertices (red forest driven)."""
    full = (1 << n) - 1
    sub = full ^ 1
    while True:
        v1 = sub | 1
        v2 = full ^ v1
        if v2:
            for tree1 in labeled_trees(tuple(bits(v1))):
                for tree2 in labeled_trees(tuple(bits(v2))):
                    red = tuple(sorted(tree1 + tree2))
                    for blue in cross_completions(n, red):
                        yield ColoredZGraph(ZGraph(n, red + blue), red, blue)
        if sub == 0:
            break
        sub = (sub - 1) & (full ^ 1)


def _path_edges(vertices):
    return tuple((min(a, b), max(a, b)) for a, b in zip(vertices, vertices[1:]))


def _two_path_reps(n: int):
    """Red 2-path forests up to isomorphism: one per size split.

    Only graphs without singleton color components can be leaf-free, and
    with disjoint leaf sets on n <= 9 vertices the minority color has
    exactly 4 leaves, i.e. two paths; so these reds are exhaustive for the
    no-common-leaf question up to isomorphism and color swap.
    """
    for split in range(2, n // 2 + 1):
        yield _path_edges(list(range(split))) + _path_edges(list(range(split, n)))


def red_forest_reps(n: int):
    """Every 2-forest up to isomorphism, singleton trees included."""
    for a in range(1, n // 2 + 1):
        for t1 in free_trees(a):
            for t2 in free_trees(n - a):
                yield list(t1) + [(i + a, j + a) for i, j in t2]


def search_extremal_reference(d: int):
    """(status, distance, witness) of the no-common-leaf search.

    Every conjugate class is scanned for d <= 6, the two-path red forests
    are completed for d = 7, 8, and every free-tree pair sorted by leaf
    count for d >= 9; each completion is checked for a common leaf.
    """
    n = d + 1
    if d <= 6:
        for cg in enumerate_conjugate_classes(n):
            if find_common_leaf(cg) is None:
                return "found", red_blue_distance(cg), cg
        return "none", None, None
    if d <= 8:
        reds = _two_path_reps(n)
    else:
        def leaf_count(edges):
            return sum(1 for v in range(n) if sum(v in e for e in edges) == 1)

        reds = sorted(red_forest_reps(n), key=lambda edges: (leaf_count(edges), edges))
    for red in reds:
        for blue in cross_completions(n, red, forbid_common_leaf=True):
            cg = ColoredZGraph(ZGraph(n, tuple(red) + tuple(blue)), red, blue)
            if find_common_leaf(cg) is None:
                return "found", red_blue_distance(cg), cg
    return "none", None, None


def d8_common_neighbors_reference(g: ZGraph) -> int:
    """Facet pairs of g sharing a belt with both d8 partitions, by full scan."""
    f1 = (D8_X1, D8_Y1)
    f2 = (D8_X2, D8_Y2)
    count = 0
    for f in enumerate_facets(g):
        if not f[0] & 1:
            continue
        if {f[0], f[1]} in ({D8_X1, D8_Y1}, {D8_X2, D8_Y2}):
            continue
        if in_same_belt(g, f, f1) and in_same_belt(g, f, f2):
            count += 1
    return count


def d8_common_neighbors_lists(g: ZGraph) -> int:
    """Facet pairs sharing a belt with both d8 partitions: the intersection
    of the two fixed pairs' `belt_neighbors` lists."""
    return len(set(belt_neighbors(g, D8_X1)) & set(belt_neighbors(g, D8_X2)))


def d8_score_reference(g: ZGraph) -> int:
    """100 per fixed part that is not connected; otherwise the common
    neighbours of the two fixed pairs, from their neighbour lists."""
    penalty = 100 * sum(not g.connected_in(m) for m in (D8_X1, D8_Y1, D8_X2, D8_Y2))
    return penalty or d8_common_neighbors_lists(g)


def search_d8_reference(max_nodes: int, seed: int) -> SearchResult:
    """The d8 climb that builds each flipped graph and scores it in full.

    Same seeded restarts, flip order, first-improvement rule, plateau
    escapes and witness checks as `symmetric.search_d8_nonsymmetric`,
    capped by nodes only; elapsed stays 0.
    """
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    f1 = (D8_X1, D8_Y1)
    f2 = (D8_X2, D8_Y2)
    nodes = 0
    while nodes <= max_nodes:
        g = ZGraph(9, frozenset(e for e in pairs if rng.random() < 0.5))
        score = d8_score_reference(g)
        stale = 0
        while stale < 60:
            nodes += 1
            if nodes > max_nodes:
                return SearchResult("inconclusive", None, None, nodes)
            if score == 0:
                dist = belt_distance(g, f1, f2)[0]
                ok = dist == 3 and belt_diameter(g) == 3 and _reduces_leaf_free(g, f1, f2)
                return SearchResult("found" if ok else "violation", (g, f1, f2), dist, nodes)
            best = None
            order = list(pairs)
            rng.shuffle(order)
            for e in order:
                h = ZGraph(9, g.edges ^ {e})
                s = d8_score_reference(h)
                if best is None or s < best[0]:
                    best = (s, h)
                if s < score:
                    break
            if best[0] <= score:
                stale = stale + 1 if best[0] == score else 0
                score, g = best
            else:
                g = ZGraph(9, g.edges ^ {rng.choice(pairs)})
                score = d8_score_reference(g)
                stale += 1
    return SearchResult("inconclusive", None, None, nodes)


def bipartite_trees_reference(xs: int, ys: int, min_deg=None):
    """Spanning trees of the complete bipartite graph on xs x ys.

    Yields sorted edge tuples in lexicographic order, pruning only by a
    scan of every vertex's degree floor at each node and restoring the
    union-find from a copy on backtrack.  min_deg maps a vertex to a
    required minimum degree.
    """
    verts = bits(xs | ys)
    if len(verts) == 1:
        yield ()
        return
    if not xs or not ys:
        return
    cand = sorted(
        (min(u, v), max(u, v)) for u in bits(xs) for v in bits(ys)
    )
    need = len(verts) - 1
    req = {v: 1 for v in verts}
    if min_deg:
        for v, k in min_deg.items():
            if v in req:
                req[v] = max(1, k)
    # suffix incidence counts for degree-feasibility pruning
    m = len(cand)
    suffix = [dict.fromkeys(verts, 0) for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        row = dict(suffix[i + 1])
        u, v = cand[i]
        row[u] += 1
        row[v] += 1
        suffix[i] = row

    deg = dict.fromkeys(verts, 0)
    comp = {v: v for v in verts}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    chosen = []

    def feasible(i):
        for v in verts:
            if deg[v] + suffix[i][v] < req[v]:
                return False
        return True

    def rec(i):
        if len(chosen) == need:
            if all(deg[v] >= req[v] for v in verts):
                yield tuple(chosen)
            return
        if m - i < need - len(chosen) or not feasible(i):
            return
        u, v = cand[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            saved = dict(comp)
            comp[rv] = ru
            deg[u] += 1
            deg[v] += 1
            chosen.append(cand[i])
            yield from rec(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
            comp.clear()
            comp.update(saved)
        yield from rec(i + 1)

    yield from rec(0)
