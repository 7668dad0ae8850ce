"""Red/blue colored graphs: conjugate zone-set pairs and extremal search.

A coloring is conjugate when each color forms a 2-component spanning forest
and every edge of one color joins the two components of the other.  The
red components then give one facet, the blue components the other, and the
belt distance between those facets is 2 or 3; it is 2 exactly when some
vertex is a leaf in both colors.

Structure used throughout: the two red trees are bipartite with unique
vertex 2-colorings, and the blue component partition must properly 2-color
every red edge, so it is a union of red bipartition classes (two choices);
blue edges then form spanning trees of complete bipartite graphs between
classes.  That turns completion searches into bipartite-tree searches.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from . import venkov
from .faces import validate_partition
from .zgraph import (
    MAX_N,
    PAIR,
    ZGraph,
    bits,
    canonical_forms,
    components,
    dimension,
    grow_canonical,
    key_sorted,
    mask_of,
    pair,
    reach,
)


def _norm_edges(edges):
    return frozenset(pair(i, j) for i, j in edges)


class ColoredZGraph:
    """A ZGraph whose every edge is red or blue."""

    __slots__ = ("base", "red", "blue")

    def __init__(self, base: ZGraph, red, blue):
        red = _norm_edges(red)
        blue = _norm_edges(blue)
        if red & blue:
            raise ValueError("an edge cannot carry both colors")
        if red | blue != base.edges:
            raise ValueError("every edge needs exactly one color")
        self.base = base
        self.red = red
        self.blue = blue

    def __repr__(self):
        return "ColoredZGraph(n=%d, red=%r, blue=%r)" % (
            self.base.n,
            sorted(self.red),
            sorted(self.blue),
        )


def _conjugacy(cg: ColoredZGraph):
    """(reasons it is not conjugate, red components, blue components)."""
    n = cg.base.n
    reasons = []
    if dimension(cg.base) != n - 1:
        reasons.append("base graph is not connected")
    edges = {"red": cg.red, "blue": cg.blue}
    comps = {color: components(ZGraph(n, edges[color])) for color in edges}
    for color in edges:
        if len(edges[color]) != n - 2:
            reasons.append("%s edge count %d != %d" % (color, len(edges[color]), n - 2))
    for color in edges:
        if len(comps[color]) != 2:
            reasons.append("%s subgraph has %d components, want 2" % (color, len(comps[color])))
    for color, other in (("red", "blue"), ("blue", "red")):
        if len(comps[other]) == 2:
            c1 = comps[other][0]
            for i, j in sorted(edges[color]):
                if bool(c1 >> i & 1) == bool(c1 >> j & 1):
                    reasons.append("%s edge (%d,%d) inside a %s component" % (color, i, j, other))
    return reasons, tuple(comps["red"]), tuple(comps["blue"])


def check_conjugate(cg: ColoredZGraph):
    """(is conjugate, reasons why not)."""
    reasons = _conjugacy(cg)[0]
    return (not reasons, reasons)


def _conjugate_facets(cg: ColoredZGraph):
    """The red and blue facets of a conjugate coloring; ValueError otherwise."""
    reasons, fr, fb = _conjugacy(cg)
    if reasons:
        raise ValueError("not conjugate: " + "; ".join(reasons))
    return fr, fb


def _common_leaf(cg: ColoredZGraph):
    return min(set(_leaves(cg.red)).intersection(_leaves(cg.blue)), default=None)


def find_common_leaf(cg: ColoredZGraph):
    """The least vertex of degree 1 in both colors, or None."""
    _conjugate_facets(cg)
    return _common_leaf(cg)


def red_blue_distance(cg: ColoredZGraph) -> int:
    return venkov.belt_distance(cg.base, *_conjugate_facets(cg))[0]


def _two_coloring(adj, start: int):
    """(start's side, other side) of start's component, or None on an odd cycle.

    Grows BFS layers as `zgraph.reach` grows its sets, on alternate sides.
    A layer's neighbours on its own side lie in it and close an odd cycle.
    """
    sides = [start, 0]
    frontier, k = start, 0
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        if nxt & sides[k]:
            return None
        k ^= 1
        frontier = nxt & ~sides[k]
        sides[k] |= frontier
    return sides[0], sides[1]


def is_bipartite(g: ZGraph) -> bool:
    return all(_two_coloring(g.adj, c & -c) is not None for c in components(g))


@dataclass
class SymmetryReport:
    conjugate: bool
    reasons: list
    common_leaf: int | None
    red_blue_distance: int | None
    bipartite: bool
    red_facet: tuple | None
    blue_facet: tuple | None


def build_report(cg: ColoredZGraph) -> SymmetryReport:
    reasons, fr, fb = _conjugacy(cg)
    bipartite = is_bipartite(cg.base)
    if reasons:
        return SymmetryReport(False, reasons, None, None, bipartite, None, None)
    return SymmetryReport(True, [], _common_leaf(cg), venkov.belt_distance(cg.base, fr, fb)[0],
                          bipartite, fr, fb)


# ---------------------------------------------------------------------------
# reduction of an arbitrary facet pair to a conjugate coloring


def _part(e: int, x: int, y: int) -> int:
    """The part of the facet pair (x, y) holding both ends of edge mask e, or 0."""
    return x if not e & ~x else y if not e & ~y else 0


def _edges(adj, live: int):
    """(i, j, edge mask) of each edge i < j on the live vertices, sorted."""
    for i in bits(live):
        for j in bits(adj[i] >> i + 1 << i + 1):
            yield i, j, 1 << i | 1 << j


def reduce_to_symmetric(g: ZGraph, f1, f2):
    """Shrink g until f1's and f2's internal edges form a conjugate pair.

    Contracts edges internal to both facets, then drops internal edges that
    keep their part connected, then drops edges internal to neither while
    the dimension allows.  Returns (coloring, f1 image, f2 image); the belt
    distance between the image facets is at least the original one.

    Works on a copy of g's neighbour masks, in g's labels: a contraction
    folds the edge's higher end into its lower one, and the live vertices
    are renumbered in order at the end, which never reorders the edges.
    """
    validate_partition(g, f1)
    validate_partition(g, f2)
    if {f1[0], f1[1]} == {f2[0], f2[1]}:
        raise ValueError("facet pairs must be distinct")
    adj, live, (a, b), (c, d) = list(g.adj), g.full_mask, f1, f2
    while True:
        shared = next(((i, j) for i, j, e in _edges(adj, live)
                       if _part(e, a, b) and _part(e, c, d)), None)
        if shared:
            i, j = shared
            for v in bits(adj[j]):
                adj[v] = adj[v] ^ 1 << j | 1 << i
            adj[i] = (adj[i] | adj[j]) & ~(1 << i)
            live ^= 1 << j
            a, b, c, d = (x & ~(1 << j) for x in (a, b, c, d))
            continue
        # an edge goes when its ends stay joined inside its part, or, for an edge
        # inside no part, at all; f1's parts are tried first, then f2's, then no part
        deletions = chain(
            ((i, j, p) for x, y in ((a, b), (c, d)) for i, j, e in _edges(adj, live)
             if (p := _part(e, x, y))),
            ((i, j, live) for i, j, e in _edges(adj, live)
             if not (_part(e, a, b) or _part(e, c, d))))
        for i, j, within in deletions:
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
            if reach(adj, 1 << i, within) >> j & 1:
                break
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
        else:
            break   # no edge can go
    slot = {v: k for k, v in enumerate(bits(live))}
    kept = [(PAIR[slot[i]][slot[j]], e) for i, j, e in _edges(adj, live)]
    red = [p for p, e in kept if _part(e, a, b)]
    blue = [p for p, e in kept if _part(e, c, d)]
    cg = ColoredZGraph(ZGraph(len(slot), [p for p, _ in kept]), red, blue)
    ok, reasons = check_conjugate(cg)
    if not ok:
        raise RuntimeError("reduction did not reach a conjugate pair: %s" % reasons)
    a, b, c, d = (mask_of(slot[v] for v in bits(x)) for x in (a, b, c, d))
    return cg, (a, b), (c, d)


# ---------------------------------------------------------------------------
# generators


def gen_k2dm1(d: int) -> ColoredZGraph:
    """The complete bipartite K_{2,d-1} with its two-star coloring.

    Vertex 0 carries the blue star, vertex 1 the red star.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    n = d + 1
    blue = [(0, v) for v in range(2, n)]
    red = [(1, v) for v in range(2, n)]
    return ColoredZGraph(ZGraph(n, red + blue), red, blue)


def permutahedron_graph(d: int) -> ZGraph:
    """The complete graph on d+1 vertices."""
    if d < 1:
        raise ValueError("need d >= 1")
    n = d + 1
    return ZGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _leaves(edges) -> list[int]:
    """Vertices of degree 1 in an edge set."""
    deg = Counter(v for e in edges for v in e)
    return [v for v, k in deg.items() if k == 1]


def bipartite_trees(xs: int, ys: int, min_deg=None):
    """Spanning trees of the complete bipartite graph on xs x ys.

    Yields sorted edge tuples in lexicographic order.  min_deg maps a
    vertex to a required minimum degree (used to rule out common leaves
    during search instead of filtering afterwards).

    The walk takes or skips each candidate edge in order and cuts a branch
    only when it cannot finish.  Every edge joins one xs vertex to one ys
    vertex, so on each side the degree still missing from the floors must
    fit in the edges still to choose.  A vertex's slack (degree plus the
    candidates left at it, minus its floor) drops only when an edge at it
    is skipped, so only that edge's ends need checking.
    """
    verts = bits(xs | ys)
    if len(verts) == 1:
        yield ()
        return
    if not xs or not ys:
        return
    cand = sorted(PAIR[u][v] for u in bits(xs) for v in bits(ys))
    m = len(cand)
    top = verts[-1] + 1
    req = [1] * top
    if min_deg:
        for v, k in min_deg.items():
            if v >= 0 and (xs | ys) >> v & 1:
                req[v] = max(1, k)
    side = [ys >> v & 1 for v in range(top)]
    slack = [0] * top
    for v in bits(xs):
        slack[v] = ys.bit_count() - req[v]
    for v in bits(ys):
        slack[v] = xs.bit_count() - req[v]
    unmet = [sum(req[v] for v in bits(xs)), sum(req[v] for v in bits(ys))]
    need = len(verts) - 1
    if min(slack[v] for v in verts) < 0 or max(unmet) > need:
        return
    deg = [0] * top
    comp = [1 << v for v in range(top)]
    chosen = []

    def rec(i, left):
        if not left:
            if unmet == [0, 0]:
                yield tuple(chosen)
            return
        if m - i < left:
            return
        e = cand[i]
        u, v = e
        cu, cv = comp[u], comp[v]
        if cu != cv:
            both = cu | cv
            for w in bits(both):
                comp[w] = both
            deg[u] += 1
            deg[v] += 1
            met_u, met_v = deg[u] <= req[u], deg[v] <= req[v]
            unmet[side[u]] -= met_u
            unmet[side[v]] -= met_v
            if unmet[0] < left and unmet[1] < left:
                chosen.append(e)
                yield from rec(i + 1, left - 1)
                chosen.pop()
            unmet[side[u]] += met_u
            unmet[side[v]] += met_v
            deg[u] -= 1
            deg[v] -= 1
            for w in bits(cu):
                comp[w] = cu
            for w in bits(cv):
                comp[w] = cv
        slack[u] -= 1
        slack[v] -= 1
        if slack[u] >= 0 and slack[v] >= 0:
            yield from rec(i + 1, left)
        slack[u] += 1
        slack[v] += 1

    yield from rec(0, need)


def cross_completions(n: int, forest_edges, forbid_common_leaf=False):
    """All valid other-color edge sets for a given 2-forest of one color.

    The completion's component partition must properly 2-color the given
    forest, so its components are unions of the forest trees' bipartition
    classes (two pairings) and its edges form two bipartite spanning trees.
    With forbid_common_leaf, every leaf of the forest gets degree >= 2 in
    the completion, so no vertex is a leaf in both.
    """
    forest_edges = sorted(_norm_edges(forest_edges))
    forest = ZGraph(n, forest_edges)
    comps = components(forest)
    if len(comps) != 2:
        raise ValueError("need a 2-component spanning forest")
    (p, q), (s, t) = (_two_coloring(forest.adj, c & -c) for c in comps)
    min_deg = dict.fromkeys(_leaves(forest_edges), 2) if forbid_common_leaf else None
    for b1x, b1y, b2x, b2y in ((p, s, q, t), (p, t, q, s)):
        if b1x | b1y == 0 or b2x | b2y == 0:
            continue
        for tree1 in bipartite_trees(b1x, b1y, min_deg):
            for tree2 in bipartite_trees(b2x, b2y, min_deg):
                yield tree1 + tree2


def free_trees(k: int) -> tuple:
    """Trees on k vertices up to isomorphism, as sorted canonical edge tuples.

    Every tree on k >= 2 vertices has a leaf, so hanging a leaf off each
    vertex of each tree on k - 1 vertices reaches every class.  The leaves
    are the tree's non-cut vertices, so `grow_canonical` hangs one leaf per
    orbit of the tree's automorphism group and labels only the trees whose
    new leaf has the least invariant among the leaves.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    return _tree_forms(k)[0]


@lru_cache(maxsize=None)
def _tree_forms(k: int) -> tuple:
    """(trees, generators): `free_trees(k)` and, for each tree, generators
    of its automorphism group in its canonical labels, which growing the
    next size needs."""
    if k == 1:
        return ((),), ([],)
    grown = grow_canonical(zip(*_tree_forms(k - 1)), k - 1, [1 << v for v in range(k - 1)])
    return tuple(zip(*sorted(form[1:] for form in key_sorted(canonical_forms(grown, k)))))


def _forests(n: int, a: int):
    """2-component spanning forests up to isomorphism, trees on a and n - a vertices."""
    for t1 in free_trees(a):
        for t2 in free_trees(n - a):
            yield t1 + tuple((i + a, j + a) for i, j in t2)


def conjugate_colorings(n: int):
    """Every completion of every red 2-forest of free trees, as a coloring:
    each conjugate coloring on n vertices up to isomorphism, most of them
    more than once.  A coloring's red forest relabels onto the `_forests`
    entry of its type (its smaller tree has at most n // 2 vertices), and
    its blue edges then form a cross completion."""
    for a in range(1, n // 2 + 1):
        for red in _forests(n, a):
            for blue in cross_completions(n, red):
                yield ColoredZGraph(ZGraph(n, red + blue), red, blue)


def _check_leaf_free(cg: ColoredZGraph) -> ColoredZGraph:
    """cg, once checked conjugate, leaf-free and at distance 3; RuntimeError otherwise."""
    reasons, fr, fb = _conjugacy(cg)
    if reasons:
        raise RuntimeError("completion not conjugate: %s" % reasons)
    leaf = _common_leaf(cg)
    if leaf is not None:
        raise RuntimeError("completion has a common leaf at vertex %d" % (leaf + 1))
    dist = venkov.belt_distance(cg.base, fr, fb)[0]
    if dist != 3:
        raise RuntimeError("leaf-free completion at distance %d" % dist)
    return cg


def _leaf_free_completion(n: int, blue_edges) -> ColoredZGraph | None:
    """The first red completion of a blue 2-forest with no common leaf, or None.

    cross_completions gives every blue leaf red degree >= 2, so its first
    completion is leaf-free and, by the leaf criterion, at distance 3.  The
    result is checked for all three; a failed check raises RuntimeError.
    """
    red = next(cross_completions(n, blue_edges, forbid_common_leaf=True), None)
    if red is None:
        return None
    return _check_leaf_free(ColoredZGraph(ZGraph(n, tuple(red) + tuple(blue_edges)),
                                          red, blue_edges))


def _family_witness(n: int, blue) -> ColoredZGraph:
    cg = _leaf_free_completion(n, _norm_edges(blue))
    if cg is None:
        raise RuntimeError("no red completion found")
    return cg


def gen_odd_extremal(n: int) -> ColoredZGraph:
    """Distance-3 witness in dimension d = 2n+3 (n >= 2).

    Vertices 0..3 are A1..A4; 4..2n+3 are B1..B2n.  Blue edges are fixed
    by the family pattern; red edges are found by constrained search.
    """
    if n < 2:
        raise ValueError("need n >= 2")

    def a(i):
        return i - 1

    def b(j):
        return 3 + j

    blue = [(a(1), b(2 * j)) for j in range(1, n + 1)]
    blue.append((a(3), b(2 * n)))
    blue.append((a(2), b(1)))
    blue += [(a(4), b(2 * j - 1)) for j in range(1, n + 1)]
    return _family_witness(2 * n + 4, blue)


def gen_even_extremal(n: int) -> ColoredZGraph:
    """Distance-3 witness in dimension d = 2n+4 (n >= 3).

    Vertices 0..4 are A1..A5; 5..2n+4 are B1..B2n.
    """
    if n < 3:
        raise ValueError("need n >= 3")

    def a(i):
        return i - 1

    def b(j):
        return 4 + j

    blue = [(a(1), b(1)), (a(1), b(3)), (a(3), b(1))]
    blue += [(a(5), b(2 * j - 1)) for j in range(2, n + 1)]
    blue += [(a(2), b(2 * j)) for j in range(1, n + 1)]
    blue.append((a(4), b(2 * n)))
    return _family_witness(2 * n + 5, blue)


# ---------------------------------------------------------------------------
# searches


@dataclass
class SearchResult:
    status: str                 # "found" | "none" | "inconclusive" | "violation"
    witness: object = None      # ColoredZGraph or (ZGraph, facet, facet)
    distance: int | None = None
    nodes: int = 0
    elapsed: float = 0.0


class _Budget:
    def __init__(self, seconds=None, max_nodes=None):
        for name, value in (("budget", seconds), ("max_nodes", max_nodes)):
            if value is not None and value < 0:
                raise ValueError("need %s >= 0, got %r" % (name, value))
        self.t0 = time.monotonic()
        self.seconds = seconds
        self.max_nodes = max_nodes
        self.nodes = 0

    def tick(self, k: int = 1) -> bool:
        """Count work; False once the budget is exhausted."""
        self.nodes += k
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            return False
        if self.seconds is not None and time.monotonic() - self.t0 > self.seconds:
            return False
        return True

    @property
    def elapsed(self):
        return time.monotonic() - self.t0


def search_extremal(d: int, budget_seconds=None, max_nodes=None) -> SearchResult:
    """Search for a conjugate coloring on d+1 vertices with no common leaf.

    A leaf-free coloring has disjoint leaf sets, so one color has at most
    (d+1) // 2 leaves; and a color component on one vertex forces the
    K_{2,d-1} coloring, which has common leaves.  So it suffices to complete
    the 2-forests of free trees on at least 2 vertices each with at most
    (d+1) // 2 leaves, fewest leaves first: exhaustive up to isomorphism and
    color swap for every d.  A graph has at most MAX_N vertices, so d <= 15.
    Two such trees already have 4 leaves, so for d <= 6, where
    (d+1) // 2 < 4, the answer is "none" before any tree is grown or any
    budget checked.  Otherwise the budget is checked before each tree-size
    step and counts one node per forest completed.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    if d >= MAX_N:
        raise ValueError("need d <= %d" % (MAX_N - 1))
    n = d + 1
    budget = _Budget(budget_seconds, max_nodes)
    if n // 2 < 4:
        return SearchResult("none", None, None, budget.nodes, budget.elapsed)
    for k in range(2, n - 1):
        if not budget.tick(0):
            return SearchResult("inconclusive", None, None, budget.nodes, budget.elapsed)
        free_trees(k)
    forests = sorted((len(_leaves(f)), f) for a in range(2, n // 2 + 1) for f in _forests(n, a))
    for leaves, forest in forests:
        if leaves > n // 2:
            break
        if not budget.tick():
            return SearchResult("inconclusive", None, None, budget.nodes, budget.elapsed)
        cg = _leaf_free_completion(n, forest)
        if cg is not None:
            return SearchResult("found", cg, 3, budget.nodes, budget.elapsed)
    return SearchResult("none", None, None, budget.nodes, budget.elapsed)


D8_X1 = mask_of(range(0, 5))
D8_Y1 = mask_of(range(5, 9))
D8_X2 = mask_of([0, 1, 3, 6, 8])
D8_Y2 = mask_of([2, 4, 5, 7])


def _d8_masks():
    """(masks, needs, holds): the vertex masks whose connectivity decides the
    d8 score, the four fixed parts first.

    A common neighbour {S, V∖S} of the two fixed pairs has S inside a side P
    of the first and a side Q of the second: the other part holds P's other
    side, which meets both sides of the second pair.  So S is a nonempty
    subset of one of the four cells P ∩ Q, and it is a common neighbour
    exactly when S, V∖S, P∖S and Q∖S are connected, and so are P's and Q's
    other sides.  needs[t] has the bits of those six masks for the t-th S;
    holds[i][j] has the bits of the masks holding both i and j.
    """
    full = (1 << 9) - 1
    index = {m: k for k, m in enumerate((D8_X1, D8_Y1, D8_X2, D8_Y2))}
    needs = []
    for p in (D8_X1, D8_Y1):
        for q in (D8_X2, D8_Y2):
            cell = s = p & q
            while s:
                need = 0
                for m in (s, full ^ s, p ^ s, q ^ s, full ^ p, full ^ q):
                    need |= 1 << index.setdefault(m, len(index))
                needs.append(need)
                s = (s - 1) & cell
    holds = [[0] * 9 for _ in range(9)]
    for m, k in index.items():
        for i in bits(m):
            for j in bits(m):
                holds[i][j] |= 1 << k
    return tuple(index), tuple(needs), holds


_D8_MASKS, _D8_NEEDS, _D8_HOLDS = _d8_masks()
_D8_FIXED = 0b1111      # the bits of the four fixed parts


def _d8_rank(answers: int) -> int:
    """The score from the answers (bit k set when _D8_MASKS[k] is connected): 100
    per fixed part not connected, else the facet pairs sharing a belt with both."""
    missing = _D8_FIXED & ~answers
    if missing:
        return 100 * missing.bit_count()
    return sum(answers & need == need for need in _D8_NEEDS)


def _d8_answers(g: ZGraph) -> int:
    """Bit k set when g is connected on _D8_MASKS[k]."""
    return sum(1 << k for k, m in enumerate(_D8_MASKS) if g.connected_in(m))


def _d8_flip(adj: list[int], answers: int, i: int, j: int) -> tuple[int, int]:
    """(score, answers) of the graph adj with the edge {i, j} flipped.

    Only a mask holding both ends can change its answer, and only one way:
    an added edge can join a mask that was not connected, a removed edge can
    split one that was.  So only those masks are asked again.  adj is
    flipped in place and restored.
    """
    bi, bj = 1 << i, 1 << j
    adding = not adj[i] & bj
    todo = _D8_HOLDS[i][j] & (~answers if adding else answers)
    adj[i] ^= bj
    adj[j] ^= bi
    while todo:
        low = todo & -todo
        todo ^= low
        m = _D8_MASKS[low.bit_length() - 1]
        if (reach(adj, m & -m, m) == m) is adding:
            answers ^= low
    adj[i] ^= bj
    adj[j] ^= bi
    return _d8_rank(answers), answers


def _reduces_leaf_free(g: ZGraph, f1, f2) -> bool:
    """Does the pair reduce to a conjugate coloring at distance 3 with no common leaf?"""
    try:
        _check_leaf_free(reduce_to_symmetric(g, f1, f2)[0])
    except RuntimeError:   # no conjugate image, or one that breaks the leaf criterion
        return False
    return True


def search_d8_nonsymmetric(budget_seconds=3600.0, max_nodes=None, seed=1) -> SearchResult:
    """Find a 9-vertex graph whose two fixed partitions sit at belt distance 3.

    The partitions are {A1..A5 | B1..B4} and {A1 A2 A4 B2 B4 | A3 A5 B1 B3}
    with A1..A5 = vertices 0..4 and B1..B4 = vertices 5..8.  All four
    mutual intersections are nonempty, so distance >= 2 is automatic and
    distance 3 means exactly: no facet pair shares a belt with both.
    Seeded hill climbing over single-edge flips, with random restarts.
    The climb keeps the connectivity answers of the 60 masks of `_d8_masks`
    and scores each flip from the answers it can change (`_d8_flip`); a
    restart asks all 60 once (`_d8_answers`).

    A graph that scores 0 but is not at belt distance 3 with belt diameter
    3 contradicts either the scorer or the diameter bound; it is returned
    with status "violation" instead of being climbed past.  So is one whose
    `reduce_to_symmetric` image is not a conjugate coloring at distance 3
    without a common leaf, the chain the proof of the bound runs through.
    """
    rng = random.Random(seed)
    budget = _Budget(budget_seconds, max_nodes)
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    f1 = (D8_X1, D8_Y1)
    f2 = (D8_X2, D8_Y2)

    def verify(adj) -> SearchResult:
        g = ZGraph(9, (e for e in pairs if adj[e[0]] >> e[1] & 1))
        dist, _ = venkov.belt_distance(g, f1, f2)
        ok = dist == 3 and venkov.belt_diameter(g) == 3 and _reduces_leaf_free(g, f1, f2)
        return SearchResult("found" if ok else "violation", (g, f1, f2), dist,
                            budget.nodes, budget.elapsed)

    while budget.tick(0):
        g = ZGraph(9, (e for e in pairs if rng.random() < 0.5))
        adj, answers = list(g.adj), _d8_answers(g)
        score = _d8_rank(answers)
        stale = 0
        while stale < 60:
            if not budget.tick():
                return SearchResult("inconclusive", None, None, budget.nodes, budget.elapsed)
            if score == 0:
                return verify(adj)
            best = None
            order = list(pairs)
            rng.shuffle(order)
            for e in order:
                s, flipped = _d8_flip(adj, answers, *e)
                if best is None or s < best[0]:
                    best = (s, e, flipped)
                if s < score:
                    break
            if best[0] <= score:
                stale = stale + 1 if best[0] == score else 0
                score, e, answers = best
            else:
                # plateau escape: random flip
                e = rng.choice(pairs)
                score, answers = _d8_flip(adj, answers, *e)
                stale += 1
            i, j = e
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
    return SearchResult("inconclusive", None, None, budget.nodes, budget.elapsed)
