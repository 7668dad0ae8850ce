"""Labeled simple graphs standing for zone-vector sets e_i - e_j.

A graph on n vertices (labels 0..n-1) encodes which vectors e_i - e_j are
present; a connected graph on n vertices encodes an (n-1)-dimensional
zonotope.  Vertex sets are int bitmasks throughout, so n <= 16 everywhere
(bitmasks would carry to 64, but nothing here needs more than 16).  A
`ZGraph` is a plain value, its edges and neighbour masks, nothing cached;
code that changes a graph step by step works on a copy of its masks.

Isomorphism classes are handled here too.  `min_label_perm` finds a
graph's canonical key and placement from its neighbour masks, and
generators of its automorphism group from the same search.
`grow_canonical` grows the classes one vertex at a time by McKay's
canonical augmentation: one attachment per orbit of the parent's group,
and each class kept once, from the parent its canonical deletion leaves.
It labels a candidate only when that test needs the label;
`canonical_forms` labels the rest for the callers that need canonical
forms, so each class is labeled once either way.
"""

from __future__ import annotations

from typing import Iterable

MAX_N = 16

# PAIR[i][j] is the one (min(i, j), max(i, j)) tuple for i != j < MAX_N, so
# every graph and coloring holds the same 120 edge objects, not private copies.
_UPPER = [[(i, j) if i < j else None for j in range(MAX_N)] for i in range(MAX_N)]
PAIR = tuple(
    tuple(_UPPER[i][j] if i < j else _UPPER[j][i] for j in range(MAX_N))
    for i in range(MAX_N)
)
del _UPPER


def pair(i: int, j: int) -> tuple[int, int]:
    """The edge {i, j} as the shared PAIR tuple, or a fresh sorted tuple
    when i, j is not a pair of distinct labels below MAX_N."""
    if i != j and 0 <= i < MAX_N and 0 <= j < MAX_N:
        return PAIR[i][j]
    return (i, j) if i < j else (j, i)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> list[int]:
    """Vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ZGraph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not 1 <= n <= MAX_N:
            raise ValueError("vertex count must be in 1..%d" % MAX_N)
        adj = [0] * n
        es = set()
        for i, j in edges:
            if i == j:
                raise ValueError("loop edge (%d,%d)" % (i, j))
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("edge endpoint out of range: (%d,%d)" % (i, j))
            es.add(PAIR[i][j])
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.n = n
        self.edges = frozenset(es)
        self.adj = tuple(adj)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def connected_in(self, mask: int) -> bool:
        """Is the subgraph induced on the (nonempty) mask connected?"""
        return reach(self.adj, mask & -mask, mask) == mask

    def __eq__(self, other):
        return (
            isinstance(other, ZGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "ZGraph(%d, %r)" % (self.n, self.sorted_edges())


def reach(adj, start: int, mask: int) -> int:
    """Vertices of mask joined to the start set by paths inside mask.

    adj[v] is the neighbour bitmask of v; start must lie inside mask.
    """
    seen = frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def _parts(adj, mask: int) -> list[int]:
    """Components of the subgraph induced on mask, ordered by least vertex."""
    out = []
    rest = mask
    while rest:
        comp = reach(adj, rest & -rest, mask)
        out.append(comp)
        rest ^= comp
    return out


def components(g: ZGraph) -> list[int]:
    """Connected components as bitmasks, ordered by least vertex."""
    return _parts(g.adj, g.full_mask)


def dimension(g: ZGraph) -> int:
    return g.n - len(components(g))


def min_label_perm(adj) -> tuple:
    """Lexicographically minimal relabeling of a graph, given by its
    neighbour masks (adj[v] the mask of v's neighbours).

    The key packs the cells (p0,p1), (p0,p2), (p1,p2), (p0,p3), ... one bit
    each, set for an edge, so placing one more vertex appends bits;
    branch-and-bound compares prefixes against the best key found so far.
    Each node holds its unplaced vertices v as sorted codes col << 4 | v,
    col being v's cells against the placed vertices, and placing a vertex
    appends one cell to every col.  Returns (key, placement, automorphisms)
    with placement[k] the original vertex in slot k.

    Each automorphism a (a[v] the image of v) keeps the edges: a[i] and a[j]
    are adjacent exactly when i and j are.  They are the ones the search
    meets: the swap of each vertex with its nearest earlier twin, and, for
    each leaf after the first with the best key, the map carrying the first
    such leaf's placement onto its own.  Together they generate the whole
    group.  A leaf with the best key is never cut, as its prefixes never
    exceed the best key's, so it is visited unless a twin skip drops its
    subtree; the subtree a skip drops is the twin swap of one the search
    tried, so each best-key leaf is a visited one moved by twin swaps.
    """
    n = len(adj)
    if n == 1:
        return 0, (0,), []
    total_bits = n * (n - 1) // 2
    # interchangeable vertices: identical neighbour masks away from each other
    twins = [0] * n
    for u in range(n):
        for w in range(u + 1, n):
            if not (adj[u] ^ adj[w]) & ~(1 << u | 1 << w):
                twins[u] |= 1 << w
                twins[w] |= 1 << u
    autos = []
    for v in range(1, n):
        u = (twins[v] & (1 << v) - 1).bit_length() - 1
        if u >= 0:
            swap = list(range(n))
            swap[u], swap[v] = v, u
            autos.append(swap)

    # cell[v][u]: u's cell against v, shifted above u's 4-bit label
    cell = [[(a >> u & 1) << 4 | u for u in range(n)] for a in adj]

    best_key = None
    best_perm = None
    placed = []

    def dfs(key: int, cands: list):
        # cands: col << 4 | v for each unplaced vertex v, sorted
        nonlocal best_key, best_perm
        k = len(placed)
        if not cands:
            if best_key is None or key < best_key:
                best_key = key
                best_perm = tuple(placed)
            elif key == best_key:
                a = [0] * n
                for u, v in zip(best_perm, placed):
                    a[u] = v
                autos.append(a)
            return
        tried = 0
        for e in cands:
            v = e & 15
            if tried & twins[v]:
                tried |= 1 << v
                continue
            tried |= 1 << v
            new_key = (key << k) | e >> 4
            if best_key is not None:
                shift = total_bits - (k + 1) * k // 2
                if new_key > (best_key >> shift):
                    break  # cands sorted: the rest are no better
            row = cell[v]
            placed.append(v)
            dfs(new_key, sorted([f >> 4 << 5 | row[f & 15] for f in cands if f != e]))
            placed.pop()

    dfs(0, list(range(n)))
    # dfs reaches itself through its closure: dropping it frees the search
    # state now rather than at a later cyclic garbage collection
    del dfs
    return best_key, best_perm, autos


def relabel(edges, perm) -> tuple[tuple[int, int], ...]:
    """Edges moved by a placement (perm[k] goes to slot k), sorted."""
    slot = {v: k for k, v in enumerate(perm)}
    return tuple(sorted(
        (slot[i], slot[j]) if slot[i] < slot[j] else (slot[j], slot[i])
        for i, j in edges
    ))


def _least_noncut(parent):
    """A test on masks: is a vertex joined to the mask a least non-cut vertex?

    parent holds the neighbour masks of a connected graph on k vertices.
    The returned test takes the mask of a new vertex k.  When no non-cut
    vertex of the grown graph has a smaller invariant (degree, then sorted
    neighbour degrees) than k, it returns the mask of the non-cut vertices
    whose invariant equals k's, k included; otherwise 0.  Vertex k is never
    a cut vertex, because the parent is connected.  An old vertex v is one
    unless the mask meets every component of the parent without v, so
    those components are found once per parent.
    """
    k = len(parent)
    full = (1 << k) - 1
    deg = [a.bit_count() for a in parent]
    nbrs = [bits(a) for a in parent]
    split = [_parts(parent, full ^ 1 << v) for v in range(k)]

    def passes(m: int) -> int:
        dk = m.bit_count()
        own = None
        least = 1 << k
        for v in range(k):
            dv = deg[v] + (m >> v & 1)
            if dv > dk:
                continue
            for c in split[v]:
                if not c & m:
                    break   # v is a cut vertex
            else:
                if dv < dk:
                    return 0
                if own is None:
                    own = sorted(deg[u] + 1 for u in bits(m))
                mine = [deg[u] + (m >> u & 1) for u in nbrs[v]]
                if m >> v & 1:
                    mine.append(dk)
                mine.sort()
                if mine < own:
                    return 0
                if mine == own:
                    least |= 1 << v
        return least

    return passes


def _orbit_reps(gens, masks):
    """The first mask of each orbit of the permutations gens on masks.

    Each generator g (g[v] the image of v) must map masks into masks.  It
    moves a mask by two table lookups, one for the vertices below k // 2
    and one for the rest.
    """
    if not gens:
        return masks
    k = len(gens[0])
    h = k // 2
    moves = []
    for g in gens:
        lo = [0]
        for v in range(h):
            lo += [x | 1 << g[v] for x in lo]
        hi = [0]
        for v in range(h, k):
            hi += [x | 1 << g[v] for x in hi]
        moves.append((lo, hi))
    below = (1 << h) - 1
    seen = set()
    reps = []
    for m in masks:
        if m in seen:
            continue
        reps.append(m)
        seen.add(m)
        orbit = [m]
        for x in orbit:
            for lo, hi in moves:
                y = lo[x & below] | hi[x >> h]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
    return reps


def grow_canonical(forms, k: int, masks):
    """One isomorph-free growth step: the classes on k + 1 vertices.

    forms holds (edges, generators) pairs: the canonical edges of a
    connected graph on k vertices, one per class, and generators of its
    automorphism group as `min_label_perm` returns them, in canonical
    labels.  Each form gains vertex k joined to one mask of each orbit of
    its group on masks (`_orbit_reps`).  A candidate is kept when vertex k
    passes `_least_noncut` and lies in the orbit of the canonical deletion
    vertex: the first vertex of the canonical placement among the least
    non-cut vertices.  When vertex k is the only least non-cut vertex, it
    is the canonical deletion vertex, and the candidate is kept without a
    label.  Yields (edges, label) once per class of grown graph, in no set
    order: edges in growth labels (the form's, then vertex k's), and the
    `min_label_perm` triple when the test needed it, else None; the test
    labels the parent's neighbour masks with vertex k's mask added.
    `canonical_forms` labels the rest, so a caller that needs canonical
    forms labels each class once.

    This is McKay's canonical augmentation.  It reaches every class when
    the forms hold every connected class on k vertices and the masks hold
    every neighbourhood a least non-cut vertex can have and are closed
    under the parents' automorphisms: deleting the canonical deletion
    vertex of a connected graph on k + 1 vertices leaves a connected
    parent isomorphic to one of the forms, and putting it back is a
    candidate, up to an automorphism of the parent that moves its mask
    to the orbit's first.  All nonempty masks serve connected graphs.
    Single bits serve trees, whose non-cut vertices are the leaves.

    It reaches each class once.  The orbit of the canonical deletion vertex
    is an isomorphism invariant, so two kept candidates of one class have
    isomorphic parents, hence the same form, and an isomorphism between
    them that fixes vertex k restricts to an automorphism of that form
    carrying one mask onto the other: both masks lie in one orbit, which
    gave one candidate.  And since "vertex k is a least non-cut vertex" is
    an isomorphism invariant too, `_least_noncut` only drops candidates the
    orbit test would drop after labeling.
    """
    attachments = {m: [(v, k) for v in bits(m)] for m in masks}
    for edges, gens in forms:
        base = list(edges)
        parent = ZGraph(k, base).adj
        passes = _least_noncut(parent)
        for m in _orbit_reps(gens, attachments):
            least = passes(m)
            if not least:
                continue
            new = base + attachments[m]
            if least == 1 << k:
                yield new, None
                continue
            label = min_label_perm([a | (m >> v & 1) << k for v, a in enumerate(parent)] + [m])
            _, perm, autos = label
            orbit = [next(v for v in perm if least >> v & 1)]
            for v in orbit:
                for a in autos:
                    if a[v] not in orbit:
                        orbit.append(a[v])
            if k in orbit:
                yield new, label


def canonical_forms(grown, n: int):
    """(key, canonical edges, generators) of each graph on n vertices that
    `grow_canonical` yields, labeling the neighbour masks of those it left
    unlabeled; the generators are in the canonical labels of the edges."""
    for edges, label in grown:
        key, perm, autos = label or min_label_perm(ZGraph(n, edges).adj)
        slot = [0] * n
        for s, v in enumerate(perm):
            slot[v] = s
        yield key, relabel(edges, perm), [[slot[a[v]] for v in perm] for a in autos]


def key_sorted(grown) -> list:
    """Grown forms, tuples led by their canonical keys, ordered by key.

    Canonical augmentation reaches each class once, so two equal keys mean
    it broke: that raises instead of being merged away.
    """
    level = sorted(grown, key=lambda form: form[0])
    for a, b in zip(level, level[1:]):
        if a[0] == b[0]:
            raise RuntimeError("growth reached the class of key %d twice" % a[0])
    return level
