"""Labeled simple graphs standing for zone-vector sets e_i - e_j.

A graph on n vertices (labels 0..n-1) encodes which vectors e_i - e_j are
present; a connected graph on n vertices encodes an (n-1)-dimensional
zonotope.  Vertex sets are int bitmasks throughout, so n <= 16 everywhere
(bitmasks would carry to 64, but nothing here needs more than 16).
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

    __slots__ = ("n", "edges", "adj", "_conn")

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
        self._conn: dict[int, bool] = {}

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def connected_in(self, mask: int) -> bool:
        """Is the subgraph induced on the (nonempty) mask connected?

        Memoized per graph: partition enumeration asks this for the same
        masks over and over.
        """
        hit = self._conn.get(mask)
        if hit is None:
            hit = self._conn[mask] = reach(self.adj, mask & -mask, mask) == mask
        return hit

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


def _compact(v: int, hi: int, lo: int) -> int:
    if v == hi:
        return lo
    return v - 1 if v > hi else v


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
    new = [_compact(v, hi, lo) for v in range(g.n)]
    edges = [(new[a], new[b]) for a, b in g.edges if new[a] != new[b]]
    return ZGraph(g.n - 1, edges), new


def delete_edge(g: ZGraph, i: int, j: int) -> ZGraph:
    e = (i, j) if i < j else (j, i)
    if e not in g.edges:
        raise ValueError("edge (%d,%d) not present" % (i, j))
    return ZGraph(g.n, g.edges - {e})


def min_label_perm(n: int, code) -> tuple[int, tuple[int, ...]]:
    """Lexicographically minimal relabeling of a symmetric code matrix.

    code[i][j] is a small int (0..3, 0 on the diagonal).  The key packs the
    cells (p0,p1), (p0,p2), (p1,p2), (p0,p3), ... two bits each, so placing
    one more vertex appends bits; branch-and-bound compares prefixes against
    the best key found so far.  Each node holds its unplaced vertices v as
    sorted codes col << 4 | v, col being v's cells against the placed
    vertices, and placing a vertex appends one cell to every col.  Returns
    (key, placement) with placement[k] the original vertex in slot k.
    """
    if n == 1:
        return 0, (0,)
    total_bits = n * (n - 1)
    # interchangeable vertices: identical code rows away from each other
    rows = [sum(c << 2 * x for x, c in enumerate(code[v])) for v in range(n)]
    twins = [0] * n
    for u in range(n):
        for w in range(u + 1, n):
            if not (rows[u] ^ rows[w]) & ~(3 << 2 * u | 3 << 2 * w):
                twins[u] |= 1 << w
                twins[w] |= 1 << u

    # cell[v][u]: u's cell against v, shifted above u's 4-bit label
    cell = [[c << 4 | u for u, c in enumerate(code[v])] for v in range(n)]

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
            return
        tried = 0
        for e in cands:
            v = e & 15
            if tried & twins[v]:
                tried |= 1 << v
                continue
            tried |= 1 << v
            new_key = (key << (2 * k)) | e >> 4
            if best_key is not None:
                shift = total_bits - (k + 1) * k
                if new_key > (best_key >> shift):
                    break  # cands sorted: the rest are no better
            row = cell[v]
            placed.append(v)
            dfs(new_key, sorted([f >> 4 << 6 | row[f & 15] for f in cands if f != e]))
            placed.pop()

    dfs(0, list(range(n)))
    return best_key, best_perm


def canonical_label(n: int, edge_classes) -> tuple[int, tuple[int, ...]]:
    """(key, placement) of a graph whose edges come in classes.

    Class i (an iterable of vertex pairs) gets code i + 1.  Every labeling
    in the package builds its code matrix here.
    """
    code = [[0] * n for _ in range(n)]
    for c, edges in enumerate(edge_classes, 1):
        for i, j in edges:
            code[i][j] = code[j][i] = c
    return min_label_perm(n, code)


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
    The returned test takes the mask of a new vertex k and says whether no
    non-cut vertex of the grown graph has a smaller invariant (degree, then
    sorted neighbour degrees); ties count as least.  Vertex k is never a cut
    vertex, because the parent is connected.  An old vertex v is one unless
    the mask meets every component of the parent without v, so those
    components are found once per parent.
    """
    k = len(parent)
    full = (1 << k) - 1
    deg = [a.bit_count() for a in parent]
    nbrs = [bits(a) for a in parent]
    split = [_parts(parent, full ^ 1 << v) for v in range(k)]

    def passes(m: int) -> bool:
        dk = m.bit_count()
        own = None
        for v in range(k):
            dv = deg[v] + (m >> v & 1)
            if dv > dk:
                continue
            for c in split[v]:
                if not c & m:
                    break   # v is a cut vertex
            else:
                if dv < dk:
                    return False
                if own is None:
                    own = sorted(deg[u] + 1 for u in bits(m))
                mine = [deg[u] + (m >> u & 1) for u in nbrs[v]]
                if m >> v & 1:
                    mine.append(dk)
                if sorted(mine) < own:
                    return False
        return True

    return passes


def _twins(parent) -> list[tuple[int, int]]:
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


def grow_canonical(forms, k: int, masks) -> dict:
    """One isomorph-free growth step: canonical forms on k + 1 vertices.

    Each form (the edges of a connected graph on k vertices) gains vertex k
    joined to the vertices of each mask in turn.  A mask that holds a
    vertex but not its nearest earlier twin (`_twins`) is skipped.  Any
    other candidate is labeled only when vertex k passes `_least_noncut`,
    and kept when its key is new.  Returns key -> canonical edge tuple.

    This is McKay's canonical augmentation with a cheap invariant standing
    in for the canonical deletion.  It reaches every class when the forms
    hold every connected class on k vertices and the masks hold every
    neighbourhood a least non-cut vertex can have: deleting such a vertex
    from a connected graph on k + 1 vertices leaves a connected parent
    isomorphic to one of the forms, and putting it back is a candidate that
    passes.  All nonempty masks serve connected graphs.  Single bits serve
    trees, whose non-cut vertices are the leaves.

    The twin rule loses nothing.  Swapping twins u < v is an automorphism of
    the parent; fixing vertex k, it carries the candidate of a mask m onto
    the candidate of the swapped mask, so both have the same key and, since
    "vertex k is a least non-cut vertex" is an isomorphism invariant, the
    same `_least_noncut` verdict.  A skipped mask holds some v without its
    twin u < v; swapping them lowers the sum of the mask's vertices, so
    repeated swaps end at a mask that is not skipped.  When the masks are
    closed under these swaps (all nonempty masks, or all single bits), that
    mask is among them.
    """
    attachments = [(m, [(v, k) for v in bits(m)]) for m in masks]
    grown = {}
    for edges in forms:
        base = list(edges)
        parent = [0] * k
        for i, j in base:
            parent[i] |= 1 << j
            parent[j] |= 1 << i
        passes = _least_noncut(parent)
        twins = _twins(parent)
        for m, attach in attachments:
            if any(m & v and not m & u for u, v in twins) or not passes(m):
                continue
            new = base + attach
            key, perm = canonical_label(k + 1, (new,))
            if key not in grown:
                grown[key] = relabel(new, perm)
    return grown
