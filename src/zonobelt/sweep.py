"""Exhaustive small-instance campaigns over connected graphs.

Enumerates connected graphs up to isomorphism (canonical form = minimal
adjacency bitstring over relabelings), runs every invariant check on each,
and tabulates per-dimension results.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import faces, oracle, symmetric, venkov
from .zgraph import (ZGraph, bits, canonical_forms, grow_canonical, key_sorted, min_label_perm,
                     relabel)

EXHAUSTIVE_MAX_N = 8
# connected graphs up to isomorphism on 1..8 vertices: every grown level
# must have exactly this many
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]

ALL_CHECKS = ("belt_bound", "dual_bound", "oracle_equiv", "leaves_iff", "belt_size")
# the oracle checks a seeded sample of this many graphs of a larger level
ORACLE_SAMPLES = 200


def connected_levels(lo: int, hi: int):
    """Yield the connected graphs on n vertices for n = lo..hi, in turn,
    each level an iterator of ZGraphs.

    Each level is grown once, by one `grow_canonical` step from the level
    below: every connected graph on n vertices arises from one on n - 1 by
    attaching a vertex to a nonempty vertex set, because every connected
    graph has a non-cut vertex.  The step attaches one set per orbit of
    each parent's automorphism group and keeps each class once, by its
    canonical deletion.  A level below hi is built from its canonical
    forms in key order; their edge tuples and automorphism generators are
    kept only while a higher level still needs them.  Level hi comes in
    growth labels, never sorted or held, and labeled only where the growth
    step needed a label.  A level whose size differs from
    `CONNECTED_COUNTS` raises RuntimeError: level hi once its iterator is
    used up, or once the caller asks for the next level, which grows
    whatever the caller left unread.
    """
    if lo < 1:
        raise ValueError("need n >= 1")
    if hi > EXHAUSTIVE_MAX_N:
        raise ValueError("exhaustive sweep needs n <= %d, got %d" % (EXHAUSTIVE_MAX_N, hi))
    level = [(0, (), [])]   # (canonical key, canonical edges, generators)
    grown = [((), None)]
    for n in range(1, hi):
        if n >= lo:
            yield (ZGraph(n, form[1]) for form in level)
        grown = grow_canonical([form[1:] for form in level], n, range(1, 1 << n))
        if n + 1 < hi:
            level = key_sorted(canonical_forms(grown, n + 1))
            _check_count(len(level), n + 1)
    stream = _stream(grown, hi)
    yield stream
    for _ in stream:
        pass


def _check_count(count: int, n: int):
    if count != CONNECTED_COUNTS[n - 1]:
        raise RuntimeError("growth made %d connected graphs on %d vertices, not %d"
                           % (count, n, CONNECTED_COUNTS[n - 1]))


def _stream(grown, n: int):
    """The grown graphs on n vertices one at a time, counted at the end."""
    count = 0
    for edges, _ in grown:
        count += 1
        yield ZGraph(n, edges)
    _check_count(count, n)


def _inner_edges(g: ZGraph) -> list[int]:
    """inner[m]: the edges inside the vertex set m, as an edge-index bitmask
    (bit k for the k-th sorted edge), for every m."""
    star = [0] * g.n   # the edges at each vertex
    for k, (i, j) in enumerate(g.sorted_edges()):
        star[i] |= 1 << k
        star[j] |= 1 << k
    inner = [0] * (1 << g.n)
    touch = [0] * (1 << g.n)   # the edges with an end in m
    for m in range(1, 1 << g.n):
        low = m & -m
        at = star[low.bit_length() - 1]
        inner[m] = inner[m ^ low] | at & touch[m ^ low]
        touch[m] = touch[m ^ low] | at
    return inner


def oracle_agrees(g: ZGraph, facets=None, cores=None) -> bool:
    """Facets, codimension-2 faces and belts: partition calculus vs oracle.

    Each side gives its supports as edge-index bitmasks.  The calculus
    takes the edges inside the parts of each facet pair and of each core,
    with the facets and one list of the cores read off one connectivity
    table behind the one guard of every belt query (`faces._belt_faces`),
    which refuses a graph on fewer than 3 vertices; the oracle takes its
    closed corank-1 row sets and the closed rank-(d-2) flats its facet walk
    passes through.  Two facet hyperplanes meet in a flat, and share a belt iff
    that flat has rank d - 2, so the oracle's same-belt relation is
    membership of the supports' intersection in its flats; it must equal
    the Venkov adjacency `faces.belt_adjacency` reads, as the quotient of
    the dual graph by x → −x, off the half dual-neighbour table that
    `faces.dual_neighbours` writes from the same core list.
    A caller that has already run the face pass on a graph on at least 3
    vertices passes its facets and its cores, as a list, and the pass is
    not run again.
    Raises oracle.OracleBudgetError before any oracle work when the
    same-belt checks, one per two facet pairs, would exceed
    oracle.SAME_BELT_PAIR_CAP.
    """
    if facets is None:
        facets, cores = faces._belt_faces(g)
    pairs = [f for f in facets if f[0] & 1]
    checks = len(pairs) * (len(pairs) - 1) // 2
    if checks > oracle.SAME_BELT_PAIR_CAP:
        raise oracle.OracleBudgetError(
            "%d same-belt checks for %d facet pairs exceed cap %d"
            % (checks, len(pairs), oracle.SAME_BELT_PAIR_CAP)
        )
    inner = _inner_edges(g)
    supports = [inner[a] | inner[b] for a, b in pairs]
    flats: set[int] = set()
    if oracle.oracle_facets(g, flats) != sorted(supports):
        return False
    cores = list(cores)
    core_flats = [inner[p] | inner[q] | inner[r] for p, q, r, *_ in cores]
    if len(core_flats) != len(flats) or set(core_flats) != flats:
        return False
    adj = [0] * len(supports)
    for i, s in enumerate(supports):
        for j in range(i + 1, len(supports)):
            if (s & supports[j]) in flats:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj == faces.belt_adjacency(facets, faces.dual_neighbours(facets, cores))


@dataclass
class SweepRow:
    d: int
    instances: int = 0
    max_belt_diameter: int = 0
    max_dual_diameter: int = 0
    violations: int = 0
    witness: list = field(default_factory=list)  # edges of a belt-extremal graph
    runtime: float = 0.0


@dataclass
class SweepReport:
    max_n: int
    rows: list
    violations: list
    oracle_samples: int = 0   # graphs the oracle checked per sampled level, 0 if none was

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_graph(g: ZGraph, with_oracle: bool):
    """Run the per-graph checks on g, and `oracle_agrees` from the same face
    pass when with_oracle; returns its facets, its list of cores, its belt and
    dual diameters and the violation lines, which name g's edges."""
    # one core list feeds the diameters and the belt_size check; the pass
    # raises on a disconnected graph, so the dimension is n - 1
    facets, cores = faces.facets_and_cores(g)
    d = g.n - 1
    cores = list(cores)
    belt, dd = venkov.diameters(facets, cores)
    found = []
    if belt > d - 1:
        found.append("belt diameter %d > d-1" % belt)
    if 3 <= d <= 6 and belt > 2:
        found.append("belt diameter %d > 2" % belt)
    if d >= 7 and belt > 3:
        found.append("belt diameter %d > 3" % belt)
    if dd > belt + 1:
        found.append("dual %d > belt %d + 1" % (dd, belt))
    if d <= 6 and dd > 3:
        found.append("dual diameter %d > 3" % dd)
    if d >= 7 and dd > 4:
        found.append("dual diameter %d > 4" % dd)
    # belt_size: the merge bits must name the crossing directions, read off
    # the edges, and at least two of them: near[m] is the neighbourhood of
    # the vertex set m
    near = [0]
    for v in range(g.n):
        near += [x | g.adj[v] for x in near]
    off = [(p, q, r, pq, pr, qr) for p, q, r, pq, pr, qr in cores
           if pq != (near[p] & q > 0) or pr != (near[p] & r > 0)
           or qr != (near[q] & r > 0) or pq + pr + qr < 2]
    for p, q, r, pq, pr, qr in off:
        found.append("merges %d%d%d with crossings %d%d%d"
                     % (pq, pr, qr, near[p] & q > 0, near[p] & r > 0, near[q] & r > 0))
    if with_oracle and not oracle_agrees(g, facets, cores):
        found.append("oracle mismatch")
    label = "n=%d %r: " % (g.n, g.sorted_edges()) if found else ""
    return facets, cores, belt, dd, [label + v for v in found]


def _canonical(adj) -> tuple:
    """(canonical key, canonical edges) of the graph whose neighbour masks are adj."""
    key, perm, _ = min_label_perm(adj)
    edges = [(i, j) for i, a in enumerate(adj) for j in bits(a >> i + 1 << i + 1)]
    return key, list(relabel(edges, perm))


def _independence(adj, m: int) -> int:
    """The size of a largest independent set inside the vertex set m."""
    if not m:
        return 0
    low = m & -m
    rest = m ^ low
    near = adj[low.bit_length() - 1]
    taken = 1 + _independence(adj, rest & ~near)
    return max(taken, _independence(adj, rest)) if near & rest else taken


def _degree_profile(adj) -> tuple:
    """Each vertex's sorted neighbour degrees, sorted: an isomorphism invariant."""
    deg = [a.bit_count() for a in adj]
    return tuple(sorted(tuple(sorted(deg[u] for u in bits(a))) for a in adj))


def run_sweep(max_n: int, seed: int = 20260815) -> SweepReport:
    """Every check in ALL_CHECKS on every connected graph on 4..max_n vertices.

    The oracle checks every graph of a level of at most ORACLE_SAMPLES
    graphs, and otherwise ORACLE_SAMPLES of them, picked by their place in
    the level with random.Random(seed + n): in growth order at the top level
    and key order below it, so `run_sweep(7)` and `run_sweep(8)` check
    different graphs at n = 7.  The leaf criterion runs on every coloring
    `symmetric.conjugate_colorings` lists at each level, from one conjugacy
    pass per coloring, so a failing class gets one line per coloring of it,
    in the order listed.

    Every level is read alike, whatever its labels and order (the top
    level of `connected_levels` comes in growth labels), and a graph is
    labeled only when one of three things needs its key:
    - the witness, the least key of largest belt diameter.  A least key
      opens with a largest independent set, so only the graphs that also
      have the largest independence number are labeled;
    - a violation, whose lines name canonical edges in key order, from a
      check in canonical labels, or growth labels if that check is clean;
    - the duplicate-class check.  Graphs with equal facet and core counts,
      diameters and degree profiles are labeled, and equal keys raise
      RuntimeError.
    A level lists its violating graphs by key, each graph's lines together,
    an oracle mismatch last.
    """
    if max_n < 4:
        raise ValueError("need max_n >= 4 (dimension at least 3)")
    rows = []
    violations: list[str] = []
    levels = connected_levels(4, max_n)
    for n in range(4, max_n + 1):
        start = time.monotonic()
        before = len(violations)
        row = SweepRow(d=n - 1)
        best, tied = (0, 0), []   # largest (belt diameter, independence number)
        buckets = {}   # graphs by a hash of their invariants
        flagged = []
        count = CONNECTED_COUNTS[n - 1]
        sampled = set(random.Random(seed + n).sample(range(count), min(count, ORACLE_SAMPLES)))
        for i, g in enumerate(next(levels)):
            row.instances += 1
            facets, cores, belt, dual, found = _check_graph(g, i in sampled)
            row.max_belt_diameter = max(row.max_belt_diameter, belt)
            row.max_dual_diameter = max(row.max_dual_diameter, dual)
            if found:
                key, edges = _canonical(g.adj)
                if edges != g.sorted_edges():
                    found = _check_graph(ZGraph(n, edges), i in sampled)[4] or found
                flagged.append((key, found))
            if belt >= best[0]:
                rank = (belt, _independence(g.adj, g.full_mask))
                if rank > best:
                    best, tied = rank, []
                if rank == best:
                    tied.append(g.adj)
            bucket = buckets.setdefault(
                hash((len(facets), len(cores), belt, dual, _degree_profile(g.adj))), [])
            bucket.append(g.adj)
            if len(bucket) > 1:
                keys = [_canonical(adj)[0] for adj in bucket]
                if keys[-1] in keys[:-1]:
                    raise RuntimeError("growth reached the class of key %d twice" % keys[-1])
        del buckets   # before the leaves pass and the next level's growth
        row.witness = min(map(_canonical, tied), default=(0, []))[1]
        for _, found in sorted(flagged):
            violations += found
        for cg in symmetric.conjugate_colorings(n):
            fr, fb = symmetric._conjugate_facets(cg)
            has_leaf = symmetric._common_leaf(cg) is not None
            dist = venkov.belt_distance(cg.base, fr, fb)[0]
            if (dist == 2) != has_leaf:
                violations.append(
                    "n=%d conjugate %r/%r: distance %d, common leaf %s"
                    % (n, sorted(cg.red), sorted(cg.blue), dist, has_leaf)
                )
        row.violations = len(violations) - before
        row.runtime = time.monotonic() - start
        rows.append(row)
    return SweepReport(max_n=max_n, rows=rows, violations=violations,
                       oracle_samples=ORACLE_SAMPLES
                       if CONNECTED_COUNTS[max_n - 1] > ORACLE_SAMPLES else 0)


CSV_HEADER = "d,instances,max_belt_diameter,max_dual_diameter,violations"


def report_csv(report: SweepReport) -> str:
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(
            "%d,%d,%d,%d,%d"
            % (row.d, row.instances, row.max_belt_diameter, row.max_dual_diameter, row.violations)
        )
    return "\n".join(lines) + "\n"


def report_json(report: SweepReport) -> dict:
    return {
        "max_n": report.max_n,
        "checks": list(ALL_CHECKS),
        "rows": [
            {
                "d": r.d,
                "instances": r.instances,
                "max_belt_diameter": r.max_belt_diameter,
                "max_dual_diameter": r.max_dual_diameter,
                "witness_edges": [list(e) for e in r.witness],
                "runtime_sec": round(r.runtime, 3),
            }
            for r in report.rows
        ],
        "violations": report.violations,
    }
