"""Seeded inputs and the three benchmark workloads.

Every input is derived from the benchmark seed; the library only ever sees
the generated graphs, facet pairs and restart seeds.  A workload is run in
rounds: ``round(r)`` builds one fixed batch of requests and returns a
``Request`` per request.  The runner serves them one at a time, repeats
rounds until its time is up, and hands the ``Op`` records to the referee.
``check_requests()`` lists requests served once after the timed region,
for answers the referee must see but a timed round never produces.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

# Connected graphs up to isomorphism on 4..7 vertices: one sweep checks 992.
SWEEP_COUNTS = {3: 6, 4: 21, 5: 112, 6: 853}


@dataclass
class Op:
    """One request: what was asked, how long it took, what came back."""

    kind: str
    key: tuple          # equal keys must receive equal answers
    seconds: float
    units: int          # operations this request stands for
    answer: object = None
    error: str | None = None


class Request(NamedTuple):
    kind: str
    key: tuple
    call: Callable[[], object]
    digest: Callable[[object], object] | None = None
    units: int = 1


def serve(req: Request, clock=time.perf_counter) -> Op:
    """Time one request; a raised exception is recorded as a failed answer.

    The digest shrinks the answer after the clock stops, so stored answers
    neither count as service time nor inflate peak memory.
    """
    start = clock()
    try:
        answer = req.call()
    except Exception as exc:  # counted by the referee, never fatal to the run
        return Op(req.kind, req.key, clock() - start, req.units,
                  error="%s: %s" % (type(exc).__name__, exc))
    seconds = clock() - start
    return Op(req.kind, req.key, seconds, req.units,
              req.digest(answer) if req.digest else answer)


# ---------------------------------------------------------------------------
# graph helpers of the benchmark's own, independent of the library


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def connected(adj: list[int], mask: int) -> bool:
    """Does the vertex bitmask induce a connected subgraph?"""
    seen = mask & -mask
    frontier = seen
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def random_connected_graph(rng: random.Random, n: int, m: int) -> tuple:
    """A connected graph on n vertices with exactly m >= n - 1 edges, sorted.

    A random spanning tree plus random extra edges: a fixed amount of work
    per graph, where rejecting disconnected samples would make set-up time
    depend on the seed.
    """
    order = list(range(n))
    rng.shuffle(order)
    tree = {tuple(sorted((v, order[rng.randrange(k)]))) for k, v in enumerate(order) if k}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    return tuple(sorted(tree.union(rng.sample(rest, m - len(tree)))))


def random_facet(rng: random.Random, n: int, adj: list[int]) -> tuple[int, int]:
    """A random facet: an ordered 2-partition with both parts connected."""
    full = (1 << n) - 1
    while True:
        a = rng.randrange(1, full)
        b = full ^ a
        if connected(adj, a) and connected(adj, b):
            return (a, b)


# ---------------------------------------------------------------------------
# sweep-n7


class SweepN7:
    """One exhaustive ``run_sweep(7)`` per round, all checks on.

    Each connected graph checked counts as one operation.  The oracle's
    random samples at n = 7 are seeded from the benchmark seed.
    """

    name = "sweep-n7"

    def __init__(self, lib, seed: int, max_n: int = 7):
        self.lib = lib
        self.max_n = max_n
        self.oracle_seed = random.Random("sweep-n7:%d" % seed).randrange(2**31)
        self.graphs = sum(c for d, c in SWEEP_COUNTS.items() if d < max_n)

    def round(self, index: int) -> list[Request]:
        return [Request(
            "run_sweep", ("run_sweep", self.max_n, self.oracle_seed),
            partial(self.lib.sweep.run_sweep, self.max_n, seed=self.oracle_seed),
            _sweep_digest, self.graphs,
        )]

    def check_requests(self) -> list[Request]:
        return []


def _sweep_digest(report) -> tuple:
    """Everything a sweep reports except its run times."""
    rows = tuple(
        (r.d, r.instances, r.max_belt_diameter, r.max_dual_diameter, tuple(r.witness))
        for r in report.rows
    )
    return (rows, tuple(report.violations), report.oracle_samples)


# ---------------------------------------------------------------------------
# query-mix


def _codim2_digest(belts) -> tuple:
    """(belt count, belts breaking the size/direction rule, content hash)."""
    bad = 0
    for b in belts:
        size = len(b.members)
        if size not in (4, 6) or b.directions not in (2, 3) or (size == 6) != (b.directions == 3):
            bad += 1
    return (len(belts), bad, hash(tuple((b.core, b.members, b.directions) for b in belts)))


def _distance_digest(answer) -> tuple:
    dist, path = answer
    return (dist, tuple(path))


def _on_graph(fn, zgraph, n, edges, args):
    return fn(zgraph(n, edges), *args)


DENSITIES = (0.3, 0.5, 0.7)


class QueryMix:
    """A closed loop with one client over seeded pools of larger graphs.

    Each pool spreads its graphs evenly over vertex counts and edge
    densities, with exact edge counts.  Every graph gets ``pairs``
    belt-distance requests between seeded facets, the last repeating the
    first, and one heavier request.  The heavy kind is codimension-2
    enumeration, belt diameter or the dual-diameter bound, rotating over
    the graphs of a cell, so every pool asks the same mix.  A round serves
    one pool's shuffled requests; pools are used in turn and reused after
    the last.  Every request carries an edge list and builds its own graph.

    Pools are many on purpose: the cost of a heavy request depends on the
    graph's facet count, so a run needs a couple of hundred graphs for the
    90th percentile and the throughput to repeat from one seed to the next.
    """

    name = "query-mix"
    HEAVY = ("enumerate_codim2", "belt_diameter", "check_diameter_bound")

    def __init__(self, lib, seed: int, pools: int = 8, graphs: int = 54, sizes=(8, 9, 10),
                 pairs: int = 8):
        self.lib = lib
        rng = random.Random("query-mix:%d" % seed)
        cells = [(n, p) for n in sizes for p in DENSITIES]
        self.graphs = []
        self.pools = []
        for _ in range(pools):
            requests = []
            for k in range(graphs):
                n, density = cells[k % len(cells)]
                m = max(n - 1, round(density * n * (n - 1) / 2))
                edges = random_connected_graph(rng, n, m)
                gi = len(self.graphs)
                self.graphs.append((n, edges))
                adj = adjacency(n, edges)
                facets = [(random_facet(rng, n, adj), random_facet(rng, n, adj))
                          for _ in range(pairs - 1)]
                for pair in facets + facets[:1]:
                    requests.append(("belt_distance", gi, pair))
                heavy = self.HEAVY[(k // len(cells)) % len(self.HEAVY)]
                requests.append((heavy, gi, None))
            rng.shuffle(requests)
            self.pools.append(requests)

    def round(self, index: int) -> list[Request]:
        return [self.request(*req) for req in self.pools[index % len(self.pools)]]

    def check_requests(self) -> list[Request]:
        return []

    def request(self, kind: str, gi: int, arg) -> Request:
        n, edges = self.graphs[gi]
        lib = self.lib
        fn, digest = {
            "belt_distance": (lib.venkov.belt_distance, _distance_digest),
            "enumerate_codim2": (lib.faces.enumerate_codim2, _codim2_digest),
            "belt_diameter": (lib.venkov.belt_diameter, None),
            "check_diameter_bound": (lib.dual.check_diameter_bound, None),
        }[kind]
        return Request(kind, (kind, gi, arg),
                       partial(_on_graph, fn, lib.zgraph.ZGraph, n, edges, arg or ()), digest)


# ---------------------------------------------------------------------------
# search


def _coloring_digest(cg) -> tuple:
    return (cg.base.n, tuple(sorted(cg.red)), tuple(sorted(cg.blue)))


def _search_digest(res) -> tuple:
    """(status, distance, nodes, witness) without the elapsed time."""
    w = res.witness
    if w is None:
        witness = None
    elif isinstance(w, tuple):   # d8: (graph, facet, facet)
        witness = (w[0].n, tuple(w[0].sorted_edges()), w[1], w[2])
    else:
        witness = _coloring_digest(w)
    return (res.status, res.distance, res.nodes, witness)


ODD_FAMILY = {2: 7, 3: 9, 4: 11}     # gen_odd_extremal(n) -> dimension
EVEN_FAMILY = {3: 10, 4: 12, 5: 14}  # gen_even_extremal(n) -> dimension
EXTREMAL_DIMS = range(3, 9)
# A d8 climb from this restart seed finds its witness at node 97, a few
# seconds in.  The capped climbs of a round never get that far.
WITNESS_SEED = 12
WITNESS_MAX_NODES = 400


def restart_seeds(seed: int, index: int, count: int) -> list[int]:
    """The d8 restart seeds of round ``index``: fresh ones every round."""
    rng = random.Random("search:%d:%d" % (seed, index))
    return [rng.randrange(2**31) for _ in range(count)]


class Search:
    """The seeded searches and the generator families.

    A round runs the extremal table ``search_extremal(d)`` for d = 3..8,
    the odd and even distance-3 families with ``red_blue_distance``, and
    ``restarts`` capped d8 hill climbs, each from its own seed.  After the
    timed region one climb from ``WITNESS_SEED`` runs until it finds a
    witness, so the referee has one to check.
    """

    name = "search"

    def __init__(self, lib, seed: int, restarts: int = 1, max_nodes: int = 10,
                 extremal_dims=EXTREMAL_DIMS, odd=ODD_FAMILY, even=EVEN_FAMILY):
        self.lib = lib
        self.seed = seed
        self.restarts = restarts
        self.max_nodes = max_nodes
        self.extremal_dims = tuple(extremal_dims)
        self.odd = dict(odd)
        self.even = dict(even)

    def round(self, index: int) -> list[Request]:
        sym = self.lib.symmetric
        reqs = [Request("extremal", ("extremal", d), partial(sym.search_extremal, d), _search_digest)
                for d in self.extremal_dims]
        for family, gen, sizes in (("odd", sym.gen_odd_extremal, self.odd),
                                   ("even", sym.gen_even_extremal, self.even)):
            reqs += [Request("family", ("family", family, n),
                             partial(_family_witness, sym, gen, n), _family_digest)
                     for n in sizes]
        reqs += [self.climb("d8", s, self.max_nodes)
                 for s in restart_seeds(self.seed, index, self.restarts)]
        return reqs

    def check_requests(self) -> list[Request]:
        return [self.climb("d8-witness", WITNESS_SEED, WITNESS_MAX_NODES)]

    def climb(self, kind: str, seed: int, max_nodes: int) -> Request:
        return Request(kind, (kind, seed),
                       partial(self.lib.symmetric.search_d8_nonsymmetric, budget_seconds=None,
                               max_nodes=max_nodes, seed=seed),
                       _search_digest)


def _family_witness(sym, gen, n):
    cg = gen(n)
    return cg, sym.red_blue_distance(cg)


def _family_digest(answer) -> tuple:
    return (_coloring_digest(answer[0]), answer[1])


WORKLOADS = {w.name: w for w in (SweepN7, QueryMix, Search)}
