"""Correctness referee, run after the timed region.

``check(workload, ops)`` returns ``(failed, problems)``: the operations
(in ``Op.units``) whose answer was wrong, failed, or disagreed with a
repeat of the same request, and one line per problem found.  Answers are
checked against the paper's stated values, against the library's
rank-based oracle, and against the benchmark's own enumeration.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import (
    EVEN_FAMILY,
    ODD_FAMILY,
    SWEEP_COUNTS,
    WITNESS_MAX_NODES,
    adjacency,
    connected,
)


class Verdict:
    """Problems found, keyed by the request they condemn."""

    def __init__(self):
        self.bad_keys: set = set()
        self.problems: list[str] = []

    def fail(self, key, why: str):
        self.bad_keys.add(key)
        self.problems.append("%r: %s" % (key, why))

    def tally(self, ops) -> tuple[int, list[str]]:
        failed = sum(op.units for op in ops if op.error or op.key in self.bad_keys)
        return failed, self.problems


def _check_repeats(ops, verdict: Verdict):
    """Errors fail their request; a request answered two ways fails too."""
    first = {}
    for op in ops:
        if op.error:
            verdict.fail(op.key, op.error)
        elif op.key not in first:
            first[op.key] = op.answer
        elif first[op.key] != op.answer:
            verdict.fail(op.key, "repeated request answered differently")
    return first


# ---------------------------------------------------------------------------


def check_sweep(workload, ops) -> tuple[int, list[str]]:
    verdict = Verdict()
    answers = _check_repeats(ops, verdict)
    for key, (rows, violations, _) in answers.items():
        by_d = {row[0]: row for row in rows}
        for d, expected in SWEEP_COUNTS.items():
            if d >= workload.max_n:
                continue
            if d not in by_d:
                verdict.fail(key, "no row for d=%d" % d)
                continue
            _, instances, belt, _, _ = by_d[d]
            if instances != expected:
                verdict.fail(key, "d=%d: %d instances, want %d" % (d, instances, expected))
            if belt != 2:
                verdict.fail(key, "d=%d: max belt diameter %d, want 2" % (d, belt))
        if violations:
            verdict.fail(key, "report lists %d violations, first %r"
                         % (len(violations), violations[0]))
    return verdict.tally(ops)


# ---------------------------------------------------------------------------


def facet_support(edges, facet) -> frozenset:
    """Edges inside one part of the facet: the zones the facet contains."""
    a, b = facet
    return frozenset(
        (i, j) for i, j in edges
        if ((1 << i) | (1 << j)) & ~a == 0 or ((1 << i) | (1 << j)) & ~b == 0
    )


def count_belts(n: int, edges) -> int:
    """Unordered 3-partitions into connected parts, by brute force."""
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    count = 0
    # p is the part holding vertex 0, q the one holding the least vertex
    # outside p; q runs over the subsets of the rest that contain it
    for p in range(1, full, 2):
        rest = full ^ p
        if not connected(adj, p):
            continue
        low = rest & -rest
        free = rest ^ low
        sub = free
        while True:
            q = sub | low
            if q != rest and connected(adj, q) and connected(adj, rest ^ q):
                count += 1
            if not sub:
                break
            sub = (sub - 1) & free
    return count


def _unordered(facet):
    return facet if facet[0] & 1 else (facet[1], facet[0])


def check_query_mix(workload, ops, lib) -> tuple[int, list[str]]:
    verdict = Verdict()
    answers = _check_repeats(ops, verdict)
    diameters = defaultdict(set)   # graph index -> belt diameters answered
    for (kind, gi, _), ans in answers.items():
        if kind == "belt_diameter":
            diameters[gi].add(ans)
        elif kind == "check_diameter_bound":
            diameters[gi].add(ans["belt_diameter"])
    belt_counts = {}
    for key, ans in answers.items():
        kind, gi, arg = key
        n, edges = workload.graphs[gi]
        d = n - 1
        if len(diameters[gi]) > 1:
            verdict.fail(key, "belt diameters disagree: %s" % sorted(diameters[gi]))
        if kind in ("belt_diameter", "check_diameter_bound"):
            belt = ans if kind == "belt_diameter" else ans["belt_diameter"]
            if not 0 <= belt <= min(d - 1, 3):
                verdict.fail(key, "belt diameter %d outside 0..min(d-1, 3)" % belt)
        if kind == "check_diameter_bound":
            if ans["dual_diameter"] > ans["belt_diameter"] + 1 or not ans["bound_holds"]:
                verdict.fail(key, "dual %d > belt %d + 1" % (ans["dual_diameter"], ans["belt_diameter"]))
        elif kind == "enumerate_codim2":
            total, bad, _ = ans
            if bad:
                verdict.fail(key, "%d belts break the size/direction rule" % bad)
            if gi not in belt_counts:
                belt_counts[gi] = count_belts(n, edges)
            if total != belt_counts[gi]:
                verdict.fail(key, "%d belts, brute force finds %d" % (total, belt_counts[gi]))
        elif kind == "belt_distance":
            for problem in _distance_problems(lib, n, edges, arg, ans, diameters[gi]):
                verdict.fail(key, problem)
    return verdict.tally(ops)


def _distance_problems(lib, n, edges, facets, ans, diameters):
    dist, path = ans
    src, dst = (_unordered(f) for f in facets)
    if len(path) != dist + 1:
        yield "path has %d facets for distance %d" % (len(path), dist)
        return
    if path[0] != src or path[-1] != dst:
        yield "path runs %r..%r, asked %r..%r" % (path[0], path[-1], src, dst)
    if (dist == 0) != (src == dst):
        yield "distance %d between %r and %r" % (dist, src, dst)
    if dist > min(n - 2, 3):
        yield "distance %d exceeds min(d - 1, 3)" % dist
    if diameters and dist > min(diameters):
        yield "distance %d exceeds belt diameter %d" % (dist, min(diameters))
    adj = adjacency(n, edges)
    g = lib.zgraph.ZGraph(n, edges)
    for f in path:
        if not (connected(adj, f[0]) and connected(adj, f[1])) or f[0] | f[1] != (1 << n) - 1:
            yield "path step %r is not a facet" % (f,)
            return
    for f1, f2 in zip(path, path[1:]):
        if not lib.oracle.oracle_same_belt(g, facet_support(edges, f1), facet_support(edges, f2)):
            yield "oracle: %r and %r share no belt" % (f1, f2)


# ---------------------------------------------------------------------------


def check_search(workload, ops, lib) -> tuple[int, list[str]]:
    verdict = Verdict()
    answers = _check_repeats(ops, verdict)
    families = {("odd", n): d for n, d in ODD_FAMILY.items()}
    families.update({("even", n): d for n, d in EVEN_FAMILY.items()})
    for key, ans in answers.items():
        kind = key[0]
        if kind == "extremal":
            d = key[1]
            status, distance, _, witness = ans
            want = "found" if d == 7 else "none"
            if status != want:
                verdict.fail(key, "status %s, want %s" % (status, want))
            elif want == "found":
                for problem in _leaf_free_problems(lib, witness, d):
                    verdict.fail(key, problem)
                if distance != 3:
                    verdict.fail(key, "witness at distance %r, want 3" % distance)
        elif kind == "family":
            coloring, dist = ans
            want = families.get(key[1:])
            for problem in _leaf_free_problems(lib, coloring, want):
                verdict.fail(key, problem)
            if dist != 3:
                verdict.fail(key, "distance %d, want 3" % dist)
        elif kind == "d8":
            for problem in _d8_problems(lib, ans, workload.max_nodes):
                verdict.fail(key, problem)
        elif kind == "d8-witness":
            if ans[0] != "found":
                verdict.fail(key, "no witness within %d nodes" % WITNESS_MAX_NODES)
            for problem in _d8_problems(lib, ans, WITNESS_MAX_NODES):
                verdict.fail(key, problem)
    return verdict.tally(ops)


def _leaf_free_problems(lib, coloring, d):
    """A conjugate coloring on d + 1 vertices without a common leaf?"""
    n, red, blue = coloring
    if d is None or n != d + 1:
        yield "witness on %d vertices, want dimension %r" % (n, d)
    sym = lib.symmetric
    cg = sym.ColoredZGraph(lib.zgraph.ZGraph(n, red + blue), red, blue)
    ok, reasons = sym.check_conjugate(cg)
    if not ok:
        yield "witness not conjugate: %s" % "; ".join(reasons)
    elif sym.find_common_leaf(cg) is not None:
        yield "witness has a common leaf"


def _d8_problems(lib, ans, max_nodes):
    status, distance, nodes, witness = ans
    if status not in ("found", "inconclusive"):
        yield "status %s" % status
    if nodes > max_nodes + 1:
        yield "%d nodes over the cap %d" % (nodes, max_nodes)
    if status != "found":
        return
    n, edges, f1, f2 = witness
    g = lib.zgraph.ZGraph(n, edges)
    try:
        lib.faces.validate_partition(g, f1)
        lib.faces.validate_partition(g, f2)
    except ValueError as exc:
        yield "witness partition invalid: %s" % exc
        return
    if not lib.sweep.oracle_agrees(g):
        yield "oracle disagrees on the witness graph"
    answer = lib.venkov.belt_distance(g, f1, f2)
    if answer[0] != 3:
        yield "witness partitions not at belt distance 3"
    yield from _distance_problems(lib, n, edges, (f1, f2), answer, ())


def check(workload, ops, lib) -> tuple[int, list[str]]:
    if workload.name == "sweep-n7":
        return check_sweep(workload, ops)
    if workload.name == "query-mix":
        return check_query_mix(workload, ops, lib)
    return check_search(workload, ops, lib)
