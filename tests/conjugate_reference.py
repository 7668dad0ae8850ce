"""Labeled references for the conjugate-coloring enumeration.

The library grows free trees one leaf at a time and enumerates conjugate
colorings up to isomorphism; these enumerate every labeled tree (Pruefer
decoding) and every labeled conjugate coloring instead, so the tests can
check the isomorph-free paths against them.
"""

from itertools import product

from zonobelt.symmetric import ColoredZGraph, cross_completions
from zonobelt.zgraph import ZGraph, bits, canonical_label, relabel


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
        key, perm = canonical_label(k, (edges,))
        if key not in seen:
            seen[key] = relabel(edges, perm)
    return tuple(sorted(seen.values()))


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
