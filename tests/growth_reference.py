"""Reference isomorph-free growth: every candidate labeled, no filter.

The library's `zgraph.grow_canonical` labels a candidate only when its new
vertex is a non-cut vertex of least invariant.  This is the growth step
without that filter, so the tests can check that the filter drops no class
and changes no canonical form.
"""

from zonobelt.zgraph import bits, canonical_label, relabel


def grow_canonical(forms, k: int, masks) -> dict:
    """Canonical forms on k + 1 vertices: each form gains vertex k joined to
    each mask, every candidate is labeled, and the first form per key is kept."""
    attachments = [[(v, k) for v in bits(m)] for m in masks]
    grown = {}
    for edges in forms:
        base = list(edges)
        for attach in attachments:
            new = base + attach
            key, perm = canonical_label(k + 1, (new,))
            if key not in grown:
                grown[key] = relabel(new, perm)
    return grown


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
