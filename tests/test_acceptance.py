"""Acceptance gate: one test per headline claim, at stated scale.

Criteria 6, 7, 8, 9, 10 share one full sweep over all connected graphs on
up to 8 vertices (all checks, 200 oracle samples at n = 7, 8).  Each test
prints a single PASS line on success; pytest -v adds the per-test verdict.
"""

import random

import pytest

from conjugate_reference import enumerate_conjugate_classes
from oracle_reference import pack, zone_matrix
from zonobelt import faces, oracle, sweep, symmetric, venkov
from zonobelt.zgraph import ZGraph, dimension


@pytest.fixture(scope="module")
def full_sweep():
    return sweep.run_sweep(8)


def row(report, d):
    return next(r for r in report.rows if r.d == d)


def test_criterion_01_extremal_table():
    # no leaf-free conjugate pair for d = 3,4,5,6,8; one at distance 3 for d = 7
    for d in (3, 4, 5, 6, 8):
        res = symmetric.search_extremal(d, budget_seconds=1800)
        assert res.status == "none", (d, res.status)
    res = symmetric.search_extremal(7, budget_seconds=1800)
    assert res.status == "found"
    assert res.distance == 3
    print("ACCEPTANCE 1: PASS - extremal search: none for d=3,4,5,6,8; distance-3 witness for d=7")


def test_criterion_02_leaves_iff():
    # every completion of every red forest of free trees: each conjugate
    # class on 4..10 vertices at least once, 14,968 colorings in all
    checked = 0
    for n in range(4, 11):
        for cg in symmetric.conjugate_colorings(n):
            has_leaf = symmetric.find_common_leaf(cg) is not None
            dist = symmetric.red_blue_distance(cg)
            assert (dist == 2) == has_leaf, (n, sorted(cg.red), sorted(cg.blue))
            checked += 1
    assert checked == 14968
    print("ACCEPTANCE 2: PASS - distance 2 iff common leaf on all %d conjugate completions, n <= 10"
          % checked)


def test_criterion_03_k2dm1_distance_two():
    for d in range(3, 11):
        cg = symmetric.gen_k2dm1(d)
        assert symmetric.red_blue_distance(cg) == 2, d
    print("ACCEPTANCE 3: PASS - gen_k2dm1(d) at distance exactly 2 for d = 3..10")


def test_criterion_04_sharp_witnesses():
    dims = []
    for n in (2, 3, 4):
        cg = symmetric.gen_odd_extremal(n)
        assert symmetric.red_blue_distance(cg) == 3
        dims.append(cg.base.n - 1)
    for n in (3, 4, 5):
        cg = symmetric.gen_even_extremal(n)
        assert symmetric.red_blue_distance(cg) == 3
        dims.append(cg.base.n - 1)
    assert dims == [7, 9, 11, 10, 12, 14]
    print("ACCEPTANCE 4: PASS - distance-3 witnesses at d = 7, 9, 11, 10, 12, 14")


def test_criterion_05_d8_witness():
    res = symmetric.search_d8_nonsymmetric(budget_seconds=3600.0, seed=1)
    assert res.status == "found", res.status
    assert res.nodes == 844
    g, f1, f2 = res.witness
    assert g.sorted_edges() == [(0, 2), (0, 4), (0, 5), (0, 8), (1, 3), (1, 4), (1, 5), (1, 7),
                                (1, 8), (2, 5), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6), (4, 5),
                                (4, 6), (4, 8), (5, 6), (6, 7), (7, 8)]
    assert g.n == 9 and dimension(g) == 8
    assert faces.validate_partition(g, f1)
    assert faces.validate_partition(g, f2)
    assert venkov.belt_distance(g, f1, f2)[0] == 3
    assert venkov.belt_diameter(g) == 3
    print("ACCEPTANCE 5: PASS - 9-vertex witness with the fixed partitions at belt distance 3, diameter 3")


def test_criterion_06_belt_diameter_table(full_sweep):
    assert full_sweep.ok, full_sweep.violations[:5]
    for d in (3, 4, 5, 6):
        assert row(full_sweep, d).max_belt_diameter == 2, d
    assert row(full_sweep, 7).max_belt_diameter <= 3
    # the first graph in key order of belt diameter 3 on 8 vertices: the 3-cube
    assert row(full_sweep, 7).witness == [(0, 5), (0, 6), (0, 7), (1, 4), (1, 6), (1, 7), (2, 4),
                                          (2, 5), (2, 7), (3, 4), (3, 5), (3, 6)]
    print("ACCEPTANCE 6: PASS - sweep n <= 8: max belt diameter 2 for d = 3..6, %d for d = 7, zero violations"
          % row(full_sweep, 7).max_belt_diameter)


def test_criterion_07_dual_bound(full_sweep):
    assert not [v for v in full_sweep.violations if "dual" in v]
    for d in (3, 4, 5, 6):
        assert row(full_sweep, d).max_dual_diameter <= 3, d
    print("ACCEPTANCE 7: PASS - dual diameter <= belt + 1 on every instance; max dual <= 3 for d <= 6")


def test_criterion_08_oracle_equivalence(full_sweep):
    assert full_sweep.oracle_samples == 200
    assert not [v for v in full_sweep.violations if "oracle" in v]
    print("ACCEPTANCE 8: PASS - oracle agrees exactly: all graphs n <= 6 plus 200 of each level's own "
          "graphs at n = 7, 8")


def test_criterion_09_structural_invariants(full_sweep):
    assert not [v for v in full_sweep.violations if "merges" in v]
    rng = random.Random(90)
    for _ in range(10 ** 4):
        n = rng.randrange(2, 11)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = ZGraph(n, [p for p in pairs if rng.random() < 0.5])
        assert oracle.packed_rank(*pack(zone_matrix(g))) == dimension(g)
    checked = 0
    for n in range(4, 8):
        for cg in enumerate_conjugate_classes(n):
            assert symmetric.is_bipartite(cg.base)
            blue = ZGraph(cg.base.n, cg.blue)
            red = ZGraph(cg.base.n, cg.red)
            # no cycle carries exactly one edge of a color: a lone red edge
            # would close a cycle iff its endpoints were blue-connected
            for i, j in cg.red:
                assert not _span(blue, i) >> j & 1
            for i, j in cg.blue:
                assert not _span(red, i) >> j & 1
            checked += 1
    print("ACCEPTANCE 9: PASS - belt sizes/directions clean in sweep; rank = dimension on 10^4 random graphs; "
          "bipartite and one-edge-cycle invariants on %d conjugate classes" % checked)


def _span(g, v):
    # component mask of v in g
    from zonobelt.zgraph import components
    for m in components(g):
        if m >> v & 1:
            return m
    raise AssertionError


def test_criterion_10_generic_bound(full_sweep):
    assert not [v for v in full_sweep.violations if "d-1" in v]
    for r in full_sweep.rows:
        assert r.max_belt_diameter <= r.d - 1
    print("ACCEPTANCE 10: PASS - belt diameter <= dimension - 1 on all sweep instances")
