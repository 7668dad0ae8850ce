"""Graph enumeration, sampling, and the campaign runner."""

import random

import pytest

import growth_reference
from zonobelt import faces, sweep, zgraph
from zonobelt.sweep import (
    CONNECTED_COUNTS,
    CSV_HEADER,
    enumerate_connected_graphs,
    oracle_agrees,
    report_csv,
    report_json,
    run_sweep,
    sample_connected_graphs,
)
from zonobelt.zgraph import ZGraph, canonical_label, dimension, min_label_perm, relabel


def test_connected_counts_to_seven():
    for n in range(1, 8):
        assert len(enumerate_connected_graphs(n)) == CONNECTED_COUNTS[n - 1]


def test_enumeration_errors():
    with pytest.raises(ValueError, match="n >= 1"):
        enumerate_connected_graphs(0)
    with pytest.raises(ValueError, match="sampled mode"):
        enumerate_connected_graphs(9)


def test_enumeration_labels_each_candidate_once(monkeypatch):
    calls = []

    def counting(n, code):
        calls.append(n)
        return min_label_perm(n, code)

    monkeypatch.setattr(zgraph, "min_label_perm", counting)
    graphs = enumerate_connected_graphs(6)
    # level k grows every connected graph on k vertices by 2^k - 1 attachments
    candidates = sum(CONNECTED_COUNTS[k - 1] * ((1 << k) - 1) for k in range(1, 6))
    assert len(graphs) == CONNECTED_COUNTS[5]
    assert 0 < len(calls) <= candidates


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_unfiltered_growth(n):
    # the invariant filter drops no class and changes no canonical form
    got = [tuple(g.sorted_edges()) for g in enumerate_connected_graphs(n)]
    assert got == growth_reference.connected_graphs(n)


def test_enumeration_stays_within_labeling_budget(monkeypatch):
    # only candidates whose new vertex is a least non-cut vertex are labeled:
    # 2,101 labelings up to n = 7, against 7,815 with every candidate labeled
    calls = []

    def counting(n, code):
        calls.append(n)
        return min_label_perm(n, code)

    monkeypatch.setattr(zgraph, "min_label_perm", counting)
    assert len(enumerate_connected_graphs(7)) == CONNECTED_COUNTS[6]
    assert 0 < len(calls) <= 3000


def test_enumeration_is_canonical_and_sorted():
    graphs = enumerate_connected_graphs(5)
    labels = [canonical_label(5, (g.edges,)) for g in graphs]
    keys = [key for key, _ in labels]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for g, (_, perm) in zip(graphs, labels):
        assert relabel(g.edges, perm) == tuple(g.sorted_edges())


def test_canonical_key_relabel_invariant():
    rng = random.Random(41)
    for g in enumerate_connected_graphs(5):
        relab = list(range(5))
        rng.shuffle(relab)
        h = ZGraph(5, [(relab[i], relab[j]) for i, j in g.edges])
        assert canonical_label(5, (h.edges,))[0] == canonical_label(5, (g.edges,))[0]


def test_sampling_deterministic_and_connected():
    a = sample_connected_graphs(7, 20, seed=5)
    b = sample_connected_graphs(7, 20, seed=5)
    assert [g.edges for g in a] == [g.edges for g in b]
    assert len({g.edges for g in a}) == 20
    for g in a:
        assert dimension(g) == 6


def test_oracle_agrees_small():
    for g in enumerate_connected_graphs(4):
        assert oracle_agrees(g)


def test_run_sweep_small():
    rep = run_sweep(5, oracle_samples=0)
    assert rep.ok
    assert [r.d for r in rep.rows] == [3, 4]
    assert [r.instances for r in rep.rows] == [6, 21]
    assert [r.max_belt_diameter for r in rep.rows] == [2, 2]
    assert [r.max_dual_diameter for r in rep.rows] == [3, 3]
    assert report_csv(rep) == (
        CSV_HEADER + "\n"
        "3,6,2,3,0\n"
        "4,21,2,3,0\n"
    )


def test_belt_size_check_reads_crossings_from_edges(monkeypatch):
    # on the path 0-1-2-3 the core {0},{1},{2,3} has two crossing directions,
    # so a belt claiming six members and three directions must be reported
    path = ZGraph(4, [(0, 1), (1, 2), (2, 3)])
    members = tuple((m, 0b1111 ^ m) for m in (0b0001, 0b0010, 0b0011, 0b1100, 0b1101, 0b1110))
    lying = faces.Belt((0b0001, 0b0010, 0b1100), members, 3)
    monkeypatch.setattr(sweep, "enumerate_connected_graphs", lambda n: [path])
    monkeypatch.setattr(faces, "enumerate_codim2", lambda g: [lying])
    rep = run_sweep(4, checks=("belt_size",))
    assert rep.violations == ["n=4 [(0, 1), (1, 2), (2, 3)]: size 6 with 2 directions"]


def test_run_sweep_validates_args():
    with pytest.raises(ValueError, match="unknown checks"):
        run_sweep(5, checks=("belt_bound", "nope"))
    with pytest.raises(ValueError, match="max_n >= 4"):
        run_sweep(3)


def test_report_json_shape():
    rep = run_sweep(4, checks=("belt_bound",))
    doc = report_json(rep)
    assert doc["max_n"] == 4
    assert doc["checks"] == ["belt_bound"]
    assert doc["violations"] == []
    row = doc["rows"][0]
    assert set(row) == {
        "d", "instances", "max_belt_diameter", "max_dual_diameter",
        "witness_edges", "runtime_sec",
    }
