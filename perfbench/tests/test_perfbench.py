"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import referee  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS, Spans, Tracer, self_times  # noqa: E402
from workloads import Op, QueryMix, Search, SweepN7, restart_seeds, serve  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "sweep-n7": {"max_n": 5},
    "query-mix": {"pools": 2, "graphs": 3, "sizes": (6, 7), "pairs": 2},
    "search": {"restarts": 1, "max_nodes": 2, "extremal_dims": (3, 7), "odd": {2: 7}, "even": {}},
}


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == {"sweep-n7", "query-mix", "search"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS


def test_inputs_repeat_for_same_seed(lib):
    a = QueryMix(lib, 5, **TINY["query-mix"])
    b = QueryMix(lib, 5, **TINY["query-mix"])
    c = QueryMix(lib, 6, **TINY["query-mix"])
    assert (a.graphs, a.pools) == (b.graphs, b.pools)
    assert (a.graphs, a.pools) != (c.graphs, c.pools)
    assert SweepN7(lib, 5).oracle_seed == SweepN7(lib, 5).oracle_seed != SweepN7(lib, 6).oracle_seed
    assert restart_seeds(5, 2, 4) == restart_seeds(5, 2, 4) != restart_seeds(5, 3, 4)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_printed_metrics_are_declared(name, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run_workload(name, 3, 0.0, trace, **TINY[name])
    out = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["name"] in out
    if trace:
        assert any(tmp_path.iterdir())


def test_self_times_on_hand_built_tree():
    s = Spans()
    root = s.add("root", 0.0, 10.0)
    a = s.add("a", 1.0, 4.0, root)
    s.add("a1", 2.0, 3.0, a)
    s.add("b", 5.0, 9.0, root)
    s.add("c", 8.0, 12.0, root)    # overlaps b and overruns root: only 9..10 is new
    assert list(self_times(s)) == [2.0, 2.0, 1.0, 4.0, 4.0]

    tracer = Tracer(lib=None)
    tracer.spans = s
    table = tracer.summary()
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": 2.0}
    assert table["a"]["self_s"] == 2.0 and table["a1"]["self_s"] == 1.0
    assert tracer.child_calls("a1", "a") == 1 and tracer.child_calls("b", "a") == 0


def _serve(workload, index):
    return [serve(req) for req in workload.round(index)]


def _k4_mix(lib):
    """A query-mix whose only graph is K4, asked for a distance-2 pair."""
    qm = QueryMix(lib, 1, **TINY["query-mix"])
    qm.graphs = [(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))]
    far = ((0b0011, 0b1100), (0b0101, 0b1010))
    qm.pools = [[("belt_distance", 0, far), ("belt_diameter", 0, None),
                 ("check_diameter_bound", 0, None), ("enumerate_codim2", 0, None)]]
    return qm


def test_referee_passes_true_answers(lib):
    qm = _k4_mix(lib)
    ops = _serve(qm, 0) + _serve(qm, 1)
    assert referee.check(qm, ops, lib) == (0, [])
    assert [op.answer for op in ops if op.kind == "belt_diameter"] == [2, 2]


def test_referee_flags_wrong_diameter(lib):
    qm = _k4_mix(lib)
    ops = _serve(qm, 0)
    for op in ops:
        if op.kind == "belt_diameter":
            op.answer = 5
    failed, problems = referee.check(qm, ops, lib)
    assert failed >= 1
    assert any("outside" in p for p in problems)


def test_referee_flags_wrong_path(lib):
    qm = _k4_mix(lib)
    ops = _serve(qm, 0)
    dist = next(op for op in ops if op.kind == "belt_distance")
    assert dist.answer[0] == 2
    dist.answer = (1, (dist.answer[1][0], dist.answer[1][-1]))   # skip the middle facet
    failed, problems = referee.check(qm, ops, lib)
    assert failed == 1
    assert any("oracle" in p for p in problems)


def test_referee_flags_changed_repeat(lib):
    qm = _k4_mix(lib)
    ops = _serve(qm, 0) + _serve(qm, 1)
    codim2 = [op for op in ops if op.kind == "enumerate_codim2"]
    codim2[1].answer = (codim2[1].answer[0], 0, 12345)
    failed, problems = referee.check(qm, ops, lib)
    assert failed == 2
    assert any("differently" in p for p in problems)


def test_referee_flags_wrong_sweep_and_search(lib):
    sweep = SweepN7(lib, 1, max_n=5)
    (op,) = _serve(sweep, 0)
    assert referee.check(sweep, [op], lib) == (0, [])
    rows, violations, samples = op.answer
    bad = Op(op.kind, op.key, op.seconds, op.units,
             (((3, 6, 3, 3, ()),) + rows[1:], violations, samples))
    assert referee.check(sweep, [bad], lib)[0] == op.units

    search = Search(lib, 1, **TINY["search"])
    ops = _serve(search, 0)
    assert referee.check(search, ops, lib) == (0, [])
    d7 = next(op for op in ops if op.key == ("extremal", 7))
    d7.answer = ("none",) + d7.answer[1:]
    assert referee.check(search, ops, lib)[0] == 1


def test_referee_checks_a_d8_witness(lib):
    search = Search(lib, 1, **TINY["search"])
    (op,) = [serve(req) for req in search.check_requests()]
    assert op.answer[0] == "found"
    assert referee.check(search, [op], lib) == (0, [])
    n, edges, f1, f2 = op.answer[3]
    op.answer = op.answer[:3] + ((n, edges, f1, f1),)    # distance 0, not 3
    failed, problems = referee.check(search, [op], lib)
    assert failed == 1
    assert any("distance 3" in p for p in problems)
    op.answer = ("inconclusive",) + op.answer[1:3] + (None,)
    assert referee.check(search, [op], lib)[0] == 1


def test_fails_without_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
