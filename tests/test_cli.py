"""Command line behavior: parsing, exit codes, output formats."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conjugate_reference import color_facets
from zonobelt import dual, faces, oracle, sweep, symmetric, venkov
from zonobelt.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    FileFormatError,
    emit_graph_file,
    format_graph_file,
    main,
    parse_facet,
    parse_graph_file,
)
from zonobelt.symmetric import ColoredZGraph, gen_k2dm1
from zonobelt.zgraph import ZGraph


def write_graph(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


K4 = {"vertices": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}
PATH4 = {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4]]}
K2D5 = {
    "vertices": 6,
    "edges": [
        [1, 3, "b"], [1, 4, "b"], [1, 5, "b"], [1, 6, "b"],
        [2, 3, "r"], [2, 4, "r"], [2, 5, "r"], [2, 6, "r"],
    ],
}


def test_parse_graph_file_plain():
    g = parse_graph_file(PATH4)
    assert isinstance(g, ZGraph)
    assert g.n == 4
    assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]


def test_parse_graph_file_colored():
    g = parse_graph_file(K2D5)
    assert isinstance(g, ColoredZGraph)
    assert len(g.red) == 4 and len(g.blue) == 4


def test_parse_graph_file_rejects_bad_input():
    with pytest.raises(FileFormatError, match="duplicate"):
        parse_graph_file({"vertices": 3, "edges": [[1, 2], [2, 1]]})
    with pytest.raises(FileFormatError, match="every edge"):
        parse_graph_file({"vertices": 3, "edges": [[1, 2, "r"], [2, 3]]})
    with pytest.raises(FileFormatError, match="color"):
        parse_graph_file({"vertices": 3, "edges": [[1, 2, "g"]]})
    with pytest.raises(FileFormatError, match="loop"):
        parse_graph_file({"vertices": 3, "edges": [[2, 2]]})
    with pytest.raises(FileFormatError, match="out of range"):
        parse_graph_file({"vertices": 3, "edges": [[1, 4]]})
    with pytest.raises(FileFormatError, match="vertices"):
        parse_graph_file({"vertices": 0, "edges": []})


def test_round_trip():
    for doc in (PATH4, K4, K2D5):
        g = parse_graph_file(doc)
        again = parse_graph_file(emit_graph_file(g))
        if isinstance(g, ColoredZGraph):
            assert again.red == g.red and again.blue == g.blue
        else:
            assert again.edges == g.edges and again.n == g.n
    cg = gen_k2dm1(6)
    assert parse_graph_file(emit_graph_file(cg)).red == cg.red


def test_format_graph_file_parses_back():
    doc = emit_graph_file(parse_graph_file(K2D5))
    assert json.loads(format_graph_file(doc)) == doc


def test_parse_facet():
    assert parse_facet("1|2,3,4", 4) == (0b0001, 0b1110)
    assert parse_facet(" 1 , 2 | 3 ,4 ", 4) == (0b0011, 0b1100)
    with pytest.raises(FileFormatError, match="two"):
        parse_facet("1,2,3,4", 4)
    with pytest.raises(FileFormatError, match="empty part"):
        parse_facet("|1,2", 4)
    with pytest.raises(FileFormatError, match="out of range"):
        parse_facet("1|2,9", 4)
    with pytest.raises(FileFormatError, match="bad vertex"):
        parse_facet("1|a", 4)


def test_info(tmp_path, capsys):
    f = write_graph(tmp_path, "p.json", PATH4)
    assert main(["info", f]) == EXIT_OK
    out = capsys.readouterr().out
    assert "vertices: 4" in out
    assert "dimension: 3" in out
    assert "note:" not in out


def test_info_flags_low_dimension(tmp_path, capsys):
    f = write_graph(tmp_path, "e.json", {"vertices": 3, "edges": [[1, 2], [2, 3]]})
    assert main(["info", f]) == EXIT_OK
    assert "outside stated bounds" in capsys.readouterr().out


def test_belt_diameter_k4(tmp_path, capsys):
    f = write_graph(tmp_path, "k4.json", K4)
    assert main(["belt-diameter", f]) == EXIT_OK
    assert capsys.readouterr().out == "2\n"


def test_belt_diameter_reports_a_broken_model(tmp_path, capsys, monkeypatch):
    cycle4 = write_graph(tmp_path, "c4.json", {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    real = faces.dual_neighbours

    def emptied_first_facet(facets, cores):
        near = real(facets, cores)
        near[facets[0][0]] = []
        return near

    monkeypatch.setattr(venkov, "dual_neighbours", emptied_first_facet)
    monkeypatch.setattr(dual, "dual_neighbours", emptied_first_facet)
    for cmd in (["belt-diameter"], ["dual-diameter", "--check-bound"]):
        assert main(cmd + [cycle4]) == EXIT_VIOLATION
        assert capsys.readouterr().err == "error: dual graph disconnected: adjacency model violated\n"


def test_symmetric_distance_k2d5(tmp_path, capsys):
    f = write_graph(tmp_path, "k2d5.json", K2D5)
    assert main(["symmetric", "distance", f]) == EXIT_OK
    assert capsys.readouterr().out == "2\n"


def test_belt_distance_cube(tmp_path, capsys):
    f = write_graph(tmp_path, "cube.json", PATH4)
    code = main(["belt-distance", f, "--from", "1|2,3,4", "--to", "1,2|3,4"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1"
    assert out[1] == "1|2,3,4 -> 1,2|3,4"


def test_belt_distance_rejects_non_facet(tmp_path, capsys):
    f = write_graph(tmp_path, "cube.json", PATH4)
    code = main(["belt-distance", f, "--from", "1,3|2,4", "--to", "1|2,3,4"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_belt_distance_refuses_one_edge_as_every_belt_query_does(capsys):
    # the d = 1 graph has facets, but no belt: the size rule comes before
    # connectivity, as in faces._belt_faces
    data = Path(__file__).parent / "data"
    for name, message in (("edge2", "need at least 3 vertices"),
                          ("disconnected4", "graph must be connected")):
        code = main(["belt-distance", str(data / ("%s.json" % name)),
                     "--from", "1|2", "--to", "2|1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_facets_output(tmp_path, capsys):
    f = write_graph(tmp_path, "p.json", PATH4)
    assert main(["facets", f]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1|2,3,4"
    assert len(lines) == 6


def test_belts_output(tmp_path, capsys):
    f = write_graph(tmp_path, "p.json", PATH4)
    assert main(["belts", f]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all("size 4, directions 2" in ln for ln in lines)


def test_venkov_dot(tmp_path, capsys):
    f = write_graph(tmp_path, "k4.json", K4)
    assert main(["venkov", f, "--dot"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("graph venkov {")
    assert out.rstrip().endswith("}")
    assert '"1|2,3,4" -- "1,2|3,4";' in out
    # the three 2|2 splits meet only via singleton facets
    assert '"1,2|3,4" -- "1,3|2,4";' not in out


def test_venkov_json(tmp_path, capsys):
    f = write_graph(tmp_path, "p.json", PATH4)
    assert main(["venkov", f, "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes"] == ["1|2,3,4", "1,2|3,4", "1,2,3|4"]
    assert sorted(map(tuple, doc["edges"])) == [(0, 1), (0, 2), (1, 2)]


def test_dual_diameter_check_bound(tmp_path, capsys):
    f = write_graph(tmp_path, "k4.json", K4)
    assert main(["dual-diameter", f]) == EXIT_OK
    assert capsys.readouterr().out == "3\n"
    assert main(["dual-diameter", f, "--check-bound"]) == EXIT_OK
    assert "holds" in capsys.readouterr().out


def test_symmetric_check_exit_codes(tmp_path, capsys):
    good = write_graph(tmp_path, "good.json", K2D5)
    assert main(["symmetric", "check", good]) == EXIT_OK
    assert "conjugate: yes" in capsys.readouterr().out
    bad = write_graph(
        tmp_path, "bad.json",
        {"vertices": 4, "edges": [[1, 2, "r"], [2, 3, "r"], [3, 4, "b"]]},
    )
    assert main(["symmetric", "check", bad]) == EXIT_VIOLATION
    assert "conjugate: no" in capsys.readouterr().out
    assert main(["symmetric", "distance", bad]) == EXIT_USAGE


def test_symmetric_output_matches_golden(tmp_path, capsys):
    # the CI golden: check and distance on a common-leaf, a leaf-free and a
    # non-conjugate coloring, with the reasons in order and the exit codes
    data = Path(__file__).parent / "data"
    files = {"nonconjugate_n5": str(data / "nonconjugate_n5.json")}
    for name, args in (("k2dm1_d5", ["k2dm1", "--d", "5"]),
                       ("odd_n3", ["odd-extremal", "--n", "3"])):
        files[name] = str(tmp_path / (name + ".json"))
        assert main(["generate", *args, "--out", files[name]]) == EXIT_OK
    capsys.readouterr()
    got = []
    for name in ("k2dm1_d5", "odd_n3", "nonconjugate_n5"):
        for mode in ("check", "distance"):
            code = main(["symmetric", mode, files[name]])
            cap = capsys.readouterr()
            got.append("== %s %s\n%s%sexit: %d\n" % (name, mode, cap.out, cap.err, code))
    assert "".join(got) == (data / "symmetric_checks.txt").read_text()


def test_generate_to_file(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["generate", "k2dm1", "--d", "5", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "k2dm1"
    assert report["red_blue_distance"] == 2
    assert report["common_leaf"] == 3   # 1-based
    doc = json.loads(out.read_text())
    g = parse_graph_file(doc)
    assert g.base.n == 6


def test_generate_to_an_unwritable_path_exits_two(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "g.json"
    assert main(["generate", "k2dm1", "--d", "5", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % out)
    assert len(captured.err.splitlines()) == 1


def test_generate_stdout_routing(tmp_path, capsys):
    assert main(["generate", "permutahedron", "--d", "3"]) == EXIT_OK
    cap = capsys.readouterr()
    doc = json.loads(cap.out)
    assert doc["vertices"] == 4 and len(doc["edges"]) == 6
    assert json.loads(cap.err)["kind"] == "permutahedron"


def test_generate_family_args(tmp_path, capsys):
    assert main(["generate", "odd-extremal", "--d", "7"]) == EXIT_OK
    capsys.readouterr()
    assert main(["generate", "odd-extremal", "--d", "8"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["generate", "odd-extremal", "--n", "2", "--d", "7"]) == EXIT_OK
    capsys.readouterr()
    assert main(["generate", "even-extremal", "--n", "3", "--d", "11"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["generate", "k2dm1"]) == EXIT_USAGE


def test_search_extremal_cli(capsys):
    assert main(["search", "extremal", "--d", "3"]) == EXIT_OK
    assert "status: none" in capsys.readouterr().out
    assert main(["search", "extremal", "--d", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: found" in out and "distance: 3" in out
    assert main(["search", "extremal"]) == EXIT_USAGE


def test_search_extremal_refuses_d_beyond_sixteen_vertices(capsys, monkeypatch):
    # refused at once, not searched until a budget runs out
    monkeypatch.setattr(symmetric, "free_trees", None)
    for d in ("16", "40"):
        assert main(["search", "extremal", "--d", d, "--budget", "0.5"]) == EXIT_USAGE
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err == "error: need d <= 15\n"


@pytest.mark.parametrize("argv, flag", [
    (["generate", "k2dm1", "--d", "5", "--n", "3"], "--n"),
    (["generate", "permutahedron", "--d", "3", "--n", "9"], "--n"),
    (["search", "d8", "--d", "8"], "--d"),
    (["search", "extremal", "--d", "5", "--seed", "7"], "--seed"),
], ids=["k2dm1-n", "permutahedron-n", "d8-d", "extremal-seed"])
def test_flags_a_kind_does_not_use_are_usage_errors(capsys, argv, flag):
    assert main(argv) == EXIT_USAGE
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0]


def test_search_d8_budget_cli(capsys):
    assert main(["search", "d8", "--max-nodes", "1"]) == EXIT_INCONCLUSIVE
    assert "status: inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("what", [["extremal", "--d", "5"], ["d8"]], ids=["extremal", "d8"])
@pytest.mark.parametrize("limit", [["--max-nodes", "-1"], ["--budget", "-1"]],
                         ids=["max-nodes", "budget"])
def test_search_rejects_negative_budgets(capsys, what, limit):
    # d = 5 has a definite "none" that needs no work, yet a negative budget
    # must not read as exhausted
    assert main(["search", *what, *limit]) == EXIT_USAGE
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error: ") and ">= 0" in cap.err
    assert main(["search", *what, limit[0], "0"]) in (EXIT_OK, EXIT_INCONCLUSIVE)


@pytest.mark.parametrize("d", ["5", "6"])
@pytest.mark.parametrize("limit", ["--budget", "--max-nodes"])
def test_search_extremal_low_dimensions_answer_none_on_a_zero_budget(capsys, d, limit):
    # two trees already have 4 leaves, more than (d + 1) // 2 for d <= 6:
    # "none" needs no work, so a zero budget is not exhausted by it
    assert main(["search", "extremal", "--d", d, limit, "0"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["status: none", "nodes: 0"]
    assert out[2].startswith("elapsed: ") and len(out) == 3


def test_sweep_cli(tmp_path, capsys):
    csv_path = tmp_path / "rep.csv"
    assert main(["sweep", "--max-n", "5", "--csv", str(csv_path)]) == EXIT_OK
    text = csv_path.read_text()
    assert text.startswith("d,instances,max_belt_diameter,max_dual_diameter,violations")
    assert "3,6,2,3,0" in text
    assert main(["sweep", "--max-n", "5"]) == EXIT_OK
    assert "3,6,2,3,0" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_sweep_to_an_unwritable_path_fails_fast(tmp_path, capsys, monkeypatch, flag):
    # the outputs are opened before any level grows: a path under a missing
    # directory is one error line and exit 2, not a traceback after the sweep
    def grow(*args):
        raise AssertionError("a level grew")

    monkeypatch.setattr(sweep, "grow_canonical", grow)
    out = tmp_path / "missing-dir" / "rep"
    assert main(["sweep", "--max-n", "7", flag, str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % out)
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flag", [["--checks", "belt_bound"], ["--samples", "0"]])
def test_sweep_has_no_check_or_sample_knobs(capsys, monkeypatch, flag):
    # every sweep runs every check with the fixed sample count: the removed
    # flags are usage errors, refused before any level grows
    def grow(*args):
        raise AssertionError("a level grew")

    monkeypatch.setattr(sweep, "grow_canonical", grow)
    assert main(["sweep", "--max-n", "5", *flag]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: %s" % flag[0] in captured.err


def test_sweep_exits_one_on_a_level_of_the_wrong_size(capsys, monkeypatch):
    real = sweep.grow_canonical
    monkeypatch.setattr(sweep, "grow_canonical", lambda forms, k, masks: itertools.islice(
        real(forms, k, masks), 1 if k == 4 else 0, None))
    assert main(["sweep", "--max-n", "5"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: growth made 20 connected graphs on 5 vertices, not 21\n"


def test_oracle_verify(tmp_path, capsys):
    f = write_graph(tmp_path, "k4.json", K4)
    assert main(["oracle", "verify", f]) == EXIT_OK
    assert "yes" in capsys.readouterr().out
    big = {
        "vertices": 16,
        "edges": [[i, j] for i in range(1, 17) for j in range(i + 1, 17)],
    }
    f = write_graph(tmp_path, "k16.json", big)
    assert main(["oracle", "verify", f]) == EXIT_INCONCLUSIVE
    assert "unverified" in capsys.readouterr().out


def test_oracle_verify_k10(tmp_path, capsys):
    # K10, the d = 9 permutahedron, has 511 facet pairs, the most of any
    # graph on 10 vertices, and its walk passes through at most 115,462
    # flats of rank 1..7: it verifies under both caps
    f = tmp_path / "k10.json"
    assert main(["generate", "permutahedron", "--d", "9", "--out", str(f)]) == EXIT_OK
    capsys.readouterr()
    assert oracle.walk_bound(10, 45, 9) == 115462 <= oracle.WALK_FLAT_CAP
    assert main(["oracle", "verify", str(f)]) == EXIT_OK
    assert capsys.readouterr().out == "oracle agreement: yes\n"


def count_oracle_calls(monkeypatch):
    calls = {"oracle_facets": 0, "oracle_same_belt": 0}
    for name in calls:
        real = getattr(oracle, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, counting)
    return calls


def test_oracle_verify_caps_same_belt_checks(tmp_path, capsys, monkeypatch):
    # 35 edges on 11 vertices: the class walk would pass through at most
    # 660,003 flats, under WALK_FLAT_CAP, but 876 facet pairs make 383,250
    # same-belt checks, so nothing is run at all
    pairs = [(i, j) for i in range(11) for j in range(i + 1, 11)]
    edges = random.Random(1).sample(pairs, 35)
    g = ZGraph(11, edges)
    assert oracle.walk_bound(11, 35, 10) == 660003 <= oracle.WALK_FLAT_CAP
    assert sum(1 for f in faces.enumerate_facets(g) if f[0] & 1) == 876
    calls = count_oracle_calls(monkeypatch)
    doc = {"vertices": 11, "edges": [[i + 1, j + 1] for i, j in edges]}
    assert main(["oracle", "verify", write_graph(tmp_path, "g11.json", doc)]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "unverified" in out and "383250 same-belt checks" in out
    assert calls == {"oracle_facets": 0, "oracle_same_belt": 0}


def test_sweep_beyond_the_exhaustive_limit_fails_fast(capsys, monkeypatch):
    # the exhaustive sweep stops at n = 8: n = 9 is a usage error that names
    # the limit, refused before any level grows
    def grow(*args):
        raise AssertionError("a level grew")

    monkeypatch.setattr(sweep, "grow_canonical", grow)
    assert main(["sweep", "--max-n", "9"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exhaustive sweep needs n <= 8, got 9" in captured.err


def test_oracle_verify_pair_cap_boundary(tmp_path, capsys, monkeypatch):
    # K4 has 7 facet pairs, so 21 same-belt checks: a cap of 21 verifies it.
    # The checks are lookups in the flats of the one oracle walk, so the
    # oracle ranks no pair.
    calls = count_oracle_calls(monkeypatch)
    f = write_graph(tmp_path, "k4.json", K4)
    monkeypatch.setattr(oracle, "SAME_BELT_PAIR_CAP", 21)
    assert main(["oracle", "verify", f]) == EXIT_OK
    assert calls == {"oracle_facets": 1, "oracle_same_belt": 0}
    monkeypatch.setattr(oracle, "SAME_BELT_PAIR_CAP", 20)
    assert main(["oracle", "verify", f]) == EXIT_INCONCLUSIVE
    assert "unverified" in capsys.readouterr().out
    assert calls == {"oracle_facets": 1, "oracle_same_belt": 0}


def test_oracle_verify_reports_a_dropped_core(tmp_path, capsys, monkeypatch):
    # the oracle's flats must match the cores one for one: a core pass that
    # loses one is a mismatch, even with the Venkov adjacency left intact
    g = ZGraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    facets, cores = faces.facets_and_cores(g)
    cores = list(cores)
    vadj = faces.belt_adjacency(facets, faces.dual_neighbours(facets, cores))
    real = faces._core_merges
    monkeypatch.setattr(faces, "_core_merges",
                        lambda g, conn: itertools.islice(real(g, conn), 1, None))
    monkeypatch.setattr(faces, "belt_adjacency", lambda facets, near: list(vadj))
    assert list(faces.facets_and_cores(g)[1]) == cores[1:]
    doc = {"vertices": 4, "edges": [[i + 1, j + 1] for i, j in g.sorted_edges()]}
    assert main(["oracle", "verify", write_graph(tmp_path, "g.json", doc)]) == EXIT_VIOLATION
    assert capsys.readouterr().out == "oracle agreement: MISMATCH\n"


def test_usage_errors(tmp_path, capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["info", str(tmp_path / "missing.json")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["info", str(bad)]) == EXIT_USAGE
    # removed: the ignored --jobs option and the paper-odd/paper-even aliases
    assert main(["--jobs", "2", "info", str(bad)]) == EXIT_USAGE
    assert main(["generate", "paper-odd", "--d", "7"]) == EXIT_USAGE


def test_search_d8_violation_exits_one(monkeypatch, capsys):
    # a graph the scorer calls perfect but that sits at belt distance 2
    from zonobelt import symmetric, venkov

    monkeypatch.setattr(symmetric, "_d8_rank", lambda answers: 0)
    monkeypatch.setattr(venkov, "belt_distance", lambda g, f1, f2: (2, [f1, f2]))
    res = symmetric.search_d8_nonsymmetric(max_nodes=5, seed=1)
    assert res.status == "violation"
    g, f1, f2 = res.witness
    assert g.n == 9 and (f1, f2) == ((symmetric.D8_X1, symmetric.D8_Y1),
                                     (symmetric.D8_X2, symmetric.D8_Y2))
    assert res.distance == 2
    assert main(["search", "d8", "--max-nodes", "5"]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "status: violation" in out and "distance: 2" in out


def _common_leaf_reduction(g, f1, f2):
    cg = gen_k2dm1(7)
    return (cg, *color_facets(cg))


def _stalled_reduction(g, f1, f2):
    raise RuntimeError("reduction did not reach a conjugate pair")


@pytest.mark.parametrize("reduction", [_common_leaf_reduction, _stalled_reduction])
def test_search_d8_failed_reduction_exits_one(monkeypatch, capsys, reduction):
    # the seed-12 witness is at distance 3, but its reduction breaks the proof's chain
    monkeypatch.setattr(symmetric, "reduce_to_symmetric", reduction)
    assert main(["search", "d8", "--seed", "12", "--max-nodes", "400"]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "status: violation" in out and "distance: 3" in out


def _no_leaf_floor(monkeypatch):
    # completions stop avoiding common leaves
    real = symmetric.cross_completions
    monkeypatch.setattr(symmetric, "cross_completions",
                        lambda n, forest, forbid_common_leaf=False: real(n, forest))


def _distance_two(monkeypatch):
    # every coloring reads as belt distance 2
    monkeypatch.setattr(venkov, "belt_distance", lambda g, f1, f2: (2, [f1, f2]))


@pytest.mark.parametrize("breakage", [_no_leaf_floor, _distance_two])
def test_broken_completion_raises(monkeypatch, capsys, breakage):
    breakage(monkeypatch)
    with pytest.raises(RuntimeError, match="common leaf|distance 2"):
        symmetric.search_extremal(7)
    with pytest.raises(RuntimeError, match="common leaf|distance 2"):
        symmetric.gen_odd_extremal(2)
    assert main(["search", "extremal", "--d", "7"]) == EXIT_VIOLATION
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n", [4, 10])
def test_closed_stdout_exits_two(tmp_path, n):
    # K4's facets fit the stdout buffer, K10's do not: the pipe breaks at
    # the final flush in one case and inside a print in the other
    doc = {"vertices": n,
           "edges": [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]}
    f = write_graph(tmp_path, "k%d.json" % n, doc)
    env = dict(os.environ, PYTHONPATH=str(Path(symmetric.__file__).parents[1]))
    r, w = os.pipe()
    os.close(r)   # nobody will read
    try:
        proc = subprocess.run([sys.executable, "-m", "zonobelt.cli", "facets", f],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == b""
