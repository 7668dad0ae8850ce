"""Command line front end: graph file I/O and one subcommand per analysis.

Graph files are JSON: {"vertices": n, "edges": [[i, j], ...]} with 1-based
vertex indices; edges may instead all carry a color tag [i, j, "r"|"b"],
which loads as a colored graph.  Vertices print 1-based everywhere; facet
arguments use "|" between parts and "," within, e.g. "1|2,3,4".

Exit codes: 0 success, 1 violation found, 2 usage, parse or output error
(stdout closed early), 3 inconclusive (search budget exhausted or oracle
refused; `sweep` runs every check in full and never exits 3).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dual, faces, oracle, symmetric, sweep, venkov
from .symmetric import ColoredZGraph
from .zgraph import MAX_N, ZGraph, bits, components, dimension

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class FileFormatError(ValueError):
    pass


def parse_graph_file(data):
    """GraphFile dict -> ZGraph or ColoredZGraph."""
    if not isinstance(data, dict):
        raise FileFormatError("graph file must be a JSON object")
    n = data.get("vertices")
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_N:
        raise FileFormatError("vertices must be an integer in [1, %d]" % MAX_N)
    raw = data.get("edges")
    if not isinstance(raw, list):
        raise FileFormatError("edges must be a list")
    edges = []
    tags = []
    for item in raw:
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise FileFormatError("edge entries are [i, j] or [i, j, \"r\"|\"b\"]")
        i, j = item[0], item[1]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
            raise FileFormatError("edge endpoints must be integers")
        if not (1 <= i <= n and 1 <= j <= n):
            raise FileFormatError("edge (%r, %r) out of range 1..%d" % (i, j, n))
        if i == j:
            raise FileFormatError("loop edge (%d, %d) not allowed" % (i, j))
        e = (min(i, j) - 1, max(i, j) - 1)
        if e in edges:
            raise FileFormatError("duplicate edge (%d, %d)" % (i, j))
        edges.append(e)
        if len(item) == 3:
            if item[2] not in ("r", "b"):
                raise FileFormatError("edge color must be \"r\" or \"b\"")
            tags.append(item[2])
        else:
            tags.append(None)
    tagged = [t for t in tags if t is not None]
    if tagged and len(tagged) != len(edges):
        raise FileFormatError("either every edge carries a color tag or none")
    g = ZGraph(n, edges)
    if not tagged:
        return g
    red = [e for e, t in zip(edges, tags) if t == "r"]
    blue = [e for e, t in zip(edges, tags) if t == "b"]
    return ColoredZGraph(g, red, blue)


def emit_graph_file(g) -> dict:
    if isinstance(g, ColoredZGraph):
        out = []
        for e in g.base.sorted_edges():
            out.append([e[0] + 1, e[1] + 1, "r" if e in g.red else "b"])
        return {"vertices": g.base.n, "edges": out}
    return {"vertices": g.n, "edges": [[i + 1, j + 1] for i, j in g.sorted_edges()]}


def format_graph_file(doc: dict) -> str:
    """Pretty GraphFile text: one edge per line."""
    if not doc["edges"]:
        return '{"vertices": %d, "edges": []}' % doc["vertices"]
    lines = ",\n    ".join(json.dumps(e) for e in doc["edges"])
    return '{\n  "vertices": %d,\n  "edges": [\n    %s\n  ]\n}' % (doc["vertices"], lines)


def load_graph(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FileFormatError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise FileFormatError("invalid JSON in %s: %s" % (path, exc))
    return parse_graph_file(data)


def base_of(g) -> ZGraph:
    return g.base if isinstance(g, ColoredZGraph) else g


def mask_str(mask: int) -> str:
    return ",".join(str(v + 1) for v in bits(mask))


def facet_str(f) -> str:
    return "%s|%s" % (mask_str(f[0]), mask_str(f[1]))


def parse_facet(text: str, n: int):
    s = "".join(text.split())
    parts = s.split("|")
    if len(parts) != 2:
        raise FileFormatError("facet %r needs exactly two |-separated parts" % text)
    masks = []
    for part in parts:
        if not part:
            raise FileFormatError("facet %r has an empty part" % text)
        seen = 0
        for tok in part.split(","):
            try:
                v = int(tok)
            except ValueError:
                raise FileFormatError("bad vertex %r in facet %r" % (tok, text))
            if not 1 <= v <= n:
                raise FileFormatError("vertex %d out of range 1..%d" % (v, n))
            seen |= 1 << (v - 1)
        masks.append(seen)
    return (masks[0], masks[1])


# ---------------------------------------------------------------------------
# subcommands


def cmd_info(args):
    g = load_graph(args.file)
    base = base_of(g)
    d = dimension(base)
    print("vertices: %d" % base.n)
    print("edges: %d" % len(base.edges))
    print("dimension: %d" % d)
    print("components: %d" % len(components(base)))
    if isinstance(g, ColoredZGraph):
        print("colors: red=%d blue=%d" % (len(g.red), len(g.blue)))
    if d < 3:
        print("note: outside stated bounds (d >= 3 assumed)")
    return EXIT_OK


def cmd_facets(args):
    g = base_of(load_graph(args.file))
    for f in faces.enumerate_facets(g):
        print(facet_str(f))
    return EXIT_OK


def cmd_belts(args):
    g = base_of(load_graph(args.file))
    for belt in faces.enumerate_codim2(g):
        core = "|".join(mask_str(m) for m in belt.core)
        print("%s: size %d, directions %d" % (core, len(belt.members), belt.directions))
    return EXIT_OK


def cmd_venkov(args):
    g = base_of(load_graph(args.file))
    nodes, adj = venkov.build_venkov(g)
    labels = [facet_str(f) for f in nodes]
    edges = [(i, j) for i in range(len(nodes)) for j in bits(adj[i]) if i < j]
    if args.dot:
        print("graph venkov {")
        for lab in labels:
            print("  \"%s\";" % lab)
        for i, j in edges:
            print("  \"%s\" -- \"%s\";" % (labels[i], labels[j]))
        print("}")
    elif args.json:
        print(json.dumps({"nodes": labels, "edges": [[i, j] for i, j in edges]}, indent=2))
    else:
        print("nodes: %d" % len(labels))
        print("edges: %d" % len(edges))
        for i, j in edges:
            print("%s -- %s" % (labels[i], labels[j]))
    return EXIT_OK


def cmd_belt_diameter(args):
    g = base_of(load_graph(args.file))
    print(venkov.belt_diameter(g))
    return EXIT_OK


def cmd_belt_distance(args):
    g = base_of(load_graph(args.file))
    f_from = parse_facet(args.from_, g.n)
    f_to = parse_facet(args.to, g.n)
    dist, path = venkov.belt_distance(g, f_from, f_to)
    print(dist)
    print(" -> ".join(facet_str(f) for f in path))
    return EXIT_OK


def cmd_dual_diameter(args):
    g = base_of(load_graph(args.file))
    if not args.check_bound:
        print(dual.dual_diameter(g))
        return EXIT_OK
    rep = dual.check_diameter_bound(g)
    print("belt diameter: %d (between %s and %s)" % (
        rep["belt_diameter"],
        facet_str(rep["belt_witness"][0]),
        facet_str(rep["belt_witness"][1]),
    ))
    print("dual diameter: %d (between %s and %s)" % (
        rep["dual_diameter"],
        facet_str(rep["dual_witness"][0]),
        facet_str(rep["dual_witness"][1]),
    ))
    print("bound dual <= belt + 1: %s" % ("holds" if rep["bound_holds"] else "VIOLATED"))
    return EXIT_OK if rep["bound_holds"] else EXIT_VIOLATION


def _require_colored(g):
    if not isinstance(g, ColoredZGraph):
        raise FileFormatError("this command needs a colored graph file (edge tags \"r\"/\"b\")")
    return g


def cmd_symmetric(args):
    g = _require_colored(load_graph(args.file))
    if args.mode == "check":
        rep = symmetric.build_report(g)
        print("conjugate: %s" % ("yes" if rep.conjugate else "no"))
        for reason in rep.reasons:
            print("  %s" % reason)
        if rep.conjugate:
            leaf = rep.common_leaf
            print("common leaf: %s" % ("none" if leaf is None else str(leaf + 1)))
            print("red-blue distance: %d" % rep.red_blue_distance)
        print("bipartite: %s" % ("yes" if rep.bipartite else "no"))
        return EXIT_OK if rep.conjugate else EXIT_VIOLATION
    # mode == "distance"
    print(symmetric.red_blue_distance(g))
    return EXIT_OK


GENERATOR_KINDS = ("k2dm1", "odd-extremal", "even-extremal", "permutahedron")


def _resolve_family_param(kind: str, d, n):
    """Family index n for the odd (d = 2n+3) / even (d = 2n+4) witnesses."""
    lo, off = (2, 3) if kind == "odd-extremal" else (3, 4)
    if n is None:
        if d is None:
            raise FileFormatError("%s needs --n or --d" % kind)
        n, rem = divmod(d - off, 2)
        if rem or n < lo:
            raise FileFormatError("%s has no instance with d=%d" % (kind, d))
    elif n < lo:
        raise FileFormatError("%s needs n >= %d" % (kind, lo))
    if d is not None and d != 2 * n + off:
        raise FileFormatError("inconsistent --d %d and --n %d (d = 2n+%d)" % (d, n, off))
    return n


def symmetry_report_json(rep: symmetric.SymmetryReport) -> dict:
    return {
        "conjugate": rep.conjugate,
        "reasons": rep.reasons,
        "common_leaf": None if rep.common_leaf is None else rep.common_leaf + 1,
        "red_blue_distance": rep.red_blue_distance,
        "bipartite": rep.bipartite,
        "red_facet": facet_str(rep.red_facet) if rep.red_facet else None,
        "blue_facet": facet_str(rep.blue_facet) if rep.blue_facet else None,
    }


def cmd_generate(args):
    kind = args.kind
    if kind in ("k2dm1", "permutahedron"):
        if args.d is None:
            raise FileFormatError("%s needs --d" % kind)
        if args.n is not None:
            raise FileFormatError("%s takes no --n" % kind)
        fn = symmetric.gen_k2dm1 if kind == "k2dm1" else symmetric.permutahedron_graph
        out = fn(args.d)
    else:
        n = _resolve_family_param(kind, args.d, args.n)
        fn = symmetric.gen_odd_extremal if kind == "odd-extremal" \
            else symmetric.gen_even_extremal
        out = fn(n)
    doc = format_graph_file(emit_graph_file(out))
    if isinstance(out, ColoredZGraph):
        report = {"kind": kind, "dimension": out.base.n - 1,
                  **symmetry_report_json(symmetric.build_report(out))}
    else:
        report = {"kind": kind, "dimension": out.n - 1, "vertices": out.n}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
        print(json.dumps(report, indent=2))
    else:
        print(doc)
        print(json.dumps(report, indent=2), file=sys.stderr)
    return EXIT_OK


def cmd_search(args):
    if args.what == "extremal":
        if args.d is None:
            raise FileFormatError("search extremal needs --d")
        if args.seed is not None:
            raise FileFormatError("search extremal takes no --seed")
        res = symmetric.search_extremal(args.d, budget_seconds=args.budget,
                                        max_nodes=args.max_nodes)
    else:   # what == "d8"
        if args.d is not None:
            raise FileFormatError("search d8 takes no --d")
        res = symmetric.search_d8_nonsymmetric(budget_seconds=args.budget,
                                               max_nodes=args.max_nodes,
                                               seed=1 if args.seed is None else args.seed)
    print("status: %s" % res.status)
    print("nodes: %d" % res.nodes)
    print("elapsed: %.1fs" % res.elapsed)
    if args.what == "extremal":
        if res.status == "found":
            print("distance: %d" % res.distance)
            print(json.dumps(emit_graph_file(res.witness)))
        return EXIT_OK if res.status in ("found", "none") else EXIT_INCONCLUSIVE
    if res.status in ("found", "violation"):
        g, f1, f2 = res.witness
        print("distance: %d" % res.distance)
        print("from: %s" % facet_str(f1))
        print("to: %s" % facet_str(f2))
        print(json.dumps(emit_graph_file(g)))
        return EXIT_OK if res.status == "found" else EXIT_VIOLATION
    return EXIT_INCONCLUSIVE


def cmd_sweep(args):
    rep = sweep.run_sweep(args.max_n, seed=args.seed)
    csv_text = sweep.report_csv(rep)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text + "\n")
    else:
        print(csv_text)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(sweep.report_json(rep), fh, indent=2)
            fh.write("\n")
    for v in rep.violations:
        print("violation: %s" % v, file=sys.stderr)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


def cmd_oracle(args):
    g = base_of(load_graph(args.file))
    try:
        agree = sweep.oracle_agrees(g)
    except oracle.OracleBudgetError as exc:
        print("unverified by oracle: %s" % exc)
        return EXIT_INCONCLUSIVE
    print("oracle agreement: %s" % ("yes" if agree else "MISMATCH"))
    return EXIT_OK if agree else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# dispatch


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="zonobelt",
        description="Belt and dual diameters of graphical zonotopes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="graph summary")
    p.add_argument("file")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("facets", help="list facet partitions")
    p.add_argument("file")
    p.set_defaults(fn=cmd_facets)

    p = sub.add_parser("belts", help="list codimension-2 cores with belt sizes")
    p.add_argument("file")
    p.set_defaults(fn=cmd_belts)

    p = sub.add_parser("venkov", help="export the Venkov graph")
    p.add_argument("file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_venkov)

    p = sub.add_parser("belt-diameter", help="diameter of the Venkov graph")
    p.add_argument("file")
    p.set_defaults(fn=cmd_belt_diameter)

    p = sub.add_parser("belt-distance", help="belt distance between two facets")
    p.add_argument("file")
    p.add_argument("--from", dest="from_", required=True, metavar="A|B")
    p.add_argument("--to", required=True, metavar="C|D")
    p.set_defaults(fn=cmd_belt_distance)

    p = sub.add_parser("dual-diameter", help="diameter of the dual graph")
    p.add_argument("file")
    p.add_argument("--check-bound", action="store_true",
                   help="also verify dual <= belt + 1 with witnesses")
    p.set_defaults(fn=cmd_dual_diameter)

    p = sub.add_parser("symmetric", help="conjugate coloring checks")
    p.add_argument("mode", choices=("check", "distance"))
    p.add_argument("file")
    p.set_defaults(fn=cmd_symmetric)

    p = sub.add_parser("generate", help="write a named construction")
    p.add_argument("kind", choices=GENERATOR_KINDS)
    p.add_argument("--d", type=int, help="target dimension")
    p.add_argument("--n", type=int, help="family index for the odd/even witnesses")
    p.add_argument("--out", help="write the graph file here instead of stdout")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("search", help="extremal searches")
    p.add_argument("what", choices=("extremal", "d8"))
    p.add_argument("--d", type=int, help="dimension (search extremal)")
    p.add_argument("--budget", type=float, default=None, metavar="SECONDS")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--seed", type=int, help="restart seed (search d8, default 1)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("sweep", help="verify diameter bounds over all small graphs")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--seed", type=int, default=20260815)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("oracle", help="independent facet/belt verification")
    p.add_argument("mode", choices=("verify",))
    p.add_argument("file")
    p.set_defaults(fn=cmd_oracle)

    return top


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION


def main(argv=None) -> int:
    try:
        code = cli_dispatch(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); point it at devnull so
        # the interpreter's final flush does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
