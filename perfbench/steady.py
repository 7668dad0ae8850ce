"""Steadiness check: repeat a workload over seeds and compare the spread.

    python3 perfbench/steady.py --workload query-mix

Runs ``run.py`` once per seed, one run at a time, with the run length of
BENCHMARK.json: two sets of ten runs, seeds 1..10 and 11..20.  For every
end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance over the median) of each set, next to the
metric's bound.  A set is steady when every spread stays within its
bound; two sets agree when every metric's second median differs from the
first, in either direction, by at most its bound.  Exits 1 when a set is
not steady or the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("seed %d exited %d: %s" % (seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR over median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def change(first: float, second: float) -> float:
    """How far the second median lies from the first, as a share of it."""
    return abs(second - first) / first


def run_set(workload: str, seeds, seconds: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        result = one_run(workload, seed, seconds)
        if not result["correct"]:
            raise RuntimeError("seed %d: %d of %d operations failed"
                               % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("  seed %-4d %s" % (seed, "  ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())), flush=True)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    medians = []
    for k in range(SETS):
        first = 1 + k * RUNS
        print("set %d: %s, seeds %d..%d, %ds each"
              % (k + 1, args.workload, first, first + RUNS - 1, seconds), flush=True)
        values = run_set(args.workload, range(first, first + RUNS), seconds)
        medians.append({})
        for name, m in metrics.items():
            median, q1, q3, s = spread(values[name])
            medians[-1][name] = median
            verdict = "ok" if s <= m["bound"] / 3 else "WIDE" if s <= m["bound"] else "OVER"
            if verdict == "OVER":
                ok = False
            print("  %-18s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f bound %.2f %s"
                  % (name, median, q1, q3, s, m["bound"], verdict))
    print("agreement of set 2 with set 1:")
    for name, m in metrics.items():
        c = change(medians[0][name], medians[1][name])
        agree = c <= m["bound"]
        ok = ok and agree
        print("  %-18s differs by %.4f bound %.2f %s" % (name, c, m["bound"], "ok" if agree else "DISAGREE"))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
