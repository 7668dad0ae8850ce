"""Benchmark for the zonobelt library: one workload per run, one process.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Imports the library from ``src/`` of the checkout it sits in, builds the
workload's inputs from ``--seed``, serves whole rounds of requests until
``--seconds`` have passed, checks every answer, and prints a table followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, with every time scaled to
the nominal host speed sampled by ``Pace``.  ``--trace 1`` serves rounds
untraced for half the time, then the same rounds again with every layer
instrumented, and reports the per-layer metrics (see tracing.py) with the
traced/untraced service-time ratio; the span table is written to
``.perfbench_out/``.  ``--workload all`` runs every workload in turn, each
in a fresh child process so that ``peak_rss_mb`` is that workload's own.

Exit status: 0 all answers correct, 1 a check failed, 2 the library could
not be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import referee
from tracing import LAYERS, Tracer, warn_missing
from workloads import WORKLOADS, adjacency, connected, serve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 25
SETUP_REF_UNITS = 20

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class LibraryMissing(Exception):
    pass


# fixed reference work for Pace: connectivity tests on one 10-vertex graph
_REF_ADJ = adjacency(10, [(i, (3 * i + 1) % 10) for i in range(10)] + [(i, i + 5) for i in range(5)])


def _reference_unit():
    for mask in range(1, 481):
        connected(_REF_ADJ, mask)


class Pace:
    """How fast the host runs right now, next to a fixed nominal speed.

    Shared hosts drift in speed by a quarter or more over tens of seconds,
    which would swamp any change under test.  While a Pace is active, an
    interval timer interrupts the process every ``INTERVAL_S`` and the
    handler times one fixed reference unit, so the samples cover long
    library calls as well as short ones.  The reference unit builds no
    containers, so it never triggers the garbage collector and cannot be
    slowed by what the library keeps alive.  ``clock()`` leaves out the
    time spent in the handler.  A slowdown is the sampled time per unit
    over ``NOMINAL_S``.
    """

    NOMINAL_S = 3e-4      # one _reference_unit() on the reference host
    INTERVAL_S = 0.02

    def __init__(self):
        self.seconds = 0.0
        self.samples = 0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference_unit()
        self.seconds += time.perf_counter() - start
        self.samples += 1

    def clock(self) -> float:
        """perf_counter() minus the time spent taking samples."""
        return time.perf_counter() - self.seconds

    def mark(self) -> tuple[float, int]:
        return self.seconds, self.samples

    def slowdown(self, since: tuple[float, int] = (0.0, 0)) -> float:
        """Slowdown over the samples taken after ``since`` (a ``mark()``),
        or over all samples when none were taken since then."""
        samples = self.samples - since[1]
        if samples:
            return (self.seconds - since[0]) / (samples * self.NOMINAL_S)
        return self.slowdown() if self.samples else 1.0


def import_library() -> SimpleNamespace:
    """Import (or re-import) the layer modules from this checkout's src/."""
    if not (SRC / "zonobelt" / "__init__.py").is_file():
        raise LibraryMissing("no zonobelt package under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "zonobelt" or m.startswith("zonobelt.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("zonobelt." + name) for name in LAYERS}
    if not Path(mods["zgraph"].__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing("zonobelt imported from %s, not %s" % (mods["zgraph"].__file__, SRC))
    return SimpleNamespace(**mods)


def set_up(name: str, seed: int, repeats: int = SETUP_REPEATS, **size):
    """Import the library and build the inputs ``repeats`` times.

    Returns the last library and workload and the median set-up time at
    nominal host speed.  A set-up lasts too few Pace intervals to be paced
    by them, so each one is divided by the slowdown of ``SETUP_REF_UNITS``
    reference units timed just before it.
    """
    times = []
    for _ in range(repeats):
        gc.collect()    # frees the previous copy of the modules, off the clock
        start = time.perf_counter()
        for _ in range(SETUP_REF_UNITS):
            _reference_unit()
        slowdown = (time.perf_counter() - start) / (SETUP_REF_UNITS * Pace.NOMINAL_S)
        start = time.perf_counter()
        lib = import_library()
        workload = WORKLOADS[name](lib, seed, **size)
        times.append((time.perf_counter() - start) / slowdown)
    return lib, workload, statistics.median(times)


def measure(workload, seconds: float | None = None, rounds: int | None = None):
    """Serve whole rounds until ``seconds`` have passed, or exactly ``rounds``.

    Returns (ops, paced, rounds served, wall seconds), where ``paced[i]``
    is the service time of ``ops[i]`` divided by the slowdown sampled
    during its round (see Pace).  At least one round runs.
    """
    ops, paced = [], []
    served = 0
    start = time.perf_counter()
    with Pace() as pace:
        while True:
            mark = pace.mark()
            batch = [serve(req, pace.clock) for req in workload.round(served)]
            slowdown = pace.slowdown(mark)
            ops += batch
            paced += [op.seconds / slowdown for op in batch]
            served += 1
            if rounds is not None:
                if served >= rounds:
                    break
            elif time.perf_counter() - start >= seconds:
                break
    return ops, paced, served, time.perf_counter() - start


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops, paced, setup_s: float, rss_mb: float) -> dict:
    """Throughput over summed service time; latency over every request.

    Times are at nominal host speed (see Pace).
    """
    latencies = [t * 1000.0 for t in paced]
    values = {
        "throughput_per_s": sum(op.units for op in ops) / sum(paced),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, **size) -> dict:
    """Set up, measure, check; returns the result object to print."""
    lib, workload, setup_s = set_up(name, seed, **size)
    if not trace:
        ops, paced, rounds, wall = measure(workload, seconds)
        metrics = end_to_end(ops, paced, setup_s, peak_rss_mb())
        info = "rounds=%d requests=%d wall_s=%.3f slowdown=%.4f" % (
            rounds, len(ops), wall, sum(op.seconds for op in ops) / sum(paced))
    else:
        untraced, paced, rounds, wall = measure(workload, seconds / 2)
        with Tracer(lib) as tracer:
            traced, traced_paced, _, traced_wall = measure(workload, rounds=rounds)
        warn_missing(tracer)
        table = tracer.summary()
        metrics = tracer.layer_metrics(table, sum(traced_paced) / sum(paced))
        tracer.write(OUT / ("trace-%s-seed%d.json" % (name, seed)),
                     {"workload": name, "seed": seed, "rounds": rounds,
                      "untraced_wall_s": wall, "traced_wall_s": traced_wall}, table)
        ops = untraced + traced
        info = "rounds=%d (twice) requests=%d untraced_s=%.3f traced_s=%.3f spans=%d" % (
            rounds, len(ops), wall, traced_wall, len(tracer.spans))
    ops = ops + [serve(req) for req in workload.check_requests()]
    failed, problems = referee.check(workload, ops, lib)
    attempted = sum(op.units for op in ops)
    print("# %s seed=%d %s" % (name, seed, info))
    for metric, m in metrics.items():
        print("  %-48s %16.6f %s" % (metric, m["value"], m["unit"]))
    print("  %-48s %16.6f (%d failed / %d attempted)"
          % ("error_rate", failed / attempted, failed, attempted))
    for line in problems[:20]:
        print("  FAIL %s" % line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Run each workload in its own child process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        if proc.returncode == 2:
            return 2
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
