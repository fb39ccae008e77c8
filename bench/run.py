"""Benchmark of orbitzeta: one command per workload run.

    python3 bench/run.py --workload orbits --seed 1 --seconds 1 --trace 0

Runs from the root of a source checkout and imports `orbitzeta` from its
`src/`.  A run writes the workload's seeded input files, then repeats whole
rounds of the workload's operations for at least `--seconds` seconds (at
least two rounds; one per half in a traced run) and checks every answer
against `oracles`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics:

* `--trace 0`: setup_s (median over fresh interpreters of import plus input
  writing), solve_s (median round wall time of the operations) and
  peak_rss_mb (getrusage peak of this process).
* `--trace 1`: untraced rounds for the first half of the time, then traced
  rounds; the per-layer metrics of `tracer` per traced round, and the
  tracing overhead against the untraced rounds.  Spans go to
  bench/out/spans-<workload>-<seed>.json.

Exit status 1 on a wrong answer, 2 when the checkout has no orbitzeta
source.  One process, no worker threads; BLAS/OpenMP pools are pinned to a
single thread before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# setup_s is the median of this many fresh interpreters, half of them
# before the rounds and half after, so that it spans the run like solve_s
SETUP_PROBES = 8
# timed runs average at least two rounds: on the 2-core development box,
# consecutive rounds of 6 to 20 s differ by about 10 %
MIN_ROUNDS = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("orbits", "characters", "abelianization", "mq-zeta"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR",
                    help="internal: import, write inputs into DIR, print the ready time")
    return ap.parse_args(argv)


def _import_program():
    """Import orbitzeta from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "orbitzeta", "__init__.py")):
        raise FileNotFoundError(f"no orbitzeta source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import orbitzeta
    if not os.path.abspath(orbitzeta.__file__).startswith(SRC + os.sep):
        raise ImportError(f"orbitzeta imported from {orbitzeta.__file__}, not {SRC}")
    return orbitzeta


def _prepare(workload: str, seed: int, directory: str):
    import workloads
    os.makedirs(directory, exist_ok=True)
    return workloads.PREPARE[workload](workloads.Context(seed, directory))


def _setup_probe(args) -> int:
    _import_program()
    _prepare(args.workload, args.seed, args.setup_probe)
    print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
    return 0


def _setup_times(args, scratch: str, probes: int) -> list[float]:
    """Start to ready (imported, inputs written) of `probes` fresh
    interpreters, read off the system-wide monotonic clock."""
    times = []
    for i in range(probes):
        directory = os.path.join(scratch, f"probe{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", directory]
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
        shutil.rmtree(directory, ignore_errors=True)
    return times


class Runner:
    """Runs rounds of operations; counts attempts, failures, wrong answers.

    An exception from an operation's call is a failed operation; an
    exception from its check is a wrong answer."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._reported: set[str] = set()

    def round(self) -> float:
        gc.collect()    # every round starts from the same collector state
        busy = 0.0
        for op in self.ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.call()
            except (Exception, SystemExit):
                busy += time.perf_counter() - start
                self.failed += 1
                self._report(op.label, traceback.format_exc())
                continue
            busy += time.perf_counter() - start
            try:
                op.check(result)
            except (Exception, SystemExit):
                # Any exception in a check, not only WrongAnswer, means the
                # answer could not be confirmed: the whole run is wrong.
                self.wrong.append(f"{op.label}\n{traceback.format_exc()}")
        return busy

    def _report(self, label: str, text: str) -> None:
        if label not in self._reported:
            self._reported.add(label)
            print(f"operation failed: {label}\n{text}", file=sys.stderr)

    def repeat(self, seconds: float, min_rounds: int = 1) -> list[float]:
        """Whole rounds until `seconds` of wall time have passed and at
        least `min_rounds` rounds have run."""
        start = time.perf_counter()
        times = [self.round()]
        while len(times) < min_rounds or time.perf_counter() - start < seconds:
            times.append(self.round())
        return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    try:
        _import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    scratch = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup = [] if args.trace else _setup_times(args, scratch, SETUP_PROBES // 2)
        data = _prepare(args.workload, args.seed, scratch)
        runner = Runner(workloads.OPERATIONS[args.workload](data, scratch))
        ready_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            metrics = _traced(runner, args)
        else:
            solve = runner.repeat(args.seconds, MIN_ROUNDS)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup += _setup_times(args, scratch, SETUP_PROBES - len(setup))
            metrics = {"setup_s": _metric(statistics.median(setup), "s"),
                       "solve_s": _metric(statistics.median(solve), "s"),
                       "peak_rss_mb": _metric(peak_mb, "MB")}
            print(f"bench: {len(solve)} rounds, round times {solve}; peak RSS "
                  f"{ready_mb:.1f} MB before the rounds", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for msg in runner.wrong[:20]:
        print(f"wrong answer: {msg}", file=sys.stderr)
    result = {"correct": not runner.wrong, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _traced(runner: Runner, args) -> dict:
    import tracer

    plain = runner.repeat(args.seconds / 2)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = runner.repeat(args.seconds / 2)
    finally:
        tr.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tr.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
    metrics = tracer.layer_metrics(tr.spans, tr.counts, len(traced))
    base, with_trace = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_pct"] = _metric(100 * (with_trace - base) / base, "%")
    print(f"bench: untraced rounds {plain}, traced rounds {traced}", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
