"""Benchmark of budwta: three seeded workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports budwta from the
checkout's src/ and refuses to run without it.  One process runs one
workload as a closed loop with one client and no threads: each op starts
when the previous one has finished.

A run does a fixed amount of work: --seconds divided by the workload's
round time at the seed commit, rounded, gives the number of rounds, so
every commit is measured on the same ops and the tail is always the same
percentile.  A run sets the inputs up SETUPS times (setup_s is the
median), warms up on one op of each family built from another seed, then
runs the rounds.  An op that outlives the workload's deadline is stopped
by SIGALRM and counts as failed, as does an op that raises or answers
wrong.  Failed ops rank above every completed op in both latency
percentiles.

The time of every op and of every round's build is scaled to a
reference speed by the probes run around it (see Probe), so setup_s,
ops_per_s, op_p50_ms and op_tail_ms read what the work would take on
the machine at that speed; ops_per_s is the number of correct ops over
the scaled time of all ops.  An op stopped at its deadline counts its
wall time, which the deadline sets.  The raw times and the probe's own
times go on the details line.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
with the end-to-end metrics for --trace 0 and the per-layer metrics
(tracing.py) for --trace 1.  The line before it holds details: the error
rate with its base count, failures by family and known defect, and the
percentile and sample count of op_tail_ms.  A traced run does two rounds
of the same composition, known-defect ops included, the first untraced
and the second traced; the difference of their op times, leaving out
ops stopped at the deadline, is the tracing overhead.  Its spans go to
bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3  # setups per run; setup_s is their median
PROBE_WINDOW = 8  # an op's speed is the median probe of the ops this close to it
PROBE_REF_S = 0.002  # probe time at the reference speed that timings are scaled to
SETUP_PROBES = 5  # probes between two rounds' builds in a setup
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it
TRACE_DEADLINE_FACTOR = 4  # tracing slows ops; keep the same ops within the deadline


class Sample(NamedTuple):
    family: str
    outcome: str  # "ok", "wrong", "deadline" or the exception's name
    seconds: float
    defect: Optional[str]

    @property
    def failed(self) -> bool:
        return self.outcome != "ok"


class Deadline(BaseException):
    """Raised by SIGALRM in an op that outlived its deadline."""


class _Alarm:
    armed = False

    @classmethod
    def fire(cls, signum, frame) -> None:
        if cls.armed:
            raise Deadline()


class Probe:
    """A fixed piece of the benchmark's own code, timed to follow the
    machine's speed.

    The host of a small virtual machine changes its speed by up to a
    factor of two within seconds, as its neighbours come and go, so a
    timing taken at one moment cannot be compared with one taken at
    another.  The probe writes a fixed tree as text, reads it back and
    evaluates it with the generator's reference evaluator: text, tuples,
    dicts and small numbers, the kinds of work the program does.  It runs
    before every op, and each op's time is scaled by PROBE_REF_S over the
    median probe of the ops around it: it reads what the op would take at
    the reference speed.  The probe never calls budwta, so a change to the
    program moves the scaled times in the same proportion as the raw ones.
    The scaling is not exact: under load the program's ops slowed by the
    probe's slowdown to the power 0.7 to 0.85, so in a slow phase the
    scaled times read a little low.
    """

    def __init__(self) -> None:
        rng = random.Random("speed-probe")
        self.model = gen.random_total(rng, "rational", 16)
        self.tree = gen.random_shape(rng, 1000)
        self.times: List[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        self.model.run(gen.read_tree(gen.tree_text(self.tree)))
        took = time.perf_counter() - start
        self.times.append(took)
        return took

    def scales(self) -> List[float]:
        """Per probe, PROBE_REF_S over the median probe within PROBE_WINDOW."""
        t, k = self.times, PROBE_WINDOW
        return [PROBE_REF_S / statistics.median(t[max(0, i - k):i + k + 1]) for i in range(len(t))]


def run_op(op, deadline_s: float) -> Sample:
    """Run one op under its deadline, then check its answer.

    Afterwards the heap is collected and frozen, outside the timing, so
    that the next op's garbage collections do not scan what earlier ops
    left behind (such as process-global cache entries): each op sees the
    collector as a fresh `budwta` process would.  What they leave behind
    still shows in peak_rss_mb.
    """
    outcome = None
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    _Alarm.armed = True
    start = time.perf_counter()
    try:
        result = op.run()
        _Alarm.armed = False
    except Deadline:
        outcome = "deadline"
    except Exception as exc:  # the op failed; the run goes on
        outcome = type(exc).__name__
    finally:
        took = time.perf_counter() - start
        _Alarm.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    if outcome is None:
        outcome = "ok" if op.check(result) else "wrong"
    gc.collect()
    gc.freeze()
    return Sample(op.family, outcome, took, op.defect)


def ranked(samples: List[Sample]) -> List[Sample]:
    return sorted(samples, key=lambda s: (s.failed, s.seconds))


def percentiles(samples: List[Sample]) -> Dict[str, object]:
    """Median and tail latency; failed ops rank above every completed op."""
    order = ranked(samples)
    n = len(order)
    mid = order[(n - 1) // 2]
    tail_rank = max(n - TAIL_BEYOND - 1, 0)
    tail = order[tail_rank]
    return {
        "p50": mid, "tail": tail,
        "tail_percentile": 100.0 * (tail_rank + 1) / n, "samples": n,
        "samples_beyond_tail": n - tail_rank - 1,
    }


def setup(workload, seed: int, workdir: Path, n_rounds: int, probe: Probe):
    """Build the rounds SETUPS times.  Each round's build is scaled by
    the median of the probes run just before and just after it."""
    times, rounds = [], []
    for _ in range(SETUPS):
        rounds = []  # drop the previous setup's inputs first
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        took = 0.0
        before = [probe() for _ in range(SETUP_PROBES)]
        for r in range(n_rounds):
            start = time.perf_counter()
            rounds.append(workload.build(str(seed), r, workdir))
            build_s = time.perf_counter() - start
            after = [probe() for _ in range(SETUP_PROBES)]
            took += build_s * PROBE_REF_S / statistics.median(before + after)
            before = after
        times.append(took)
    return rounds, statistics.median(times)


def warm_up(workload, seed: int, workdir: Path, deadline_s: float) -> None:
    """One op of each family without a known defect, from another seed,
    so that no timed op finds its answer in a cache."""
    workdir.mkdir()
    seen = set()
    for op in workload.build(f"warm-up-{seed}", 0, workdir):
        if op.defect is None and op.family not in seen:
            seen.add(op.family)
            run_op(op, deadline_s)


def run_rounds(rounds, deadline_s: float, probe: Probe, tracer=None):
    """Every op of every round, in order, each after a probe."""
    samples: List[Sample] = []
    rss_mb = None
    first_probe = len(probe.times)
    start = time.perf_counter()
    for ops in rounds:
        for op in ops:
            probe()
            if tracer is not None:
                tracer.start_op(len(samples))
            samples.append(run_op(op, deadline_s))
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = time.perf_counter() - start
    # an op stopped at its deadline took the deadline, at any speed
    scales = probe.scales()[first_probe:]
    scaled = [s if s.outcome == "deadline" else s._replace(seconds=s.seconds * f)
              for s, f in zip(samples, scales)]
    return samples, scaled, wall, rss_mb


def failure_details(samples: List[Sample]) -> Dict[str, object]:
    failed = [s for s in samples if s.failed]
    return {
        "error_rate": {"value": len(failed) / len(samples), "failed": len(failed),
                       "attempted": len(samples)},
        "failures": dict(Counter(f"{s.family}: {s.outcome}" for s in failed)),
        "known_defects": dict(Counter(s.defect for s in failed if s.defect)),
        "unexpected_failures": sum(1 for s in failed if not s.defect),
    }


def measure(workload, args, workdir: Path):
    # a fixed amount of work: as many rounds as fit in --seconds at the
    # seed commit's speed, so that every run of every commit has the same
    # number of samples and the tail is the same percentile
    n_rounds = 3 if args.trace else max(1, round(args.seconds / workload.round_s))
    probe = Probe()
    rounds, setup_s = setup(workload, args.seed, workdir, n_rounds, probe)
    details: Dict[str, object] = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                                  "rounds": n_rounds, "ops_per_round": len(rounds[0])}
    deadline = workload.deadline_s * (TRACE_DEADLINE_FACTOR if args.trace else 1)
    warm_up(workload, args.seed, workdir / "warm-up", deadline)
    gc.collect()
    gc.freeze()
    if not args.trace:
        samples, scaled, wall, rss_mb = run_rounds(rounds, deadline, probe)
        ok = sum(1 for s in samples if not s.failed)
        busy = sum(s.seconds for s in scaled)
        pct, raw = percentiles(scaled), percentiles(samples)
        metrics = {
            "setup_s": setup_s, "ops_per_s": ok / busy,
            "op_p50_ms": 1000 * pct["p50"].seconds, "op_tail_ms": 1000 * pct["tail"].seconds,
            "ok_share": ok / len(samples), "peak_rss_mb": rss_mb,
        }
        details.update(wall_s=wall, raw={"busy_s": sum(s.seconds for s in samples),
                                         "op_p50_ms": 1000 * raw["p50"].seconds,
                                         "op_tail_ms": 1000 * raw["tail"].seconds},
                       probe_ms={"median": 1000 * statistics.median(probe.times),
                                 "q1_q3": [1000 * q for q in statistics.quantiles(probe.times, n=4)[::2]]},
                       deadline_s=deadline, peak_rss_after_round=0,
                       op_p50={"failed_op": pct["p50"].failed},
                       op_tail={"percentile": pct["tail_percentile"], "samples": pct["samples"],
                                "samples_beyond": pct["samples_beyond_tail"],
                                "failed_op": pct["tail"].failed},
                       **failure_details(samples))
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "ok_share": "share", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        silent: List[str] = []
    else:
        import tracing
        # rounds 1 and 2 have the same composition, known-defect ops included
        plain, _, plain_wall, _ = run_rounds(rounds[2:], deadline, probe)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _, traced_wall, _ = run_rounds(rounds[1:2], deadline, probe, tracer)
        finally:
            tracer.uninstall()
        samples = plain + traced
        silent = tracer.silent(workload.name)
        # an op stopped at the deadline takes the deadline, traced or not
        def busy(ss):
            return sum(x.seconds for x in ss if x.outcome != "deadline")
        metrics = tracer.metrics(busy(traced) - busy(plain))
        spans_file = BENCH / "out" / f"trace-{workload.name}-{args.seed}.jsonl"
        tracer.write_spans(spans_file)
        details.update(untraced_round_s=plain_wall, traced_round_s=traced_wall,
                       deadline_s=deadline, silent_wrappers=silent, absent_functions=tracer.absent,
                       spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)),
                       **failure_details(samples))
    failed = sum(1 for s in samples if s.failed)
    wrong = sum(1 for s in samples if s.outcome == "wrong")
    result = {"correct": wrong == 0 and not silent, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    return details, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import budwta
    except ImportError as exc:
        print(f"error: budwta not found under {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(budwta.__file__).resolve().parents:
        print(f"error: budwta was imported from {budwta.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _Alarm.fire)
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        details, result = measure(workloads.WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
