"""spliths benchmark: three seeded workloads, end-to-end and per-layer.

    python3 bench/run.py --workload coarse-corpus --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  One
closed-loop client runs items back to back in this process, whole passes of
the workload's stream, until the wall time of its items is nearest to
--seconds.
Every output is checked outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first pass
once untraced and once traced, reports per-layer metrics from the traced
pass and the difference in time as trace.overhead_share; on coarse-corpus it
then runs the untransformed baseline configs traced, prints their table and
checks their LP-call counts.  A traced run does a fixed amount of work, so
its counts repeat exactly for a seed.

Lines starting with '#' are information; the last line is the JSON result.
Workloads, metrics, predictions and known costs: bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("coarse-corpus", "thin-lens", "fiber-structure")
SETUP_REPEATS = 7
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import spliths; "
                "print(time.perf_counter() - t)")

# Shared machines drift in speed: on a 2-core box one analyze took 4.4 s,
# 5.3 s and 6.9 s within a minute, and whole 30 s runs differed by 25%.
# Every reported time is therefore rescaled to a reference speed.  A fixed
# Fraction workload (the program's hot arithmetic, but none of its code) is
# timed before and after each measurement, and seconds are multiplied by
# REFERENCE_S over the mean of the two probes.  Wall seconds are printed on
# '#' lines.
REFERENCE_S = 0.008
PROBE_REPEATS = 5


def speed_probe():
    """Median seconds of a fixed Fraction workload: the machine's speed now."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 1200):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def at_reference(seconds, probe_before, probe_after):
    return seconds * 2 * REFERENCE_S / (probe_before + probe_after)


def load_program():
    """Import spliths from ./src and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "spliths")):
        raise ImportError("no spliths package under %s" % SRC)
    sys.path.insert(0, SRC)
    import spliths

    if not os.path.abspath(spliths.__file__).startswith(SRC + os.sep):
        raise ImportError("spliths imported from %s, not %s"
                          % (spliths.__file__, SRC))


class Tally:
    """Latencies, check failures and verdict counts of the items run."""

    def __init__(self):
        self.labels = []
        self.raw = []       # wall seconds per item
        self.seconds = []   # the same at the reference speed
        self.failed = 0
        self.decided = 0
        self.verdicts = 0
        self.probe = None   # the latest speed probe

    def add(self, label, raw):
        after = speed_probe()
        self.labels.append(label)
        self.raw.append(raw)
        self.seconds.append(at_reference(raw, self.probe, after))
        self.probe = after


def run_item(workload, item, tally, tracer=None):
    """Run one item timed, then check it untimed and untraced."""
    import checks
    import tracer as tracing
    import workloads

    if tally.probe is None:
        tally.probe = speed_probe()
    start = time.perf_counter()
    try:
        output = workloads.RUNNERS[workload](item)
        error = None
    except Exception:  # an item that raises is a failed item, not a crash
        output, error = None, traceback.format_exc()
    raw = time.perf_counter() - start

    with tracing.Suspended(tracer):
        tally.add(item.label, raw)
        if error is None:
            try:
                problems = checks.check(workload, output, item,
                                        workloads.CORPUS)
                decided, total = checks.decided_counts(workload, output)
            except Exception:  # a malformed output fails its check
                problems, decided, total = [traceback.format_exc()], 0, 0
        else:
            problems, decided, total = [error], 0, 0
    tally.decided += decided
    tally.verdicts += total
    if problems:
        tally.failed += 1
        sys.stderr.write("FAILED %s %s:\n  %s\n  %s\n"
                         % (workload, item.label, item.text,
                            "\n  ".join(problems)))


def measure_setup(workload, seed):
    """Median fresh import of spliths plus median input generation+parse,
    as (wall seconds, seconds at the reference speed)."""
    import workloads

    before = speed_probe()
    imports = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                               capture_output=True, text=True, timeout=120,
                               check=True)
        imports.append(float(probe.stdout))
    inputs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workloads.parse_inputs(next(workloads.passes(workload, seed)))
        inputs.append(time.perf_counter() - start)
    raw = statistics.median(imports) + statistics.median(inputs)
    return raw, at_reference(raw, before, speed_probe())


def tail_line(seconds):
    """Highest percentile with at least 10 samples beyond it."""
    n = len(seconds)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(seconds, n=100)[p - 1]
            return "# item_s_p%d: %.6f s (n=%d)" % (p, value, n)
    return "# item_s tail: fewer than 20 items (n=%d), median only" % n


def end_to_end(workload, seed, seconds):
    import workloads

    setup_wall, setup_s = measure_setup(workload, seed)
    tally = Tally()
    passes = 0
    for items in workloads.passes(workload, seed):
        for item in items:
            run_item(workload, item, tally)
        passes += 1
        busy = sum(tally.raw)
        if busy + 0.5 * busy / passes >= seconds:
            break
    n = len(tally.seconds)
    print("# passes: %d, items: %d, busy: %.3f s wall" % (passes, n, busy))
    print("# wall: setup_s %.6f, items_per_s %.6f, item_s_p50 %.6f"
          % (setup_wall, n / busy, statistics.median(tally.raw)))
    print(tail_line(tally.seconds))
    for label in dict.fromkeys(tally.labels):
        own = [s for s, l in zip(tally.seconds, tally.labels) if l == label]
        print("# %-12s n=%-3d median %.3f s" % (label, len(own),
                                                statistics.median(own)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n / sum(tally.seconds), "1/s"),
        "item_s_p50": (statistics.median(tally.seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "decided_share": (tally.decided / tally.verdicts
                          if tally.verdicts else 0.0, "ratio"),
        "ok_share": ((n - tally.failed) / n, "ratio"),
    }
    return n, tally.failed, {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}


def traced(workload, seed):
    import tracer as tracing
    import workloads

    items = next(workloads.passes(workload, seed))
    tracer = tracing.Tracer()
    plain = Tally()
    for item in items:
        run_item(workload, item, plain)
    tracer.install()
    try:
        with_trace = Tally()
        for item in items:
            run_item(workload, item, with_trace, tracer)
        overhead = sum(with_trace.seconds) / sum(plain.seconds) - 1
        metrics = tracing.layer_metrics(tracer, overhead)
        base = Tally()
        if workload == "coarse-corpus":
            base_table(tracer, base)
    finally:
        tracer.uninstall()
    print("# traced pass: %d items, %.3f s untraced, %.3f s traced "
          "(reference speed)" % (len(items), sum(plain.seconds),
                                 sum(with_trace.seconds)))
    tallies = (plain, with_trace, base)
    return (sum(len(t.seconds) for t in tallies),
            sum(t.failed for t in tallies), metrics)


def base_table(tracer, tally):
    """Baseline table of the untransformed corpus; LP calls must match."""
    import workloads

    print("# %-6s %12s %8s %8s %6s %6s %6s %7s %7s"
          % ("config", "analyze_wall", "lp_calls", "rows_max", "soc@2",
             "soc@12", "soc@60", "polish", "unknown"))
    for item in workloads.base_table_items():
        tracer.reset()
        run_item("coarse-corpus", item, tally, tracer)
        counts = tracer.counts
        lp_calls = tracer.stats["lp.solve_lp"].calls
        anchor = workloads.CORPUS[item.label]["lp_calls"]
        print("# %-6s %12.3f %8d %8d %6d %6d %6d %7d %7d%s"
              % (item.label, tracer.stats["analysis.analyze"].total_s,
                 lp_calls, counts["lp.rows_max"], counts["soc.decided_at_2"],
                 counts["soc.decided_at_12"], counts["soc.decided_at_60"],
                 counts["soc.numeric_polish"], counts["soc.unknown"],
                 "" if lp_calls == anchor else "  anchor %d" % anchor))
        if lp_calls != anchor:
            tally.failed += 1
            sys.stderr.write("FAILED base %s: %d LP calls, anchor %d\n"
                             % (item.label, lp_calls, anchor))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        sys.stderr.write("error: cannot import the program: %s\n" % exc)
        return 2
    print("# spliths bench: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        attempted, failed, metrics = traced(args.workload, args.seed)
    else:
        attempted, failed, metrics = end_to_end(args.workload, args.seed,
                                                args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
