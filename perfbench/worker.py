"""The measuring process: set-up, warm-up, then a timed closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--setup-only | --trace]

It imports the library from the checkout's src/ and prints one JSON
document on stdout. Nothing here imports scipy, so the peak RSS it reports
is the library's and the loop's own; the oracle runs in another process.
Every time it reports after set-up is scaled to the reference machine speed
(speed.py); the unscaled ones are reported beside them.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _setup(workload_name, seed):
    """Fresh import of l1landscape plus the untimed warm-up operation.

    Returns the set-up seconds unscaled and scaled by a speed calibration
    made right after it. numpy is loaded before the clock starts: its load
    time follows the host's file and memory load (+-20%), which the speed
    snippet does not see and no change to the library can move.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401  the library's one dependency, loaded untimed
    t0 = time.perf_counter()
    import l1landscape
    import_s = time.perf_counter() - t0
    if not os.path.abspath(l1landscape.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported l1landscape from {l1landscape.__file__}, not src/")
    import workloads
    workload = workloads.WORKLOADS[workload_name](seed)
    warm = workload.warmup()
    t0 = time.perf_counter()
    for op in warm:
        out = workloads.execute(l1landscape, op, time.perf_counter)
        if out.error:
            raise SystemExit(f"warm-up {op.kind} failed: {out.error}")
    raw = import_s + time.perf_counter() - t0
    from speed import calibrate
    return l1landscape, workloads, workload, {"raw": raw, "scaled": raw * calibrate()}


class Collector:
    """Outcomes of measured operations and the checks made on them here.

    Records for the oracle go to a file as they come, one JSON line each,
    so the process's peak RSS does not grow with the operations it ran.
    """

    def __init__(self, records_file):
        self.attempted = 0
        self.failed = []          # [op index, label, reason, wrong output?]
        self.records_file = records_file
        self.first_signature = {}

    def add(self, op, out):
        idx = self.attempted
        self.attempted += 1
        error = out.error
        oracle = True
        if error is None and op.key is not None and out.signature is not None:
            first = self.first_signature.setdefault(op.key, (idx, out.signature))
            if first[0] != idx:
                oracle = False  # the first occurrence of this input was sent
                if first[1] != out.signature:
                    error = f"differs from op {first[0]} on the same input"
        if error is not None:
            self.failed.append([idx, op.label, error, not out.raised])
        elif oracle and out.record is not None:
            self.records_file.write(json.dumps([idx, op.kind, out.record]) + "\n")


def measure(sampler, lib, workloads, workload, seconds, records_file):
    """Whole rounds until the next one would overrun `seconds` (at least one)."""
    col = Collector(records_file)
    # Per operation: round, whether it counts as primary work, start, end, units.
    rounds, primary, starts, ends, units = (array("l"), array("b"), array("d"),
                                            array("d"), array("d"))
    free_pairs = []
    start = sampler.clock()
    r = 0
    while True:
        for op in workload.round(r):
            if r == 0 or op.key is None:
                fp = workloads.free_pairs(lib, op)
                if fp is not None:
                    free_pairs.append(fp)
            out = workloads.execute(lib, op, sampler.clock)
            col.add(op, out)
            rounds.append(r)
            primary.append(workload.primary(op))
            starts.append(out.start)
            ends.append(out.end)
            units.append(out.units)
        r += 1
        elapsed = sampler.clock() - start
        if elapsed + elapsed / r > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    busy = {}       # "primary" or "other" -> [units, scaled seconds, raw seconds]
    latencies = {}  # op index or round -> [scaled ms, raw ms]
    for i in range(len(starts)):
        raw = ends[i] - starts[i]
        scaled = raw * sampler.factor(starts[i], ends[i])
        acc = busy.setdefault("primary" if primary[i] else "other", [0.0, 0.0, 0.0])
        acc[0] += units[i]
        acc[1] += scaled
        acc[2] += raw
        lat = latencies.setdefault(rounds[i] if workload.latency_per_round else i, [0.0, 0.0])
        lat[0] += scaled * 1e3
        lat[1] += raw * 1e3
    return {"rounds": r, "elapsed_s": elapsed, "peak_rss_mb": rss_mb, "busy": busy,
            "latencies_ms": [v[0] for v in latencies.values()],
            "raw_latencies_ms": [v[1] for v in latencies.values()],
            "speed": sampler.speed(),
            "free_pairs": free_pairs,
            "attempted": col.attempted, "failed_ops": col.failed}


def trace(sampler, lib, workloads, workload, seconds, spans_path, records_file):
    """Untraced and traced passes over a fixed op list, for exact counts.

    The pass is the workload's first `trace_rounds` rounds, so its counts
    depend only on the seed. Order: a traced pass, an untraced one, a traced
    one (the counts must repeat exactly), more untraced/traced pairs while
    time is left, then one traced pass of the next seed's inputs. The first
    pass pays for the first full-size calls, so only its counts are used:
    self times and the overhead come from the passes after it.
    """
    import numpy as np
    import tracer

    ops = [op for r in range(workload.trace_rounds) for op in workload.round(r)]
    for op in ops:   # untraced and traced outputs must match exactly
        if op.key is None:
            op.key = id(op)
    col = Collector(records_file)
    tr = tracer.Tracer(sampler.clock)
    free_pairs = [fp for fp in (workloads.free_pairs(lib, op) for op in ops) if fp is not None]

    def run_pass(ops, traced, check=True):
        """Busy seconds of the pass, scaled and raw, and its speed factor."""
        if traced:
            tr.install()
        t0 = sampler.clock()
        try:
            busy = 0.0
            for op in ops:
                out = workloads.execute(lib, op, sampler.clock)
                busy += out.seconds
                if check:
                    col.add(op, out)
        finally:
            if traced:
                tr.uninstall()
        factor = sampler.factor(t0, sampler.clock())
        return busy * factor, busy, factor

    start = sampler.clock()
    u_times, t_times = [], []    # busy seconds of the timed passes
    summaries = []               # every traced pass of this seed's inputs
    raw_pair = [0.0, 0.0]   # unscaled seconds of the last untraced and traced pass

    def untraced_pass():
        busy, raw_pair[0], _ = run_pass(ops, False)
        return busy

    def traced_pass():
        busy, raw_pair[1], factor = run_pass(ops, True)
        spans = tr.take()
        if not summaries:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            np.savez(spans_path, spans=spans, names=np.array(tracer.NAMES))
        summaries.append(tracer.summarize(spans, factor))
        return busy

    traced_pass()
    u_times.append(untraced_pass())
    t_times.append(traced_pass())
    while sampler.clock() - start + sum(raw_pair) <= seconds:
        u_times.append(untraced_pass())
        t_times.append(traced_pass())
    next_ops = [op for r in range(workload.trace_rounds)
                for op in type(workload)(workload.seed + 1).round(r)]
    run_pass(next_ops, True, check=False)
    next_counts = tracer.summarize(tr.take(), 1.0)

    first = summaries[0]
    repeat_ok = all(all(s[k] == first[k] for k in tracer.COUNT_KEYS) for s in summaries[1:])
    differs = [k for k in tracer.COUNT_KEYS if next_counts[k] != first[k]]
    seed_ok = bool(differs) == workload.counts_depend_on_seed
    metrics = dict(first)
    for name in tracer.NAMES:
        metrics[f"{name}.self_s"] = statistics.median(s[f"{name}.self_s"] for s in summaries[1:])
    metrics["trace.overhead_frac"] = statistics.median(t_times) / statistics.median(u_times) - 1.0
    return {"per_layer": metrics, "passes": {"untraced_s": u_times, "traced_s": t_times},
            "ops_per_pass": len(ops), "elapsed_s": sampler.clock() - start,
            "count_check": {"repeat_ok": repeat_ok, "seed_ok": seed_ok,
                            "next_seed_changed": differs,
                            "expect_change": workload.counts_depend_on_seed},
            "free_pairs": free_pairs, "spans_file": os.path.relpath(spans_path, ROOT),
            "attempted": col.attempted, "failed_ops": col.failed}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out")
    p.add_argument("--records", help="file for the oracle's records, one JSON line each")
    args = p.parse_args()

    lib, workloads, workload, setup = _setup(args.workload, args.seed)
    if args.setup_only:
        json.dump({"setup": setup}, sys.stdout)
        return
    from speed import SpeedSampler
    sampler = SpeedSampler()
    sampler.start()
    try:
        with open(args.records, "w") as records:
            if args.trace:
                result = trace(sampler, lib, workloads, workload, args.seconds,
                               args.spans_out, records)
            else:
                result = measure(sampler, lib, workloads, workload, args.seconds, records)
                result["setup"] = setup
    finally:
        sampler.stop()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
