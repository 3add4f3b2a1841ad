"""Benchmark of the l1landscape library: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout. With --trace 0 it times fresh-process
set-up several times, then one measuring process runs the workload in a
closed loop for S seconds, then a separate oracle process checks every
output. With --trace 1 the measuring process instead times each layer's
public functions over a fixed pass of the workload. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
Workloads, metrics and bounds are listed in BENCHMARK.json; perfbench/README.md
explains them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, percentile  # noqa: E402

SETUP_SAMPLES = 5            # fresh processes timed for setup_s, the measuring one included
SETUP_TIMEOUT_S = 20
# Time limits of the measuring and oracle processes are this many times what
# they take at reference speed; the machine ran up to 2x slower for spells.
TIME_LIMIT_FACTOR = 3
STARTUP_S = 5                # a process's start, imports and set-up at reference speed

# The report's workload-specific names for the end-to-end metrics, as
# (name, unit, key into the computed values).
NAMED = {
    "grid-n2": [("certify_per_s", "points/s", "work_per_s"),
                ("certify_ms_p50", "ms", "op_ms_p50"), ("certify_ms_tail", "ms", "op_ms_tail")],
    "descend": [("descend_iters_per_s", "iters/s", "work_per_s")],
    "montecarlo": [("probe_trial_iters_per_s", "trial*iters/s", "work_per_s"),
                   ("gsep_trials_per_s", "trials/s", "gsep_per_s")],
}
NAMED["certify-scale"] = NAMED["grid-n2"]
ALL_NAMED = ["setup_s", "peak_rss_mb", "fail_frac", "certify_per_s", "certify_ms_p50",
             "certify_ms_tail", "descend_iters_per_s", "probe_trial_iters_per_s",
             "gsep_trials_per_s"]


class BenchError(RuntimeError):
    pass


def _python(script, *args, timeout):
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _worker_limit_s(wl, seconds, traced):
    """Time limit of the measuring process.

    An untraced run overruns --seconds by at most one round. A traced run
    makes at least four fixed passes, and its untraced/traced pairs stop
    before they would overrun --seconds by more than a pair.
    """
    if traced:
        expected = seconds + 4 * wl.trace_rounds * wl.round_s
    else:
        expected = seconds + wl.round_s
    return TIME_LIMIT_FACTOR * (STARTUP_S + expected)


def _measure_and_check(name, seed, seconds, spans=None):
    """Run the measuring worker, traced when `spans` names its output file,
    then the oracle on the records it wrote.

    The oracle redoes a fraction of the work the worker timed, so its time
    limit follows the worker's elapsed time.
    """
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    records = os.path.join(out_dir, f"records-{name}-seed{seed}-{os.getpid()}.jsonl")
    try:
        res = _python("worker.py", "--workload", name, "--seed", str(seed),
                      "--seconds", str(seconds), "--records", records,
                      *(["--trace", "--spans-out", spans] if spans else []),
                      timeout=_worker_limit_s(WORKLOADS[name], seconds, spans is not None))
        highs = ["--highs"] if name == "certify-scale" else []
        oracle = _python("oracle.py", "--records", records, *highs,
                         timeout=TIME_LIMIT_FACTOR * (STARTUP_S + res["elapsed_s"]))
    finally:
        if os.path.exists(records):
            os.remove(records)
    # op index -> (reason, whether an output was wrong rather than missing)
    failed = {idx: (reason, wrong) for idx, _, reason, wrong in res["failed_ops"]}
    for idx, reason in oracle["failed_ops"]:
        failed.setdefault(idx, (reason, True))
    return res, oracle, failed


def _report_failures(failed):
    for idx, (reason, wrong) in sorted(failed.items())[:10]:
        print(f"  FAILED op {idx} ({'wrong output' if wrong else 'raised'}): {reason}")
    return not any(wrong for _, wrong in failed.values())


def _free_pair_line(values):
    if not values:
        return "free pairs: n/a (the workload passes no points, only u*)"
    s = sorted(values)
    many = sum(v >= 100 for v in s) / len(s)
    return (f"free pairs over {len(s)} distinct inputs: min {s[0]}, median "
            f"{statistics.median(s):g}, max {s[-1]}; {100 * many:.1f}% have >= 100")


def run_untraced(name, seed, seconds):
    wl = WORKLOADS[name]
    args = ["--workload", name, "--seed", str(seed)]
    setups = [_python("worker.py", *args, "--seconds", "0", "--setup-only",
                      timeout=SETUP_TIMEOUT_S)["setup"] for _ in range(SETUP_SAMPLES - 1)]
    res, oracle, failed = _measure_and_check(name, seed, seconds)
    setups.append(res["setup"])

    def summary(scaled):
        """The metrics from scaled times (scaled=True) or unscaled ones."""
        col = 1 if scaled else 2
        lat = sorted(res["latencies_ms" if scaled else "raw_latencies_ms"])
        units, busy = res["busy"]["primary"][0], res["busy"]["primary"][col]
        v = {"setup_s": statistics.median(s["scaled" if scaled else "raw"] for s in setups),
             "peak_rss_mb": res["peak_rss_mb"], "work_per_s": units / busy,
             "op_ms_p50": statistics.median(lat),
             "op_ms_tail": percentile(lat, wl.tail_percentile)[0]}
        if "other" in res["busy"]:   # montecarlo's gaussian_separation calls
            v["gsep_per_s"] = res["busy"]["other"][0] / res["busy"]["other"][col]
        return v

    values, raw = summary(True), summary(False)
    n_lat = len(res["latencies_ms"])
    beyond = percentile(res["latencies_ms"], wl.tail_percentile)[1]
    attempted = res["attempted"]

    print(f"== {name}  seed {seed}  {res['rounds']} rounds in {res['elapsed_s']:.2f} s "
          f"(closed loop, 1 caller); machine at {res['speed']:.3f} of reference speed")
    print(f"  {'metric':<24} {'scaled':>12} {'unscaled':>12}  unit")
    print(f"  {'setup_s':<24} {values['setup_s']:>12.5g} {raw['setup_s']:>12.5g}  s"
          f"  (median of {SETUP_SAMPLES} processes)")
    print(f"  {'peak_rss_mb':<24} {values['peak_rss_mb']:>12.5g} {'':>12}  MB")
    print(f"  {'fail_frac':<24} {len(failed) / attempted:>12.5g} {'':>12}  ratio"
          f"  ({len(failed)} of {attempted} operations)")
    for label, unit, key in NAMED[name]:
        print(f"  {label:<24} {values[key]:>12.6g} {raw[key]:>12.6g}  {unit}")
    tail_note = (f"{beyond} beyond" if beyond >= 10 else f"only {beyond} beyond, fewer than 10")
    per = "round" if wl.latency_per_round else "operation"
    print(f"  latency per {per}: {n_lat} samples, tail is p{wl.tail_percentile:g} ({tail_note})")
    print(f"  {_free_pair_line(res['free_pairs'])}")
    print(f"  oracle checked {oracle['checked']}")
    correct = _report_failures(failed)
    metrics = {
        "setup_s": (values["setup_s"], "s"),
        "peak_rss_mb": (values["peak_rss_mb"], "MB"),
        "work_per_s": (values["work_per_s"], "work/s"),
        "op_ms_p50": (values["op_ms_p50"], "ms"),
        "op_ms_tail": (values["op_ms_tail"], "ms"),
    }
    named = {"setup_s": values["setup_s"], "peak_rss_mb": values["peak_rss_mb"],
             "fail_frac": len(failed) / attempted}
    named.update({label: values[key] for label, _, key in NAMED[name]})
    return {"correct": correct, "attempted": attempted, "failed": len(failed),
            "metrics": metrics, "named": named}


def run_traced(name, seed, seconds):
    spans = os.path.join(ROOT, ".perfbench-out", f"spans-{name}-seed{seed}.npz")
    res, oracle, failed = _measure_and_check(name, seed, seconds, spans)
    check = res["count_check"]
    layer = res["per_layer"]
    passes = res["passes"]

    print(f"== {name}  seed {seed}  traced: {res['ops_per_pass']} operations per pass, "
          f"a first traced pass, then {len(passes['untraced_s'])} untraced and "
          f"{len(passes['traced_s'])} traced timed passes in {res['elapsed_s']:.2f} s")
    print(f"  trace overhead {100 * layer['trace.overhead_frac']:+.1f}% against the untraced "
          f"pass (median busy s: untraced {statistics.median(passes['untraced_s']):.3f}, "
          f"traced {statistics.median(passes['traced_s']):.3f})")
    print(f"  {'function':<44}{'calls':>10}{'self_s':>12}")
    for key in sorted(k for k in layer if k.endswith(".calls")):
        fn = key[:-len(".calls")]
        print(f"  {fn:<44}{layer[key]:>10}{layer[fn + '.self_s']:>12.4f}")
    print(f"  lpcore.solve.rows_x_cols {layer['lpcore.solve.rows_x_cols']}, optimal_frac "
          f"{layer['lpcore.solve.optimal_frac']:.4f} of {layer['lpcore.solve.calls']} solves")
    fb = layer["secondorder.classify_point.fallback_calls"]
    print(f"  classify_point fallbacks {fb}, useful_frac "
          f"{layer['secondorder.classify_point.fallback_useful_frac']:.4f} of {fb}")
    changed = ", ".join(check["next_seed_changed"]) or "none"
    expected = "a change" if check["expect_change"] else "none: fixed by construction"
    print(f"  exact counts repeat within the seed: {check['repeat_ok']}; next seed "
          f"changed {changed} (expected {expected}) -> {'ok' if check['seed_ok'] else 'FAILED'}")
    print(f"  {_free_pair_line(res['free_pairs'])}")
    print(f"  spans written to {res['spans_file']}; oracle checked {oracle['checked']}")
    correct = _report_failures(failed)
    units = {"trace.overhead_frac": "ratio", "lpcore.solve.optimal_frac": "ratio",
             "secondorder.classify_point.fallback_useful_frac": "ratio"}
    metrics = {k: (v, units.get(k, "s" if k.endswith("_s") else "count"))
               for k, v in layer.items()}
    return {"correct": correct and check["repeat_ok"] and check["seed_ok"],
            "attempted": res["attempted"], "failed": len(failed), "metrics": metrics}


def _line(result):
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in result["metrics"].items()}})


def main():
    p = argparse.ArgumentParser(description="l1landscape benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "l1landscape", "__init__.py")):
        print(f"no library to benchmark: {ROOT}/src/l1landscape is missing", file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_untraced
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run(name, args.seed, args.seconds) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(_line(results[0]))
        return 0
    if not args.trace:
        print("\n" + "workload".ljust(15) + "".join(f"{m:>25}" for m in ALL_NAMED))
        for name, res in zip(names, results):
            print(name.ljust(15) + "".join(
                f"{res['named'][m]:>25.6g}" if m in res["named"] else f"{'n/a':>25}"
                for m in ALL_NAMED))
    print(_line({"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
