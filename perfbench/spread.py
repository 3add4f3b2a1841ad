"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        --seeds 1 2 3 ...

Runs perfbench/run.py once per seed and workload, one run at a time, with
BENCHMARK.json's run_seconds, and prints for each metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median, beside the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    for name in args.workload:
        runs[name] = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, "wall_s": wall, **result})
            print(f"{name} seed {seed} ({wall:.1f} s): correct {result['correct']}, failed "
                  f"{result['failed']} of {result['attempted']}, "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    print(f"\n{'workload':<15}{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for name, results in runs.items():
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            print(f"{name:<15}{metric:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{(q3 - q1) / med:>9.3f}{bound:>8.2f}")


if __name__ == "__main__":
    main()
