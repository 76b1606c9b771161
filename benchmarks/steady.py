"""Run the benchmark several times and report how steady it is.

    python3 benchmarks/steady.py --workload city_1000 --seeds 11-20
    python3 benchmarks/steady.py --workload long_ledger --seeds 3,3 --trace 1

For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
inter-quartile distance as a share of the median, next to the bound in
BENCHMARK.json, and the same for the host rate and the set-up time before
they are scaled to the reference host speed. It prints the steal ticks read around each run.
Runs that share a seed must agree exactly on every count metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    return json.loads(lines[-1]), info


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a-b or a,b,c")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    results = []
    for seed in parse_seeds(args.seeds):
        result, info = run(args.workload, seed, seconds, args.trace)
        names = set(result["metrics"])
        if names != set(bounds):
            print(f"seed {seed}: metric names differ from BENCHMARK.json: "
                  f"{sorted(names ^ set(bounds))}")
        shown = {} if args.trace else {
            n: round(m["value"], 4) for n, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal_ticks={info.get('steal_ticks')} {shown}",
              flush=True)
        results.append((seed, result, info))

    bad = 0
    for i, (seed, a, _) in enumerate(results):
        for seed_b, b, _ in results[i + 1:]:
            if seed_b != seed:
                continue
            for name, m in a["metrics"].items():
                if m["unit"] == "count" and b["metrics"][name]["value"] != m["value"]:
                    bad += 1
                    print(f"seed {seed}: count {name} differs between runs")
    if args.trace:
        print(f"count metrics that differ between runs of one seed: {bad}")
        return 1 if bad else 0

    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    rows = [(name, bound, [r["metrics"][name]["value"] for _, r, _ in results])
            for name, bound in bounds.items()]
    # the same figures before scaling to the reference host speed, for comparison
    rows.append(("(unscaled)", None, [info["comms_per_host_s"] for _, _, info in results]))
    rows.append(("(setup raw)", None,
                 [statistics.median(info["setup_runs_s"]) for _, _, info in results]))
    for name, bound, values in rows:
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        print(f"{name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
