"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --seeds 1-10 [--traced] [--out FILE]

For every workload and seed it runs bench/run.py with --trace 0 for
BENCHMARK.json's run_seconds and reports each end-to-end metric's
median, quartiles and quartile spread ((q3 - q1) / median, the figure
BENCHMARK.json's bounds are checked against).  --traced adds one
--trace 1 run per workload on the first seed.  --out writes everything,
with the environment stamp, as JSON; bench/baseline.json was written
this way.  Run from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402
from run import quartiles  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    env = next((json.loads(s[4:]) for s in lines if s.startswith("env ")), {})
    return json.loads(lines[-1]), env, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for w in wl.WORKLOADS:
        runs = []
        for seed in args.seeds:
            result, env, wall = run_once(w, seed, seconds, False)
            summary["env"] = env
            runs.append(result)
            print(f"{w} seed {seed}: wall {wall:.1f} s, attempted"
                  f" {result['attempted']}, failed {result['failed']}, "
                  + ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                              for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q3 = quartiles(values)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": values}
            unit = entry["metrics"][name]["unit"]
            print(f"  {name:12s} median {med:.6g} {unit} q1 {q1:.6g}"
                  f" q3 {q3:.6g} over {len(values)} runs, spread"
                  f" {spread:.4f} (bound {bound}, steady below"
                  f" {bound / 3:.4f})", flush=True)
        if args.traced:
            result, _, _ = run_once(w, args.seeds[0], seconds, True)
            entry["traced_seed"] = args.seeds[0]
            entry["per_layer"] = {k: v["value"]
                                  for k, v in result["metrics"].items()}
        summary["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
