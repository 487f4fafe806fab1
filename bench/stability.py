"""Steadiness of the benchmark: repeat each workload and summarise the metrics.

    python3 bench/stability.py [--runs 10] [--first-seed 0] [--workloads a,b] [--trace]

Run from the root of a source checkout.  Each workload runs --runs times
through bench/run.py, one process at a time, seed first-seed, first-seed+1,
...  For every metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4), the spread (quartile distance over median)
and, for end-to-end metrics, the bound from BENCHMARK.json and whether
the spread is under a third of it.  The share of failed operations is
printed per run, since two sets of runs must agree on it exactly.  The
bounds in BENCHMARK.json were set from this command's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarise(results: list[dict], metrics: list[dict]) -> list[str]:
    rows = []
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        row = f"  {m['name']:<44} {m['unit']:<6} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%}"
        if "bound" in m:
            verdict = "ok" if spread < m["bound"] / 3.0 or m["name"] == "setup_s" else "WIDE"
            row += f"  bound {m['bound']:.2f} {verdict}"
        rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default=None, help="comma-separated names (default: all)")
    ap.add_argument("--trace", action="store_true", help="summarise traced runs and per-layer metrics")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(spec, name, seed, int(args.trace))
            results.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} share={res['failed'] / res['attempted']:.6g}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
              f"failed share the same in every run: {len(shares) == 1}")
        print("\n".join(summarise(results, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
