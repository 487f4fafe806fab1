"""Run one benchmark workload against the starcoal sources in ./src.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
with --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Per-run details go to bench/out/.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy loads: the workloads are sized
# for a small shared machine, and thread pools only add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        _fail("--seed must be >= 0 and --seconds >= 1")
    return args


def _import_starcoal(root: str):
    """Import starcoal from root/src, and from nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import starcoal
    import starcoal.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(starcoal.__file__))) != src:
        _fail(f"imported starcoal from {starcoal.__file__}, not from {src}")
    return starcoal


def _load_spec(root: str) -> dict:
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def _setup_seconds(args, root: str) -> float:
    """Median set-up time over fresh interpreters, each timing itself (see _setup_probe)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=120)
        if done.returncode != 0:
            _fail(f"set-up probe exited with code {done.returncode}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def _setup_probe(args, root: str) -> float:
    """Time a cold import of starcoal plus building round 0's inputs.

    Runs first in a fresh interpreter, so numpy and scipy load inside the
    timed import; the benchmark's own modules load outside the timing.
    """
    start = time.perf_counter()
    sc = _import_starcoal(root)
    imported = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    built = time.perf_counter()
    workload.build(sc, args.seed, 0)
    return (imported - start) + (time.perf_counter() - built)


def _round(workload, sc, seed: int, r: int, between=None):
    from workloads import Round

    rnd = Round(between)
    workload.run(sc, workload.build(sc, seed, r), rnd)
    return rnd


def _measure(workload, sc, seed: int, seconds: float):
    """Run whole rounds for about `seconds`; return them and the probe slices.

    Rounds run until less than half a round's time is left, so the phase
    ends within half a round of `seconds`, and a round longer than
    `seconds` still runs once.  On workloads with a probe, sampler probe
    slices run before the first round, after every round and between
    operations every PROBE_EVERY seconds, so that they sample the same
    stretch of time as the rounds.
    """
    from workloads import PROBE_EVERY, Round, rate_probe

    rounds, probes = [], []
    last_probe = 0.0

    def probe():
        nonlocal last_probe
        if workload.probe:
            rnd = Round()
            rate_probe(sc, seed, len(probes), rnd)
            probes.append(rnd)
            last_probe = time.perf_counter()

    def between():
        if time.perf_counter() - last_probe >= PROBE_EVERY:
            probe()

    start = time.perf_counter()
    while True:
        probe()
        rounds.append(_round(workload, sc, seed, len(rounds), between if workload.probe else None))
        elapsed = time.perf_counter() - start
        if seconds - elapsed < 0.5 * elapsed / len(rounds):
            probe()
            return rounds, probes


def _rate(rounds, amount: str, spent: str) -> float:
    """Work over time, both summed over the rounds."""
    return sum(getattr(r, amount) for r in rounds) / sum(getattr(r, spent) for r in rounds)


def _traced(workload, sc, seed: int):
    """Alternate untraced and traced rounds; return both lists and the tracer.

    Alternating keeps slow spells of a shared machine from landing on one
    side only, so the overhead estimate compares like with like.
    """
    from tracing import Tracer

    plain, traced = [], []
    tracer = Tracer(sc)
    for k in range(workload.trace_rounds):
        plain.append(_round(workload, sc, seed, 2 * k))
        with tracer:
            traced.append(_round(workload, sc, seed, 2 * k + 1))
    return plain, traced, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "starcoal", "__init__.py")):
        _fail(f"no starcoal sources under {root}/src; run from the root of a checkout")
    sys.path.insert(0, HERE)
    if args.setup_probe:
        print(repr(_setup_probe(args, root)))
        return 0
    spec = _load_spec(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup_s = None if args.trace else _setup_seconds(args, root)
    sc = _import_starcoal(root)

    if args.trace:
        plain, traced, tracer = _traced(workload, sc, args.seed)
        rounds = plain + traced
        totals = tracer.totals()
        plain_s = sum(r.program_s for r in plain)
        traced_s = sum(r.program_s for r in traced)
        values = {name: totals.get(name, 0.0) / len(traced) for name in (m["name"] for m in spec["per_layer"])}
        values["trace.wall_s"] = traced_s / len(traced)
        values["trace.overhead"] = 100.0 * (traced_s / plain_s - 1.0)
        wanted = spec["per_layer"]
    else:
        rounds, probes = _measure(workload, sc, args.seed, args.seconds)
        sampled = probes if workload.probe else rounds
        values = {
            "setup_s": setup_s,
            "wall_s": sum(r.program_s for r in rounds) / len(rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "draws_per_s": _rate(sampled, "draws", "batch_s"),
            "paths_per_s": _rate(sampled, "paths", "scalar_s"),
        }
        rounds = rounds + probes
        wanted = spec["end_to_end"]

    failures = [(name, detail) for r in rounds for name, ok, detail in r.checks if not ok]
    for name, detail in failures[:20]:
        print(f"bench: check failed: {name}: {detail}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        detail = {"rounds": [{"program_s": r.program_s, "attempted": r.attempted, "failed": r.failed,
                              "checks": len(r.checks)} for r in rounds],
                  "failures": failures, "result": result}
        json.dump(detail, fh, indent=1)
    if args.trace:
        tracer.dump(stem + ".trace.jsonl", {"workload": args.workload, "seed": args.seed, "rounds": len(traced)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
