"""Time the beta = 2 calls of ua_time_ensemble over a range of seeds.

    python3 bench/ua_spread.py [--first-seed 0] [--seeds 20]

Run from the root of a source checkout.  For each seed the four
ua_time_ensemble calls of the asg suite of ``starcoal verify --seed SEED``
are made exactly as the suite makes them, in order on that suite's
substream: (n, beta) = (2, 0.5), (2, 2), (10, 0.5), (10, 2), 40_000
replicates each.  The two beta = 2 calls are timed.  Their cost is
heavy-tailed in the seed, and some seeds abort with SimulationAbortError
(the rest of that seed's calls are then skipped); both are counted here.
Prints one line per seed, then per call the median, quartiles and range
over the seeds where it finished.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

SIZE = 40_000


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from starcoal import RngStream, SimulationAbortError, ua_time_ensemble
    from starcoal.verification import _STREAM

    calls = ((2, 0.5), (2, 2.0), (10, 0.5), (10, 2.0))
    timed = [c for c in calls if c[1] == 2.0]
    finished = {c: [] for c in timed}
    aborted = {c: [] for c in timed}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        rng = RngStream(seed, _STREAM["asg"])
        row = []
        for n, beta in calls:
            start = time.perf_counter()
            try:
                ua_time_ensemble(n, beta, SIZE, rng)
            except SimulationAbortError as exc:
                aborted[(n, beta)].append(seed)
                row.append(f"n={n}: abort after {time.perf_counter() - start:.3f} s ({exc})")
                break
            if beta == 2.0:
                spent = time.perf_counter() - start
                finished[(n, beta)].append(spent)
                row.append(f"n={n}: {spent:8.3f} s")
        print(f"seed {seed:3d}  " + "  ".join(row), flush=True)
    for n, beta in timed:
        times = sorted(finished[(n, beta)])
        line = f"ua_time_ensemble(n={n}, beta=2, {SIZE}): {len(times)} finished, aborted at seeds {aborted[(n, beta)]}"
        if len(times) > 1:
            q1, med, q3 = statistics.quantiles(times, n=4)
            line += f"; median {med:.3f} s, quartiles {q1:.3f} / {q3:.3f} s, range {times[0]:.3f} - {times[-1]:.3f} s"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
