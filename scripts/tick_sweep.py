#!/usr/bin/env python3
"""Per-tick cost of SHASTA's `ingest` as the ambient dimension d grows.

For each d, streams samples that observe |omega| random coordinates of a
rank-k planted model through `shastapca.shasta.ingest` (weights 1/t,
c_f = c_v = 0.1) and prints the best of REPEATS timings of TICKS ticks, in
microseconds per tick, then the ratio of the largest d's cost to the
smallest's.  A tick whose cost does not depend on d prints a ratio near 1.
The repeats cycle through the d's, so that every d is timed in the same
stretches of wall time.  BLAS runs on one thread.

Usage (from the root of a checkout):
    python scripts/tick_sweep.py
"""

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shastapca.model import ObservedSample  # noqa: E402
from shastapca.shasta import ShastaConfig, ingest, init_state  # noqa: E402

DIMS = (100, 1000, 10_000, 100_000)
RANK = 3
NOBS = 50       # |omega|, observed coordinates per sample
TICKS = 1000    # ticks per timing
REPEATS = 5
SEED = 0


def make_samples(rng, d, k, nobs, count):
    u, _ = np.linalg.qr(rng.standard_normal((d, k)))
    f_star = u * np.sqrt(np.arange(k, 0, -1.0))
    samples = []
    for i in range(count):
        omega = np.sort(rng.choice(d, size=nobs, replace=False))
        g = i % 2
        y = (f_star[omega] @ rng.standard_normal(k)
             + np.sqrt((0.01, 0.1)[g]) * rng.standard_normal(nobs))
        samples.append(ObservedSample(omega, y, g))
    return samples


def sweep(dims, k, nobs, ticks, repeats, seed):
    """{d: best seconds per tick}.  The repeats go round every d in turn, so
    that a slow phase of a shared machine slows all of them alike."""
    runs = {}
    for d in dims:
        rng = np.random.default_rng(seed)
        cfg = ShastaConfig(rank=k, num_groups=2, weights="1/t", c_f=0.1,
                           c_v=0.1)
        state = init_state(cfg, rng.standard_normal((d, k)) / np.sqrt(d),
                           np.array([0.5, 0.5]))
        samples = make_samples(rng, d, k, nobs, ticks)
        for sample in samples[: ticks // 5]:  # warm-up
            ingest(state, sample, cfg)
        runs[d] = (cfg, state, samples)
    best = dict.fromkeys(dims, float("inf"))
    for _ in range(repeats):
        for d, (cfg, state, samples) in runs.items():
            start = time.perf_counter()
            for sample in samples:
                ingest(state, sample, cfg)
            best[d] = min(best[d], (time.perf_counter() - start) / ticks)
    return best


def main():
    costs = sweep(DIMS, RANK, NOBS, TICKS, REPEATS, SEED)
    for d in DIMS:
        print(f"d={d:>7}  |omega|={NOBS}  k={RANK}  "
              f"{1e6 * costs[d]:8.1f} us/tick")
    lo, hi = min(DIMS), max(DIMS)
    print(f"ratio d={hi}/d={lo}: {costs[hi] / costs[lo]:.2f}")


if __name__ == "__main__":
    main()
