#!/usr/bin/env python3
"""Per-tick cost of the streaming estimators as the ambient dimension d and
the number of observed entries |omega| grow.

For each d, streams samples that observe |omega| random coordinates of a
rank-k planted model through the `ingest` of SHASTA (weights 1/t,
c_f = c_v = 0.1), PETRELS (forgetting PETRELS_FORGETTING) and GROUSE (step
GROUSE_STEP), the three on the same samples from the same initial factors.
It prints the best of REPEATS timings of TICKS ticks, in microseconds per
tick, then each estimator's ratio of the largest d's cost to the smallest's.
A tick whose cost does not depend on d prints a ratio near 1; GROUSE
rotates all d rows of its basis on every tick, so its ratio grows with d.
The repeats cycle through every estimator and d, so that all are timed in
the same stretches of wall time.

A second sweep times SHASTA alone at d = NOBS_SWEEP_DIM for each |omega| in
NOBS_SWEEP and fits cost = fixed + per_row |omega| by least squares: the
fixed part is the tick's per-call overhead (small numpy calls and the LAPACK
wrappers), the per-row part what each observed coordinate adds.
BLAS runs on one thread.

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

from shastapca.baselines import Grouse, Petrels  # noqa: E402
from shastapca.datagen import orthonormalize  # noqa: E402
from shastapca.model import ObservedSample  # noqa: E402
from shastapca.shasta import ShastaConfig, ShastaPCA  # noqa: E402

DIMS = (100, 1000, 10_000, 100_000)
RANK = 3
NOBS = 50       # |omega|, observed coordinates per sample
TICKS = 1000    # ticks per timing
REPEATS = 5
SEED = 0
PETRELS_FORGETTING = 0.998  # the dynamic configs' settings
GROUSE_STEP = 0.02
NOBS_SWEEP = (10, 50, 200)  # |omega| values of the fixed/per-row sweep
NOBS_SWEEP_DIM = 1000

ESTIMATORS = {
    "shasta": lambda f0: ShastaPCA(
        ShastaConfig(weights="1/t", c_f=0.1, c_v=0.1),
        f0, np.array([0.5, 0.5])),
    "petrels": lambda f0: Petrels(f0, forgetting=PETRELS_FORGETTING),
    "grouse": lambda f0: Grouse(orthonormalize(f0), step=GROUSE_STEP),
}


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


def sweep(shapes, estimators, k, ticks, repeats, seed):
    """{(estimator, d, |omega|): best seconds per tick} over the (d, |omega|)
    shapes.  The repeats go round every estimator and shape in turn, so that
    a slow phase of a shared machine slows all of them alike."""
    runs = {}
    for d, nobs in shapes:
        rng = np.random.default_rng(seed)
        f0 = rng.standard_normal((d, k)) / np.sqrt(d)
        samples = make_samples(rng, d, k, nobs, ticks)
        for name in estimators:
            est = ESTIMATORS[name](f0)
            for sample in samples[: ticks // 5]:  # warm-up
                est.ingest(sample)
            runs[name, d, nobs] = (est, samples)
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(repeats):
        for key, (est, samples) in runs.items():
            start = time.perf_counter()
            for sample in samples:
                est.ingest(sample)
            best[key] = min(best[key], (time.perf_counter() - start) / ticks)
    return best


def main():
    costs = sweep([(d, NOBS) for d in DIMS], ESTIMATORS, RANK, TICKS, REPEATS,
                  SEED)
    lo, hi = min(DIMS), max(DIMS)
    for name in ESTIMATORS:
        for d in DIMS:
            print(f"{name:<8} d={d:>7}  |omega|={NOBS}  k={RANK}  "
                  f"{1e6 * costs[name, d, NOBS]:8.1f} us/tick")
        print(f"{name:<8} ratio d={hi}/d={lo}: "
              f"{costs[name, hi, NOBS] / costs[name, lo, NOBS]:.2f}")

    d = NOBS_SWEEP_DIM
    costs = sweep([(d, nobs) for nobs in NOBS_SWEEP], ["shasta"], RANK, TICKS,
                  REPEATS, SEED)
    us = [1e6 * costs["shasta", d, nobs] for nobs in NOBS_SWEEP]
    for nobs, cost in zip(NOBS_SWEEP, us):
        print(f"shasta   d={d:>7}  |omega|={nobs:<4} k={RANK}  "
              f"{cost:8.1f} us/tick")
    per_row, fixed = np.polyfit(NOBS_SWEEP, us, 1)
    print(f"shasta   d={d}: fixed {fixed:.1f} us/tick + "
          f"{per_row:.3f} us per observed row")


if __name__ == "__main__":
    main()
