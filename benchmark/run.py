#!/usr/bin/env python3
"""Benchmark of the shastapca package: one workload, one seed, one record.

Run from the root of a checkout (the package is imported from ./src):

    python3 benchmark/run.py --workload stream_d100 --seed 0 --seconds 24 --trace 0

Workloads: stream_d100, stream_wide, batch_desk, csv_replay (see README.md
in this directory).  The run builds the workload's inputs from --seed
SETUP_REPEATS times (setup_s takes the median), runs --seconds divided by
the workload's nominal round time (at least one) whole rounds, reports each
metric's median over the rounds, every time scaled to the machine's
nominal speed as measured alongside it (workloads.Speed), then checks the
outputs.  With --trace 1 it runs a warm-up round and an untraced round,
then the set-up and one round traced, and reports the per-layer metrics;
every span goes to .bench_out/spans-<workload>-seed<n>.csv.  --tiny
shrinks every input for the benchmark's self-check.

The last line of standard output is the JSON record
{"correct", "attempted", "failed", "metrics"}; everything else, the
package's own output included, goes to standard error.  Other scratch files
live in .bench_out/ and are removed at exit.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("stream_d100", "stream_wide", "batch_desk", "csv_replay")
SETUP_REPEATS = 3
OUT_DIR = Path(".bench_out")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-check only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy is imported.

    The package's products are k x k or thin except in the dense batch
    evaluator.  A second BLAS thread gains little there, and its worker,
    spinning after each product, competes with the main thread for the
    machine's two cores: with it, tick_p99_us read ten times higher on some
    runs.  Returns the BLAS thread count."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    return 1


def run(args, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    import tracing
    from workloads import END_TO_END_UNITS, WORKLOADS, Stopwatch, Tally
    import_s = time.perf_counter() - START

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"machine: nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
          f"numpy={np.__version__} scipy={scipy.__version__} "
          f"blas={blas.get('name')} {blas.get('version')} blas_threads={blas_threads}")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, Path(tmp))
        setup_watch = Stopwatch()
        for _ in range(SETUP_REPEATS):
            with setup_watch:
                workload.setup()
        setup_scale = setup_watch.speed.scale()
        setup_s = (import_s + statistics.median(setup_watch.laps)) * setup_scale
        print(f"setup: imports {import_s:.3f}s, inputs {setup_watch.laps}, "
              f"speed scale {setup_scale:.4f}")
        # The inputs are long-lived; keep them out of the collector's scans
        # so that they do not lengthen the package's own collections.
        gc.collect()
        gc.freeze()

        tally = Tally()
        if args.trace:
            workload.round(Tally())  # warm-up: first-touch allocations
            workload.round(tally)
            Stopwatch.interval = 0
            tracer = tracing.Tracer()
            tracer.install()
            try:
                workload.setup()
                traced = Tally()
                workload.round(traced)
            finally:
                tracer.uninstall()
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
            metrics = dict(tracer.layer_metrics())
            metrics.update(workload.layer_extras)
            metrics.setdefault("shasta.state_bytes", (0.0, "bytes"))
            metrics["trace.overhead_s"] = (
                traced.values["wall_s"][0] - tally.values["wall_s"][0], "s")
            attempted = tally.attempted + traced.attempted
        else:
            # A fixed number of rounds per --seconds, so that every run of a
            # workload does the same work (and reaches the same peak memory)
            # whatever the machine's speed.
            rounds = max(1, int(args.seconds // workload.round_seconds))
            measure_start = time.perf_counter()
            for _ in range(rounds):
                workload.round(tally)
            print(f"rounds: {rounds} in {time.perf_counter() - measure_start:.2f}s, "
                  f"per round at the nominal speed {json.dumps(tally.values)}")
            metrics = {name: (value, END_TO_END_UNITS[name][0])
                       for name, value in tally.medians().items()}
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            attempted = tally.attempted

        failures = workload.check()
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": int(attempted),
        "failed": 0,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/shastapca/__init__.py").is_file():
        print("benchmark: run it from the root of a shastapca checkout; "
              "src/shastapca is missing here", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(Path("src").resolve()))
    with contextlib.redirect_stdout(sys.stderr):
        record = run(args, blas_threads)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
