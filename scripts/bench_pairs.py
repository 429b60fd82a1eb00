#!/usr/bin/env python3
"""Benchmark a parent revision against this checkout in alternated pairs.

    python3 scripts/bench_pairs.py PARENT_REV [--pairs N] [--label LABEL]

Run from the root of the checkout.  PARENT_REV is checked out into a
temporary `git worktree` (local, no fetch), removed again at exit.  For
each pair, and for every workload of BENCHMARK.json, both trees run

    python3 benchmark/run.py --workload W --seed S --seconds 24 --trace 0

one after the other, with one BLAS thread.  The order flips from one pair
to the next, and pair i runs seed i in both trees.  The "change" tree is
this checkout as it stands on disk; an uncommitted edit to a tracked file
is recorded as the SHA-256 of `git diff HEAD`.

The result goes to BENCH_<LABEL>.json at the root, rewritten after every
pair: both trees' raw records, and per workload and end-to-end metric the
parent's and the change's medians and interquartile ranges, the pairs the
change won (strictly better, in the metric's direction) and the pairs the
second run won, out of n.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SECONDS = 24
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git(*args, cwd=".") -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def run_benchmark(tree: Path, workload: str, seed: int) -> tuple[dict, str]:
    """One run of benchmark/run.py in `tree`: its JSON record and the
    machine line it prints."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1")}
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, text=True, capture_output=True)
    machine = next((line for line in out.stderr.splitlines()
                    if line.startswith("machine:")), "")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}")
    return json.loads(lines[-1]), machine


def spread(values: list) -> dict:
    """Median and interquartile range of one side's readings."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def summarize(records: list, metrics: dict) -> dict:
    """Per workload and metric: both sides' median and IQR, and the wins of
    the change and of whichever side ran second, out of the pairs in which
    both sides report the metric.  Beside `change_wins`, `second_wins`
    shows how much the run order alone moves a metric."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        table = {"pairs": len(rows),
                 "failed_runs": sum(not r[side]["correct"] or r[side]["failed"] > 0
                                    for r in rows for side in ("parent", "change"))}
        for name, better in metrics.items():
            both = [r for r in rows if name in r["parent"]["metrics"]
                    and name in r["change"]["metrics"]]
            if not both:
                continue
            pairs = [(r["parent"]["metrics"][name]["value"],
                      r["change"]["metrics"][name]["value"]) for r in both]
            parent, change = zip(*pairs)
            sign = 1.0 if better == "higher" else -1.0
            # Each pair's (first, second) reading, in the order they ran.
            ran = [tuple(r[side]["metrics"][name]["value"] for side in r["order"])
                   for r in both]
            p, c = spread(list(parent)), spread(list(change))
            table[name] = {
                "better": better,
                "parent_median": p["median"], "parent_iqr": p["iqr"],
                "change_median": c["median"], "change_iqr": c["iqr"],
                "ratio": c["median"] / p["median"] if p["median"] else None,
                "change_wins": sum(sign * (b - a) > 0 for a, b in pairs),
                "second_wins": sum(sign * (b - a) > 0 for a, b in ran),
                "n": len(pairs),
            }
        summary[workload] = table
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", help="names BENCH_<label>.json "
                        "(default: this checkout's short revision)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    root = Path(git("rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}", cwd=root)
    change_rev = git("rev-parse", "HEAD", cwd=root)
    diff = subprocess.run(["git", "diff", "HEAD"], cwd=root, check=True,
                          capture_output=True).stdout
    label = args.label or change_rev[:10]
    out_path = root / f"BENCH_{label}.json"

    result = {
        "command": f"benchmark/run.py --workload W --seed S --seconds {SECONDS} "
                   f"--trace 0, one BLAS thread, order flipped each pair",
        "parent": {"rev": parent_rev, "given": args.parent},
        "change": {"rev": change_rev, "diff_sha256":
                   hashlib.sha256(diff).hexdigest() if diff else None},
        "host": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "records": [],
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    worktree = tmp / "parent"
    git("worktree", "add", "--detach", str(worktree), parent_rev, cwd=root)
    try:
        trees = {"parent": worktree, "change": root}
        for seed in range(args.pairs):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for workload in workloads:
                record = {"workload": workload, "seed": seed,
                          "order": list(order)}
                for side in order:
                    record[side], machine = run_benchmark(trees[side], workload, seed)
                    result["host"]["machine"] = machine
                result["records"].append(record)
                print(f"pair {seed} {workload} done", file=sys.stderr,
                      flush=True)
            result["summary"] = summarize(result["records"], metrics)
            out_path.write_text(json.dumps(result, indent=1) + "\n")
    finally:
        git("worktree", "remove", "--force", str(worktree), cwd=root)
        tmp.rmdir()
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
