#!/usr/bin/env python3
"""Run every bundled config into runs/<config>/.

Each config lists the estimators it compares: one with several estimator
blocks writes each block's traces and summary under runs/<config>/<label>/,
and a timing config (one with a `batch_estimator`) runs as `shasta-pca
timing` does.

Usage:
    python scripts/reproduce_experiments.py [--quick] [--only NAME]

--quick cuts every run to its first 3 seeds, and a timing run to its first,
for a fast end-to-end check.
"""

import argparse
import sys
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from shastapca.harness import (  # noqa: E402
    estimator_label,
    parse_config,
    parse_timing_config,
    run_experiment,
    timing_run,
)


def run_config(path: Path, out_root: Path, quick: bool) -> None:
    """Run config `path` into `out_root`/<its stem> and print its medians."""
    name = path.stem
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    timing = "batch_estimator" in raw
    if quick:
        raw["run"]["seeds"] = raw["run"]["seeds"][:1 if timing else 3]
    raw["run"]["output_dir"] = str(out_root / name)
    if timing:
        table = timing_run(parse_timing_config(raw))
        print(f"{name}: streaming {table['median_streaming_seconds']:.1f}s "
              f"(gap {table['median_streaming_final_gap']:.1f}) vs batch "
              f"{table['median_batch_seconds']:.1f}s "
              f"(gap {table['median_batch_final_gap']:.1f})")
        return
    config = parse_config(raw)
    summaries = run_experiment(config)
    if isinstance(config.estimator, dict):
        summaries = {estimator_label(config.estimator): summaries}
    for label, summary in summaries.items():
        error = summary["aggregate"]["final_subspace_error"]["median"]
        print(f"{name}/{label}: median final subspace error {error:.4g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="3 seeds per experiment instead of the full set")
    parser.add_argument("--only", help="run a single experiment by name")
    args = parser.parse_args()

    configs = {path.stem: path
               for path in sorted((REPO / "configs").glob("*.yaml"))}
    names = list(configs)
    if args.only:
        if args.only not in configs:
            parser.error(f"unknown experiment {args.only!r}; "
                         f"choose from {', '.join(names)}")
        names = [args.only]
    for name in names:
        run_config(configs[name], REPO / "runs", args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
