#!/usr/bin/env python3
"""Run the full synthetic experiment suite into runs/.

Each bundled config fixes a scenario; this script additionally runs the
baseline estimators on the same scenarios so the output directories hold
side-by-side traces (one subdirectory per estimator) ready for plotting.

Usage:
    python scripts/reproduce_experiments.py [--quick] [--only NAME]

--quick cuts every run to 3 seeds for a fast end-to-end check.
"""

import argparse
import copy
import sys
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from shastapca.harness import (  # noqa: E402
    load_timing_config,
    parse_config,
    run_experiment,
    timing_run,
)

BASELINES = {
    "static_full": [
        {"kind": "batch-mm", "rank": 3, "iterations": 100},
        {"kind": "ppca", "rank": 3},
        {"kind": "ppca", "rank": 3, "group": 0},
        {"kind": "ppca", "rank": 3, "group": 1},
        {"kind": "petrels", "rank": 3, "forgetting": 1.0, "delta": 0.1},
        {"kind": "grouse", "rank": 3, "step": 0.01},
    ],
    "static_half": [
        {"kind": "batch-mm", "rank": 3, "iterations": 100},
        {"kind": "petrels", "rank": 3, "forgetting": 1.0, "delta": 0.1},
        {"kind": "grouse", "rank": 3, "step": 0.01},
    ],
    "dynamic_subspace": [
        {"kind": "petrels", "rank": 3, "forgetting": 0.998, "delta": 0.1},
        {"kind": "grouse", "rank": 3, "step": 0.02},
    ],
    "dynamic_variances_v1": [],
    "dynamic_variances_v2": [],
}


def estimator_label(estimator: dict) -> str:
    """The estimator's output subdirectory: its kind, and its ppca group."""
    label = estimator["kind"]
    if estimator.get("group") is not None:
        label += f"_g{estimator['group']}"
    return label


def run_config(name: str, quick: bool) -> None:
    with open(REPO / "configs" / f"{name}.yaml") as fh:
        base = yaml.safe_load(fh)
    if quick:
        base["run"]["seeds"] = base["run"]["seeds"][:3]
    variants = [base["estimator"]] + BASELINES.get(name, [])
    for estimator in variants:
        raw = copy.deepcopy(base)
        raw["estimator"] = estimator
        label = estimator_label(estimator)
        raw["run"]["output_dir"] = str(REPO / "runs" / name / label)
        if estimator["kind"] in ("petrels", "grouse"):
            raw["run"]["loglik_gap"] = False
        summary = run_experiment(parse_config(raw))
        agg = summary["aggregate"]["final_subspace_error"]
        print(f"{name}/{label}: median final subspace error {agg['median']:.4g}")


def run_timing(quick: bool) -> None:
    config = load_timing_config(REPO / "configs" / "timing_desk.yaml")
    if quick:
        config["seeds"] = config["seeds"][:1]
    config["output_dir"] = str(REPO / "runs" / "timing_desk")
    table = timing_run(config)
    print(f"timing_desk: streaming {table['median_streaming_seconds']:.1f}s "
          f"(gap {table['median_streaming_final_gap']:.1f}) vs batch "
          f"{table['median_batch_seconds']:.1f}s "
          f"(gap {table['median_batch_final_gap']:.1f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="3 seeds per experiment instead of the full set")
    parser.add_argument("--only", help="run a single experiment by name")
    args = parser.parse_args()

    names = list(BASELINES) + ["timing_desk"]
    if args.only:
        if args.only not in names:
            parser.error(f"unknown experiment {args.only!r}; "
                         f"choose from {', '.join(names)}")
        names = [args.only]
    for name in names:
        if name == "timing_desk":
            run_timing(args.quick)
        else:
            run_config(name, args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
