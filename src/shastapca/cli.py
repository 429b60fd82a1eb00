"""Command-line front end.

Subcommands:
  run <config.yaml>        run a configured experiment, write traces + summary
  timing <config.yaml>     streaming-versus-batch wallclock comparison
  ingest-check <data.csv>  validate a dataset file and print its statistics
  state-dump <checkpoint>  print a JSON summary of a saved streaming state

Exit code 0 on success; on failure a machine-parsable JSON object is written
to stderr ({"error": kind, "message": ..., [context]}) and the exit code is
nonzero (2 for config/usage errors, 1 for runtime/data errors).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import (
    ConfigError,
    CsvFormatError,
    csv_dimension,
    load_config,
    load_timing_config,
    read_csv_samples,
    run_experiment,
    timing_run,
)
from .shasta import load_state


def _fail(kind: str, message: str, code: int, **context) -> int:
    payload = {"error": kind, "message": message}
    payload.update(context)
    print(json.dumps(payload), file=sys.stderr)
    return code


def cmd_run(args) -> int:
    config = load_config(args.config)
    summary = run_experiment(config)
    print(json.dumps({
        "output_dir": config.output_dir,
        "seeds": len(config.seeds),
        "aggregate": (summary["aggregate"]
                      if isinstance(config.estimator, dict) else
                      {label: s["aggregate"] for label, s in summary.items()}),
    }, indent=2, sort_keys=True))
    return 0


def cmd_timing(args) -> int:
    config = load_timing_config(args.config)
    table = timing_run(config)
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


def cmd_ingest_check(args) -> int:
    rows = 0
    empty_rows = 0
    observed = 0
    total_cells = 0
    groups = {}
    variances = []
    d = csv_dimension(args.csv)
    for sample, variance in read_csv_samples(args.csv):
        rows += 1
        observed += sample.nobs
        total_cells += d
        if sample.nobs == 0:
            empty_rows += 1
        groups[sample.group] = groups.get(sample.group, 0) + 1
        if variance is not None:
            variances.append(variance)
    if rows == 0:
        return _fail("data", "file contains a header but no rows", 1,
                     file=args.csv)
    report = {
        "file": args.csv,
        "rows": rows,
        "d": d,
        "empty_rows": empty_rows,
        "observed_fraction": observed / total_cells,
        "group_counts": {str(g): c for g, c in sorted(groups.items())},
        "variance_column": (
            None if not variances else {
                "count": len(variances),
                "min": float(np.min(variances)),
                "median": float(np.median(variances)),
                "max": float(np.max(variances)),
            }),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_state_dump(args) -> int:
    state = load_state(args.checkpoint)
    print(json.dumps({
        "d": state.d,
        "k": state.k,
        "num_groups": state.num_groups,
        "samples_ingested": state.t,
        "sigma": state.sigma,
        "gamma": state.gamma,
        "variances": [float(x) for x in state.v],
        "factor_frobenius_norm": float(np.linalg.norm(state.f)),
        "theta_bar": [float(x) for x in state.theta_bar],
        "rho_bar": [float(x) for x in state.rho_bar],
    }, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shasta-pca",
        description="Streaming heteroscedastic PCA experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="YAML experiment config")
    p_run.set_defaults(func=cmd_run)

    p_timing = sub.add_parser("timing", help="streaming vs batch wallclock run")
    p_timing.add_argument("config", help="YAML timing config")
    p_timing.set_defaults(func=cmd_timing)

    p_check = sub.add_parser("ingest-check", help="validate a dataset CSV")
    p_check.add_argument("csv", help="dataset file")
    p_check.set_defaults(func=cmd_ingest_check)

    p_dump = sub.add_parser("state-dump", help="summarize a state checkpoint")
    p_dump.add_argument("checkpoint", help="checkpoint file")
    p_dump.set_defaults(func=cmd_state_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("config", str(exc), 2, field=exc.path)
    except CsvFormatError as exc:
        return _fail("data", str(exc), 1)
    except OSError as exc:  # ChildProcessError, say, names no file
        context = {} if exc.filename is None else {"file": str(exc.filename)}
        return _fail("io", str(exc), 1, **context)
    except ValueError as exc:
        return _fail("value", str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
