#!/usr/bin/env python3
"""Digest the numeric outputs of experiment runs, elapsed times left out.

Runs each given config for the given seeds into a temporary directory and
prints the SHA-256 of every output file: each trace CSV with its `elapsed_s`
column dropped, and `summary.json` with its `elapsed_seconds` fields and the
run's output directory dropped.  Two checkouts that print the same digests
wrote the same numbers, byte for byte; a refactor that should not change
any result can show so by running this script before and after.

Usage (from the root of a checkout):
    python scripts/trace_digest.py configs/smoke.yaml configs/static_half.yaml
    python scripts/trace_digest.py configs/dynamic_subspace.yaml --seeds 0 1
    python scripts/trace_digest.py configs/static_full.yaml \\
        --estimator '{kind: grouse, rank: 3, step: 0.01}'

--estimator replaces the config's estimator block (YAML), as
scripts/reproduce_experiments.py does for the baselines.  The last line
digests all the lines before it.
"""

import argparse
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from shastapca.harness import parse_config, run_experiment  # noqa: E402

ELAPSED_COLUMN = "elapsed_s"
ELAPSED_FIELD = "elapsed_seconds"


def trace_bytes(path: Path) -> bytes:
    """The trace CSV re-serialized without its elapsed-time column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != ELAPSED_COLUMN]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [row[i] for i in keep] for row in rows)
    return out.getvalue().encode()


def _drop_elapsed(node):
    if isinstance(node, dict):
        return {key: _drop_elapsed(value) for key, value in node.items()
                if key != ELAPSED_FIELD}
    if isinstance(node, list):
        return [_drop_elapsed(value) for value in node]
    return node


def summary_bytes(path: Path) -> bytes:
    """summary.json without elapsed times or the (temporary) output dir."""
    with open(path) as fh:
        summary = _drop_elapsed(json.load(fh))
    summary["config"]["run"].pop("output_dir", None)
    return json.dumps(summary, indent=2, sort_keys=True).encode()


def digest_config(config_path: Path, seeds, estimator, workdir: Path):
    """Yield (label, sha256 hex) for every output of one config's run."""
    with open(config_path) as fh:
        raw = yaml.safe_load(fh)
    if seeds is not None:
        raw["run"]["seeds"] = list(seeds)
    if estimator is not None:
        raw["estimator"] = estimator
    out_dir = workdir / config_path.stem
    raw["run"]["output_dir"] = str(out_dir)
    run_experiment(parse_config(raw))
    for path in sorted(out_dir.glob("trace_seed*.csv")):
        yield f"{config_path.stem}/{path.name}", hashlib.sha256(trace_bytes(path)).hexdigest()
    yield (f"{config_path.stem}/summary.json",
           hashlib.sha256(summary_bytes(out_dir / "summary.json")).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", type=Path)
    parser.add_argument("--seeds", nargs="+", type=int,
                        help="seeds to run (default: each config's own)")
    parser.add_argument("--estimator", type=yaml.safe_load,
                        help="estimator block (YAML) replacing each config's")
    args = parser.parse_args(argv)
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for config_path in args.configs:
            for label, digest in digest_config(config_path, args.seeds,
                                               args.estimator, Path(workdir)):
                lines.append(f"{digest}  {label}")
                print(lines[-1], flush=True)
    print(f"{hashlib.sha256(''.join(lines).encode()).hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
