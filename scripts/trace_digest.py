#!/usr/bin/env python3
"""Digest the numeric outputs of experiment runs, elapsed times left out.

Runs each given config for the given seeds into a temporary directory, a
timing config (one with a `batch_estimator`) as `shasta-pca timing` does,
and prints the SHA-256 of every output file: each trace CSV with its
`elapsed_s` column dropped, and `summary.json` or `timing_summary.json`
with its `*_seconds` fields and the run's output directory dropped.  Two
checkouts that print the same digests wrote the same numbers, byte for
byte; a refactor that should not change any result can show so by running
this script before and after.

With --without-gaps the digests also leave out the log-likelihood gaps:
each trace's `loglik_gap` column and every summary key ending in `_gap`.
A change that should move only the likelihood values (a new likelihood
kernel, say) can show that nothing else moved by printing the same
digests with this flag before and after.

With no config, the script digests a standard set (see `standard_set`):
seed 0 of every bundled run config, then of static_full with each baseline
estimator scripts/reproduce_experiments.py runs on it, then of every
bundled timing config.

Usage (from the root of a checkout):
    python scripts/trace_digest.py
    python scripts/trace_digest.py configs/smoke.yaml configs/static_half.yaml
    python scripts/trace_digest.py configs/dynamic_subspace.yaml --seeds 0 1
    python scripts/trace_digest.py configs/timing_desk.yaml --seeds 0
    python scripts/trace_digest.py --without-gaps
    python scripts/trace_digest.py configs/static_full.yaml \\
        --estimator '{kind: grouse, rank: 3, step: 0.01}'

--estimator replaces the config's estimator block (YAML), as
scripts/reproduce_experiments.py does for the baselines.  The last line
digests all the lines before it.

BLAS runs on one thread: the n x d products of batch-mm and ppca round
differently with the thread count, so their bytes, and the digests, repeat
only at a fixed count.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # before numpy loads; an import leaves it alone
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import yaml  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

from reproduce_experiments import BASELINES, estimator_label  # noqa: E402
from shastapca.harness import (  # noqa: E402
    parse_config,
    parse_timing_config,
    run_experiment,
    timing_run,
)

ELAPSED_COLUMN = "elapsed_s"
ELAPSED_SUFFIX = "_seconds"
GAP_COLUMN = "loglik_gap"
GAP_SUFFIX = "_gap"


def trace_bytes(path: Path, without_gaps: bool = False) -> bytes:
    """The trace CSV re-serialized without its elapsed-time column, and
    without its gap column if asked."""
    drop = {ELAPSED_COLUMN, GAP_COLUMN} if without_gaps else {ELAPSED_COLUMN}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in drop]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [row[i] for i in keep] for row in rows)
    return out.getvalue().encode()


def _drop_keys(node, suffixes: tuple):
    if isinstance(node, dict):
        return {key: _drop_keys(value, suffixes) for key, value in node.items()
                if not key.endswith(suffixes)}
    if isinstance(node, list):
        return [_drop_keys(value, suffixes) for value in node]
    return node


def summary_bytes(path: Path, without_gaps: bool = False) -> bytes:
    """A summary without elapsed times or the (temporary) output dir, which
    summary.json records in its config, and without gaps if asked."""
    suffixes = (ELAPSED_SUFFIX, GAP_SUFFIX) if without_gaps else (ELAPSED_SUFFIX,)
    with open(path) as fh:
        summary = _drop_keys(json.load(fh), suffixes)
    if "config" in summary:
        summary["config"]["run"].pop("output_dir", None)
    return json.dumps(summary, indent=2, sort_keys=True).encode()


def is_timing(raw: dict) -> bool:
    """Whether `raw` is a timing config, run by `shasta-pca timing`."""
    return "batch_estimator" in raw


def load_raw(config_path: Path, estimator=None) -> dict:
    """The config's YAML, with its estimator block replaced if one is given."""
    with open(config_path) as fh:
        raw = yaml.safe_load(fh)
    if estimator is not None:
        raw["estimator"] = estimator
    return raw


def standard_set():
    """(config, estimator block or None, label) for each run digested when
    no config is given: every bundled run config, then static_full with
    each baseline block scripts/reproduce_experiments.py runs on it, then
    every bundled timing config."""
    paths = sorted((REPO / "configs").glob("*.yaml"))
    timing = [path for path in paths if is_timing(load_raw(path))]
    static_full = REPO / "configs" / "static_full.yaml"
    return ([(path, None, path.stem) for path in paths if path not in timing]
            + [(static_full, block, f"static_full/{estimator_label(block)}")
               for block in BASELINES["static_full"]]
            + [(path, None, path.stem) for path in timing])


def digest_config(config_path: Path, seeds, estimator, workdir: Path,
                  label=None, without_gaps=False):
    """Yield (label, sha256 hex) for every output of one config's run; the
    label defaults to the config's stem."""
    label = label or config_path.stem
    raw = load_raw(config_path, estimator)
    if seeds is not None:
        raw["run"]["seeds"] = list(seeds)
    out_dir = workdir / label
    raw["run"]["output_dir"] = str(out_dir)
    if is_timing(raw):
        timing_run(parse_timing_config(raw))
        summary = "timing_summary.json"
    else:
        run_experiment(parse_config(raw))
        summary = "summary.json"
    for path in sorted(out_dir.glob("*.csv")):
        yield (f"{label}/{path.name}",
               hashlib.sha256(trace_bytes(path, without_gaps)).hexdigest())
    yield (f"{label}/{summary}", hashlib.sha256(
        summary_bytes(out_dir / summary, without_gaps)).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="configs to run (default: the standard set)")
    parser.add_argument("--seeds", nargs="+", type=int,
                        help="seeds to run (default: each config's own, "
                             "seed 0 for the standard set)")
    parser.add_argument("--estimator", type=yaml.safe_load,
                        help="estimator block (YAML) replacing each config's")
    parser.add_argument("--without-gaps", action="store_true",
                        help="leave out the log-likelihood gaps too")
    args = parser.parse_args(argv)
    if args.configs:
        runs = [(path, args.estimator, None) for path in args.configs]
        seeds = args.seeds
    elif args.estimator is not None:
        parser.error("--estimator needs a config")
    else:
        runs, seeds = standard_set(), args.seeds or [0]
    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for config_path, estimator, name in runs:
            for label, digest in digest_config(config_path, seeds, estimator,
                                               Path(workdir), name,
                                               args.without_gaps):
                lines.append(f"{digest}  {label}")
                print(lines[-1], flush=True)
    print(f"{hashlib.sha256(''.join(lines).encode()).hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
