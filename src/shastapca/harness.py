"""Config-driven experiment runner.

A YAML config declares a scenario (synthetic script or external CSV), one
estimator with its hyperparameters, and run settings (seeds, checkpoint
cadence, output directory).  Each seed produces one `trace_seed<N>.csv`; a
`summary.json` aggregates final metrics across seeds.  Given a config and a
seed, every numeric output byte is deterministic except elapsed-time fields;
those of batch-mm and ppca, whose n x d products go through BLAS, only at a
fixed BLAS thread count.

Every estimator block, a run's and both passes of a timing run, is run by one
function, `run_block`, from the seed's `shared_init` over the pairs
`seed_pairs` draws; a streaming block is fed and scored by `score_stream`.
A batch pass's clock covers building its `BatchProblem` (the dense arrays that
batch-mm and ppca read) and every iterate with its subspace error; the planted
truth's log-likelihood, and ppca's gap, are taken after it stops.

Each seed's pairs are drawn, or read, in one producer process of its own,
started by the first pair and joined by the last, while the caller runs the
estimator on the pairs already sent: the process runs `run_script`, or
parses and checks a CSV file's rows, and sends them in chunks; the caller
checks each chunk's samples in one pass and builds them without checking
each again.  The pairs are those an in-process draw or parse gives, byte
for byte.

CSV dataset format: a header row with a `group` column, an optional
`variance` column (reporting only), and d value columns, each column named
once; an empty value cell marks a missing entry.  Rows stream lazily, but a
CSV run keeps one d x k basis per checkpoint, to score each against the final
basis, so its memory grows with the file's length over `checkpoint_every`.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import numbers
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .baselines import Grouse, Petrels
from .batch import (BatchIterate, BatchProblem, batch_iterates,
                    ppca_closed_form, random_init)
from .datagen import (Epoch, PlantedModel, ScenarioScript, make_rng,
                      orthonormalize, run_script)
from .metrics import MetricTrace, subspace_error
from .model import DatasetEvaluator, ObservedSample, ParameterError
from .shasta import ShastaConfig, ShastaPCA


class ConfigError(ValueError):
    """Invalid experiment config; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message carries the 1-based line number."""


# ---------------------------------------------------------------------------
# Config parsing
#
# Each section declares once the keys it accepts, as (readers, required):
# the reader of each key's value, and the keys it must give.  `_section`
# refuses any other key.  A key a block leaves out is not filled in here: it
# takes its default where it is used, an estimator setting from the
# estimator's constructor.


def _as(kind, noun=None):
    """A reader of a value as `kind`, refusing one that kind cannot read."""
    def read(value, path):
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise ConfigError(path, f"expected {noun}, got {value!r}") from None
    return read


def _nullable(read):
    """`read`, with null read as None."""
    return lambda value, path: None if value is None else read(value, path)


def _whole(value) -> int:
    """`value` as an int if it is a whole number; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise ValueError(value)
    return int(value)


def _real(value) -> float:
    """`value` as a float; a boolean is not a number."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


_value, _flag = _as(lambda value: value), _as(_boolean, "true or false")
_float, _int = _as(_real, "a number"), _as(_whole, "an integer")
_floats = _as(lambda xs: tuple(_real(x) for x in xs), "a list of numbers")
_ints = _as(lambda xs: tuple(_whole(x) for x in xs), "a list of integers")

RUN_CONFIG = ({"scenario": _value, "estimator": _value, "run": _value},
              ("scenario", "estimator", "run"))
TIMING_CONFIG = ({"scenario": _value, "streaming_estimator": _value,
                  "batch_estimator": _value, "run": _value},
                 ("scenario", "streaming_estimator", "batch_estimator", "run"))
SYNTHETIC = ({"kind": _value, "d": _int, "rank": _int, "spectrum": _floats,
              "variances": _floats, "observe_prob": _float,
              "group_probs": _nullable(_floats),
              "group_counts": _nullable(_ints),
              "epochs": _nullable(_as(list, "a list of epochs"))},
             ("d", "rank", "spectrum", "variances"))
CSV = ({"kind": _value, "path": _as(Path, "a path"), "num_groups": _int},
       ("path", "num_groups"))
SCALE_VARIANCE = ({"group": _int, "factor": _float}, ("group", "factor"))
EPOCH = ({"samples": _int, "observe_prob": _nullable(_float),
          "redraw_subspace": _flag,
          "scale_variance": _nullable(lambda value, path: tuple(
              _section(value, path, SCALE_VARIANCE).values()))}, ("samples",))
RUN = ({"seeds": _ints, "checkpoint_every": _int, "loglik_gap": _flag,
        "output_dir": _value}, ("seeds", "output_dir"))
# Each estimator kind's settings besides `kind` and `rank` (required).  A
# block hands the settings it gives, and no others, to the estimator
# (`build_estimator`).
ESTIMATOR_SETTINGS = {
    "shasta": {"weights": _value, "c_f": _float, "c_v": _float,
               "delta": _float, "variance_mode": _value},
    "petrels": {"forgetting": _float, "delta": _float},
    "grouse": {"step": _float},
    "batch-mm": {"iterations": _int, "tol": _nullable(_float)},
    "ppca": {"group": _nullable(_int)},
}
ESTIMATOR_KINDS = tuple(ESTIMATOR_SETTINGS)
STREAMING_KINDS = ("shasta", "petrels", "grouse")
# batch-mm has no constructor to hold its default iteration count.
BATCH_ITERATIONS = 100


def _kind(raw, path, default=None):
    """The `kind` of section `raw`, which decides the keys it declares."""
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected a mapping")
    if default is None and "kind" not in raw:
        raise ConfigError(f"{path}.kind", "missing required field")
    return raw.get("kind", default)


def _section(raw, path, declared) -> dict:
    """The keys section `raw` gives, each read by its declared reader; a key
    the section does not declare, or a required one left out, is refused."""
    keys, required = declared
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected a mapping")
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{path}.{key}", "unknown key; expected one of "
                                               + ", ".join(keys))
    for key in required:
        if key not in raw:
            raise ConfigError(f"{path}.{key}", "missing required field")
    return {key: read(raw[key], f"{path}.{key}")
            for key, read in keys.items() if key in raw}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: dict
    estimator: dict
    seeds: tuple
    checkpoint_every: int
    output_dir: str
    loglik_gap: bool
    raw: dict


def _load_yaml(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "config file does not exist")
    with open(path) as fh:
        return yaml.safe_load(fh)


def load_config(path) -> ExperimentConfig:
    return parse_config(_load_yaml(path))


def parse_config(raw: dict) -> ExperimentConfig:
    top = _section(raw, "config", RUN_CONFIG)
    scenario = _parse_scenario(top["scenario"])
    csv_kind = scenario["kind"] == "csv"
    estimator = _estimator(top, "estimator", scenario,
                           STREAMING_KINDS if csv_kind else ESTIMATOR_KINDS)
    run = _parse_run(top, default_every=100)
    if run["loglik_gap"] and (csv_kind or len(scenario["epochs"]) > 1):
        raise ConfigError("run.loglik_gap", "only defined for single-epoch "
                                            "synthetic scenarios")
    return ExperimentConfig(scenario=scenario, estimator=estimator, raw=raw,
                            **run)


def _parse_run(top: dict, default_every: int) -> dict:
    """The `run` block of an experiment or a timing config: its seeds,
    checkpoint cadence, output directory and `loglik_gap` flag."""
    run = _section(top["run"], "run", RUN)
    seeds = run["seeds"]
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError("run.seeds", "need distinct non-negative seeds, "
                                       "at least one")
    if run.setdefault("checkpoint_every", default_every) < 1:
        raise ConfigError("run.checkpoint_every", "must be >= 1")
    if run["output_dir"] is None:
        raise ConfigError("run.output_dir", "must name a directory")
    run.setdefault("loglik_gap", False)
    return dict(run, output_dir=str(run["output_dir"]))


def _parse_scenario(raw) -> dict:
    """A scenario's keys as given, a csv one's with its header's d added, a
    synthetic one's with its group count and epochs, once `_check_scenario`
    accepts them."""
    kind = _kind(raw, "scenario", default="synthetic")
    if kind == "csv":
        scenario = _section(raw, "scenario", CSV)
        if not Path(scenario["path"]).exists():
            raise ConfigError("scenario.path",
                              f"dataset not found: {scenario['path']}")
        if scenario["num_groups"] < 1:
            raise ConfigError("scenario.num_groups", "must be >= 1")
        return dict(scenario, path=str(scenario["path"]),
                    d=csv_dimension(scenario["path"]))
    if kind != "synthetic":
        raise ConfigError("scenario.kind", f"unknown scenario kind {kind!r}")

    scenario = _section(raw, "scenario", SYNTHETIC)
    d, rank = scenario["d"], scenario["rank"]
    if not 1 <= rank <= d:
        raise ConfigError("scenario.rank", f"must lie in [1, d = {d}]")
    if len(scenario["spectrum"]) != rank:
        raise ConfigError("scenario.spectrum", "needs one value per rank")
    epochs = scenario.get("epochs")
    if epochs is None:
        if scenario.get("group_counts") is None:
            raise ConfigError("scenario.epochs",
                              "required unless group_counts fixes the length")
        epochs = [{"samples": sum(scenario["group_counts"])}]
    scenario.update(kind="synthetic", num_groups=len(scenario["variances"]),
                    epochs=[_section(e, f"scenario.epochs[{i}]", EPOCH)
                            for i, e in enumerate(epochs)])
    _check_scenario(scenario)
    return scenario


def _check_scenario(scenario: dict) -> None:
    """Refuse, before any output exists, a synthetic scenario that datagen
    would refuse once the run had started: build its planted model, on a
    d x rank stand-in basis, and its script, which checks every epoch."""
    try:
        PlantedModel(u=np.eye(scenario["d"], scenario["rank"]),
                     spectrum=scenario["spectrum"], v_star=scenario["variances"],
                     group_probs=scenario.get("group_probs"),
                     group_counts=scenario.get("group_counts"))
        scenario_script(scenario)
    except ParameterError as exc:
        field = "variances" if exc.field == "v_star" else exc.field
        raise ConfigError(f"scenario.{field}", str(exc)) from None


def _estimator(top: dict, key: str, scenario: dict, kinds) -> dict:
    """The estimator block `key` of a config: its kind, rank and the settings
    it gives, refused unless its kind is one of `kinds`, and checked."""
    kind = _kind(top[key], key)
    if kind not in kinds:
        raise ConfigError(f"{key}.kind", f"expected one of "
                                         f"{', '.join(kinds)}, got {kind!r}")
    spec = _section(top[key], key, ({"kind": _value, "rank": _int,
                                     **ESTIMATOR_SETTINGS[kind]}, ("rank",)))
    if spec.get("iterations", BATCH_ITERATIONS) < 1:
        raise ConfigError(f"{key}.iterations", "must be >= 1")
    tol = spec.get("tol")
    if tol is not None and not tol >= 0.0:
        raise ConfigError(f"{key}.tol", "must be >= 0")
    _check_estimator(spec, key, scenario)
    return spec


def _check_estimator(spec: dict, path: str, scenario: dict) -> None:
    """Refuse, before any output exists, settings that would fail once the
    run had started.  Every estimator's rank lies in [1, d], a ppca one's
    below d, since ppca needs d - rank trailing eigenvalues.  A synthetic
    run scores every checkpoint against the planted basis, so the ranks
    must agree.  A ppca estimator's group must be one of the scenario's
    and, where group_counts fixes it, its sample count above the rank.  A
    streaming estimator's own constructor checks its other settings, built
    here on a rank x rank stand-in basis."""
    top = scenario["d"] - 1 if spec["kind"] == "ppca" else scenario["d"]
    if not 1 <= spec["rank"] <= top:
        raise ConfigError(f"{path}.rank", f"must lie in [1, {top}] for "
                          f"{spec['kind']} at d = {scenario['d']}")
    if scenario["kind"] == "synthetic" and spec["rank"] != scenario["rank"]:
        raise ConfigError(f"{path}.rank",
                          f"must equal scenario.rank ({scenario['rank']}), "
                          "the planted rank every checkpoint is scored against")
    if spec["kind"] == "ppca":
        group = spec.get("group")
        if group is not None and not 0 <= group < scenario["num_groups"]:
            raise ConfigError(f"{path}.group",
                              f"must name one of the scenario's "
                              f"{scenario['num_groups']} groups (0-based)")
        counts = scenario.get("group_counts")
        if counts is not None:
            n, field = ((sum(counts), "rank") if group is None
                        else (counts[group], "group"))
            if n <= spec["rank"]:
                raise ConfigError(f"{path}.{field}",
                                  f"ppca needs more samples than the rank "
                                  f"({spec['rank']}); the scenario fixes {n}")
    if spec["kind"] in STREAMING_KINDS:
        rank, num_groups = spec["rank"], scenario["num_groups"]
        try:
            build_estimator(spec, rank, num_groups, np.eye(rank),
                            np.ones(num_groups))
        except ParameterError as exc:
            raise ConfigError(f"{path}.{exc.field}", str(exc)) from None


def scenario_script(scenario: dict) -> ScenarioScript:
    """The synthetic scenario's script, with its defaults for what is left out."""
    given = {key: scenario[key] for key in
             ("observe_prob", "group_probs", "group_counts") if key in scenario}
    return ScenarioScript(
        d=scenario["d"], k=scenario["rank"], spectrum=scenario["spectrum"],
        v_star=scenario["variances"],
        epochs=tuple(Epoch(**e) for e in scenario["epochs"]), **given)


# ---------------------------------------------------------------------------
# CSV ingestion


def _columns(header) -> tuple:
    """The group column, the variance column (or None) and the value columns
    of a dataset's header row; `header` is None for an empty file."""
    if header is None:
        raise CsvFormatError("line 1: empty file")
    if "group" not in header:
        raise CsvFormatError("line 1: missing required 'group' column")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise CsvFormatError(f"line 1: repeated column names {repeated}")
    group_col = header.index("group")
    var_col = header.index("variance") if "variance" in header else None
    value_cols = [i for i in range(len(header))
                  if i not in (group_col, var_col)]
    if not value_cols:
        raise CsvFormatError("line 1: no value columns")
    return group_col, var_col, value_cols


def _records(fh):
    """Each (line number, cells) of an open dataset file, the header first.
    A record the csv module refuses, such as one with a field over its size
    limit, raises CsvFormatError at its line; so do bytes the file's
    encoding cannot decode, at the line being read when they are decoded,
    which is theirs or an earlier one, since the file is decoded a block
    ahead of the reader."""
    reader = csv.reader(fh)
    for lineno in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CsvFormatError(f"line {lineno}: {exc}") from None
        yield lineno, row


# Rows per message from a producer process.  The csv_replay pass (25,000
# rows, d = 200, a SHASTA tick per row, one BLAS thread) read, median of 8
# interleaved rounds on 2 cores: 16 rows 2.98 s, 64 2.65, 256 2.62, 1024
# 2.95, 4096 2.81.
CHUNK_ROWS = 256


def _send_rows(send, rows, *args) -> None:
    """A producer process: send the (omega, values, group, info) rows that
    `rows(*args)` yields, CHUNK_ROWS to a message as their concatenated
    omegas and values, lengths, groups and infos, then None; or, after the
    rows before it, the exception that stopped them."""
    chunk, message = [], None
    try:
        for row in rows(*args):
            chunk.append(row)
            if len(chunk) == CHUNK_ROWS:
                send.send(_pack(chunk))
                chunk = []
    except Exception as exc:  # raised again by the receiving process
        message = exc
    if chunk:
        send.send(_pack(chunk))
    send.send(message)


def _pack(rows) -> tuple:
    """One message of `_send_rows`: its rows' omegas and values, each
    concatenated, their lengths, groups and infos."""
    omegas, values, groups, infos = zip(*rows)
    return (np.concatenate(omegas), np.concatenate(values),
            [omega.size for omega in omegas], list(groups), list(infos))


def _checked_samples(omegas, values, lengths, groups):
    """The samples of one chunk from a producer process, held to the rules
    of `ObservedSample.__post_init__` by one check over the whole chunk:
    each row's omega strictly increasing and nonnegative, its values
    finite, its group nonnegative.  Returns the samples and None; or, if a
    row breaks a rule, the samples of the rows before it and the ValueError
    ObservedSample raises for that row."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    rising = np.ones(omegas.size, dtype=bool)
    rising[1:] = omegas[1:] > omegas[:-1]
    rising[starts[starts < omegas.size]] = True  # a row's first entry
    bad = np.flatnonzero(~(rising & (omegas >= 0) & np.isfinite(values)))
    count = len(lengths)
    if bad.size:
        count = int(np.searchsorted(ends, bad[0], side="right"))
    count = next((row for row, group in enumerate(groups[:count])
                  if group < 0), count)
    starts, ends = starts.tolist(), ends.tolist()
    samples = [ObservedSample._checked(omegas[start:end], values[start:end],
                                       group)
               for start, end, group in zip(starts[:count], ends[:count],
                                            groups)]
    # ObservedSample itself refuses the first row the check flagged.
    for start, end, group in zip(starts[count:], ends[count:], groups[count:]):
        try:
            samples.append(ObservedSample(omegas[start:end], values[start:end],
                                          group))
        except ValueError as exc:
            return samples, exc
    return samples, None


def _produce(rows, args, pairs, name: str):
    """The (sample, info) pairs of a stream drawn or read in a producer
    process of its own, which runs `_send_rows(send, rows, *args)`: started
    by the first `next()` (multiprocessing's default context), while the
    caller works on the rows already sent.  `pairs` turns each chunk
    received, as its samples, infos and error from `_checked_samples`,
    into the pairs yielded.  The process is joined when the rows run out,
    when the generator is closed and when it raises, and killed first if it
    is still producing; should it die before its last message,
    ChildProcessError is raised, naming it as `name`."""
    # Imported on first use: loaded with this module, multiprocessing raised
    # the peak RSS of benchmark runs that start no producer by 1-2 MB.
    import multiprocessing

    receive, send = multiprocessing.Pipe(duplex=False)
    worker = multiprocessing.Process(target=_send_rows,
                                     args=(send, rows, *args), daemon=True)
    worker.start()
    send.close()  # so that the worker's death ends `recv` with EOFError

    def chunks():
        while True:
            try:
                message = receive.recv()
            except EOFError:
                worker.join()
                raise ChildProcessError(
                    f"{name} exited with code {worker.exitcode} before its "
                    "last row") from None
            if message is None:
                return
            if isinstance(message, Exception):
                raise message
            omegas, values, lengths, groups, infos = message
            samples, error = _checked_samples(omegas, values, lengths, groups)
            yield samples, infos, error

    try:
        yield from pairs(chunks())
    finally:
        worker.kill()  # harmless once it has sent its last message
        worker.join()
        receive.close()


def _csv_rows(path, num_groups):
    """The rows of a dataset file as `_send_rows` takes them, each parsed
    and checked but for `ObservedSample`'s rules; its info is the row's
    variance or None."""
    with open(path, newline="") as fh:
        records = _records(fh)
        _, header = next(records, (1, None))
        group_col, var_col, value_cols = _columns(header)
        for lineno, row in records:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, "
                                     f"got {len(row)}")
                omega, values = [], []
                for j, col in enumerate(value_cols):
                    cell = row[col]
                    if cell != "":
                        values.append(float(cell))
                        omega.append(j)
                variance = (None if var_col is None or row[var_col] == ""
                            else float(row[var_col]))
                if variance is not None and not np.isfinite(variance):
                    raise ValueError(f"variance {variance} is not finite")
                group = int(row[group_col])
                if num_groups is not None and not 0 <= group < num_groups:
                    raise ValueError(f"group {group} outside [0, {num_groups})")
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
            yield (np.array(omega, dtype=np.intp), np.array(values), group,
                   variance)


def _csv_pairs(chunks):
    """The (sample, variance) pairs of a dataset file's chunks; a row that
    `ObservedSample` refuses raises CsvFormatError at its line."""
    lineno = 2  # of the chunk's first row
    for samples, variances, error in chunks:
        yield from zip(samples, variances)
        lineno += len(samples)
        if error is not None:
            raise CsvFormatError(f"line {lineno}: {error}")


def read_csv_samples(path, num_groups=None):
    """Lazily yield ObservedSample rows (and their optional variances).

    Yields (sample, variance_or_none).  Raises CsvFormatError with the 1-based
    line number on a malformed header or row, or, given num_groups, on a row
    whose group lies outside [0, num_groups); every row before it is yielded
    first.  A missing file raises FileNotFoundError.

    The file is opened, parsed and checked in a producer process of its own
    (`_produce`), which sends its rows CHUNK_ROWS at a time; the caller's
    process builds each sample from the same parsed numbers, so the samples
    are the ones an in-process parse gives, byte for byte.
    """
    return _produce(_csv_rows, (path, num_groups), _csv_pairs,
                    f"the CSV reader of {path}")


def csv_dimension(path) -> int:
    """The number of value columns of a dataset's header."""
    with open(path, newline="") as fh:
        return len(_columns(next(_records(fh), (1, None))[1])[2])


# ---------------------------------------------------------------------------
# Running experiments


def shared_init(seed: int, d: int, rank: int, num_groups: int):
    """The (F0, v0) initialization shared by every estimator for one seed:
    `random_init` on the seed's Philox stream 1 (stream 0 draws the data)."""
    rng = make_rng(np.random.SeedSequence((int(seed), 1)))
    return random_init(rng, d, rank, num_groups)


def build_estimator(spec: dict, d: int, num_groups: int, f0, v0):
    """The streaming estimator `spec` names, given the settings `spec` holds
    of those its kind declares; one it leaves out takes the constructor's
    default."""
    kind = spec["kind"]
    if kind not in STREAMING_KINDS:
        raise ConfigError("estimator.kind",
                          f"{kind!r} is not a streaming estimator")
    settings = {key: spec[key] for key in ESTIMATOR_SETTINGS[kind]
                if key in spec}
    if kind == "shasta":
        return ShastaPCA(ShastaConfig(**settings), f0, v0)
    if kind == "petrels":
        return Petrels(f0, **settings)
    return Grouse(orthonormalize(f0), **settings)


def _checkpoints(est, pairs, every: int):
    """Feed (sample, info) pairs to a streaming estimator, yielding (t, info)
    after every `every`-th sample and after the last one (at t = 0 for an
    empty stream)."""
    t, info = 0, None
    for t, (sample, info) in enumerate(pairs, start=1):
        est.ingest(sample)
        if t % every == 0:
            yield t, info
    if t == 0 or t % every:
        yield t, info


def score_stream(est, pairs, every: int, num_groups: int, loglik=None):
    """Feed (sample, info) pairs to a streaming estimator and score it at each
    of `_checkpoints`: the subspace error against the planted basis `info.u`
    (a CSV stream has none, so against its final basis), SHASTA's variances
    and, given `loglik` = (evaluator, ref), SHASTA's evaluator(F, v) - ref.
    Returns (trace, seconds ingesting, seconds scoring); a record's elapsed
    time is read at its checkpoint, before its own scoring."""
    shasta = isinstance(est, ShastaPCA)
    evaluator, ref = loglik if shasta and loglik is not None else (None, None)
    points = []  # [t, error (a CSV checkpoint's basis), v, gap, elapsed]
    ingest_s = score_s = 0.0
    start = resumed = time.perf_counter()
    for t, info in _checkpoints(est, pairs, every):
        paused = time.perf_counter()
        ingest_s += paused - resumed
        basis = est.current_subspace()
        points.append([
            t, (subspace_error(basis, info.u)
                if isinstance(info, PlantedModel) else basis),
            est.variances.copy() if shasta else None,
            None if evaluator is None else evaluator(est.factors,
                                                     est.variances) - ref,
            paused - start])
        resumed = time.perf_counter()
        score_s += resumed - paused
    trace = MetricTrace(num_groups=num_groups)
    final_basis = points[-1][1]
    for t, err, v, gap, elapsed in points:
        if isinstance(err, np.ndarray):
            err = subspace_error(err, final_basis)
        trace.append(t, err, loglik_gap=gap, v_estimates=v,
                     elapsed_seconds=elapsed)
    return trace, ingest_s, score_s + time.perf_counter() - resumed


def _script_rows(scenario: dict, seed: int):
    """The pairs of the synthetic scenario's script on the seed's Philox
    stream 0, as rows for `_send_rows`: a row's info is its planted model
    if that model is new, else None, so each model is sent once."""
    model = None
    for sample, truth in run_script(scenario_script(scenario),
                                    seed=np.random.SeedSequence((seed, 0))):
        yield (sample.omega, sample.values, sample.group,
               None if truth is model else truth)
        model = truth


def _script_pairs(chunks):
    """The (sample, planted model) pairs of a script's chunks."""
    model = None
    for samples, models, error in chunks:
        for sample, new in zip(samples, models):
            if new is not None:
                model = new
            yield sample, model
        if error is not None:
            raise error


def seed_pairs(scenario: dict, seed: int):
    """A seed's (sample, info) pairs, drawn lazily in a producer process
    (`_produce`): the synthetic script on the seed's Philox stream 0, as
    `run_script` draws it in-process, or a csv dataset's rows.  The caller
    builds each sample from the numbers the process sends, so the pairs are
    those of an in-process draw, byte for byte, each planted model being
    an equal copy, one per epoch that changes it."""
    if scenario["kind"] == "csv":
        return read_csv_samples(scenario["path"], scenario["num_groups"])
    return _produce(_script_rows, (scenario, seed), _script_pairs,
                    f"the sample producer of seed {seed}")


def run_block(spec: dict, scenario: dict, seed: int, pairs, every: int,
              loglik_gap: bool):
    """Run estimator block `spec` from the seed's `shared_init` over its
    (sample, info) pairs.  Returns the trace, the estimator's seconds, the
    metric seconds, the seed's summary entry and the (evaluator, ref) that
    scored its gaps as evaluator(F, v) - ref, ref being the value at the
    planted truth, or None.  A streaming block is run by `score_stream`; a
    SHASTA one's evaluator is built before its timers start.  A batch
    block's clock covers building its BatchProblem, whose constructor
    builds the dense arrays that batch-mm iterates on and ppca fits, and
    every iterate with its subspace error; the reference, and ppca's gap,
    are read off those arrays once it stops."""
    d, num_groups = scenario["d"], scenario["num_groups"]
    f0, v0 = shared_init(seed, d, spec["rank"], num_groups)
    if spec["kind"] in STREAMING_KINDS:
        loglik = None
        if loglik_gap and spec["kind"] == "shasta":
            # Each gap is taken over the whole (single-epoch) stream.
            pairs = list(pairs)
            evaluator = DatasetEvaluator([s for s, _ in pairs], d)
            truth = pairs[-1][1]
            loglik = evaluator, evaluator(truth.factors, truth.v_star)
        est = build_estimator(spec, d, num_groups, f0, v0)
        trace, seconds, metric_seconds = score_stream(est, pairs, every,
                                                      num_groups, loglik)
        return (trace, seconds, metric_seconds,
                _final(trace, trace.records[-1].t), loglik)

    pairs = list(pairs)
    samples, truth = [s for s, _ in pairs], pairs[-1][1]
    start = time.perf_counter()
    problem = BatchProblem(samples=samples, num_groups=num_groups, d=d,
                           k=spec["rank"])
    dense = problem.dense
    # The rows the block fits: those of a ppca block's `group`, if it has one.
    rows = (dense.y if spec.get("group") is None
            else dense.y[dense.groups == spec["group"]])
    if spec["kind"] == "batch-mm":
        iterates = batch_iterates(problem, f0, v0,
                                  spec.get("iterations", BATCH_ITERATIONS),
                                  spec.get("tol"))
    else:  # ppca: one fit, its variance reported but not traced
        f, sigma_sq = ppca_closed_form(rows, spec["rank"])
        iterates = [BatchIterate(f, np.full(num_groups, sigma_sq), 1, None)]
    points = [(it, subspace_error(np.linalg.svd(it.f, full_matrices=False)[0],
                                  truth.u), time.perf_counter() - start)
              for it in iterates]
    seconds = time.perf_counter() - start
    loglik = None
    if loglik_gap:
        loglik = dense, dense(truth.factors, truth.v_star)
    trace = MetricTrace(num_groups=num_groups)
    for it, error, elapsed in points:
        gap = None
        if loglik is not None:
            gap = (dense(it.f, it.v) if it.loglik is None
                   else it.loglik) - loglik[1]
        trace.append(it.iteration, error, loglik_gap=gap,
                     v_estimates=it.v if spec["kind"] == "batch-mm" else None,
                     elapsed_seconds=elapsed)
    final = _final(trace, len(rows), [float(x) for x in points[-1][0].v])
    return (trace, seconds, time.perf_counter() - start - seconds, final,
            loglik)


def _final(trace: MetricTrace, samples: int, variances=None) -> dict:
    """A seed's summary entry, read off the trace's last record."""
    last = trace.records[-1]
    if variances is None and last.v_estimates is not None:
        variances = [float(x) for x in last.v_estimates]
    return {
        "final_subspace_error": last.subspace_error,
        "final_loglik_gap": last.loglik_gap,
        "final_variances": variances,
        "elapsed_seconds": last.elapsed_seconds,
        "samples": samples,
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every seed, write one trace CSV per seed plus summary.json."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_seed = {}
    for seed in config.seeds:
        # Closed on a raise too, which joins the seed's producer process
        # before the error propagates.
        with contextlib.closing(seed_pairs(config.scenario, seed)) as pairs:
            trace, _, _, per_seed[seed], _ = run_block(
                config.estimator, config.scenario, seed, pairs,
                config.checkpoint_every, config.loglik_gap)
        trace.write_csv(out_dir / f"trace_seed{seed}.csv")
    summary = _summarize(config, per_seed)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _summarize(config: ExperimentConfig, per_seed: dict) -> dict:
    def agg(key):
        vals = [m[key] for m in per_seed.values() if m[key] is not None]
        if not vals:
            return None
        return {
            "mean": float(np.mean(vals)),
            "std": float(np.std(vals)),
            "median": float(np.median(vals)),
        }

    return {
        "config": config.raw,
        "seeds": {str(s): m for s, m in per_seed.items()},
        "aggregate": {
            "final_subspace_error": agg("final_subspace_error"),
            "final_loglik_gap": agg("final_loglik_gap"),
        },
    }


# ---------------------------------------------------------------------------
# Timing comparison


def parse_timing_config(raw: dict) -> dict:
    top = _section(raw, "config", TIMING_CONFIG)
    scenario = _parse_scenario(top["scenario"])
    if scenario["kind"] != "synthetic" or len(scenario["epochs"]) != 1:
        raise ConfigError("scenario", "timing runs need a single-epoch "
                                      "synthetic scenario")
    streaming = _estimator(top, "streaming_estimator", scenario,
                           STREAMING_KINDS)
    batch = _estimator(top, "batch_estimator", scenario, ("batch-mm",))
    run = _parse_run(top, default_every=1000)
    del run["loglik_gap"]  # a timing run scores every gap
    return {"scenario": scenario, "streaming": streaming, "batch": batch, **run}


def load_timing_config(path) -> dict:
    return parse_timing_config(_load_yaml(path))


def timing_run(config: dict) -> dict:
    """Metric-versus-wallclock comparison of a streaming and a batch solver
    on the same data from the same random initialization: each seed's
    pairs are drawn once and run through `run_block` for each block."""
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario, every = config["scenario"], config["checkpoint_every"]
    rows = {}
    for seed in config["seeds"]:
        pairs = list(seed_pairs(scenario, seed))
        s_trace, ingest_s, score_s, streaming, _ = run_block(
            config["streaming"], scenario, seed, pairs, every, True)
        b_trace, batch_s, _, batch, (evaluator, ref) = run_block(
            config["batch"], scenario, seed, pairs, every, True)
        s_trace.write_csv(out_dir / f"streaming_seed{seed}.csv")
        b_trace.write_csv(out_dir / f"batch_seed{seed}.csv")
        f0, v0 = shared_init(seed, scenario["d"], scenario["rank"],
                             scenario["num_groups"])
        rows[seed] = {
            "init_gap": evaluator(f0, v0) - ref,
            "streaming_final_gap": streaming["final_loglik_gap"],
            "streaming_final_subspace_error":
                streaming["final_subspace_error"],
            "streaming_seconds": ingest_s + score_s,
            "streaming_estimator_seconds": ingest_s,
            "streaming_metric_seconds": score_s,
            "batch_final_gap": batch["final_loglik_gap"],
            "batch_final_subspace_error": batch["final_subspace_error"],
            "batch_seconds": batch_s,
            "batch_iterations": b_trace.records[-1].t,
        }

    def med(key):
        # A streaming estimator without factors (PETRELS, GROUSE) has no gap.
        vals = [r[key] for r in rows.values() if r[key] is not None]
        return float(np.median(vals)) if vals else None

    table = {f"median_{key}": med(key) for key in (
        "streaming_seconds", "streaming_estimator_seconds",
        "streaming_metric_seconds", "batch_seconds", "streaming_final_gap",
        "batch_final_gap", "streaming_final_subspace_error",
        "batch_final_subspace_error")}
    table["seeds"] = {str(s): r for s, r in rows.items()}
    with open(out_dir / "timing_summary.json", "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return table
