"""Config-driven experiment runner.

A YAML config declares a scenario (synthetic script or external CSV), one
estimator with its hyperparameters, and run settings (seeds, checkpoint
cadence, output directory).  Each seed produces one `trace_seed<N>.csv`; a
`summary.json` aggregates final metrics across seeds.  Given a config and a
seed, every numeric output byte is deterministic except elapsed-time fields.

Every streaming run, synthetic or CSV, and the streaming pass of a timing run
are fed and scored by one function, `score_stream`.  Batch MM runs are scored
and timestamped per iterate of `batch.batch_iterates`.

CSV dataset format: a header row with a `group` column, an optional
`variance` column (reporting only), and d value columns; an empty value cell
marks a missing entry.  Rows stream lazily, so file length never affects
memory use.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .baselines import Grouse, Petrels
from .batch import BatchProblem, batch_iterates, ppca_closed_form, random_init
from .datagen import (Epoch, PlantedModel, ScenarioScript, make_rng,
                      orthonormalize, run_script)
from .metrics import MetricTrace, subspace_error
from .model import DatasetEvaluator, ObservedSample, ParameterError
from .shasta import ShastaConfig, ShastaPCA

STREAMING_KINDS = ("shasta", "petrels", "grouse")
ESTIMATOR_KINDS = STREAMING_KINDS + ("batch-mm", "ppca")


class ConfigError(ValueError):
    """Invalid experiment config; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message carries the 1-based line number."""


# ---------------------------------------------------------------------------
# Config parsing


def _get(mapping, key, path, required=True, default=None):
    if not isinstance(mapping, dict):
        raise ConfigError(path, "expected a mapping")
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    return mapping[key]


def _number(mapping, key, path, kind=float, required=True, default=None):
    """`_get`, read as a float or an int (kind); a value kind cannot read
    raises ConfigError naming the field.  An optional field with no default
    may be absent or null, and reads as None."""
    value = _get(mapping, key, path, required, default)
    if value is None and not required and default is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{path}.{key}",
                          f"expected {noun}, got {value!r}") from None


def _numbers(mapping, key, path, kind=float, required=True):
    """`_number` for a list of values."""
    values = _get(mapping, key, path, required)
    if values is None and not required:
        return None
    try:
        return tuple(kind(x) for x in values)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}",
                          f"expected a list of numbers, got {values!r}") from None


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
    scenario = _parse_scenario(_get(raw, "scenario", "config"))
    estimator = _parse_estimator(_get(raw, "estimator", "config"), "estimator")
    if scenario["kind"] == "csv" and estimator["kind"] in ("batch-mm", "ppca"):
        raise ConfigError("estimator.kind",
                          f"{estimator['kind']!r} cannot run on a csv scenario; "
                          "it needs a streaming estimator")
    _check_estimator(estimator, "estimator", scenario)
    run = _parse_run(raw, default_every=100)
    loglik = bool(_get(raw["run"], "loglik_gap", "run", required=False,
                       default=False))
    if loglik and scenario["kind"] == "synthetic" and len(scenario["epochs"]) > 1:
        raise ConfigError("run.loglik_gap",
                          "only defined for single-epoch synthetic scenarios")
    if loglik and scenario["kind"] == "csv":
        raise ConfigError("run.loglik_gap", "needs a planted synthetic scenario")
    return ExperimentConfig(scenario=scenario, estimator=estimator,
                            loglik_gap=loglik, raw=raw, **run)


def _parse_run(raw, default_every: int) -> dict:
    """The `run` block of an experiment or a timing config: its seeds,
    checkpoint cadence and output directory."""
    run = _get(raw, "run", "config")
    seeds = _numbers(run, "seeds", "run", int)
    if not seeds:
        raise ConfigError("run.seeds", "need at least one seed")
    every = _number(run, "checkpoint_every", "run", int, required=False,
                    default=default_every)
    if every < 1:
        raise ConfigError("run.checkpoint_every", "must be >= 1")
    output_dir = _get(run, "output_dir", "run")
    if output_dir is None:
        raise ConfigError("run.output_dir", "must name a directory")
    return {"seeds": seeds, "checkpoint_every": every,
            "output_dir": str(output_dir)}


def _parse_scenario(raw) -> dict:
    kind = _get(raw, "kind", "scenario", required=False, default="synthetic")
    if kind == "csv":
        path = _get(raw, "path", "scenario")
        if not Path(path).exists():
            raise ConfigError("scenario.path", f"dataset not found: {path}")
        num_groups = _number(raw, "num_groups", "scenario", int)
        if num_groups < 1:
            raise ConfigError("scenario.num_groups", "must be >= 1")
        return {"kind": "csv", "path": str(path), "num_groups": num_groups}
    if kind != "synthetic":
        raise ConfigError("scenario.kind", f"unknown scenario kind {kind!r}")

    d = _number(raw, "d", "scenario", int)
    rank = _number(raw, "rank", "scenario", int)
    spectrum = _numbers(raw, "spectrum", "scenario")
    variances = _numbers(raw, "variances", "scenario")
    if not 1 <= rank <= d:
        raise ConfigError("scenario.rank", f"must lie in [1, d = {d}]")
    if len(spectrum) != rank:
        raise ConfigError("scenario.spectrum", "needs one value per rank")
    observe_prob = _number(raw, "observe_prob", "scenario", required=False,
                           default=1.0)
    group_probs = _numbers(raw, "group_probs", "scenario", required=False)
    group_counts = _numbers(raw, "group_counts", "scenario", int,
                            required=False)
    if (group_probs is None) == (group_counts is None):
        raise ConfigError("scenario",
                          "specify exactly one of group_probs / group_counts")

    epochs = _get(raw, "epochs", "scenario", required=False)
    if epochs is None:
        if group_counts is None:
            raise ConfigError("scenario.epochs",
                              "required unless group_counts fixes the length")
        epochs = [{"samples": sum(group_counts)}]
    parsed_epochs = []
    for i, e in enumerate(epochs):
        epath = f"scenario.epochs[{i}]"
        scale = _get(e, "scale_variance", epath, required=False)
        if scale is not None:
            scale = (_number(scale, "group", f"{epath}.scale_variance", int),
                     _number(scale, "factor", f"{epath}.scale_variance"))
            if not 0 <= scale[0] < len(variances):
                raise ConfigError(f"{epath}.scale_variance.group", "out of range")
            if not scale[1] > 0.0:
                raise ConfigError(f"{epath}.scale_variance.factor",
                                  "must be positive, as the variances it scales")
        parsed_epochs.append(dict(
            samples=_number(e, "samples", epath, int),
            observe_prob=_number(e, "observe_prob", epath, required=False),
            redraw_subspace=bool(_get(e, "redraw_subspace", epath,
                                      required=False, default=False)),
            scale_variance=scale,
        ))
    scenario = {
        "kind": "synthetic", "d": d, "rank": rank, "spectrum": spectrum,
        "variances": variances, "num_groups": len(variances),
        "observe_prob": observe_prob,
        "group_probs": group_probs,
        "group_counts": group_counts,
        "epochs": parsed_epochs,
    }
    _check_scenario(scenario)
    return scenario


def _check_scenario(scenario: dict) -> None:
    """Refuse, before any output exists, a synthetic scenario that datagen
    would refuse once the run had started: build its epochs, its script and
    its planted model, on a d x rank stand-in basis."""
    for i, epoch in enumerate(scenario["epochs"]):
        try:
            Epoch(**epoch)
        except ParameterError as exc:
            raise ConfigError(f"scenario.epochs[{i}].{exc.field}", str(exc)) from None
    try:
        scenario_script(scenario)
        PlantedModel(u=np.eye(scenario["d"], scenario["rank"]),
                     spectrum=scenario["spectrum"], v_star=scenario["variances"],
                     group_probs=scenario["group_probs"],
                     group_counts=scenario["group_counts"])
    except ParameterError as exc:
        field = "variances" if exc.field == "v_star" else exc.field
        raise ConfigError(f"scenario.{field}", str(exc)) from None


def _parse_estimator(raw, path) -> dict:
    kind = _get(raw, "kind", path)
    if kind not in ESTIMATOR_KINDS:
        raise ConfigError(f"{path}.kind",
                          f"unknown estimator {kind!r}; expected one of "
                          f"{', '.join(ESTIMATOR_KINDS)}")
    out = {"kind": kind, "rank": _number(raw, "rank", path, int)}
    if kind == "shasta":
        out.update(
            weights=_get(raw, "weights", path, required=False, default="1/t"),
            c_f=_number(raw, "c_f", path, required=False, default=0.1),
            c_v=_number(raw, "c_v", path, required=False, default=0.1),
            delta=_number(raw, "delta", path, required=False, default=0.1),
            variance_mode=_get(raw, "variance_mode", path, required=False,
                               default="grouped"),
        )
    elif kind == "petrels":
        out.update(
            forgetting=_number(raw, "forgetting", path, required=False,
                               default=1.0),
            delta=_number(raw, "delta", path, required=False, default=0.1),
        )
    elif kind == "grouse":
        out.update(step=_number(raw, "step", path, required=False,
                                default=0.01))
    elif kind == "batch-mm":
        out.update(
            iterations=_number(raw, "iterations", path, int, required=False,
                               default=100),
            tol=_number(raw, "tol", path, required=False),
        )
        if out["iterations"] < 1:
            raise ConfigError(f"{path}.iterations", "must be >= 1")
    elif kind == "ppca":
        out.update(group=_number(raw, "group", path, int, required=False))
    return out


def _check_estimator(spec: dict, path: str, scenario: dict) -> None:
    """Refuse, before any output exists, settings that would fail once the
    run had started.  A synthetic run scores every checkpoint against the
    planted basis, so the ranks must agree.  A ppca estimator's group must
    be one of the scenario's, its rank below d, and, where group_counts
    fixes it, its sample count above the rank.  A streaming estimator's
    own constructor checks its other settings, built here on a rank x rank
    stand-in basis."""
    if scenario["kind"] == "synthetic" and spec["rank"] != scenario["rank"]:
        raise ConfigError(f"{path}.rank",
                          f"must equal scenario.rank ({scenario['rank']}), "
                          "the planted rank every checkpoint is scored against")
    if spec["kind"] == "ppca":
        group = spec["group"]
        if group is not None and not 0 <= group < scenario["num_groups"]:
            raise ConfigError(f"{path}.group",
                              f"must name one of the scenario's "
                              f"{scenario['num_groups']} groups (0-based)")
        if spec["rank"] >= scenario["d"]:
            raise ConfigError(f"{path}.rank",
                              "must be below scenario.d for ppca, which "
                              "needs d - rank trailing eigenvalues")
        counts = scenario["group_counts"]
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
    return ScenarioScript(
        d=scenario["d"], k=scenario["rank"], spectrum=scenario["spectrum"],
        v_star=scenario["variances"], observe_prob=scenario["observe_prob"],
        group_probs=scenario["group_probs"], group_counts=scenario["group_counts"],
        epochs=tuple(Epoch(**e) for e in scenario["epochs"]),
    )


# ---------------------------------------------------------------------------
# CSV ingestion


def read_csv_samples(path):
    """Lazily yield ObservedSample rows (and their optional variances).

    Yields (sample, variance_or_none).  Raises CsvFormatError with the 1-based
    line number on malformed rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("line 1: empty file") from None
        if "group" not in header:
            raise CsvFormatError("line 1: missing required 'group' column")
        group_col = header.index("group")
        var_col = header.index("variance") if "variance" in header else None
        value_cols = [i for i in range(len(header))
                      if i not in (group_col, var_col)]
        if not value_cols:
            raise CsvFormatError("line 1: no value columns")

        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"line {lineno}: expected {len(header)} cells, got {len(row)}")
            try:
                group = int(row[group_col])
            except ValueError:
                raise CsvFormatError(
                    f"line {lineno}: group {row[group_col]!r} is not an integer"
                ) from None
            omega, values = [], []
            for j, col in enumerate(value_cols):
                cell = row[col]
                if cell == "":
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise CsvFormatError(
                        f"line {lineno}: value {cell!r} is not a number"
                    ) from None
                omega.append(j)
            variance = None
            if var_col is not None and row[var_col] != "":
                variance = float(row[var_col])
            try:
                sample = ObservedSample(np.array(omega, dtype=np.intp),
                                        np.array(values), group)
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
            yield sample, variance


def csv_dimension(path) -> int:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    return len([c for c in header if c not in ("group", "variance")])


def zero_fill(samples, d: int) -> np.ndarray:
    """Dense n x d matrix with zeros at missing entries, for estimators that
    need fully sampled data."""
    out = np.zeros((len(samples), d))
    for i, s in enumerate(samples):
        out[i, s.omega] = s.values
    return out


# ---------------------------------------------------------------------------
# Running experiments


def shared_init(seed: int, d: int, rank: int, num_groups: int):
    """The (F0, v0) initialization shared by every estimator for one seed:
    `random_init` on the seed's Philox stream 1 (stream 0 draws the data)."""
    rng = make_rng(np.random.SeedSequence((int(seed), 1)))
    return random_init(rng, d, rank, num_groups)


def build_estimator(spec: dict, d: int, num_groups: int, f0, v0):
    kind = spec["kind"]
    if kind == "shasta":
        cfg = ShastaConfig(rank=spec["rank"], num_groups=num_groups,
                           weights=spec["weights"], c_f=spec["c_f"],
                           c_v=spec["c_v"], delta=spec["delta"],
                           variance_mode=spec["variance_mode"])
        return ShastaPCA(cfg, f0, v0)
    if kind == "petrels":
        return Petrels(f0, forgetting=spec["forgetting"], delta=spec["delta"])
    if kind == "grouse":
        return Grouse(orthonormalize(f0), step=spec["step"])
    raise ConfigError("estimator.kind", f"{kind!r} is not a streaming estimator")


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
        trace, final = _run_one_seed(config, seed)
        trace.write_csv(out_dir / f"trace_seed{seed}.csv")
        per_seed[seed] = final
    summary = _summarize(config, per_seed)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _run_one_seed(config: ExperimentConfig, seed: int):
    """One seed's trace and summary entry; a streaming run is scored by
    `score_stream`."""
    scenario, spec = config.scenario, config.estimator
    num_groups = scenario["num_groups"]
    if scenario["kind"] == "synthetic":
        d = scenario["d"]
        stream = run_script(scenario_script(scenario),
                            seed=np.random.SeedSequence((seed, 0)))
    else:
        d = csv_dimension(scenario["path"])
        stream = read_csv_samples(scenario["path"])
    f0, v0 = shared_init(seed, d, spec["rank"], num_groups)
    if spec["kind"] in ("batch-mm", "ppca"):
        return _run_batch_seed(config, list(stream), d, num_groups, f0, v0)
    loglik = None
    if config.loglik_gap and spec["kind"] == "shasta":
        # Each gap is taken over the whole (single-epoch) stream.
        stream = list(stream)
        evaluator = DatasetEvaluator([s for s, _ in stream], d)
        truth = stream[-1][1]
        loglik = evaluator, evaluator(truth.factors, truth.v_star)
    est = build_estimator(spec, d, num_groups, f0, v0)
    trace, _, _ = score_stream(est, stream, config.checkpoint_every,
                               num_groups, loglik)
    return trace, _final(trace, trace.records[-1].t)


def _run_batch_seed(config: ExperimentConfig, pairs, d, num_groups, f0, v0):
    spec = config.estimator
    samples = [s for s, _ in pairs]
    truth = pairs[-1][1]
    start = time.perf_counter()
    problem = BatchProblem(samples=samples, num_groups=num_groups, d=d,
                           k=spec["rank"])
    ref = (problem.dense(truth.factors, truth.v_star) if config.loglik_gap
           else None)
    if spec["kind"] == "batch-mm":
        trace = _batch_trace(problem, f0, v0, spec, truth, ref, start)
        return trace, _final(trace, len(samples))

    subset = (samples if spec["group"] is None
              else [s for s in samples if s.group == spec["group"]])
    f, sigma_sq = ppca_closed_form(zero_fill(subset, d), spec["rank"])
    v_hat = np.full(num_groups, max(sigma_sq, 1e-12))
    trace = MetricTrace(num_groups=num_groups)
    u_hat = np.linalg.svd(f, full_matrices=False)[0]
    trace.append(1, subspace_error(u_hat, truth.u),
                 loglik_gap=None if ref is None else problem.dense(f, v_hat) - ref,
                 elapsed_seconds=time.perf_counter() - start)
    return trace, _final(trace, len(subset), [float(sigma_sq)] * num_groups)


def _batch_trace(problem, f0, v0, spec, truth, ref, start) -> MetricTrace:
    """Batch MM from (f0, v0), each iterate scored against the planted truth
    and timestamped as it arrives (seconds since `start`)."""
    trace = MetricTrace(num_groups=problem.num_groups)
    for it in batch_iterates(problem, f0, v0, spec["iterations"], spec["tol"]):
        u_hat = np.linalg.svd(it.f, full_matrices=False)[0]
        trace.append(it.iteration, subspace_error(u_hat, truth.u),
                     loglik_gap=None if ref is None else it.loglik - ref,
                     v_estimates=it.v,
                     elapsed_seconds=time.perf_counter() - start)
    return trace


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
    scenario = _parse_scenario(_get(raw, "scenario", "config"))
    if scenario["kind"] != "synthetic" or len(scenario["epochs"]) != 1:
        raise ConfigError("scenario", "timing runs need a single-epoch "
                                      "synthetic scenario")
    streaming_raw = _get(raw, "streaming_estimator", "config", required=False)
    streaming = None
    if streaming_raw is not None:
        # Without a streaming estimator the run degenerates to a batch trace.
        streaming = _parse_estimator(streaming_raw, "streaming_estimator")
        if streaming["kind"] not in STREAMING_KINDS:
            raise ConfigError("streaming_estimator.kind", "must be streaming")
        _check_estimator(streaming, "streaming_estimator", scenario)
    batch = _parse_estimator(_get(raw, "batch_estimator", "config"),
                             "batch_estimator")
    if batch["kind"] != "batch-mm":
        raise ConfigError("batch_estimator.kind", "must be batch-mm")
    _check_estimator(batch, "batch_estimator", scenario)
    return {"scenario": scenario, "streaming": streaming, "batch": batch,
            **_parse_run(raw, default_every=1000)}


def load_timing_config(path) -> dict:
    return parse_timing_config(_load_yaml(path))


def timing_run(config: dict) -> dict:
    """Metric-versus-wallclock comparison of a streaming and a batch solver
    on the same data from the same random initialization."""
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = config["scenario"]
    script = scenario_script(scenario)
    num_groups = scenario["num_groups"]
    rows = {}
    for seed in config["seeds"]:
        pairs = list(run_script(script, seed=np.random.SeedSequence((seed, 0))))
        samples = [s for s, _ in pairs]
        truth = pairs[-1][1]
        evaluator = DatasetEvaluator(samples, scenario["d"])
        ref = evaluator(truth.factors, truth.v_star)
        f0, v0 = shared_init(seed, scenario["d"], scenario["rank"], num_groups)

        row = {"init_gap": evaluator(f0, v0) - ref}
        if config["streaming"] is not None:
            est = build_estimator(config["streaming"], scenario["d"],
                                  num_groups, f0, v0)
            s_trace, ingest_s, score_s = score_stream(
                est, pairs, config["checkpoint_every"], num_groups,
                (evaluator, ref))
            s_trace.write_csv(out_dir / f"streaming_seed{seed}.csv")
            row.update(
                streaming_final_gap=s_trace.records[-1].loglik_gap,
                streaming_final_subspace_error=s_trace.records[-1].subspace_error,
                streaming_seconds=ingest_s + score_s,
                streaming_estimator_seconds=ingest_s,
                streaming_metric_seconds=score_s,
            )

        # The timer covers the lazy build of the problem's dense arrays.
        problem = BatchProblem(samples=samples, num_groups=num_groups,
                               d=scenario["d"], k=config["batch"]["rank"])
        start = time.perf_counter()
        b_trace = _batch_trace(problem, f0, v0, config["batch"], truth, ref, start)
        batch_time = time.perf_counter() - start
        b_trace.write_csv(out_dir / f"batch_seed{seed}.csv")

        row.update(
            batch_final_gap=b_trace.records[-1].loglik_gap,
            batch_final_subspace_error=b_trace.records[-1].subspace_error,
            batch_seconds=batch_time,
            batch_iterations=b_trace.records[-1].t,
        )
        rows[seed] = row

    def med(key):
        # A streaming estimator without factors (PETRELS, GROUSE) has no gap.
        vals = [r[key] for r in rows.values() if r.get(key) is not None]
        return float(np.median(vals)) if vals else None

    table = {
        "seeds": {str(s): r for s, r in rows.items()},
        "median_streaming_seconds": med("streaming_seconds"),
        "median_streaming_estimator_seconds": med("streaming_estimator_seconds"),
        "median_streaming_metric_seconds": med("streaming_metric_seconds"),
        "median_batch_seconds": med("batch_seconds"),
        "median_streaming_final_gap": med("streaming_final_gap"),
        "median_batch_final_gap": med("batch_final_gap"),
        "median_streaming_final_subspace_error":
            med("streaming_final_subspace_error"),
        "median_batch_final_subspace_error": med("batch_final_subspace_error"),
    }
    with open(out_dir / "timing_summary.json", "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return table
