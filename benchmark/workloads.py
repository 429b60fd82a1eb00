"""The benchmark's four workloads.

Each workload builds its inputs from the seed in `setup`, repeats whole
rounds of the same operations in `round`, and checks the package's outputs
against independent computations in `check`.  A round records, through a
`Tally`, every end-to-end metric:

- `wall_s` times the workload's own phase (see each class);
- `samples_per_s` is SHASTA samples per second of its SHASTA phase;
- `tick_p99_us` is the 99th percentile of single `ShastaPCA.ingest` calls
  within each run of TICK_CHUNK consecutive ticks, median over the runs,
  where each tick's time is the fastest of REPLAYS identical replays of the
  stream (see `Probes`);
- `petrels_samples_per_s` and `grouse_samples_per_s` time one pass of each
  baseline;
- `batch_iter_s` is the time of one `batch_solve` iteration.

Every time and rate is reported at the machine's nominal speed (see
`Speed`, `Stopwatch` and `Probes`): the 2-core virtual machine the
benchmark was written on runs the same code up to 1.6 times slower in
phases lasting seconds to minutes, and every metric of a run moves with it.

Where the workload's own phase has no SHASTA tick, baseline pass or batch
solve, the round adds a probe: the same estimator over the first
PROBE_SAMPLES samples of the workload's own data, timed apart from
`wall_s`.  SHASTA and the baselines run interleaved in blocks of BLOCK
samples, with the batch iterations and a calibration slice spread between
the blocks, and the probes run half before and half after the workload's
own phase.  Every estimator is thus timed across the whole round rather
than in one short slot.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

import shastapca.cli  # noqa: F401  (the front end's import cost is set-up)
from shastapca import batch, datagen, harness, metrics, shasta

import reference

CLOCK = time.perf_counter
BLOCK = 250                 # samples per interleaved block
TICK_CHUNK = 1000           # ticks per p99: ten beyond the 99th percentile
PROBE_SAMPLES = 5000
REPLAYS = 3                 # identical SHASTA replays behind tick_p99_us
PROBE_BATCH_ITERS = 12
REFERENCE_TICKS = (100, 200, 300)  # checkpoints compared with the reference
CALIBRATION_STEPS = 10       # reference SHASTA ticks per calibration slice
CALIBRATION_ARRAY = 1 << 20  # float64 entries streamed per memory pass (8 MiB)
CALIBRATION_PASSES = 4       # memory passes per slice, where they are taken
# A slice's parts at the nominal speed: the ticks, and the memory passes.
CALIBRATION_NOMINAL_S = (0.012, 0.0046)
SAMPLE_EVERY = 0.25         # seconds between calibration slices in a Stopwatch

# Baseline settings of the bundled experiments: the static configs'
# (static_full) and the tracking config's (dynamic_subspace).
STATIC_BASELINES = ({"kind": "petrels", "rank": 3, "forgetting": 1.0, "delta": 0.1},
                    {"kind": "grouse", "rank": 3, "step": 0.01})
DYNAMIC_BASELINES = ({"kind": "petrels", "rank": 3, "forgetting": 0.998, "delta": 0.1},
                     {"kind": "grouse", "rank": 3, "step": 0.02})

# metric: (unit, power of the time scale: 1 for a time, -1 for a rate)
END_TO_END_UNITS = {
    "setup_s": ("s", 1),
    "wall_s": ("s", 1),
    "samples_per_s": ("samples/s", -1),
    "tick_p99_us": ("us", 1),
    "petrels_samples_per_s": ("samples/s", -1),
    "grouse_samples_per_s": ("samples/s", -1),
    "batch_iter_s": ("s/iteration", 1),
    "peak_rss_mb": ("MB", 0),
}

# Per-layer metrics whose layer runs on every workload (probes included).
COMMON_LAYERS = frozenset({
    "datagen.sample_us", "model.posterior_stats_us", "model.posterior_stats_calls",
    "model.evaluator_build_s", "model.loglik_ms", "shasta.ingest_us",
    "shasta.v_step_us", "shasta.f_step_us", "baselines.petrels_ingest_us",
    "baselines.grouse_ingest_us", "batch.v_step_ms", "batch.f_step_ms",
    "batch.iterations",
})


@functools.cache
def calibration_inputs():
    """The calibration ticks' inputs, the same in every run whatever the
    seed: a reference SHASTA state and samples at d = 100 with 50 observed
    entries."""
    rng = np.random.default_rng(0)
    d, k = 100, 3
    f0 = rng.standard_normal((d, k))
    v0 = np.array([0.1, 1.0])
    samples = [(np.sort(rng.choice(d, d // 2, replace=False)),
                rng.standard_normal(d // 2), i % 2)
               for i in range(CALIBRATION_STEPS)]
    return f0, v0, samples


@functools.cache
def calibration_arrays():
    """The memory passes' source and target, allocated on first use."""
    stream = np.random.default_rng(1).standard_normal(CALIBRATION_ARRAY)
    return stream, np.empty_like(stream)


class Speed:
    """The machine's speed, from a fixed calibration slice run among the
    measured operations.

    A slice is CALIBRATION_STEPS steps of the reference SHASTA tick, the
    interpreter work and small dense solves of the streaming code in code
    the package does not share.  With `memory`, for the dense batch code,
    it adds CALIBRATION_PASSES passes over an 8 MiB array, about a quarter of
    its time.  Over windows of a second or so, the package's batch
    iteration time moved by 10% (coefficient of variation) on the machine
    the benchmark was written on, its ratio to the reference ticks' time by
    9%, to the slice with memory passes by 5%; the streaming ticks followed
    the reference ticks alone more closely (4-8%), and the passes, which
    empty the caches, would slow the ticks that follow them.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.seconds = []

    def measure(self) -> None:
        f0, v0, samples = calibration_inputs()
        start = CLOCK()
        ref = reference.ReferenceShasta(f0, v0, "1/t", 0.5, 0.1, 0.1)
        for omega, y, g in samples:
            ref.step(omega, y, g)
        if self.memory:
            stream, out = calibration_arrays()
            for _ in range(CALIBRATION_PASSES):
                np.multiply(stream, 1.0001, out=out)
        self.seconds.append(CLOCK() - start)

    def scale(self) -> float:
        """Seconds measured alongside the slices, times scale(), are seconds
        at the nominal speed."""
        nominal = sum(CALIBRATION_NOMINAL_S[:2 if self.memory else 1])
        return nominal / statistics.median(self.seconds)


class Stopwatch:
    """Times calls the benchmark cannot split, such as run_experiment, with
    the machine's speed measured alongside: a timer signal runs a
    calibration slice every `interval` seconds inside the call, and the
    slices' time is taken out of the call's.  `seconds` sums the uses of the
    stopwatch, `laps` holds each use.  interval 0 measures the speed only
    before and after each use (the traced run sets it, so that no slice
    lands inside a span).  `memory` is Speed's."""

    interval = SAMPLE_EVERY

    def __init__(self, memory: bool = False):
        self.speed = Speed(memory)
        self.seconds = 0.0
        self.laps = []

    def __enter__(self):
        self.speed.measure()
        self._slices = len(self.speed.seconds)
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda *_: self.speed.measure())
        self._start = CLOCK()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        lap = CLOCK() - self._start - sum(self.speed.seconds[self._slices:])
        signal.signal(signal.SIGALRM, self._previous)
        self.speed.measure()
        self.seconds += lap
        self.laps.append(lap)


class Tally:
    """Per-round measurements of one run, each at the nominal speed."""

    def __init__(self):
        self.values = {}
        self.ticks = []  # seconds at the nominal speed
        self.attempted = 0

    def add(self, metric: str, value: float, scale: float = 1.0) -> None:
        """Record a value measured at a speed where measured seconds times
        `scale` are nominal seconds."""
        _, power = END_TO_END_UNITS[metric]
        self.values.setdefault(metric, []).append(value * scale ** power)

    def medians(self) -> dict:
        out = {m: statistics.median(v) for m, v in self.values.items()}
        chunks = [t[i:i + TICK_CHUNK] for t in self.ticks
                  for i in range(0, max(len(t) - TICK_CHUNK, 0) + 1, TICK_CHUNK)]
        out["tick_p99_us"] = 1e6 * statistics.median(
            float(np.percentile(c, 99)) for c in chunks)
        return out


class BatchProbe:
    """batch_solve one iteration at a time, each from the last iterate, on a
    fixed sample set; the dataset arrays are built before any timing."""

    def __init__(self, samples, d, num_groups, f0, v0):
        self.problem = batch.BatchProblem(samples=list(samples), num_groups=num_groups,
                                          d=d, k=f0.shape[1])
        self.problem.dense
        self.f, self.v = f0, v0
        self.logliks = []

    def step(self) -> float:
        """One iteration; returns its time in seconds."""
        start = CLOCK()
        (it,) = batch.batch_solve(self.problem, self.f, self.v, iters=1)
        seconds = CLOCK() - start
        self.f, self.v = it.f, it.v
        self.logliks.append(it.loglik)
        return seconds


class Probes:
    """SHASTA (every ingest timed) and the baselines over the same samples,
    interleaved in blocks of BLOCK samples, with batch_iters steps of an
    optional BatchProbe spread evenly between the blocks and a calibration
    slice after each block.  `run` takes the next share of the blocks, so a
    round can split the probes around its own phase; `finish` records the
    rates, the ticks and batch_iter_s.

    SHASTA runs as REPLAYS estimators built alike and fed the same samples;
    the first is the one measured and checked (`shasta`), and each tick's
    time is the fastest of its replays.  A tick that is slow because of what
    it computes is slow in every replay; one slowed by the machine (another
    process switched in, a burst from a neighbour) seldom is, and those
    bursts otherwise moved a run's 99th percentile by a third.

    Each block's times are scaled to the nominal speed by the median of the
    SPEED_WINDOW calibration slices around it: the machine's speed moves
    from one second to the next, and one slice alone is off by 5% or more.

    after_tick(t, est) runs after every SHASTA tick, inside SHASTA's time.
    """

    SPEED_WINDOW = 5

    def __init__(self, samples, shasta_spec, baseline_specs, d, num_groups, f0, v0,
                 batch_probe=None, batch_iters=0, after_tick=None):
        self.samples = samples
        self.replays = [harness.build_estimator(shasta_spec, d, num_groups, f0, v0)
                        for _ in range(REPLAYS)]
        self.shasta = self.replays[0]
        self.baselines = [(spec["kind"],
                           harness.build_estimator(spec, d, num_groups, f0, v0))
                          for spec in baseline_specs]
        self.batch_probe = batch_probe
        self.batch_iters = batch_iters
        self.after_tick = after_tick
        self.blocks = -(-len(samples) // BLOCK)
        self.done = 0
        self.speed = Speed()
        # per block, as measured: (fastest ticks, seconds per estimator,
        # batch step seconds, index of the calibration slice after it)
        self.measured = []
        self.seconds = None  # per estimator, at the nominal speed, after finish

    def run(self, share: float = 1.0) -> None:
        stop = min(self.blocks, self.done + round(share * self.blocks))
        if self.done < stop:
            self.speed.measure()
        for b in range(self.done, stop):
            first = b * BLOCK
            block = self.samples[first:first + BLOCK]
            seconds = {}
            ticks = np.empty((REPLAYS, len(block)))
            start = CLOCK()
            for i, sample in enumerate(block):
                tick = CLOCK()
                self.shasta.ingest(sample)
                ticks[0, i] = CLOCK() - tick
                if self.after_tick is not None:
                    self.after_tick(first + i + 1, self.shasta)
            seconds["shasta"] = CLOCK() - start
            for r, est in enumerate(self.replays[1:], start=1):
                for i, sample in enumerate(block):
                    tick = CLOCK()
                    est.ingest(sample)
                    ticks[r, i] = CLOCK() - tick
            for kind, est in self.baselines:
                start = CLOCK()
                for sample in block:
                    est.ingest(sample)
                seconds[kind] = CLOCK() - start
            steps = []
            if self.batch_probe is not None:
                n, k = self.batch_iters, self.blocks
                for _ in range((b + 1) * n // k - b * n // k):
                    steps.append(self.batch_probe.step())
            self.speed.measure()
            self.measured.append((ticks.min(axis=0), seconds, steps,
                                  len(self.speed.seconds) - 1))
        self.done = stop

    def finish(self, tally: Tally) -> None:
        self.run()
        slices = self.speed.seconds
        half = self.SPEED_WINDOW // 2
        ticks, steps = [], []
        self.seconds = dict.fromkeys(self.measured[0][1], 0.0)
        for block_ticks, seconds, block_steps, after in self.measured:
            window = slices[max(0, after - half):after + half + 1]
            scale = CALIBRATION_NOMINAL_S[0] / statistics.median(window)
            ticks.append(block_ticks * scale)
            steps += [value * scale for value in block_steps]
            for kind, value in seconds.items():
                self.seconds[kind] += value * scale
        tally.ticks.append(np.concatenate(ticks))
        for kind, _ in self.baselines:
            tally.add(f"{kind}_samples_per_s", len(self.samples) / self.seconds[kind])
        tally.attempted += len(self.samples) * (REPLAYS + len(self.baselines))
        if steps:
            tally.add("batch_iter_s", statistics.median(steps))
            tally.attempted += len(steps)

    def estimator(self, kind: str):
        return dict(self.baselines)[kind]


def finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def ascent_failures(label, logliks) -> list:
    drops = [(i + 1, b - a) for i, (a, b) in enumerate(zip(logliks, logliks[1:]))
             if b < a]
    return [f"{label}: batch log-likelihood decreased at (iteration, change) "
            f"{drops[:3]}"] if drops else []


def read_trace(path) -> list:
    """Rows of a trace CSV as dicts of floats (empty cells become None)."""
    with open(path, newline="") as fh:
        return [{key: (float(cell) if cell != "" else None)
                 for key, cell in row.items()}
                for row in csv.DictReader(fh)]


def compare_reference(failures, label, package, ref) -> None:
    """Hold the package's checkpoint values to the reference tick, ~1e-9.

    package and ref: {t: (variances, subspace error or None)}.
    """
    for t, (v_ref, err_ref) in ref.items():
        v_pkg, err_pkg = package[t]
        if not np.allclose(v_pkg, v_ref, rtol=1e-9, atol=0.0):
            failures.append(f"{label}: variances at t={t} differ from the "
                            f"reference: {list(v_pkg)} vs {list(v_ref)}")
        if err_ref is not None and abs(err_pkg - err_ref) > 1e-9:
            failures.append(f"{label}: subspace error at t={t} differs from "
                            f"the reference: {err_pkg!r} vs {err_ref!r}")


def relative_errors(v_hat, v_star) -> np.ndarray:
    return np.abs(np.asarray(v_hat) - np.asarray(v_star)) / np.asarray(v_star)


class Workload:
    """One workload: inputs from the seed, whole rounds, output checks.

    layers: the per-layer metrics whose layer runs on this workload.
    round_seconds: nominal time of one round on a 2-core machine.
    """

    layers = COMMON_LAYERS
    round_seconds: float

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.first = None  # what the first round left for `check`
        self.layer_extras = {}

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tally: Tally) -> None:
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError

    def _remember(self, **kwargs) -> None:
        if self.first is None:
            self.first = kwargs


# ---------------------------------------------------------------------------


class StreamD100(Workload):
    """configs/dynamic_subspace.yaml with one seed through run_experiment.

    wall_s is the run_experiment call: inline datagen, 20,000 SHASTA ticks,
    a subspace error at every 100th sample, and the trace and summary files.
    Probes over the first epoch's samples give tick_p99_us, the baselines
    (at the tracking config's settings) and batch_iter_s.
    """

    layers = COMMON_LAYERS | {
        "shasta.current_subspace_us", "metrics.subspace_error_us",
        "metrics.trace_write_ms", "harness.run_self_s", "harness.config_parse_ms"}
    round_seconds = 12.0
    CONFIG = "configs/dynamic_subspace.yaml"
    TAIL_FRACTION = 0.2      # the settled tail: the last fifth of each epoch
    TAIL_BOUND = 2e-3        # bound on every settled-tail subspace error
    VARIANCE_BOUND = 0.5     # bound on the final variances' relative errors

    def setup(self):
        config = harness.load_config(self.CONFIG)
        scenario = config.scenario
        if self.tiny:
            scenario = dict(scenario, epochs=[dict(e, samples=250)
                                              for e in scenario["epochs"]])
        self.config = dataclasses.replace(
            config, scenario=scenario, seeds=(self.seed,),
            output_dir=str(self.workdir / "stream_d100"))
        script = harness.scenario_script(scenario)
        pairs = list(itertools.islice(
            datagen.run_script(script, np.random.SeedSequence((self.seed, 0))),
            300 if self.tiny else PROBE_SAMPLES))
        self.samples = [s for s, _ in pairs]
        self.truth_at = {t: pairs[t - 1][1].u for t in REFERENCE_TICKS}
        self.d = scenario["d"]
        self.num_groups = len(scenario["variances"])
        self.f0, self.v0 = harness.shared_init(
            self.seed, self.d, self.config.estimator["rank"], self.num_groups)

    def round(self, tally):
        args = (self.d, self.num_groups, self.f0, self.v0)
        batch_probe = BatchProbe(self.samples, *args)
        probes = Probes(self.samples, self.config.estimator, DYNAMIC_BASELINES, *args,
                        batch_probe=batch_probe, batch_iters=PROBE_BATCH_ITERS)
        probes.run(0.5)
        with Stopwatch() as watch:
            summary = harness.run_experiment(self.config)
        probes.finish(tally)
        n = summary["seeds"][str(self.seed)]["samples"]
        tally.add("wall_s", watch.seconds, watch.speed.scale())
        tally.add("samples_per_s", n / watch.seconds, watch.speed.scale())
        tally.attempted += n
        self._remember(summary=summary, probe=batch_probe)

    def check(self):
        failures = ascent_failures("stream_d100", self.first["probe"].logliks)
        rows = read_trace(Path(self.config.output_dir) / f"trace_seed{self.seed}.csv")
        script = harness.scenario_script(self.config.scenario)
        total = script.total_samples
        every = self.config.checkpoint_every
        if [int(r["t"]) for r in rows] != list(range(every, total + 1, every)):
            return failures + ["stream_d100: trace checkpoints are not every "
                               f"{every} samples up to {total}"]

        final = self.first["summary"]["seeds"][str(self.seed)]
        if final["samples"] != total:
            failures.append(f"stream_d100: ingested {final['samples']} of {total}")
        if not self.tiny:
            start = 0
            for i, epoch in enumerate(script.epochs):
                end = start + epoch.samples
                settled = end - self.TAIL_FRACTION * epoch.samples
                tail = max(r["subspace_error"] for r in rows if settled < r["t"] <= end)
                print(f"check stream_d100: epoch {i} settled-tail subspace "
                      f"error max {tail:.3e}")
                if not tail < self.TAIL_BOUND:
                    failures.append(f"stream_d100: epoch {i} settled-tail "
                                    f"subspace error {tail:.3e} >= {self.TAIL_BOUND}")
                start = end
            v_star = np.asarray(self.config.scenario["variances"])
            rel = relative_errors(final["final_variances"], v_star)
            print(f"check stream_d100: final variance relative errors {rel}")
            if not np.all(rel < self.VARIANCE_BOUND):
                failures.append(f"stream_d100: final variances "
                                f"{final['final_variances']} not within "
                                f"{self.VARIANCE_BOUND} of {v_star}")

        package = {int(r["t"]): ([r["v_1"], r["v_2"]], r["subspace_error"])
                   for r in rows}
        ref = reference.reference_checkpoints(
            self.samples, self.f0, self.v0, self.config.estimator, self.truth_at)
        compare_reference(failures, "stream_d100", package, ref)
        return failures


# ---------------------------------------------------------------------------


class StreamWide(Workload):
    """One wide stream made at set-up: d = 10,000, about 100 observed entries
    per sample, two groups, SHASTA on the 1/t schedule.

    wall_s is the SHASTA pass, with a save_state/load_state round trip and a
    subspace error every 1,000 samples (the pass resumes from the loaded
    state), plus one PETRELS and one GROUSE pass over the same samples.  A
    batch probe on the first BATCH_PROBE samples gives batch_iter_s.
    """

    layers = COMMON_LAYERS | {"shasta.current_subspace_us",
                              "metrics.subspace_error_us", "shasta.save_state_ms",
                              "shasta.load_state_ms", "shasta.state_bytes"}
    round_seconds = 9.0
    SHASTA = {"kind": "shasta", "rank": 3, "weights": "1/t", "c_f": 0.5,
              "c_v": 0.1, "delta": 0.1, "variance_mode": "grouped"}
    BATCH_PROBE = 300
    SHRINK_BOUND = 0.5  # final subspace error below this share of the start

    def setup(self):
        if self.tiny:
            self.d, n, p, self.every = 2000, 400, 0.05, 100
        else:
            self.d, n, p, self.every = 10_000, 4000, 0.01, 1000
        script = datagen.ScenarioScript(
            d=self.d, k=3, spectrum=(400.0, 200.0, 100.0), v_star=(0.01, 0.1),
            epochs=(datagen.Epoch(samples=n),), observe_prob=p,
            group_probs=(0.3, 0.7))
        pairs = list(datagen.run_script(script, np.random.SeedSequence((self.seed, 0))))
        self.samples = [s for s, _ in pairs]
        self.truth = pairs[-1][1]
        self.num_groups = 2
        self.f0, self.v0 = harness.shared_init(self.seed, self.d, 3, self.num_groups)
        self.path = self.workdir / "wide_state.bin"

    def round(self, tally):
        errors = []

        def checkpoint(t, est):
            if t % self.every == 0:
                shasta.save_state(est.state, self.path)
                est.state = shasta.load_state(self.path)
                errors.append(metrics.subspace_error(est.current_subspace(),
                                                     self.truth.u))

        args = (self.d, self.num_groups, self.f0, self.v0)
        batch_probe = BatchProbe(self.samples[:100 if self.tiny else self.BATCH_PROBE],
                                 *args)
        probes = Probes(self.samples, self.SHASTA, STATIC_BASELINES, *args,
                        batch_probe=batch_probe, batch_iters=PROBE_BATCH_ITERS,
                        after_tick=checkpoint)
        probes.finish(tally)
        seconds = probes.seconds
        tally.add("wall_s", sum(seconds.values()))
        tally.add("samples_per_s", len(self.samples) / seconds["shasta"])
        tally.attempted += 2 * len(errors)
        self.layer_extras["shasta.state_bytes"] = (float(os.path.getsize(self.path)),
                                                   "bytes")
        self._remember(est=probes.shasta, errors=errors, petrels=probes.estimator("petrels"),
                       grouse=probes.estimator("grouse"), probe=batch_probe,
                       final_bytes=self.path.read_bytes())

    def check(self):
        first = self.first
        failures = ascent_failures("stream_wide", first["probe"].logliks)
        d, k, L = self.d, 3, self.num_groups
        expected = 48 + 8 * (3 * d * k + d * k * k + 3 * L)
        if len(first["final_bytes"]) != expected:
            failures.append(f"stream_wide: checkpoint is {len(first['final_bytes'])} "
                            f"bytes, expected {expected}")

        # An uninterrupted pass must end, byte for byte, where the measured
        # pass ended after resuming from every checkpoint.
        recorded = {}
        plain = harness.build_estimator(self.SHASTA, d, L, self.f0, self.v0)
        for t, sample in enumerate(self.samples, start=1):
            plain.ingest(sample)
            if t in REFERENCE_TICKS:
                recorded[t] = (plain.variances.copy(),
                               metrics.subspace_error(plain.current_subspace(),
                                                      self.truth.u))
            s = plain.state
            if t % self.every == 0 and not finite(s.f, s.v, s.r_bar, s.s_bar, s.fhat,
                                                  s.theta_bar, s.rho_bar):
                failures.append(f"stream_wide: SHASTA state not finite at t={t}")
        uninterrupted = self.workdir / "wide_uninterrupted.bin"
        shasta.save_state(plain.state, uninterrupted)
        if uninterrupted.read_bytes() != first["final_bytes"]:
            failures.append("stream_wide: resuming from checkpoints changed the "
                            "final state")

        initial = reference.subspace_distance(self.f0, self.truth.u)
        final_error = first["errors"][-1]
        print(f"check stream_wide: subspace error {initial:.3f} -> {final_error:.3f}")
        if not self.tiny and not final_error < self.SHRINK_BOUND * initial:
            failures.append(f"stream_wide: subspace error only fell from "
                            f"{initial:.3f} to {final_error:.3f}")
        if not finite(first["petrels"].f, first["petrels"].r, first["grouse"].u):
            failures.append("stream_wide: baseline state not finite")
        u = first["grouse"].current_subspace()
        drift = np.linalg.norm(u.T @ u - np.eye(u.shape[1]))
        if not drift <= 1e-7:
            failures.append(f"stream_wide: GROUSE basis off orthonormal by {drift:.2e}")

        ref = reference.reference_checkpoints(
            self.samples, self.f0, self.v0, self.SHASTA,
            dict.fromkeys(REFERENCE_TICKS, self.truth.u))
        compare_reference(failures, "stream_wide", recorded, ref)
        return failures


# ---------------------------------------------------------------------------


def desk_data(seed: int, tiny: bool):
    """The data of configs/timing_desk.yaml for one seed: (timing config,
    samples, planted model at the end of the stream)."""
    config = harness.load_timing_config("configs/timing_desk.yaml")
    scenario = config["scenario"]
    if tiny:
        counts = tuple(c // 20 for c in scenario["group_counts"])
        scenario = dict(scenario, group_counts=counts,
                        epochs=[dict(scenario["epochs"][0], samples=sum(counts))])
        config = dict(config, scenario=scenario)
    pairs = list(datagen.run_script(harness.scenario_script(scenario),
                                    np.random.SeedSequence((seed, 0))))
    return config, [s for s, _ in pairs], pairs[-1][1]


class BatchDesk(Workload):
    """The timing_desk data (n = 25,000, d = 200, 20% observed) solved by
    batch_solve from shared_init to tol 1e-8.

    wall_s covers building the batch problem and its dense arrays plus the
    solve; batch_iter_s is the solve's time over its iterations.  A SHASTA
    probe (timing_desk's streaming settings) gives samples_per_s and
    tick_p99_us, and baseline probes the baseline rates.
    """

    round_seconds = 13.0
    SUBSPACE_BOUND = 0.05
    VARIANCE_BOUND = 0.1

    def setup(self):
        self.config, self.samples, self.truth = desk_data(self.seed, self.tiny)
        scenario = self.config["scenario"]
        self.d = scenario["d"]
        self.num_groups = len(scenario["variances"])
        self.f0, self.v0 = harness.shared_init(
            self.seed, self.d, self.config["batch"]["rank"], self.num_groups)

    def round(self, tally):
        spec = self.config["batch"]
        args = (self.d, self.num_groups, self.f0, self.v0)
        samples = self.samples[:300 if self.tiny else PROBE_SAMPLES]
        probes = Probes(samples, self.config["streaming"], STATIC_BASELINES, *args)
        probes.run(0.5)
        watch = Stopwatch(memory=True)
        with watch:
            problem = batch.BatchProblem(samples=self.samples,
                                         num_groups=self.num_groups,
                                         d=self.d, k=spec["rank"])
            problem.dense
        with watch:
            iterates = batch.batch_solve(problem, self.f0, self.v0,
                                         iters=spec["iterations"], tol=spec["tol"])
        tally.add("wall_s", watch.seconds, watch.speed.scale())
        tally.add("batch_iter_s", watch.laps[1] / len(iterates), watch.speed.scale())
        tally.attempted += len(iterates)
        del problem
        probes.finish(tally)
        tally.add("samples_per_s", len(samples) / probes.seconds["shasta"])
        self._remember(iterates=iterates)

    def check(self):
        iterates = self.first["iterates"]
        failures = ascent_failures("batch_desk", [it.loglik for it in iterates])
        print(f"check batch_desk: {len(iterates)} iterations")
        if len(iterates) >= self.config["batch"]["iterations"]:
            failures.append("batch_desk: no convergence to the tolerance")
        last = iterates[-1]
        dense = reference.dense_log_likelihood(last.f, last.v, self.samples)
        rel = abs(dense - last.loglik) / abs(dense)
        print(f"check batch_desk: log-likelihood {last.loglik!r} vs dense "
              f"reference {dense!r} (relative {rel:.1e})")
        if not rel <= 1e-8:
            failures.append(f"batch_desk: final log-likelihood {last.loglik!r} "
                            f"differs from the dense reference {dense!r}")
        if not self.tiny:
            err = reference.subspace_distance(last.f, self.truth.u)
            v_rel = relative_errors(last.v, self.truth.v_star)
            print(f"check batch_desk: subspace error {err:.3e}, variance "
                  f"relative errors {v_rel}")
            if not err < self.SUBSPACE_BOUND:
                failures.append(f"batch_desk: subspace error {err:.3e} >= "
                                f"{self.SUBSPACE_BOUND}")
            if not np.all(v_rel < self.VARIANCE_BOUND):
                failures.append(f"batch_desk: variances {last.v} not within "
                                f"{self.VARIANCE_BOUND} of {self.truth.v_star}")
        return failures


# ---------------------------------------------------------------------------


def write_dataset_csv(path, samples, d: int) -> None:
    """The README's dataset format, written independently of the package:
    d value columns then a `group` column; an empty cell is a missing entry;
    values are written with repr, which round-trips float64 exactly.  No
    cell needs quoting, so rows are joined directly."""
    with open(path, "w") as fh:
        fh.write(",".join([f"x{j}" for j in range(d)] + ["group"]) + "\n")
        for s in samples:
            cells = [""] * d
            for j, value in zip(s.omega.tolist(), s.values.tolist()):
                cells[j] = repr(value)
            cells.append(str(s.group))
            fh.write(",".join(cells) + "\n")


class CsvReplay(Workload):
    """A timing_desk-shaped dataset written to CSV at set-up, then streamed
    row by row through read_csv_samples into SHASTA at timing_desk's
    streaming settings, taking a basis every CHECKPOINT_EVERY rows as the
    CSV path of run_experiment does.

    run_experiment itself is left out: on a CSV scenario it ends by
    measuring the final basis against itself, which rounds to a tiny
    negative number on about half of all inputs, and MetricTrace then
    rejects it (see CHANGES.md).

    wall_s is the pass: parsing every row, one SHASTA tick per row and the
    bases.  Probes over the first rows give tick_p99_us, the baseline rates
    and batch_iter_s.
    """

    layers = COMMON_LAYERS | {"harness.csv_row_us", "shasta.current_subspace_us"}
    round_seconds = 14.0
    CHECKPOINT_EVERY = 100
    VARIANCE_BOUND = 0.25

    def setup(self):
        desk, self.samples, self.truth = desk_data(self.seed, self.tiny)
        self.spec = desk["streaming"]
        self.d = desk["scenario"]["d"]
        self.num_groups = len(desk["scenario"]["variances"])
        self.csv_path = self.workdir / "desk.csv"
        write_dataset_csv(self.csv_path, self.samples, self.d)
        self.f0, self.v0 = harness.shared_init(
            self.seed, self.d, self.spec["rank"], self.num_groups)

    def round(self, tally):
        args = (self.d, self.num_groups, self.f0, self.v0)
        samples = self.samples[:300 if self.tiny else PROBE_SAMPLES]
        batch_probe = BatchProbe(samples, *args)
        probes = Probes(samples, self.spec, STATIC_BASELINES, *args,
                        batch_probe=batch_probe, batch_iters=PROBE_BATCH_ITERS)
        probes.run(0.5)
        est = harness.build_estimator(self.spec, *args)
        recorded = {}
        rows = 0
        with Stopwatch() as watch:
            for sample, _ in harness.read_csv_samples(self.csv_path):
                est.ingest(sample)
                rows += 1
                if rows % self.CHECKPOINT_EVERY == 0:
                    est.current_subspace()
                    if rows in REFERENCE_TICKS:
                        recorded[rows] = (est.variances.copy(), None)
        tally.add("wall_s", watch.seconds, watch.speed.scale())
        tally.add("samples_per_s", rows / watch.seconds, watch.speed.scale())
        tally.attempted += rows
        probes.finish(tally)
        self._remember(rows=rows, recorded=recorded, est=est, probe=batch_probe)

    def check(self):
        first = self.first
        failures = ascent_failures("csv_replay", first["probe"].logliks)
        parsed = [sample for sample, _ in harness.read_csv_samples(self.csv_path)]
        if len(parsed) != len(self.samples):
            failures.append(f"csv_replay: parsed {len(parsed)} rows of "
                            f"{len(self.samples)} written")
        for row, (sample, written) in enumerate(zip(parsed, self.samples), start=1):
            if (sample.group != written.group
                    or not np.array_equal(sample.omega, written.omega)
                    or not np.array_equal(sample.values, written.values)):
                failures.append(f"csv_replay: row {row} parses differently "
                                "from the sample written")
                break
        if first["rows"] != len(self.samples):
            failures.append(f"csv_replay: ingested {first['rows']} rows of "
                            f"{len(self.samples)} written")
        if not self.tiny:
            v_hat = first["est"].variances
            v_rel = relative_errors(v_hat, self.truth.v_star)
            print(f"check csv_replay: final variance relative errors {v_rel}")
            if not np.all(v_rel < self.VARIANCE_BOUND):
                failures.append(f"csv_replay: final variances {v_hat} "
                                f"not within {self.VARIANCE_BOUND} of "
                                f"{self.truth.v_star}")

        ref = reference.reference_checkpoints(
            self.samples, self.f0, self.v0, self.spec, dict.fromkeys(REFERENCE_TICKS))
        compare_reference(failures, "csv_replay", first["recorded"], ref)
        return failures


WORKLOADS = {
    "stream_d100": StreamD100,
    "stream_wide": StreamWide,
    "batch_desk": BatchDesk,
    "csv_replay": CsvReplay,
}
