import contextlib
import csv
import json
import multiprocessing
import os
import signal
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from shastapca import harness
from shastapca.batch import BatchProblem, batch_solve
from shastapca.cli import main as cli_main
from shastapca.datagen import Epoch, ScenarioScript, run_script
from shastapca.harness import (
    ConfigError,
    CsvFormatError,
    _records,
    build_estimator,
    csv_dimension,
    load_config,
    parse_config,
    parse_timing_config,
    read_csv_samples,
    run_experiment,
    shared_init,
    timing_run,
)
from shastapca.model import ObservedSample, RejectedSample
from shastapca.shasta import ShastaConfig

from helpers import (crafted_checkpoints, inline_csv_samples, read_trace,
                     write_csv_stream)


def smoke_raw(output_dir, estimator=None, seeds=(0,)):
    cfg = {
        "scenario": {
            "kind": "synthetic", "d": 10, "rank": 2, "spectrum": [2.0, 1.0],
            "variances": [1e-2, 1e-1], "group_counts": [50, 150],
            "observe_prob": 0.8,
        },
        "estimator": estimator or {
            "kind": "shasta", "rank": 2, "weights": "1/t",
            "c_f": 0.1, "c_v": 0.1, "delta": 0.1,
        },
        "run": {
            "seeds": list(seeds), "checkpoint_every": 50,
            "loglik_gap": True, "output_dir": str(output_dir),
        },
    }
    return cfg


class TestConfigParsing:
    def test_missing_field_names_path(self):
        raw = smoke_raw("x")
        del raw["scenario"]["d"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "scenario.d" in str(err.value)

    def test_unknown_estimator_kind(self):
        raw = smoke_raw("x")
        raw["estimator"]["kind"] = "oja"
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "estimator.kind" in str(err.value)

    def test_loglik_gap_requires_static_scenario(self):
        raw = smoke_raw("x")
        raw["scenario"].pop("group_counts")
        raw["scenario"]["group_probs"] = [0.5, 0.5]
        raw["scenario"]["epochs"] = [
            {"samples": 100}, {"samples": 100, "redraw_subspace": True}]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "loglik_gap" in str(err.value)

    def test_group_law_exclusivity(self):
        raw = smoke_raw("x")
        raw["scenario"]["group_probs"] = [0.2, 0.8]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_scale_variance_group_range(self):
        raw = smoke_raw("x")
        raw["scenario"].pop("group_counts")
        raw["scenario"]["group_probs"] = [0.5, 0.5]
        raw["run"]["loglik_gap"] = False
        raw["scenario"]["epochs"] = [
            {"samples": 10, "scale_variance": {"group": 7, "factor": 2.0}}]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "scale_variance" in str(err.value)

    def test_left_out_settings_take_the_constructors_defaults(self, tmp_path):
        # A block with only kind and rank builds what the harness's own
        # copies of the defaults used to build: the parsed spec holds only
        # what the block gives, and each estimator's defaults are its own.
        def built(kind):
            block = {"kind": kind, "rank": 2}
            spec = parse_config(smoke_raw("x", block)).estimator
            assert spec == block
            return build_estimator(spec, 10, 2, *shared_init(0, 10, 2, 2))

        shasta = built("shasta")
        assert shasta.cfg == ShastaConfig(weights="1/t", c_f=0.1, c_v=0.1,
                                          delta=0.1, variance_mode="grouped")
        assert (shasta.state.k, shasta.state.num_groups) == (2, 2)
        petrels = built("petrels")
        assert (petrels.forgetting, petrels.delta) == (1.0, 0.1)
        assert built("grouse").step == 0.01
        # batch-mm runs 100 iterations with no early stop, with its tol
        # left out or null; a null ppca group fits every group.
        for block in ({"kind": "batch-mm", "rank": 2},
                      {"kind": "batch-mm", "rank": 2, "tol": None}):
            out = tmp_path / f"batch{len(block)}"
            config = parse_config(smoke_raw(out, block))
            assert config.estimator.get("tol") is None
            run_experiment(config)
            trace = read_trace(out / "trace_seed0.csv")
            assert [r.t for r in trace.records] == list(range(1, 101))
        config = parse_config(smoke_raw(tmp_path / "ppca", {
            "kind": "ppca", "rank": 2, "group": None}))
        assert config.estimator["group"] is None
        assert run_experiment(config)["seeds"]["0"]["samples"] == 200
        # A tol of 0 or inf is legal: every iteration runs, or the run
        # stops at the first change.
        for tol, iterations in ((0.0, 5), (float("inf"), 2)):
            out = tmp_path / f"tol{tol}"
            config = parse_config(smoke_raw(out, {
                "kind": "batch-mm", "rank": 2, "iterations": 5, "tol": tol}))
            assert config.estimator["tol"] == tol
            run_experiment(config)
            trace = read_trace(out / "trace_seed0.csv")
            assert len(trace.records) == iterations
        # A null setting with a default other than none is refused.
        with pytest.raises(ConfigError) as err:
            parse_config(smoke_raw("x", {"kind": "shasta", "rank": 2,
                                         "c_f": None}))
        assert err.value.path == "estimator.c_f"

    def test_bundled_configs_parse(self):
        import pathlib
        here = pathlib.Path(__file__).resolve().parent.parent / "configs"
        for name in ("static_full.yaml", "static_half.yaml",
                     "dynamic_subspace.yaml", "dynamic_variances_v1.yaml",
                     "dynamic_variances_v2.yaml", "smoke.yaml"):
            load_config(here / name)
        with open(here / "timing_desk.yaml") as fh:
            parse_timing_config(yaml.safe_load(fh))


class TestRunExperiment:
    def test_smoke_run_writes_valid_outputs(self, tmp_path):
        import time
        config = parse_config(smoke_raw(tmp_path / "out"))
        start = time.perf_counter()
        summary = run_experiment(config)
        assert time.perf_counter() - start < 1.0
        trace = read_trace(tmp_path / "out" / "trace_seed0.csv")
        assert trace.records[-1].t == 200
        assert all(0 <= r.subspace_error <= 2 for r in trace.records)
        assert summary["aggregate"]["final_subspace_error"]["median"] < 0.5
        with open(tmp_path / "out" / "summary.json") as fh:
            on_disk = json.load(fh)
        assert on_disk["seeds"]["0"]["samples"] == 200

    def test_deterministic_metric_columns(self, tmp_path):
        outputs = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            run_experiment(parse_config(smoke_raw(out)))
            with open(out / "trace_seed0.csv") as fh:
                rows = list(csv.reader(fh))
            # All columns except the trailing elapsed_s are the contract.
            outputs.append([row[:-1] for row in rows])
        assert outputs[0] == outputs[1]

    def test_all_streaming_estimators_produce_traces(self, tmp_path):
        # The same scenario/seed runs PETRELS, GROUSE, and the main estimator
        # interchangeably through the shared interface.
        for est in (
            {"kind": "shasta", "rank": 2, "weights": "1/t", "c_f": 0.1,
             "c_v": 0.1, "delta": 0.1},
            {"kind": "petrels", "rank": 2, "forgetting": 1.0, "delta": 0.1},
            {"kind": "grouse", "rank": 2, "step": 0.01},
        ):
            raw = smoke_raw(tmp_path / est["kind"], estimator=est)
            raw["run"]["loglik_gap"] = est["kind"] == "shasta"
            run_experiment(parse_config(raw))
            trace = read_trace(
                tmp_path / est["kind"] / "trace_seed0.csv")
            assert trace.records[-1].t == 200
            has_v = trace.records[-1].v_estimates is not None
            assert has_v == (est["kind"] == "shasta")

    def test_batch_and_ppca_estimators(self, tmp_path):
        raw = smoke_raw(tmp_path / "batch", estimator={
            "kind": "batch-mm", "rank": 2, "iterations": 20})
        summary = run_experiment(parse_config(raw))
        trace = read_trace(tmp_path / "batch" / "trace_seed0.csv")
        assert trace.records[-1].t == 20
        gaps = [r.loglik_gap for r in trace.records]
        assert all(b >= a - 1e-9 * abs(a) for a, b in zip(gaps, gaps[1:]))

        raw = smoke_raw(tmp_path / "ppca", estimator={
            "kind": "ppca", "rank": 2})
        raw["scenario"]["observe_prob"] = 1.0
        summary = run_experiment(parse_config(raw))
        assert summary["seeds"]["0"]["final_subspace_error"] < 1.0

        # Per-group fit: only that group's samples are used.
        raw = smoke_raw(tmp_path / "ppca_g0", estimator={
            "kind": "ppca", "rank": 2, "group": 0})
        raw["scenario"]["observe_prob"] = 1.0
        raw["run"]["loglik_gap"] = False
        summary = run_experiment(parse_config(raw))
        assert summary["seeds"]["0"]["samples"] == 50


def read_until_error(reader, path, num_groups=None):
    """The (sample, variance) rows `reader` yields from `path`, and the
    message of the CsvFormatError that stops it (None if none does)."""
    rows = []
    try:
        for row in reader(path, num_groups):
            rows.append(row)
    except CsvFormatError as exc:
        return rows, str(exc)
    return rows, None


def assert_same_rows(got, want):
    """Equal rows, down to each omega's dtype and each array's bytes."""
    assert len(got) == len(want)
    for (a, a_var), (b, b_var) in zip(got, want):
        assert a.omega.dtype == b.omega.dtype == np.intp
        assert a.omega.tobytes() == b.omega.tobytes()
        assert a.values.dtype == b.values.dtype == np.float64
        assert a.values.tobytes() == b.values.tobytes()
        assert type(a.group) is type(b.group) and a.group == b.group
        assert a_var == b_var


def write_rows(path, rows: int, bad_line=None, bad_row="0,oops,2.0"):
    """A group,y0,y1 dataset of `rows` rows; line `bad_line`, if given,
    holds `bad_row`."""
    lines = ["group,y0,y1"] + [f"{i % 2},{i}.5,{-i}" for i in range(rows)]
    if bad_line is not None:
        lines[bad_line - 1] = bad_row
    path.write_text("\n".join(lines) + "\n")


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once `seconds` have passed."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        script = ScenarioScript(
            d=6, k=2, spectrum=(2.0, 1.0), v_star=(0.01, 0.1),
            group_probs=(0.3, 0.7), observe_prob=0.6,
            epochs=(Epoch(samples=25),))
        samples = [s for s, _ in run_script(script, seed=5)]
        path = tmp_path / "data.csv"
        write_csv_stream(samples, 6, path)
        back = [s for s, _ in read_csv_samples(path)]
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            np.testing.assert_array_equal(a.omega, b.omega)
            np.testing.assert_array_equal(a.values, b.values)
            assert a.group == b.group

    def test_fully_dense_file(self, tmp_path):
        samples = [ObservedSample.full([1.0, 2.0, 3.0], 0)]
        path = tmp_path / "dense.csv"
        write_csv_stream(samples, 3, path)
        (back, _), = read_csv_samples(path)
        np.testing.assert_array_equal(back.omega, [0, 1, 2])

    def test_all_empty_row_is_legal(self, tmp_path):
        path = tmp_path / "empty_row.csv"
        path.write_text("group,y0,y1\n1,,\n")
        (sample, _), = read_csv_samples(path)
        assert sample.nobs == 0 and sample.group == 1

    def test_malformed_rows_report_line_numbers(self, tmp_path, monkeypatch):
        # Each bad row is reported at its line with the in-process reader's
        # message, after every row before it: in the first chunk, at a
        # chunk's first, middle and last row and past several chunks.
        # Every check runs in the reader process as it parses the row; the
        # finite and nonnegative checks are ObservedSample's own.
        monkeypatch.setattr(harness, "CHUNK_ROWS", 3)
        path = tmp_path / "bad.csv"
        path.write_text("group,y0,y1\n0,1.0,2.0\n0,oops,2.0\n")
        rows, message = read_until_error(read_csv_samples, path)
        assert message == ("line 3: could not convert string to float: "
                           "'oops'")
        assert [s.values.tolist() for s, _ in rows] == [[1.0, 2.0]]
        for bad_line, bad_row, num_groups, expected in [
                (2, "0,oops,2.0", None, "could not convert string to "
                                        "float: 'oops'"),
                (5, "0,nan,2.0", None, "observed values must be finite"),
                (6, "1,1.0,-inf", 2, "observed values must be finite"),
                (7, "0,inf,2.0", None, "observed values must be finite"),
                (9, "0,1.0", None, "expected 3 cells, got 2"),
                (10, "0,1e999,2.0", None, "observed values must be finite"),
                (11, "2,1.0,2.0", 2, "group 2 outside [0, 2)"),
                (12, "-1,1.0,2.0", None, "group label must be nonnegative"),
                (13, "-2,1.0,2.0", None, "group label must be nonnegative"),
                (14, "one,1.0,2.0", 2, "invalid literal for int() with "
                                       "base 10: 'one'"),
                (17, "1,2.0,nan", None, "observed values must be finite")]:
            write_rows(path, 20, bad_line, bad_row)
            rows, message = read_until_error(read_csv_samples, path,
                                             num_groups)
            assert message == f"line {bad_line}: {expected}", bad_row
            assert len(rows) == bad_line - 2, bad_row
            assert_same_rows(rows, read_until_error(inline_csv_samples, path,
                                                    num_groups)[0])

    def test_missing_group_column(self, tmp_path):
        # Each header error reads as it did when the rows were parsed in
        # the calling process.
        path = tmp_path / "nogroup.csv"
        for text, message in [
                ("y0,y1\n1.0,2.0\n", "missing required 'group' column"),
                ("", "empty file"),
                ("group,y0,y0\n0,1.0,2.0\n", "repeated column names ['y0']"),
                ("group,variance\n0,1.0\n", "no value columns")]:
            path.write_text(text)
            with pytest.raises(CsvFormatError) as err:
                list(read_csv_samples(path))
            assert str(err.value) == f"line 1: {message}"
            with pytest.raises(CsvFormatError) as err:
                csv_dimension(path)
            assert str(err.value) == f"line 1: {message}"

    def test_missing_file_keeps_its_name(self, tmp_path):
        # The CLI reports a FileNotFoundError as an `io` error naming the
        # file; raised in the reader process, it keeps its filename.
        path = tmp_path / "missing.csv"
        with pytest.raises(FileNotFoundError) as err:
            next(read_csv_samples(path))
        assert err.value.filename == str(path)
        assert str(err.value) == f"[Errno 2] No such file or directory: '{path}'"
        assert not multiprocessing.active_children()

    def test_rows_match_the_in_process_reader(self, tmp_path, monkeypatch):
        # Byte for byte, across whole chunks, a partial last chunk, empty
        # rows, variance cells given and left out, and finite values whose
        # sum overflows.
        monkeypatch.setattr(harness, "CHUNK_ROWS", 4)
        script = ScenarioScript(
            d=7, k=2, spectrum=(2.0, 1.0), v_star=(0.01, 0.1, 1.0),
            group_probs=(0.2, 0.3, 0.5), observe_prob=0.4,
            epochs=(Epoch(samples=30),))
        samples = [s for s, _ in run_script(script, seed=3)]
        samples[5] = ObservedSample(np.array([], dtype=np.intp), [], 1)
        samples[9] = ObservedSample([1, 4], [1e308, 1e308], 2)
        variances = np.random.default_rng(0).uniform(0.1, 2.0, len(samples))
        path = tmp_path / "data.csv"
        write_csv_stream(samples, 7, path, variances=variances)
        lines = path.read_text().splitlines()
        lines[8] = lines[8].replace(repr(float(variances[7])), "", 1)
        path.write_text("\n".join(lines) + "\n")
        for num_groups in (None, 3):
            want = list(inline_csv_samples(path, num_groups))
            assert want[7][1] is None and want[5][0].nobs == 0
            assert want[9][0].values.tolist() == [1e308, 1e308]
            assert_same_rows(list(read_csv_samples(path, num_groups)), want)

    def test_reader_process_ends_with_the_read(self, tmp_path, monkeypatch):
        # No reader process outlives its generator: exhausted, closed after
        # its first row, or stopped by a bad row far from the file's end,
        # one that does not parse or one ObservedSample refuses.
        monkeypatch.setattr(harness, "CHUNK_ROWS", 2)
        path = tmp_path / "rows.csv"
        write_rows(path, 20_000)
        with deadline(120):
            assert sum(1 for _ in read_csv_samples(path)) == 20_000
            assert not multiprocessing.active_children()

            rows = read_csv_samples(path)
            next(rows)
            assert len(multiprocessing.active_children()) == 1
            rows.close()
            assert not multiprocessing.active_children()

            for bad_row in ("0,oops,2.0", "0,nan,2.0"):
                write_rows(path, 20_000, bad_line=500, bad_row=bad_row)
                with pytest.raises(CsvFormatError, match="^line 500: "):
                    list(read_csv_samples(path))
                assert not multiprocessing.active_children()

    def test_killed_reader_process_is_an_error(self, tmp_path, monkeypatch):
        # The reader blocks on a full pipe long before the end of the file;
        # once it is killed, reading on raises instead of waiting.
        monkeypatch.setattr(harness, "CHUNK_ROWS", 2)
        path = tmp_path / "rows.csv"
        write_rows(path, 20_000)
        rows = read_csv_samples(path)
        next(rows)
        worker, = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGKILL)
        with deadline(60), pytest.raises(ChildProcessError,
                                         match="exited with code -9"):
            for _ in rows:
                pass
        assert not multiprocessing.active_children()

    def test_reader_is_joined_when_a_run_raises(self, tmp_path):
        # A row scaled by 1e300 makes SHASTA refuse it, far from the file's
        # end; the reader is joined before the error propagates.
        script = ScenarioScript(
            d=100, k=2, spectrum=(2.0, 1.0), v_star=(0.05,),
            group_probs=(1.0,), observe_prob=0.5, epochs=(Epoch(samples=3000),))
        samples = [s for s, _ in run_script(script, seed=2)]
        samples[10] = ObservedSample(samples[10].omega,
                                     samples[10].values * 1e300, 0)
        data = tmp_path / "stream.csv"
        write_csv_stream(samples, 100, data)
        raw = {
            "scenario": {"kind": "csv", "path": str(data), "num_groups": 1},
            "estimator": {"kind": "shasta", "rank": 2, "weights": "1/t",
                          "c_f": 0.1, "c_v": 0.1, "delta": 0.1},
            "run": {"seeds": [0], "output_dir": str(tmp_path / "csvrun")},
        }
        with pytest.raises(RejectedSample) as held:
            run_experiment(parse_config(raw))
        # `held` keeps the exception, and with it the run's frames, alive.
        assert not multiprocessing.active_children(), held

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("group,y0,y1\n0,1.0\n")
        with pytest.raises(CsvFormatError) as err:
            list(read_csv_samples(path))
        assert "line 2" in str(err.value)

    def test_variance_column_passthrough(self, tmp_path):
        path = tmp_path / "var.csv"
        path.write_text("group,variance,y0\n0,0.5,1.0\n1,,2.0\n")
        rows = list(read_csv_samples(path))
        assert rows[0][1] == 0.5 and rows[1][1] is None

    def test_million_row_streaming_is_memory_bounded(self, tmp_path):
        # One million rows stream through without the file length showing up
        # in the caller's footprint, the only one traced and asserted.
        path = tmp_path / "big.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "y0", "y1", "y2", "y3"])
            for i in range(1_000_000):
                writer.writerow([i % 2, "1.5", "", "-0.25", "3.0"])
        # Traced from the first pair on, once the reader has been forked.
        pairs = read_csv_samples(path)
        next(pairs)
        tracemalloc.start()
        count = 1 + sum(1 for _ in pairs)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 1_000_000
        assert peak < 8e6  # bytes; the file itself is 18 MB

    def test_load_csv_problem(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("group,y0,y1,y2\n0,1.0,,2.0\n1,,3.0,\n")
        problem = BatchProblem(samples=[s for s, _ in read_csv_samples(path)],
                               num_groups=2, d=csv_dimension(path), k=1)
        assert problem.d == 3 and len(problem.samples) == 2
        np.testing.assert_array_equal(problem.samples[0].omega, [0, 2])

        batch = BatchProblem(samples=[s for s, _ in read_csv_samples(path)],
                             num_groups=2, d=csv_dimension(path), k=1)
        assert len(batch.samples) == 2
        stream = (sample for sample, _ in read_csv_samples(path))
        assert sum(1 for _ in stream) == 2

    def test_memoryless_single_mode_via_csv_run(self, tmp_path):
        # The single-variance heuristic streams an L=1 dataset with per-tick
        # variance refits.
        script = ScenarioScript(
            d=8, k=2, spectrum=(2.0, 1.0), v_star=(0.05,), group_probs=(1.0,),
            observe_prob=0.7, epochs=(Epoch(samples=150),))
        samples = [s for s, _ in run_script(script, seed=7)]
        data = tmp_path / "single.csv"
        write_csv_stream(samples, 8, data)
        raw = {
            "scenario": {"kind": "csv", "path": str(data), "num_groups": 1},
            "estimator": {"kind": "shasta", "rank": 2, "weights": 0.001,
                          "c_f": 0.1, "c_v": 1.0, "delta": 0.1,
                          "variance_mode": "memoryless-single"},
            "run": {"seeds": [0], "checkpoint_every": 50,
                    "output_dir": str(tmp_path / "singlerun")},
        }
        summary = run_experiment(parse_config(raw))
        assert summary["seeds"]["0"]["final_variances"] is not None

    def test_csv_scenario_run(self, tmp_path):
        script = ScenarioScript(
            d=8, k=2, spectrum=(2.0, 1.0), v_star=(0.05,), group_probs=(1.0,),
            observe_prob=0.7, epochs=(Epoch(samples=120),))
        samples = [s for s, _ in run_script(script, seed=6)]
        data = tmp_path / "stream.csv"
        write_csv_stream(samples, 8, data)
        raw = {
            "scenario": {"kind": "csv", "path": str(data), "num_groups": 1},
            "estimator": {"kind": "shasta", "rank": 2, "weights": "1/t",
                          "c_f": 0.1, "c_v": 0.1, "delta": 0.1},
            "run": {"seeds": [0], "checkpoint_every": 40,
                    "output_dir": str(tmp_path / "csvrun")},
        }
        summary = run_experiment(parse_config(raw))
        assert not multiprocessing.active_children()
        assert summary["seeds"]["0"]["samples"] == 120
        # The final record measures distance to itself.
        assert summary["seeds"]["0"]["final_subspace_error"] == 0.0

    def test_csv_run_succeeds_on_many_seeds(self, tmp_path):
        # Each run ends with the final basis measured against itself.
        script = ScenarioScript(
            d=8, k=2, spectrum=(2.0, 1.0), v_star=(0.05,), group_probs=(1.0,),
            observe_prob=0.7, epochs=(Epoch(samples=200),))
        data = tmp_path / "stream.csv"
        write_csv_stream([s for s, _ in run_script(script, seed=8)], 8, data)
        raw = {
            "scenario": {"kind": "csv", "path": str(data), "num_groups": 1},
            "estimator": {"kind": "shasta", "rank": 2, "weights": "1/t",
                          "c_f": 0.1, "c_v": 0.1, "delta": 0.1},
            "run": {"seeds": list(range(20)), "checkpoint_every": 100,
                    "output_dir": str(tmp_path / "csvrun")},
        }
        summary = run_experiment(parse_config(raw))
        assert all(summary["seeds"][str(seed)]["final_subspace_error"] == 0.0
                   for seed in range(20))


    def test_csv_checkpoint_variances_are_the_replay_variances(self, tmp_path):
        # Each checkpoint records the variances SHASTA had at that row, as a
        # replay of the same rows from the seed's shared init shows.
        script = ScenarioScript(
            d=8, k=2, spectrum=(2.0, 1.0), v_star=(0.05, 0.5),
            group_probs=(0.5, 0.5), observe_prob=0.7,
            epochs=(Epoch(samples=120),))
        data = tmp_path / "stream.csv"
        write_csv_stream([s for s, _ in run_script(script, seed=6)], 8, data)
        raw = {
            "scenario": {"kind": "csv", "path": str(data), "num_groups": 2},
            "estimator": {"kind": "shasta", "rank": 2, "weights": "1/t"},
            "run": {"seeds": [3], "checkpoint_every": 50,
                    "output_dir": str(tmp_path / "out")},
        }
        config = parse_config(raw)
        run_experiment(config)
        trace = read_trace(tmp_path / "out" / "trace_seed3.csv")
        est = build_estimator(config.estimator, 8, 2, *shared_init(3, 8, 2, 2))
        replay = {}
        for t, (sample, _) in enumerate(read_csv_samples(data), start=1):
            est.ingest(sample)
            replay[t] = est.variances.copy()
        assert [r.t for r in trace.records] == [50, 100, 120]
        for rec in trace.records:
            np.testing.assert_array_equal(rec.v_estimates, replay[rec.t])

    def test_header_only_csv_run(self, tmp_path):
        # An empty stream still gets one checkpoint, at t = 0.
        data = tmp_path / "empty.csv"
        data.write_text("group,y0,y1,y2\n")
        raw = {
            "scenario": {"kind": "csv", "path": str(data), "num_groups": 1},
            "estimator": {"kind": "shasta", "rank": 1},
            "run": {"seeds": [0], "checkpoint_every": 10,
                    "output_dir": str(tmp_path / "out")},
        }
        summary = run_experiment(parse_config(raw))
        assert summary["seeds"]["0"]["samples"] == 0
        trace = read_trace(tmp_path / "out" / "trace_seed0.csv")
        assert [r.t for r in trace.records] == [0]
        assert trace.records[0].subspace_error == 0.0

    def test_csv_scenario_rejects_batch_estimator(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("group,y0,y1,y2\n0,1.0,,2.0\n")
        raw = {
            "scenario": {"kind": "csv", "path": str(data), "num_groups": 1},
            "estimator": {"kind": "batch-mm", "rank": 1},
            "run": {"seeds": [0], "output_dir": str(tmp_path / "out")},
        }
        for kind in ("batch-mm", "ppca"):
            raw["estimator"]["kind"] = kind
            with pytest.raises(ConfigError) as err:
                run_experiment(parse_config(raw))
            assert err.value.path == "estimator.kind"
            assert not (tmp_path / "out").exists()

    def test_grouse_csv_checkpoints_keep_their_basis(self, tmp_path):
        # Each checkpoint is scored with the basis it had then, not with
        # the estimator's later, updated basis.
        script = ScenarioScript(
            d=8, k=2, spectrum=(2.0, 1.0), v_star=(0.05,), group_probs=(1.0,),
            observe_prob=0.7, epochs=(Epoch(samples=200),))
        data = tmp_path / "stream.csv"
        write_csv_stream([s for s, _ in run_script(script, seed=6)], 8, data)
        raw = {
            "scenario": {"kind": "csv", "path": str(data), "num_groups": 1},
            "estimator": {"kind": "grouse", "rank": 2, "step": 0.02},
            "run": {"seeds": [0], "checkpoint_every": 40,
                    "output_dir": str(tmp_path / "out")},
        }
        run_experiment(parse_config(raw))
        trace = read_trace(tmp_path / "out" / "trace_seed0.csv")
        errors = [r.subspace_error for r in trace.records]
        assert errors[-1] == 0.0 and errors[0] > 1e-3


def tracking_raw(output_dir):
    """A run config whose scenario redraws its subspace and scales a
    variance, at epoch boundaries after 6 and 8 samples."""
    raw = smoke_raw(output_dir)
    scenario = raw["scenario"]
    del scenario["group_counts"]
    scenario.update(group_probs=[0.4, 0.6], epochs=[
        {"samples": 6}, {"samples": 2, "redraw_subspace": True},
        {"samples": 7, "scale_variance": {"group": 1, "factor": 3.0}}])
    raw["run"]["loglik_gap"] = False
    return raw


class TestProducer:
    # A stream drawn or read in a producer process: its pairs and the
    # process's lifetime.

    def test_script_pairs_are_the_in_process_pairs(self, monkeypatch):
        # With 4 rows to a chunk, the subspace redraw lands mid-chunk and
        # the variance change on a chunk boundary.
        monkeypatch.setattr(harness, "CHUNK_ROWS", 4)
        scenario = parse_config(tracking_raw("unused")).scenario
        want = list(run_script(harness.scenario_script(scenario),
                               np.random.SeedSequence((3, 0))))
        got = list(harness.seed_pairs(scenario, 3))
        assert_same_rows([(s, None) for s, _ in got],
                         [(s, None) for s, _ in want])
        for (_, a), (_, b) in zip(got, want):
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.v_star, b.v_star)
            # Its factors are formed at each access, so writing into one
            # array leaves the next as the in-process model's.
            factors = a.factors
            factors[0, 0] += 1.0
            assert a.factors.tobytes() == b.factors.tobytes()
        # Each chunk holds one model object per epoch it spans (epochs end
        # after rows 6, 8 and 15).
        models = [model for _, model in got]
        assert [len({id(m) for m in models[i:i + 4]})
                for i in range(0, 15, 4)] == [1, 2, 1, 1]
        assert len({id(m) for m in models}) == 5
        # The producer sends each row with its epoch's one model object.
        sent = [info for *_, info in harness._script_rows(
            harness.scenario_script(scenario), np.random.SeedSequence((3, 0)))]
        assert len(sent) == 15 and len({id(m) for m in sent}) == 3
        assert not multiprocessing.active_children()

    def test_producer_ends_with_the_pairs(self, tmp_path, monkeypatch):
        # Closed after its first pair, the producer is joined at once; so
        # is one whose run raises mid-stream, while its exception is held.
        monkeypatch.setattr(harness, "CHUNK_ROWS", 2)
        raw = smoke_raw(tmp_path / "out")
        raw["scenario"].update(d=100, group_counts=[1500, 1500])
        config = parse_config(raw)
        pairs = harness.seed_pairs(config.scenario, 0)
        next(pairs)
        assert len(multiprocessing.active_children()) == 1
        pairs.close()
        assert not multiprocessing.active_children()

        calls = 0

        def refuse(self, sample):
            nonlocal calls
            calls += 1
            if calls == 11:
                raise RuntimeError("refused")
            return ingest(self, sample)

        ingest = harness.ShastaPCA.ingest
        monkeypatch.setattr(harness.ShastaPCA, "ingest", refuse)
        with pytest.raises(RuntimeError, match="refused") as held:
            run_experiment(config)
        # `held` keeps the exception, and with it the run's frames, alive.
        assert not multiprocessing.active_children(), held

    def test_killed_producer_is_an_error(self, tmp_path, monkeypatch):
        # The producer blocks on a full pipe long before its last sample;
        # once it is killed, reading on raises instead of waiting.
        monkeypatch.setattr(harness, "CHUNK_ROWS", 2)
        raw = smoke_raw(tmp_path / "out")
        raw["scenario"].update(group_counts=[10_000, 10_000])
        pairs = harness.seed_pairs(parse_config(raw).scenario, 0)
        next(pairs)
        worker, = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGKILL)
        with deadline(60), pytest.raises(ChildProcessError,
                                         match="exited with code -9"):
            for _ in pairs:
                pass
        assert not multiprocessing.active_children()


class TestTimingRun:
    def test_small_comparison_table(self, tmp_path):
        raw = {
            "scenario": {
                "kind": "synthetic", "d": 20, "rank": 2,
                "spectrum": [2.0, 1.0], "variances": [0.05, 0.5],
                "group_counts": [200, 400], "observe_prob": 0.5,
            },
            "streaming_estimator": {
                "kind": "shasta", "rank": 2, "weights": "0.05/sqrt(t)",
                "c_f": 0.05, "c_v": 0.1, "delta": 0.1,
            },
            "batch_estimator": {"kind": "batch-mm", "rank": 2,
                                "iterations": 30, "tol": 1e-8},
            "run": {"seeds": [0, 1], "checkpoint_every": 100,
                    "output_dir": str(tmp_path / "timing")},
        }
        table = timing_run(parse_timing_config(raw))
        assert set(table["seeds"]) == {"0", "1"}
        for row in table["seeds"].values():
            assert row["batch_iterations"] <= 30
            assert row["streaming_final_gap"] is not None
            # Ingesting and scoring are timed apart, within the pass's time.
            assert row["streaming_estimator_seconds"] > 0.0
            assert row["streaming_metric_seconds"] > 0.0
            assert (row["streaming_estimator_seconds"]
                    + row["streaming_metric_seconds"]
                    <= row["streaming_seconds"])
        for key in ("streaming_estimator_seconds", "streaming_metric_seconds",
                    "streaming_final_subspace_error",
                    "batch_final_subspace_error"):
            assert table[f"median_{key}"] == np.median(
                [row[key] for row in table["seeds"].values()])
        streaming = read_trace(tmp_path / "timing" / "streaming_seed0.csv")
        batch = read_trace(tmp_path / "timing" / "batch_seed0.csv")
        assert streaming.records[-1].t == 600
        assert batch.records[-1].t == table["seeds"]["0"]["batch_iterations"]
        assert not multiprocessing.active_children()

    def test_streaming_trace_is_the_run_trace(self, tmp_path):
        # One scorer: for the same scenario, SHASTA estimator, cadence and
        # seed, the timing run's streaming trace is the trace `run` writes,
        # variances and log-likelihood gaps included, elapsed times aside.
        raw = smoke_raw(tmp_path / "run", seeds=(2,))
        run_experiment(parse_config(raw))
        timing = {
            "scenario": raw["scenario"],
            "streaming_estimator": raw["estimator"],
            "batch_estimator": {"kind": "batch-mm", "rank": 2,
                                "iterations": 2},
            "run": {"seeds": [2], "checkpoint_every": 50,
                    "output_dir": str(tmp_path / "timing")},
        }
        timing_run(parse_timing_config(timing))

        def without_elapsed(path):
            return [line.rsplit(",", 1)[0]
                    for line in path.read_text().splitlines()]

        run_trace = without_elapsed(tmp_path / "run" / "trace_seed2.csv")
        assert run_trace[0] == "t,subspace_error,loglik_gap,v_1,v_2"
        assert len(run_trace) == 5
        assert without_elapsed(
            tmp_path / "timing" / "streaming_seed2.csv") == run_trace

    def test_batch_trace_is_the_run_trace(self, tmp_path):
        # One runner: the timing run's batch trace is the trace `run` writes
        # for the same scenario, batch block and seed with loglik_gap,
        # elapsed times aside.
        batch = {"kind": "batch-mm", "rank": 2, "iterations": 30, "tol": 1e-8}
        raw = smoke_raw(tmp_path / "run", estimator=batch, seeds=(2,))
        run_experiment(parse_config(raw))
        timing = {
            "scenario": raw["scenario"],
            "streaming_estimator": {"kind": "shasta", "rank": 2},
            "batch_estimator": batch,
            "run": {"seeds": [2], "output_dir": str(tmp_path / "timing")},
        }
        timing_run(parse_timing_config(timing))

        def without_elapsed(path):
            return [line.rsplit(",", 1)[0]
                    for line in path.read_text().splitlines()]

        run_trace = without_elapsed(tmp_path / "run" / "trace_seed2.csv")
        assert run_trace[0] == "t,subspace_error,loglik_gap,v_1,v_2"
        assert len(run_trace) > 2
        assert all(row.split(",")[2] for row in run_trace[1:])
        assert without_elapsed(
            tmp_path / "timing" / "batch_seed2.csv") == run_trace

    def test_dense_builds_per_seed(self, tmp_path, monkeypatch):
        # A batch-mm or ppca run with gaps builds the seed's n x d arrays
        # once, inside its clock; a SHASTA timing run builds them at most
        # twice, the batch pass's build inside its clock and the streaming
        # pass's outside its timers.  Each build is slowed by a known delay
        # to tell.
        import time
        from shastapca import model
        delay, builds = 0.5, []
        init = model.DatasetEvaluator.__init__

        def slow_init(self, samples, d):
            builds.append(d)
            time.sleep(delay)
            init(self, samples, d)

        monkeypatch.setattr(model.DatasetEvaluator, "__init__", slow_init)
        raw = smoke_raw(tmp_path / "run", seeds=(0, 1), estimator={
            "kind": "batch-mm", "rank": 2, "iterations": 5})
        run_experiment(parse_config(raw))
        assert len(builds) == 2

        builds.clear()
        raw = smoke_raw(tmp_path / "ppca", seeds=(0, 1),
                        estimator={"kind": "ppca", "rank": 2})
        summary = run_experiment(parse_config(raw))
        assert len(builds) == 2
        for seed in ("0", "1"):
            assert summary["seeds"][seed]["elapsed_seconds"] >= delay

        builds.clear()
        timing = {
            "scenario": raw["scenario"],
            "streaming_estimator": smoke_raw(None)["estimator"],
            "batch_estimator": {"kind": "batch-mm", "rank": 2,
                                "iterations": 5},
            "run": {"seeds": [0], "output_dir": str(tmp_path / "timing")},
        }
        row = timing_run(parse_timing_config(timing))["seeds"]["0"]
        assert len(builds) <= 2
        assert row["batch_seconds"] >= delay
        assert row["streaming_seconds"] < delay

    def test_identical_seeds_identical_metrics(self, tmp_path):
        raw = {
            "scenario": {
                "kind": "synthetic", "d": 12, "rank": 2,
                "spectrum": [2.0, 1.0], "variances": [0.1, 0.5],
                "group_counts": [100, 100], "observe_prob": 0.6,
            },
            "streaming_estimator": {"kind": "shasta", "rank": 2,
                                    "weights": 0.05, "c_f": 0.1, "c_v": 0.1,
                                    "delta": 0.1},
            "batch_estimator": {"kind": "batch-mm", "rank": 2,
                                "iterations": 10},
            "run": {"seeds": [3], "checkpoint_every": 50,
                    "output_dir": None},
        }
        tables = []
        for i in range(2):
            raw["run"]["output_dir"] = str(tmp_path / f"t{i}")
            tables.append(timing_run(parse_timing_config(raw)))
        a, b = (t["seeds"]["3"] for t in tables)
        assert a["streaming_final_gap"] == b["streaming_final_gap"]
        assert a["batch_final_gap"] == b["batch_final_gap"]


    def test_batch_trace_is_batch_solve(self, tmp_path):
        # The timing run's batch pass is batch_solve, iterate for iterate.
        from shastapca.harness import scenario_script, shared_init
        from shastapca.metrics import subspace_error
        from shastapca.model import DatasetEvaluator
        raw = {
            "scenario": {
                "kind": "synthetic", "d": 12, "rank": 2,
                "spectrum": [2.0, 1.0], "variances": [0.1, 0.5],
                "group_counts": [100, 100], "observe_prob": 0.6,
            },
            "streaming_estimator": {"kind": "shasta", "rank": 2},
            "batch_estimator": {"kind": "batch-mm", "rank": 2,
                                "iterations": 40, "tol": 1e-7},
            "run": {"seeds": [4], "output_dir": str(tmp_path / "t")},
        }
        config = parse_timing_config(raw)
        timing_run(config)
        trace = read_trace(tmp_path / "t" / "batch_seed4.csv")

        pairs = list(run_script(scenario_script(config["scenario"]),
                                seed=np.random.SeedSequence((4, 0))))
        samples, truth = [s for s, _ in pairs], pairs[-1][1]
        f0, v0 = shared_init(4, 12, 2, 2)
        iterates = batch_solve(BatchProblem(samples=samples, num_groups=2,
                                            d=12, k=2),
                               f0, v0, iters=40, tol=1e-7)
        ref = DatasetEvaluator(samples, 12)(truth.factors, truth.v_star)
        assert len(trace.records) == len(iterates) < 40
        for rec, it in zip(trace.records, iterates):
            u_hat = np.linalg.svd(it.f, full_matrices=False)[0]
            assert rec.t == it.iteration
            assert rec.subspace_error == subspace_error(u_hat, truth.u)
            assert rec.loglik_gap == it.loglik - ref
            np.testing.assert_array_equal(rec.v_estimates, it.v)


def assert_config_error(tmp_path, capsys, command, raw, field):
    """The CLI refuses `raw` with exit 2 and a JSON error naming `field`,
    and creates no output directory (for a null output_dir, none named
    'None' in the working directory)."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert cli_main([command, str(cfg_path)]) == 2, field
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["field"] == field, err
    assert not Path(str(raw["run"]["output_dir"])).exists(), field
    return err


class TestCli:
    def test_run_smoke_config(self, tmp_path, capsys):
        raw = smoke_raw(tmp_path / "out")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert cli_main(["run", str(cfg_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seeds"] == 1

    def test_bad_config_reports_json_error(self, tmp_path, capsys,
                                           monkeypatch):
        # Each case exits 2 naming its field before any output exists; the
        # estimator cases used to fail only once the run had started.  The
        # cases run in one test, so that its id stays as it was.
        monkeypatch.chdir(tmp_path)
        raw = smoke_raw(tmp_path / "out")
        del raw["scenario"]["spectrum"]
        assert_config_error(tmp_path, capsys, "run", raw, "scenario.spectrum")
        shasta = smoke_raw(None)["estimator"]
        for field, estimator in [
            ("estimator.step", {"kind": "grouse", "rank": 2, "step": -0.1}),
            ("estimator.step",
             {"kind": "grouse", "rank": 2, "step": float("nan")}),
            ("estimator.step",
             {"kind": "grouse", "rank": 2, "step": float("inf")}),
            ("estimator.delta", dict(shasta, delta=float("nan"))),
            ("estimator.delta", dict(shasta, delta=float("inf"))),
            ("estimator.weights", dict(shasta, weights="nan/sqrt(t)")),
            ("estimator.forgetting",
             {"kind": "petrels", "rank": 2, "forgetting": 1.5}),
            ("estimator.delta",
             {"kind": "petrels", "rank": 2, "delta": float("nan")}),
            ("estimator.c_f", dict(shasta, c_f=2.0)),
            ("estimator.weights", dict(shasta, weights="1/t^2")),
            ("estimator.rank", dict(shasta, rank=1)),
            ("estimator.rank", dict(shasta, rank=12)),
            ("estimator.rank", {"kind": "batch-mm", "rank": 3}),
            ("estimator.iterations",
             {"kind": "batch-mm", "rank": 2, "iterations": 0}),
            ("estimator.group", {"kind": "ppca", "rank": 2, "group": 5}),
            ("estimator.group", {"kind": "ppca", "rank": 2, "group": -1}),
            ("estimator.c_f", dict(shasta, c_f="abc")),
            ("estimator.rank", dict(shasta, rank="two")),
            # Integers and flags are read, not coerced: 2.7 used to read as 2.
            ("estimator.rank", dict(shasta, rank=2.7)),
            ("estimator.rank", dict(shasta, rank=True)),
            # Nor is a boolean read as a number: true used to read as 1.0.
            ("estimator.c_f", dict(shasta, c_f=True)),
            ("estimator.weights", dict(shasta, weights=True)),
            ("estimator.tol", {"kind": "batch-mm", "rank": 2, "tol": False}),
            ("estimator.variance_mode",
             dict(shasta, variance_mode="memoryless-single")),
            ("estimator.tol", {"kind": "batch-mm", "rank": 2, "tol": "tight"}),
            # A negative or NaN tol used to run every iteration silently.
            ("estimator.tol", {"kind": "batch-mm", "rank": 2, "tol": -1.0}),
            ("estimator.tol",
             {"kind": "batch-mm", "rank": 2, "tol": float("nan")}),
            # A key the estimator's kind does not declare, a misspelling
            # that used to be dropped (forgetting read as 1.0).
            ("estimator.forgeting",
             {"kind": "petrels", "rank": 2, "forgeting": 0.5}),
        ]:
            raw = smoke_raw(tmp_path / "out", estimator=estimator)
            assert_config_error(tmp_path, capsys, "run", raw, field)
        # A non-numeric scenario or run value names its field too, and so
        # does a scenario value datagen refuses, now when the config is
        # parsed.
        for section, key, value, field in [
            ("scenario", "d", "ten", "scenario.d"),
            ("scenario", "rank", 11, "scenario.rank"),
            ("scenario", "observe_prob", "most", "scenario.observe_prob"),
            ("scenario", "spectrum", [2.0, "one"], "scenario.spectrum"),
            ("scenario", "group_counts", [50, None], "scenario.group_counts"),
            ("scenario", "group_counts", [50, 100, 50], "scenario.group_counts"),
            ("scenario", "spectrum", [1.0, 2.0], "scenario.spectrum"),
            ("scenario", "spectrum", [float("nan"), 1.0], "scenario.spectrum"),
            ("scenario", "spectrum", [2.0, float("nan")], "scenario.spectrum"),
            ("scenario", "spectrum", [float("inf"), 1.0], "scenario.spectrum"),
            ("scenario", "variances", [1e-2, 0.0], "scenario.variances"),
            ("scenario", "variances", [1e-2, float("nan")],
             "scenario.variances"),
            ("scenario", "variances", [1e-2, float("inf")],
             "scenario.variances"),
            ("scenario", "epochs", [{"samples": 0}], "scenario.epochs[0].samples"),
            ("scenario", "epochs",
             [{"samples": 200, "scale_variance": {"group": 0, "factor": -2.0}}],
             "scenario.epochs[0].scale_variance.factor"),
            # A factor that takes its group's variance to inf, at once or
            # over two epochs, is refused by the script, naming the epoch.
            ("scenario", "epochs",
             [{"samples": 200,
               "scale_variance": {"group": 0, "factor": float("inf")}}],
             "scenario.epochs[0].scale_variance.factor"),
            ("scenario", "epochs",
             [{"samples": 100, "scale_variance": {"group": 0, "factor": 1e300}},
              {"samples": 100, "scale_variance": {"group": 0, "factor": 1e300}}],
             "scenario.epochs[1].scale_variance.factor"),
            ("run", "seeds", ["zero"], "run.seeds"),
            ("run", "checkpoint_every", "often", "run.checkpoint_every"),
            # Non-integral numbers, booleans and quoted flags, which used to
            # be coerced: 2.9 to 2, [0.5, 1.7] to (0, 1), true to 1 and
            # "false" to true.
            ("scenario", "rank", 2.9, "scenario.rank"),
            ("run", "seeds", [0.5, 1.7], "run.seeds"),
            ("run", "checkpoint_every", True, "run.checkpoint_every"),
            ("run", "loglik_gap", "false", "run.loglik_gap"),
            ("scenario", "epochs", [{"samples": 200, "redraw_subspace": 1}],
             "scenario.epochs[0].redraw_subspace"),
            ("scenario", "observe_prob", True, "scenario.observe_prob"),
            ("scenario", "spectrum", [True, 1.0], "scenario.spectrum"),
            ("scenario", "variances", [1e-2, False], "scenario.variances"),
            ("scenario", "epochs",
             [{"samples": 200, "scale_variance": {"group": 0, "factor": True}}],
             "scenario.epochs[0].scale_variance.factor"),
            # Each section refuses a key it does not declare; num_groups
            # belongs to a csv scenario only.
            ("scenario", "observe_porb", 0.1, "scenario.observe_porb"),
            ("scenario", "num_groups", 2, "scenario.num_groups"),
            ("scenario", "epochs", [{"samples": 200, "redraw_subspcae": True}],
             "scenario.epochs[0].redraw_subspcae"),
            ("scenario", "epochs",
             [{"samples": 200, "scale_variance": {"group": 0, "factr": 2.0}}],
             "scenario.epochs[0].scale_variance.factr"),
            ("run", "checkpoint_evry", 7, "run.checkpoint_evry"),
            # Values of the wrong shape name their field too, where they
            # used to escape as a TypeError traceback.
            ("scenario", "epochs", 5, "scenario.epochs"),
        ]:
            raw = smoke_raw(tmp_path / "out")
            raw[section][key] = value
            assert_config_error(tmp_path, capsys, "run", raw, field)
        # A value datagen refuses is named by its config key in the message
        # too, where datagen's field (k, v_star) used to appear.
        for key, value, message in [
            ("rank", 11, "rank must lie in [1, d = 10]"),
            ("variances", [1e-2, 0.0], "variances must be positive and finite"),
        ]:
            raw = smoke_raw(tmp_path / "out")
            raw["scenario"][key] = value
            err = assert_config_error(tmp_path, capsys, "run", raw,
                                      f"scenario.{key}")
            assert err["message"] == f"scenario.{key}: {message}", err
        for probs in ([1.0], [0.5, float("nan")], [1.5, -0.5]):
            raw = smoke_raw(tmp_path / "out")
            del raw["scenario"]["group_counts"]
            raw["scenario"].update(group_probs=probs, epochs=[{"samples": 200}])
            assert_config_error(tmp_path, capsys, "run", raw,
                                "scenario.group_probs")
        # A csv scenario's group count is refused below one.
        data = tmp_path / "stream.csv"
        data.write_text("group,y0,y1\n0,1.0,2.0\n")
        for num_groups in (0, -1):
            raw = smoke_raw(tmp_path / "out")
            raw["scenario"] = {"kind": "csv", "path": str(data),
                               "num_groups": num_groups}
            raw["run"]["loglik_gap"] = False
            assert_config_error(tmp_path, capsys, "run", raw,
                                "scenario.num_groups")
        # A csv scenario refuses a synthetic key, and a null path names its
        # field; the top level refuses an unknown key too.
        raw["scenario"].update(num_groups=1, d=2)
        assert_config_error(tmp_path, capsys, "run", raw, "scenario.d")
        raw["scenario"] = {"kind": "csv", "path": None, "num_groups": 1}
        assert_config_error(tmp_path, capsys, "run", raw, "scenario.path")
        raw = dict(smoke_raw(tmp_path / "out"), cf=0.9)
        assert_config_error(tmp_path, capsys, "run", raw, "config.cf")
        # Every streaming kind's rank lies in [1, d], d being a csv
        # dataset's value-column count. PETRELS and GROUSE at rank 0 used
        # to fail in the run, every kind at -1 with a numpy error, and
        # every kind at d + 1 ran to the end.
        three = tmp_path / "three.csv"
        three.write_text("group,y0,y1,y2\n0,1.0,2.0,3.0\n")
        for kind in ("shasta", "petrels", "grouse"):
            for rank in (0, -1, 4):
                raw = smoke_raw(tmp_path / "out",
                                estimator={"kind": kind, "rank": rank})
                raw["scenario"] = {"kind": "csv", "path": str(three),
                                   "num_groups": 1}
                raw["run"]["loglik_gap"] = False
                assert_config_error(tmp_path, capsys, "run", raw,
                                    "estimator.rank")
        # PPCA needs d - rank trailing eigenvalues, and more samples than
        # the rank: in its group, or in the stream when it has none.
        raw = smoke_raw(tmp_path / "out", estimator={"kind": "ppca", "rank": 2})
        raw["scenario"]["d"] = 2
        assert_config_error(tmp_path, capsys, "run", raw, "estimator.rank")
        for counts, group, field in [([198, 2], 1, "estimator.group"),
                                     ([1, 1], None, "estimator.rank")]:
            raw = smoke_raw(tmp_path / "out", estimator={
                "kind": "ppca", "rank": 2, "group": group})
            raw["scenario"]["group_counts"] = counts
            assert_config_error(tmp_path, capsys, "run", raw, field)
        # Both commands read the run block alike: no seeds, or no output
        # directory (which used to create one named 'None'), is refused; so
        # is a negative seed (which used to fail after the output directory
        # existed, naming no field) and a repeated one (which used to run
        # twice and write its trace twice).
        timing = {key: smoke_raw(tmp_path / "out")[key]
                  for key in ("scenario", "run")}
        timing["streaming_estimator"] = {"kind": "shasta", "rank": 2}
        timing["batch_estimator"] = {"kind": "batch-mm", "rank": 2}
        for command, base in [("run", smoke_raw(tmp_path / "out")),
                              ("timing", timing)]:
            for key, value, field in [("seeds", [], "run.seeds"),
                                      ("seeds", [-1], "run.seeds"),
                                      ("seeds", [0, 0], "run.seeds"),
                                      ("seeds", [2, 1, 2], "run.seeds"),
                                      ("output_dir", None, "run.output_dir")]:
                raw = dict(base, run=dict(base["run"], **{key: value}))
                assert_config_error(tmp_path, capsys, command, raw, field)

    def test_malformed_yaml_is_a_config_error(self, tmp_path, capsys):
        # It used to escape as a yaml.YAMLError traceback, exit code 1.
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("scenario: [unclosed\n")
        assert cli_main(["run", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == str(cfg_path), err
        assert err["message"] == (f"{cfg_path}: line 2, column 1: expected "
                                  "',' or ']', but got '<stream end>'"), err
        # So are bytes that do not decode, which used to be a value error
        # with exit code 1.
        cfg_path.write_bytes(b"scenario: \xff\n")
        assert cli_main(["run", str(cfg_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == str(cfg_path), err
        assert "can't decode byte 0xff" in err["message"], err

    def test_directory_is_an_io_error(self, tmp_path, capsys):
        # As the config, as a csv scenario's path and to ingest-check; each
        # used to escape as an IsADirectoryError traceback.
        folder = tmp_path / "folder"
        folder.mkdir()
        raw = smoke_raw(tmp_path / "out")
        raw["scenario"] = {"kind": "csv", "path": str(folder), "num_groups": 1}
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        for argv in (["run", str(folder)], ["run", str(cfg_path)],
                     ["ingest-check", str(folder)]):
            assert cli_main(argv) == 1, argv
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "io" and err["file"] == str(folder), err
            assert not (tmp_path / "out").exists()

    def test_ingest_check_reports_stats(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("group,variance,y0,y1\n0,0.5,1.0,\n1,2.0,,3.0\n")
        assert cli_main(["ingest-check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == 2 and report["d"] == 2
        assert report["observed_fraction"] == 0.5
        assert report["variance_column"]["count"] == 2

    def test_ingest_check_bad_file(self, tmp_path, capsys):
        # Each is a data error naming its line: the bad variance cell used
        # to escape as a value error with no line, and `run` used to
        # create its output directory and then fail on the bad headers.
        path = tmp_path / "bad.csv"
        for text, line in [("group,y0\n0,notanumber\n", 2),
                           ("group,variance,y0,y1\n0,abc,1.0,2.0\n", 2),
                           # A non-finite variance used to pass and print
                           # "min": NaN, which strict JSON refuses.
                           ("group,variance,y0\n0,0.5,1.0\n1,nan,2.0\n", 3),
                           ("group,variance,y0\n0,inf,1.0\n", 2),
                           ("", 1), ("group,y0,group\n0,1.0,1\n", 1)]:
            path.write_text(text)
            commands = [["ingest-check", str(path)]]
            if line == 1:
                raw = smoke_raw(tmp_path / "out", {"kind": "shasta", "rank": 1})
                raw["scenario"] = {"kind": "csv", "path": str(path),
                                   "num_groups": 1}
                raw["run"]["loglik_gap"] = False
                (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(raw))
                commands.append(["run", str(tmp_path / "cfg.yaml")])
            for command in commands:
                assert cli_main(command) == 1, (text, command)
                err = json.loads(capsys.readouterr().err)
                assert err["error"] == "data", err
                assert err["message"].startswith(f"line {line}: "), err
                assert not (tmp_path / "out").exists()

    def test_unreadable_records_are_data_errors(self, tmp_path, capsys):
        # A field over the csv module's size limit, in a row or in the
        # header, and bytes the file's encoding cannot decode: each used to
        # escape as a traceback.  The file is decoded a block ahead of the
        # csv reader, yet bad bytes are reported at their own line, whatever
        # ends the lines.
        path = tmp_path / "bad.csv"
        big = "1" * 200_000
        for data, line, text in [
                (f"group,y0\n0,1.0\n0,{big}\n".encode(), 3,
                 "field larger than field limit (131072)"),
                (f"group,y{big}\n0,1.0\n".encode(), 1,
                 "field larger than field limit (131072)"),
                (b"group,y0\n0,\xff\n", 2, "codec can't decode byte 0xff"),
                (b"group,y0\n" + b"0,1.0\n" * 5000 + b"0,\xff\n",
                 5002, "codec can't decode byte 0xff"),
                (b"group,y0\r\n0,1.0\r0,2.0\r\n\n0,\xff\r0,3.0\r", 5,
                 "codec can't decode byte 0xff")]:
            path.write_bytes(data)
            raw = smoke_raw(tmp_path / "out", {"kind": "shasta", "rank": 1})
            raw["scenario"] = {"kind": "csv", "path": str(path),
                               "num_groups": 1}
            raw["run"]["loglik_gap"] = False
            (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(raw))
            for command in (["ingest-check", str(path)],
                            ["run", str(tmp_path / "cfg.yaml")]):
                assert cli_main(command) == 1, (text, command)
                err = json.loads(capsys.readouterr().err)
                assert err["error"] == "data", err
                assert err["message"].startswith(f"line {line}: "), err
                assert text in err["message"], err

    def test_lines_may_end_in_a_bare_carriage_return(self, tmp_path):
        # The csv module ends a line at \r\n, \n or a bare \r, as the
        # decode error's line count does.
        path = tmp_path / "data.csv"
        path.write_bytes(b"group,y0,y1\r0,1.0,\r\n1,,2.5\r0,3.0,4.0\n")
        assert [(s.group, s.omega.tolist(), s.values.tolist())
                for s, _ in read_csv_samples(path)] == [
            (0, [0], [1.0]), (1, [1], [2.5]), (0, [0, 1], [3.0, 4.0])]

    def test_undecodable_pipe_is_a_data_error_at_the_line_being_read(self):
        # A pipe cannot be read again to find the bad bytes' own line, so
        # they are reported at the record being read when their block was
        # decoded: here the header.
        read_end, write_end = os.pipe()
        os.write(write_end, b"group,y0\n0,1.0\n0,\xff\n")
        os.close(write_end)
        with open(read_end, newline="") as fh:
            with pytest.raises(CsvFormatError,
                               match="^line 1: .*can't decode byte 0xff"):
                list(_records(fh))

    def test_run_names_the_line_of_a_group_out_of_range(self, tmp_path,
                                                        capsys):
        # The row used to reach the estimator, which refused it as a value
        # error that named no line.  Without num_groups the reader has no
        # range to check, and yields the row.
        path = tmp_path / "data.csv"
        path.write_text("group,y0,y1\n0,1.0,2.0\n1,0.5,\n5,1.0,1.0\n")
        assert [s.group for s, _ in read_csv_samples(path)] == [0, 1, 5]
        for kind in ("shasta", "petrels", "grouse"):
            raw = smoke_raw(tmp_path / kind, {"kind": kind, "rank": 1})
            raw["scenario"] = {"kind": "csv", "path": str(path),
                               "num_groups": 2}
            raw["run"]["loglik_gap"] = False
            (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(raw))
            assert cli_main(["run", str(tmp_path / "cfg.yaml")]) == 1, kind
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "data", "message":
                           "line 4: group 5 outside [0, 2)"}, kind

    def test_state_dump(self, tmp_path, capsys):
        # A streamed state's lazy scales are below 1, and the dump prints
        # them as loaded, bit for bit.
        from shastapca.model import ObservedSample
        from shastapca.shasta import (ShastaConfig, ingest, init_state,
                                      load_state, save_state)
        cfg = ShastaConfig(weights=0.1, c_f=0.2)
        state = init_state(cfg, np.ones((4, 2)), np.array([0.3]))
        rng = np.random.default_rng(0)
        for _ in range(5):
            ingest(state, ObservedSample.full(rng.standard_normal(4), 0), cfg)
        ckpt = tmp_path / "state.bin"
        save_state(state, ckpt)
        assert cli_main(["state-dump", str(ckpt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["d"] == 4 and report["samples_ingested"] == 5
        loaded = load_state(ckpt)
        assert 0.0 < loaded.sigma < 1.0 and 0.0 < loaded.gamma < 1.0
        assert report["sigma"] == loaded.sigma
        assert report["gamma"] == loaded.gamma

    def test_state_dump_bad_header_reports_json_error(self, tmp_path, capsys,
                                                      monkeypatch):
        from shastapca.shasta import ShastaConfig, init_state, save_state
        ckpt = tmp_path / "state.bin"
        save_state(init_state(ShastaConfig(), np.zeros((4, 2)),
                              np.array([0.3, 0.4])), ckpt)
        valid = ckpt.read_bytes()
        for name, data in crafted_checkpoints(valid).items():
            ckpt.write_bytes(data)
            assert cli_main(["state-dump", str(ckpt)]) == 1, name
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "value" and "header" in err["message"], name
        # A file of another layout is refused by its magic before any array
        # is read: the first, eager layout's 16-byte magic ("SHASTAPCA-STATE"
        # and its version digit, then uint64 d, k, L, t; no longer read), or
        # an unknown version of this one.

        def no_arrays(*args, **kwargs):
            raise AssertionError("an array was read from a bad checkpoint")

        monkeypatch.setattr(np, "frombuffer", no_arrays)
        eager = (b"SHASTAPCA-STATE%d" % 1 + struct.pack("<QQQQ", 4, 2, 2, 0)
                 + bytes(len(valid) - 48))
        for data in (eager, b"SHASTA-3" + valid[8:]):
            ckpt.write_bytes(data)
            assert cli_main(["state-dump", str(ckpt)]) == 1, data[:16]
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "value", err
            assert "bad magic" in err["message"], err

    def test_timing_zero_checkpoint_every_reports_json_error(self, tmp_path,
                                                             capsys):
        raw = {
            "scenario": {
                "kind": "synthetic", "d": 6, "rank": 2, "spectrum": [2.0, 1.0],
                "variances": [0.1], "group_counts": [20],
            },
            "streaming_estimator": {"kind": "shasta", "rank": 2},
            "batch_estimator": {"kind": "batch-mm", "rank": 2, "iterations": 2},
            "run": {"seeds": [0], "checkpoint_every": 0,
                    "output_dir": str(tmp_path / "out")},
        }
        assert_config_error(tmp_path, capsys, "timing", raw,
                            "run.checkpoint_every")
        # Bad estimator settings fail as early, where they used to fail only
        # in or after the streaming pass.  (Cases in one test, so its id
        # stays.)
        raw["run"]["checkpoint_every"] = 5
        shasta = raw["streaming_estimator"]
        for key, spec, field in [
            ("streaming_estimator", {"kind": "grouse", "rank": 2, "step": -0.1},
             "streaming_estimator.step"),
            ("streaming_estimator", dict(shasta, c_f=2.0),
             "streaming_estimator.c_f"),
            ("streaming_estimator", dict(shasta, rank=3),
             "streaming_estimator.rank"),
            ("batch_estimator", {"kind": "batch-mm", "rank": 1},
             "batch_estimator.rank"),
            # Each section refuses a key it does not declare.
            ("streaming_estimator", dict(shasta, detla=0.1),
             "streaming_estimator.detla"),
            ("batch_estimator",
             {"kind": "batch-mm", "rank": 2, "iteration": 2},
             "batch_estimator.iteration"),
            ("scenario", dict(raw["scenario"], observe_porb=0.1),
             "scenario.observe_porb"),
            ("run", dict(raw["run"], checkpoint_evry=7), "run.checkpoint_evry"),
            # A timing run scores every gap; the key used to be ignored.
            ("run", dict(raw["run"], loglik_gap=False), "run.loglik_gap"),
            ("streaming_estimater", shasta, "config.streaming_estimater"),
            # A timing run always has a streaming estimator; a null one
            # used to run the batch pass alone.
            ("streaming_estimator", None, "streaming_estimator"),
        ]:
            assert_config_error(tmp_path, capsys, "timing",
                                dict(raw, **{key: spec}), field)
        del raw["streaming_estimator"]
        assert_config_error(tmp_path, capsys, "timing", raw,
                            "config.streaming_estimator")

    @pytest.mark.parametrize("estimator", [
        {"kind": "petrels", "rank": 2, "forgetting": 0.99},
        {"kind": "grouse", "rank": 2, "step": 0.02},
    ])
    def test_timing_with_baseline_streaming_estimator(self, tmp_path, capsys,
                                                      estimator):
        # PETRELS and GROUSE have no factors, hence no log-likelihood gap.
        raw = {
            "scenario": {
                "kind": "synthetic", "d": 12, "rank": 2,
                "spectrum": [2.0, 1.0], "variances": [0.1, 0.5],
                "group_counts": [100, 100], "observe_prob": 0.6,
            },
            "streaming_estimator": estimator,
            "batch_estimator": {"kind": "batch-mm", "rank": 2,
                                "iterations": 5},
            "run": {"seeds": [0, 1], "checkpoint_every": 50,
                    "output_dir": str(tmp_path / "out")},
        }
        cfg_path = tmp_path / "timing.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert cli_main(["timing", str(cfg_path)]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["median_streaming_final_gap"] is None
        assert table["median_streaming_seconds"] is not None
        assert table["median_batch_final_gap"] is not None
