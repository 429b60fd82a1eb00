"""scripts/trace_digest.py: digests ignore elapsed times and nothing else."""

import importlib.util
import json
from pathlib import Path

import pytest
import yaml

from shastapca.harness import estimator_label

REPO = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "trace_digest", REPO / "scripts" / "trace_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_and_cover_every_output(capsys):
    script = load_script()
    config = str(REPO / "configs" / "smoke.yaml")
    runs = []
    for _ in range(2):
        assert script.main([config, "--seeds", "0", "1"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    labels = [line.split("  ")[1] for line in runs[0]]
    assert labels == ["smoke/trace_seed0.csv", "smoke/trace_seed1.csv",
                      "smoke/summary.json", "all"]


def test_keep_writes_the_outputs_to_the_given_directory(tmp_path, capsys):
    # The same digests as a temporary directory gives, from outputs left
    # under DIR/<label>; a directory that is not empty is refused.
    script = load_script()
    config = str(REPO / "configs" / "smoke.yaml")
    assert script.main([config, "--seeds", "0"]) == 0
    want = capsys.readouterr().out
    keep = tmp_path / "kept"
    assert script.main([config, "--seeds", "0", "--keep", str(keep)]) == 0
    assert capsys.readouterr().out == want
    assert sorted(p.name for p in (keep / "smoke").iterdir()) == [
        "summary.json", "trace_seed0.csv"]
    with pytest.raises(SystemExit) as exit_:
        script.main([config, "--seeds", "0", "--keep", str(keep)])
    assert exit_.value.code == 2
    assert "is not an empty directory" in capsys.readouterr().err


def test_elapsed_times_are_dropped(tmp_path):
    script = load_script()
    rows = ["t,subspace_error,loglik_gap,v_1,elapsed_s", "50,0.25,,0.5,{}"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("\n".join(rows).format("0.125") + "\n")
    b.write_text("\n".join(rows).format("9.5") + "\n")
    assert script.trace_bytes(a) == script.trace_bytes(b)
    assert script.trace_bytes(a) == b"t,subspace_error,loglik_gap,v_1\n50,0.25,,0.5\n"
    # A timing summary drops every *_seconds field, and nothing else.
    for path, seconds in ((a, 0.125), (b, 9.5)):
        path.write_text(json.dumps({
            "median_batch_seconds": seconds, "median_batch_final_gap": -1.5,
            "seeds": {"0": {"streaming_seconds": seconds, "init_gap": -2.0}}}))
    assert script.summary_bytes(a) == script.summary_bytes(b)
    assert json.loads(script.summary_bytes(a)) == {
        "median_batch_final_gap": -1.5, "seeds": {"0": {"init_gap": -2.0}}}


def test_without_gaps_drops_the_gaps_and_nothing_else(tmp_path):
    script = load_script()
    rows = ["t,subspace_error,loglik_gap,v_1,elapsed_s", "50,0.25,{},0.5,0.1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("\n".join(rows).format("-1.5") + "\n")
    b.write_text("\n".join(rows).format("-2.5") + "\n")
    assert script.trace_bytes(a) != script.trace_bytes(b)
    assert script.trace_bytes(a, True) == script.trace_bytes(b, True)
    assert script.trace_bytes(a, True) == b"t,subspace_error,v_1\n50,0.25,0.5\n"
    for path, gap in ((a, -1.5), (b, -2.5)):
        path.write_text(json.dumps({
            "median_batch_seconds": 1.0, "median_batch_final_gap": gap,
            "seeds": {"0": {"init_gap": gap, "batch_iterations": 24}}}))
    assert script.summary_bytes(a) != script.summary_bytes(b)
    assert script.summary_bytes(a, True) == script.summary_bytes(b, True)
    assert json.loads(script.summary_bytes(a, True)) == {
        "seeds": {"0": {"batch_iterations": 24}}}


def test_standard_set_configs_exist_and_parse():
    # The default set (not run here): seed 0 of every bundled config, each
    # of which lists the estimators it compares.
    script = load_script()
    paths = script.standard_set()
    assert [path.stem for path in paths] == [
        "dynamic_subspace", "dynamic_subspace_baselines",
        "dynamic_variances_v1", "dynamic_variances_v2", "smoke",
        "static_full", "static_half", "timing_desk"]
    for path in paths:
        raw = yaml.safe_load(path.read_text())
        if path.stem == "timing_desk":
            script.parse_timing_config(raw)
        else:
            script.parse_config(raw)
    blocks = script.parse_config(yaml.safe_load(
        (REPO / "configs" / "static_full.yaml").read_text())).estimator
    assert [estimator_label(block) for block in blocks] == [
        "shasta", "batch-mm", "ppca", "ppca_g0", "ppca_g1", "petrels",
        "grouse"]


def test_blocks_are_digested_under_their_labels(tmp_path, capsys):
    # A config of several blocks prints, per block, its traces and then its
    # summary, labelled <config>/<block label>/<file>, blocks in name order.
    raw = yaml.safe_load((REPO / "configs" / "smoke.yaml").read_text())
    raw["estimator"] = [raw["estimator"], {"kind": "batch-mm", "rank": 2,
                                           "iterations": 5}]
    config = tmp_path / "pair.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert load_script().main([str(config)]) == 0
    labels = [line.split("  ")[1]
              for line in capsys.readouterr().out.splitlines()]
    assert labels == [
        "pair/batch-mm/trace_seed0.csv", "pair/batch-mm/summary.json",
        "pair/shasta/trace_seed0.csv", "pair/shasta/summary.json", "all"]
