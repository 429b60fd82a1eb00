"""scripts/trace_digest.py: digests ignore elapsed times and nothing else."""

import importlib.util
import json
from pathlib import Path

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
    # The default set (not run here): every bundled run config, then
    # static_full with each baseline block the reproduction script runs,
    # then the timing config.
    script = load_script()
    runs = script.standard_set()
    labels = [label for _, _, label in runs]
    assert labels[:6] == ["dynamic_subspace", "dynamic_variances_v1",
                          "dynamic_variances_v2", "smoke", "static_full",
                          "static_half"]
    assert ([block for _, block, _ in runs[6:-1]]
            == script.BASELINES["static_full"])
    assert labels[-1] == "timing_desk"
    assert len(set(labels)) == len(labels)
    for path, block, label in runs:
        assert path.exists(), label
        raw = script.load_raw(path, block)
        parse = (script.parse_timing_config if label == "timing_desk"
                 else script.parse_config)
        parse(raw)
