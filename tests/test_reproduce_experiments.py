"""scripts/reproduce_experiments.py: one output directory per config, one
subdirectory per estimator block of a config with several."""

import importlib.util
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_experiments", REPO / "scripts" / "reproduce_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def files(directory: Path) -> list:
    return sorted(path.relative_to(directory).as_posix()
                  for path in directory.rglob("*") if path.is_file())


def test_layout_with_the_quick_seed_cut(tmp_path, capsys):
    script = load_script()
    smoke = yaml.safe_load((REPO / "configs" / "smoke.yaml").read_text())
    out = tmp_path / "runs"

    script.run_config(REPO / "configs" / "smoke.yaml", out, quick=True)
    assert files(out / "smoke") == ["summary.json", "trace_seed0.csv"]

    # Two blocks, four seeds: the first three seeds of each block.
    pair = dict(smoke, estimator=[smoke["estimator"],
                                  {"kind": "petrels", "rank": 2}],
                run=dict(smoke["run"], seeds=[0, 1, 2, 3]))
    path = tmp_path / "pair.yaml"
    path.write_text(yaml.safe_dump(pair))
    script.run_config(path, out, quick=True)
    assert files(out / "pair") == [
        f"{label}/{name}" for label in ("petrels", "shasta")
        for name in ("summary.json", "trace_seed0.csv", "trace_seed1.csv",
                     "trace_seed2.csv")]

    # A timing config runs as `shasta-pca timing` does, on its first seed.
    timing = {"scenario": smoke["scenario"],
              "streaming_estimator": smoke["estimator"],
              "batch_estimator": {"kind": "batch-mm", "rank": 2,
                                  "iterations": 5},
              "run": {"seeds": [0, 1], "output_dir": "unused"}}
    path = tmp_path / "desk.yaml"
    path.write_text(yaml.safe_dump(timing))
    script.run_config(path, out, quick=True)
    assert files(out / "desk") == ["batch_seed0.csv", "streaming_seed0.csv",
                                   "timing_summary.json"]

    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "smoke/shasta", "pair/shasta", "pair/petrels", "desk"]
