#!/usr/bin/env python3
"""Self-check of the benchmark's output record.

Runs every workload at a tiny size, untraced and traced, and confirms that
standard output holds exactly one line, the JSON record, which names exactly
the metrics BENCHMARK.json lists (end-to-end untraced, per-layer traced),
each with its unit and a finite value: above 0 for every end-to-end metric
and for every per-layer metric whose layer the workload runs.  attempted and
failed must be whole numbers, attempted at least 1, and every check must
pass.  Last, it confirms that the benchmark exits nonzero without a record in
a directory that holds only BENCHMARK.json and the benchmark.

Run from the root of a checkout (under a minute):

    python3 benchmark/selfcheck.py
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = ["python3", "benchmark/run.py"]


def run_record(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def check_record(workload, trace, spec, layers) -> list:
    code, stdout, stderr = run_record(workload, trace)
    where = f"{workload} --trace {trace}"
    if code != 0:
        return [f"{where}: exit code {code}\n{stderr[-2000:]}"]
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"{where}: standard output has {len(lines)} lines, not 1"]
    record = json.loads(lines[0])
    problems = []
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: record keys {sorted(record)}")
    if record.get("correct") is not True:
        problems.append(f"{where}: correct is {record.get('correct')!r}")
    for key in ("attempted", "failed"):
        if not isinstance(record.get(key), int):
            problems.append(f"{where}: {key} is not a whole number")
    if record.get("attempted", 0) < 1 or record.get("failed") != 0:
        problems.append(f"{where}: attempted {record.get('attempted')}, "
                        f"failed {record.get('failed')}")
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = record.get("metrics", {})
    if set(metrics) != {m["name"] for m in listed}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in listed})}")
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {value!r} is not finite")
        elif (not trace or m["name"] in layers) and not value > 0:
            problems.append(f"{where}: {m['name']} = {value!r} is not above 0")
    return problems


def check_refuses_without_package() -> list:
    Path(".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_out") as tmp:
        shutil.copy("BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            RUN + ["--workload", "stream_d100", "--seed", "0", "--seconds", "1",
                   "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["the benchmark ran, or printed a record, without a package"]
    return []


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    sys.path[:0] = [str(Path("src").resolve()), str(BENCH_DIR)]
    from workloads import WORKLOADS

    problems = check_refuses_without_package()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_record(workload, trace, spec, WORKLOADS[workload].layers)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  file=sys.stderr)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
