"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion pins its stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from shastapca.batch import (
    BatchProblem,
    batch_solve,
    ppca_closed_form,
    random_init,
)
from shastapca.datagen import Epoch, ScenarioScript, run_script
from shastapca.harness import (
    build_estimator,
    parse_config,
    parse_timing_config,
    run_experiment,
    shared_init,
    timing_run,
)
from shastapca.metrics import subspace_error
from shastapca.shasta import ShastaConfig, init_state, ingest, save_state

from helpers import (
    conditioned_posterior,
    dense_sample_loglik,
    minorizer_value,
    posterior_at,
    random_instance,
    random_sample,
    sample_log_likelihood,
    static_script,
)

SHASTA_STATIC = dict(kind="shasta", rank=3, weights="1/t", c_f=0.1, c_v=0.1,
                     delta=0.1, variance_mode="grouped")
SHASTA_DYNAMIC = dict(kind="shasta", rank=3, weights=0.01, c_f=0.01, c_v=0.1,
                      delta=0.1, variance_mode="grouped")


def report(cid: str, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance] {cid} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def run_stream(spec, pairs, f0, v0, d, num_groups):
    est = build_estimator(spec, d, num_groups, f0, v0)
    for s, _ in pairs:
        est.ingest(s)
    return est


def test_c1_batch_ascent():
    # 20 random instances, d <= 100, k <= 3, L = 2, 30% missing entries:
    # the log-likelihood never decreases over 100 iterations (relative slack
    # 1e-9).  Budget: 30 s.
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(20, 101))
        k = int(rng.integers(1, 4))
        n1, n2 = int(rng.integers(30, 80)), int(rng.integers(30, 80))
        script = static_script(
            d=d, k=k, spectrum=sorted(rng.uniform(1.0, 5.0, size=k))[::-1],
            v_star=rng.uniform(0.01, 0.5, size=2), group_counts=[n1, n2],
            observe_prob=0.7)
        samples = [s for s, _ in run_script(script, seed=int(rng.integers(2**31)))]
        problem = BatchProblem(samples, num_groups=2, d=d, k=k)
        f0, v0 = random_init(rng, d, k, 2)
        logliks = [it.loglik for it in batch_solve(problem, f0, v0, iters=100)]
        for prev, cur in zip(logliks, logliks[1:]):
            worst = max(worst, (prev - cur) / max(1.0, abs(prev)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30
    assert report("C1", "batch ascent", ok,
                  f"worst relative decrease {worst:.2e}, {elapsed:.0f}s")


def test_c2_oracle_equivalence():
    # Woodbury likelihood vs dense-covariance oracle (1e-8) and posterior
    # statistics vs joint-Gaussian conditioning (1e-10), 50 random instances.
    # Budget: 5 s.
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, 4))
        f, v, (s,) = random_instance(rng, d, k, num_groups=2, observe_prob=0.6)
        got = sample_log_likelihood(f, v, s)
        want = dense_sample_loglik(f, v, s)
        ok &= abs(got - want) <= 1e-8 * max(1.0, abs(want))
        stats = posterior_at(f, v, s)
        mean, cov = conditioned_posterior(f, v, s)
        ok &= np.allclose(stats.zbar, mean, atol=1e-10)
        ok &= np.allclose(v[s.group] * stats.m, cov, atol=1e-10)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5
    assert report("C2", "oracle equivalence", ok, f"{elapsed:.1f}s")


def test_c3_minorizer_property():
    # 2*Psi + c <= L at 100 random points per instance, equality at the
    # anchor to 1e-8, on 10 random small instances.  Budget: 10 s.
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(10):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        anchor_f, anchor_v, (s,) = random_instance(rng, d, k, 2,
                                                   observe_prob=0.7)
        c = sample_log_likelihood(anchor_f, anchor_v, s) - 2 * minorizer_value(
            anchor_f, anchor_v, anchor_f, anchor_v, s)
        anchor_gap = (2 * minorizer_value(anchor_f, anchor_v, anchor_f,
                                          anchor_v, s) + c
                      - sample_log_likelihood(anchor_f, anchor_v, s))
        ok &= abs(anchor_gap) <= 1e-8
        for _ in range(100):
            f = rng.standard_normal((d, k))
            v = rng.uniform(0.05, 3.0, size=2)
            lhs = 2 * minorizer_value(f, v, anchor_f, anchor_v, s) + c
            ok &= lhs <= sample_log_likelihood(f, v, s) + 1e-8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10
    assert report("C3", "minorizer property", ok, f"{elapsed:.1f}s")


def test_c4_static_full_observation():
    # Fully observed static model, 10 seeds: median streaming error within
    # 2x the 100-iteration batch median, and batch beats pooled closed-form
    # PPCA.  Budget: 2 min.
    start = time.perf_counter()
    errs = {"shasta": [], "batch": [], "ppca": []}
    for seed in range(10):
        script = static_script(d=100, k=3, spectrum=[4.0, 2.0, 1.0],
                               v_star=[1e-2, 1e-1], group_counts=[500, 2000],
                               observe_prob=1.0)
        pairs = list(run_script(script, seed=np.random.SeedSequence((seed, 0))))
        samples = [s for s, _ in pairs]
        truth = pairs[-1][1]
        f0, v0 = shared_init(seed, 100, 3, 2)

        est = run_stream(SHASTA_STATIC, pairs, f0, v0, 100, 2)
        errs["shasta"].append(subspace_error(est.current_subspace(), truth.u))

        problem = BatchProblem(samples, num_groups=2, d=100, k=3)
        final = batch_solve(problem, f0, np.maximum(v0, 1e-12), iters=100)[-1]
        u_batch = np.linalg.svd(final.f, full_matrices=False)[0]
        errs["batch"].append(subspace_error(u_batch, truth.u))

        f_ppca, _ = ppca_closed_form(problem.dense.y, 3)
        u_ppca = np.linalg.svd(f_ppca, full_matrices=False)[0]
        errs["ppca"].append(subspace_error(u_ppca, truth.u))

    med = {k: float(np.median(v)) for k, v in errs.items()}
    elapsed = time.perf_counter() - start
    ok = (med["shasta"] <= 2 * med["batch"] and med["batch"] < med["ppca"]
          and elapsed < 120)
    assert report("C4", "static full observation", ok,
                  f"shasta={med['shasta']:.4g} batch={med['batch']:.4g} "
                  f"ppca={med['ppca']:.4g}, {elapsed:.0f}s")


def test_c5_static_half_observation():
    # Same model with 50% of entries observed, 10 seeds: the streaming
    # heteroscedastic estimator strictly beats PETRELS (lambda=1, delta=0.1)
    # and GROUSE (step 0.01) in median subspace error.  Budget: 3 min.
    start = time.perf_counter()
    errs = {"shasta": [], "petrels": [], "grouse": []}
    specs = {
        "shasta": SHASTA_STATIC,
        "petrels": dict(kind="petrels", rank=3, forgetting=1.0, delta=0.1),
        "grouse": dict(kind="grouse", rank=3, step=0.01),
    }
    for seed in range(10):
        script = static_script(d=100, k=3, spectrum=[4.0, 2.0, 1.0],
                               v_star=[1e-2, 1e-1], group_counts=[500, 2000],
                               observe_prob=0.5)
        pairs = list(run_script(script, seed=np.random.SeedSequence((seed, 0))))
        truth = pairs[-1][1]
        f0, v0 = shared_init(seed, 100, 3, 2)
        for name, spec in specs.items():
            est = run_stream(spec, pairs, f0, v0, 100, 2)
            errs[name].append(subspace_error(est.current_subspace(), truth.u))
    med = {k: float(np.median(v)) for k, v in errs.items()}
    elapsed = time.perf_counter() - start
    ok = (med["shasta"] < med["petrels"] and med["shasta"] < med["grouse"]
          and elapsed < 180)
    assert report("C5", "static half observation", ok,
                  f"shasta={med['shasta']:.4g} petrels={med['petrels']:.4g} "
                  f"grouse={med['grouse']:.4g}, {elapsed:.0f}s")


def test_c6_dynamic_subspace_tracking():
    # Subspace jumps every 5000 of 20000 samples, 50% observed, 5 seeds: in
    # the settled tail of each epoch the streaming heteroscedastic error is
    # at most a third of the best homoscedastic baseline.  Budget: 3 min.
    start = time.perf_counter()
    script = ScenarioScript(
        d=100, k=3, spectrum=(4.0, 2.0, 1.0), v_star=(1e-4, 1e-2),
        observe_prob=0.5, group_probs=(0.2, 0.8),
        epochs=tuple(Epoch(samples=5000, redraw_subspace=(i > 0))
                     for i in range(4)))
    specs = {
        "shasta": SHASTA_DYNAMIC,
        "petrels": dict(kind="petrels", rank=3, forgetting=0.998, delta=0.1),
        "grouse": dict(kind="grouse", rank=3, step=0.02),
    }
    cadence, epoch_len, tail_len = 100, 5000, 2000
    tails = {name: {e: [] for e in range(4)} for name in specs}
    for seed in range(5):
        pairs = list(run_script(script, seed=np.random.SeedSequence((seed, 0))))
        f0, v0 = shared_init(seed, 100, 3, 2)
        for name, spec in specs.items():
            est = build_estimator(spec, 100, 2, f0, v0)
            for t, (s, truth) in enumerate(pairs, 1):
                est.ingest(s)
                if t % cadence == 0 and (t - 1) % epoch_len + 1 > epoch_len - tail_len:
                    tails[name][(t - 1) // epoch_len].append(
                        subspace_error(est.current_subspace(), truth.u))
    ok = True
    details = []
    for e in range(4):
        med = {n: float(np.median(tails[n][e])) for n in specs}
        best_baseline = min(med["petrels"], med["grouse"])
        ok &= med["shasta"] <= best_baseline / 3
        details.append(f"epoch{e}: {med['shasta']:.2e} vs {best_baseline:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 180
    assert report("C6", "dynamic subspace tracking", ok,
                  "; ".join(details) + f", {elapsed:.0f}s")


def test_c7_dynamic_variance_tracking():
    # One group's variance doubles every 5000 samples: within 1000 samples of
    # each doubling the median relative error of that group's estimate drops
    # below 0.3 and stays there for the epoch.  Both doubling scripts, 5
    # seeds.  Budget: 2 min.
    start = time.perf_counter()
    cadence = 100
    ok = True
    details = []
    for group in (0, 1):
        script = ScenarioScript(
            d=100, k=3, spectrum=(4.0, 2.0, 1.0), v_star=(1e-4, 1e-2),
            observe_prob=0.5, group_probs=(0.2, 0.8),
            epochs=(Epoch(samples=5000),) + tuple(
                Epoch(samples=5000, scale_variance=(group, 2.0))
                for _ in range(3)))
        traces = []
        for seed in range(5):
            pairs = run_script(script, seed=np.random.SeedSequence((seed, 0)))
            f0, v0 = shared_init(seed, 100, 3, 2)
            est = build_estimator(SHASTA_DYNAMIC, 100, 2, f0, v0)
            rel = {}
            for t, (s, truth) in enumerate(pairs, 1):
                est.ingest(s)
                if t % cadence == 0:
                    rel[t] = (abs(est.variances[group] - truth.v_star[group])
                              / truth.v_star[group])
            traces.append(rel)
        ts = sorted(traces[0])
        med = {t: float(np.median([tr[t] for tr in traces])) for t in ts}
        for boundary in (5000, 10000, 15000):
            settle = [t for t in ts if boundary < t <= boundary + 1000
                      and med[t] < 0.3]
            good = bool(settle) and all(
                med[t] < 0.3 for t in ts if settle[0] <= t <= boundary + 5000)
            ok &= good
            if settle:
                details.append(f"g{group}@{boundary}:+{settle[0] - boundary}")
            else:
                details.append(f"g{group}@{boundary}:never")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    assert report("C7", "dynamic variance tracking", ok,
                  "settled " + " ".join(details) + f", {elapsed:.0f}s")


def test_c8_bounded_memory(tmp_path):
    # Serialized state size after 1e2 and 1e5 ingests is identical; only the
    # sample counter advances with the stream.  Budget: 30 s.
    start = time.perf_counter()
    cfg = ShastaConfig(weights=0.01, c_f=0.01, c_v=0.1, delta=0.1)
    rng = np.random.default_rng(1008)
    f0 = rng.standard_normal((100, 3)) / 10.0
    v0 = np.array([0.1, 0.5])
    sizes, counters = {}, {}
    for n in (100, 100_000):
        state = init_state(cfg, f0, v0)
        stream_rng = np.random.default_rng(77)
        for _ in range(n):
            ingest(state, random_sample(stream_rng, 100, 2, observe_prob=0.5),
                   cfg)
        path = tmp_path / f"state_{n}.bin"
        save_state(state, path)
        sizes[n] = path.stat().st_size
        counters[n] = state.t
    elapsed = time.perf_counter() - start
    ok = (sizes[100] == sizes[100_000]
          and counters[100] == 100 and counters[100_000] == 100_000
          and elapsed < 30)
    assert report("C8", "bounded state memory", ok,
                  f"{sizes[100]} bytes at both lengths, {elapsed:.0f}s")


def test_c9_streaming_vs_batch_wallclock(tmp_path):
    # Desk-scale substitute for the full-size timing claim: one streaming
    # pass lands within 5% of the log-likelihood gap the batch solver closes,
    # in less wall-clock time, from the same initialization; medians over 3
    # seeds.  Budget: 2 min.
    start = time.perf_counter()
    raw = {
        "scenario": {
            "kind": "synthetic", "d": 200, "rank": 3,
            "spectrum": [4.0, 2.0, 1.0], "variances": [0.1, 1.0],
            "group_counts": [5000, 20000], "observe_prob": 0.2,
        },
        "streaming_estimator": {
            "kind": "shasta", "rank": 3, "weights": "0.01/sqrt(t)",
            "c_f": 0.01, "c_v": 0.1, "delta": 0.1,
        },
        "batch_estimator": {"kind": "batch-mm", "rank": 3,
                            "iterations": 300, "tol": 1e-8},
        "run": {"seeds": [0, 1, 2], "checkpoint_every": 5000,
                "output_dir": str(tmp_path / "timing")},
    }
    table = timing_run(parse_timing_config(raw))
    closeness, faster = [], []
    for row in table["seeds"].values():
        closed = abs(row["batch_final_gap"] - row["init_gap"])
        closeness.append(abs(row["streaming_final_gap"]
                             - row["batch_final_gap"]) / closed)
        faster.append(row["streaming_seconds"] < row["batch_seconds"])
    elapsed = time.perf_counter() - start
    med_close = float(np.median(closeness))
    ok = med_close <= 0.05 and all(faster) and elapsed < 120
    assert report("C9", "streaming vs batch wallclock", ok,
                  f"median gap closeness {med_close:.3%}, "
                  f"stream {table['median_streaming_seconds']:.1f}s "
                  f"(estimator {table['median_streaming_estimator_seconds']:.1f}s"
                  f", metrics {table['median_streaming_metric_seconds']:.1f}s) vs "
                  f"batch {table['median_batch_seconds']:.1f}s, final subspace "
                  f"error stream "
                  f"{table['median_streaming_final_subspace_error']:.3f} vs "
                  f"batch {table['median_batch_final_subspace_error']:.3f}, "
                  f"{elapsed:.0f}s")


def test_c10_determinism(tmp_path):
    # Rerunning a config with the same seeds reproduces every metric byte;
    # only elapsed-time fields may differ.  Budget: 1 min.
    start = time.perf_counter()

    def run_into(out):
        raw = {
            "scenario": {
                "kind": "synthetic", "d": 50, "rank": 3,
                "spectrum": [4.0, 2.0, 1.0], "variances": [1e-2, 1e-1],
                "group_counts": [200, 600], "observe_prob": 0.5,
            },
            "estimator": SHASTA_STATIC,
            "run": {"seeds": [0, 1], "checkpoint_every": 100,
                    "loglik_gap": True, "output_dir": str(out)},
        }
        run_experiment(parse_config(raw))
        metric_bytes = []
        for seed in (0, 1):
            with open(out / f"trace_seed{seed}.csv") as fh:
                rows = [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]
            metric_bytes.append("\n".join(rows))
        return metric_bytes

    a = run_into(tmp_path / "a")
    b = run_into(tmp_path / "b")
    elapsed = time.perf_counter() - start
    ok = a == b and elapsed < 60
    assert report("C10", "deterministic reruns", ok,
                  f"{len(a)} traces byte-identical, {elapsed:.0f}s")
