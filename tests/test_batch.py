import re
import tracemalloc
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from shastapca import batch, model
from shastapca.datagen import run_script
from shastapca.harness import load_config, load_timing_config, scenario_script
from shastapca.batch import (
    BatchProblem,
    batch_f_step,
    batch_solve,
    batch_v_step,
    ppca_closed_form,
    random_init,
)
from shastapca.model import (
    DatasetEvaluator,
    ObservedSample,
    check_factors,
    floor_variances,
)

from helpers import (
    DEGENERATE,
    degenerate,
    minorizer_value,
    one_pass_v_step,
    orthonormal,
    posterior_at,
    quad_rounding,
    random_sample,
    sample_log_likelihood,
)


def random_problem(rng, d, k, num_groups, n, observe_prob):
    samples = [random_sample(rng, d, num_groups, observe_prob) for _ in range(n)]
    return BatchProblem(samples=samples, num_groups=num_groups, d=d, k=k)


def planted_samples(rng, u, spectrum, v_star, groups):
    f_star = u * np.sqrt(spectrum)
    out = []
    for g in groups:
        z = rng.standard_normal(u.shape[1])
        eps = np.sqrt(v_star[g]) * rng.standard_normal(u.shape[0])
        out.append(ObservedSample.full(f_star @ z + eps, g))
    return out


class TestBatchProblem:
    def test_builds_its_dense_arrays(self):
        s = ObservedSample(np.array([1, 3]), np.array([5.0, -2.0]), 1)
        dense = BatchProblem([s], num_groups=2, d=5, k=1).dense
        np.testing.assert_array_equal(dense.y, [[0.0, 5.0, 0.0, -2.0, 0.0]])
        np.testing.assert_array_equal(dense.w, [[0.0, 1.0, 0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(dense.groups, [1])

    def test_dense_arrays_match_a_per_sample_loop(self):
        # Over more than one scatter block, with empty samples among them;
        # a bad coordinate in a later block names its own sample.
        rng = np.random.default_rng(22)
        n, d = 2 * model._SCATTER_ROWS + 5, 7
        samples = [random_sample(rng, d, 3, 0.3) for _ in range(n)]
        y, w = np.zeros((n, d)), np.zeros((n, d))
        for i, s in enumerate(samples):
            y[i, s.omega] = s.values
            w[i, s.omega] = 1.0
        dense = DatasetEvaluator(samples, d)
        assert any(s.nobs == 0 for s in samples)
        np.testing.assert_array_equal(dense.y, y)
        np.testing.assert_array_equal(dense.w, w)
        np.testing.assert_array_equal(dense.groups, [s.group for s in samples])
        samples[n - 3] = ObservedSample(np.array([2, 9]), np.ones(2), 0)
        with pytest.raises(ValueError, match=f"sample {n - 3} observes "
                                             f"coordinate 9 >= d={d}"):
            DatasetEvaluator(samples, d)

    def test_forms_the_constants_the_steps_read(self):
        # Coordinate 2 is observed by no sample; group 1 holds 3 + 1 entries.
        samples = [ObservedSample(np.array([0, 1, 3]), np.ones(3), 1),
                   ObservedSample(np.array([1]), np.ones(1), 0),
                   ObservedSample(np.array([3]), np.ones(1), 1)]
        p = BatchProblem(samples, num_groups=3, d=4, k=1)
        np.testing.assert_array_equal(p.observed_rows, [True, True, False, True])
        np.testing.assert_array_equal(p.theta, [1.0, 4.0, 0.0])

    def test_compares_by_value(self):
        rng = np.random.default_rng(16)
        samples = [random_sample(rng, 5, 2, 0.6) for _ in range(4)]
        copies = [ObservedSample(s.omega.copy(), s.values.copy(), s.group)
                  for s in samples]
        assert BatchProblem(samples, 2, 5, 2) == BatchProblem(copies, 2, 5, 2)
        assert BatchProblem(samples, 2, 5, 2) != BatchProblem(samples[:3], 2, 5, 2)

    @pytest.mark.parametrize("bad, message", [
        (ObservedSample(np.array([0, 2]), np.array([1.0, 2.0]), 2),
         "sample 1 has group 2 outside"),
        (ObservedSample(np.array([0, 3]), np.array([1.0, 2.0]), 0),
         "sample 1 observes coordinate 3 >= d=3"),
    ], ids=["group", "coordinate"])
    def test_refuses_a_sample_outside_the_problem(self, bad, message):
        good = ObservedSample.full([1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError, match=message):
            BatchProblem([good, bad, good], num_groups=2, d=3, k=1)


def in_both_forms(build):
    """build() once with every dataset kept dense and once with every one
    kept flat (see model.FLAT_DENSITY: no count of entries is below 0, and
    every one is below 2 n d)."""
    built = []
    for density in (0.0, 2.0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "FLAT_DENSITY", density)
            built.append(build())
    return built


def sparse_samples(rng, n, d, num_groups):
    """n samples, a fifth of them empty and a fifth observing one entry, the
    rest each at its own density; a few coordinates are observed by none."""
    unseen = rng.random(d) < 0.2
    out = []
    for _ in range(n):
        kind = rng.random()
        size = 0 if kind < 0.2 else 1 if kind < 0.4 else rng.integers(1, d + 1)
        omega = np.sort(rng.choice(d, size=size, replace=False))
        omega = omega[~unseen[omega]]
        out.append(ObservedSample(omega, rng.standard_normal(omega.size),
                                  int(rng.integers(num_groups))))
    return out


def close(got, want, scale, rel=1e-12):
    """got within rel of want, entry by entry, relative to scale: the sums
    of the absolute values of the terms each entry adds up."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * scale)


class TestFlatForm:
    """A dataset below FLAT_DENSITY is kept flat; each kernel then agrees
    with the dense form's to 1e-12 of the absolute sum of its terms."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_kernels_match_the_dense_form(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 30))
        k = int(rng.integers(1, min(d, 4) + 1))
        n = int(rng.integers(1, 40))
        samples = sparse_samples(rng, n, d, 2)
        dense, flat = in_both_forms(lambda: DatasetEvaluator(samples, d))
        assert not dense.flat and flat.flat
        f = rng.standard_normal((d, k))
        mean = rng.standard_normal((n, k))
        a = rng.standard_normal((n, 5))
        np.testing.assert_array_equal(flat.nobs, dense.nobs)
        close(flat.ysq, dense.ysq, dense.ysq)

        (grams, fy), (want_grams, want_fy) = flat._grams(f), dense._grams(f)
        abs_pairs = np.abs(f[:, :, None] * f[:, None, :]).reshape(d, k * k)
        close(grams, want_grams, (dense.w @ abs_pairs).reshape(-1, k, k))
        close(fy, want_fy, np.abs(dense.y) @ np.abs(f))

        terms = np.abs(dense.y) + dense.w * (np.abs(mean) @ np.abs(f).T)
        scale = np.einsum("nd,nd->n", terms, terms)
        close(flat.residuals(f, mean), dense.residuals(f, mean), scale)
        rows = np.flatnonzero(rng.random(n) < 0.5)
        close(flat.residuals(f, mean[rows], rows),
              dense.residuals(f, mean[rows], rows), scale[rows])

        close(flat.row_sums(a), dense.row_sums(a), dense.w.T @ np.abs(a))
        close(flat.row_sums(a, values=True), dense.row_sums(a, values=True),
              np.abs(dense.y).T @ np.abs(a))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_one_iteration_and_likelihood_match_the_dense_form(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 20))
        k = int(rng.integers(1, min(d, 3) + 1))
        samples = sparse_samples(rng, int(rng.integers(1, 40)), d, 2)
        dense, flat = in_both_forms(
            lambda: BatchProblem(samples, num_groups=2, d=d, k=k))
        assert not dense.dense.flat and flat.dense.flat
        np.testing.assert_array_equal(flat.observed_rows, dense.observed_rows)
        np.testing.assert_array_equal(flat.theta, dense.theta)
        f0, v0 = random_init(rng, d, k, 2)
        (got,), (want,) = (batch_solve(p, f0, v0, iters=1) for p in (flat, dense))
        np.testing.assert_allclose(got.f, want.f, rtol=1e-12,
                                   atol=1e-12 * np.abs(want.f).max())
        np.testing.assert_allclose(got.v, want.v, rtol=1e-12)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-12)

    def test_guarded_rows_match_the_dense_form(self, monkeypatch):
        # Every sample in F_o's span at v_g = 1e-8 or the floor takes the
        # eigendecomposition, and its quadratic form the residual over its
        # observed entries (`DatasetEvaluator.residuals` on those rows),
        # whose rounding, divided by v_g, is bounded by quad_rounding.
        rng = np.random.default_rng(23)
        d, k = 40, 3
        f = rng.standard_normal((d, k))
        samples = []
        for i in range(30):
            omega = np.sort(rng.choice(d, size=int(rng.integers(0, 5)),
                                       replace=False))
            samples.append(ObservedSample(omega, f[omega] @ rng.standard_normal(k),
                                          i % 2))
        v = np.array([model.VARIANCE_FLOOR, 1e-8])
        residuals = []
        real = DatasetEvaluator.residuals

        def spy(self, f, mean, rows=None):
            residuals.append(rows)
            return real(self, f, mean, rows)

        monkeypatch.setattr(DatasetEvaluator, "residuals", spy)
        dense, flat = in_both_forms(lambda: DatasetEvaluator(samples, d))
        want, got = dense(f, v), flat(f, v)
        assert len(residuals) == 2 and residuals[0].size > 0
        np.testing.assert_array_equal(residuals[0], residuals[1])
        scale = sum(abs(term) for term in (
            0.5 * sample_log_likelihood(f, v, s) for s in samples))
        rounding = sum(quad_rounding(v, s) for s in samples)
        assert abs(got - want) <= 1e-12 * scale + 0.5 * rounding

    def test_empty_samples_sum_to_zero(self):
        # reduceat gives the entry at a repeated offset, not 0: empty
        # samples first, between two others and last get exact zeros.
        f = np.arange(1.0, 9.0).reshape(4, 2)
        empty = ObservedSample(np.array([], dtype=int), np.array([]), 0)
        samples = [empty, ObservedSample(np.array([1]), np.array([2.0]), 1),
                   empty, empty, ObservedSample(np.array([0, 3]),
                                                np.array([1.0, -1.0]), 0),
                   empty]
        dense, flat = in_both_forms(lambda: DatasetEvaluator(samples, 4))
        for ev in (dense, flat):
            grams, fy = ev._grams(f)
            np.testing.assert_array_equal(grams[[0, 2, 3, 5]], 0.0)
            np.testing.assert_array_equal(fy[[0, 2, 3, 5]], 0.0)
            np.testing.assert_array_equal(grams[1], [[9.0, 12.0], [12.0, 16.0]])
            np.testing.assert_array_equal(fy[1], [6.0, 8.0])
            np.testing.assert_array_equal(ev.ysq, [0.0, 4.0, 0.0, 0.0, 2.0, 0.0])
            np.testing.assert_array_equal(
                ev.residuals(f, np.ones((6, 2))), [0.0, 25.0, 0.0, 0.0, 260.0, 0.0])
            np.testing.assert_array_equal(ev.row_sums(np.ones((6, 1)))[:, 0],
                                          [1.0, 1.0, 0.0, 1.0])

    def test_an_all_empty_dataset(self):
        empty = ObservedSample(np.array([], dtype=int), np.array([]), 1)
        dense, flat = in_both_forms(
            lambda: BatchProblem([empty] * 3, num_groups=2, d=5, k=2))
        assert flat.dense.flat
        rng = np.random.default_rng(3)
        f0, v0 = random_init(rng, 5, 2, 2)
        for p in (dense, flat):
            np.testing.assert_array_equal(p.observed_rows, False)
            assert p.dense(f0, v0) == 0.0
            (it,) = batch_solve(p, f0, v0, iters=1)
            np.testing.assert_array_equal(it.f, f0)
            np.testing.assert_array_equal(it.v, v0)
            assert it.loglik == 0.0

    def test_refuses_a_coordinate_outside_the_dataset(self):
        samples = [ObservedSample(np.array([1]), np.ones(1), 0)] * 5
        samples.append(ObservedSample(np.array([2, 9]), np.ones(2), 0))

        def refused():
            with pytest.raises(ValueError, match="sample 5 observes "
                                                 "coordinate 9 >= d=7"):
                DatasetEvaluator(samples, 7)

        in_both_forms(refused)

    def test_every_bundled_config_is_dense(self):
        # The form is chosen from the observed density alone; the bundled
        # configs (20% observed and more, as C9's data) stay dense.
        configs = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))
        assert len(configs) == 8
        for path in configs:
            timing = "batch_estimator" in yaml.safe_load(path.read_text())
            scenario = (load_timing_config(path)["scenario"] if timing
                        else load_config(path).scenario)
            pairs = islice(run_script(scenario_script(scenario),
                                      np.random.SeedSequence((0, 0))), 2000)
            ev = DatasetEvaluator([s for s, _ in pairs], scenario["d"])
            assert not ev.flat, path.name


class TestVStep:
    def test_zero_factors_fully_observed(self):
        # F = 0 kills the posterior terms, so v = sum ||y||^2 / (n d).
        rng = np.random.default_rng(0)
        d, n = 6, 9
        samples = [ObservedSample.full(rng.standard_normal(d), 0) for _ in range(n)]
        p = BatchProblem(samples, num_groups=1, d=d, k=2)
        v = batch_v_step(p.dense.parts(np.zeros((d, 2))), np.array([0.5]), p)
        want = sum(s.values @ s.values for s in samples) / (n * d)
        assert v[0] == pytest.approx(want, rel=1e-12)

    def test_single_scalar_sample(self):
        # d=1, y=2, F=0: v = ||y||^2 / |omega| = 4.
        p = BatchProblem([ObservedSample.full([2.0], 0)], num_groups=1, d=1, k=1)
        v = batch_v_step(p.dense.parts(np.zeros((1, 1))), np.array([1.0]), p)
        assert v[0] == pytest.approx(4.0)

    def test_unseen_group_carries_forward(self):
        p = BatchProblem([ObservedSample.full([1.0, 2.0], 0)], num_groups=2, d=2, k=1)
        v = batch_v_step(p.dense.parts(np.zeros((2, 1))), np.array([0.5, 0.125]),
                         p)
        assert v[1] == 0.125

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_maximizes_univariate_objective(self, seed):
        # Oracle: grid search of -(theta/2) ln v - rho/(2v) over v in [1e-4, 1e2],
        # with theta and rho assembled from per-sample posterior statistics.
        rng = np.random.default_rng(seed)
        d, k, num_groups = 8, 2, 2
        p = random_problem(rng, d, k, num_groups, n=12, observe_prob=0.7)
        f = rng.standard_normal((d, k))
        v_prev = rng.uniform(0.1, 1.0, size=num_groups)
        v_new = batch_v_step(p.dense.parts(f), v_prev, p)

        for g in range(num_groups):
            theta, rho = 0.0, 0.0
            for s in p.samples:
                if s.group != g or s.nobs == 0:
                    continue
                stats = posterior_at(f, v_prev, s)
                fo = f[s.omega]
                resid = s.values - fo @ stats.zbar
                theta += s.nobs
                rho += resid @ resid + v_prev[g] * np.sum((fo @ stats.m) * fo)
            if theta == 0:
                continue

            def objective(v):
                return -0.5 * theta * np.log(v) - rho / (2 * v)

            grid = np.geomspace(1e-4, 1e2, 4001)
            assert objective(v_new[g]) >= objective(grid).max() - 1e-9
            assert v_new[g] == pytest.approx(rho / theta, rel=1e-10)


class TestBlockedVStep:
    """The v-step's residual runs in blocks of rows; its variances must be the
    one-pass formula's (`helpers.one_pass_v_step`), bit for bit.  d = 220
    and 333 leave 4 and 5 columns past a multiple of 8, which BLAS rounds
    differently with the row count of a product, and each sample is a group
    of its own, so that a last-bit change in one row's residual power shows
    in its variance instead of vanishing in a group's sum.  Every product
    here is small enough that BLAS runs it on one thread."""

    @pytest.mark.parametrize("n, d, block", [
        (50, 220, 220 * 100),    # 96 rows a block: n below one block
        (288, 220, 220 * 100),   # exactly three blocks
        (289, 220, 220 * 100),   # three blocks and one row
        (300, 220, 220 * 100),   # three blocks and a ragged end
        (145, 333, 64),          # d above the block: the floor of 48 rows
    ], ids=["below_one_block", "exact_multiple", "multiple_plus_one",
            "ragged", "d_above_block"])
    def test_matches_the_one_pass_formula(self, monkeypatch, n, d, block):
        monkeypatch.setattr(model, "RESIDUAL_BLOCK", block)
        rng = np.random.default_rng(n + d)
        samples = [random_sample(rng, d, 1, 0.9) for _ in range(n)]
        p = BatchProblem([ObservedSample(s.omega, s.values, i)
                          for i, s in enumerate(samples)], n, d, 3)
        for _ in range(4):
            parts = p.dense.parts(rng.standard_normal((d, 3)))
            v_prev = rng.uniform(0.2, 1.5, size=n)
            got = batch_v_step(parts, v_prev, p)
            assert got.tobytes() == one_pass_v_step(parts, v_prev, p).tobytes()

    @pytest.mark.parametrize("n", [49, 145])
    def test_a_last_row_joins_the_block_before(self, monkeypatch, n):
        # 48 rows a block leave one row over, which numpy would hand to gemv
        # on its own.  Compared row by row: a sum over rows can hide a bit.
        monkeypatch.setattr(model, "RESIDUAL_BLOCK", 64)
        rng = np.random.default_rng(n)
        d = 333
        for _ in range(8):
            mean, fo = rng.standard_normal((n, 3)), rng.standard_normal((d, 3))
            w = (rng.random((n, d)) < 0.9) * 1.0
            y = rng.standard_normal((n, d)) * w
            resid = (y - mean @ fo.T) * w
            want = np.einsum("nd,nd->n", resid, resid)
            got = model._residual_power(mean, fo, y, w)
            assert got.tobytes() == want.tobytes()


class TestFStep:
    def test_zero_values_give_zero_row(self):
        rng = np.random.default_rng(1)
        d, k = 5, 2
        # Row 0 is observed with value 0 by every sample; others are random.
        samples = []
        for _ in range(8):
            vals = rng.standard_normal(d)
            vals[0] = 0.0
            samples.append(ObservedSample.full(vals, 0))
        p = BatchProblem(samples, num_groups=1, d=d, k=k)
        f = batch_f_step(p.dense.parts(rng.standard_normal((d, k))),
                         np.array([0.5]), p)
        np.testing.assert_allclose(f[0], 0.0, atol=1e-12)

    def test_hand_worked_scalar_case(self):
        # k=1, d=1, y=1, f_prev=1, v=1: zbar=1/2, m=1/2, r=3/4, s=1/2, f=2/3.
        p = BatchProblem([ObservedSample.full([1.0], 0)], num_groups=1, d=1, k=1)
        f = batch_f_step(p.dense.parts(np.ones((1, 1))), np.array([1.0]), p)
        assert f[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_unobserved_rows_carry_forward(self):
        rng = np.random.default_rng(2)
        d, k = 6, 2
        # No sample ever observes rows 2, 4 and 5; the others are solved.
        observed = np.array([0, 1, 3])
        samples = [ObservedSample(observed, rng.standard_normal(3), 0)
                   for _ in range(5)]
        p = BatchProblem(samples, num_groups=1, d=d, k=k)
        f_prev = rng.standard_normal((d, k))
        f = batch_f_step(p.dense.parts(f_prev), np.array([1.0]), p)
        assert f[[2, 4, 5]].tobytes() == f_prev[[2, 4, 5]].tobytes()
        assert not np.isclose(f[observed], f_prev[observed]).any()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_rows_zero_minorizer_gradient(self, seed):
        # Oracle: central finite differences of the summed per-sample surrogate
        # anchored at (f_prev, v), which the returned rows must maximize.
        rng = np.random.default_rng(seed)
        d, k = 5, 2
        p = random_problem(rng, d, k, num_groups=2, n=10, observe_prob=0.8)
        f_prev = rng.standard_normal((d, k))
        v = rng.uniform(0.2, 1.5, size=2)
        f_new = batch_f_step(p.dense.parts(f_prev), v, p)

        def surrogate(f):
            return sum(minorizer_value(f, v, f_prev, v, s) for s in p.samples)

        h = 1e-5
        grad = np.zeros((d, k))
        for j in range(d):
            for c in range(k):
                fp, fm = f_new.copy(), f_new.copy()
                fp[j, c] += h
                fm[j, c] -= h
                grad[j, c] = (surrogate(fp) - surrogate(fm)) / (2 * h)
        assert np.linalg.norm(grad) < 1e-6

    def test_row_systems_satisfied(self):
        # R_j f_j = s_j with R, s rebuilt from scalar posterior statistics,
        # on one problem and its DEGENERATE remakes.
        rng = np.random.default_rng(3)
        d, k = 7, 2
        p0 = random_problem(rng, d, k, num_groups=2, n=15, observe_prob=0.6)
        f0 = rng.standard_normal((d, k))
        v0 = rng.uniform(0.2, 1.5, size=2)
        for case in DEGENERATE:
            f_prev, v, samples = degenerate(rng, case, f0, v0, p0.samples)
            p = BatchProblem(samples, num_groups=2, d=d, k=k)
            f_new = batch_f_step(p.dense.parts(f_prev), v, p)
            assert np.isfinite(f_new).all(), case

            r = np.zeros((d, k, k))
            s = np.zeros((d, k))
            for smp in p.samples:
                stats = posterior_at(f_prev, v, smp)
                vg = v[smp.group]
                contrib = np.outer(stats.zbar, stats.zbar) / vg + stats.m
                r[smp.omega] += contrib
                s[smp.omega] += np.outer(smp.values, stats.zbar) / vg
            for j in range(d):
                if not np.any(r[j]):
                    continue
                resid = np.linalg.norm(r[j] @ f_new[j] - s[j])
                scale = (np.linalg.norm(r[j]) * np.linalg.norm(f_new[j])
                         + np.linalg.norm(s[j]))
                assert resid <= 1e-10 * scale, case

    def test_row_locality_disjoint_blocks(self):
        # Samples observe either rows {0,1} or rows {2,3}; perturbing a value
        # in the first block must leave the second block's rows untouched.
        rng = np.random.default_rng(4)
        d, k = 4, 2
        block_a = [ObservedSample(np.array([0, 1]), rng.standard_normal(2), 0)
                   for _ in range(6)]
        block_b = [ObservedSample(np.array([2, 3]), rng.standard_normal(2), 0)
                   for _ in range(6)]
        f_prev = rng.standard_normal((d, k))
        v = np.array([0.7])

        base = BatchProblem(block_a + block_b, num_groups=1, d=d, k=k)
        perturbed_a = [ObservedSample(np.array([0, 1]),
                                      s.values + np.array([0.5, 0.0]), 0)
                       for s in block_a]
        pert = BatchProblem(perturbed_a + block_b, num_groups=1, d=d, k=k)

        f_base = batch_f_step(base.dense.parts(f_prev), v, base)
        f_pert = batch_f_step(pert.dense.parts(f_prev), v, pert)
        np.testing.assert_array_equal(f_base[2:], f_pert[2:])
        assert not np.allclose(f_base[:2], f_pert[:2])


class TestFullyObservedEquivalence:
    def test_matches_unrestricted_formulas(self):
        # With every coordinate observed, the masked implementation must match
        # a direct dense transcription of the same updates.
        rng = np.random.default_rng(5)
        d, k, num_groups, n = 8, 3, 2, 20
        samples = [ObservedSample.full(rng.standard_normal(d), int(rng.integers(2)))
                   for _ in range(n)]
        p = BatchProblem(samples, num_groups=num_groups, d=d, k=k)
        f = rng.standard_normal((d, k))
        v_prev = rng.uniform(0.2, 1.2, size=num_groups)

        # Direct v update.
        theta = np.zeros(num_groups)
        rho = np.zeros(num_groups)
        for s in samples:
            vg = v_prev[s.group]
            m = np.linalg.inv(f.T @ f + vg * np.eye(k))
            zbar = m @ (f.T @ s.values)
            resid = s.values - f @ zbar
            theta[s.group] += d
            rho[s.group] += resid @ resid + vg * np.trace(f.T @ f @ m)
        v_direct = rho / theta
        v_got = batch_v_step(p.dense.parts(f), v_prev, p)
        np.testing.assert_allclose(v_got, v_direct, rtol=1e-12)

        # Direct f update at the updated variances, ridge included.
        r = np.zeros((k, k))
        s_rows = np.zeros((d, k))
        for smp in samples:
            vg = v_direct[smp.group]
            m = np.linalg.inv(f.T @ f + vg * np.eye(k))
            zbar = m @ (f.T @ smp.values)
            r += np.outer(zbar, zbar) / vg + m
            s_rows += np.outer(smp.values, zbar) / vg
        eps = 1e-10 * np.trace(r) / k
        f_direct = np.linalg.solve(r + eps * np.eye(k), s_rows.T).T
        f_got = batch_f_step(p.dense.parts(f), v_direct, p)
        np.testing.assert_allclose(f_got, f_direct, rtol=1e-12, atol=1e-14)


class TestBatchSolve:
    def test_one_iteration_composes_steps(self):
        rng = np.random.default_rng(6)
        d, k = 6, 2
        p = random_problem(rng, d, k, num_groups=2, n=12, observe_prob=0.7)
        f0, v0 = random_init(rng, d, k, 2)
        (it,) = batch_solve(p, f0, v0, iters=1)
        parts = p.dense.parts(f0)
        v1 = batch_v_step(parts, v0, p)
        f1 = batch_f_step(parts, v1, p)
        np.testing.assert_array_equal(it.f, f1)
        np.testing.assert_array_equal(it.v, v1)
        assert it.iteration == 1

    def test_parts_formed_once_per_iteration(self, monkeypatch):
        # Both steps read one set of parts at the iteration's F.  The
        # log-likelihood forms none: its Cholesky reads the Grams, and no
        # sample here falls back to an eigendecomposition.
        rng = np.random.default_rng(13)
        p = random_problem(rng, 6, 2, 2, n=12, observe_prob=0.7)
        f0, v0 = random_init(rng, 6, 2, 2)
        seen, spectra = [], []
        parts, spectrum = DatasetEvaluator.parts, model._gram_spectrum

        def counted(self, f):
            seen.append(f.copy())
            return parts(self, f)

        def counted_spectrum(grams):
            spectra.append(len(grams))
            return spectrum(grams)

        monkeypatch.setattr(DatasetEvaluator, "parts", counted)
        monkeypatch.setattr(model, "_gram_spectrum", counted_spectrum)
        its = batch_solve(p, f0, v0, iters=4)
        assert len(its) == 4 and len(seen) == len(its)
        assert spectra == [12] * len(its)  # the parts' whole stacks only
        for got, want in zip(seen, [f0] + [it.f for it in its[:-1]]):
            np.testing.assert_array_equal(got, want)

    def test_iterates_do_not_depend_on_the_likelihood_kernel(self, monkeypatch):
        # The log-likelihood only reports: with a likelihood by the
        # eigendecomposition in its place, every f and v is the same.
        def eigh_call(self, f, v):
            f = check_factors(f)
            vg = floor_variances(v)[self.groups]
            return float(0.5 * np.sum(self.parts(f).log_likelihood(
                vg, self.nobs, self.ysq, lambda zbar: self.residuals(f, zbar))))

        rng = np.random.default_rng(21)
        p0 = random_problem(rng, 8, 3, 2, n=30, observe_prob=0.6)
        f_init, v_init = random_init(rng, 8, 3, 2)
        for case in DEGENERATE:
            f0, v0, samples = degenerate(rng, case, f_init, v_init, p0.samples)
            p = BatchProblem(samples, num_groups=2, d=8, k=3)
            with monkeypatch.context() as patch:
                patch.setattr(DatasetEvaluator, "__call__", eigh_call)
                want = batch_solve(p, f0, v0, iters=6)
            got = batch_solve(p, f0, v0, iters=6)
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a.f, b.f, err_msg=case)
                np.testing.assert_array_equal(a.v, b.v, err_msg=case)

    def test_iteration_allocates_under_a_quarter_of_an_n_by_d_array(self):
        # One iteration past the problem's dense y and w: O(n k^2) for the
        # parts and one block of the v-step's residual, no n x d array.
        rng = np.random.default_rng(18)
        n, d, k = 5000, 800, 3
        p = random_problem(rng, d, k, num_groups=2, n=n, observe_prob=0.2)
        f0, v0 = random_init(rng, d, k, 2)
        tracemalloc.start()
        try:
            batch_solve(p, f0, v0, iters=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4

    def test_iterate_loglik_matches_dataset(self):
        rng = np.random.default_rng(7)
        p = random_problem(rng, 6, 2, 2, n=12, observe_prob=0.7)
        f0, v0 = random_init(rng, 6, 2, 2)
        its = batch_solve(p, f0, v0, iters=3)
        for it in its:
            want = DatasetEvaluator(p.samples, 6)(it.f, it.v)
            assert it.loglik == pytest.approx(want, rel=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_ascent(self, seed):
        # One random problem and its DEGENERATE remakes.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(4, 12))
        k = int(rng.integers(1, 4))
        p0 = random_problem(rng, d, k, num_groups=2, n=15, observe_prob=0.7)
        f_init, v_init = random_init(rng, d, k, 2)
        for case in DEGENERATE:
            f0, v0, samples = degenerate(rng, case, f_init, v_init, p0.samples)
            p = BatchProblem(samples, num_groups=2, d=d, k=k)
            its = batch_solve(p, f0, v0, iters=25)
            assert all(np.isfinite(it.f).all() and np.isfinite(it.v).all()
                       and np.isfinite(it.loglik) for it in its), case
            logliks = [it.loglik for it in its]
            # Each value is exact only up to the kernel's rounding of its
            # quadratic forms, which matters only with v_g near the floor.
            rounding = [0.5 * sum(quad_rounding(it.v, s) for s in samples)
                        for it in its]
            for i in range(1, len(its)):
                prev, cur = logliks[i - 1], logliks[i]
                slack = 1e-9 * abs(prev) + rounding[i - 1] + rounding[i]
                assert cur >= prev - slack, case

    def test_noiseless_planted_fixed_point(self):
        # Noiseless full data with F spanning the true subspace and the
        # variance at its floor: one iteration must barely move anything.
        rng = np.random.default_rng(8)
        d, k, n = 12, 3, 40
        u = orthonormal(rng, d, k)
        f_star = u * np.sqrt(np.array([4.0, 2.0, 1.0]))
        samples = [ObservedSample.full(f_star @ rng.standard_normal(k), 0)
                   for _ in range(n)]
        p = BatchProblem(samples, num_groups=1, d=d, k=k)
        v0 = np.array([1e-12])
        (it,) = batch_solve(p, f_star, v0, iters=1)
        # The 1e-10 relative row ridge bounds the attainable per-step drift.
        assert np.linalg.norm(it.f - f_star) <= 1e-9
        assert it.v[0] == pytest.approx(1e-12)

    def test_early_stop_with_tolerance(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, 6, 2, 2, n=12, observe_prob=0.8)
        f0, v0 = random_init(rng, 6, 2, 2)
        its = batch_solve(p, f0, v0, iters=500, tol=1e-8)
        assert len(its) < 500

    def test_rejects_zero_iters(self):
        rng = np.random.default_rng(10)
        p = random_problem(rng, 4, 1, 1, n=3, observe_prob=1.0)
        with pytest.raises(ValueError):
            batch_solve(p, np.zeros((4, 1)), np.array([1.0]), iters=0)

    def test_tol_is_non_negative(self):
        # A negative or NaN tol used to run every iteration; 0 still runs
        # every iteration, and inf stops at the first change.
        rng = np.random.default_rng(14)
        p = random_problem(rng, 4, 1, 1, n=6, observe_prob=1.0)
        f0, v0 = random_init(rng, 4, 1, 1)
        for tol in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                batch_solve(p, f0, v0, iters=5, tol=tol)
        assert len(batch_solve(p, f0, v0, iters=5, tol=0.0)) == 5
        assert len(batch_solve(p, f0, v0, iters=5, tol=float("inf"))) == 2

    @pytest.mark.parametrize("f_shape, v_size, num_groups", [
        ((6, 3), 2, 2), ((6, 1), 2, 2), ((8, 2), 2, 2), ((6, 2), 3, 2),
        ((6, 2), 2, 3),
    ], ids=["wide_f", "narrow_f", "tall_f", "long_v", "more_groups"])
    def test_rejects_init_of_another_shape(self, f_shape, v_size, num_groups):
        # d=6, k=2: init_f must be 6 x 2 and init_v hold one entry per group.
        rng = np.random.default_rng(12)
        samples = [random_sample(rng, 6, 2, 0.7) for _ in range(10)]
        p = BatchProblem(samples, num_groups=num_groups, d=6, k=2)
        want = (f"init_f is {f_shape} and init_v ({v_size},); the problem "
                f"needs (6, 2) and ({num_groups},)")
        with pytest.raises(ValueError, match=re.escape(want)):
            batch_solve(p, np.ones(f_shape), np.ones(v_size), iters=3)

    def test_overflowing_gram_is_refused_by_name(self):
        # Finite factors of magnitude 1e155 overflow the per-sample Gram
        # (1e310); the solver says so, and numpy prints no warning.
        rng = np.random.default_rng(0)
        p = BatchProblem([ObservedSample.full(rng.standard_normal(4), 0)
                          for _ in range(5)], num_groups=1, d=4, k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Gram F_o' F_o is not finite"):
                batch_solve(p, rng.standard_normal((4, 2)) * 1e155, [1.0],
                            iters=2)


class TestPPCA:
    def test_exact_rank_k_data(self):
        # Noise-free rank-k data: sigma^2 -> 0 and span(F) = data span.
        rng = np.random.default_rng(11)
        d, k, n = 8, 2, 500
        u = orthonormal(rng, d, k)
        f_star = u * np.sqrt(np.array([3.0, 1.5]))
        data = rng.standard_normal((n, k)) @ f_star.T
        f, sigma_sq = ppca_closed_form(data, k)
        assert sigma_sq == pytest.approx(0.0, abs=1e-10)
        # Columns of f lie in span(u): projecting out u leaves nothing.
        resid = f - u @ (u.T @ f)
        assert np.linalg.norm(resid) < 1e-8

    def test_pure_noise_recovers_variance(self):
        # F* = 0: the trailing-eigenvalue mean estimates the noise variance.
        rng = np.random.default_rng(12)
        d, n, noise = 5, 100_000, 0.7
        data = np.sqrt(noise) * rng.standard_normal((n, d))
        _, sigma_sq = ppca_closed_form(data, k=1)
        assert sigma_sq == pytest.approx(noise, rel=0.02)

    def test_two_dim_example(self):
        # Second moment exactly diag(3, 1): sigma^2 = 1, F = (sqrt(2), 0)'.
        data = np.array([[np.sqrt(6.0), 0.0], [0.0, np.sqrt(2.0)]])
        f, sigma_sq = ppca_closed_form(data, k=1)
        assert sigma_sq == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(f[:, 0]), [np.sqrt(2.0), 0.0], atol=1e-12)

    def test_rejects_full_rank_request(self):
        with pytest.raises(ValueError):
            ppca_closed_form(np.eye(3), k=3)
