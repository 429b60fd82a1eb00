import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    minorizer_value,
    posterior_stats,
)

from helpers import (
    DEGENERATE,
    degenerate,
    orthonormal,
    quad_rounding,
    random_sample,
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
                stats = posterior_stats(f, v_prev, s)
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
        # No sample ever observes rows 4 and 5.
        samples = [ObservedSample(np.array([0, 1, 2, 3]), rng.standard_normal(4), 0)
                   for _ in range(5)]
        p = BatchProblem(samples, num_groups=1, d=d, k=k)
        f_prev = rng.standard_normal((d, k))
        f = batch_f_step(p.dense.parts(f_prev), np.array([1.0]), p)
        np.testing.assert_array_equal(f[4:], f_prev[4:])

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
                stats = posterior_stats(f_prev, v, smp)
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

    def test_parts_formed_twice_per_iteration(self, monkeypatch):
        # Both steps read one set of parts at the iteration's F, and the
        # log-likelihood forms its own at the new F.
        rng = np.random.default_rng(13)
        p = random_problem(rng, 6, 2, 2, n=12, observe_prob=0.7)
        f0, v0 = random_init(rng, 6, 2, 2)
        seen = []
        parts = DatasetEvaluator.parts

        def counted(self, f):
            seen.append(f.copy())
            return parts(self, f)

        monkeypatch.setattr(DatasetEvaluator, "parts", counted)
        its = batch_solve(p, f0, v0, iters=4)
        assert len(its) == 4 and len(seen) == 2 * len(its)
        for got, want in zip(seen, [f0] + [it.f for it in its for _ in (0, 1)]):
            np.testing.assert_array_equal(got, want)

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
