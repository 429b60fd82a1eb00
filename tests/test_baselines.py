import numpy as np
import pytest

from shastapca.baselines import Grouse, Petrels, StreamingEstimator
from shastapca.model import ObservedSample
from shastapca.shasta import ShastaConfig, ShastaPCA

from helpers import orthonormal, random_sample


def subspace_gap(a, b):
    """Largest principal-angle sine between the spans of two orthonormal bases."""
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - s.min() ** 2)))


class TestPetrels:
    def test_orthonormal_factors_full_observation_coefficients(self):
        # With orthonormal factors, the least-squares coefficients are F'y;
        # one zero-noise ingest must then leave the factors unchanged.
        rng = np.random.default_rng(0)
        u = orthonormal(rng, 8, 2)
        est = Petrels(u, forgetting=1.0, delta=0.1)
        z = rng.standard_normal(2)
        est.ingest(ObservedSample.full(u @ z, 0))
        np.testing.assert_allclose(est.f, u, atol=1e-12)

    def test_matches_discounted_least_squares(self):
        # lambda = 1 on stationary data: each row must solve the accumulated
        # ridge-anchored least-squares system over the past coefficients.
        rng = np.random.default_rng(1)
        d, k, delta = 6, 2, 0.1
        f0 = rng.standard_normal((d, k))
        est = Petrels(f0, forgetting=1.0, delta=delta)

        zhats, ys = [], []
        for _ in range(40):
            y = rng.standard_normal(d)
            fo = est.f
            zhat, *_ = np.linalg.lstsq(fo, y, rcond=None)
            zhats.append(zhat)
            ys.append(y)
            est.ingest(ObservedSample.full(y, 0))

        zmat = np.array(zhats)
        for j in range(d):
            r = delta * np.eye(k) + zmat.T @ zmat
            s = delta * f0[j] + zmat.T @ np.array(ys)[:, j]
            np.testing.assert_allclose(est.f[j], np.linalg.solve(r, s),
                                       rtol=1e-8, atol=1e-10)

    def test_tracks_planted_subspace(self):
        rng = np.random.default_rng(2)
        d, k = 30, 3
        u = orthonormal(rng, d, k)
        f_star = u * np.sqrt(np.array([4.0, 2.0, 1.0]))
        est = Petrels(rng.standard_normal((d, k)) / np.sqrt(d), forgetting=1.0)
        for _ in range(1500):
            y = f_star @ rng.standard_normal(k) + 0.05 * rng.standard_normal(d)
            est.ingest(ObservedSample.full(y, 0))
        assert subspace_gap(est.current_subspace(), u) < 0.05

    def test_agrees_with_batch_alternation_on_stationary_data(self):
        # lambda = 1 on a long stationary stream: the tracked subspace lands
        # where batch least-squares factor alternation on the same data does
        # (largest principal-angle sine below 1e-3).
        rng = np.random.default_rng(10)
        d, k, n = 40, 3, 6000
        u_star = orthonormal(rng, d, k)
        f_star = u_star * np.sqrt(np.array([4.0, 2.0, 1.0]))
        data = np.array([f_star @ rng.standard_normal(k)
                         + 0.05 * rng.standard_normal(d) for _ in range(n)])
        f0 = rng.standard_normal((d, k)) / np.sqrt(d)

        est = Petrels(f0.copy(), forgetting=1.0, delta=0.1)
        for y in data:
            est.ingest(ObservedSample.full(y, 0))

        f = f0.copy()
        for _ in range(200):
            z = np.linalg.lstsq(f, data.T, rcond=None)[0]
            f = np.linalg.lstsq(z.T, data, rcond=None)[0].T
        als_basis = np.linalg.svd(f, full_matrices=False)[0]
        assert subspace_gap(est.current_subspace(), als_basis) < 1e-3

    def test_empty_sample_is_noop_on_factors(self):
        rng = np.random.default_rng(3)
        est = Petrels(rng.standard_normal((5, 2)), forgetting=0.9)
        before = est.f.copy()
        est.ingest(ObservedSample(np.array([], dtype=int), np.array([]), 0))
        np.testing.assert_array_equal(est.f, before)

    def test_rejects_bad_forgetting(self):
        with pytest.raises(ValueError):
            Petrels(np.zeros((3, 1)), forgetting=0.0)


class TestGrouse:
    def test_in_span_vector_is_noop(self):
        rng = np.random.default_rng(4)
        u = orthonormal(rng, 10, 3)
        est = Grouse(u, step=0.01)
        y = u @ rng.standard_normal(3)
        est.ingest(ObservedSample.full(y, 0))
        np.testing.assert_allclose(est.u, u, atol=1e-12)

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(5)
        u = orthonormal(rng, 10, 3)
        est = Grouse(u, step=0.0)
        est.ingest(ObservedSample.full(rng.standard_normal(10), 0))
        np.testing.assert_array_equal(est.u, u)

    def test_error_decreases_on_planted_stream(self):
        # Monte Carlo regression with fixed seed: 1000 full-observation steps
        # shrink the subspace error from a random start.
        rng = np.random.default_rng(6)
        d, k = 25, 3
        u_star = orthonormal(rng, d, k)
        f_star = u_star * np.sqrt(np.array([4.0, 2.0, 1.0]))
        est = Grouse(orthonormal(rng, d, k), step=0.01)
        start = subspace_gap(est.current_subspace(), u_star)
        for _ in range(1000):
            y = f_star @ rng.standard_normal(k) + 0.05 * rng.standard_normal(d)
            est.ingest(ObservedSample.full(y, 0))
        end = subspace_gap(est.current_subspace(), u_star)
        assert end < 0.25 * start

    def test_orthonormality_preserved_long_run(self):
        rng = np.random.default_rng(7)
        d, k = 12, 2
        u_star = orthonormal(rng, d, k)
        f_star = u_star * np.sqrt(np.array([2.0, 1.0]))
        est = Grouse(orthonormal(rng, d, k), step=0.02)
        worst = 0.0
        for _ in range(100_000):
            s = random_sample(rng, d, 1, observe_prob=0.6)
            z = rng.standard_normal(k)
            vals = (f_star @ z)[s.omega] + 0.1 * rng.standard_normal(s.nobs)
            est.ingest(ObservedSample(s.omega, vals, 0))
            worst = max(worst, np.linalg.norm(est.u.T @ est.u - np.eye(k)))
        assert worst <= 1e-8 + 1e-12

    def test_rejects_non_orthonormal_init(self):
        with pytest.raises(ValueError):
            Grouse(np.ones((4, 2)), step=0.01)


    def test_current_subspace_is_a_snapshot(self):
        # A basis taken earlier must not follow later updates.
        rng = np.random.default_rng(10)
        est = Grouse(orthonormal(rng, 10, 2), step=0.05)
        before = est.current_subspace()
        kept = before.copy()
        est.ingest(ObservedSample.full(rng.standard_normal(10), 0))
        np.testing.assert_array_equal(before, kept)
        assert not np.array_equal(est.current_subspace(), kept)


class TestSharedInterface:
    def test_all_estimators_conform(self):
        rng = np.random.default_rng(8)
        d, k = 10, 2
        u0 = orthonormal(rng, d, k)
        estimators = [
            ShastaPCA(ShastaConfig(rank=k, num_groups=1), u0.copy(),
                      np.array([0.1])),
            Petrels(u0.copy()),
            Grouse(u0.copy(), step=0.01),
        ]
        for est in estimators:
            assert isinstance(est, StreamingEstimator)
            for _ in range(5):
                est.ingest(random_sample(rng, d, 1, observe_prob=0.7))
            basis = est.current_subspace()
            assert basis.shape == (d, k)
            np.testing.assert_allclose(basis.T @ basis, np.eye(k), atol=1e-8)

    def test_petrels_orthonormal_factors_subspace_identity(self):
        rng = np.random.default_rng(9)
        u = orthonormal(rng, 8, 3)
        est = Petrels(u)
        gram = est.current_subspace().T @ u
        np.testing.assert_allclose(np.linalg.svd(gram, compute_uv=False), 1.0,
                                   atol=1e-10)
