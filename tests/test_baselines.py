import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shastapca.baselines import Grouse, Petrels
from shastapca.datagen import Epoch, ScenarioScript, run_script
from shastapca.harness import shared_init
from shastapca.model import ObservedSample
from shastapca.shasta import ShastaConfig, ShastaPCA

from helpers import EagerPetrels, orthonormal, random_sample, relative_gap

# Relative agreement, in f and in the row systems r, of the inverse-form
# PETRELS with the eager oracle; fixed before measuring.
PETRELS_PIN = 1e-9


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


def script_stream(seed, **script):
    """(samples, initial factors) of one seed of a ScenarioScript."""
    script = ScenarioScript(**script)
    samples = [s for s, _ in run_script(script, np.random.SeedSequence((seed, 0)))]
    f0, _ = shared_init(seed, script.d, script.k, len(script.v_star))
    return samples, f0


def assert_pinned(samples, f0, forgetting, checkpoints):
    """Feed the package and the eager PETRELS the same samples; they agree
    to PETRELS_PIN at each checkpoint tick.  Returns the package estimator."""
    est = Petrels(f0, forgetting=forgetting, delta=0.1)
    eager = EagerPetrels(f0, forgetting=forgetting, delta=0.1)
    for t, sample in enumerate(samples, 1):
        est.ingest(sample)
        eager.ingest(sample)
        if t in checkpoints:
            assert relative_gap(est.f, eager.f) < PETRELS_PIN, t
            assert relative_gap(est.r, eager.r) < PETRELS_PIN, t
    return est


class TestPetrelsPins:
    """The inverse form against the eager form it replaced."""

    def test_dynamic_tracking_stream(self):
        # C6's stream, seed 0: subspace redrawn every 5,000 of 20,000
        # samples, half the entries observed, forgetting 0.998.
        samples, f0 = script_stream(
            0, d=100, k=3, spectrum=(4.0, 2.0, 1.0), v_star=(1e-4, 1e-2),
            observe_prob=0.5, group_probs=(0.2, 0.8),
            epochs=tuple(Epoch(samples=5000, redraw_subspace=(i > 0))
                         for i in range(4)))
        assert_pinned(samples, f0, 0.998, range(2500, 20001, 2500))

    def test_wide_sparse_stream(self):
        # The benchmark's wide stream, shrunk: d = 2,000, 5% observed.
        samples, f0 = script_stream(
            0, d=2000, k=3, spectrum=(400.0, 200.0, 100.0), v_star=(0.01, 0.1),
            epochs=(Epoch(samples=400),), observe_prob=0.05,
            group_probs=(0.3, 0.7))
        assert_pinned(samples, f0, 1.0, range(100, 401, 100))

    def test_scale_folds(self):
        # At forgetting 0.9 the scale reaches SCALE_FLOOR about every 656
        # ticks, so 1,500 ticks fold it twice.
        samples, f0 = script_stream(
            0, d=20, k=3, spectrum=(4.0, 2.0, 1.0), v_star=(0.01, 0.1),
            epochs=(Epoch(samples=1500),), observe_prob=0.5,
            group_probs=(0.3, 0.7))
        est = assert_pinned(samples, f0, 0.9, range(100, 1501, 100))
        assert est.s >= Petrels.SCALE_FLOOR > 0.9 ** 1500  # it did fold

    def test_empty_samples_still_forget(self):
        # Every third sample observes nothing; the systems decay all the
        # same, so the scale is the plain power of the forgetting factor.
        samples, f0 = script_stream(
            1, d=30, k=2, spectrum=(2.0, 1.0), v_star=(0.05,),
            epochs=(Epoch(samples=300),), observe_prob=0.4, group_probs=(1.0,))
        empty = ObservedSample(np.array([], dtype=int), np.array([]), 0)
        samples = [empty if t % 3 == 0 else s for t, s in enumerate(samples)]
        est = assert_pinned(samples, f0, 0.95, range(50, 301, 50))
        assert est.s == pytest.approx(0.95 ** 300, rel=1e-12)

    def test_row_unobserved_until_its_system_underflows(self):
        # At forgetting 0.5 an unobserved row's eager system 0.5^t delta I
        # underflows to zero after about 1,070 ticks.  When the row is then
        # observed, exact arithmetic moves it by the minimum-norm step that
        # fits the sample, zhat (y_j - zhat' f_j) / |zhat|^2, where the eager
        # system, the rank-one zhat zhat', has no unique solution: the
        # oracle's np.linalg.solve refuses it, so that row's eager system is
        # made definite before the tick and only the other rows are compared
        # (their solves are independent of it).  The package takes that step
        # to within the memory floor, and the other rows keep to the eager
        # trajectory.  The row is observed on a tick that folds the scale,
        # which restarts s near 1: only the eigenvalue bound kept at the fold
        # then finds the row.
        rng = np.random.default_rng(0)
        d, k = 5, 2
        u = orthonormal(rng, d, k)
        est = Petrels(rng.standard_normal((d, k)), forgetting=0.5, delta=0.1)
        eager = EagerPetrels(est.f, forgetting=0.5, delta=0.1)
        for t in range(1, 1300):
            last = t > 1080 and est.s * 0.5 < Petrels.SCALE_FLOOR
            omega = np.arange(d if last else d - 1)
            y = u @ rng.standard_normal(k) + 0.01 * rng.standard_normal(d)
            if last:
                zhat = np.linalg.lstsq(est.f, y, rcond=None)[0]
                want = est.f[-1] + zhat * (y[-1] - zhat @ est.f[-1]) / (zhat @ zhat)
                assert not eager.r[-1].any()  # underflowed
                eager.r[-1] = np.eye(k)
            sample = ObservedSample(omega, y[omega], 0)
            est.ingest(sample)
            eager.ingest(sample)
            if last:
                break
        assert last and est.s == 0.5
        assert relative_gap(est.f[-1], want) < 1e-7
        assert relative_gap(est.f[:-1], eager.f[:-1]) < PETRELS_PIN
        assert np.isfinite(est.p).all()
        np.linalg.cholesky(est.p)
        floor = Petrels.MEMORY_FLOOR * (zhat @ zhat)
        assert np.linalg.eigvalsh(est.r[-1]).min() == pytest.approx(floor, rel=1e-6)

    @settings(max_examples=60)
    @given(forgetting=st.floats(0.0, 1.0, exclude_min=True), data=st.data())
    def test_every_tick_keeps_systems_definite_and_other_rows_untouched(
            self, forgetting, data):
        # Any forgetting factor, masks that may observe nothing, and values
        # up to 1e6: after every tick each stored p[j] is exactly symmetric
        # and positive definite, f is finite, and (but at a fold) the rows
        # the sample did not observe keep their bytes.
        k = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(k, 6))
        est = Petrels(orthonormal(np.random.default_rng(k * 10 + d), d, k),
                      forgetting=forgetting, delta=0.1)
        values = st.floats(-1e6, 1e6, allow_nan=False)
        ticks = data.draw(st.lists(st.tuples(
            st.lists(st.booleans(), min_size=d, max_size=d),
            st.lists(values, min_size=d, max_size=d)), max_size=30))
        for mask, y in ticks:
            omega = np.flatnonzero(mask)
            p, f = est.p.copy(), est.f.copy()
            folds = est.s * forgetting < Petrels.SCALE_FLOOR
            est.ingest(ObservedSample(omega, np.array(y)[omega], 0))
            assert np.array_equal(est.p, est.p.transpose(0, 2, 1))
            np.linalg.cholesky(est.p)  # raises unless every p[j] is definite
            assert np.isfinite(est.f).all()
            if not folds:
                rest = np.setdiff1d(np.arange(d), omega)
                assert est.p[rest].tobytes() == p[rest].tobytes()
                assert est.f[rest].tobytes() == f[rest].tobytes()


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
            ShastaPCA(ShastaConfig(), u0.copy(), np.array([0.1])),
            Petrels(u0.copy()),
            Grouse(u0.copy(), step=0.01),
        ]
        for est in estimators:
            for _ in range(5):
                est.ingest(random_sample(rng, d, 1, observe_prob=0.7))
            basis = est.current_subspace()
            assert basis.shape == (d, k)
            np.testing.assert_allclose(basis.T @ basis, np.eye(k), atol=1e-8)

    def test_baselines_refuse_nonfinite_initial_factors(self):
        # As SHASTA does.  Both used to accept them, and their first ingest
        # then raised LinAlgError from inside LAPACK.
        inf_entry = np.eye(4, 2)
        inf_entry[0, 0] = np.inf
        for f0 in (np.full((4, 2), np.nan), inf_entry):
            for cls in (Petrels, Grouse):
                with pytest.raises(ValueError, match="factor matrix must be finite"):
                    cls(f0)

    def test_petrels_orthonormal_factors_subspace_identity(self):
        rng = np.random.default_rng(9)
        u = orthonormal(rng, 8, 3)
        est = Petrels(u)
        gram = est.current_subspace().T @ u
        np.testing.assert_allclose(np.linalg.svd(gram, compute_uv=False), 1.0,
                                   atol=1e-10)
