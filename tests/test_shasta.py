import copy
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shastapca import RejectedSample, model, shasta
from shastapca.batch import BatchProblem, batch_f_step
from shastapca.model import ObservedSample, ParameterError, VARIANCE_FLOOR
from shastapca.shasta import (
    ShastaConfig,
    ShastaPCA,
    WeightSchedule,
    f_step,
    ingest,
    init_state,
    load_state,
    save_state,
    v_step,
)

from helpers import crafted_checkpoints, orthonormal, random_sample, step_parts


def make_config(**kw):
    base = dict(weights="1/t", c_f=0.5, c_v=0.5, delta=0.1)
    base.update(kw)
    return ShastaConfig(**base)


def fresh_state(cfg, d, seed=0, k=2, num_groups=2):
    """A state of random d x k factors and num_groups variances."""
    rng = np.random.default_rng(seed)
    f0 = rng.standard_normal((d, k)) / np.sqrt(d)
    return init_state(cfg, f0, rng.uniform(0.2, 1.0, size=num_groups))


class TestWeightSchedule:
    def test_inv_t(self):
        w = WeightSchedule.parse("1/t")
        assert w(1) == 1.0 and w(4) == 0.25

    def test_const_from_number(self):
        assert WeightSchedule.parse(0.01)(17) == 0.01

    def test_inv_sqrt(self):
        w = WeightSchedule.parse("0.01/sqrt(t)")
        assert w(4) == pytest.approx(0.005)
        assert w(1) == pytest.approx(0.01)

    @pytest.mark.parametrize("spec", ["1/t", 0.01, "0.01/sqrt(t)", "4/sqrt(t)"])
    def test_weights_are_python_floats(self, spec):
        # A NumPy scalar weight would send every scalar step of a tick
        # through NumPy.
        w = WeightSchedule.parse(spec)
        assert all(type(w(t)) is float for t in (1, 2, 3, 1000))

    def test_rejects_out_of_range_constant(self):
        with pytest.raises(ValueError):
            WeightSchedule.parse(1.5)


class TestConfig:
    def test_rejects_bad_averaging(self):
        with pytest.raises(ValueError):
            make_config(c_f=0.0)


class TestInitState:
    def test_delta_identity_blocks(self):
        cfg = ShastaConfig(delta=0.1)
        state = init_state(cfg, np.zeros((100, 3)), np.array([0.3, 0.4]))
        assert state.r_bar.shape == (100, 3, 3)
        for j in (0, 50, 99):
            np.testing.assert_array_equal(state.r_bar[j], 0.1 * np.eye(3))
        assert not state.s_bar.any() and not state.theta_bar.any()
        assert state.t == 0

    def test_unseen_group_keeps_initial_variance(self):
        # A stream touching only group 0 leaves group 1's variance at v0.
        cfg = make_config()
        state = fresh_state(cfg, d=6, seed=1)
        v0_other = state.v[1]
        rng = np.random.default_rng(2)
        for _ in range(5):
            ingest(state, random_sample(rng, 6, 1), cfg)
        assert state.v[1] == v0_other
        assert state.theta_bar[1] == 0.0

    def test_shape_mismatch_rejected(self):
        # k and L are f0's and v0's; v0 must be a non-empty vector.
        cfg = make_config()
        for v0 in (np.array([]), np.full((2, 1), 0.5), np.float64(0.5)):
            with pytest.raises(ValueError, match="v0"):
                init_state(cfg, np.zeros((5, 2)), v0)
        state = init_state(cfg, np.zeros((5, 3)), np.array([0.1, 0.2, 0.3]))
        assert (state.d, state.k, state.num_groups) == (5, 3, 3)

    def test_memoryless_single_needs_one_group(self):
        cfg = make_config(variance_mode="memoryless-single")
        with pytest.raises(ParameterError) as err:
            init_state(cfg, np.zeros((5, 2)), np.array([0.1, 0.2]))
        assert err.value.field == "variance_mode"
        assert init_state(cfg, np.zeros((5, 2)), np.array([0.1])).num_groups == 1


class TestVStep:
    def test_first_sample_full_weight(self):
        # w=1, F=0, c_v=1: the variance becomes ||y||^2 / |omega|.
        cfg = make_config()
        state = init_state(cfg, np.zeros((5, 2)), np.array([0.77]))
        s = ObservedSample(np.array([0, 2, 3]), np.array([1.0, -2.0, 2.0]), 0)
        v, _, _ = v_step(state, s, w=1.0, c_v=1.0, parts=step_parts(state, s))
        assert v[0] == pytest.approx(9.0 / 3.0)

    def test_running_average_closed_form(self):
        # w_t = 1/t with F = 0 and c_v = 1 yields, per group, the ratio of
        # total observed power to total observed entries.
        cfg = make_config()
        state = init_state(cfg, np.zeros((6, 2)), np.array([1.0, 1.0]))
        rng = np.random.default_rng(3)
        samples = [random_sample(rng, 6, 2, observe_prob=0.8) for _ in range(40)]
        for t, s in enumerate(samples, start=1):
            state.v, state.theta_bar, state.rho_bar = v_step(
                state, s, w=1.0 / t, c_v=1.0, parts=step_parts(state, s))
        for g in range(2):
            own = [s for s in samples if s.group == g and s.nobs]
            want = (sum(s.values @ s.values for s in own)
                    / sum(s.nobs for s in own))
            assert state.v[g] == pytest.approx(want, rel=1e-10)

    def test_other_group_ratio_invariant(self):
        cfg = make_config()
        state = fresh_state(cfg, d=6, seed=4)
        rng = np.random.default_rng(5)
        # Seed group 1 with some mass, then stream group-0 samples.
        first = random_sample(rng, 6, 2, scale=2.0)
        state.v, state.theta_bar, state.rho_bar = v_step(
            state, first, w=0.5, c_v=0.5, parts=step_parts(state, first))
        state_g1 = ObservedSample(np.array([1, 4]), np.array([3.0, -1.0]), 1)
        state.v, state.theta_bar, state.rho_bar = v_step(
            state, state_g1, w=0.5, c_v=0.5, parts=step_parts(state, state_g1))
        ratio_before = state.rho_bar[1] / state.theta_bar[1]
        s0 = ObservedSample(np.array([0, 2, 5]), np.array([1.0, 0.5, -0.2]), 0)
        _, theta_bar, rho_bar = v_step(state, s0, w=0.3, c_v=0.5,
                                       parts=step_parts(state, s0))
        assert rho_bar[1] / theta_bar[1] == pytest.approx(ratio_before,
                                                          rel=1e-15)

    def test_variance_floor(self):
        cfg = make_config()
        state = init_state(cfg, np.zeros((3, 2)), np.array([0.5]))
        s = ObservedSample(np.array([0, 1]), np.zeros(2), 0)
        v, _, _ = v_step(state, s, w=1.0, c_v=1.0, parts=step_parts(state, s))
        assert v[0] == VARIANCE_FLOOR

    @pytest.mark.parametrize("scale", [1.0, 1e200], ids=["kept", "rejected"])
    def test_writes_nothing(self, scale):
        # The state's variance arrays stay the same objects with the same
        # bytes, whether the step returns or rejects the sample (at 1e200
        # the residual power overflows).
        cfg = make_config()
        state = fresh_state(cfg, d=6, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(5):
            ingest(state, random_sample(rng, 6, 2), cfg)
        names = ("v", "theta_bar", "rho_bar")
        arrays = [getattr(state, name) for name in names]
        data = [a.tobytes() for a in arrays]
        s = random_sample(rng, 6, 2, scale=scale)
        if scale == 1.0:
            got = v_step(state, s, w=0.5, c_v=0.5, parts=step_parts(state, s))
            assert all(g is not a for g, a in zip(got, arrays))
        else:
            with pytest.raises(RejectedSample, match="variance update"), \
                    np.errstate(over="ignore"):
                v_step(state, s, w=0.5, c_v=0.5, parts=step_parts(state, s))
        for name, a, b in zip(names, arrays, data):
            assert getattr(state, name) is a and a.tobytes() == b, name


class TestFStep:
    def test_vanishing_weight_is_identity_at_consistent_point(self):
        # From a fresh state with f0 = 0 the cached maximizer is 0, so a
        # negligible weight leaves both the surrogate and the iterate in place.
        cfg = make_config(c_f=0.7)
        state = init_state(cfg, np.zeros((5, 2)), np.array([0.5]))
        before = copy.deepcopy(state)
        s = ObservedSample(np.array([1, 3]), np.array([1.0, -2.0]), 0)
        f_step(state, s, w=1e-16, c_f=cfg.c_f, v=state.v,
               parts=step_parts(state, s))
        np.testing.assert_allclose(state.f, before.f, atol=1e-12)
        np.testing.assert_allclose(state.r_bar, before.r_bar, rtol=1e-12)
        np.testing.assert_allclose(state.s_bar, before.s_bar, atol=1e-12)

    def test_never_observed_rows_go_to_zero(self):
        # c_F = 1: rows no sample observes solve (delta I)^-1 0 = 0.
        cfg = make_config(c_f=1.0)
        state = fresh_state(cfg, d=6, seed=6, num_groups=1)
        rng = np.random.default_rng(7)
        for _ in range(10):
            omega = np.sort(rng.choice(4, size=3, replace=False))
            s = ObservedSample(omega, rng.standard_normal(3), 0)
            ingest(state, s, cfg)
        np.testing.assert_array_equal(state.f[4:], np.zeros((2, 2)))

    def test_full_weight_matches_batch_row_update(self):
        # One fully observed sample with w = 1, c_F = 1 and frozen variances:
        # the streaming row map must track the batch row update on the
        # one-sample dataset (they differ only by the batch solver's ridge).
        rng = np.random.default_rng(8)
        d, k = 5, 2
        cfg = ShastaConfig(weights=1.0, c_f=1.0, c_v=0.5)
        y = rng.standard_normal(d)
        sample = ObservedSample.full(y, 0)
        v = np.array([0.6])

        state = init_state(cfg, rng.standard_normal((d, k)), v)
        problem = BatchProblem([sample], num_groups=1, d=d, k=k)
        f_batch = state.f.copy()
        for _ in range(4):
            f_step(state, sample, w=1.0, c_f=1.0, v=v,
                   parts=step_parts(state, sample))
            f_batch = batch_f_step(problem.dense.parts(f_batch), v,
                                   problem)
            np.testing.assert_allclose(state.f, f_batch, rtol=1e-8)

    def test_reads_only_the_given_variances(self):
        # A state whose own variances are NaN steps exactly as one holding
        # the variances f_step is given.
        cfg = make_config(weights=0.5, c_f=0.3)
        given = fresh_state(cfg, d=6, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(5):
            ingest(given, random_sample(rng, 6, 2), cfg)
        nan = copy.deepcopy(given)
        nan.v = np.full_like(given.v, np.nan)
        s = random_sample(rng, 6, 2, scale=3.0)
        v = np.array([0.3, 2.0])
        given.v = v
        for state in (given, nan):
            f_step(state, s, 0.5, cfg.c_f, v, parts=step_parts(state, s))
        for name in ("dev", "systems", "fhat", "sigma", "gamma"):
            assert (np.asarray(getattr(nan, name)).tobytes()
                    == np.asarray(getattr(given, name)).tobytes()), name


class TestIngest:
    def test_empty_sample_decays_everything(self):
        cfg = make_config(weights=0.25)
        state = fresh_state(cfg, d=5, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(4):
            ingest(state, random_sample(rng, 5, 2), cfg)
        before = copy.deepcopy(state)
        empty = ObservedSample(np.array([], dtype=int), np.array([]), 0)
        ingest(state, empty, cfg)
        w = 0.25
        np.testing.assert_allclose(state.theta_bar, (1 - w) * before.theta_bar,
                                   rtol=1e-15)
        np.testing.assert_allclose(state.rho_bar, (1 - w) * before.rho_bar,
                                   rtol=1e-15)
        np.testing.assert_allclose(state.r_bar, (1 - w) * before.r_bar, rtol=1e-15)
        np.testing.assert_allclose(state.s_bar, (1 - w) * before.s_bar, rtol=1e-15)
        # F still relaxes toward the cached surrogate maximizer.
        np.testing.assert_allclose(
            state.f, (1 - cfg.c_f) * before.f + cfg.c_f * before.fhat, rtol=1e-12)

    def test_variance_updates_before_factors(self):
        # The factor step must see the tick's new variances: composing
        # (v_step, f_step) by hand reproduces ingest, while running the factor
        # step at the stale variances does not.
        cfg = make_config(weights=0.5, c_f=0.3, c_v=0.9)
        state_a = fresh_state(cfg, d=6, seed=11)
        state_b = copy.deepcopy(state_a)
        state_c = copy.deepcopy(state_a)
        rng = np.random.default_rng(12)
        s = random_sample(rng, 6, 2, scale=3.0)

        ingest(state_a, s, cfg)

        w = cfg.weights(state_b.t + 1)
        v, _, _ = v_step(state_b, s, w, cfg.c_v, parts=step_parts(state_b, s))
        f_step(state_b, s, w, cfg.c_f, v, parts=step_parts(state_b, s))
        np.testing.assert_array_equal(state_a.f, state_b.f)
        np.testing.assert_array_equal(state_a.v, v)

        # The factor step at the stale variances.
        f_step(state_c, s, w, cfg.c_f, state_c.v, parts=step_parts(state_c, s))
        assert not np.array_equal(state_a.f, state_c.f)

    def test_decay_invariance_of_untouched_ratio(self):
        cfg = make_config(weights=0.2)
        state = fresh_state(cfg, d=6, seed=13)
        rng = np.random.default_rng(14)
        ingest(state, random_sample(rng, 6, 2, scale=1.0), cfg)
        ingest(state, ObservedSample(np.array([0, 3]), np.array([1.0, 2.0]), 1), cfg)
        ratio = state.rho_bar[1] / state.theta_bar[1]
        ingest(state, ObservedSample(np.array([1, 2]), np.array([-1.0, 0.5]), 0), cfg)
        assert state.rho_bar[1] / state.theta_bar[1] == pytest.approx(ratio, rel=1e-15)

    def test_memoryless_single_mode(self):
        # The L=1 heuristic: each tick's variance is the sample's own
        # posterior residual ratio, with no memory of earlier ticks.
        cfg = ShastaConfig(weights=0.001, c_f=0.1,
                           variance_mode="memoryless-single")
        state = init_state(cfg, np.zeros((6, 2)), np.array([0.9]))
        rng = np.random.default_rng(15)
        for _ in range(3):
            s = random_sample(rng, 6, 1, observe_prob=0.8, scale=2.0)
            ingest(state, s, cfg)
            # Full-weight accumulators hold only the current sample.
            assert state.theta_bar[0] == s.nobs

    def test_two_noise_scales_separate(self):
        # Interleaved planted-signal streams with variances 1e-4 and 1e-2 and
        # forgetting weights: the learned variances separate by two orders of
        # magnitude.
        cfg = ShastaConfig(weights=0.01, c_f=0.01, c_v=0.1, delta=0.1)
        rng = np.random.default_rng(16)
        d = 20
        u = orthonormal(rng, d, 2)
        f_star = u * np.sqrt(np.array([3.0, 1.0]))
        state = init_state(cfg, rng.standard_normal((d, 2)) / np.sqrt(d),
                           np.array([0.5, 0.5]))
        for t in range(6000):
            g = t % 2
            y = (f_star @ rng.standard_normal(2)
                 + np.sqrt((1e-4, 1e-2)[g]) * rng.standard_normal(d))
            ingest(state, ObservedSample.full(y, g), cfg)
        assert state.v[0] == pytest.approx(1e-4, rel=0.5)
        assert state.v[1] == pytest.approx(1e-2, rel=0.5)
        assert state.v[1] / state.v[0] == pytest.approx(100.0, rel=0.5)

    def test_drift_vanishes_with_averaging_factors(self):
        # Warm the surrogate on noiseless planted data, then shrink the
        # averaging factors: per-step drift must shrink proportionally.
        rng = np.random.default_rng(17)
        d, k = 10, 2
        u = orthonormal(rng, d, k)
        f_star = u * np.sqrt(np.array([3.0, 1.0]))

        def noiseless():
            return ObservedSample.full(f_star @ rng.standard_normal(k), 0)

        cfg_warm = ShastaConfig(weights="1/t", c_f=1.0, c_v=1.0, delta=1e-6)
        state = init_state(cfg_warm, f_star, np.array([1e-12]))
        for _ in range(500):
            ingest(state, noiseless(), cfg_warm)

        drifts = {}
        for c in (1e-2, 1e-4):
            probe = copy.deepcopy(state)
            cfg = ShastaConfig(weights=0.01, c_f=c, c_v=c)
            before = probe.f.copy()
            ingest(probe, noiseless(), cfg)
            drifts[c] = np.linalg.norm(probe.f - before)
        assert drifts[1e-4] <= 2e-2 * drifts[1e-2] + 1e-14
        assert drifts[1e-2] < 1e-3  # consistent state: maximizer sits nearby


class TestAtomicTick:
    def stream(self, n=50):
        cfg = ShastaConfig(weights="1/t", c_f=0.1, c_v=0.1)
        state = fresh_state(cfg, d=20, seed=30, num_groups=1)
        rng = np.random.default_rng(31)
        for _ in range(n):
            ingest(state, ObservedSample.full(rng.standard_normal(20), 0), cfg)
        return cfg, state, rng

    def test_extreme_sample_leaves_state_unchanged(self, tmp_path):
        # Its residual power overflows; the tick rejects the sample whatever
        # the warning filters say, here with every warning an error.
        cfg, state, rng = self.stream()
        save_state(state, tmp_path / "before.bin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectedSample):
                ingest(state, ObservedSample.full(np.full(20, 1e200), 0), cfg)
        assert state.t == 50
        save_state(state, tmp_path / "after.bin")
        assert ((tmp_path / "before.bin").read_bytes()
                == (tmp_path / "after.bin").read_bytes())

        ingest(state, ObservedSample.full(rng.standard_normal(20), 0), cfg)
        assert state.t == 51
        for arr in (state.f, state.v, state.r_bar, state.s_bar, state.fhat,
                    state.theta_bar, state.rho_bar):
            assert np.isfinite(arr).all()

    @pytest.mark.parametrize("f0, sample, message", [
        # Finite observed rows whose Gram overflows (1e155^2): the tick used
        # to leak numpy's LinAlgError from the eigendecomposition.
        (np.full((3, 2), 1e155),
         ObservedSample(np.array([2]), np.array([0.0]), 0), "Gram"),
        # F = 2^28 fits y exactly (lambda + v_g rounds to lambda = 2^56), so
        # the residual is 0 and the variance step keeps v_g = 0.5; the row's
        # y zbar / v_g, about 7e309, overflows in the factor step.
        (np.array([[2.0 ** 28]]), ObservedSample.full([1e159], 0),
         "factor update"),
    ], ids=["gram", "row_system"])
    def test_overflow_is_rejected(self, tmp_path, f0, sample, message):
        cfg = ShastaConfig(weights=0.5, c_f=0.5, c_v=0.5)
        state = init_state(cfg, f0, np.array([0.5]))
        save_state(state, tmp_path / "before.bin")
        with pytest.raises(RejectedSample, match=message):
            ingest(state, sample, cfg)
        assert state.t == 0
        save_state(state, tmp_path / "after.bin")
        assert ((tmp_path / "before.bin").read_bytes()
                == (tmp_path / "after.bin").read_bytes())

    def test_failed_factor_step_undoes_variance_step(self, tmp_path,
                                                     monkeypatch):
        cfg, state, rng = self.stream()
        save_state(state, tmp_path / "before.bin")

        def failing_f_step(*args, **kwargs):
            raise ValueError("factor step failed")

        monkeypatch.setattr(shasta, "f_step", failing_f_step)
        with pytest.raises(ValueError, match="factor step failed"):
            ingest(state, ObservedSample.full(rng.standard_normal(20), 0), cfg)
        assert state.t == 50
        save_state(state, tmp_path / "after.bin")
        assert ((tmp_path / "before.bin").read_bytes()
                == (tmp_path / "after.bin").read_bytes())


class TestSolveRowsFallback:
    @pytest.mark.parametrize("a", [100.0, 1e3, 1e4])
    def test_first_tick_at_the_floor_takes_the_lstsq_path(self, a,
                                                          monkeypatch):
        # w_1 = 1 zeroes the stored systems, so row 0's new system is m
        # alone (y_o = 0 makes zbar 0), and m = (F_o' F_o + v_g I)^-1 at
        # v_g = 1e-12 has float64 eigenvalues 0 and 1e12: np.linalg.solve
        # refuses it and solve_rows falls back to least squares.
        calls = []
        lstsq = np.linalg.lstsq
        least_squares = model.least_squares

        def counting_least_squares(*args):
            calls.append(args)
            return least_squares(*args)

        monkeypatch.setattr(model, "least_squares", counting_least_squares)
        cfg = ShastaConfig(weights="1/t", c_f=0.1, c_v=0.1, delta=0.1)
        state = init_state(cfg, np.array([[a, a], [1.0, -1.0]]),
                           np.array([1e-12]))
        ingest(state, ObservedSample(np.array([0]), np.array([0.0]), 0), cfg)
        assert len(calls) == 1
        assert state.t == 1
        for arr in (state.f, state.v, state.r_bar, state.s_bar, state.fhat):
            assert np.isfinite(arr).all()
        want = lstsq(state.r_bar[0], state.s_bar[0], rcond=None)[0]
        np.testing.assert_array_equal(state.fhat[0], want)


class TestTickInvariants:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_every_tick_keeps_the_state_bounded_or_rejects(self, data):
        # Factors and values of magnitudes up to about 1e300, and samples
        # that may observe nothing: after every tick the state is finite,
        # each materialized row system is positive definite and the
        # variances are at or above the floor; or the tick raised
        # RejectedSample and left the state, t and its checkpoint bytes
        # included, as it was.  The weights stay below 1: under 1/t,
        # w_1 = 1 zeroes every stored system, and the rows no sample has
        # observed since are then 0 by design.
        k = data.draw(st.integers(1, 3))
        d = data.draw(st.integers(k, 6))
        weight = st.floats(0.01, 0.99)
        weights = data.draw(st.one_of(
            weight.map(lambda a: WeightSchedule("const", a)),
            weight.map(lambda a: WeightSchedule("inv_sqrt", a))))
        cfg = ShastaConfig(weights=weights, c_f=data.draw(weight),
                           c_v=data.draw(weight))
        value = st.builds(lambda m, e: m * 10.0 ** e,
                          st.floats(-1.0, 1.0), st.integers(-3, 300))
        f0 = np.random.default_rng(d * 10 + k).standard_normal((d, k))
        state = init_state(cfg, f0 * data.draw(value), np.array([0.5, 1.0]))
        ticks = data.draw(st.lists(st.tuples(
            st.lists(st.booleans(), min_size=d, max_size=d),
            st.lists(value, min_size=d, max_size=d),
            st.integers(0, 1)), min_size=1, max_size=40))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.bin"

            def checkpoint():
                save_state(state, path)
                return path.read_bytes()

            for mask, y, group in ticks:
                omega = np.flatnonzero(mask)
                t, before = state.t, checkpoint()
                try:
                    ingest(state, ObservedSample(omega, np.array(y)[omega],
                                                 group), cfg)
                except RejectedSample:
                    assert state.t == t and checkpoint() == before
                    continue
                assert state.t == t + 1
                for arr in (state.f, state.r_bar, state.s_bar, state.dev,
                            state.fhat, state.v, state.theta_bar,
                            state.rho_bar):
                    assert np.isfinite(arr).all()
                np.linalg.cholesky(state.r_bar)  # raises unless each is SPD
                assert (state.v >= VARIANCE_FLOOR).all()


def numpy_v_step(state, sample, w, c_v, parts):
    """The variance step with numpy's elementwise operations on the L-sized
    arrays and the stacked form of the posterior formulas (a 0-d v_g): the
    new (v, theta_bar, rho_bar)."""
    g = sample.group
    vg = float(state.v[g])
    floored = np.asarray(max(vg, VARIANCE_FLOOR))
    resid = sample.values - parts.fo @ parts.mean(floored)
    rho_t = float(resid @ resid) + vg * float(parts.fit_trace(floored))
    theta_bar = (1.0 - w) * state.theta_bar
    rho_bar = (1.0 - w) * state.rho_bar
    theta_bar[g] += w * sample.nobs
    rho_bar[g] += w * rho_t
    seen = theta_bar > 0
    v = state.v.copy()
    v[seen] = np.maximum((1.0 - c_v) * v[seen]
                         + c_v * (rho_bar[seen] / theta_bar[seen]),
                         VARIANCE_FLOOR)
    return v, theta_bar, rho_bar


class TestLeanTick:
    @pytest.mark.parametrize("num_groups,mode", [
        (1, "grouped"), (3, "grouped"), (4, "grouped"),
        (1, "memoryless-single"),
    ])
    def test_v_step_matches_numpy_formula_bitwise(self, num_groups, mode):
        # The last of three or four groups is never observed and keeps its
        # initial variance; every 25th sample is empty, and the values span
        # nine decades, so memoryless-single, which refits v from each
        # sample alone, lands on the floor on some ticks.
        cfg = make_config(weights="0.5/sqrt(t)", c_v=0.3, variance_mode=mode)
        state = fresh_state(cfg, d=10, seed=40, num_groups=num_groups)
        rng = np.random.default_rng(41)
        observed = max(1, num_groups - 1)
        for t in range(1, 301):
            sample = random_sample(rng, 10, observed, observe_prob=0.5,
                                   scale=10.0 ** rng.integers(-7, 3))
            if t % 25 == 0:
                sample = ObservedSample(np.array([], dtype=np.intp),
                                        np.array([]), sample.group)
            w, c_v = cfg.weights(t), cfg.c_v
            if mode == "memoryless-single":
                w, c_v = 1.0, 1.0
            want = numpy_v_step(state, sample, w, c_v,
                                step_parts(state, sample))
            ingest(state, sample, cfg)
            for name, ref in zip(("v", "theta_bar", "rho_bar"), want):
                assert getattr(state, name).tobytes() == ref.tobytes(), (name, t)
        if num_groups > 1:
            assert state.theta_bar[-1] == 0.0
            assert state.v[-1] == fresh_state(cfg, d=10, seed=40,
                                              num_groups=num_groups).v[-1]

    def streamed(self, weights=0.1):
        """A state after 20 ticks at weight 0.1, a config with `weights` for
        the next tick, and a sample observing three rows."""
        warm = make_config(weights=0.1)
        state = fresh_state(warm, d=8, seed=42, num_groups=1)
        rng = np.random.default_rng(43)
        for _ in range(20):
            ingest(state, ObservedSample.full(rng.standard_normal(8), 0), warm)
        return (make_config(weights=weights), state,
                ObservedSample(np.array([1, 3, 5]), rng.standard_normal(3), 0))

    def assert_rejected_unchanged(self, tmp_path, cfg, state, sample):
        save_state(state, tmp_path / "before.bin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectedSample):
                ingest(state, sample, cfg)
        save_state(state, tmp_path / "after.bin")
        assert ((tmp_path / "before.bin").read_bytes()
                == (tmp_path / "after.bin").read_bytes())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["fhat", "dev", "systems_r",
                                       "systems_s"])
    def test_non_finite_entry_is_rejected_and_state_kept(self, tmp_path,
                                                         where, bad):
        # A non-finite entry of the observed rows of F (through fhat or G)
        # or of the observed row systems is refused, and the tick changes
        # nothing.
        cfg, state, sample = self.streamed()
        target = {"fhat": state.fhat, "dev": state.dev,
                  "systems_r": state.systems[:, :, :2],
                  "systems_s": state.systems[:, :, 2]}[where]
        target[3, 0] = bad
        self.assert_rejected_unchanged(tmp_path, cfg, state, sample)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_offsets_are_rejected_and_state_kept(self, tmp_path,
                                                             monkeypatch,
                                                             sign):
        # Finite row systems whose solutions overflow: R_j = 1e-300 I and
        # S_j = +-1e10 give fhat_j = +-inf, so the new offsets
        # G_o = (F_o - fhat_o) / gamma are not finite while the rows are.
        # A weight of 1e-300 leaves the systems as they are set here.
        cfg, state, sample = self.streamed(weights=1e-300)
        state.systems[sample.omega, :, :2] = 1e-300 * np.eye(2)
        state.systems[sample.omega, :, 2] = sign * 1e10
        solved = []

        def spy(r, s):
            fhat_o = solve_rows(r, s)
            solved.append((np.isfinite(r).all() and np.isfinite(s).all(),
                           np.isinf(fhat_o).any()))
            return fhat_o

        solve_rows = shasta.solve_rows
        monkeypatch.setattr(shasta, "solve_rows", spy)
        self.assert_rejected_unchanged(tmp_path, cfg, state, sample)
        assert solved == [(True, True)]


class TestStationarityRegression:
    def test_full_data_gradient_norm_shrinks_over_pass(self):
        # Static instance, one streaming pass: the finite-difference gradient
        # of the full-dataset log-likelihood at the iterates shrinks as the
        # estimator approaches a stationary point.
        from shastapca.datagen import run_script
        from helpers import static_script
        from shastapca.model import DatasetEvaluator

        script = static_script(d=100, k=3, spectrum=[4.0, 2.0, 1.0],
                               v_star=[1e-2, 1e-1], group_counts=[500, 2000],
                               observe_prob=1.0)
        pairs = list(run_script(script, seed=np.random.SeedSequence((0, 0))))
        evaluator = DatasetEvaluator([s for s, _ in pairs], 100)
        rng = np.random.default_rng(30)
        cfg = ShastaConfig(weights="1/t", c_f=0.1, c_v=0.1, delta=0.1)
        state = init_state(cfg, rng.standard_normal((100, 3)) / 10.0,
                           rng.uniform(0.1, 1.0, size=2))

        def fd_gradient_norm(f, v):
            h = 1e-5
            total = 0.0
            for idx in np.ndindex(f.shape):
                fp, fm = f.copy(), f.copy()
                fp[idx] += h
                fm[idx] -= h
                total += ((evaluator(fp, v) - evaluator(fm, v)) / (2 * h)) ** 2
            for g in range(v.size):
                vp, vm = v.copy(), v.copy()
                vp[g] += h * v[g]
                vm[g] -= h * v[g]
                total += ((evaluator(f, vp) - evaluator(f, vm))
                          / (2 * h * v[g])) ** 2
            return np.sqrt(total)

        norms = []
        for t, (s, _) in enumerate(pairs, 1):
            ingest(state, s, cfg)
            if t in (200, 1000, 2500):
                norms.append(fd_gradient_norm(state.f.copy(), state.v.copy()))
        assert norms[1] < norms[0]
        assert norms[2] < norms[1]


class TestBoundedState:
    def test_serialized_size_independent_of_stream_length(self):
        cfg = make_config(weights=0.05)
        rng = np.random.default_rng(18)
        sizes = {}
        for n in (100, 3000):
            state = fresh_state(cfg, d=12, seed=19)
            for _ in range(n):
                ingest(state, random_sample(rng, 12, 2, observe_prob=0.6), cfg)
            import tempfile, os
            with tempfile.NamedTemporaryFile(delete=False) as tmp:
                path = tmp.name
            try:
                save_state(state, path)
                sizes[n] = os.path.getsize(path)
            finally:
                os.unlink(path)
        assert sizes[100] == sizes[3000]

    def test_roundtrip_and_resume(self):
        cfg = make_config(weights=0.1)
        rng = np.random.default_rng(20)
        stream = [random_sample(rng, 8, 2, observe_prob=0.7) for _ in range(60)]

        straight = fresh_state(cfg, d=8, seed=21)
        for s in stream:
            ingest(straight, s, cfg)

        resumed = fresh_state(cfg, d=8, seed=21)
        for s in stream[:30]:
            ingest(resumed, s, cfg)
        import tempfile, os
        with tempfile.NamedTemporaryFile(delete=False) as tmp:
            path = tmp.name
        try:
            save_state(resumed, path)
            resumed = load_state(path)
        finally:
            os.unlink(path)
        for s in stream[30:]:
            ingest(resumed, s, cfg)

        np.testing.assert_array_equal(straight.f, resumed.f)
        np.testing.assert_array_equal(straight.r_bar, resumed.r_bar)
        np.testing.assert_array_equal(straight.v, resumed.v)
        assert straight.t == resumed.t

    def test_load_rejects_bad_magic(self):
        import tempfile, os
        with tempfile.NamedTemporaryFile(delete=False) as tmp:
            tmp.write(b"not a checkpoint")
            path = tmp.name
        try:
            with pytest.raises(ValueError):
                load_state(path)
        finally:
            os.unlink(path)

    @pytest.mark.parametrize("edit", list(crafted_checkpoints(b"")))
    def test_load_rejects_header_that_does_not_fit_file(self, tmp_path,
                                                        monkeypatch, edit):
        state = fresh_state(make_config(), d=4)
        path = tmp_path / "state.bin"
        save_state(state, path)
        path.write_bytes(crafted_checkpoints(path.read_bytes())[edit])

        def no_arrays(*args, **kwargs):
            raise AssertionError("an array was read from a bad checkpoint")

        monkeypatch.setattr(shasta.np, "frombuffer", no_arrays)
        with pytest.raises(ValueError, match="header"):
            load_state(path)

    def test_load_rejects_non_finite_arrays(self, tmp_path):
        path = tmp_path / "state.bin"
        save_state(fresh_state(make_config(), d=4), path)
        data = bytearray(path.read_bytes())
        data[48:56] = struct.pack("<d", float("nan"))  # G[0, 0]
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="non-finite"):
            load_state(path)

    def test_load_rejects_out_of_range_values(self, tmp_path, capsys):
        # No tick writes a variance below the floor or a negative
        # accumulator, so a checkpoint holding one is refused, and state-dump
        # reports it as a JSON value error; the bounds themselves load.
        import json
        from shastapca.cli import main as cli_main
        path = tmp_path / "state.bin"
        save_state(fresh_state(make_config(), d=4), path)
        valid = path.read_bytes()
        offsets, at = {}, 48
        for name, shape in shasta._arrays(4, 2, 2):
            offsets[name], at = at, at + 8 * int(np.prod(shape))

        def patched(name, values):
            data = bytearray(valid)
            data[offsets[name]:offsets[name] + 16] = struct.pack("<2d", *values)
            path.write_bytes(bytes(data))

        for name, values in (("v", (-3.0, 0.0)),
                             ("v", (0.5, VARIANCE_FLOOR / 2)),
                             ("theta_bar", (0.0, -1.0)),
                             ("rho_bar", (-1e-300, 0.0))):
            patched(name, values)
            with pytest.raises(ValueError, match="theta_bar"):
                load_state(path)
            assert cli_main(["state-dump", str(path)]) == 1, (name, values)
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "value", err
        patched("v", (VARIANCE_FLOOR, 2.0))
        np.testing.assert_array_equal(load_state(path).v, [VARIANCE_FLOOR, 2.0])

    def test_resume_across_a_fold_is_bitwise(self, tmp_path):
        # w = c_f = 0.5 takes sigma and gamma below SCALE_FLOOR at tick 100,
        # where both are folded into the arrays.  Checkpoints written just
        # before, at and just after that tick resume to the very bytes of
        # the uninterrupted stream.
        cfg = make_config(weights=0.5, c_f=0.5)
        rng = np.random.default_rng(25)
        stream = [random_sample(rng, 8, 2, observe_prob=0.6) for _ in range(130)]
        straight = fresh_state(cfg, d=8, seed=26)
        scales = []
        for s in stream:
            ingest(straight, s, cfg)
            scales.append((straight.sigma, straight.gamma))
        fold = 1 + next(t for t, (sigma, gamma) in enumerate(scales)
                        if sigma == gamma == 1.0)
        # sigma was still at or above the floor one tick earlier.
        assert fold == 100 and 0 < scales[fold - 2][0] < shasta.SCALE_FLOOR / 0.5
        save_state(straight, tmp_path / "straight.bin")

        for cut in (fold - 1, fold, fold + 1):
            state = fresh_state(cfg, d=8, seed=26)
            for s in stream[:cut]:
                ingest(state, s, cfg)
            save_state(state, tmp_path / "cut.bin")
            state = load_state(tmp_path / "cut.bin")
            for s in stream[cut:]:
                ingest(state, s, cfg)
            save_state(state, tmp_path / "resumed.bin")
            assert ((tmp_path / "resumed.bin").read_bytes()
                    == (tmp_path / "straight.bin").read_bytes()), f"cut at {cut}"


class TestDeterministicReplay:
    def test_identical_streams_identical_trajectories(self):
        cfg = make_config(weights="1/t")
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(22)
            state = fresh_state(cfg, d=10, seed=23)
            trajectory = []
            for _ in range(50):
                ingest(state, random_sample(rng, 10, 2, observe_prob=0.5), cfg)
                trajectory.append((state.f.copy(), state.v.copy()))
            runs.append(trajectory)
        for (fa, va), (fb, vb) in zip(*runs):
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(va, vb)


class TestEstimatorFacade:
    def test_subspace_of_planted_factors(self):
        rng = np.random.default_rng(24)
        u = orthonormal(rng, 12, 3)
        f = u * np.sqrt(np.array([4.0, 2.0, 1.0]))
        est = ShastaPCA(ShastaConfig(), f, np.array([0.1]))
        basis = est.current_subspace()
        # span(basis) == span(u): cross-Gram has unit singular values.
        gram = basis.T @ u
        np.testing.assert_allclose(np.linalg.svd(gram, compute_uv=False), 1.0,
                                   atol=1e-10)
