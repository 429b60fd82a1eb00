import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shastapca.metrics import MetricTrace, subspace_error
from shastapca.model import DatasetEvaluator

from helpers import orthonormal, random_instance, read_trace


class TestSubspaceError:
    def test_identical_bases(self):
        u = orthonormal(np.random.default_rng(0), 10, 3)
        assert subspace_error(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_self_distance_is_exactly_zero(self):
        # A self-distance rounded below 0 would make MetricTrace.append
        # reject the last record of every CSV-scenario run.
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = orthonormal(rng, 200, 3)
            assert subspace_error(u, u) == 0.0

    def test_orthogonal_lines(self):
        e1 = np.eye(2)[:, :1]
        e2 = np.eye(2)[:, 1:]
        assert subspace_error(e2, e1) == pytest.approx(2.0)

    def test_matches_dense_projector_difference(self):
        rng = np.random.default_rng(1)
        u_hat = orthonormal(rng, 50, 3)
        u = orthonormal(rng, 50, 3)
        got = subspace_error(u_hat, u)
        dense = np.linalg.norm(u_hat @ u_hat.T - u @ u.T, "fro") ** 2 / 3
        assert got == pytest.approx(dense, abs=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_rotation_invariance_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(4, 30))
        k = int(rng.integers(1, min(d, 4)))
        u_hat = orthonormal(rng, d, k)
        u = orthonormal(rng, d, k)
        base = subspace_error(u_hat, u)
        rot = orthonormal(rng, k, k)
        assert subspace_error(u_hat @ rot, u) == pytest.approx(base, abs=1e-10)
        assert subspace_error(u_hat, u @ rot) == pytest.approx(base, abs=1e-10)
        assert subspace_error(u, u_hat) == pytest.approx(base, abs=1e-10)
        assert 0.0 <= base <= 2.0

    def test_rejects_non_orthonormal(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            subspace_error(rng.standard_normal((5, 2)), orthonormal(rng, 5, 2))


class TestLoglikGap:
    """The gap as the harness takes it: two values of one DatasetEvaluator."""

    def test_zero_at_reference(self):
        rng = np.random.default_rng(3)
        f, v, samples = random_instance(rng, 6, 2, 2, observe_prob=0.7, n=10)
        evaluator = DatasetEvaluator(samples, 6)
        assert evaluator(f, v) - evaluator(f, v) == 0.0

    def test_worse_parameters_negative_on_planted_data(self):
        # Wrecking the factors on a well-specified large sample drops the
        # likelihood with overwhelming probability.
        rng = np.random.default_rng(4)
        from shastapca.datagen import Epoch, ScenarioScript, run_script
        script = ScenarioScript(d=15, k=2, spectrum=(3.0, 1.0), v_star=(0.1,),
                                group_probs=(1.0,), epochs=(Epoch(samples=2000),))
        pairs = list(run_script(script, seed=5))
        samples = [s for s, _ in pairs]
        truth = pairs[0][1]
        f_star = truth.factors
        v_star = truth.v_star
        bad_f = rng.standard_normal(f_star.shape)
        evaluator = DatasetEvaluator(samples, 15)
        assert evaluator(bad_f, v_star) - evaluator(f_star, v_star) < 0

    def test_constant_convention_cancels(self):
        # The gap is a difference of same-dataset values, so any additive
        # constant in the likelihood convention cancels identically.
        rng = np.random.default_rng(6)
        f, v, samples = random_instance(rng, 5, 2, 2, observe_prob=0.6, n=8)
        f2, v2, _ = random_instance(rng, 5, 2, 2)
        evaluator = DatasetEvaluator(samples, 5)
        gap = evaluator(f, v) - evaluator(f2, v2)
        direct = (DatasetEvaluator(samples, 5)(f, v)
                  - DatasetEvaluator(samples, 5)(f2, v2))
        assert gap == direct


class TestMetricTrace:
    def test_round_trip_csv(self, tmp_path):
        trace = MetricTrace(num_groups=2)
        trace.append(100, 0.5, loglik_gap=-1.25, v_estimates=[0.01, 0.1],
                     elapsed_seconds=0.5)
        trace.append(200, 0.25, loglik_gap=None, v_estimates=None,
                     elapsed_seconds=1.0)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)

        text = path.read_text().splitlines()
        assert text[0] == "t,subspace_error,loglik_gap,v_1,v_2,elapsed_s"
        assert text[2].split(",")[2] == ""

        back = read_trace(path)
        assert back.records[0].t == 100
        assert back.records[0].loglik_gap == -1.25
        np.testing.assert_array_equal(back.records[0].v_estimates, [0.01, 0.1])
        assert back.records[1].loglik_gap is None

    def test_requires_increasing_indices(self):
        trace = MetricTrace(num_groups=1)
        trace.append(10, 0.1)
        with pytest.raises(ValueError):
            trace.append(10, 0.1)

    def test_rejects_out_of_range_error(self):
        trace = MetricTrace(num_groups=1)
        with pytest.raises(ValueError):
            trace.append(1, 2.5)
