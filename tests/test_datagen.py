import numpy as np
import pytest

from shastapca.datagen import (
    Epoch,
    PlantedModel,
    ScenarioScript,
    draw_orthonormal,
    make_rng,
    run_script,
)
from shastapca.model import ObservedSample

from helpers import draw_sample, mask_uniform, static_script


class TestDrawModel:
    def test_paper_static_shape(self):
        m = PlantedModel(u=draw_orthonormal(0, 100, 3), spectrum=[4.0, 2.0, 1.0],
                         v_star=[1e-2, 1e-1], group_counts=[500, 2000])
        assert m.d == 100 and m.k == 3
        np.testing.assert_allclose(m.factors, m.u * np.sqrt([4.0, 2.0, 1.0]))

    def test_same_seed_same_model(self):
        kw = dict(spectrum=[2.0, 1.0], v_star=[0.1], group_probs=[1.0])
        a = PlantedModel(u=draw_orthonormal(42, 20, 2), **kw)
        b = PlantedModel(u=draw_orthonormal(42, 20, 2), **kw)
        np.testing.assert_array_equal(a.u, b.u)

    def test_columns_orthonormal(self):
        m = PlantedModel(u=draw_orthonormal(7, 50, 4), spectrum=[4, 3, 2, 1],
                         v_star=[1.0], group_probs=[1.0])
        np.testing.assert_allclose(m.u.T @ m.u, np.eye(4), atol=1e-12)

    def test_rejects_rank_above_dimension(self):
        # No d x k basis with k > d has orthonormal columns.
        with pytest.raises(ValueError):
            PlantedModel(u=np.eye(2, 3), spectrum=[3, 2, 1], v_star=[1.0],
                         group_probs=[1.0])

    def test_rejects_ascending_spectrum(self):
        with pytest.raises(ValueError):
            PlantedModel(u=np.eye(3)[:, :2], spectrum=[1.0, 2.0],
                         v_star=[0.1], group_probs=[1.0])


class TestDrawSample:
    def test_zero_factors_pure_noise(self):
        rng = make_rng(1)
        # The spectrum must stay positive, so stand in for F = 0 with a
        # negligible one; draws are then noise to within sampling error.
        m = PlantedModel(u=np.eye(4)[:, :1], spectrum=[1e-12], v_star=[0.5],
                         group_probs=[1.0])
        draws = np.array([draw_sample(m, rng).values for _ in range(20_000)])
        np.testing.assert_allclose(draws.var(axis=0), 0.5, rtol=0.05)

    def test_sample_covariance_matches_low_rank_part(self):
        rng = make_rng(2)
        m = PlantedModel(u=draw_orthonormal(3, 8, 2), spectrum=[3.0, 1.0],
                         v_star=[1e-6], group_probs=[1.0])
        n = 100_000
        draws = np.array([draw_sample(m, rng).values for _ in range(n)])
        cov = draws.T @ draws / n
        target = m.factors @ m.factors.T
        gap = np.linalg.norm(cov - target, 2) / np.linalg.norm(target, 2)
        assert gap < 0.05

    def test_exact_group_counts_in_static_script(self):
        script = static_script(d=10, k=2, spectrum=[2.0, 1.0],
                               v_star=[1e-2, 1e-1], group_counts=[500, 2000])
        labels = [s.group for s, _ in run_script(script, seed=0)]
        assert labels.count(0) == 500 and labels.count(1) == 2000
        # Counts are exact but the order is shuffled.
        assert labels[:500] != [0] * 500


class TestMaskUniform:
    def test_p_one_identity(self):
        s = ObservedSample.full([1.0, 2.0, 3.0], 0)
        assert mask_uniform(s, 1.0, make_rng(0)) is s

    def test_binomial_mean_coverage(self):
        rng = make_rng(4)
        d, n, p = 100, 10_000, 0.5
        base = ObservedSample.full(np.zeros(d), 0)
        sizes = [mask_uniform(base, p, rng).nobs for _ in range(n)]
        # 3-sigma binomial window around d*p for the mean of n draws.
        sigma = np.sqrt(d * p * (1 - p) / n)
        assert abs(np.mean(sizes) - 50.0) <= 3 * sigma

    def test_values_track_kept_indices(self):
        rng = make_rng(5)
        base = ObservedSample.full(np.arange(10, dtype=float), 0)
        masked = mask_uniform(base, 0.4, rng)
        np.testing.assert_array_equal(masked.values, masked.omega.astype(float))

    def test_rejects_p_zero(self):
        with pytest.raises(ValueError):
            mask_uniform(ObservedSample.full([1.0], 0), 0.0, make_rng(0))


class TestRunScript:
    def dynamic_script(self):
        # 4 epochs of 500, subspace redrawn at each boundary, half observed.
        return ScenarioScript(
            d=20, k=2, spectrum=(2.0, 1.0), v_star=(1e-4, 1e-2),
            observe_prob=0.5, group_probs=(0.2, 0.8),
            epochs=tuple(Epoch(samples=500, redraw_subspace=(i > 0))
                         for i in range(4)),
        )

    def test_subspace_jumps_at_epoch_boundaries(self):
        bases = []
        for i, (_, truth) in enumerate(run_script(self.dynamic_script(), seed=8)):
            if i % 500 == 0:
                bases.append(truth.u)
        assert len(bases) == 4
        for a, b in zip(bases, bases[1:]):
            assert np.linalg.norm(a - b) > 1e-3

    def test_spectrum_fixed_across_jumps(self):
        spectra = {tuple(truth.spectrum)
                   for _, truth in run_script(self.dynamic_script(), seed=9)}
        assert spectra == {(2.0, 1.0)}

    def test_variance_doubling_script(self):
        script = ScenarioScript(
            d=10, k=1, spectrum=(2.0,), v_star=(1e-4, 1e-2),
            group_probs=(0.5, 0.5),
            epochs=(Epoch(samples=100),
                    Epoch(samples=100, scale_variance=(0, 2.0)),
                    Epoch(samples=100, scale_variance=(0, 2.0))),
        )
        v1 = [truth.v_star[0] for _, truth in run_script(script, seed=10)]
        assert v1[0] == 1e-4 and v1[150] == 2e-4 and v1[-1] == 4e-4
        v2 = {truth.v_star[1] for _, truth in run_script(script, seed=10)}
        assert v2 == {1e-2}

    def test_single_epoch_reduces_to_iid(self):
        script = ScenarioScript(
            d=6, k=1, spectrum=(1.0,), v_star=(0.1,), group_probs=(1.0,),
            epochs=(Epoch(samples=50),),
        )
        pairs = list(run_script(script, seed=11))
        assert len(pairs) == 50
        assert all(truth is pairs[0][1] for _, truth in pairs)

    def test_identical_seeds_identical_streams(self):
        script = self.dynamic_script()
        a = [(s.omega.tolist(), s.values.tolist(), s.group)
             for s, _ in run_script(script, seed=12)]
        b = [(s.omega.tolist(), s.values.tolist(), s.group)
             for s, _ in run_script(script, seed=12)]
        assert a == b

    def test_residual_variance_off_subspace(self):
        # Energy orthogonal to the planted basis matches the group variance.
        script = ScenarioScript(
            d=30, k=2, spectrum=(4.0, 2.0), v_star=(0.25,), group_probs=(1.0,),
            epochs=(Epoch(samples=4000),),
        )
        total = 0.0
        count = 0
        for s, truth in run_script(script, seed=13):
            resid = s.values - truth.u @ (truth.u.T @ s.values)
            total += resid @ resid
            count += s.nobs - truth.k
        assert total / count == pytest.approx(0.25, rel=0.1)
