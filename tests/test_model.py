import importlib
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shastapca

from shastapca import model
from shastapca.model import (
    DatasetEvaluator,
    ObservedSample,
    VARIANCE_FLOOR,
    ZERO_EIGENVALUE,
    _gram_spectrum,
    floor_variances,
    least_squares,
    observed_parts,
    posterior_stats,
    solve_rows,
)

from helpers import (
    DEGENERATE,
    conditioned_posterior,
    degenerate,
    dense_sample_loglik,
    minorizer_value,
    quad_rounding,
    random_instance,
    random_sample,
    sample_log_likelihood,
)


class TestObservedSample:
    def test_rejects_unsorted_omega(self):
        with pytest.raises(ValueError):
            ObservedSample(np.array([3, 1]), np.array([0.0, 1.0]), 0)

    def test_rejects_duplicate_omega(self):
        with pytest.raises(ValueError):
            ObservedSample(np.array([1, 1]), np.array([0.0, 1.0]), 0)

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            ObservedSample(np.array([0]), np.array([np.nan]), 0)

    def test_group_label_must_be_an_integer(self):
        # 1.5 used to be accepted, and "1" failed only at its comparison.
        for group in (1.5, "1"):
            with pytest.raises(ValueError, match="group label must be an integer"):
                ObservedSample(np.array([0, 1]), np.array([1.0, 2.0]), group)
        s = ObservedSample(np.array([0, 1]), np.array([1.0, 2.0]), np.int64(1))
        assert s.group == 1 and type(s.group) is int

    def test_empty_sample_is_legal(self):
        s = ObservedSample(np.array([], dtype=int), np.array([]), 1)
        assert s.nobs == 0

    def test_full_constructor(self):
        s = ObservedSample.full([1.0, 2.0, 3.0], 0)
        assert np.array_equal(s.omega, [0, 1, 2])

    def test_equal_by_value(self):
        a = ObservedSample(np.array([0, 2]), np.array([1.0, 2.0]), 0)
        b = ObservedSample(np.array([0, 2]), np.array([1.0, 2.0]), 0)
        assert a == b and not a != b
        assert a != ObservedSample(np.array([0, 2]), np.array([1.0, 2.0]), 1)
        assert a != ObservedSample(np.array([0, 1]), np.array([1.0, 2.0]), 0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    def test_one_differing_value_makes_unequal(self):
        a = ObservedSample(np.array([0, 2]), np.array([1.0, 2.0]), 0)
        assert a != ObservedSample(np.array([0, 2]), np.array([1.0, 2.5]), 0)
        assert a != ObservedSample(np.array([0]), np.array([1.0]), 0)

    def test_membership_in_a_list(self):
        samples = [ObservedSample.full([1.0, 2.0], 0),
                   ObservedSample(np.array([0, 2]), np.array([1.0, 2.0]), 1)]
        assert ObservedSample(np.array([0, 2]), np.array([1.0, 2.0]), 1) in samples
        assert ObservedSample(np.array([0, 2]), np.array([1.0, 2.0]), 0) not in samples

    def test_unchecked_constructor_allocates_no_more_than_the_public_one(self):
        # The unchecked constructor builds every sample of a stream; it
        # must not give each one a dict of its own (248 bytes a sample
        # against 105).  The arrays are shared, so only the objects count.
        omega, values = np.array([1, 4, 6]), np.array([0.5, -1.0, 2.0])
        n = 10_000

        def bytes_per_sample(build):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                samples = [build(omega, values, 2) for _ in range(n)]
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert all(s == samples[0] for s in samples)
            return grown / n, samples[0]

        public, want = bytes_per_sample(ObservedSample)
        unchecked, got = bytes_per_sample(ObservedSample._checked)
        assert got == want and got.omega is omega and got.values is values
        assert unchecked <= public + 16, (unchecked, public)


class TestPosteriorStats:
    def test_zero_factors(self):
        # F = 0 forces M = (1/v) I and zbar = 0.
        f = np.zeros((4, 2))
        v = np.array([2.0])
        s = ObservedSample(np.array([0, 2]), np.array([1.0, -1.0]), 0)
        stats = posterior_stats(f, v, s)
        np.testing.assert_allclose(stats.m, 0.5 * np.eye(2))
        np.testing.assert_allclose(stats.zbar, 0.0)

    def test_empty_omega(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((5, 2))
        v = np.array([0.7])
        s = ObservedSample(np.array([], dtype=int), np.array([]), 0)
        stats = posterior_stats(f, v, s)
        np.testing.assert_allclose(stats.m, np.eye(2) / 0.7)
        np.testing.assert_allclose(stats.zbar, 0.0)

    def test_matches_joint_gaussian_conditioning(self):
        # d=5, k=2, 3 observed entries; oracle conditions the dense joint.
        # The DEGENERATE cases after "as_drawn" remake the instance into
        # inputs a k x k solve finds hard.
        rng = np.random.default_rng(7)
        f0 = rng.standard_normal((5, 2))
        v0 = np.array([0.3])
        s0 = ObservedSample(np.array([0, 2, 4]), rng.standard_normal(3), 0)
        for case in DEGENERATE:
            f, v, (s,) = degenerate(rng, case, f0, v0, [s0])
            stats = posterior_stats(f, v, s)
            mean, cov = conditioned_posterior(f, v, s)
            np.testing.assert_allclose(stats.zbar, mean, atol=1e-10, err_msg=case)
            np.testing.assert_allclose(v[0] * stats.m, cov, atol=1e-10,
                                       err_msg=case)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_conditioning_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(d, 3) + 1))
        f, v, (s,) = random_instance(rng, d, k, num_groups=2, observe_prob=0.7)
        stats = posterior_stats(f, v, s)
        mean, cov = conditioned_posterior(f, v, s)
        np.testing.assert_allclose(stats.zbar, mean, atol=1e-10)
        np.testing.assert_allclose(v[s.group] * stats.m, cov, atol=1e-10)
        # SPD to working precision
        np.testing.assert_allclose(stats.m, stats.m.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(stats.m) > 0)

    def test_scalar_vg_matches_stacked_form_bitwise(self):
        # A float v_g takes the single-sample forms of mean, posterior and
        # fit_trace; a 0-d array takes the stacked ones.  Both must give
        # the same bits, across the DEGENERATE inputs and at the floor.
        rng = np.random.default_rng(9)
        f0 = rng.standard_normal((8, 3))
        v0 = np.array([0.3])
        s0 = ObservedSample(np.array([0, 2, 4, 5, 7]), rng.standard_normal(5), 0)
        for case in DEGENERATE:
            f, v, (s,) = degenerate(rng, case, f0, v0, [s0])
            parts = observed_parts(f[s.omega], s.values)
            for vg in (float(v[0]), VARIANCE_FLOOR, 7.5):
                one, stacked = parts.posterior(vg), parts.posterior(np.asarray(vg))
                assert one.m.tobytes() == stacked.m.tobytes(), case
                assert one.zbar.tobytes() == stacked.zbar.tobytes(), case
                assert (parts.mean(vg).tobytes()
                        == parts.mean(np.asarray(vg)).tobytes()), case
                assert (parts.fit_trace(vg).tobytes()
                        == parts.fit_trace(np.asarray(vg)).tobytes()), case

    def test_reads_only_observed_rows(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((6, 2))
        v = np.array([0.4])
        s = ObservedSample(np.array([1, 4]), rng.standard_normal(2), 0)
        clean = posterior_stats(f, v, s)
        f[0, 1] = np.nan
        f[5, 0] = np.inf
        stats = posterior_stats(f, v, s)
        np.testing.assert_array_equal(stats.m, clean.m)
        np.testing.assert_array_equal(stats.zbar, clean.zbar)
        f[4, 0] = np.inf
        with pytest.raises(ValueError):
            posterior_stats(f, v, s)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("observe_prob", [0.0, 0.6])
    def test_matches_dense_covariance_oracle(self, k, observe_prob):
        # observe_prob = 0 gives an empty omega: m = I / v_g, zbar = 0.
        rng = np.random.default_rng(k)
        f = rng.standard_normal((9, k))
        v = np.array([0.3, 1.2])
        s = random_sample(rng, 9, 2, observe_prob)
        stats = posterior_stats(f, v, s)
        mean, cov = conditioned_posterior(f, v, s)
        np.testing.assert_allclose(stats.zbar, mean, atol=1e-10)
        np.testing.assert_allclose(v[s.group] * stats.m, cov, atol=1e-10)


class TestSolveRows:
    def test_regular_systems_use_one_batched_solve(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 3, 3))
        r = a @ np.transpose(a, (0, 2, 1)) + 0.1 * np.eye(3)
        s = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(solve_rows(r, s),
                                      np.linalg.solve(r, s[..., None])[..., 0])

    def test_singular_system_falls_back_to_least_squares(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 3, 3))
        r = a @ np.transpose(a, (0, 2, 1)) + 0.1 * np.eye(3)
        r[2] = np.diag([2.0, 1.0, 0.0])  # exactly singular
        s = rng.standard_normal((4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_rows(r, s)
        expected = [np.linalg.lstsq(rj, sj, rcond=None)[0]
                    for rj, sj in zip(r, s)]
        np.testing.assert_array_equal(x, np.stack(expected))
        # The singular row gets the minimum-norm solution.
        np.testing.assert_allclose(x[2], [s[2, 0] / 2.0, s[2, 1], 0.0])
        assert np.isfinite(x).all()


class TestLapackKernels:
    """The E-step, the row solve and the baselines' least squares call
    numpy.linalg's LAPACK gufuncs directly; these pin them, bit for bit,
    to the public functions that wrap the same kernels."""

    @pytest.mark.parametrize("shape", [(3, 3), (7, 3, 3), (5, 1, 1)])
    def test_gram_spectrum_is_eigh(self, shape):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(shape[:-1] + (40,))
        gram = a @ np.swapaxes(a, -1, -2)
        evals, evecs = _gram_spectrum(gram)
        want_evals, want_evecs = np.linalg.eigh(gram)
        np.testing.assert_array_equal(evals, want_evals)
        np.testing.assert_array_equal(evecs, want_evecs)

    def test_gram_spectrum_cuts_eigh_at_the_zero_level(self):
        fo = np.random.default_rng(22).standard_normal((10, 2))
        fo = np.hstack([fo, fo[:, :1] + fo[:, 1:]])  # rank 2
        gram = fo.T @ fo
        evals, evecs = _gram_spectrum(gram)
        want_evals, want_evecs = np.linalg.eigh(gram)
        cut = want_evals <= 3 * ZERO_EIGENVALUE * want_evals[-1]
        assert cut.tolist() == [True, False, False]
        want_evals[cut] = 0.0
        np.testing.assert_array_equal(evals, want_evals)
        np.testing.assert_array_equal(evecs, want_evecs)

    @pytest.mark.parametrize("m, n", [(100, 3), (3, 3), (2, 3)])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_least_squares_is_lstsq(self, m, n, rank_deficient):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((m, n))
        if rank_deficient:
            a[:, -1] = a[:, 0]
        b = rng.standard_normal(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = least_squares(a, b)
        np.testing.assert_array_equal(x, np.linalg.lstsq(a, b, rcond=None)[0])

    def test_least_squares_cuts_singular_values_where_lstsq_does(self):
        # A singular value of 30 eps (relative) lies between eps min(m, n)
        # and lstsq's default cut-off eps max(m, n), so it tells them apart.
        rng = np.random.default_rng(25)
        u = np.linalg.qr(rng.standard_normal((100, 3)))[0]
        eps = np.finfo(np.float64).eps
        a = (u * [1.0, 0.5, 30 * eps]) @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
        b = rng.standard_normal(100)
        x = least_squares(a, b)
        np.testing.assert_array_equal(x, np.linalg.lstsq(a, b, rcond=None)[0])
        assert not np.allclose(x, np.linalg.lstsq(a, b, rcond=3 * eps)[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_least_squares_raises_where_lstsq_does(self, bad):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((20, 3))
        a[4, 1] = bad
        b = rng.standard_normal(20)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(a, b, rcond=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                least_squares(a, b)


class TestSampleLogLikelihood:
    def test_zero_factors_zero_data(self):
        f = np.zeros((3, 2))
        s = ObservedSample(np.array([0, 1, 2]), np.zeros(3), 0)
        assert sample_log_likelihood(f, np.array([1.0]), s) == pytest.approx(0.0)

    def test_zero_factors_single_entry(self):
        # ln det(I)^-1 - 2*2/1 = -4
        f = np.zeros((3, 1))
        s = ObservedSample(np.array([1]), np.array([2.0]), 0)
        assert sample_log_likelihood(f, np.array([1.0]), s) == pytest.approx(-4.0)

    def test_empty_omega_contributes_zero(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((6, 2))
        s = ObservedSample(np.array([], dtype=int), np.array([]), 0)
        assert sample_log_likelihood(f, np.array([0.4]), s) == 0.0

    def test_matches_dense_oracle_small(self):
        # One instance, and its DEGENERATE remakes.
        rng = np.random.default_rng(11)
        f0 = rng.standard_normal((6, 2))
        v0 = np.array([0.8])
        s0 = ObservedSample(np.array([0, 2, 3, 5]), rng.standard_normal(4), 0)
        for case in DEGENERATE:
            f, v, (s,) = degenerate(rng, case, f0, v0, [s0])
            got = sample_log_likelihood(f, v, s)
            want = dense_sample_loglik(f, v, s)
            assert np.isfinite(got), case
            assert got == pytest.approx(want, rel=1e-8,
                                        abs=quad_rounding(v, s)), case

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_woodbury_consistency(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, 4))
        f, v, (s,) = random_instance(rng, d, k, num_groups=2, observe_prob=0.6)
        got = sample_log_likelihood(f, v, s)
        want = dense_sample_loglik(f, v, s)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_restriction_consistency(self):
        # omega = {0..d-1} must equal the unrestricted computation.
        rng = np.random.default_rng(5)
        d, k = 7, 3
        f = rng.standard_normal((d, k))
        v = np.array([0.5, 1.5])
        y = rng.standard_normal(d)
        full = ObservedSample.full(y, 1)
        sigma = f @ f.T + v[1] * np.eye(d)
        sign, logdet = np.linalg.slogdet(sigma)
        want = -logdet - y @ np.linalg.solve(sigma, y)
        assert sample_log_likelihood(f, v, full) == pytest.approx(want, rel=1e-10)


def eigh_terms(ev, f, v):
    """Every sample's likelihood term from the eigendecomposition
    (`DatasetEvaluator.parts`): the reference for the evaluator's
    Cholesky."""
    vg = floor_variances(v)[ev.groups]
    return ev.parts(f).log_likelihood(vg, ev.nobs, ev.ysq)


class TestDatasetLogLikelihood:
    def test_empty_dataset(self):
        assert DatasetEvaluator([], 3)(np.zeros((3, 1)), np.array([1.0])) == 0.0

    def test_single_sample_is_half(self):
        rng = np.random.default_rng(2)
        f, v, (s,) = random_instance(rng, 5, 2, 1, observe_prob=0.8)
        want = 0.5 * sample_log_likelihood(f, v, s)
        assert DatasetEvaluator([s], 5)(f, v) == pytest.approx(want, rel=1e-12)

    def test_two_identical_samples_double(self):
        rng = np.random.default_rng(4)
        f, v, (s,) = random_instance(rng, 5, 2, 1, observe_prob=0.8)
        one = DatasetEvaluator([s], 5)(f, v)
        two = DatasetEvaluator([s, s], 5)(f, v)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_evaluator_matches_scalar_loop(self):
        # One dataset, and its DEGENERATE remakes.
        rng = np.random.default_rng(9)
        f0, v0, samples0 = random_instance(rng, 8, 3, 2, observe_prob=0.5, n=20)
        for case in DEGENERATE:
            f, v, samples = degenerate(rng, case, f0, v0, samples0)
            ev = DatasetEvaluator(samples, d=8)
            want = 0.5 * sum(sample_log_likelihood(f, v, s) for s in samples)
            rounding = 0.5 * sum(quad_rounding(v, s) for s in samples)
            assert ev(f, v) == pytest.approx(want, rel=1e-10, abs=rounding), case

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_evaluator_matches_eigh_oracle(self, seed):
        # The batched Cholesky against each sample's eigendecomposition; the
        # terms' signs differ, so the tolerance scales with their magnitudes.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 12))
        k = int(rng.integers(1, 4))
        f, v, samples = random_instance(rng, d, k, num_groups=2,
                                        observe_prob=0.6,
                                        n=int(rng.integers(1, 20)))
        terms = [0.5 * sample_log_likelihood(f, v, s) for s in samples]
        scale = sum(abs(term) for term in terms)
        assert DatasetEvaluator(samples, d)(f, v) == pytest.approx(
            sum(terms), rel=1e-12, abs=1e-12 * scale)

    def test_guarded_and_failed_samples_take_the_eigendecomposition(
            self, monkeypatch):
        # Each sample whose v_g is under CHOLESKY_GUARD times its Gram's
        # trace, or whose Cholesky fails, takes the eigendecomposition: one
        # `_gram_spectrum` call over those samples only, whose terms are
        # `ObservedParts.log_likelihood`'s, bit for bit.
        spectra = []
        spectrum = model._gram_spectrum

        def counted(grams):
            spectra.append(len(grams))
            return spectrum(grams)

        monkeypatch.setattr(model, "_gram_spectrum", counted)
        rng = np.random.default_rng(9)
        f0, v0, samples0 = random_instance(rng, 8, 3, 2, observe_prob=0.5, n=20)
        for case in ("floor_variance", "scaled_1e6"):
            f, v, samples = degenerate(rng, case, f0, v0, samples0)
            ev = DatasetEvaluator(samples, d=8)
            spectra.clear()
            got = ev(f, v)
            assert spectra == [np.count_nonzero(ev.nobs)], case
            assert got == 0.5 * np.sum(eigh_terms(ev, f, v)), case

        # F_o' F_o = 2^40 [[1, 1], [1, 1]]: v_g at the floor is lost in the
        # sum, and Cholesky's second pivot is exactly 0.  With the guard off,
        # only the failure sends the sample to the eigendecomposition.
        monkeypatch.setattr(model, "CHOLESKY_GUARD", 0.0)
        f = np.array([[1.0, 0.5], [2.0 ** 20, 2.0 ** 20], [0.3, 2.0]])
        v = np.array([VARIANCE_FLOOR])
        failed = ObservedSample(np.array([1]), np.array([0.5]), 0)
        good = ObservedSample(np.array([0, 2]), np.array([1.0, -1.0]), 0)
        gram = f[failed.omega].T @ f[failed.omega] + VARIANCE_FLOOR * np.eye(2)
        assert np.isnan(model._cholesky(gram)).all()
        spectra.clear()
        assert np.isfinite(DatasetEvaluator([good, failed, good], 3)(f, v))
        assert spectra == [1]
        ev = DatasetEvaluator([failed], 3)
        assert ev(f, v) == 0.5 * np.sum(eigh_terms(ev, f, v))

    def test_lone_empty_sample_is_exactly_zero(self):
        # 2 ln sqrt(v) is not ln v in floating point; the term is set to 0.
        empty = ObservedSample(np.array([], dtype=int), np.array([]), 0)
        rng = np.random.default_rng(12)
        for k in (1, 2, 3, 4):
            f = rng.standard_normal((5, k))
            for vg in (VARIANCE_FLOOR, 0.3, 0.7, 7.0):
                assert DatasetEvaluator([empty], 5)(f, np.array([vg])) == 0.0

    def test_evaluator_handles_empty_samples(self):
        rng = np.random.default_rng(10)
        f, v, samples = random_instance(rng, 6, 2, 2, observe_prob=0.5, n=5)
        empty = ObservedSample(np.array([], dtype=int), np.array([]), 0)
        with_empty = DatasetEvaluator(samples + [empty], 6)(f, v)
        without = DatasetEvaluator(samples, 6)(f, v)
        assert with_empty == pytest.approx(without, rel=1e-12)


class TestMinorizer:
    def test_vanishes_at_trivial_anchor(self):
        # (F, v) = anchor, F = 0, y = 0, v_g = 1: every term is zero.
        f = np.zeros((4, 2))
        v = np.array([1.0])
        s = ObservedSample(np.array([1, 3]), np.zeros(2), 0)
        assert minorizer_value(f, v, f, v, s) == pytest.approx(0.0)

    def test_zero_factors_reduce_to_variance_terms(self):
        rng = np.random.default_rng(6)
        d, k = 5, 2
        anchor_f = rng.standard_normal((d, k))
        anchor_v = np.array([0.9])
        v = np.array([0.4])
        s = random_sample(rng, d, 1, observe_prob=0.8)
        got = minorizer_value(np.zeros((d, k)), v, anchor_f, anchor_v, s)
        want = -0.5 * s.nobs * np.log(v[0]) - (s.values @ s.values) / (2 * v[0])
        assert got == pytest.approx(want, rel=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_minorizes_log_likelihood(self, seed):
        # 2*Psi + c <= L_i at random test points, equality at the anchor,
        # with c fixed by matching the two at the anchor.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        anchor_f, anchor_v, (s,) = random_instance(rng, d, k, 2, observe_prob=0.7)
        c = sample_log_likelihood(anchor_f, anchor_v, s) - 2 * minorizer_value(
            anchor_f, anchor_v, anchor_f, anchor_v, s)
        for _ in range(100):
            f = rng.standard_normal((d, k))
            v = rng.uniform(0.05, 3.0, size=2)
            lhs = 2 * minorizer_value(f, v, anchor_f, anchor_v, s) + c
            rhs = sample_log_likelihood(f, v, s)
            assert lhs <= rhs + 1e-8


# Names the package once exported and no longer defines anywhere.
REMOVED = ("StreamingEstimator", "dataset_log_likelihood", "draw_model",
           "draw_sample", "loglik_gap", "mask_uniform", "minorizer_value",
           "sample_log_likelihood", "static_script", "variance_error")


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from shastapca import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(shastapca.__all__)
    modules = [importlib.import_module(f"shastapca.{info.name}")
               for info in pkgutil.iter_modules(shastapca.__path__)]
    for name in REMOVED:
        for module in [shastapca] + modules:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(shastapca.MetricTrace, "read_csv")


def test_package_imports_without_scipy():
    # The model needs only numpy: importing the package and its CLI in a
    # fresh interpreter must load no scipy module.
    code = ("import sys, shastapca, shastapca.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(shastapca.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
