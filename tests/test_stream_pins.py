"""Pins of the synthetic stream and of the streaming tick against oracles
written from the plain definitions.

The stream must match its oracle bit for bit: the package's shortcuts
(cached model factors and group distribution, samples built unchecked)
change no result.  The tick
keeps its state in lazy form (scaled row systems and factor offsets, folded
in only before the scales underflow) and must match the eager tick of
`helpers.EagerShasta` to a relative 1e-12 at every checkpoint, across folds.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from shastapca.datagen import (
    Epoch,
    PlantedModel,
    ScenarioScript,
    draw_group,
    draw_orthonormal,
    make_rng,
    run_script,
)
from shastapca import shasta
from shastapca.model import ObservedSample
from shastapca.shasta import MEMORYLESS_SINGLE, ShastaConfig, ingest, init_state

from helpers import EagerShasta, draw_sample, mask_uniform, relative_gap


def oracle_script(script: ScenarioScript, seed):
    """run_script's stream, with each group label drawn by rng.choice."""
    rng = make_rng(seed)
    model = PlantedModel(u=draw_orthonormal(rng, script.d, script.k),
                         spectrum=np.asarray(script.spectrum),
                         v_star=np.asarray(script.v_star),
                         group_probs=script.group_probs,
                         group_counts=script.group_counts)
    labels = None
    if script.group_counts is not None:
        labels = np.repeat(np.arange(len(script.group_counts)), script.group_counts)
        rng.shuffle(labels)
    position = 0
    for epoch in script.epochs:
        if epoch.redraw_subspace:
            model = dataclasses.replace(model, u=draw_orthonormal(rng, script.d, script.k))
        if epoch.scale_variance is not None:
            group, factor = epoch.scale_variance
            v_new = model.v_star.copy()
            v_new[group] *= factor
            model = dataclasses.replace(model, v_star=v_new)
        p = script.observe_prob if epoch.observe_prob is None else epoch.observe_prob
        for _ in range(epoch.samples):
            if labels is None:
                group = int(rng.choice(model.num_groups, p=model.group_probs))
            else:
                group = int(labels[position])
            sample = draw_sample(model, rng, group=group)
            yield mask_uniform(sample, p, rng), model
            position += 1


EPOCHS = (Epoch(samples=150),
          Epoch(samples=150, redraw_subspace=True, observe_prob=0.3),
          Epoch(samples=150, scale_variance=(1, 4.0), observe_prob=1.0),
          Epoch(samples=150, redraw_subspace=True, scale_variance=(0, 0.5)))


# The last case has stream_wide's shape: wide, and about 1% observed.
@pytest.mark.parametrize("d,observe_prob,law", [
    (15, 1.0, "probs"), (15, 1.0, "counts"), (15, 0.6, "probs"),
    (15, 0.6, "counts"), (2000, 0.01, "probs")],
    ids=["1.0-probs", "1.0-counts", "0.6-probs", "0.6-counts", "wide-0.01-probs"])
def test_run_script_matches_choice_oracle(d, observe_prob, law):
    script = ScenarioScript(
        d=d, k=3, spectrum=(4.0, 2.0, 1.0), v_star=(0.01, 0.1, 1.0),
        epochs=EPOCHS, observe_prob=observe_prob,
        group_probs=(0.2, 0.5, 0.3) if law == "probs" else None,
        group_counts=(100, 300, 200) if law == "counts" else None)
    seed = np.random.SeedSequence((7, 0))
    got = list(run_script(script, seed))
    want = list(oracle_script(script, seed))
    assert len(got) == len(want) == script.total_samples
    for (s, truth), (s_ref, truth_ref) in zip(got, want):
        assert s.group == s_ref.group
        np.testing.assert_array_equal(s.omega, s_ref.omega)
        assert s.values.tobytes() == s_ref.values.tobytes()
        assert truth.u.tobytes() == truth_ref.u.tobytes()
        assert truth.v_star.tobytes() == truth_ref.v_star.tobytes()
        assert truth.factors.tobytes() == (truth.u * np.sqrt(truth.spectrum)).tobytes()
        # The draw skips ObservedSample's checks; its samples pass them.
        assert s.omega.dtype == np.intp and s.values.dtype == np.float64
        assert s == ObservedSample(s.omega, s.values, s.group)


@pytest.mark.parametrize("probs", [(0.2, 0.5, 0.3), (0.1, 0.0, 0.6, 0.3),
                                   (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 1.0)])
def test_draw_group_matches_rng_choice(probs):
    model = PlantedModel(u=draw_orthonormal(0, 6, 2), spectrum=[2.0, 1.0],
                         v_star=[1.0] * len(probs), group_probs=probs)
    rng, ref = make_rng(11), make_rng(11)
    got = [draw_group(model.group_cdf, rng) for _ in range(10_000)]
    want = [int(ref.choice(len(probs), p=model.group_probs)) for _ in range(10_000)]
    assert got == want
    assert rng.random() == ref.random()  # the same draws were consumed


# Fixed before measuring: the lazy tick reorders the eager tick's arithmetic
# (scales folded in later, an eigendecomposition in place of two inverses),
# so it may differ in the last bits, never by more than this share of each
# array's largest entry.
RTOL = 1e-12


def assert_matches_oracle(state, ref, where):
    for name in ("f", "v", "r_bar", "s_bar", "fhat", "theta_bar", "rho_bar"):
        gap = relative_gap(getattr(state, name), getattr(ref, name))
        assert gap <= RTOL, f"{name} differs by {gap:.2e} at {where}"
    assert state.t == ref.t


def mixed_stream(rng, d, num_groups, ticks):
    """Samples observing about half the coordinates, every 50th one empty."""
    for t in range(1, ticks + 1):
        if t % 50 == 0:
            yield ObservedSample(np.array([], dtype=np.intp), np.array([]),
                                 t % num_groups)
        else:
            omega = np.flatnonzero(rng.random(d) < 0.5)
            yield ObservedSample(omega, 3.0 * rng.standard_normal(omega.size),
                                 int(rng.integers(num_groups)))


@pytest.mark.parametrize("mode,weights", [
    ("grouped", 0.05), ("grouped", "1/t"), ("grouped", "0.5/sqrt(t)"),
    (MEMORYLESS_SINGLE, 0.05), (MEMORYLESS_SINGLE, "1/t"),
    (MEMORYLESS_SINGLE, "0.5/sqrt(t)"),
])
def test_ingest_matches_two_posterior_oracle(mode, weights):
    d, k = 16, 3
    num_groups = 1 if mode == MEMORYLESS_SINGLE else 3
    cfg = ShastaConfig(weights=weights, c_f=0.2, c_v=0.3, delta=0.1,
                       variance_mode=mode)
    rng = np.random.default_rng(5)
    f0 = rng.standard_normal((d, k)) / np.sqrt(d)
    v0 = rng.uniform(0.1, 1.0, size=num_groups)
    state, ref = init_state(cfg, f0, v0), EagerShasta(cfg, f0, v0)
    for t, sample in enumerate(mixed_stream(rng, d, num_groups, 2100), start=1):
        ingest(state, sample, cfg)
        ref.ingest(sample)
        if t % 700 == 0:
            assert_matches_oracle(state, ref, f"t={t}")


@pytest.mark.parametrize("c_f", [0.01, 0.5, 1.0])
@pytest.mark.parametrize("weights", ["1/t", 0.01, 1.0, "0.5/sqrt(t)"])
def test_lazy_scales_fold_without_changing_the_trajectory(monkeypatch, weights,
                                                          c_f):
    # With the floor raised to 1e-3 every stream below folds sigma and gamma
    # into the arrays at least twice within 1,500 ticks (or, for w = 1 and
    # c_f = 1, resets them on every tick); the real floor is crossed in
    # tests/test_shasta.py.
    monkeypatch.setattr(shasta, "SCALE_FLOOR", 1e-3)
    d, k, num_groups = 12, 3, 2
    cfg = ShastaConfig(weights=weights, c_f=c_f, c_v=0.3, delta=0.1)
    rng = np.random.default_rng(8)
    f0 = rng.standard_normal((d, k)) / np.sqrt(d)
    v0 = rng.uniform(0.1, 1.0, size=num_groups)
    state, ref = init_state(cfg, f0, v0), EagerShasta(cfg, f0, v0)
    folds = {"sigma": 0, "gamma": 0}
    for t, sample in enumerate(mixed_stream(rng, d, num_groups, 1500), start=1):
        ingest(state, sample, cfg)
        ref.ingest(sample)
        for scale in folds:
            folds[scale] += getattr(state, scale) == 1.0
        if t % 250 == 0:
            assert_matches_oracle(state, ref, f"t={t}")
    assert min(folds.values()) >= 2, folds


def test_large_sample_near_the_floor_is_accepted_as_by_the_eager_tick():
    # The stored systems are the eager ones divided by sigma, so a tick that
    # leaves sigma just above SCALE_FLOOR scales its update by up to
    # 1/SCALE_FLOOR.  c_v = 1e-200 keeps v_g near 0.5 however large the
    # sample, so values of 1e80 add about 1e160 to the eager systems: well
    # inside float64, and inside it still after that scaling.
    d, k = 8, 2
    cfg = ShastaConfig(weights=0.5, c_f=0.5, c_v=1e-200, delta=0.1)
    rng = np.random.default_rng(12)
    f0 = rng.standard_normal((d, k)) / np.sqrt(d)
    v0 = np.array([0.5])
    state, ref = init_state(cfg, f0, v0), EagerShasta(cfg, f0, v0)

    def both(sample):
        ingest(state, sample, cfg)
        ref.ingest(sample)

    # Stop where the next tick takes sigma to within a factor 2 of the floor.
    while state.sigma * 0.25 >= shasta.SCALE_FLOOR:
        both(ObservedSample.full(rng.standard_normal(d), 0))
    both(ObservedSample.full(1e80 * rng.standard_normal(d), 0))
    assert shasta.SCALE_FLOOR <= state.sigma < 2 * shasta.SCALE_FLOOR
    assert np.abs(ref.r_bar).max() > 1e150
    for name in ("f", "r_bar", "s_bar"):
        assert np.isfinite(getattr(ref, name)).all()
        assert np.isfinite(getattr(state, name)).all()
    assert relative_gap(state.v, ref.v) <= RTOL
    assert relative_gap(state.r_bar, ref.r_bar) <= RTOL

    both(ObservedSample.full(rng.standard_normal(d), 0))
    assert state.t == ref.t
    assert np.isfinite(state.f).all()


def test_rows_whose_sum_overflows_are_accepted_as_by_the_eager_tick():
    # delta = 1e307 starts every row system at 1e307 I: each entry of the
    # observed rows stays finite, but their sum (40 diagonal entries of
    # about 1e307) overflows.  The one-reduction finiteness check then
    # falls back to the exact scan, which accepts the tick as the eager
    # tick does, whatever the warning filters say: here every warning is
    # an error.
    d, k = 20, 2
    cfg = ShastaConfig(weights=0.1, c_f=0.5, c_v=0.5, delta=1e307)
    rng = np.random.default_rng(13)
    f0 = rng.standard_normal((d, k)) / np.sqrt(d)
    v0 = np.array([0.5])
    state, ref = init_state(cfg, f0, v0), EagerShasta(cfg, f0, v0)
    for _ in range(5):
        sample = ObservedSample.full(rng.standard_normal(d), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ingest(state, sample, cfg)
        with np.errstate(over="ignore"):
            assert np.isinf(state.systems.sum())
        ref.ingest(sample)
        assert np.isfinite(state.systems).all()
    assert_matches_oracle(state, ref, "t=5")
