"""Bit-for-bit pins of the synthetic stream and of the streaming tick.

Each test replays a stream through the package and through an oracle
written here from the plain definitions, and requires identical bytes: the
package's shortcuts (cached model factors and group distribution, one Gram
shared by both steps of a tick) must change no result, not even in the last
bit.
"""

import dataclasses

import numpy as np
import pytest

from shastapca.datagen import (
    Epoch,
    PlantedModel,
    ScenarioScript,
    draw_group,
    draw_model,
    draw_orthonormal,
    draw_sample,
    make_rng,
    mask_uniform,
    run_script,
)
from shastapca.model import VARIANCE_FLOOR, ObservedSample, posterior_stats
from shastapca.shasta import (
    MEMORYLESS_SINGLE,
    ShastaConfig,
    ingest,
    init_state,
    save_state,
)


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


@pytest.mark.parametrize("law", ["probs", "counts"])
@pytest.mark.parametrize("observe_prob", [1.0, 0.6])
def test_run_script_matches_choice_oracle(law, observe_prob):
    script = ScenarioScript(
        d=15, k=3, spectrum=(4.0, 2.0, 1.0), v_star=(0.01, 0.1, 1.0),
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


@pytest.mark.parametrize("probs", [(0.2, 0.5, 0.3), (0.1, 0.0, 0.6, 0.3),
                                   (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 1.0)])
def test_draw_group_matches_rng_choice(probs):
    model = draw_model(0, 6, 2, [2.0, 1.0], [1.0] * len(probs), group_probs=probs)
    rng, ref = make_rng(11), make_rng(11)
    got = [draw_group(model, rng) for _ in range(10_000)]
    want = [int(ref.choice(len(probs), p=model.group_probs)) for _ in range(10_000)]
    assert got == want
    assert rng.random() == ref.random()  # the same draws were consumed


def oracle_ingest(state, sample, cfg):
    """A SHASTA tick from the public posterior_stats, evaluated at the old
    v_g for the variance step and at the new v_g for the factor step."""
    t = state.t + 1
    w = cfg.weights(t)
    w_v, c_v = (1.0, 1.0) if cfg.variance_mode == MEMORYLESS_SINGLE else (w, cfg.c_v)
    g, omega = sample.group, sample.omega

    stats = posterior_stats(state.f, state.v, sample)
    fo = state.f[omega]
    resid = sample.values - fo @ stats.zbar
    rho_t = (float(resid @ resid)
             + float(state.v[g]) * float(np.sum((fo @ stats.m) * fo)))
    theta_bar = (1.0 - w_v) * state.theta_bar
    rho_bar = (1.0 - w_v) * state.rho_bar
    theta_bar[g] += w_v * sample.nobs
    rho_bar[g] += w_v * rho_t
    seen = theta_bar > 0
    v = state.v.copy()
    v[seen] = np.maximum((1.0 - c_v) * v[seen] + c_v * (rho_bar[seen] / theta_bar[seen]),
                         VARIANCE_FLOOR)
    state.v, state.theta_bar, state.rho_bar = v, theta_bar, rho_bar

    stats = posterior_stats(state.f, state.v, sample)
    vg = max(float(state.v[g]), VARIANCE_FLOOR)
    decay = 1.0 - w
    if omega.size:
        r_o = decay * state.r_bar[omega] + w * (np.outer(stats.zbar, stats.zbar) / vg
                                                + stats.m)
        s_o = decay * state.s_bar[omega] + (w / vg) * np.outer(sample.values, stats.zbar)
        fhat_o = np.linalg.solve(r_o, s_o[..., None])[..., 0]
    state.r_bar *= decay
    state.s_bar *= decay
    if omega.size:
        state.r_bar[omega] = r_o
        state.s_bar[omega] = s_o
        state.fhat[omega] = fhat_o
    state.f *= 1.0 - cfg.c_f
    state.f += cfg.c_f * state.fhat
    state.t = t


@pytest.mark.parametrize("mode,weights", [
    ("grouped", 0.05), ("grouped", "1/t"), ("grouped", "0.5/sqrt(t)"),
    (MEMORYLESS_SINGLE, 0.05), (MEMORYLESS_SINGLE, "1/t"),
    (MEMORYLESS_SINGLE, "0.5/sqrt(t)"),
])
def test_ingest_matches_two_posterior_oracle(tmp_path, mode, weights):
    d, k = 16, 3
    num_groups = 1 if mode == MEMORYLESS_SINGLE else 3
    cfg = ShastaConfig(rank=k, num_groups=num_groups, weights=weights, c_f=0.2,
                       c_v=0.3, delta=0.1, variance_mode=mode)
    rng = np.random.default_rng(5)
    f0 = rng.standard_normal((d, k)) / np.sqrt(d)
    v0 = rng.uniform(0.1, 1.0, size=num_groups)
    state, ref = init_state(cfg, f0, v0), init_state(cfg, f0, v0)
    for t in range(1, 2101):
        if t % 50 == 0:
            sample = ObservedSample(np.array([], dtype=np.intp), np.array([]),
                                    t % num_groups)
        else:
            omega = np.flatnonzero(rng.random(d) < 0.5)
            sample = ObservedSample(omega, 3.0 * rng.standard_normal(omega.size),
                                    int(rng.integers(num_groups)))
        ingest(state, sample, cfg)
        oracle_ingest(ref, sample, cfg)
        if t % 700 == 0:
            save_state(state, tmp_path / "package.bin")
            save_state(ref, tmp_path / "oracle.bin")
            assert ((tmp_path / "package.bin").read_bytes()
                    == (tmp_path / "oracle.bin").read_bytes()), f"differ at t={t}"
