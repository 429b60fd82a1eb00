"""Checkpoint layouts: save_state writes SHASTAPCA-STATE2 atomically (a
failed write leaves the previous checkpoint as it was), and load_state still
reads the eager SHASTAPCA-STATE1 layout."""

import dataclasses
import os
import struct

import numpy as np
import pytest

from shastapca.model import ObservedSample
from shastapca.shasta import (
    CHECKPOINT_MAGIC,
    STATE1_MAGIC,
    ShastaConfig,
    ingest,
    init_state,
    load_state,
    save_state,
)

from helpers import EagerShasta, relative_gap

CFG = ShastaConfig(rank=2, num_groups=2, weights=0.1)


def streamed_state(ticks, d=6, seed=0):
    rng = np.random.default_rng(seed)
    state = init_state(CFG, rng.standard_normal((d, 2)), np.array([0.5, 0.7]))
    for t in range(ticks):
        ingest(state, ObservedSample.full(rng.standard_normal(d), t % 2), CFG)
    return state


def test_layout_is_magic_header_then_arrays(tmp_path):
    state = streamed_state(10)
    save_state(state, tmp_path / "state.bin")
    arrays = (state.dev, state.v, state.fhat, state.systems, state.theta_bar,
              state.rho_bar)
    expected = (CHECKPOINT_MAGIC
                + struct.pack("<QQIIdd", 6, 10, 2, 2, state.sigma, state.gamma)
                + b"".join(a.astype("<f8").tobytes() for a in arrays))
    assert (tmp_path / "state.bin").read_bytes() == expected
    assert len(expected) == 48 + 8 * (3 * 6 * 2 + 6 * 2 * 2 + 3 * 2)
    assert 0.0 < state.sigma < 1.0 and 0.0 < state.gamma < 1.0
    assert os.listdir(tmp_path) == ["state.bin"]


def test_failed_write_leaves_previous_checkpoint(tmp_path):
    path = tmp_path / "state.bin"
    save_state(streamed_state(10), path)
    before = path.read_bytes()

    # The row systems come after G, v and fhat in the layout, so this write
    # fails midway, with part of the new checkpoint already written.
    state = streamed_state(20)
    broken = dataclasses.replace(state, systems=np.full(state.systems.shape, "x",
                                                        dtype=object))
    with pytest.raises(ValueError):
        save_state(broken, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["state.bin"]

    save_state(state, str(path))
    assert load_state(path).t == 20
    assert os.listdir(tmp_path) == ["state.bin"]


def test_state1_checkpoint_loads_and_continues(tmp_path):
    # An eager state written in the STATE1 layout, byte by byte, loads as a
    # lazy state and streams on within 1e-12 of the eager oracle.
    d, k = 6, 2
    rng = np.random.default_rng(3)
    ref = EagerShasta(CFG, rng.standard_normal((d, k)), np.array([0.5, 0.7]))
    samples = [ObservedSample.full(rng.standard_normal(d), t % 2)
               for t in range(40)]
    for sample in samples[:20]:
        ref.ingest(sample)
    arrays = (ref.f, ref.v, ref.fhat, ref.r_bar, ref.s_bar, ref.theta_bar,
              ref.rho_bar)
    path = tmp_path / "state1.bin"
    path.write_bytes(STATE1_MAGIC + struct.pack("<QQQQ", d, k, 2, 20)
                     + b"".join(a.astype("<f8").tobytes() for a in arrays))

    state = load_state(path)
    assert (state.t, state.sigma, state.gamma) == (20, 1.0, 1.0)
    for sample in samples[20:]:
        ingest(state, sample, CFG)
        ref.ingest(sample)
    assert state.t == ref.t == 40
    for name in ("f", "v", "r_bar", "s_bar", "fhat", "theta_bar", "rho_bar"):
        gap = relative_gap(getattr(state, name), getattr(ref, name))
        assert gap <= 1e-12, f"{name} differs by {gap:.2e}"
