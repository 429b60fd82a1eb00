"""save_state writes its layout atomically: a failed write leaves the previous
checkpoint as it was."""

import dataclasses
import os
import struct

import numpy as np
import pytest

from shastapca.model import ObservedSample
from shastapca.shasta import (
    CHECKPOINT_MAGIC,
    ShastaConfig,
    ingest,
    init_state,
    load_state,
    save_state,
)


def streamed_state(ticks, d=6, seed=0):
    cfg = ShastaConfig(rank=2, num_groups=2, weights=0.1)
    rng = np.random.default_rng(seed)
    state = init_state(cfg, rng.standard_normal((d, 2)), np.array([0.5, 0.7]))
    for t in range(ticks):
        ingest(state, ObservedSample.full(rng.standard_normal(d), t % 2), cfg)
    return state


def test_layout_is_magic_header_then_arrays(tmp_path):
    state = streamed_state(10)
    save_state(state, tmp_path / "state.bin")
    arrays = (state.f, state.v, state.fhat, state.r_bar, state.s_bar,
              state.theta_bar, state.rho_bar)
    expected = (CHECKPOINT_MAGIC + struct.pack("<QQQQ", 6, 2, 2, 10)
                + b"".join(a.astype("<f8").tobytes() for a in arrays))
    assert (tmp_path / "state.bin").read_bytes() == expected
    assert os.listdir(tmp_path) == ["state.bin"]


def test_failed_write_leaves_previous_checkpoint(tmp_path):
    path = tmp_path / "state.bin"
    save_state(streamed_state(10), path)
    before = path.read_bytes()

    # s_bar comes after f, v, fhat and r_bar in the layout, so this write
    # fails midway, with part of the new checkpoint already written.
    state = streamed_state(20)
    broken = dataclasses.replace(state, s_bar=np.full(state.s_bar.shape, "x",
                                                      dtype=object))
    with pytest.raises(ValueError):
        save_state(broken, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["state.bin"]

    save_state(state, str(path))
    assert load_state(path).t == 20
    assert os.listdir(tmp_path) == ["state.bin"]
