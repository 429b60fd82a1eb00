"""Checkpoint layout: save_state writes SHASTAPCA-STATE2 atomically (a
failed write leaves the previous checkpoint as it was), and load_state
reads back exactly what it wrote."""

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

CFG = ShastaConfig(weights=0.1)


def streamed_state(ticks, d=6, seed=0, k=2, num_groups=2):
    rng = np.random.default_rng(seed)
    state = init_state(CFG, rng.standard_normal((d, k)),
                       np.linspace(0.5, 0.7, num_groups))
    for t in range(ticks):
        ingest(state, ObservedSample.full(rng.standard_normal(d),
                                          t % num_groups), CFG)
    return state


def test_layout_is_magic_header_then_arrays(tmp_path):
    # save_state and load_state both follow one declaration of the arrays,
    # so the bytes are pinned here for several shapes (k = 1 and L = 1
    # among them), and what loads back must be bitwise what was saved.  The
    # shapes run in one test, so that its id stays as it was.
    for d, k, num_groups in [(6, 2, 2), (5, 1, 1), (7, 3, 1), (3, 1, 4)]:
        state = streamed_state(10, d=d, k=k, num_groups=num_groups)
        folder = tmp_path / f"{d}-{k}-{num_groups}"
        folder.mkdir()
        save_state(state, folder / "state.bin")
        arrays = (state.dev, state.v, state.fhat, state.systems,
                  state.theta_bar, state.rho_bar)
        expected = (CHECKPOINT_MAGIC
                    + struct.pack("<QQIIdd", d, 10, k, num_groups, state.sigma,
                                  state.gamma)
                    + b"".join(a.astype("<f8").tobytes() for a in arrays))
        assert (folder / "state.bin").read_bytes() == expected
        assert len(expected) == 48 + 8 * (3 * d * k + d * k * k
                                          + 3 * num_groups)
        assert 0.0 < state.sigma < 1.0 and 0.0 < state.gamma < 1.0
        assert os.listdir(folder) == ["state.bin"]

        loaded = load_state(folder / "state.bin")
        assert (loaded.t, loaded.sigma, loaded.gamma) == (10, state.sigma,
                                                          state.gamma)
        for name in ("dev", "v", "fhat", "systems", "theta_bar", "rho_bar"):
            got, want = getattr(loaded, name), getattr(state, name)
            assert (got.shape == want.shape
                    and got.tobytes() == want.tobytes()), (d, k, num_groups, name)


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
