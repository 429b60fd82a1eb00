"""Streaming estimator of factors and per-group noise variances.

One sample arrives per tick.  The engine maintains exponentially weighted
surrogate statistics (per-row quadratic systems for the factors, per-group
scalar accumulators for the variances) and alternates two stochastic
minorize-maximize updates: variances first with the factors frozen, then the
factors at the just-updated variances.  State size is O(d (k^2 + k) + L)
regardless of how many samples have streamed.

Row j's surrogate maximizer solves rbar_j fhat_j = sbar_j.  Because both
sides of each unobserved row's system decay by the same factor, their
solutions are unchanged; only rows observed by the current sample are
re-solved, and the last solution per row is cached in the state.

Cost of one tick: O(|omega| k^2 + k^3) for the posterior statistics and the
observed rows' solves, which read only the observed rows of F, plus an eager
O(d k^2) pass that decays every row system and relaxes F toward the cached
maximizers.  The decay stays eager so that the fixed-size checkpoint holds
the state exactly and a resumed stream matches an uninterrupted one bit for
bit.

The two steps need the E-step at the old and at the new v_g.  Only that
scalar differs, so `ingest` gathers F_o and forms F_o' F_o and F_o' y_o once
per tick (`observed_parts`) and hands them to both steps, each of which then
does just its own k x k inverse.

Ticks are all or nothing: each step computes into locals, checks that the
new variances and the new observed rows are finite, and only then writes the
state; `ingest` advances t only after both steps succeed and undoes the
variance step if the factor step fails.  A sample that would make the state
non-finite raises ValueError and leaves the state, t included, unchanged, so
F stays finite by construction.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import (
    VARIANCE_FLOOR,
    ObservedSample,
    check_factors,
    floor_variances,
    observed_parts,
    posterior_stats,
    solve_rows,
)

GROUPED = "grouped"
MEMORYLESS_SINGLE = "memoryless-single"

CHECKPOINT_MAGIC = b"SHASTAPCA-STATE1"


@dataclass(frozen=True)
class WeightSchedule:
    """Per-tick surrogate weight w_t in (0, 1].

    kinds: "inv_t" (w_t = 1/t), "const" (w_t = w), "inv_sqrt" (w_t = a/sqrt(t),
    clipped into (0, 1]).  Ticks are 1-based.
    """

    kind: str
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("inv_t", "const", "inv_sqrt"):
            raise ValueError(f"unknown weight schedule kind: {self.kind!r}")
        if self.kind == "const" and not 0.0 < self.value <= 1.0:
            raise ValueError("constant weight must lie in (0, 1]")
        if self.kind == "inv_sqrt" and self.value <= 0.0:
            raise ValueError("inv_sqrt scale must be positive")

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ValueError("tick index is 1-based")
        if self.kind == "inv_t":
            return 1.0 / t
        if self.kind == "const":
            return self.value
        return min(1.0, self.value / np.sqrt(t))

    @staticmethod
    def parse(spec) -> "WeightSchedule":
        """Accepts a number (constant), "1/t", or "a/sqrt(t)" strings."""
        if isinstance(spec, WeightSchedule):
            return spec
        if isinstance(spec, (int, float)):
            return WeightSchedule("const", float(spec))
        text = str(spec).replace(" ", "")
        if text == "1/t":
            return WeightSchedule("inv_t")
        if text.endswith("/sqrt(t)"):
            return WeightSchedule("inv_sqrt", float(text[: -len("/sqrt(t)")]))
        return WeightSchedule("const", float(text))


@dataclass(frozen=True)
class ShastaConfig:
    rank: int
    num_groups: int
    weights: WeightSchedule = field(default_factory=lambda: WeightSchedule("inv_t"))
    c_f: float = 0.1
    c_v: float = 0.1
    delta: float = 0.1
    variance_mode: str = GROUPED

    def __post_init__(self):
        object.__setattr__(self, "weights", WeightSchedule.parse(self.weights))
        if self.rank < 1 or self.num_groups < 1:
            raise ValueError("rank and num_groups must be >= 1")
        if not 0.0 < self.c_f <= 1.0 or not 0.0 < self.c_v <= 1.0:
            raise ValueError("averaging factors must lie in (0, 1]")
        if self.delta <= 0.0:
            raise ValueError("surrogate init scale delta must be positive")
        if self.variance_mode not in (GROUPED, MEMORYLESS_SINGLE):
            raise ValueError(f"unknown variance mode: {self.variance_mode!r}")
        if self.variance_mode == MEMORYLESS_SINGLE and self.num_groups != 1:
            raise ValueError("memoryless-single variance mode requires one group")


@dataclass
class ShastaState:
    """Mutable streaming state; single-writer, bounded size for fixed shapes."""

    f: np.ndarray          # (d, k) current factors
    v: np.ndarray          # (L,)  current variances
    r_bar: np.ndarray      # (d, k, k) per-row surrogate systems
    s_bar: np.ndarray      # (d, k) per-row surrogate right-hand sides
    fhat: np.ndarray       # (d, k) cached row solutions rbar_j^-1 sbar_j
    theta_bar: np.ndarray  # (L,) weighted observed-entry counts
    rho_bar: np.ndarray    # (L,) weighted residual-power accumulators
    t: int = 0

    @property
    def d(self) -> int:
        return self.f.shape[0]

    @property
    def k(self) -> int:
        return self.f.shape[1]

    @property
    def num_groups(self) -> int:
        return self.v.size


def init_state(cfg: ShastaConfig, f0: np.ndarray, v0: np.ndarray) -> ShastaState:
    """Fresh state: rbar_j = delta I, sbar_j = 0, accumulators zero."""
    f0 = check_factors(f0)
    v0 = floor_variances(v0)
    d, k = f0.shape
    if k != cfg.rank:
        raise ValueError(f"f0 has rank {k}, config says {cfg.rank}")
    if v0.size != cfg.num_groups:
        raise ValueError(f"v0 has {v0.size} groups, config says {cfg.num_groups}")
    return ShastaState(
        f=f0.copy(),
        v=v0.copy(),
        r_bar=np.broadcast_to(cfg.delta * np.eye(k), (d, k, k)).copy(),
        s_bar=np.zeros((d, k)),
        fhat=np.zeros((d, k)),
        theta_bar=np.zeros(cfg.num_groups),
        rho_bar=np.zeros(cfg.num_groups),
        t=0,
    )


def v_step(state: ShastaState, sample: ObservedSample, w: float,
           c_v: float, *, parts=None) -> ShastaState:
    """Variance update at frozen factors.

    Folds the sample's observed-entry count and posterior residual power into
    the group accumulators (other groups decay by 1 - w, which leaves their
    ratios invariant), then averages each seen group's variance toward its
    accumulator ratio.  Never-seen groups keep their initial value.

    The new v, theta_bar and rho_bar are computed into fresh arrays and bound
    to the state only once v is known to be finite; a failing call leaves
    the state untouched and the previous arrays unmodified.

    parts, if given, must be `observed_parts(state.f, sample)` for the
    current state.f (`ingest` shares one with `f_step`); it is not checked.
    Without it the step forms the parts itself, which only callers composing
    the steps by hand need; the keyword can become required once they go
    through `ingest`.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("weight must lie in (0, 1]")
    g = sample.group
    if parts is None:
        parts = observed_parts(state.f, sample)
    fo = parts[0]
    stats = posterior_stats(state.f, state.v, sample, parts=parts)
    resid = sample.values - fo @ stats.zbar
    vg = float(state.v[g])
    rho_t = float(resid @ resid) + vg * float(np.sum((fo @ stats.m) * fo))

    theta_bar = (1.0 - w) * state.theta_bar
    rho_bar = (1.0 - w) * state.rho_bar
    theta_bar[g] += w * sample.nobs
    rho_bar[g] += w * rho_t

    seen = theta_bar > 0
    v = state.v.copy()
    v[seen] = floor_variances((1.0 - c_v) * v[seen]
                              + c_v * (rho_bar[seen] / theta_bar[seen]))
    if not np.isfinite(v).all():
        raise ValueError("variance update is not finite; sample rejected")
    state.v, state.theta_bar, state.rho_bar = v, theta_bar, rho_bar
    return state


def f_step(state: ShastaState, sample: ObservedSample, w: float,
           c_f: float, *, parts=None) -> ShastaState:
    """Factor update at the variances already updated this tick.

    Observed rows fold in the sample's posterior moments and are re-solved;
    unobserved rows decay (solution unchanged, cached value reused).  The new
    factors average the previous ones toward the surrogate maximizer, in
    place.

    The observed rows' new systems and solutions are computed first and
    checked finite; only then is the state written, so a failing call
    changes nothing.  Each call costs O(|omega| k^2 + k^3) plus the eager
    O(d k^2) decay of every row system.

    parts is as for `v_step`.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("weight must lie in (0, 1]")
    omega = sample.omega
    if parts is None:
        parts = observed_parts(state.f, sample)
    stats = posterior_stats(state.f, state.v, sample, parts=parts)
    vg = max(float(state.v[sample.group]), VARIANCE_FLOOR)
    decay = 1.0 - w
    if omega.size:
        contrib = np.outer(stats.zbar, stats.zbar) / vg + stats.m
        r_o = decay * state.r_bar[omega] + w * contrib
        s_o = decay * state.s_bar[omega] + (w / vg) * np.outer(sample.values,
                                                              stats.zbar)
        fhat_o = solve_rows(r_o, s_o)
        if not (np.isfinite(r_o).all() and np.isfinite(s_o).all()
                and np.isfinite(fhat_o).all()):
            raise ValueError("factor update is not finite; sample rejected")

    state.r_bar *= decay
    state.s_bar *= decay
    if omega.size:
        state.r_bar[omega] = r_o
        state.s_bar[omega] = s_o
        state.fhat[omega] = fhat_o
    state.f *= 1.0 - c_f
    state.f += c_f * state.fhat
    return state


def ingest(state: ShastaState, sample: ObservedSample,
           cfg: ShastaConfig) -> ShastaState:
    """Advance one tick: variance update first, then the factor update.

    F_o, F_o' F_o and F_o' y_o are formed once and shared by both steps,
    which differ only in v_g.  All or nothing: if either step raises, the
    state (t included) is left exactly as it was before the call.
    """
    if not 0 <= sample.group < cfg.num_groups:
        raise ValueError(f"sample group {sample.group} outside "
                         f"[0, {cfg.num_groups})")
    if sample.omega.size and sample.omega[-1] >= state.d:
        raise ValueError("sample observes a coordinate beyond the state's d")
    t = state.t + 1
    w = cfg.weights(t)
    parts = observed_parts(state.f, sample)
    before = (state.v, state.theta_bar, state.rho_bar)
    if cfg.variance_mode == MEMORYLESS_SINGLE:
        v_step(state, sample, w=1.0, c_v=1.0, parts=parts)
    else:
        v_step(state, sample, w, cfg.c_v, parts=parts)
    try:
        f_step(state, sample, w, cfg.c_f, parts=parts)
    except BaseException:
        # v_step rebinds rather than mutates these, so this is a full undo.
        state.v, state.theta_bar, state.rho_bar = before
        raise
    state.t = t
    return state


def save_state(state: ShastaState, path) -> None:
    """Checkpoint to a flat fixed-width binary file, atomically.

    Layout: 16-byte magic, four little-endian uint64 (d, k, L, t), then
    float64 arrays in order f, v, fhat, r_bar, s_bar, theta_bar, rho_bar.
    Byte size depends only on (d, k, L).

    The bytes go to a temporary file beside `path`, which then replaces it:
    a write that fails midway leaves any previous checkpoint intact.  There
    is no fsync, so this covers a failed or killed writer, not power loss.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<QQQQ", state.d, state.k, state.num_groups,
                                 state.t))
            for arr in (state.f, state.v, state.fhat, state.r_bar, state.s_bar,
                        state.theta_bar, state.rho_bar):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_state(path) -> ShastaState:
    """Read a `save_state` checkpoint.

    The header's (d, k, L) are checked against the file's size before any
    array is allocated; a file that does not match raises ValueError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a state checkpoint: bad magic {magic!r}")
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError("truncated state checkpoint header")
        d, k, num_groups, t = struct.unpack("<QQQQ", header)
        if min(d, k, num_groups) < 1:
            raise ValueError(f"state checkpoint header has d={d}, k={k}, "
                             f"L={num_groups}; each must be >= 1")
        size = os.fstat(fh.fileno()).st_size
        expected = 48 + 8 * (3 * d * k + d * k * k + 3 * num_groups)
        if size != expected:
            raise ValueError(f"state checkpoint is {size} bytes, but its header "
                             f"(d={d}, k={k}, L={num_groups}) needs {expected}")

        def read(shape):
            buf = fh.read(8 * int(np.prod(shape)))
            return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

        return ShastaState(
            f=read((d, k)),
            v=read((num_groups,)),
            fhat=read((d, k)),
            r_bar=read((d, k, k)),
            s_bar=read((d, k)),
            theta_bar=read((num_groups,)),
            rho_bar=read((num_groups,)),
            t=int(t),
        )


class ShastaPCA:
    """Streaming-estimator facade over the state and config."""

    def __init__(self, cfg: ShastaConfig, f0: np.ndarray, v0: np.ndarray):
        self.cfg = cfg
        self.state = init_state(cfg, f0, v0)

    def ingest(self, sample: ObservedSample) -> None:
        ingest(self.state, sample, self.cfg)

    @property
    def factors(self) -> np.ndarray:
        return self.state.f

    @property
    def variances(self) -> np.ndarray:
        return self.state.v

    def current_subspace(self) -> np.ndarray:
        """Orthonormal basis: the k left singular vectors of the factors."""
        u, _, _ = np.linalg.svd(self.state.f, full_matrices=False)
        return u
