"""Streaming estimator of factors and per-group noise variances.

One sample arrives per tick.  The engine maintains exponentially weighted
surrogate statistics (per-row quadratic systems for the factors, per-group
scalar accumulators for the variances) and alternates two stochastic
minorize-maximize updates: variances first with the factors frozen, then the
factors at the just-updated variances.  State size is O(d (k^2 + k) + L)
regardless of how many samples have streamed.

Every tick decays all d row systems by 1 - w_t and relaxes all of F toward
the rows' surrogate maximizers fhat_j = rbar_j^-1 sbar_j by 1 - c_f.  The
state keeps both in lazy form, so that a tick touches only the observed
rows:

- the row systems are rbar_j = sigma R_j and sbar_j = sigma S_j, with the
  stored [R_j | S_j] in one (d, k, k+1) array and sigma the running product
  of (1 - w_t).  fhat_j does not depend on sigma, so an unobserved row's
  cached maximizer stays valid;
- the factors are F = fhat + gamma G, with gamma the running product of
  (1 - c_f).  An unobserved row's fhat_j is constant, so its F_j - fhat_j
  just decays with gamma.

A scale is folded into its arrays (an O(d k^2) rebase, after which the
scale is 1) only before it would fall below SCALE_FLOOR (1e-30), or when it
reaches 0: w_t = 1 (the first tick of the 1/t schedule) zeroes the stored
systems, and c_f = 1 zeroes G on every tick, so that F = fhat.  Between rebases a tick costs
O(|omega| k^2 + k^3) whatever d is: it gathers the observed rows, does one
eigendecomposition of F_o' F_o shared by the two E-steps, which differ only
in v_g (`observed_parts`), updates the observed row systems and solves them
in one batched call, checks the new rows for finiteness and scatters them
back.  The checkpoint stores the lazy form itself, scales included, so a
resumed stream matches an uninterrupted one bit for bit.

At the sizes the paper streams (k = 3, |omega| up to a few hundred) a tick
is bound by the fixed cost of its calls, not by arithmetic.  Its budget is
two LAPACK kernels (the k x k eigh and the batched row solve), called as
numpy.linalg's own gufuncs without the public functions' per-call wrappers
(`model._lapack`: a wrapper costs 6-10 us a call, more than LAPACK itself
at these sizes), and about 44
numpy calls on small arrays: 4 gather F_o, 6 form the rest of the parts
(the Gram, its finiteness sum, the eigenvalue cut-off, Q' F_o' y_o), 10 give
the variance step its residual power, and 24 make the factor step
(posterior 7, the row update 10, offsets 2, finiteness 2, scatter 3).  The
variance step's L-sized update runs on Python floats, and each finiteness
check is one sum, a non-finite entry making the sum non-finite; the exact
scan runs only when a sum is not finite (such an entry, or overflow, which
cannot warn: `ingest` keeps numpy's floating-point warnings off).

Ticks are all or nothing by the order of their writes: the variance step
returns the new variances and writes nothing, the factor step checks the
new observed rows before it writes the row arrays and the scales, and
`ingest` then commits the variances and t.  A sample that would make the
state non-finite raises RejectedSample (a ValueError) and leaves the state,
t included, unchanged, so F stays finite by construction.  The stored arrays
are the eager ones divided by sigma or gamma, up to 1/SCALE_FLOOR = 1e30
times larger.  So a sample whose eager update stays below about 1e278
(float64's largest value, 1.8e308, times SCALE_FLOOR) is accepted wherever
the scales stand; one between 1e278 and 1e308 may be rejected when a scale
is near the floor; one past 1e308 is rejected as by the eager tick.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import (
    VARIANCE_FLOOR,
    ObservedParts,
    ObservedSample,
    ParameterError,
    RejectedSample,
    check_factors,
    floor_variances,
    observed_parts,
    posterior_stats,
    solve_rows,
)

GROUPED = "grouped"
MEMORYLESS_SINGLE = "memoryless-single"

# SHASTAPCA-STATE2 checkpoints start with this 8-byte magic.
CHECKPOINT_MAGIC = b"SHASTA-2"
# magic, d, t, k, L, sigma, gamma: 48 bytes.
_HEADER = struct.Struct("<8sQQIIdd")

# A lazy scale is folded into its arrays before it falls below this value.
# The stored arrays hold the eager values divided by a scale, so they run up
# to 1/SCALE_FLOOR times larger; 1e-30 leaves 278 of float64's 308 decades
# to the data and costs one O(d k^2) fold per 6,900 ticks at w = 0.01.
SCALE_FLOOR = 1e-30


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
            raise ParameterError("weights", f"has unknown kind {self.kind!r}")
        if self.kind == "const" and not 0.0 < self.value <= 1.0:
            raise ParameterError("weights", "constant must lie in (0, 1]")
        if self.kind == "inv_sqrt" and not self.value > 0.0:
            raise ParameterError("weights", "scale a of a/sqrt(t) must be positive")

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ValueError("tick index is 1-based")
        if self.kind == "inv_t":
            return 1.0 / t
        if self.kind == "const":
            return self.value
        return min(1.0, self.value / math.sqrt(t))

    @staticmethod
    def parse(spec) -> "WeightSchedule":
        """Accepts a number (constant), "1/t", or "a/sqrt(t)" strings."""
        if isinstance(spec, WeightSchedule):
            return spec
        if isinstance(spec, (int, float)) and not isinstance(spec, bool):
            return WeightSchedule("const", float(spec))
        text = str(spec).replace(" ", "")
        if text == "1/t":
            return WeightSchedule("inv_t")
        kind, number = (("inv_sqrt", text[: -len("/sqrt(t)")])
                        if text.endswith("/sqrt(t)") else ("const", text))
        try:
            value = float(number)
        except ValueError:
            raise ParameterError("weights", f"{spec!r} is not a number, "
                                 "'1/t' or 'a/sqrt(t)'") from None
        return WeightSchedule(kind, value)


@dataclass(frozen=True)
class ShastaConfig:
    """The algorithm's settings; `init_state` takes the shape from f0, v0."""

    weights: WeightSchedule = field(default_factory=lambda: WeightSchedule("inv_t"))
    c_f: float = 0.1
    c_v: float = 0.1
    delta: float = 0.1
    variance_mode: str = GROUPED

    def __post_init__(self):
        object.__setattr__(self, "weights", WeightSchedule.parse(self.weights))
        for name in ("c_f", "c_v"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ParameterError(name, "must lie in (0, 1]")
        if not 0.0 < self.delta < math.inf:
            raise ParameterError("delta", "(surrogate init scale) must be "
                                 "positive and finite")
        if self.variance_mode not in (GROUPED, MEMORYLESS_SINGLE):
            raise ParameterError("variance_mode",
                                 f"is unknown: {self.variance_mode!r}")


@dataclass
class ShastaState:
    """Mutable streaming state in lazy form; single-writer, bounded size for
    fixed shapes.

    The surrogate systems are rbar_j = sigma R_j, sbar_j = sigma S_j and the
    factors F = fhat + gamma G (module docstring); `f`, `r_bar` and `s_bar`
    return them as fresh arrays, O(d k^2) each.
    """

    dev: np.ndarray        # (d, k) G, the stored factor offsets
    v: np.ndarray          # (L,)  current variances
    systems: np.ndarray    # (d, k, k+1) stored row systems [R_j | S_j]
    fhat: np.ndarray       # (d, k) cached row solutions R_j^-1 S_j
    theta_bar: np.ndarray  # (L,) weighted observed-entry counts
    rho_bar: np.ndarray    # (L,) weighted residual-power accumulators
    t: int = 0
    sigma: float = 1.0     # scale of the row systems, in (0, 1]
    gamma: float = 1.0     # scale of the factor offsets, in (0, 1]

    @property
    def f(self) -> np.ndarray:
        return self.fhat + self.gamma * self.dev

    @property
    def r_bar(self) -> np.ndarray:
        return self.sigma * self.systems[..., :-1]

    @property
    def s_bar(self) -> np.ndarray:
        return self.sigma * self.systems[..., -1]

    def observed_rows(self, omega: np.ndarray) -> np.ndarray:
        """The rows F[omega] of the factors, O(|omega| k)."""
        return (self.fhat.take(omega, axis=0)
                + self.gamma * self.dev.take(omega, axis=0))

    @property
    def d(self) -> int:
        return self.fhat.shape[0]

    @property
    def k(self) -> int:
        return self.fhat.shape[1]

    @property
    def num_groups(self) -> int:
        return self.v.size


def init_state(cfg: ShastaConfig, f0: np.ndarray, v0: np.ndarray) -> ShastaState:
    """Fresh state of the shape of the d x k factors f0 and the L group
    variances v0: rbar_j = delta I, sbar_j = 0, accumulators zero."""
    f0 = check_factors(f0)
    v0 = floor_variances(v0)
    if v0.ndim != 1 or v0.size < 1:
        raise ValueError("v0 must be a non-empty vector of group variances")
    if cfg.variance_mode == MEMORYLESS_SINGLE and v0.size != 1:
        raise ParameterError("variance_mode",
                             f"{MEMORYLESS_SINGLE!r} requires one group")
    d, k = f0.shape
    systems = np.zeros((d, k, k + 1))
    systems[:, :, :k] = cfg.delta * np.eye(k)
    return ShastaState(
        dev=f0.copy(),
        v=v0.copy(),
        systems=systems,
        fhat=np.zeros((d, k)),
        theta_bar=np.zeros(v0.size),
        rho_bar=np.zeros(v0.size),
        t=0,
    )


def v_step(state: ShastaState, sample: ObservedSample, w: float,
           c_v: float, *, parts: ObservedParts) -> tuple:
    """Variance update at frozen factors: the new (v, theta_bar, rho_bar).

    Folds the sample's observed-entry count and posterior residual power into
    the group accumulators (other groups decay by 1 - w, which leaves their
    ratios invariant), then averages each seen group's variance toward its
    accumulator ratio.  Never-seen groups keep their initial value.

    The arrays are fresh and the state is not written; `ingest` commits
    them.  A variance that is not finite raises RejectedSample.

    parts must be `observed_parts(state.observed_rows(sample.omega),
    sample.values)` for the current state; `ingest` forms it once and
    shares it with `f_step`.  It is not checked.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("weight must lie in (0, 1]")
    g = sample.group
    vg = float(state.v[g])
    floored = max(vg, VARIANCE_FLOOR)
    resid = sample.values - parts.fo @ parts.mean(floored)
    rho_t = float(resid @ resid) + vg * float(parts.fit_trace(floored))

    # L is small, so the accumulators and the variances update as Python
    # floats: the same IEEE operations as numpy's elementwise ones, without
    # a numpy call per operation.
    decay = 1.0 - w
    theta_bar = [decay * x for x in state.theta_bar.tolist()]
    rho_bar = [decay * x for x in state.rho_bar.tolist()]
    theta_bar[g] += w * sample.nobs
    rho_bar[g] += w * rho_t
    v = state.v.tolist()
    for i, theta in enumerate(theta_bar):
        if theta > 0.0:
            v[i] = max((1.0 - c_v) * v[i] + c_v * (rho_bar[i] / theta),
                       VARIANCE_FLOOR)
            if not math.isfinite(v[i]):
                raise RejectedSample("variance update is not finite; "
                                     "sample rejected")
    return np.array(v), np.array(theta_bar), np.array(rho_bar)


def f_step(state: ShastaState, sample: ObservedSample, w: float,
           c_f: float, v: np.ndarray, *, parts: ObservedParts) -> ShastaState:
    """Factor update at the given variances v; `state.v` is not read.

    Every row system decays by 1 - w and the observed rows fold in the
    sample's posterior moments and are re-solved; every row of F moves to
    (1 - c_f) F_j + c_f fhat_j.  In the lazy form only the observed rows are
    touched: the decays go into sigma and gamma, which are folded into the
    arrays (O(d k^2)) only before they would fall below SCALE_FLOOR or when
    they reach 0 (module docstring).

    The observed rows' new systems, solutions and factor offsets are
    computed first and checked finite; only then are the row arrays and the
    scales written, so a failing call raises RejectedSample and changes
    nothing.

    parts is as for `v_step`.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("weight must lie in (0, 1]")
    omega, k = sample.omega, state.k
    stats = posterior_stats(None, v, sample, parts=parts)
    vg = max(float(v[sample.group]), VARIANCE_FLOOR)
    sigma = state.sigma * (1.0 - w)
    gamma = state.gamma * (1.0 - c_f)
    fold_sigma = sigma < SCALE_FLOOR
    fold_gamma = 0.0 < gamma < SCALE_FLOOR
    if omega.size:
        rows = state.systems.take(omega, axis=0)
        if fold_sigma:
            rows *= sigma
            step = w
        else:
            step = w / sigma
        # [zbar zbar' / v_g + m | y_j zbar / v_g] for each observed row j,
        # built whole: one contiguous add is cheaper than two strided ones.
        update = np.empty_like(rows)
        update[:, :, :k] = step * (stats.zbar[:, None] * stats.zbar / vg
                                   + stats.m)
        np.multiply(sample.values[:, None], (step / vg) * stats.zbar,
                    out=update[:, :, k])
        rows += update
        fhat_o = solve_rows(rows[:, :, :k], rows[:, :, k])
        # The new F_o - fhat_o is (1 - c_f)(F_o - fhat_o), fhat_o the new
        # solutions; G keeps it divided by the new gamma, or as it is when
        # gamma folds to 1.
        dev_o = None
        if gamma > 0.0:
            dev_o = parts.fo - fhat_o
            if fold_gamma:
                dev_o *= 1.0 - c_f
            else:
                dev_o /= state.gamma
        # A non-finite entry makes its array's sum non-finite, so a finite
        # total clears both arrays in two reductions; the exact scans run
        # only when it is not finite (such an entry, or overflow).
        written = fhat_o if dev_o is None else dev_o
        if not (math.isfinite(rows.sum() + written.sum())
                or (np.isfinite(rows).all() and np.isfinite(written).all())):
            raise RejectedSample("factor update is not finite; sample rejected")

    if fold_sigma:
        if sigma > 0.0:
            state.systems *= sigma
        else:
            state.systems.fill(0.0)
        sigma = 1.0
    if gamma == 0.0:
        state.dev.fill(0.0)
        gamma = 1.0
    elif fold_gamma:
        state.dev *= gamma
        gamma = 1.0
    if omega.size:
        state.systems[omega] = rows
        state.fhat[omega] = fhat_o
        if dev_o is not None:
            state.dev[omega] = dev_o
    state.sigma, state.gamma = sigma, gamma
    return state


@np.errstate(all="ignore")
def ingest(state: ShastaState, sample: ObservedSample,
           cfg: ShastaConfig) -> ShastaState:
    """Advance one tick: variance update first, then the factor update.

    The observed rows F_o and the eigendecomposition of F_o' F_o are formed
    once and shared by both steps, which differ only in v_g.  All or
    nothing: the variances and t are committed after both steps' checks
    have passed, so if either raises, the state is left exactly as it was.
    An overflow leaves a value that is not finite, which the checks find,
    so no warning filter need see it.
    """
    if not 0 <= sample.group < state.num_groups:
        raise ValueError(f"sample group {sample.group} outside "
                         f"[0, {state.num_groups})")
    if sample.omega.size and sample.omega[-1] >= state.d:
        raise ValueError("sample observes a coordinate beyond the state's d")
    t = state.t + 1
    w = cfg.weights(t)
    parts = observed_parts(state.observed_rows(sample.omega), sample.values)
    w_v, c_v = ((1.0, 1.0) if cfg.variance_mode == MEMORYLESS_SINGLE
                else (w, cfg.c_v))
    v, theta_bar, rho_bar = v_step(state, sample, w_v, c_v, parts=parts)
    f_step(state, sample, w, cfg.c_f, v, parts=parts)
    state.v, state.theta_bar, state.rho_bar, state.t = v, theta_bar, rho_bar, t
    return state


def _arrays(d: int, k: int, num_groups: int) -> tuple:
    """The arrays of a STATE2 checkpoint in file order, after the header:
    each ShastaState field's name and its shape, stored as float64."""
    return (("dev", (d, k)), ("v", (num_groups,)), ("fhat", (d, k)),
            ("systems", (d, k, k + 1)), ("theta_bar", (num_groups,)),
            ("rho_bar", (num_groups,)))


def save_state(state: ShastaState, path) -> None:
    """Checkpoint the lazy state to a SHASTAPCA-STATE2 file, atomically.

    Layout: a 48-byte little-endian header (the 8-byte magic "SHASTA-2",
    d and t as uint64, k and L as uint32, sigma and gamma as float64), then
    the float64 arrays `_arrays` lists, in its order and shapes, C-ordered.
    The byte size, 48 + 8 (3 d k + d k^2 + 3 L), depends only on (d, k, L).
    Nothing is materialized, so a stream resumed from the file continues bit
    for bit as if it had not stopped.

    The bytes go to a temporary file beside `path`, which then replaces it:
    a write that fails midway leaves any previous checkpoint intact.  There
    is no fsync, so this covers a failed or killed writer, not power loss.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(CHECKPOINT_MAGIC, state.d, state.t, state.k,
                                  state.num_groups, state.sigma, state.gamma))
            for name, _ in _arrays(state.d, state.k, state.num_groups):
                fh.write(np.ascontiguousarray(getattr(state, name),
                                              dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_state(path) -> ShastaState:
    """Read a `save_state` checkpoint.

    The header's (d, k, L) are checked against the file's size, and sigma
    and gamma against (0, 1], before any array is allocated; a file with
    another magic, one that does not fit its header, or one whose arrays
    hold a value no tick can write (non-finite, a variance below
    VARIANCE_FLOOR, a negative theta_bar or rho_bar) raises ValueError.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if not header.startswith(CHECKPOINT_MAGIC):
            raise ValueError(f"not a state checkpoint: bad magic {header[:16]!r}")
        if len(header) != _HEADER.size:
            raise ValueError("truncated state checkpoint header")
        _, d, t, k, num_groups, sigma, gamma = _HEADER.unpack(header)
        if min(d, k, num_groups) < 1:
            raise ValueError(f"state checkpoint header has d={d}, k={k}, "
                             f"L={num_groups}; each must be >= 1")
        if not (0.0 < sigma <= 1.0 and 0.0 < gamma <= 1.0):
            raise ValueError(f"state checkpoint header has scales sigma={sigma}, "
                             f"gamma={gamma}; each must lie in (0, 1]")
        arrays = _arrays(d, k, num_groups)
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 8 * sum(math.prod(shape) for _, shape in arrays)
        if size != expected:
            raise ValueError(f"state checkpoint is {size} bytes, but its header "
                             f"(d={d}, k={k}, L={num_groups}) needs {expected}")
        fields = {name: np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8")
                  .reshape(shape).copy() for name, shape in arrays}
    if not all(np.isfinite(a).all() for a in fields.values()):
        raise ValueError("state checkpoint holds non-finite values")
    v, theta_bar, rho_bar = fields["v"], fields["theta_bar"], fields["rho_bar"]
    if v.min() < VARIANCE_FLOOR or min(theta_bar.min(), rho_bar.min()) < 0:
        raise ValueError(f"state checkpoint holds variances {v.tolist()} (floor "
                         f"{VARIANCE_FLOOR}), theta_bar {theta_bar.tolist()} "
                         f"and rho_bar {rho_bar.tolist()} (each must be >= 0)")
    return ShastaState(**fields, t=int(t), sigma=sigma, gamma=gamma)


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
