"""Seeded synthetic data for the planted low-rank heteroscedastic model.

A planted model fixes an orthonormal basis, a descending spectrum of squared
singular values, and per-group noise variances; samples are y = U sqrt(lam) z
+ eps.  Scenario scripts chain epochs that can redraw the basis, rescale one
group's variance, and change the observation probability, emitting each
sample together with the ground truth active at that instant.

All randomness flows from one integer seed through a splittable counter-based
generator (Philox), so identical seeds give identical streams.

A planted model caches its factors and the cumulative distribution of its
group law, so a draw does no per-sample set-up: `draw_group` inverts that
distribution with one uniform draw, which is how `Generator.choice` draws
with given probabilities, and so consumes the random stream exactly as it
would.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .model import ObservedSample, ParameterError


def make_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class PlantedModel:
    u: np.ndarray             # (d, k) orthonormal basis
    spectrum: np.ndarray      # (k,) squared singular values, descending
    v_star: np.ndarray        # (L,) true noise variances
    group_probs: np.ndarray | None = None   # sampling law for group labels
    group_counts: np.ndarray | None = None  # exact per-group counts

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        spectrum = np.asarray(self.spectrum, dtype=np.float64)
        v_star = np.asarray(self.v_star, dtype=np.float64)
        if np.linalg.norm(u.T @ u - np.eye(u.shape[1])) > 1e-10:
            raise ParameterError("u", "must have orthonormal columns")
        if spectrum.shape != (u.shape[1],):
            raise ParameterError("spectrum", f"must hold one value per column "
                                 f"of u ({u.shape[1]})")
        if not (np.all(np.diff(spectrum) <= 0)
                and np.all((spectrum > 0) & (spectrum < np.inf))):
            raise ParameterError("spectrum", "must be positive, finite and descending")
        if not np.all((v_star > 0) & (v_star < np.inf)):
            raise ParameterError("v_star", "(true variances) must be positive and finite")
        if (self.group_probs is None) == (self.group_counts is None):
            raise ParameterError("group_probs", "or group_counts: specify exactly one")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "v_star", v_star)
        if self.group_probs is not None:
            p = np.asarray(self.group_probs, dtype=np.float64)
            if not (p.size == v_star.size and abs(p.sum() - 1.0) <= 1e-9
                    and np.all(p >= 0)):
                raise ParameterError("group_probs", "must be a distribution over groups")
            object.__setattr__(self, "group_probs", p)
        if self.group_counts is not None:
            c = np.asarray(self.group_counts, dtype=np.int64)
            if c.size != v_star.size or np.any(c < 0):
                raise ParameterError("group_counts", "must be nonnegative, one per group")
            object.__setattr__(self, "group_counts", c)

    def __getstate__(self):
        """The fields alone, for pickling: an unpickled copy computes its
        cached factors and group law again, read-only, rather than receive
        writable copies of them."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def d(self) -> int:
        return self.u.shape[0]

    @property
    def k(self) -> int:
        return self.u.shape[1]

    @property
    def num_groups(self) -> int:
        return self.v_star.size

    @cached_property
    def factors(self) -> np.ndarray:
        """U sqrt(lam), computed once; read-only, since every caller shares it."""
        return _read_only(self.u * np.sqrt(self.spectrum))

    @cached_property
    def group_cdf(self) -> np.ndarray:
        """Cumulative group_probs, normalized to end at 1 as
        `Generator.choice` normalizes them; read-only."""
        cdf = self.group_probs.cumsum()
        cdf /= cdf[-1]
        return _read_only(cdf)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def orthonormalize(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a's columns: the Q of its QR factorization, signs
    canonicalized so the triangular factor has a positive diagonal."""
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def draw_orthonormal(rng, d: int, k: int) -> np.ndarray:
    """Uniform-at-random basis: the orthonormalized Gaussian d x k matrix."""
    return orthonormalize(make_rng(rng).standard_normal((d, k)))


def draw_group(model: PlantedModel, rng) -> int:
    """One label from the model's group law.  Draws exactly as
    `rng.choice(num_groups, p=group_probs)` does, without its checks."""
    if model.group_probs is None:
        raise ValueError("model has fixed counts; use a scripted label order")
    return int(model.group_cdf.searchsorted(rng.random(), side="right"))


def _draw_masked(model: PlantedModel, rng, group: int, p: float) -> ObservedSample:
    """y = F z + eps for the group, each coordinate kept with probability p:
    z, eps, then (for p < 1) one uniform per coordinate, drawn in that order.
    The stream pins match it bit for bit with oracles that draw the full
    sample and then mask it, building two samples rather than one."""
    z = rng.standard_normal(model.k)
    eps = np.sqrt(model.v_star[group]) * rng.standard_normal(model.d)
    y = model.factors @ z + eps
    if p == 1.0:
        return ObservedSample.full(y, group)
    keep = rng.random(model.d) < p
    # Named so that it outlives y[keep]: freed first, its block took the
    # kept values and fragmented the heap (peak RSS +0.5 MB over 25,000
    # samples at d = 200).
    omega = np.arange(model.d)
    return ObservedSample(omega[keep], y[keep], group)


@dataclass(frozen=True)
class Epoch:
    """One scripted phase of a stream; the script that holds it checks it."""

    samples: int
    observe_prob: float | None = None     # None inherits the script default
    redraw_subspace: bool = False
    scale_variance: tuple[int, float] | None = None  # (group, factor)


@dataclass(frozen=True)
class ScenarioScript:
    """Base planted model parameters plus an ordered list of epochs, each
    checked here: an epoch's scale_variance must keep its group's variance,
    as scaled so far, positive and finite.  Errors name it as epochs[i]."""

    d: int
    k: int
    spectrum: tuple
    v_star: tuple
    epochs: tuple
    observe_prob: float = 1.0
    group_probs: tuple | None = None
    group_counts: tuple | None = None

    def __post_init__(self):
        if not 1 <= self.k <= self.d:
            raise ParameterError("k", f"must lie in [1, d = {self.d}]")
        if len(self.spectrum) != self.k:
            raise ParameterError("spectrum", f"must hold one value per rank "
                                 f"(k = {self.k})")
        if not self.epochs:
            raise ParameterError("epochs", "must list at least one epoch")
        if not 0.0 < self.observe_prob <= 1.0:
            raise ParameterError("observe_prob", "must lie in (0, 1]")
        object.__setattr__(self, "epochs", tuple(self.epochs))
        v = [float(x) for x in self.v_star]  # as run_script scales them
        for i, epoch in enumerate(self.epochs):
            name = f"epochs[{i}]"
            if epoch.samples < 1:
                raise ParameterError(f"{name}.samples", "must be at least 1")
            if epoch.observe_prob is not None and not 0.0 < epoch.observe_prob <= 1.0:
                raise ParameterError(f"{name}.observe_prob", "must lie in (0, 1]")
            if epoch.scale_variance is not None:
                group, factor = epoch.scale_variance
                if not 0 <= group < len(v):
                    raise ParameterError(f"{name}.scale_variance.group", "out of range")
                v[group] *= factor
                if not 0.0 < v[group] < np.inf:
                    raise ParameterError(f"{name}.scale_variance.factor",
                                         f"takes a variance to {v[group]!r}; it "
                                         "must stay positive and finite")
        if self.group_counts is not None:
            total = sum(e.samples for e in self.epochs)
            if int(np.sum(self.group_counts)) != total:
                raise ParameterError("group_counts", "must sum to the scripted length")

    @property
    def total_samples(self) -> int:
        return sum(e.samples for e in self.epochs)


def run_script(script: ScenarioScript, seed):
    """Yield (sample, ground_truth) pairs for the scripted stream.

    The ground truth is the planted model active when the sample was drawn;
    epoch mutations apply before their first sample.  Subspace redraws keep
    the spectrum fixed.
    """
    rng = make_rng(seed)
    model = PlantedModel(
        u=draw_orthonormal(rng, script.d, script.k),
        spectrum=np.asarray(script.spectrum),
        v_star=np.asarray(script.v_star),
        group_probs=script.group_probs,
        group_counts=script.group_counts,
    )
    labels = None
    if script.group_counts is not None:
        labels = np.repeat(np.arange(len(script.group_counts)),
                           script.group_counts)
        rng.shuffle(labels)
    position = 0
    for epoch in script.epochs:
        if epoch.redraw_subspace:
            model = replace(model, u=draw_orthonormal(rng, script.d, script.k))
        if epoch.scale_variance is not None:
            group, factor = epoch.scale_variance
            v_new = model.v_star.copy()
            v_new[group] *= factor
            model = replace(model, v_star=v_new)
        p = epoch.observe_prob if epoch.observe_prob is not None else script.observe_prob
        for _ in range(epoch.samples):
            group = (int(labels[position]) if labels is not None
                     else draw_group(model, rng))
            yield _draw_masked(model, rng, group, p), model
            position += 1
