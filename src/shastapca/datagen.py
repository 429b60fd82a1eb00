"""Seeded synthetic data for the planted low-rank heteroscedastic model.

A planted model fixes an orthonormal basis, a descending spectrum of squared
singular values, and per-group noise variances; samples are y = U sqrt(lam) z
+ eps.  Scenario scripts chain epochs that can redraw the basis, rescale one
group's variance, and change the observation probability, emitting each
sample together with the ground truth active at that instant.

All randomness flows from one integer seed through a splittable counter-based
generator (Philox), so identical seeds give identical streams.

A scenario script owns every rule of a scenario and checks them all when it
is built; a planted model holds only its truth (basis, spectrum, variances)
and nothing derived from it.  `run_script` forms the group law's cumulative
distribution once per stream, from the script, and what a draw needs once
per epoch (the factors, each group's noise deviation, the coordinate range),
so a draw does no per-sample set-up: `draw_group` inverts that law with one
uniform draw, which is how `Generator.choice` draws with given
probabilities, and so consumes the random stream exactly as it would.  Each
sample is built without `ObservedSample`'s checks, which a drawn sample
meets by construction (see `_draw_masked`): a draw is its random calls, one
product and the mask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    """A planted model's parameters, checked; nothing derived is stored."""

    u: np.ndarray             # (d, k) orthonormal basis
    spectrum: np.ndarray      # (k,) squared singular values, descending
    v_star: np.ndarray        # (L,) true noise variances

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
            raise ParameterError("v_star", "must be positive and finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "v_star", v_star)

    @property
    def d(self) -> int:
        return self.u.shape[0]

    @property
    def k(self) -> int:
        return self.u.shape[1]

    @property
    def num_groups(self) -> int:
        return self.v_star.size

    @property
    def factors(self) -> np.ndarray:
        """U sqrt(lam), a new array at each access."""
        return self.u * np.sqrt(self.spectrum)


def orthonormalize(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a's columns: the Q of its QR factorization, signs
    canonicalized so the triangular factor has a positive diagonal."""
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def draw_orthonormal(rng, d: int, k: int) -> np.ndarray:
    """Uniform-at-random basis: the orthonormalized Gaussian d x k matrix."""
    return orthonormalize(make_rng(rng).standard_normal((d, k)))


def draw_group(cdf: np.ndarray, rng) -> int:
    """One label from the group law whose cumulative distribution is `cdf`
    (as `run_script` forms it from a script's group_probs).  Draws exactly
    as `rng.choice(num_groups, p=group_probs)` does, without its checks."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _draw_masked(rng, factors: np.ndarray, scale, coords: np.ndarray,
                 group: int, p: float) -> ObservedSample:
    """y = F z + eps for the group, each coordinate kept with probability p:
    z, eps, then (for p < 1) one uniform per coordinate, drawn in that order.
    F (`factors`), the group's sqrt(v_g) (`scale`) and the intp range 0..d-1
    (`coords`) are fixed per epoch.  The stream pins match it bit for bit
    with oracles that draw the full sample and then mask it.

    The sample skips `ObservedSample`'s checks, as it meets them by
    construction: omega is a fresh copy of the range or the range indexed by
    the mask, so strictly increasing and nonnegative; the values are finite,
    since the script and `PlantedModel` refuse a spectrum or variance that
    is not positive and finite; the group is a nonnegative int.  The checks
    were 7.9 us of the 22 us a draw took at d = 100 (one BLAS thread);
    without them and the per-sample set-up, a draw there takes about a
    third less."""
    z = rng.standard_normal(factors.shape[1])
    y = factors @ z
    y += scale * rng.standard_normal(coords.size)
    if p == 1.0:
        return ObservedSample._checked(coords.copy(), y, group)
    keep = rng.random(coords.size) < p
    return ObservedSample._checked(coords[keep], y[keep], group)


@dataclass(frozen=True)
class Epoch:
    """One scripted phase of a stream; the script that holds it checks it."""

    samples: int
    observe_prob: float | None = None     # None inherits the script default
    redraw_subspace: bool = False
    scale_variance: tuple[int, float] | None = None  # (group, factor)


@dataclass(frozen=True)
class ScenarioScript:
    """Base planted model parameters, a group law and an ordered list of
    epochs: the one owner of a scenario's rules, each checked here when the
    script is built.  An epoch's scale_variance must keep its group's
    variance, as scaled so far, positive and finite (errors name it as
    epochs[i]); group_counts must sum to the scripted length; the spectrum
    and variances are held to `PlantedModel`'s rules, on a d x k stand-in
    basis; and exactly one group law is given, group_probs a distribution
    over the groups or group_counts one nonnegative count per group."""

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
            if int(np.sum(self.group_counts)) != self.total_samples:
                raise ParameterError("group_counts", "must sum to the scripted length")
        PlantedModel(np.eye(self.d, self.k), self.spectrum, self.v_star)
        if (self.group_probs is None) == (self.group_counts is None):
            raise ParameterError("group_probs", "or group_counts: specify exactly one")
        if self.group_probs is not None:
            p = np.asarray(self.group_probs, dtype=np.float64)
            if not (p.size == len(v) and abs(p.sum() - 1.0) <= 1e-9
                    and np.all(p >= 0)):
                raise ParameterError("group_probs", "must be a distribution over groups")
        else:
            c = np.asarray(self.group_counts, dtype=np.int64)
            if c.size != len(v) or np.any(c < 0):
                raise ParameterError("group_counts", "must be nonnegative, one per group")

    @property
    def total_samples(self) -> int:
        return sum(e.samples for e in self.epochs)


def run_script(script: ScenarioScript, seed):
    """Yield (sample, ground_truth) pairs for the scripted stream.

    The ground truth is the planted model active when the sample was drawn;
    epoch mutations apply before their first sample.  Subspace redraws keep
    the spectrum fixed.  The group law's cumulative distribution is formed
    once, normalized to end at 1 as `Generator.choice` normalizes it; each
    epoch's factors and noise deviations once, before its first draw.
    """
    rng = make_rng(seed)
    model = PlantedModel(u=draw_orthonormal(rng, script.d, script.k),
                         spectrum=np.asarray(script.spectrum),
                         v_star=np.asarray(script.v_star))
    labels = cdf = None
    if script.group_counts is not None:
        labels = np.repeat(np.arange(len(script.group_counts)),
                           script.group_counts)
        rng.shuffle(labels)
        labels = labels.tolist()
    else:
        cdf = np.asarray(script.group_probs, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
    coords = np.arange(script.d, dtype=np.intp)
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
        # sqrt rounds the same elementwise as on one variance.
        factors, scales = model.factors, np.sqrt(model.v_star)
        for _ in range(epoch.samples):
            group = labels[position] if cdf is None else draw_group(cdf, rng)
            yield _draw_masked(rng, factors, scales[group], coords, group, p), model
            position += 1
