"""Streaming subspace baselines: PETRELS and GROUSE.

Both assume homoscedastic noise and handle missing entries by restricting to
the observed coordinates.  Like `ShastaPCA`, each offers `ingest(sample)` and
`current_subspace()`, which is all the experiment harness calls.
"""

from __future__ import annotations

import math

import numpy as np

from .datagen import orthonormalize
from .model import ObservedSample, ParameterError


class Petrels:
    """Recursive least-squares factor tracking with a forgetting factor
    (Chi, Eldar and Calderbank, *PETRELS*, IEEE TSP 2013).

    Row j of the factors solves its discounted least-squares system
    R_j f_j = S_j over the past coefficient estimates zhat, anchored at the
    initial factors: R_j starts at delta * I, decays by `forgetting` per tick,
    and gains zhat zhat' on each tick that observes row j.  The state keeps
    the inverse systems, scaled by the running product s of `forgetting`:
    p[j] = s R_j^{-1}.  The decay then only multiplies s, and a tick updates
    the observed rows by the matrix-inversion lemma:

        pz = p_j zhat,   den = s + pz' zhat,
        p_j <- p_j - (pz pz') / den,
        f_j <- f_j + (pz / den) (y_j - zhat' f_j).

    That is O(|omega| k^2) per tick, with no solve and nothing d-sized, and
    no `LinAlgError` path.  The downdate is the outer product of one vector
    with itself, so every p[j] stays bitwise symmetric.  Before s falls
    below SCALE_FLOOR it is folded into p (p /= s, s = 1), an O(d k^2) pass
    that a forgetting of 0.998 needs once every 34,500 ticks.

    Two floors keep p finite and well conditioned; neither acts while every
    R_j stays above it.  A row left unobserved while s shrinks has an R_j
    that decays towards zero (it underflows after about 1,070 ticks at
    forgetting 0.5), so p[j] would grow by 1 / s at every fold until it
    overflowed: a fold keeps each R_j at or above SCALE_FLOOR delta I.  A
    forgetting far below 1 leaves an R_j negligible beside the new zhat
    zhat', and the downdate then cancels to nothing: the observed rows' R_j
    are kept at or above MEMORY_FLOOR |zhat|^2 I before each update.  The
    rows are searched for the second floor only when a bound on every
    eigenvalue of p, kept since the last fold, allows one below it; a stream
    whose rows stay well above the floor pays one scalar comparison a tick.
    """

    SCALE_FLOOR = 1e-30
    MEMORY_FLOOR = 1e-8

    def __init__(self, f0: np.ndarray, forgetting: float = 1.0,
                 delta: float = 0.1):
        if not 0.0 < forgetting <= 1.0:
            raise ParameterError("forgetting", "must lie in (0, 1]")
        if not (0.0 < delta < math.inf and 1.0 / delta < math.inf):
            raise ParameterError("delta", "must be positive, with a finite "
                                 "reciprocal")
        f0 = np.asarray(f0, dtype=np.float64)
        d, k = f0.shape
        self.f = f0.copy()
        self.p = np.broadcast_to(np.eye(k) / delta, (d, k, k)).copy()
        self.s = 1.0
        self._peak = 1.0 / delta  # bounds every eigenvalue of p
        self.forgetting = float(forgetting)
        self.delta = float(delta)

    @property
    def r(self) -> np.ndarray:
        """The row systems R_j = s p[j]^{-1}, materialized (O(d k^3))."""
        return self.s * np.linalg.inv(self.p)

    def ingest(self, sample: ObservedSample) -> None:
        s = self.s * self.forgetting
        if s < self.SCALE_FLOOR:
            self._fold(self.s)
            s = self.forgetting
            if s < self.SCALE_FLOOR:  # forgetting itself is below the floor
                self._fold(s)
                s = 1.0
        self.s = s
        omega = sample.omega
        if omega.size == 0:
            return
        fo = self.f.take(omega, axis=0)
        zhat, *_ = np.linalg.lstsq(fo, sample.values, rcond=None)
        m, k = fo.shape
        p_o = self.p.take(omega, axis=0)
        floor = self.MEMORY_FLOOR * float(zhat @ zhat)
        if self._peak * floor > s:
            _floor_systems(p_o, s, floor)
        pz = (p_o.reshape(m * k, k) @ zhat).reshape(m, k)
        den = s + pz @ zhat
        downdate = pz[:, :, None] @ pz[:, None, :]
        downdate /= den[:, None, None]
        p_o -= downdate
        self.p[omega] = p_o
        resid = sample.values - fo @ zhat
        pz *= (resid / den)[:, None]
        pz += fo
        self.f[omega] = pz

    def _fold(self, scale: float) -> None:
        _floor_systems(self.p, scale, self.SCALE_FLOOR * self.delta)
        self.p /= scale
        self._peak = self.p.shape[1] * float(self.p.max())

    def current_subspace(self) -> np.ndarray:
        u, _, _ = np.linalg.svd(self.f, full_matrices=False)
        return u


def _floor_systems(p: np.ndarray, s: float, floor: float) -> None:
    """Keep each row system s p[i]^{-1} at or above floor * I, in place: cap
    at s / floor the eigenvalues of each p[i] whose trace exceeds s / floor.
    The other p[i] are left as they are, as their eigenvalues are all below
    their trace.  (The largest entry of a definite p[i] is on its diagonal,
    so k times it bounds the trace.)"""
    m, k, _ = p.shape
    if not p.max() * (k * floor) > s:
        return
    trace = p.reshape(m, k * k)[:, ::k + 1].sum(axis=1)
    rows = np.flatnonzero(trace * floor > s)
    e, q = np.linalg.eigh(p[rows])
    capped = (q * np.minimum(e, s / floor)[:, None, :]) @ q.transpose(0, 2, 1)
    p[rows] = 0.5 * (capped + capped.transpose(0, 2, 1))


class Grouse:
    """Rank-one geodesic subspace updates on partially observed vectors.

    Projects the observed entries onto the current basis, then rotates the
    basis along the geodesic mixing the (normalized) projection direction
    with the residual direction, by an angle step * ||residual|| ||projection||.

    An update costs two O(d k) products (u @ w and u' direction) and k
    column updates u[:, c] += direction b_c, each one pass over d entries;
    the residual touches only the observed rows, and nothing d x k is
    allocated.

    In exact arithmetic each update keeps the basis orthonormal; rounding
    makes u'u - I drift.  An update u += a b' (||b|| = 1) changes u'u - I by
    h b' + b h' with h = u'a + (a'a / 2) b, whose Frobenius norm is at most
    2 ||h||, an O(d k) product.  Summing that bound tells when the drift
    might exceed REORTH_DRIFT; only then, and every RESYNC_EVERY updates to
    bound the rounding of the updates themselves, is the O(d k^2) Gram
    formed and the basis re-orthonormalized if it is past the threshold.
    """

    # Re-orthonormalize once accumulated rounding exceeds this Frobenius drift.
    REORTH_DRIFT = 1e-8
    # Updates between exact measurements of the drift.
    RESYNC_EVERY = 1000

    def __init__(self, u0: np.ndarray, step: float = 0.01):
        if not 0.0 <= step < math.inf:
            raise ParameterError("step", "must be nonnegative and finite")
        self.u = np.asarray(u0, dtype=np.float64).copy()
        self._drift = self._measured_drift()  # upper bound on ||u'u - I||
        if self._drift > 1e-8:
            raise ValueError("initial basis must have orthonormal columns")
        self._updates = 0
        self.step = float(step)

    def _measured_drift(self) -> float:
        return float(np.linalg.norm(self.u.T @ self.u - np.eye(self.u.shape[1])))

    def ingest(self, sample: ObservedSample) -> None:
        omega = sample.omega
        if omega.size == 0 or self.step == 0.0:
            return
        uo = self.u[omega]
        w, *_ = np.linalg.lstsq(uo, sample.values, rcond=None)
        p = self.u @ w
        resid = sample.values - uo @ w
        rnorm = np.linalg.norm(resid)
        pnorm = np.linalg.norm(p)
        wnorm = np.linalg.norm(w)
        if rnorm < 1e-14 * max(1.0, pnorm) or pnorm == 0.0 or wnorm == 0.0:
            return
        angle = self.step * rnorm * pnorm
        # direction = ((cos - 1) p) / ||p|| + (sin r) / ||r||, built in p's
        # buffer; r is zero off omega, where its term would add only +-0.
        direction = p
        direction *= np.cos(angle) - 1.0
        direction /= pnorm
        direction[omega] += np.sin(angle) * resid / rnorm
        b = w / wnorm
        h = self.u.T @ direction + (0.5 * (direction @ direction)) * b
        for c in range(b.size):
            self.u[:, c] += direction * b[c]
        self._drift += 2.0 * math.sqrt(h @ h)
        self._updates += 1
        if self._drift > self.REORTH_DRIFT or self._updates % self.RESYNC_EVERY == 0:
            self._drift = self._measured_drift()
            if self._drift > self.REORTH_DRIFT:
                self.u = orthonormalize(self.u)
                self._drift = self._measured_drift()

    def current_subspace(self) -> np.ndarray:
        return self.u.copy()
