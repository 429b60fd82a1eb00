"""Streaming subspace baselines: PETRELS and GROUSE.

Both assume homoscedastic noise and handle missing entries by restricting to
the observed coordinates.  They share the streaming-estimator surface used by
the experiment harness: `ingest(sample)` and `current_subspace()`.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from .datagen import orthonormalize
from .model import ObservedSample, ParameterError, solve_rows


@runtime_checkable
class StreamingEstimator(Protocol):
    def ingest(self, sample: ObservedSample) -> None: ...

    def current_subspace(self) -> np.ndarray: ...


class Petrels:
    """Recursive least-squares factor tracking with a forgetting factor.

    Each row j keeps its own k x k system r[j], seeded at delta * I, that
    discounts by `forgetting` per tick and rank-one updates with the current
    coefficient estimate.  The row update

        f_j <- f_j + r_j^{-1} zhat (y_j - zhat' f_j)

    is the solved form of the discounted least-squares system anchored at the
    initial factors, so no separate right-hand side is stored.
    """

    def __init__(self, f0: np.ndarray, forgetting: float = 1.0,
                 delta: float = 0.1):
        if not 0.0 < forgetting <= 1.0:
            raise ParameterError("forgetting", "must lie in (0, 1]")
        if delta <= 0.0:
            raise ParameterError("delta", "must be positive")
        f0 = np.asarray(f0, dtype=np.float64)
        d, k = f0.shape
        self.f = f0.copy()
        self.r = np.broadcast_to(delta * np.eye(k), (d, k, k)).copy()
        self.forgetting = float(forgetting)

    def ingest(self, sample: ObservedSample) -> None:
        if self.forgetting != 1.0:
            self.r *= self.forgetting
        omega = sample.omega
        if omega.size == 0:
            return
        fo = self.f[omega]
        zhat, *_ = np.linalg.lstsq(fo, sample.values, rcond=None)
        r_o = self.r[omega]
        r_o += np.outer(zhat, zhat)
        self.r[omega] = r_o
        resid = sample.values - fo @ zhat
        self.f[omega] += solve_rows(r_o, resid[:, None] * zhat[None, :])

    def current_subspace(self) -> np.ndarray:
        u, _, _ = np.linalg.svd(self.f, full_matrices=False)
        return u


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

    def __init__(self, u0: np.ndarray, step: float):
        if step < 0.0:
            raise ParameterError("step", "must be nonnegative")
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
