"""Low-rank factor model with per-group noise variances and missing entries.

Data vectors follow y = F z + eps with z ~ N(0, I_k) and eps ~ N(0, v_g I_d),
where F is a d-by-k factor matrix, v holds one noise variance per group, and
each sample observes only a subset of coordinates.  This module provides the
observed-entry log-likelihood of a dataset, the posterior statistics of the
latent coefficients, and the kernels the solvers share.

The E-steps read one k x k kernel per sample, ObservedParts: the
eigendecomposition of F_o' F_o, from which each value at any v_g is a sum
over lambda + v_g >= VARIANCE_FLOOR > 0, so no solve can fail.  One sample
(`observed_parts`) and a whole dataset (`DatasetEvaluator.parts`) share it.
A dataset's log-likelihood (`DatasetEvaluator.__call__`) is needed at one
v_g only and factors each F_o' F_o + v_g I by one batched Cholesky instead;
a sample that factor cannot serve to the eigendecomposition's precision
(see CHOLESKY_GUARD) takes the eigendecomposition's value.

Conventions: coordinate indices and group labels are 0-based, likelihood
values drop all additive constants (only differences are meaningful), and a
sample observing no coordinates is legal and carries no information.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
# The kernels numpy.linalg's solve, eigh and lstsq call (see `_lapack`).
from numpy.linalg import _umath_linalg

# Variances are floored here whenever consumed; the model itself never lets
# a variance reach zero but finite-precision iterates can.
VARIANCE_FLOOR = 1e-12

# Forming and decomposing a k x k Gram matrix moves a zero eigenvalue by up
# to about k eps lambda_max, which would skew every value at a v_g that small.
# An eigenvalue at or below k times this relative level is taken as 0.
ZERO_EIGENVALUE = 4 * np.finfo(np.float64).eps

# The dataset likelihood (`DatasetEvaluator.__call__`) factors F_o' F_o +
# v_g I by Cholesky, with a backward error of about k eps trace(F_o' F_o),
# so each ln(lambda + v_g) it sums may be off by about k eps trace / v_g.
# The eigendecomposition zeroes that rounding where lambda is 0 (see
# ZERO_EIGENVALUE), which Cholesky cannot.  A sample whose v_g is below this
# many times its Gram's trace takes the eigendecomposition instead, so the
# two differ by at most about k eps / CHOLESKY_GUARD = 2.2e-10 k in a
# sample's log-determinant, and not at all at or below the guard.
CHOLESKY_GUARD = 1e-6


class ParameterError(ValueError):
    """An estimator or data-model setting out of its range; `field` names
    the setting and `reason` says what is wrong with it."""

    def __init__(self, field: str, message: str):
        self.field, self.reason = field, message
        super().__init__(f"{field} {message}")


class RejectedSample(ValueError):
    """A streaming tick refused a sample because taking it would make the
    estimator's state non-finite; the state is left as it was."""


@dataclass(frozen=True, eq=False)
class ObservedSample:
    """One partially observed data vector.

    omega: strictly increasing observed coordinate indices (0-based).
    values: observed entries, aligned with omega.
    group: 0-based noise-group label.

    Two samples are equal when their groups, omegas and values are; like
    their arrays, samples are unhashable.
    """

    omega: np.ndarray
    values: np.ndarray
    group: int

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=np.intp)
        values = np.asarray(self.values, dtype=np.float64)
        if omega.ndim != 1 or values.ndim != 1 or omega.shape != values.shape:
            raise ValueError("omega and values must be 1-d arrays of equal length")
        if omega.size and ((omega[1:] <= omega[:-1]).any() or omega[0] < 0):
            raise ValueError("omega must be strictly increasing and nonnegative")
        if not np.isfinite(values).all():
            raise ValueError("observed values must be finite")
        try:
            group = operator.index(self.group)
        except TypeError:
            raise ValueError("group label must be an integer") from None
        if group < 0:
            raise ValueError("group label must be nonnegative")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "group", group)

    @classmethod
    def _checked(cls, omega: np.ndarray, values: np.ndarray,
                 group: int) -> "ObservedSample":
        """A sample from parts its caller has already held to the rules of
        `__post_init__`: omega a 1-d intp array, strictly increasing and
        nonnegative, values a float64 array as long and finite, group
        nonnegative.  Nothing is checked again.  The fields are set as
        `__init__` sets them, in field order: touching `sample.__dict__`
        would give each sample a dict of its own (248 bytes against 105)."""
        sample = cls.__new__(cls)
        object.__setattr__(sample, "omega", omega)
        object.__setattr__(sample, "values", values)
        object.__setattr__(sample, "group", group)
        return sample

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool(self.group == other.group
                    and np.array_equal(self.omega, other.omega)
                    and np.array_equal(self.values, other.values))

    @property
    def nobs(self) -> int:
        return self.omega.size

    @staticmethod
    def full(values, group: int) -> "ObservedSample":
        """Sample with every coordinate observed."""
        values = np.asarray(values, dtype=np.float64)
        return ObservedSample(np.arange(values.size), values, group)


class PosteriorStats(NamedTuple):
    """Posterior moments of the latent coefficients given one sample.

    m: k-by-k symmetric positive definite matrix; the posterior covariance
       of z given the sample is v_g * m.
    zbar: posterior mean of z.
    """

    m: np.ndarray
    zbar: np.ndarray


def floor_variances(v: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(v, dtype=np.float64), VARIANCE_FLOOR)


def check_factors(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
        raise ValueError("factor matrix must be d x k with d, k >= 1")
    if not np.all(np.isfinite(f)):
        raise ValueError("factor matrix must be finite")
    return f


def _lapack(gufunc, message: str):
    """Call one of numpy.linalg's LAPACK gufuncs as the public function does,
    without its per-call wrapper (array coercion, type dispatch, a new
    errstate), which costs more than LAPACK itself on a 3 x 3 or 100 x 3
    problem.  The kernel raises the floating-point invalid flag only where
    LAPACK reports a failure (it then fills its output with NaN); as in
    numpy.linalg, that flag raises LinAlgError(message) and no warning.
    The inputs must be float64 arrays of the kernel's core shapes, so the
    result is the public function's, bit for bit."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore",
                       divide="ignore", under="ignore")(gufunc)


_solve1 = _lapack(_umath_linalg.solve1, "Singular matrix")
_eigh = _lapack(_umath_linalg.eigh_lo, "Eigenvalues did not converge")
_lstsq = _lapack(_umath_linalg.lstsq,
                 "SVD did not converge in Linear Least Squares")
_EPS = float(np.finfo(np.float64).eps)
# A matrix LAPACK cannot factor comes back as NaN, found per sample by its
# caller, so the invalid flag is not raised as an error.
_cholesky = np.errstate(invalid="ignore")(_umath_linalg.cholesky_lo)

# Samples per scatter of `DatasetEvaluator`'s dense build, so that the flat
# omegas, values and row labels of a scatter stay a small fraction of y and
# w.  At timing_desk's size (n = 25,000, d = 200, 20% observed) one scatter
# of every row raised the build's peak RSS by 16 MB over a per-sample loop,
# and blocks of this many rows by 0.5 MB, at the same speed.
_SCATTER_ROWS = 1024


def least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares x of a x = b for an m x n float64 a
    (m >= 1) and a length-m b: `np.linalg.lstsq(a, b, rcond=None)[0]`, bit
    for bit, and LinAlgError where it raises.  The streaming baselines call
    it once per tick."""
    m, n = a.shape
    return _lstsq(a, b[:, None], _EPS * max(n, m))[0][:, 0]


def solve_rows(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Solve r[j] x_j = s[j] for a stack of float64 row systems in one
    batched call, `np.linalg.solve`'s kernel bit for bit.  Its callers are
    SHASTA's factor step and the batch f-step.

    If any system is singular (where `np.linalg.solve` raises), every row
    falls back to its minimum-norm least-squares solution.  A SHASTA tick
    reaches this at w_t = 1 (the 1/t schedule's first tick) with v_g near
    the floor: the stored systems are zeroed, so a row's new system is
    zbar zbar'/v_g + m, and m = (F_o' F_o + v_g I)^-1 can be singular in
    float64 (eigenvalues 0 and 1e12 at v_g = 1e-12, F_o = [100, 100],
    y_o = 0)."""
    try:
        return _solve1(r, s)
    except np.linalg.LinAlgError:
        return np.stack([least_squares(rj, sj) for rj, sj in zip(r, s)])


def posterior_stats(f: np.ndarray | None, v: np.ndarray, sample: ObservedSample,
                    *, parts=None) -> PosteriorStats:
    """E-step statistics for one sample at the parameters (f, v).

    Returns m = (F_o' F_o + v_g I)^{-1} and zbar = m F_o' y_o, where F_o and
    y_o restrict to the sample's observed coordinates.  Only the observed
    rows of f are read, so the cost is O(|omega| k^2 + k^3) whatever d is:
    they must be finite, and the other rows are never inspected.

    parts, if given, must be `observed_parts(f[sample.omega], sample.values)`;
    f is then not read at all (it may be None), and only the O(k^2) step
    from the parts to m and zbar at this v_g is done.  A streaming tick
    needs the E-step at two values of v_g with the same F_o and forms the
    parts once for both.
    """
    if parts is None:
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] < 1:
            raise ValueError("factor matrix must be d x k with k >= 1")
        parts = observed_parts(f[sample.omega], sample.values)
    return parts.posterior(max(float(v[sample.group]), VARIANCE_FLOOR))


class ObservedParts(NamedTuple):
    """The parts of a sample's E-step and likelihood that do not depend on
    v_g, and the formulas that read them at a floored v_g.

    fo: the observed rows F_o; evals, evecs: the eigendecomposition
    F_o' F_o = Q diag(lambda) Q' (lambda >= 0, see `_gram_spectrum`); proj:
    Q' F_o' y_o.  For a stack of samples (`DatasetEvaluator.parts`) evals,
    evecs and proj gain a leading sample axis, vg is an array with one entry
    per sample, and fo is the whole factor matrix.
    """

    fo: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray
    proj: np.ndarray

    def mean(self, vg) -> np.ndarray:
        """The posterior mean zbar = Q (proj/(lambda + v_g))."""
        if isinstance(vg, float):
            return self.evecs @ ((1.0 / (self.evals + vg)) * self.proj)
        scale = 1.0 / (self.evals + np.asarray(vg)[..., None])
        return (self.evecs @ (scale * self.proj)[..., None])[..., 0]

    def posterior(self, vg) -> PosteriorStats:
        """The mean, as `mean`, and m = Q diag(1/(lambda + v_g)) Q'."""
        if isinstance(vg, float):
            scale = 1.0 / (self.evals + vg)
            half = self.evecs * np.sqrt(scale)
            return PosteriorStats(m=half @ half.T,
                                  zbar=self.evecs @ (scale * self.proj))
        scale = 1.0 / (self.evals + np.asarray(vg)[..., None])
        half = self.evecs * np.sqrt(scale)[..., None, :]
        zbar = (self.evecs @ (scale * self.proj)[..., None])[..., 0]
        return PosteriorStats(m=half @ half.swapaxes(-1, -2), zbar=zbar)

    def fit_trace(self, vg):
        """tr(F_o' F_o m) = sum lambda/(lambda + v_g)."""
        if isinstance(vg, float):
            return (self.evals / (self.evals + vg)).sum()
        return (self.evals / (self.evals + np.asarray(vg)[..., None])).sum(axis=-1)

    def log_likelihood(self, vg, nobs, ysq):
        """-ln det(F_o F_o' + v_g I) - y_o' (F_o F_o' + v_g I)^{-1} y_o, from
        the sample's observed-entry count nobs and y_o' y_o.

        det(F_o F_o' + v I_n) = v^(n-k) det(F_o' F_o + v I_k) for any n, k,
        and y_o' F_o m F_o' y_o = sum proj^2/(lambda + v_g).  The quadratic
        form is a difference divided by v_g, so it carries an absolute
        rounding error of about eps y_o' y_o / v_g.
        """
        shifted = self.evals + np.asarray(vg)[..., None]
        logdet = ((nobs - self.evals.shape[-1]) * np.log(vg)
                  + np.log(shifted).sum(axis=-1))
        quad = (ysq - (self.proj ** 2 / shifted).sum(axis=-1)) / vg
        return -logdet - quad


def observed_parts(fo: np.ndarray, values: np.ndarray) -> ObservedParts:
    """ObservedParts from a sample's observed factor rows fo (|omega| x k)
    and its observed values.  The rows and their Gram must be finite; if
    they are not, the sample is rejected.

    A non-finite entry of fo makes its column's diagonal entry of the Gram,
    and so the Gram's sum, non-finite; a finite sum therefore clears fo and
    the Gram in one reduction, and the Gram itself is scanned only when the
    sum is not finite (such an entry, or overflow)."""
    gram = fo.T @ fo
    if not (math.isfinite(gram.sum()) or np.isfinite(gram).all()):
        raise RejectedSample("observed factor rows and their Gram must be "
                             "finite")
    evals, evecs = _gram_spectrum(gram)
    return ObservedParts(fo, evals, evecs, evecs.T @ (fo.T @ values))


def _gram_spectrum(gram: np.ndarray):
    """`np.linalg.eigh` of one float64 k x k Gram matrix or a stack of them,
    bit for bit, with every eigenvalue at or below k ZERO_EIGENVALUE
    lambda_max set to 0."""
    evals, evecs = _eigh(gram)
    top = evals[-1] if evals.ndim == 1 else evals[..., -1:]
    evals[evals <= (gram.shape[-1] * ZERO_EIGENVALUE) * top] = 0.0
    return evals, evecs


def _stacked_parts(f: np.ndarray, grams: np.ndarray,
                   fy: np.ndarray) -> ObservedParts:
    """ObservedParts of a stack of samples from their Grams F_o' F_o and
    their F_o' y_o (see `DatasetEvaluator.parts`)."""
    evals, evecs = _gram_spectrum(grams)
    proj = (np.swapaxes(evecs, 1, 2) @ fy[..., None])[..., 0]
    return ObservedParts(f, evals, evecs, proj)


class DatasetEvaluator:
    """Log-likelihood of a fixed dataset, vectorized across samples.

    Precomputes dense mask/value arrays once (y is 0 off each sample's
    mask) so repeated evaluations at new parameters (solver iterations,
    traces) cost one Gram, one y @ f and one batched k x k factorization
    instead of a Python loop.
    """

    def __init__(self, samples, d: int):
        samples = list(samples)
        n = len(samples)
        self.d = int(d)
        self.y = np.zeros((n, d))
        self.w = np.zeros((n, d))
        self.groups = np.fromiter((s.group for s in samples), np.intp, n)
        for lo in range(0, n, _SCATTER_ROWS):
            block = samples[lo:lo + _SCATTER_ROWS]
            lengths = np.fromiter((s.omega.size for s in block), np.intp,
                                  len(block))
            rows = np.repeat(np.arange(lo, lo + len(block)), lengths)
            omegas = np.concatenate([s.omega for s in block])
            bad = np.flatnonzero(omegas >= d)
            if bad.size:
                i = rows[bad[0]]
                raise ValueError(f"sample {i} observes coordinate "
                                 f"{samples[i].omega[-1]} >= d={d}")
            self.y[rows, omegas] = np.concatenate([s.values for s in block])
            self.w[rows, omegas] = 1.0
        self.nobs = self.w.sum(axis=1)
        self.ysq = np.einsum("nd,nd->n", self.y, self.y)

    def _grams(self, f: np.ndarray):
        """Every sample's Gram F_o' F_o at f (n x k x k) and F_o' y_o (n x
        k); a Gram that overflows raises ValueError instead of a numpy
        warning."""
        k = f.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = (f[:, :, None] * f[:, None, :]).reshape(self.d, k * k)
            grams = (self.w @ pairs).reshape(-1, k, k)
            if not (math.isfinite(grams.sum()) or np.isfinite(grams).all()):
                raise ValueError("per-sample Gram F_o' F_o is not finite")
        return grams, self.y @ f

    def parts(self, f: np.ndarray) -> ObservedParts:
        """Every sample's ObservedParts at f, stacked along a leading axis; a
        Gram that overflows raises ValueError instead of a numpy warning."""
        return _stacked_parts(f, *self._grams(f))

    def __call__(self, f: np.ndarray, v: np.ndarray) -> float:
        """Half the sum of every sample's `ObservedParts.log_likelihood` at
        (f, v), from one batched Cholesky factor L of F_o' F_o + v_g I:
        the log-determinant is (nobs - k) ln v_g + 2 sum ln L_jj and the
        quadratic form (y_o' y_o - ||L^-1 F_o' y_o||^2)/v_g.  A sample whose
        factorization fails, or whose v_g is below CHOLESKY_GUARD times its
        Gram's trace, takes the eigendecomposition's value instead."""
        f = check_factors(f)
        vg = floor_variances(v)[self.groups]
        grams, fy = self._grams(f)
        n, k = fy.shape
        diag = grams.reshape(n, k * k)[:, ::k + 1]
        gram_diag = diag.copy()
        diag += vg[:, None]
        chol = _cholesky(grams)
        # L^-1 F_o' y_o by forward substitution, one column at a time.
        z = np.empty_like(fy)
        for j in range(k):
            known = np.einsum("ni,ni->n", chol[:, j, :j], z[:, :j])
            z[:, j] = (fy[:, j] - known) / chol[:, j, j]
        pivots = np.diagonal(chol, axis1=1, axis2=2)
        logdet = (self.nobs - k) * np.log(vg) + 2.0 * np.log(pivots).sum(axis=1)
        loglik = -logdet - (self.ysq - np.einsum("nk,nk->n", z, z)) / vg
        fallback = np.flatnonzero(
            ~np.isfinite(loglik) | (vg < CHOLESKY_GUARD * gram_diag.sum(axis=1)))
        if fallback.size:
            grams = grams[fallback]
            grams.reshape(-1, k * k)[:, ::k + 1] = gram_diag[fallback]
            parts = _stacked_parts(f, grams, fy[fallback])
            loglik[fallback] = parts.log_likelihood(
                vg[fallback], self.nobs[fallback], self.ysq[fallback])
        loglik[self.nobs == 0] = 0.0
        return float(0.5 * np.sum(loglik))
