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

# A sample's residual ||y_o - F_o zbar||^2 is y_o' y_o - sum c_i (2 proj_i -
# lambda_i c_i), with c_i = proj_i/(lambda_i + v_g), and the likelihood's
# y_o' (F_o F_o' + v_g I)^-1 y_o is (y_o' y_o - sum c_i proj_i)/v_g: O(k)
# work each, but differences of terms up to y_o' y_o, so off by about
# (k + 2) eps y_o' y_o.  Where a difference is below this many times y_o' y_o
# (y_o near the span of F_o at a small v_g), it could be off by more than
# (k + 2) eps / RESIDUAL_GUARD = 1.1e-13 relative at k = 3, and the sample
# forms y_o - F_o zbar over its observed entries instead (`ObservedParts`).
RESIDUAL_GUARD = 1e-2


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
            if isinstance(self.group, bool):  # an int, but not a label
                raise TypeError
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

# Samples per scatter of the dense build (`zero_filled`), so that the flat
# omegas, values and row labels of a scatter stay a small fraction of y and
# w.  At timing_desk's size (n = 25,000, d = 200, 20% observed) one scatter
# of every row raised the build's peak RSS by 16 MB over a per-sample loop,
# and blocks of this many rows by 0.5 MB, at the same speed.
_SCATTER_ROWS = 1024

# Observed share of a dataset's entries, nnz/(n d), below which
# `DatasetEvaluator` keeps its samples flat instead of as dense n x d rows.
# One batch iteration (k = 3, one BLAS thread, 2-vCPU VM, median of 9
# alternated rounds), dense against flat, at 1%, 2%, 5%, 10% and 20%
# observed: n = 5,000, d = 200: 38.4/21.8, 38.1/22.8, 36.7/32.0, 41.1/40.6
# and 41.2/65.5 ms; n = 300, d = 10,000: 66.6/13.2, 66.8/19.6, 67.4/38.6,
# 69.2/65.9 and 56.3/114.7 ms.  The forms are even at about 10% on both
# shapes; below this constant flat is at least 13% faster on both.
FLAT_DENSITY = 0.05

# Floats per block of the dense residual pass (`_residual_power`; one
# buffer, reused).  One v-step at timing_desk's size (n = 25,000, d = 200,
# k = 3, 20% observed, one BLAS thread, 2-vCPU VM), median of 15
# interleaved rounds, against 40.3 ms for one n x d buffer: 2^12 floats
# 24.9 ms, 2^14 24.5, 2^15 21.0, 2^16 20.2, 2^17 21.1, 2^18 23.0, 2^20 24.7.
RESIDUAL_BLOCK = 1 << 16

# BLAS rounds the last few columns of a product differently with the size of
# the row group its kernel takes them in (up to 12 rows in OpenBLAS), so a
# block starts and ends on a multiple of this many rows, the last block
# excepted, which ends where the whole product does.  Its product is then
# the one-pass product's, bit for bit, at one BLAS thread (1,200 random
# shapes).  With more threads BLAS splits the one-pass product by thread,
# and the two can differ in the last bit, as thread counts already do.
_ROW_ALIGN = 48


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


def posterior_stats(v: np.ndarray, sample: ObservedSample,
                    parts: ObservedParts) -> PosteriorStats:
    """E-step statistics for one sample at the variances v, from its parts
    `observed_parts(F_o, y_o)`, F_o and y_o restricting the factors and the
    sample to its observed coordinates.

    Returns m = (F_o' F_o + v_g I)^{-1} and zbar = m F_o' y_o: only the
    O(k^2) step from the parts at this v_g is done.  A streaming tick forms
    the parts once and shares them between its two steps.
    """
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
        return (self.evals / (self.evals + np.asarray(vg)[..., None])).sum(axis=-1)

    def residual(self, zbar: np.ndarray, y: np.ndarray) -> float:
        """||y_o - F_o zbar||^2 for one sample, formed over its observed
        values y."""
        r = y - self.fo @ zbar
        return float(r @ r)

    def residual_power(self, vg: float, y: np.ndarray) -> float:
        """The variance step's ||y_o - F_o zbar||^2 + v_g tr(F_o' F_o m) for
        one sample at a floored v_g, y its observed values.

        The residual is y_o' y_o - sum c_i (2 proj_i - lambda_i c_i) and the
        trace sum lambda/(lambda + v_g), O(k) sums on Python floats; where
        the residual is below RESIDUAL_GUARD y_o' y_o, or y_o' y_o is not
        finite, it is formed over the observed entries (`residual` at
        `mean`)."""
        ysq = float(y @ y)
        rss, fit = ysq, 0.0
        for lam, proj in zip(self.evals.tolist(), self.proj.tolist()):
            c = proj / (lam + vg)
            rss -= c * (2.0 * proj - lam * c)
            fit += lam / (lam + vg)
        if not RESIDUAL_GUARD * ysq <= rss < math.inf:
            rss = self.residual(self.mean(vg), y)
        return rss + vg * fit

    def log_likelihood(self, vg, nobs, ysq, residual):
        """-ln det(F_o F_o' + v_g I) - y_o' (F_o F_o' + v_g I)^{-1} y_o, from
        the sample's observed-entry count nobs and y_o' y_o, and
        residual(zbar), which gives ||y_o - F_o zbar||^2 over its observed
        entries (for a stack, a function of the stacked means giving each
        sample's).

        det(F_o F_o' + v I_n) = v^(n-k) det(F_o' F_o + v I_k) for any n, k,
        and y_o' F_o m F_o' y_o = sum proj^2/(lambda + v_g).  The quadratic
        form (y_o' y_o - sum proj^2/(lambda + v_g))/v_g takes O(k); where
        the difference is below RESIDUAL_GUARD y_o' y_o it has cancelled,
        and the sample takes the equal ||y_o - F_o zbar||^2/v_g + ||zbar||^2
        instead.
        """
        vg = np.asarray(vg)
        shifted = self.evals + vg[..., None]
        logdet = ((nobs - self.evals.shape[-1]) * np.log(vg)
                  + np.log(shifted).sum(axis=-1))
        diff = ysq - (self.proj ** 2 / shifted).sum(axis=-1)
        quad = diff / vg
        cancelled = ~(diff >= RESIDUAL_GUARD * ysq)
        if cancelled.any():
            zbar = self.mean(vg)
            quad = np.where(cancelled, residual(zbar) / vg
                            + np.einsum("...k,...k->...", zbar, zbar), quad)
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
    if evals.ndim == 1:
        cut = (gram.shape[-1] * ZERO_EIGENVALUE) * evals[-1]
        if evals[0] > cut:  # eigh sorts ascending: nothing to cut
            return evals, evecs
    else:
        cut = (gram.shape[-1] * ZERO_EIGENVALUE) * evals[..., -1:]
    evals[evals <= cut] = 0.0
    return evals, evecs


def _stacked_parts(f: np.ndarray, grams: np.ndarray,
                   fy: np.ndarray) -> ObservedParts:
    """ObservedParts of a stack of samples from their Grams F_o' F_o and
    their F_o' y_o (see `DatasetEvaluator.parts`)."""
    evals, evecs = _gram_spectrum(grams)
    proj = (np.swapaxes(evecs, 1, 2) @ fy[..., None])[..., 0]
    return ObservedParts(f, evals, evecs, proj)


def _flatten(samples: list, d: int, first: int = 0):
    """The concatenated omegas of a list of samples and each entry's sample
    index, counted from `first`; ValueError naming the first sample that
    observes a coordinate >= d."""
    lengths = np.fromiter((s.omega.size for s in samples), np.intp,
                          len(samples))
    rows = np.repeat(np.arange(first, first + len(samples)), lengths)
    omegas = np.concatenate([s.omega for s in samples])
    bad = np.flatnonzero(omegas >= d)
    if bad.size:
        i = rows[bad[0]]
        raise ValueError(f"sample {i} observes coordinate "
                         f"{samples[i - first].omega[-1]} >= d={d}")
    return omegas, rows


def zero_filled(samples: list, d: int, *, mask: bool = False):
    """The n x d rows of a list of samples, 0 off each sample's omega, and
    with mask=True also the n x d mask of their observed entries (1.0 on
    omega), scattered _SCATTER_ROWS samples at a time.  A sample observing
    a coordinate >= d raises ValueError."""
    n = len(samples)
    y = np.zeros((n, d))
    w = np.zeros((n, d)) if mask else None
    for lo in range(0, n, _SCATTER_ROWS):
        block = samples[lo:lo + _SCATTER_ROWS]
        omegas, rows = _flatten(block, d, lo)
        y[rows, omegas] = np.concatenate([s.values for s in block])
        if mask:
            w[rows, omegas] = 1.0
        del omegas, rows  # freed before the next block's are made: peak memory
    return (y, w) if mask else y


def _residual_power(mean: np.ndarray, fo: np.ndarray, y: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """||w_i (y_i - fo mean_i)||^2 for every row i of the n x d y and w, in
    blocks of rows through one buffer (see RESIDUAL_BLOCK, _ROW_ALIGN).
    numpy takes a one-row product to gemv, which rounds differently again,
    so a last block of one row joins the block before it."""
    n, d = y.shape
    rows = max(_ROW_ALIGN, RESIDUAL_BLOCK // d // _ROW_ALIGN * _ROW_ALIGN)
    starts = list(range(0, n, rows))
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    buf = np.empty((min(n, rows + 1), d))
    rss = np.empty(n)
    for lo, hi in zip(starts, starts[1:] + [n]):
        block = buf[:hi - lo]
        np.matmul(mean[lo:hi], fo.T, out=block)
        np.subtract(y[lo:hi], block, out=block)
        block *= w[lo:hi]
        np.einsum("nd,nd->n", block, block, out=rss[lo:hi])
    return rss


class DatasetEvaluator:
    """Log-likelihood of a fixed dataset, vectorized across samples, and the
    three kernels that read the dataset's values: every sample's Gram with
    its F_o' y_o (`parts`), every sample's residual (`residuals`), and each
    coordinate's sums over the samples observing it (`row_sums`).

    A dataset with at least FLAT_DENSITY of its n x d entries observed is
    kept dense: y, its values with 0 off each sample's omega, and w, the
    masks (`zero_filled`); each kernel is then one product over the n x d
    rows.  A sparser one is kept flat (`flat` is True): the concatenated
    omegas and values, each entry's sample and each non-empty sample's
    first entry.  Each kernel is then a gather plus per-sample sums
    (`np.add.reduceat`) or per-coordinate sums (`np.bincount`), O(nnz k^2)
    whatever d is.  The two forms agree to rounding, and no other module
    reads either.  groups, nobs (observed entries, as floats) and ysq
    (y_o' y_o) hold one entry per sample in both.
    """

    def __init__(self, samples, d: int):
        samples = list(samples)
        n = len(samples)
        self.d = int(d)
        self.groups = np.fromiter((s.group for s in samples), np.intp, n)
        lengths = np.fromiter((s.omega.size for s in samples), np.intp, n)
        self.nobs = lengths.astype(np.float64)
        self.flat = bool(lengths.sum() < FLAT_DENSITY * n * self.d)
        if not self.flat:
            self.y, self.w = zero_filled(samples, self.d, mask=True)
            self.ysq = np.einsum("nd,nd->n", self.y, self.y)
            return
        self._omegas, self._sample = _flatten(samples, self.d)
        self._values = np.concatenate([s.values for s in samples])
        self._nonempty = np.flatnonzero(lengths)
        self._starts = (np.cumsum(lengths) - lengths)[self._nonempty]
        self.ysq = self._sample_sums(self._values * self._values)

    def _sample_sums(self, x: np.ndarray) -> np.ndarray:
        """Each sample's sum of the per-entry x of a flat dataset, 0 for a
        sample observing nothing: `np.add.reduceat` gives the entry at a
        repeated offset, not 0, so it reads the non-empty samples' first
        entries only."""
        out = np.zeros(self.nobs.size)
        if self._starts.size:
            out[self._nonempty] = np.add.reduceat(x, self._starts)
        return out

    def _grams(self, f: np.ndarray):
        """Every sample's Gram F_o' F_o at f (n x k x k) and F_o' y_o (n x
        k); a Gram that overflows raises ValueError instead of a numpy
        warning."""
        k = f.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            if self.flat:
                n = self.nobs.size
                fo = np.ascontiguousarray(f.T)[:, self._omegas]
                grams, fy = np.empty((n, k, k)), np.empty((n, k))
                for a in range(k):
                    fy[:, a] = self._sample_sums(fo[a] * self._values)
                    for b in range(a, k):
                        grams[:, a, b] = grams[:, b, a] = self._sample_sums(
                            fo[a] * fo[b])
            else:
                pairs = (f[:, :, None] * f[:, None, :]).reshape(self.d, k * k)
                grams = (self.w @ pairs).reshape(-1, k, k)
            if not (math.isfinite(grams.sum()) or np.isfinite(grams).all()):
                raise ValueError("per-sample Gram F_o' F_o is not finite")
        return grams, (fy if self.flat else self.y @ f)

    def parts(self, f: np.ndarray) -> ObservedParts:
        """Every sample's ObservedParts at f, stacked along a leading axis; a
        Gram that overflows raises ValueError instead of a numpy warning."""
        return _stacked_parts(f, *self._grams(f))

    def residuals(self, f: np.ndarray, mean: np.ndarray,
                  rows: np.ndarray | None = None) -> np.ndarray:
        """||y_o - F_o mean_i||^2 of every sample i over its observed
        entries; given rows (increasing sample indices), of those samples
        only, mean holding their rows.  Dense, the residual passes a block
        of rows at a time through one buffer of about RESIDUAL_BLOCK floats,
        never an n x d array, and at one BLAS thread is the one-pass
        product's, bit for bit."""
        if not self.flat:
            y, w = ((self.y, self.w) if rows is None
                    else (self.y[rows], self.w[rows]))
            return _residual_power(mean, f, y, w)
        if rows is not None:  # each given mean at its sample's row
            spread = np.zeros((self.nobs.size, f.shape[1]))
            spread[rows] = mean
            mean = spread
        r = self._values - np.einsum("ek,ek->e", f[self._omegas],
                                     mean[self._sample])
        rss = self._sample_sums(r * r)
        return rss if rows is None else rss[rows]

    def row_sums(self, a: np.ndarray, values: bool = False) -> np.ndarray:
        """For each coordinate j, the sum of the rows a_i (a is n x p) over
        the samples i observing j, each times y_ij if values: w' a or y' a,
        a d x p array."""
        if not self.flat:
            return (self.y if values else self.w).T @ a
        out = np.empty((a.shape[1], self.d))
        for column, col in enumerate(np.ascontiguousarray(a.T)):
            x = col[self._sample]
            if values:
                x *= self._values
            out[column] = np.bincount(self._omegas, x, minlength=self.d)
        return out.T

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
                vg[fallback], self.nobs[fallback], self.ysq[fallback],
                lambda zbar: self.residuals(f, zbar, fallback))
        loglik[self.nobs == 0] = 0.0
        return float(0.5 * np.sum(loglik))
