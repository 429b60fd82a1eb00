"""Batch alternating minorize-maximize solver for the heteroscedastic model.

Each iteration updates the noise variances with the factors held fixed, then
updates the factors row by row with the variances held fixed.  Both updates
maximize the EM surrogate in closed form, so the observed-data log-likelihood
is non-decreasing across iterations.  Each iteration forms the model's
E-step kernel (`DatasetEvaluator.parts`: one Gram and one batched
eigendecomposition) once, at its factors, and both steps read it.  The
log-likelihood reported at the new iterate forms the Grams again and
factors them by one batched Cholesky (`DatasetEvaluator.__call__`).

An iteration's working memory is the dataset's two dense n x d arrays, O(n
k^2) for the parts, and one block of rows: the v-step passes its residual
through one reused buffer of about RESIDUAL_BLOCK floats, and the constants
both steps read (the observed coordinates, each group's entry count) are
formed once, with the problem.  Also provides the closed-form homoscedastic
PPCA solution used as a batch baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DatasetEvaluator, check_factors, floor_variances, solve_rows

# Relative ridge added to each row system before solving; rows observed by
# very few samples can otherwise be numerically singular.
ROW_RIDGE = 1e-10

# Floats per block of the v-step's residual pass (one buffer, reused).  One
# v-step at timing_desk's size (n = 25,000, d = 200, k = 3, 20% observed,
# one BLAS thread, 2-vCPU VM), median of 15 interleaved rounds, against
# 40.3 ms for one n x d buffer: 2^12 floats 24.9 ms, 2^14 24.5, 2^15 21.0,
# 2^16 20.2, 2^17 21.1, 2^18 23.0, 2^20 24.7.
RESIDUAL_BLOCK = 1 << 16

# BLAS rounds the last few columns of a product differently with the size of
# the row group its kernel takes them in (up to 12 rows in OpenBLAS), so a
# block starts and ends on a multiple of this many rows, the last block
# excepted, which ends where the whole product does.  Its product is then
# the one-pass product's, bit for bit, at one BLAS thread (1,200 random
# shapes).  With more threads BLAS splits the one-pass product by thread,
# and the two can differ in the last bit, as thread counts already do.
_ROW_ALIGN = 48


@dataclass
class BatchProblem:
    """A fully materialized partially observed dataset; the constructor
    checks it and builds its dense arrays (`DatasetEvaluator`) and the
    constants the solver's steps read once."""

    samples: list
    num_groups: int
    d: int
    k: int
    dense: DatasetEvaluator = field(init=False, repr=False, compare=False)
    # Coordinates some sample observes (the f-step solves only their rows).
    observed_rows: np.ndarray = field(init=False, repr=False, compare=False)
    # Observed entries per group (the v-step's divisor theta).
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.samples:
            raise ValueError("batch problem needs at least one sample")
        if self.k < 1 or self.k > self.d:
            raise ValueError("rank must satisfy 1 <= k <= d")
        self.dense = DatasetEvaluator(self.samples, self.d)
        groups = self.dense.groups
        bad = np.flatnonzero((groups < 0) | (groups >= self.num_groups))
        if bad.size:
            raise ValueError(f"sample {bad[0]} has group {groups[bad[0]]} "
                             f"outside [0, {self.num_groups})")
        self.observed_rows = self.dense.w.sum(axis=0) > 0
        self.theta = np.zeros(self.num_groups)
        np.add.at(self.theta, groups, self.dense.nobs)


@dataclass(frozen=True)
class BatchIterate:
    """One emitted iterate with its dataset log-likelihood."""

    f: np.ndarray
    v: np.ndarray
    iteration: int
    loglik: float


def batch_v_step(parts, v_prev: np.ndarray, problem: BatchProblem) -> np.ndarray:
    """Exact maximizer of the surrogate in the variances, factors fixed.

    For each group: v = rho / theta with theta the total observed-entry count
    (`problem.theta`) and rho the posterior-expected residual power.  Groups
    with no observed entries keep their previous value.  parts must be
    `problem.dense.parts(F)` at the fixed factors F (its `fo`); it is not
    checked.

    The residual power ||w_i (y_i - F zbar_i)||^2 is formed a block of rows
    at a time in one buffer of about RESIDUAL_BLOCK floats, never as an n x
    d array; at one BLAS thread the result is the one-pass formula's, bit
    for bit.
    """
    v_prev = floor_variances(v_prev)
    dense = problem.dense
    vg = v_prev[dense.groups]
    rss = _residual_power(parts.mean(vg), parts.fo, dense.y, dense.w)
    rho_i = rss + vg * parts.fit_trace(vg)

    rho = np.zeros(problem.num_groups)
    np.add.at(rho, dense.groups, rho_i)

    theta = problem.theta
    v_new = v_prev.copy()
    seen = theta > 0
    v_new[seen] = rho[seen] / theta[seen]
    return floor_variances(v_new)


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


def batch_f_step(parts, v: np.ndarray, problem: BatchProblem) -> np.ndarray:
    """Row-separable maximizer of the surrogate in the factors, variances fixed.

    Row j solves R_j f_j = s_j where R_j and s_j accumulate the posterior
    second moments of every sample observing coordinate j, inversely weighted
    by that sample's group variance.  Rows observed by no sample carry
    forward, and each solve is ridge-stabilized relative to trace(R_j).
    parts is as for `batch_v_step`, at the previous factors F.
    """
    dense = problem.dense
    k = problem.k
    vg = floor_variances(v)[dense.groups]
    m, zbar = parts.posterior(vg)

    contrib = zbar[:, :, None] * zbar[:, None, :] / vg[:, None, None] + m
    r = (dense.w.T @ contrib.reshape(-1, k * k)).reshape(problem.d, k, k)
    s = dense.y.T @ (zbar / vg[:, None])

    observed_rows = problem.observed_rows
    f_new = parts.fo.copy()
    if np.any(observed_rows):
        r_obs = r[observed_rows]
        eps = ROW_RIDGE * np.trace(r_obs, axis1=1, axis2=2) / k
        r_obs = r_obs + eps[:, None, None] * np.eye(k)
        f_new[observed_rows] = solve_rows(r_obs, s[observed_rows])
    return f_new


def batch_iterates(problem: BatchProblem, init_f: np.ndarray,
                   init_v: np.ndarray, iters: int, tol: float | None = None):
    """Alternate variance and factor updates, yielding each iterate as it is
    computed.

    Runs exactly `iters` iterations unless `tol` is given, in which case it
    stops early once the relative log-likelihood change drops below `tol`.
    init_f must be the problem's d x k and init_v hold one entry per group.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if tol is not None and not tol >= 0.0:
        raise ValueError("tol must be >= 0")
    f = check_factors(init_f).copy()
    v = floor_variances(init_v).copy()
    want_f, want_v = (problem.d, problem.k), (problem.num_groups,)
    if f.shape != want_f or v.shape != want_v:
        raise ValueError(f"init_f is {f.shape} and init_v {v.shape}; the "
                         f"problem needs {want_f} and {want_v}")
    evaluator = problem.dense
    prev = None
    for it in range(1, iters + 1):
        parts = evaluator.parts(f)
        v = batch_v_step(parts, v, problem)
        f = batch_f_step(parts, v, problem)
        del parts  # freed before the log-likelihood forms its Grams: peak memory
        loglik = evaluator(f, v)
        yield BatchIterate(f=f.copy(), v=v.copy(), iteration=it, loglik=loglik)
        if tol is not None and prev is not None:
            if abs(loglik - prev) <= tol * max(1.0, abs(prev)):
                break
        prev = loglik


def batch_solve(problem: BatchProblem, init_f: np.ndarray, init_v: np.ndarray,
                iters: int, tol: float | None = None) -> list[BatchIterate]:
    """Every iterate of `batch_iterates`, as a list."""
    return list(batch_iterates(problem, init_f, init_v, iters, tol))


def random_init(rng, d: int, k: int, num_groups: int):
    """Default initialization: factor entries N(0, 1/d), variances U(0, 1)."""
    f0 = rng.standard_normal((d, k)) / np.sqrt(d)
    v0 = rng.uniform(0.0, 1.0, size=num_groups)
    return f0, floor_variances(v0)


def ppca_closed_form(data: np.ndarray, k: int):
    """Closed-form maximum-likelihood PPCA fit for complete zero-mean data.

    data: n x d matrix, one sample per row, every entry observed.
    Returns (factors, noise_variance) with factors = U_k (diag(lam_k) -
    sigma^2 I)^(1/2) from the eigendecomposition of the second-moment matrix
    and sigma^2 the mean of the d-k trailing eigenvalues.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be an n x d matrix")
    n, d = data.shape
    if k >= d:
        raise ValueError("rank must be < ambient dimension")
    if n <= k:
        raise ValueError("need more samples than the rank")
    second_moment = data.T @ data / n
    eigvals, eigvecs = np.linalg.eigh(second_moment)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    sigma_sq = float(np.mean(eigvals[k:]))
    gaps = np.maximum(eigvals[:k] - sigma_sq, 0.0)
    factors = eigvecs[:, :k] * np.sqrt(gaps)
    return factors, sigma_sq
