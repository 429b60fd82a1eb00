"""Batch alternating minorize-maximize solver for the heteroscedastic model.

Each iteration updates the noise variances with the factors held fixed, then
updates the factors row by row with the variances held fixed.  Both updates
maximize the EM surrogate in closed form, so the observed-data log-likelihood
is non-decreasing across iterations.  Each iteration forms the model's one
k x k kernel (`DatasetEvaluator.parts`: one Gram and one batched
eigendecomposition) once, at its factors, and both steps read it.  Also
provides the closed-form homoscedastic PPCA solution used as a batch
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DatasetEvaluator, check_factors, floor_variances, solve_rows

# Relative ridge added to each row system before solving; rows observed by
# very few samples can otherwise be numerically singular.
ROW_RIDGE = 1e-10


@dataclass
class BatchProblem:
    """A fully materialized partially observed dataset; the constructor
    checks it and builds its dense arrays (`DatasetEvaluator`) once."""

    samples: list
    num_groups: int
    d: int
    k: int
    dense: DatasetEvaluator = field(init=False, repr=False, compare=False)

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
    and rho the posterior-expected residual power.  Groups with no observed
    entries keep their previous value.  parts must be `problem.dense.parts(F)`
    at the fixed factors F (its `fo`); it is not checked.
    """
    v_prev = floor_variances(v_prev)
    dense = problem.dense
    vg = v_prev[dense.groups]

    # w (y - zbar F'), in one n x d buffer.
    resid = parts.mean(vg) @ parts.fo.T
    np.subtract(dense.y, resid, out=resid)
    resid *= dense.w
    rss = np.einsum("nd,nd->n", resid, resid)
    rho_i = rss + vg * parts.fit_trace(vg)

    theta = np.zeros(problem.num_groups)
    rho = np.zeros(problem.num_groups)
    np.add.at(theta, dense.groups, dense.nobs)
    np.add.at(rho, dense.groups, rho_i)

    v_new = v_prev.copy()
    seen = theta > 0
    v_new[seen] = rho[seen] / theta[seen]
    return floor_variances(v_new)


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

    observed_rows = dense.w.sum(axis=0) > 0
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
        del parts  # freed before the log-likelihood forms its own: peak memory
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
