"""Evaluation metrics and per-run traces.

Subspace error is the rotation-invariant projector distance
(1/k) ||U_hat U_hat' - U U'||_F^2, computed through the k x k cross-Gram so no
d x d matrix is ever formed.  Log-likelihood gaps are differences of
dataset log-likelihoods, so the dropped constants cancel exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import DatasetEvaluator, check_factors


def _basis_gram(u: np.ndarray, tol: float = 1e-8):
    """The basis as float64 and its Gram u'u, after checking orthonormality."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError("basis must be a d x k matrix")
    gram = u.T @ u
    if np.linalg.norm(gram - np.eye(u.shape[1])) > tol:
        raise ValueError("basis columns are not orthonormal to 1e-8")
    return u, gram


def subspace_error(u_hat: np.ndarray, u: np.ndarray) -> float:
    """(1/k) ||U_hat U_hat' - U U'||_F^2, which is 2 (k - ||U_hat' U||_F^2) / k.

    Expanded as (||U_hat' U_hat||^2 + ||U' U||^2 - 2 ||U_hat' U||^2) / k, so a
    basis compared with itself gives exactly 0; the result is clamped to
    [0, 2] to absorb rounding.
    """
    u_hat, gram_hat = _basis_gram(u_hat)
    u, gram = _basis_gram(u)
    if u_hat.shape != u.shape:
        raise ValueError("bases must have matching shapes")
    cross = u_hat.T @ u
    error = (np.sum(gram_hat * gram_hat) + np.sum(gram * gram)
             - 2.0 * np.sum(cross * cross)) / u.shape[1]
    return min(max(float(error), 0.0), 2.0)


def loglik_gap(f, v, samples, f_star, v_star) -> float:
    """Log-likelihood relative to the reference parameters, on one build of
    the data's dense arrays."""
    evaluator = DatasetEvaluator(list(samples), check_factors(f).shape[0])
    return evaluator(f, v) - evaluator(f_star, v_star)


def variance_error(v_hat, v_star) -> np.ndarray:
    """Elementwise relative error |v_hat - v_star| / v_star."""
    v_hat = np.asarray(v_hat, dtype=np.float64)
    v_star = np.asarray(v_star, dtype=np.float64)
    if np.any(v_star <= 0):
        raise ValueError("reference variances must be positive")
    return np.abs(v_hat - v_star) / v_star


@dataclass(frozen=True)
class MetricRecord:
    t: int
    subspace_error: float
    loglik_gap: float | None = None
    v_estimates: np.ndarray | None = None
    elapsed_seconds: float = 0.0


@dataclass
class MetricTrace:
    """Checkpointed metric records for one run; indices strictly increase."""

    num_groups: int
    records: list = field(default_factory=list)

    def append(self, t: int, subspace_error: float, loglik_gap: float | None = None,
               v_estimates=None, elapsed_seconds: float = 0.0) -> None:
        if self.records and t <= self.records[-1].t:
            raise ValueError("checkpoint indices must strictly increase")
        if not 0.0 <= subspace_error <= 2.0 + 1e-12:
            raise ValueError("subspace error must lie in [0, 2]")
        if v_estimates is not None:
            v_estimates = np.asarray(v_estimates, dtype=np.float64)
            if v_estimates.size != self.num_groups:
                raise ValueError("variance estimates must have one entry per group")
        self.records.append(MetricRecord(t, float(subspace_error),
                                         loglik_gap, v_estimates,
                                         float(elapsed_seconds)))

    @property
    def header(self) -> list:
        return (["t", "subspace_error", "loglik_gap"]
                + [f"v_{i + 1}" for i in range(self.num_groups)]
                + ["elapsed_s"])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.header)
            for rec in self.records:
                row = [rec.t, repr(rec.subspace_error)]
                row.append("" if rec.loglik_gap is None else repr(rec.loglik_gap))
                if rec.v_estimates is None:
                    row.extend([""] * self.num_groups)
                else:
                    row.extend(repr(float(x)) for x in rec.v_estimates)
                row.append(repr(rec.elapsed_seconds))
                writer.writerow(row)

    @staticmethod
    def read_csv(path) -> "MetricTrace":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            num_groups = len(header) - 4
            trace = MetricTrace(num_groups=num_groups)
            for row in reader:
                v_cells = row[3:3 + num_groups]
                trace.append(
                    t=int(row[0]),
                    subspace_error=float(row[1]),
                    loglik_gap=float(row[2]) if row[2] else None,
                    v_estimates=([float(c) for c in v_cells]
                                 if all(v_cells) else None),
                    elapsed_seconds=float(row[-1]),
                )
        return trace
