"""Reference computations for the benchmark's correctness checks.

Everything here is written from the model and the SHASTA-PCA update
equations, one sample and one row at a time with explicit inverses, and
shares no code with the package.  It is slow on purpose: it is the yardstick
the package's vectorized paths are held to.

Model: y = F z + eps, z ~ N(0, I_k), eps ~ N(0, v_g I); each sample observes
the coordinates omega.  Log-likelihoods drop additive constants, as the
package's do.
"""

from __future__ import annotations

import numpy as np

# The model floors every variance it consumes at this value.
VARIANCE_FLOOR = 1e-12


def dense_log_likelihood(f, v, samples) -> float:
    """Observed-data log-likelihood with every covariance formed explicitly.

    Returns 0.5 * sum_i (-ln det S_i - y_i' S_i^{-1} y_i) where
    S_i = F_o F_o' + v_g I is the |omega_i| x |omega_i| covariance of the
    observed entries of sample i.
    """
    total = 0.0
    for s in samples:
        n = s.omega.size
        if n == 0:
            continue
        fo = f[s.omega]
        sigma = fo @ fo.T + max(float(v[s.group]), VARIANCE_FLOOR) * np.eye(n)
        _, logdet = np.linalg.slogdet(sigma)
        total += -logdet - s.values @ np.linalg.solve(sigma, s.values)
    return 0.5 * total


def subspace_distance(f, u) -> float:
    """(1/k) ||P_f - U U'||_F^2 for the column span of f and an orthonormal u."""
    q = np.linalg.svd(f, full_matrices=False)[0]
    cross = q.T @ u
    k = u.shape[1]
    return float(2.0 * (k - np.sum(cross * cross)) / k)


def weight(spec, t: int) -> float:
    """Surrogate weight w_t for a schedule written as in the configs:
    "1/t", "a/sqrt(t)" or a constant."""
    text = str(spec).replace(" ", "")
    if text == "1/t":
        return 1.0 / t
    if text.endswith("/sqrt(t)"):
        return min(1.0, float(text[: -len("/sqrt(t)")]) / np.sqrt(t))
    return float(text)


class ReferenceShasta:
    """SHASTA-PCA from the paper's per-tick update equations.

    Per tick t with weight w = w_t and the sample (omega, y, g):

    1. E-step at (F, v): M = (F_o' F_o + v_g I)^{-1}, z = M F_o' y.
    2. Variance step: theta <- (1-w) theta, rho <- (1-w) rho, then
       theta_g += w |omega| and rho_g += w (||y - F_o z||^2 + v_g tr(F_o M F_o'));
       every group with theta_l > 0 moves to
       v_l <- (1-c_v) v_l + c_v rho_l / theta_l.
    3. E-step again at (F, v) with the new variances.
    4. Factor step: every row decays, R_j <- (1-w) R_j and s_j <- (1-w) s_j;
       observed rows add R_j += w (z z' / v_g + M), s_j += w y_j z / v_g and
       re-solve fhat_j = R_j^{-1} s_j; then F <- (1-c_f) F + c_f fhat.

    R starts at delta I, s and fhat at zero.
    """

    def __init__(self, f0, v0, weights, c_f: float, c_v: float, delta: float):
        f0 = np.array(f0, dtype=np.float64)
        d, k = f0.shape
        self.f = f0
        self.v = np.maximum(np.array(v0, dtype=np.float64), VARIANCE_FLOOR)
        self.r = np.array([delta * np.eye(k) for _ in range(d)])
        self.s = np.zeros((d, k))
        self.fhat = np.zeros((d, k))
        self.theta = np.zeros(self.v.size)
        self.rho = np.zeros(self.v.size)
        self.weights = weights
        self.c_f = c_f
        self.c_v = c_v
        self.t = 0

    def _posterior(self, omega, y, g):
        fo = self.f[omega]
        vg = self.v[g]
        m = np.linalg.inv(fo.T @ fo + vg * np.eye(fo.shape[1]))
        return fo, vg, m, m @ (fo.T @ y)

    def step(self, omega, y, g: int) -> None:
        self.t += 1
        w = weight(self.weights, self.t)

        fo, vg, m, z = self._posterior(omega, y, g)
        resid = y - fo @ z
        self.theta = (1.0 - w) * self.theta
        self.rho = (1.0 - w) * self.rho
        self.theta[g] += w * len(omega)
        self.rho[g] += w * (resid @ resid + vg * np.trace(fo @ m @ fo.T))
        for l in range(self.v.size):
            if self.theta[l] > 0:
                self.v[l] = max((1.0 - self.c_v) * self.v[l]
                                + self.c_v * self.rho[l] / self.theta[l],
                                VARIANCE_FLOOR)

        _, vg, m, z = self._posterior(omega, y, g)
        self.r = (1.0 - w) * self.r
        self.s = (1.0 - w) * self.s
        for i, j in enumerate(omega):
            self.r[j] += w * (np.outer(z, z) / vg + m)
            self.s[j] += w * y[i] * z / vg
            self.fhat[j] = np.linalg.solve(self.r[j], self.s[j])
        self.f = (1.0 - self.c_f) * self.f + self.c_f * self.fhat


def reference_checkpoints(samples, f0, v0, spec: dict, truths: dict) -> dict:
    """Run ReferenceShasta over samples with the estimator settings in spec.

    truths maps each checkpoint tick t to the planted basis then (or None).
    Returns {t: (variances, subspace distance to that basis or None)}.
    """
    ref = ReferenceShasta(f0, v0, spec["weights"], spec["c_f"], spec["c_v"],
                          spec["delta"])
    out = {}
    for s in samples[: max(truths)]:
        ref.step(s.omega, s.values, s.group)
        if ref.t in truths:
            u = truths[ref.t]
            out[ref.t] = (ref.v.copy(),
                          None if u is None else subspace_distance(ref.f, u))
    return out
