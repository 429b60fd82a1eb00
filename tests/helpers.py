"""Shared test utilities: random instances and independent dense oracles.

The oracles here deliberately form the |omega| x |omega| covariance (or the
joint Gaussian over latent coefficients and observations) densely, or run the
streaming tick in its eager form, taking the slow-but-obvious route that the
library avoids.
"""

import struct

import numpy as np

from shastapca.model import VARIANCE_FLOOR, ObservedSample


def random_instance(rng, d, k, num_groups, observe_prob=1.0, n=1,
                    factor_scale=1.0, v_range=(0.05, 2.0)):
    """Random factors, variances, and samples from an arbitrary (non-planted)
    generating process; suitable for algebraic identity checks."""
    f = factor_scale * rng.standard_normal((d, k))
    v = rng.uniform(*v_range, size=num_groups)
    samples = [random_sample(rng, d, num_groups, observe_prob) for _ in range(n)]
    return f, v, samples


def random_sample(rng, d, num_groups, observe_prob=1.0, scale=1.0):
    keep = rng.random(d) < observe_prob
    omega = np.flatnonzero(keep)
    values = scale * rng.standard_normal(omega.size)
    group = int(rng.integers(num_groups))
    return ObservedSample(omega, values, group)


def dense_sample_loglik(f, v, sample):
    """ln det(Sigma^-1) - y' Sigma^-1 y with Sigma formed explicitly."""
    if sample.nobs == 0:
        return 0.0
    fo = f[sample.omega]
    sigma = fo @ fo.T + v[sample.group] * np.eye(sample.nobs)
    sign, logdet = np.linalg.slogdet(sigma)
    y = sample.values
    return float(-logdet - y @ np.linalg.solve(sigma, y))


def conditioned_posterior(f, v, sample):
    """Mean and covariance of z | y_omega via dense joint-Gaussian conditioning.

    The joint over (z, y_omega) has covariance [[I, Fo'], [Fo, Fo Fo' + v I]].
    """
    k = f.shape[1]
    fo = f[sample.omega]
    sigma = fo @ fo.T + v[sample.group] * np.eye(sample.nobs)
    gain = np.linalg.solve(sigma, fo).T          # (k, |omega|) = Fo' Sigma^-1
    mean = gain @ sample.values
    cov = np.eye(k) - gain @ fo
    return mean, cov


def orthonormal(rng, d, k):
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.sign(np.diag(r))


class EagerShasta:
    """The SHASTA tick from its plain definitions, in eager form: every tick
    decays every row system (rbar_j, sbar_j) by 1 - w_t and moves every row
    of F to (1 - c_f) F_j + c_f fhat_j.  Each E-step inverts
    F_o' F_o + v_g I directly: at the old v_g for the variance step and at
    the new one for the factor step.

    Arrays are named as ShastaState's materialized views (f, v, r_bar,
    s_bar, fhat, theta_bar, rho_bar), so a package state and an oracle can
    be compared field by field.
    """

    def __init__(self, cfg, f0, v0):
        d, k = np.shape(f0)
        self.cfg = cfg
        self.f = np.array(f0, dtype=np.float64)
        self.v = np.maximum(np.array(v0, dtype=np.float64), VARIANCE_FLOOR)
        self.r_bar = np.broadcast_to(cfg.delta * np.eye(k), (d, k, k)).copy()
        self.s_bar = np.zeros((d, k))
        self.fhat = np.zeros((d, k))
        self.theta_bar = np.zeros(self.v.size)
        self.rho_bar = np.zeros(self.v.size)
        self.t = 0

    def _posterior(self, sample):
        fo = self.f[sample.omega]
        vg = max(float(self.v[sample.group]), VARIANCE_FLOOR)
        m = np.linalg.inv(fo.T @ fo + vg * np.eye(fo.shape[1]))
        return fo, vg, m, m @ (fo.T @ sample.values)

    def ingest(self, sample):
        cfg = self.cfg
        self.t += 1
        w = cfg.weights(self.t)
        w_v, c_v = ((1.0, 1.0) if cfg.variance_mode == "memoryless-single"
                    else (w, cfg.c_v))
        g, omega = sample.group, sample.omega

        fo, _, m, z = self._posterior(sample)
        resid = sample.values - fo @ z
        rho_t = (float(resid @ resid)
                 + float(self.v[g]) * float(np.trace(fo @ m @ fo.T)))
        self.theta_bar = (1.0 - w_v) * self.theta_bar
        self.rho_bar = (1.0 - w_v) * self.rho_bar
        self.theta_bar[g] += w_v * sample.nobs
        self.rho_bar[g] += w_v * rho_t
        seen = self.theta_bar > 0
        self.v[seen] = np.maximum(
            (1.0 - c_v) * self.v[seen]
            + c_v * (self.rho_bar[seen] / self.theta_bar[seen]), VARIANCE_FLOOR)

        _, vg, m, z = self._posterior(sample)
        self.r_bar *= 1.0 - w
        self.s_bar *= 1.0 - w
        for i, j in enumerate(omega):
            self.r_bar[j] += w * (np.outer(z, z) / vg + m)
            self.s_bar[j] += (w / vg) * sample.values[i] * z
            self.fhat[j] = np.linalg.solve(self.r_bar[j], self.s_bar[j])
        self.f = (1.0 - cfg.c_f) * self.f + cfg.c_f * self.fhat


def relative_gap(got, want):
    """max |got - want| / max |want|: a norm-wise relative difference (the
    plain max |got - want| where want is all zero)."""
    want = np.asarray(want)
    gap = float(np.max(np.abs(np.asarray(got) - want)))
    scale = float(np.max(np.abs(want)))
    return gap / scale if scale else gap


def crafted_checkpoints(valid: bytes) -> dict:
    """Checkpoint files whose header does not fit them, by name; `valid` is
    a STATE2 checkpoint written by save_state, whose body some of them
    reuse."""
    from shastapca.shasta import CHECKPOINT_MAGIC, STATE1_MAGIC

    def header(d=4, t=0, k=2, num_groups=2, sigma=1.0, gamma=1.0):
        return CHECKPOINT_MAGIC + struct.pack("<QQIIdd", d, t, k, num_groups,
                                              sigma, gamma)

    body = valid[48:]
    return {
        "huge_d": header(d=2**64 - 1, k=3),
        "zero_k": header(k=0) + body,
        "nan_sigma": header(sigma=float("nan")) + body,
        "zero_sigma": header(sigma=0.0) + body,
        "inf_gamma": header(gamma=float("inf")) + body,
        "negative_gamma": header(gamma=-0.5) + body,
        "short_header": valid[:40],
        "truncated": valid[:-1],
        "trailing": valid + b"\0",
        "state1_huge_d": STATE1_MAGIC + struct.pack("<QQQQ", 2**64 - 1, 3, 2, 0),
    }
