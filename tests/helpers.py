"""Shared test utilities: random instances and independent dense oracles.

The oracles here deliberately form the |omega| x |omega| covariance (or the
joint Gaussian over latent coefficients and observations) densely, run the
streaming tick in its eager form, or evaluate one sample's likelihood and EM
surrogate directly, taking the slow-but-obvious route that the library
avoids.
"""

import csv
import struct

import numpy as np

from shastapca.datagen import Epoch, ScenarioScript, draw_group
from shastapca.harness import CsvFormatError, _columns
from shastapca.metrics import MetricTrace
from shastapca.model import (VARIANCE_FLOOR, ObservedSample, check_factors,
                             floor_variances, observed_parts, posterior_stats)


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


def sample_log_likelihood(f, v, sample):
    """Observed-entry log-likelihood term for one sample, constants dropped:
    ln det(F_o F_o' + v_g I)^{-1} - y_o' (F_o F_o' + v_g I)^{-1} y_o,
    evaluated through the package's k x k parts (`observed_parts`), the
    per-sample form of `DatasetEvaluator`."""
    f = check_factors(f)
    if sample.nobs == 0:
        return 0.0
    y = sample.values
    parts = observed_parts(f[sample.omega], y)
    vg = float(floor_variances(v)[sample.group])
    return float(parts.log_likelihood(vg, sample.nobs, y @ y))


def minorizer_value(f, v, anchor_f, anchor_v, sample):
    """EM surrogate for one sample, anchored at (anchor_f, anchor_v), by
    direct evaluation.

    Twice this value minorizes sample_log_likelihood up to an additive
    constant fixed by matching at the anchor.  The solvers use closed-form
    maximizers of its sum; the property tests evaluate it directly.
    """
    f = check_factors(f)
    n = sample.nobs
    if n == 0:
        return 0.0
    vg = float(floor_variances(v)[sample.group])
    anchor_vg = float(floor_variances(anchor_v)[sample.group])
    stats = posterior_stats(anchor_f, anchor_v, sample)
    fo = f[sample.omega]
    y = sample.values
    fz = fo @ stats.zbar
    quad_tr = float(np.sum((fo @ stats.m) * fo))
    return float(
        -0.5 * n * np.log(vg)
        - 0.5 * (y @ y) / vg
        + (y @ fz) / vg
        - 0.5 * (fz @ fz + anchor_vg * quad_tr) / vg
    )


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


def step_parts(state, sample):
    """The parts `ingest` shares between `v_step` and `f_step`, for composing
    the two steps by hand."""
    return observed_parts(state.observed_rows(sample.omega), sample.values)


def one_pass_v_step(parts, v_prev, problem):
    """`batch.batch_v_step` with its residual w (y - zbar F') formed in one n x
    d buffer and each group's entry count summed on every call."""
    v_prev = floor_variances(v_prev)
    dense = problem.dense
    vg = v_prev[dense.groups]
    resid = parts.mean(vg) @ parts.fo.T
    np.subtract(dense.y, resid, out=resid)
    resid *= dense.w
    rho_i = np.einsum("nd,nd->n", resid, resid) + vg * parts.fit_trace(vg)
    theta = np.zeros(problem.num_groups)
    rho = np.zeros(problem.num_groups)
    np.add.at(theta, dense.groups, dense.nobs)
    np.add.at(rho, dense.groups, rho_i)
    v_new = v_prev.copy()
    seen = theta > 0
    v_new[seen] = rho[seen] / theta[seen]
    return floor_variances(v_new)


def write_csv_stream(samples, d, path, variances=None):
    """Serialize samples to the dataset CSV format (round-trips exactly)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["group"] + [f"y{j}" for j in range(d)]
        if variances is not None:
            header.insert(1, "variance")
        writer.writerow(header)
        for i, s in enumerate(samples):
            cells = [""] * d
            for j, val in zip(s.omega, s.values):
                cells[j] = repr(float(val))
            row = [str(s.group)] + cells
            if variances is not None:
                row.insert(1, repr(float(variances[i])))
            writer.writerow(row)


def inline_csv_samples(path, num_groups=None):
    """`harness.read_csv_samples` as it was before its parse moved into a
    reader process: every row parsed, checked and built in this process."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        group_col, var_col, value_cols = _columns(header)
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, "
                                     f"got {len(row)}")
                omega, values = [], []
                for j, col in enumerate(value_cols):
                    cell = row[col]
                    if cell != "":
                        values.append(float(cell))
                        omega.append(j)
                variance = (None if var_col is None or row[var_col] == ""
                            else float(row[var_col]))
                if variance is not None and not np.isfinite(variance):
                    raise ValueError(f"variance {variance} is not finite")
                group = int(row[group_col])
                if num_groups is not None and not 0 <= group < num_groups:
                    raise ValueError(f"group {group} outside [0, {num_groups})")
                sample = ObservedSample(np.array(omega, dtype=np.intp),
                                        np.array(values), group)
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
            yield sample, variance


# Inputs on which F_o' F_o + v_g I is singular or nearly so, or huge, for
# `degenerate`.
DEGENERATE = ("as_drawn", "zero_column", "duplicate_column", "few_observed",
              "floor_variance", "empty_sample", "scaled_1e6")


def degenerate(rng, case, f, v, samples):
    """The instance (f, v, samples) remade into one of the DEGENERATE inputs
    ("as_drawn" returns it unchanged), as new arrays and samples:

    - zero_column, duplicate_column: F, and so every F_o, is rank-deficient;
    - few_observed: each sample keeps its first k - 1 entries, |omega| < k;
    - floor_variance: every v_g is VARIANCE_FLOOR and every sample observes
      (new values at) the first k coordinates, whose rows of F are made a
      well-conditioned k x k matrix, so that the dense oracles stay well
      conditioned;
    - empty_sample: the first sample observes nothing;
    - scaled_1e6: F times 1e6, each sample keeping at most k entries (with
      more, the dense oracles' |omega| x |omega| covariance has a condition
      number of about 1e12 / v_g).
    """
    f, v = np.array(f, dtype=np.float64), np.array(v, dtype=np.float64)
    k = f.shape[1]

    def keep(s, count):
        return ObservedSample(s.omega[:count], s.values[:count], s.group)

    if case == "zero_column":
        f[:, 0] = 0.0
    elif case == "duplicate_column":
        f[:, -1] = f[:, 0]
    elif case == "few_observed":
        samples = [keep(s, k - 1) for s in samples]
    elif case == "floor_variance":
        v[:] = VARIANCE_FLOOR
        f[:k] = orthonormal(rng, k, k) * rng.uniform(1.0, 2.0, size=k)
        samples = [ObservedSample(np.arange(k), rng.standard_normal(k), s.group)
                   for s in samples]
    elif case == "empty_sample":
        samples = [keep(samples[0], 0)] + list(samples[1:])
    elif case == "scaled_1e6":
        f *= 1e6
        samples = [keep(s, k) for s in samples]
    elif case != "as_drawn":
        raise ValueError(f"unknown case {case!r}")
    return f, v, list(samples)


def quad_rounding(v, sample):
    """The absolute rounding error the likelihood kernel may make in one
    sample's quadratic form: a few eps y_o' y_o / v_g (the form is a
    difference divided by v_g; see `ObservedParts.log_likelihood`)."""
    vg = max(float(v[sample.group]), VARIANCE_FLOOR)
    return 16 * np.finfo(float).eps * float(sample.values @ sample.values) / vg


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


class EagerPetrels:
    """PETRELS in its eager form: every tick discounts all d row systems
    r[j] by `forgetting`, then adds zhat zhat' to the observed rows' systems
    and solves them with `np.linalg.solve` for the factor update.  The
    package keeps the inverse systems instead and updates them by the
    matrix-inversion lemma."""

    def __init__(self, f0, forgetting=1.0, delta=0.1):
        f0 = np.asarray(f0, dtype=np.float64)
        d, k = f0.shape
        self.f = f0.copy()
        self.r = np.broadcast_to(delta * np.eye(k), (d, k, k)).copy()
        self.forgetting = float(forgetting)

    def ingest(self, sample):
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
        step = np.linalg.solve(r_o, (resid[:, None] * zhat)[:, :, None])
        self.f[omega] += step[:, :, 0]


def draw_sample(model, rng, group=None):
    """Fully observed draw y = U sqrt(lam) z + eps, eps ~ N(0, v_g I), with
    the group drawn from the model's law when not given: the group, z and
    then eps are drawn from rng in that order."""
    if group is None:
        group = draw_group(model.group_cdf, rng)
    z = rng.standard_normal(model.k)
    eps = np.sqrt(model.v_star[group]) * rng.standard_normal(model.d)
    return ObservedSample.full((model.u * np.sqrt(model.spectrum)) @ z + eps,
                               group)


def mask_uniform(sample, p, rng):
    """Keep each observed coordinate independently with probability p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("observation probability must lie in (0, 1]")
    if p == 1.0:
        return sample
    keep = rng.random(sample.nobs) < p
    return ObservedSample(sample.omega[keep], sample.values[keep], sample.group)


def static_script(d, k, spectrum, v_star, group_counts, observe_prob=1.0):
    """Single-epoch script with exact group counts in shuffled order."""
    return ScenarioScript(
        d=d, k=k, spectrum=tuple(spectrum), v_star=tuple(v_star),
        epochs=(Epoch(samples=int(np.sum(group_counts))),),
        observe_prob=observe_prob, group_counts=tuple(group_counts),
    )


def read_trace(path):
    """The MetricTrace that `MetricTrace.write_csv` wrote to path."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        num_groups = len(next(reader)) - 4
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
    from shastapca.shasta import CHECKPOINT_MAGIC

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
    }
