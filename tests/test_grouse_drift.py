"""GROUSE's orthonormality upkeep: a running bound on ||u'u - I|| replaces
the per-tick Gram without changing a single update."""

import numpy as np

from shastapca.baselines import Grouse
from shastapca.model import ObservedSample

from helpers import orthonormal


def planted_stream(rng, d, k, n, observe_prob):
    f_star = orthonormal(rng, d, k) * np.sqrt(np.arange(k, 0, -1.0))
    for _ in range(n):
        omega = np.flatnonzero(rng.random(d) < observe_prob)
        y = f_star @ rng.standard_normal(k) + 0.1 * rng.standard_normal(d)
        yield ObservedSample(omega, y[omega], 0)


def exact_check_ingest(u, sample, step):
    """GROUSE's update with the Gram measured after every update."""
    omega = sample.omega
    if omega.size == 0:
        return u
    uo = u[omega]
    w, *_ = np.linalg.lstsq(uo, sample.values, rcond=None)
    p = u @ w
    resid = sample.values - uo @ w
    rnorm, pnorm, wnorm = (np.linalg.norm(x) for x in (resid, p, w))
    if rnorm < 1e-14 * max(1.0, pnorm) or pnorm == 0.0 or wnorm == 0.0:
        return u
    angle = step * rnorm * pnorm
    r_full = np.zeros(u.shape[0])
    r_full[omega] = resid
    direction = (np.cos(angle) - 1.0) * p / pnorm + np.sin(angle) * r_full / rnorm
    u = u + np.outer(direction, w / wnorm)
    if np.linalg.norm(u.T @ u - np.eye(u.shape[1])) > Grouse.REORTH_DRIFT:
        q, rr = np.linalg.qr(u)
        u = q * np.sign(np.diag(rr))
    return u


def test_updates_match_per_tick_gram_check():
    # A small dense case, and a wide sparse one (|omega| ~ 20 of d = 2,000)
    # long enough for an exact drift measurement at RESYNC_EVERY updates.
    # The cases run in one test, so that its id stays as it was.
    for d, n, observe_prob in ((30, 5000, 0.3), (2000, 1200, 0.01)):
        rng = np.random.default_rng(40)
        u0 = orthonormal(rng, d, 3)
        est, ref = Grouse(u0, step=0.05), u0.copy()
        for sample in planted_stream(rng, d, 3, n, observe_prob):
            est.ingest(sample)
            ref = exact_check_ingest(ref, sample, 0.05)
        assert est.u.tobytes() == ref.tobytes(), d
    assert est._updates > Grouse.RESYNC_EVERY


def test_running_bound_covers_each_update():
    # Start well off orthonormal, with re-orthonormalization switched off,
    # so that u'u - I moves by more than rounding at every update; each
    # move must stay within what the bound adds for it.
    rng = np.random.default_rng(41)
    est = Grouse(orthonormal(rng, 40, 3), step=0.5)
    est.REORTH_DRIFT, est.RESYNC_EVERY = np.inf, 10**9
    est.u += 1e-4 * rng.standard_normal(est.u.shape)
    moves = []
    for sample in planted_stream(rng, 40, 3, 300, 0.3):
        gram, bound = est.u.T @ est.u, est._drift
        est.ingest(sample)
        move = np.linalg.norm(est.u.T @ est.u - gram)
        assert move <= (est._drift - bound) * (1 + 1e-6) + 1e-15
        moves.append(move)
    assert max(moves) > 1e-9


def test_natural_stream_stays_orthonormal():
    rng = np.random.default_rng(43)
    est = Grouse(orthonormal(rng, 40, 3), step=0.05)
    for sample in planted_stream(rng, 40, 3, 3000, 0.2):
        est.ingest(sample)
        assert np.linalg.norm(est.u.T @ est.u - np.eye(3)) <= Grouse.REORTH_DRIFT


def test_basis_pushed_off_orthonormal_is_repaired_by_resync():
    # Drift the running bound does not see (here, an outside edit) is found
    # by the exact measurement every RESYNC_EVERY updates.
    rng = np.random.default_rng(42)
    est = Grouse(orthonormal(rng, 20, 2), step=1e-4)
    est.u += 1e-6 * rng.standard_normal(est.u.shape)
    stream = planted_stream(rng, 20, 2, Grouse.RESYNC_EVERY, 1.0)
    for _ in range(Grouse.RESYNC_EVERY - 1):
        est.ingest(next(stream))
    assert np.linalg.norm(est.u.T @ est.u - np.eye(2)) > Grouse.REORTH_DRIFT
    est.ingest(next(stream))
    assert np.linalg.norm(est.u.T @ est.u - np.eye(2)) <= 1e-12
