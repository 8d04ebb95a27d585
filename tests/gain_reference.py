"""Reference forms of the kinematics, array response, gain and period objective that the
tests check the package against: scalar or per-element forms of its array paths.

Not named ``oracles``: ``perfbench/test_oracles.py`` imports its own
``oracles`` module, and both test directories sit on ``sys.path`` in one
pytest session.
"""

from __future__ import annotations

import math

import numpy as np

from thztrack import (
    AngularInterval,
    ArrayConfig,
    BsGeometry,
    ObjectiveSpec,
    Precoder,
    adaptive_precoder,
    channel_gain,
    predict_pose,
    sample_fn,
)
from thztrack.geometry import BS_FRAME
from thztrack.optimizer import _PeriodEvaluator, _omega_row
from thztrack.precoder import TAPER_DIRECT


def direction_of(position, geom: BsGeometry) -> tuple[float, float]:
    """(signed sine of the boresight angle, distance) of one position, in scalar math."""
    rx = position[0] - geom.origin[0]
    ry = position[1] - geom.origin[1]
    distance = math.hypot(rx, ry)
    if distance <= 0.0:
        raise ValueError("target position coincides with the base station origin")
    bx, by = geom.boresight
    return max(-1.0, min(1.0, (bx * ry - by * rx) / distance)), distance


def array_response(sin_dir: float, cfg: ArrayConfig) -> np.ndarray:
    """Array response with element n (0-based) exp(-j * n * pi * sin_dir): one exponential each."""
    if not -1.0 <= sin_dir <= 1.0:
        raise ValueError(f"sine direction must lie in [-1, 1], got {sin_dir!r}")
    return np.exp(-1j * np.pi * sin_dir * np.arange(cfg.n_antennas))


def bf_gain_direct(sin_dir: float, precoder: Precoder, cfg: ArrayConfig) -> float:
    """Beamforming gain |a(sin_dir)^H f|^2 towards one direction, in [0, N]."""
    if len(precoder.weights) != cfg.n_antennas:
        raise ValueError(
            f"precoder length {len(precoder.weights)} does not match {cfg.n_antennas} antennas"
        )
    a = array_response(sin_dir, cfg)
    return float(np.abs(np.vdot(a, precoder.weights)) ** 2)


def penalty(rate, r_min: float, alpha: float):
    """Linear shortfall penalty: -alpha * (r_min - rate) when rate <= r_min, else 0.

    Continuous at rate = r_min and non-positive everywhere. Accepts arrays.
    """
    r = np.asarray(rate, dtype=float)
    value = np.where(r <= r_min, -alpha * (r_min - r), 0.0)
    return float(value) if np.isscalar(rate) else value


def g_coeff(n: int, omega: float, delta: float) -> float:
    """Per-antenna taper coefficient Sa(delta * (omega - (n-1)*pi)), n 1-based."""
    if n < 1:
        raise ValueError(f"antenna index is 1-based, got {n!r}")
    if delta < 0.0:
        raise ValueError(f"half-width must be non-negative, got {delta!r}")
    return float(sample_fn(delta * (omega - (n - 1) * np.pi)))


def sample_fn_masked(x):
    """Sa(x) = sin(x)/x with sin and the division masked to x != 0, 1 elsewhere."""
    x = np.asarray(x, dtype=float)
    out, nonzero = np.ones_like(x), x != 0.0
    np.sin(x, out=out, where=nonzero)
    return np.divide(out, x, out=out, where=nonzero)


def taper_subtract_form(a: np.ndarray, b: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """:func:`~thztrack.precoder.taper` with x = a - b_n by ``np.subtract`` and its near
    entries by :func:`sample_fn_masked`."""
    x = np.subtract(a[..., None], b)
    g = np.abs(x)
    near = np.less(g, TAPER_DIRECT)
    trig = np.empty(a.shape + (2,))
    np.sin(a, out=trig[..., 0])
    np.cos(a, out=trig[..., 1])
    np.matmul(trig, rot, out=g)
    with np.errstate(divide="ignore", invalid="ignore"):
        g /= x  # x == 0 only where near
    flat = np.flatnonzero(near)
    g.put(flat, sample_fn_masked(x.take(flat)))
    return g


def bf_gain_closed_form(
    sin_dir: float,
    interval: AngularInterval,
    omega: float,
    cfg: ArrayConfig,
) -> float:
    """Beamforming gain via the expanded cosine form.

    gain = beta^2 * (sum_m g_m^2
                     + sum_{m>n} 2 cos(Theta_m - Theta_n) g_m g_n)

    with Theta_k = -(k-1) * pi * (theta_m - sin_dir); both angles live in sine
    space. Must agree with ``bf_gain_direct`` for the same parameters.
    """
    if not -1.0 <= sin_dir <= 1.0:
        raise ValueError(f"sine direction must lie in [-1, 1], got {sin_dir!r}")
    idx = np.arange(cfg.n_antennas)
    g = np.asarray(sample_fn(interval.delta * (omega - idx * np.pi)), dtype=float)
    beta = adaptive_precoder(interval, omega, cfg).beta
    theta = -idx * np.pi * (interval.theta_m - sin_dir)
    diag = float(np.dot(g, g))
    cross_matrix = 2.0 * np.cos(theta[:, None] - theta[None, :]) * np.outer(g, g)
    cross = float(np.sum(np.triu(cross_matrix, k=1)))
    return beta**2 * (diag + cross)


def bf_gain_profile_outer(sin_dirs, precoder: Precoder, cfg: ArrayConfig) -> np.ndarray:
    """Gain over many directions as conj(exp(-j pi outer(s, n))) @ f: one exponential per element."""
    n = np.arange(cfg.n_antennas)
    amp = np.conj(np.exp(-1j * np.pi * np.outer(sin_dirs, n))) @ precoder.weights
    return amp.real**2 + amp.imag**2


def period_rates(spec: ObjectiveSpec, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights (summing to tau) and node rates (nodes x omegas), complex form.

    Each omega's unit-power complex precoder ``exp(-j n pi theta_m) Sa(...) / norm``
    is built explicitly and its gain taken as ``|a^H f|^2`` at every node.
    """
    nodes, weights = np.polynomial.legendre.leggauss(spec.n_quad)
    t = 0.5 * spec.tau * (nodes + 1.0)
    directions = [
        direction_of(predict_pose(spec.state, float(tk), spec.tau), BS_FRAME) for tk in t
    ]
    sins, dists = (np.array(v) for v in zip(*directions))
    h0 = channel_gain(dists, spec.budget, spec.cfg)
    snr = spec.budget.tx_power * h0 * h0 / (spec.budget.noise_psd * spec.budget.bandwidth)
    n = np.arange(spec.cfg.n_antennas)
    omegas = np.asarray(omegas, dtype=float)
    g = np.asarray(sample_fn(spec.interval.delta * (omegas[None, :] - np.pi * n[:, None])))
    precoders = np.exp(-1j * np.pi * spec.interval.theta_m * n)[:, None] * g
    precoders /= np.sqrt(np.sum(g * g, axis=0))[None, :]
    amp = np.exp(1j * np.pi * np.outer(sins, n)) @ precoders
    gains = amp.real**2 + amp.imag**2
    rates = spec.budget.bandwidth * np.log1p(snr[:, None] * gains) / math.log(2)
    return 0.5 * spec.tau * weights, rates


def period_objective(spec: ObjectiveSpec, omegas) -> np.ndarray:
    """Penalised average rate over the period for each omega, complex form."""
    weights, rates = period_rates(spec, omegas)
    return (weights @ (rates + penalty(rates, spec.r_min, spec.alpha))) / spec.tau


def violation_masses(omegas, spec: ObjectiveSpec) -> np.ndarray:
    """Integral of the rate shortfall max(0, r_min - R(t)) over the period, per omega.

    Takes the package's own node rates, so a check against ``period_rates`` tests those.
    """
    ev = _PeriodEvaluator([spec])
    rates = ev.rates(_omega_row(omegas))[0]  # omegas x nodes
    return spec.tau * (np.maximum(0.0, spec.r_min - rates) @ ev.weights)
