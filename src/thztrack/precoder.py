"""Adaptive-beamwidth precoders for a half-wavelength ULA.

A precoder that spreads its main lobe over the sine-space interval
[theta_m - delta, theta_m + delta] has elements (0-based index n)

    f_n = beta * exp(-j * n * pi * theta_m) * Sa(delta * (omega - n * pi))

where Sa(x) = sin(x)/x, omega is a free shape parameter, and beta normalises
the vector to unit power. With delta = 0 the taper is exactly 1, beta is
1/sqrt(N), and the precoder is maximum ratio transmission (MRT) towards
theta_m; :func:`mrt_precoder` builds MRT that way, so every beam belongs to
this one family. The beamforming gain towards a direction is |a^H f|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ArrayConfig, response_matrix
from .geometry import AngularInterval

_UNIT_POWER_TOL = 1e-9
_DEGENERATE_SUM = 1e-300


@dataclass(frozen=True, eq=False)
class Precoder:
    """Unit-power complex weight vector plus the parameters that generated it."""

    weights: np.ndarray
    theta_m: float
    delta: float
    omega: float
    beta: float

    def __post_init__(self):
        power = float(np.vdot(self.weights, self.weights).real)  # sum |w_n|^2 in one pass
        if not abs(power - 1.0) <= _UNIT_POWER_TOL:  # also rejects NaN weights
            raise ValueError(f"precoder power {power!r} violates the unit constraint")


def sample_fn(x):
    """Sampling kernel Sa(x) = sin(x)/x, exactly 1 where x == 0. Accepts arrays.

    Dividing sin(x) by x directly keeps full relative accuracy as x -> 0. sin and the
    division run unmasked over the whole input, which is faster than ``where=`` passes;
    the 0/0 entries are then overwritten with 1.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)  # an array even for 0-d x, where np.sin returns a scalar
    np.sin(x, out=out)
    with np.errstate(invalid="ignore"):
        np.divide(out, x, out=out)
    out[x == 0.0] = 1.0
    return out


TAPER_DIRECT = 0.25


def taper_table(delta, n_antennas: int) -> tuple[np.ndarray, np.ndarray]:
    """Arguments b and rot of :func:`taper` for ``delta`` given as (...), built once per beam:
    b_n = delta * pi * n as (..., 1, N) and [cos b; -sin b] as (..., 2, N)."""
    b = np.asarray(delta, dtype=float)[..., None, None] * (np.pi * np.arange(n_antennas))
    return b, np.concatenate([np.cos(b), -np.sin(b)], axis=-2)


def taper(a: np.ndarray, b: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Tapers g_n = Sa(a - b_n) as (..., P, N) for a = delta * omega given as (..., P).

    sin(a - b_n) = [sin a, cos a] @ [cos b_n; -sin b_n] takes two trig calls per
    a instead of one per antenna. Where |a - b_n| < TAPER_DIRECT that difference
    loses relative accuracy, so Sa takes a - b_n directly, which is exact where
    a and b_n are that close; those entries are gathered once by flat index.
    x = a - b_n is the K = 2 product [a, 1] @ [1; -b_n]: both of its products are
    exact and their sum is rounded once, so it has the bits of the subtraction.
    """
    pair = np.empty(a.shape + (2,))
    pair[..., 0], pair[..., 1] = a, 1.0
    x = np.matmul(pair, np.concatenate([np.ones_like(b), -b], axis=-2))
    g = np.abs(x)
    near = np.less(g, TAPER_DIRECT)
    np.sin(a, out=pair[..., 0])
    np.cos(a, out=pair[..., 1])
    np.matmul(pair, rot, out=g)
    with np.errstate(divide="ignore", invalid="ignore"):
        g /= x  # x == 0 only where near
    flat = np.flatnonzero(near)
    g.put(flat, sample_fn(x.take(flat)))
    return g


@lru_cache(maxsize=8)
def _antenna_indices(n_antennas: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices n = 0, ..., N-1 and pi * n, built once per antenna count."""
    n = np.arange(n_antennas)
    pi_n = np.pi * n
    n.flags.writeable = pi_n.flags.writeable = False
    return n, pi_n


def adaptive_precoder(interval: AngularInterval, omega: float, cfg: ArrayConfig) -> Precoder:
    """Construct the unit-power precoder covering ``interval`` with shape ``omega``.

    At delta = 0 the taper is exactly 1 for any finite omega, so its sum of squares is N
    and the product with it changes no bit: that beam skips the taper.
    """
    delta = interval.delta
    n, pi_n = _antenna_indices(cfg.n_antennas)
    steering = np.exp(-1j * np.pi * interval.theta_m * n)
    if delta == 0.0:
        if not math.isfinite(omega):
            raise ValueError(f"shape parameter omega must be finite, got {omega!r}")
        beta = 1.0 / np.sqrt(float(cfg.n_antennas))
        weights = beta * steering
    else:
        g = sample_fn(delta * omega - delta * pi_n)
        total = float(np.dot(g, g))
        if total <= _DEGENERATE_SUM:
            raise ValueError("taper coefficients sum to zero; degenerate parameters")
        beta = 1.0 / np.sqrt(total)
        weights = beta * steering * g
    return Precoder(
        weights=weights,
        theta_m=interval.theta_m,
        delta=interval.delta,
        omega=omega,
        beta=beta,
    )


def mrt_precoder(sin_dir: float, cfg: ArrayConfig) -> Precoder:
    """Maximum ratio transmission towards ``sin_dir`` in (-1, 1): the delta = 0 beam, a(s) / sqrt(N)."""
    return adaptive_precoder(AngularInterval(sin_dir, 0.0), 0.0, cfg)


def beam_gain(responses: np.ndarray, precoder: Precoder) -> np.ndarray:
    """Gain |a^H f|^2 = |sum_n a_n conj(f_n)|^2 for each response row a (see
    :func:`~thztrack.channel.response_rows`).

    The sum runs in ``np.einsum``'s own loop rather than a BLAS product, so a
    trace never wakes the BLAS thread pool.
    """
    amp = np.einsum("ij,j->i", responses, np.conj(precoder.weights))
    return amp.real**2 + amp.imag**2


def bf_gain_profile(sin_dirs, precoder: Precoder, cfg: ArrayConfig) -> np.ndarray:
    """Beamforming gain |a(s)^H f|^2, in [0, N], at each direction: the one-call form
    of :func:`~thztrack.channel.response_matrix` and :func:`beam_gain`."""
    if len(precoder.weights) != cfg.n_antennas:
        raise ValueError("precoder length does not match the antenna count")
    return beam_gain(response_matrix(sin_dirs, cfg), precoder)
