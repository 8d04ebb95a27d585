"""Independent re-derivations of the program's results, for correctness checks.

Nothing here imports thztrack: every quantity is recomputed from the paper's
formulas with plain numpy, so agreement with the program is evidence that
both are right. The checks run outside the timed phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
GRID_POINTS = 257  # omega points of the independent grid search


@dataclass(frozen=True)
class Link:
    """Scenario numbers in the units of the INI configuration."""

    n_antennas: int
    carrier_hz: float
    tx_power_dbm: float
    noise_dbmhz: float
    bandwidth_hz: float
    absorption_per_m: float
    distance_m: float
    start_angle: float
    end_angle: float
    tau: float
    time_step: float
    alpha: float
    n_quad: int

    def with_power(self, tx_power_dbm: float) -> "Link":
        return Link(**{**self.__dict__, "tx_power_dbm": tx_power_dbm})

    @property
    def snr_scale(self) -> float:
        """Transmit power over noise power, both in watts."""
        p = 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)
        n0 = 10.0 ** ((self.noise_dbmhz - 30.0) / 10.0)
        return p / (n0 * self.bandwidth_hz)

    def amplitude(self, d):
        """Free-space amplitude gain with molecular absorption."""
        d = np.asarray(d, dtype=float)
        spread = SPEED_OF_LIGHT / (4.0 * math.pi * d * self.carrier_hz)
        return spread * np.exp(-0.5 * self.absorption_per_m * d)

    def rate(self, bf_gain, d):
        h = self.amplitude(d)
        return self.bandwidth_hz * np.log2(1.0 + self.snr_scale * h * h * bf_gain)

    def r_min(self) -> float:
        """Outage threshold: 10% of the aligned MRT rate at the start pose."""
        d = self.distance_m / math.cos(self.start_angle)
        return 0.1 * float(self.rate(float(self.n_antennas), d))


def sa(x):
    """sin(x)/x with the removable singularity filled in."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


# ---------------------------------------------------------------------------
# Period objective of one codebook cell
# ---------------------------------------------------------------------------


def cell_path(link: Link, theta_m: float, delta: float):
    """Sines and ranges at the Gauss-Legendre nodes of the canonical cell path.

    The target moves at constant velocity along the line x = D from the point
    seen at sine theta_m - delta to the point seen at theta_m + delta, taking
    exactly one sensing period.
    """
    nodes, weights = np.polynomial.legendre.leggauss(link.n_quad)
    t = 0.5 * link.tau * (nodes + 1.0)
    s0, s1 = theta_m - delta, theta_m + delta
    y0 = link.distance_m * s0 / math.sqrt(1.0 - s0 * s0)
    y1 = link.distance_m * s1 / math.sqrt(1.0 - s1 * s1)
    y = y0 + (y1 - y0) * t / link.tau
    r = np.hypot(link.distance_m, y)
    return y / r, r, 0.5 * link.tau * weights


def taper_weights(n_antennas: int, theta_m: float, delta: float, omegas) -> np.ndarray:
    """Unit-power adaptive precoders, one column per omega (antennas x omegas)."""
    n = np.arange(n_antennas)
    g = sa(delta * (np.asarray(omegas, dtype=float)[None, :] - math.pi * n[:, None]))
    g = g / np.sqrt(np.sum(g * g, axis=0))[None, :]
    return np.exp(-1j * math.pi * theta_m * n)[:, None] * g


def cell_objective(link: Link, theta_m: float, delta: float, omegas, r_min: float) -> np.ndarray:
    """Penalised average rate of the cell for each omega."""
    sins, dists, w = cell_path(link, theta_m, delta)
    n = np.arange(link.n_antennas)
    a_conj = np.exp(1j * math.pi * np.outer(sins, n))  # rows are a(s)^H
    amp = a_conj @ taper_weights(link.n_antennas, theta_m, delta, omegas)
    rates = link.rate(np.abs(amp) ** 2, dists[:, None])
    penalised = rates - link.alpha * np.maximum(0.0, r_min - rates)
    return (w @ penalised) / link.tau


def grid_search_best(link: Link, theta_m: float, delta: float, bounds, r_min: float) -> float:
    omegas = np.linspace(*bounds, GRID_POINTS)
    return float(np.max(cell_objective(link, theta_m, delta, omegas, r_min)))


# ---------------------------------------------------------------------------
# Conventional (per-period MRT) tracking episode
# ---------------------------------------------------------------------------


def mrt_gain(n_antennas: int, ds):
    """|a(s)^H a(s0)|^2 / N as a Dirichlet kernel of the sine offset ds = s - s0."""
    ds = np.asarray(ds, dtype=float)
    half = 0.5 * math.pi * ds
    den = np.sin(half)
    out = np.full_like(ds, float(n_antennas))
    nz = np.abs(den) > 1e-300
    out[nz] = np.sin(n_antennas * half[nz]) ** 2 / (n_antennas * den[nz] ** 2)
    return out


def period_layout(link: Link, velocity: float):
    """Sample times of an episode and the sensing period each falls in."""
    y_start = link.distance_m * math.tan(link.start_angle)
    y_end = link.distance_m * math.tan(link.end_angle)
    duration = (y_end - y_start) / velocity
    count = int(math.floor(duration / link.time_step + 1e-9))
    t = np.arange(count + 1) * link.time_step
    n_periods = max(1, int(math.ceil(duration / link.tau - 1e-9)))
    return t, np.minimum(np.floor(t / link.tau + 1e-9).astype(int), n_periods - 1)


def sine_range(link: Link, velocity: float, t):
    """Sine direction and range of the target at times t."""
    y = link.distance_m * math.tan(link.start_angle) + velocity * np.asarray(t, dtype=float)
    r = np.hypot(link.distance_m, y)
    return y / r, r


def conventional_metrics(link: Link, velocity: float, r_min: float):
    """(average rate, outage probability, realignments) of the MRT baseline.

    Samples every time step along the straight path, holds each period's beam
    at the sine seen at the period start, and aggregates over the scenario's
    angular window with trapezoidal time weighting.
    """
    t, period = period_layout(link, velocity)
    n_periods = int(period[-1]) + 1
    s, r = sine_range(link, velocity, t)
    s_epoch, _ = sine_range(link, velocity, np.arange(n_periods) * link.tau)
    rates = link.rate(mrt_gain(link.n_antennas, s - s_epoch[period]), r)

    lo, hi = math.sin(link.start_angle), math.sin(link.end_angle)
    keep = (s >= lo - 1e-12) & (s <= hi + 1e-12)
    tk, rk = t[keep], rates[keep]
    avg = float(np.sum(0.5 * (rk[1:] + rk[:-1]) * np.diff(tk)) / (tk[-1] - tk[0]))
    outage = float(np.mean(rk < r_min))
    epochs = np.arange(n_periods) * link.tau
    realign = int(np.sum((epochs >= tk[0]) & (epochs <= tk[-1])))
    return avg, outage, realign


def predicted_interval(link: Link, velocity: float, period: int) -> tuple[float, float]:
    """(centre, half-width) in sine space swept during one sensing period."""
    s, _ = sine_range(link, velocity, np.array([period, period + 1]) * link.tau)
    return 0.5 * float(s[0] + s[1]), 0.5 * abs(float(s[1] - s[0]))
