"""Adaptive-beamwidth precoders for a half-wavelength ULA.

A precoder that spreads its main lobe over the sine-space interval
[theta_m - delta, theta_m + delta] has elements (0-based index n)

    f_n = beta * exp(-j * n * pi * theta_m) * Sa(delta * (omega - n * pi))

where Sa(x) = sin(x)/x, omega is a free shape parameter, and beta normalises
the vector to unit power. With delta = 0 the taper is flat and the precoder
collapses to maximum ratio transmission (MRT) towards theta_m. The
beamforming gain towards a direction is |a^H f|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    kind: str = "adaptive"

    def __post_init__(self):
        power = float(np.sum(np.abs(self.weights) ** 2))
        if not abs(power - 1.0) <= _UNIT_POWER_TOL:  # also rejects NaN weights
            raise ValueError(f"precoder power {power!r} violates the unit constraint")
        if self.kind not in ("adaptive", "mrt"):
            raise ValueError(f"unknown precoder kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.weights)

    def as_record(self) -> dict:
        """Export record: the generating parameters, from which the weights are rebuilt."""
        return {
            "theta_m": self.theta_m,
            "delta": self.delta,
            "omega": self.omega,
            "beta": self.beta,
        }


def sample_fn(x):
    """Sampling kernel Sa(x) = sin(x)/x, exactly 1 where x == 0. Accepts arrays.

    Dividing sin(x) by x directly keeps full relative accuracy as x -> 0.
    """
    x = np.asarray(x, dtype=float)
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


def beta_coeff(omega: float, delta: float, n_antennas: int) -> float:
    """Power-normalisation coefficient 1 / sqrt(sum_n g_n(omega)^2)."""
    if n_antennas < 2:
        raise ValueError(f"need at least 2 antennas, got {n_antennas!r}")
    g = sample_fn(delta * (omega - np.pi * np.arange(n_antennas)))
    total = float(np.dot(g, g))
    if total <= _DEGENERATE_SUM:
        raise ValueError("taper coefficients sum to zero; degenerate parameters")
    return 1.0 / np.sqrt(total)


def adaptive_precoder(interval: AngularInterval, omega: float, cfg: ArrayConfig) -> Precoder:
    """Construct the unit-power precoder covering ``interval`` with shape ``omega``."""
    n = np.arange(cfg.n_antennas)
    g = sample_fn(interval.delta * (omega - np.pi * n))
    beta = beta_coeff(omega, interval.delta, cfg.n_antennas)
    weights = beta * np.exp(-1j * np.pi * interval.theta_m * n) * g
    return Precoder(
        weights=weights,
        theta_m=interval.theta_m,
        delta=interval.delta,
        omega=omega,
        beta=beta,
        kind="adaptive",
    )


def mrt_precoder(sin_dir: float, cfg: ArrayConfig) -> Precoder:
    """Maximum ratio transmission beam towards ``sin_dir``: a(s) / sqrt(N)."""
    weights = response_matrix([sin_dir], cfg)[0] / np.sqrt(cfg.n_antennas)
    return Precoder(
        weights=weights,
        theta_m=sin_dir,
        delta=0.0,
        omega=0.0,
        beta=1.0 / np.sqrt(cfg.n_antennas),
        kind="mrt",
    )


def bf_gain_profile(sin_dirs, precoder: Precoder, cfg: ArrayConfig) -> np.ndarray:
    """Beamforming gain |a(s)^H f|^2 = |sum_n a_n(s) conj(f_n)|^2, in [0, N], at each direction.

    The sum runs in ``np.einsum``'s own loop rather than a BLAS product, so a
    trace never wakes the BLAS thread pool.
    """
    if len(precoder.weights) != cfg.n_antennas:
        raise ValueError("precoder length does not match the antenna count")
    amp = np.einsum("ij,j->i", response_matrix(sin_dirs, cfg), np.conj(precoder.weights))
    return amp.real**2 + amp.imag**2
