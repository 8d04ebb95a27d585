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

from .channel import ArrayConfig, array_response, response_matrix
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

    def as_record(self, include_weights: bool = False) -> dict:
        """Export record: generating parameters, optionally the explicit weights.

        Weights are reconstructible from the parameters, which remain the
        canonical representation.
        """
        record = {
            "theta_m": self.theta_m,
            "delta": self.delta,
            "omega": self.omega,
            "beta": self.beta,
        }
        if include_weights:
            record["weights"] = [(float(w.real), float(w.imag)) for w in self.weights]
        return record


def sample_fn(x):
    """Sampling kernel Sa(x) = sin(x)/x with Sa(0) = 1. Accepts arrays."""
    return np.sinc(np.asarray(x) / np.pi)


def _g_vector(omega: float, delta: float, n_antennas: int) -> np.ndarray:
    n = np.arange(n_antennas)
    return np.asarray(sample_fn(delta * (omega - n * np.pi)), dtype=float)


def beta_coeff(omega: float, delta: float, n_antennas: int) -> float:
    """Power-normalisation coefficient 1 / sqrt(sum_n g_n(omega)^2)."""
    if n_antennas < 2:
        raise ValueError(f"need at least 2 antennas, got {n_antennas!r}")
    g = _g_vector(omega, delta, n_antennas)
    total = float(np.dot(g, g))
    if total <= _DEGENERATE_SUM:
        raise ValueError("taper coefficients sum to zero; degenerate parameters")
    return 1.0 / np.sqrt(total)


def adaptive_precoder(interval: AngularInterval, omega: float, cfg: ArrayConfig) -> Precoder:
    """Construct the unit-power precoder covering ``interval`` with shape ``omega``."""
    n = np.arange(cfg.n_antennas)
    g = _g_vector(omega, interval.delta, cfg.n_antennas)
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
    weights = array_response(sin_dir, cfg) / np.sqrt(cfg.n_antennas)
    return Precoder(
        weights=weights,
        theta_m=sin_dir,
        delta=0.0,
        omega=0.0,
        beta=1.0 / np.sqrt(cfg.n_antennas),
        kind="mrt",
    )


def bf_gain_direct(sin_dir: float, precoder: Precoder, cfg: ArrayConfig) -> float:
    """Beamforming gain |a(sin_dir)^H f|^2, in [0, N]."""
    if len(precoder.weights) != cfg.n_antennas:
        raise ValueError(
            f"precoder length {len(precoder.weights)} does not match "
            f"{cfg.n_antennas} antennas"
        )
    a = array_response(sin_dir, cfg)
    return float(np.abs(np.vdot(a, precoder.weights)) ** 2)


def bf_gain_profile(sin_dirs: np.ndarray, precoder: Precoder, cfg: ArrayConfig) -> np.ndarray:
    """Vectorised beamforming gain |sum_n a_n(s) conj(f_n)|^2 over many directions.

    The sum runs in ``np.einsum``'s own loop rather than a BLAS product, so a
    trace never wakes the BLAS thread pool.
    """
    if len(precoder.weights) != cfg.n_antennas:
        raise ValueError("precoder length does not match the antenna count")
    amp = np.einsum("ij,j->i", response_matrix(sin_dirs, cfg), np.conj(precoder.weights))
    return amp.real**2 + amp.imag**2
