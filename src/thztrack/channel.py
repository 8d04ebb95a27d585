"""Far-field ULA physics: array responses, Fraunhofer range, THz channel gain, rate.

The array has half-wavelength spacing, so the phase progression per element is
pi * sin(angle) and every direction maps to a point of the sine-space domain
[-1, 1]. Free-space spreading and molecular absorption set the channel gain;
the absorption coefficient is a configuration scalar rather than a value
computed from atmospheric conditions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
# far above the paper's 128; a larger count is rejected before any array is sized by it
MAX_ANTENNAS = 1_000_000


class FarFieldWarning(UserWarning):
    """Raised (as a warning) when a link distance is inside the Fraunhofer range."""


def dbm_to_watt(dbm: float) -> float:
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm!r} dBm is too large for a float in watts") from None


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array with half-wavelength element spacing.

    Parameters
    ----------
    n_antennas : number of elements, 2 to :data:`MAX_ANTENNAS`
    carrier_freq : carrier frequency in Hz
    """

    n_antennas: int
    carrier_freq: float

    def __post_init__(self):
        n = self.n_antennas  # a float such as 128.0 would fail later, inside numpy
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"need an integer antenna count >= 2, got {n!r}")
        if n > MAX_ANTENNAS:
            raise ValueError(f"antenna count {n} is over {MAX_ANTENNAS}")
        if not (math.isfinite(self.carrier_freq) and self.carrier_freq > 0.0):
            raise ValueError(f"carrier frequency must be positive, got {self.carrier_freq!r}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq


@dataclass(frozen=True)
class LinkBudget:
    """Link-level power quantities, all in linear SI units.

    tx_power in W, noise_psd in W/Hz, bandwidth in Hz, absorption_coeff in 1/m.
    Use :meth:`from_db` for the dBm / dBm-per-Hz form used in configuration.
    """

    tx_power: float
    noise_psd: float
    bandwidth: float
    absorption_coeff: float = 0.0

    def __post_init__(self):
        for name in ("tx_power", "noise_psd", "bandwidth"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not (math.isfinite(self.absorption_coeff) and self.absorption_coeff >= 0.0):
            raise ValueError(f"absorption_coeff must be >= 0, got {self.absorption_coeff!r}")

    @classmethod
    def from_db(
        cls,
        tx_power_dbm: float,
        noise_psd_dbmhz: float,
        bandwidth_hz: float,
        absorption_coeff_per_m: float = 0.0,
    ) -> "LinkBudget":
        return cls(
            tx_power=dbm_to_watt(tx_power_dbm),
            noise_psd=dbm_to_watt(noise_psd_dbmhz),
            bandwidth=bandwidth_hz,
            absorption_coeff=absorption_coeff_per_m,
        )


def response_generator(sin_dirs) -> np.ndarray:
    """Generator z = exp(-j * pi * sin_dir) of each direction's array response.

    Rejects sines outside [-1, 1] (and NaN). A trace computes it once per episode
    and slices it per held beam; :func:`response_matrix` is the one-call form.
    """
    s = np.asarray(sin_dirs, dtype=float).reshape(-1)
    if not (np.abs(s) <= 1.0).all():  # also rejects NaN
        raise ValueError("sine directions must lie in [-1, 1]")
    return np.exp(-1j * np.pi * s)


def response_rows(z: np.ndarray, n_antennas: int) -> np.ndarray:
    """Rows z^0 .. z^(N-1), one per generator from :func:`response_generator`.

    A running product gives element n: one complex exponential per direction
    instead of one per element. Element 0 is exactly 1 and element n carries a
    rounding error of about n ulps.
    """
    rows = np.empty((len(z), n_antennas), dtype=complex)
    rows[:, 0] = 1.0
    rows[:, 1:] = z[:, None]
    return np.cumprod(rows, axis=1, out=rows)


def response_matrix(sin_dirs, cfg: ArrayConfig) -> np.ndarray:
    """Array response vectors, one row per direction given as sin(angle): z^n with
    z = exp(-j * pi * sin_dir), from :func:`response_generator` and :func:`response_rows`."""
    return response_rows(response_generator(sin_dirs), cfg.n_antennas)


def fraunhofer_distance(cfg: ArrayConfig) -> float:
    """Far-field boundary 2*A^2/lambda of the array aperture A = (N-1)*lambda/2."""
    return (cfg.n_antennas - 1) ** 2 * cfg.wavelength / 2.0


def channel_gain(distance, budget: LinkBudget, cfg: ArrayConfig):
    """Amplitude channel gain: free-space spreading times molecular absorption.

    gain = c / (4 * pi * d * f_c) * exp(-K * d / 2)

    Accepts a scalar or an array of distances. Emits FarFieldWarning when any
    distance falls inside the Fraunhofer range, where the planar-wave model is
    not strictly valid.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive")
    if np.any(d < fraunhofer_distance(cfg)):
        warnings.warn(
            "link distance inside the Fraunhofer range; far-field model inaccurate",
            FarFieldWarning,
            stacklevel=2,
        )
    gain = SPEED_OF_LIGHT / (4.0 * np.pi * d * cfg.carrier_freq)
    gain = gain * np.exp(-0.5 * budget.absorption_coeff * d)
    return float(gain) if np.isscalar(distance) else gain


def link_power(distance, budget: LinkBudget, cfg: ArrayConfig) -> np.ndarray:
    """Received power at unit beamforming gain, P_t * h0^2, as (P_t * h0) * h0.

    One :func:`channel_gain` call, so FarFieldWarning is checked once for all
    ``distance``; a trace calls it once per episode.
    """
    h0 = np.asarray(channel_gain(distance, budget, cfg))
    return budget.tx_power * h0 * h0


def rate_from_power(power, bf_gain, budget: LinkBudget):
    """Shannon rate B * log1p(power * bf_gain / (N_0 * B)) / ln 2 for a :func:`link_power`."""
    snr = power * bf_gain / (budget.noise_psd * budget.bandwidth)
    return budget.bandwidth * np.log1p(snr) / math.log(2)


def achievable_rate(bf_gain, distance, budget: LinkBudget, cfg: ArrayConfig):
    """Shannon rate in bit/s for a given beamforming gain and link distance.

    rate = B * log2(1 + P_t * h0^2 * bf_gain / (N_0 * B))

    The logarithm is taken as log1p(snr) / ln 2, which keeps full relative
    precision where the snr is tiny (side-lobe nulls). Vectorises over matching
    arrays of gains and distances. The one-call form of :func:`link_power` and
    :func:`rate_from_power`.
    """
    g = np.asarray(bf_gain, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("beamforming gain must be non-negative")
    rate = rate_from_power(link_power(distance, budget, cfg), g, budget)
    return float(rate) if (np.isscalar(bf_gain) and np.isscalar(distance)) else rate
