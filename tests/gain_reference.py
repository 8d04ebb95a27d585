"""Reference forms of the precoder gain that the tests check the package against.

Not named ``oracles``: ``perfbench/test_oracles.py`` imports its own
``oracles`` module, and both test directories sit on ``sys.path`` in one
pytest session.
"""

from __future__ import annotations

import numpy as np

from thztrack import AngularInterval, ArrayConfig, beta_coeff, sample_fn


def g_coeff(n: int, omega: float, delta: float) -> float:
    """Per-antenna taper coefficient Sa(delta * (omega - (n-1)*pi)), n 1-based."""
    if n < 1:
        raise ValueError(f"antenna index is 1-based, got {n!r}")
    if delta < 0.0:
        raise ValueError(f"half-width must be non-negative, got {delta!r}")
    return float(sample_fn(delta * (omega - (n - 1) * np.pi)))


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
    beta = beta_coeff(omega, interval.delta, cfg.n_antennas)
    theta = -idx * np.pi * (interval.theta_m - sin_dir)
    diag = float(np.dot(g, g))
    cross_matrix = 2.0 * np.cos(theta[:, None] - theta[None, :]) * np.outer(g, g)
    cross = float(np.sum(np.triu(cross_matrix, k=1)))
    return beta**2 * (diag + cross)
