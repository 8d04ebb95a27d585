"""Constant-velocity target kinematics and sine-space geometry seen from a fixed base station.

All angular quantities that cross module boundaries are expressed as the sine
of the angle from the array broadside, i.e. values in [-1, 1]; positions become
sines only through :func:`positions_to_directions`. Sensed states and the paths
predicted from them are in the BS frame: the BS at the origin, x along boresight
(so a path parallel to the array sits at x = D) and y lateral. That frame is the
default ``geom``; only the true path a scenario samples is placed by another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Point = tuple[float, float]


@dataclass(frozen=True)
class SensedState:
    """Exact target state acquired at the start of a sensing period.

    Parameters
    ----------
    position : (x, y) in metres
    velocity : (vx, vy) in metres per second
    """

    position: Point
    velocity: Point

    def __post_init__(self):
        values = (*self.position, *self.velocity)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("sensed state fields must be finite")


@dataclass(frozen=True)
class BsGeometry:
    """Base-station placement: array centre and unit broadside direction."""

    origin: Point = (0.0, 0.0)
    boresight: Point = (1.0, 0.0)

    def __post_init__(self):
        norm = math.hypot(self.boresight[0], self.boresight[1])
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"boresight must be a unit vector, got norm {norm!r}")


BS_FRAME = BsGeometry()  # the frame of sensed states and predicted paths


@dataclass(frozen=True)
class AngularInterval:
    """Sine-space beam coverage: centre ``theta_m`` and half-width ``delta``."""

    theta_m: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta_m) and math.isfinite(self.delta)):
            raise ValueError("interval parameters must be finite")
        if self.delta < 0.0:
            raise ValueError(f"half-width must be non-negative, got {self.delta!r}")
        if not (-1.0 < self.theta_m < 1.0):
            raise ValueError(f"beam centre must lie in (-1, 1), got {self.theta_m!r}")
        if self.theta_m - self.delta < -1.0 or self.theta_m + self.delta > 1.0:
            raise ValueError("interval extends outside the sine-space domain [-1, 1]")

    @property
    def lo(self) -> float:
        return self.theta_m - self.delta

    @property
    def hi(self) -> float:
        return self.theta_m + self.delta


def predict_pose(state: SensedState, t: float, tau: float) -> Point:
    """Position of the sensed state extrapolated by ``t`` seconds within a period of length ``tau``.

    The target moves in a straight line at its sensed velocity, p(t) = p0 + v0 * t;
    no sensing or prediction noise is injected. Raises ValueError when ``t`` falls
    outside [0, tau] or is NaN.
    """
    if tau <= 0.0:
        raise ValueError(f"sensing period must be positive, got {tau!r}")
    if not 0.0 <= t <= tau * (1.0 + 1e-12):
        raise ValueError(f"elapsed time {t!r} outside the sensing period [0, {tau!r}]")
    return (
        state.position[0] + state.velocity[0] * t,
        state.position[1] + state.velocity[1] * t,
    )


def positions_to_directions(xs, ys, geom: BsGeometry = BS_FRAME) -> tuple[np.ndarray, np.ndarray]:
    """(signed sines of the boresight angle, distances) of Cartesian positions (xs, ys).

    The sine is positive towards the geometry's lateral direction. For a target
    at lateral offset x on a line at perpendicular distance D this reduces to
    sin = x / sqrt(x^2 + D^2) and distance = sqrt(x^2 + D^2).
    """
    rx = np.asarray(xs, dtype=float) - geom.origin[0]
    ry = np.asarray(ys, dtype=float) - geom.origin[1]
    distances = np.hypot(rx, ry)
    if (distances <= 0.0).any():
        raise ValueError("target position coincides with the base station origin")
    bx, by = geom.boresight
    return ((bx * ry - by * rx) / distances).clip(-1.0, 1.0), distances


def pose_to_direction(position: Point, geom: BsGeometry) -> tuple[float, float]:
    """One-position call of :func:`positions_to_directions`: (sine, distance)."""
    sin_dir, distance = positions_to_directions(*position, geom)
    return float(sin_dir), float(distance)


def path_to_interval(state: SensedState, tau: float, geom: BsGeometry = BS_FRAME) -> AngularInterval:
    """Sine-space interval swept by the predicted path over one sensing period.

    The centre is the midpoint of the endpoint sines and the half-width their
    absolute half-difference, so motion in either angular direction is covered.
    """
    sin0, _ = pose_to_direction(predict_pose(state, 0.0, tau), geom)
    sin1, _ = pose_to_direction(predict_pose(state, tau, tau), geom)
    return AngularInterval(
        theta_m=0.5 * (sin0 + sin1),
        delta=0.5 * abs(sin1 - sin0),
    )
