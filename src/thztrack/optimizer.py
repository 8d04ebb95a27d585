"""Penalised average-rate objective over a sensing period and its PSO maximiser.

The objective for a candidate shape parameter omega is

    (1/tau) * integral_0^tau [ R(t, omega) + F_p(R(t, omega)) ] dt

where R is the instantaneous achievable rate along the predicted path and F_p
a linear penalty that activates when R drops below a minimum-rate threshold.
The integral is evaluated by Gauss-Legendre quadrature; the precoder is built
once per omega and reused across the quadrature nodes.

The search over omega is a synchronous, seeded particle swarm with reflective
bounds, deterministic bit-for-bit for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ArrayConfig, LinkBudget, channel_gain
from .geometry import AngularInterval, BsGeometry, SensedState, pose_to_direction, predict_pose
from .precoder import sample_fn


@dataclass(frozen=True)
class ObjectiveSpec:
    """Everything needed to evaluate the per-period objective for one interval.

    ``geom`` defaults to a BS at the origin with boresight along +x.
    """

    state: SensedState
    tau: float
    interval: AngularInterval
    budget: LinkBudget
    cfg: ArrayConfig
    r_min: float
    alpha: float
    n_quad: int = 64
    geom: BsGeometry = field(default_factory=BsGeometry)

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"sensing period must be positive, got {self.tau!r}")
        if self.r_min < 0.0:
            raise ValueError(f"minimum rate must be >= 0, got {self.r_min!r}")
        if self.alpha < 0.0:
            raise ValueError(f"penalty weight must be >= 0, got {self.alpha!r}")
        if self.n_quad < 8:
            raise ValueError(f"need at least 8 quadrature nodes, got {self.n_quad!r}")


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings. Defaults are standard constriction-factor values."""

    bounds: tuple[float, float]
    n_particles: int = 40
    n_iterations: int = 100
    inertia: float = 0.7298
    cognitive: float = 1.4962
    social: float = 1.4962
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid search bounds {self.bounds!r}")
        if self.n_particles < 2:
            raise ValueError(f"need at least 2 particles, got {self.n_particles!r}")
        if self.n_iterations < 1:
            raise ValueError(f"need at least 1 iteration, got {self.n_iterations!r}")


@dataclass(frozen=True)
class OptResult:
    omega_star: float
    objective_value: float
    evaluations: int
    converged_iteration: int


def pso_bounds(cfg: ArrayConfig) -> tuple[float, float]:
    """Default omega search domain for an array.

    The gain is symmetric about (N-1)*pi/2, so for even antenna counts half the
    domain suffices. The symmetry proof assumes an even count, hence odd arrays
    fall back to the full domain [0, (N-1)*pi].
    """
    half = (cfg.n_antennas - 1) * np.pi / 2.0
    return (0.0, half) if cfg.n_antennas % 2 == 0 else (0.0, 2.0 * half)


def penalty(rate, r_min: float, alpha: float):
    """Linear shortfall penalty: -alpha * (r_min - rate) when rate <= r_min, else 0.

    Continuous at rate = r_min and non-positive everywhere. Accepts arrays.
    """
    r = np.asarray(rate, dtype=float)
    value = np.where(r <= r_min, -alpha * (r_min - r), 0.0)
    return float(value) if np.isscalar(rate) else value


class _PeriodEvaluator:
    """Precomputed quadrature data for fast batched objective evaluation."""

    def __init__(self, spec: ObjectiveSpec):
        nodes, weights = np.polynomial.legendre.leggauss(spec.n_quad)
        t = 0.5 * spec.tau * (nodes + 1.0)
        self.weights = 0.5 * spec.tau * weights  # sums to tau

        sins = np.empty(spec.n_quad)
        dists = np.empty(spec.n_quad)
        for i, tk in enumerate(t):
            pose = predict_pose(spec.state, float(tk), spec.tau)
            sins[i], dists[i] = pose_to_direction(pose, spec.geom)

        h0 = channel_gain(dists, spec.budget, spec.cfg)
        self.snr_coef = spec.budget.tx_power * h0 * h0 / (
            spec.budget.noise_psd * spec.budget.bandwidth
        )
        n = np.arange(spec.cfg.n_antennas)
        self.steer_conj = np.exp(1j * np.pi * np.outer(sins, n))
        self.centre_phase = np.exp(-1j * np.pi * spec.interval.theta_m * n)
        self.grid = np.pi * n
        self.spec = spec

    def _weight_matrix(self, omegas: np.ndarray) -> np.ndarray:
        spec = self.spec
        g = np.asarray(sample_fn(spec.interval.delta * (omegas[None, :] - self.grid[:, None])))
        norms = np.sqrt(np.sum(g * g, axis=0))
        if np.any(norms <= 1e-150):
            raise ValueError("degenerate taper normalisation")
        return self.centre_phase[:, None] * g / norms[None, :]

    def rates(self, omegas: np.ndarray) -> np.ndarray:
        """Instantaneous rate at every quadrature node for each omega (nodes x omegas)."""
        amp = self.steer_conj @ self._weight_matrix(omegas)
        gains = amp.real**2 + amp.imag**2
        return self.spec.budget.bandwidth * np.log2(1.0 + self.snr_coef[:, None] * gains)

    def values(self, omegas) -> np.ndarray:
        spec = self.spec
        rates = self.rates(np.atleast_1d(np.asarray(omegas, dtype=float)))
        penalised = rates + penalty(rates, spec.r_min, spec.alpha)
        return (self.weights @ penalised) / spec.tau

    def value(self, omega: float) -> float:
        return float(self.values([omega])[0])


def objective(omega: float, spec: ObjectiveSpec) -> float:
    """Penalised average rate over one sensing period for the given omega."""
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    return _PeriodEvaluator(spec).value(omega)


def violation_mass(omega: float, spec: ObjectiveSpec) -> float:
    """Integral of the rate shortfall max(0, r_min - R(t)) over the period."""
    ev = _PeriodEvaluator(spec)
    rates = ev.rates(np.asarray([float(omega)]))[:, 0]
    shortfall = np.maximum(0.0, spec.r_min - rates)
    return float(ev.weights @ shortfall)


def _incumbent(x: np.ndarray, fx: np.ndarray) -> tuple[float, float]:
    # best objective first, ties broken towards the smallest omega
    order = np.lexsort((x, -fx))
    i = order[0]
    return float(x[i]), float(fx[i])


def optimize_omega(spec: ObjectiveSpec, pso: PsoConfig) -> OptResult:
    """Maximise the period objective over omega with a seeded particle swarm.

    Particles start uniformly over the bounds, velocities are clamped to 20%
    of the bound span, and positions reflect at the bounds. The returned
    incumbent is the best omega visited by any particle, with ties broken
    towards the smallest omega. Identical inputs (including the seed) yield
    identical results.
    """
    lo, hi = pso.bounds
    if lo < 0.0:
        raise ValueError(f"omega domain starts at 0, got lower bound {lo!r}")
    evaluator = _PeriodEvaluator(spec)
    rng = np.random.default_rng(pso.seed)
    span = hi - lo
    v_max = 0.2 * span

    x = lo + rng.random(pso.n_particles) * span
    v = (2.0 * rng.random(pso.n_particles) - 1.0) * v_max
    fx = evaluator.values(x)
    evaluations = pso.n_particles

    pbest_x = x.copy()
    pbest_f = fx.copy()
    best_x, best_f = _incumbent(x, fx)
    converged_iteration = 0

    for it in range(1, pso.n_iterations + 1):
        r_cog = rng.random(pso.n_particles)
        r_soc = rng.random(pso.n_particles)
        v = (
            pso.inertia * v
            + pso.cognitive * r_cog * (pbest_x - x)
            + pso.social * r_soc * (best_x - x)
        )
        np.clip(v, -v_max, v_max, out=v)
        x = x + v

        # reflect at the bounds; a single reflection suffices with the clamp
        below = x < lo
        x[below] = 2.0 * lo - x[below]
        v[below] = -v[below]
        above = x > hi
        x[above] = 2.0 * hi - x[above]
        v[above] = -v[above]
        np.clip(x, lo, hi, out=x)

        fx = evaluator.values(x)
        evaluations += pso.n_particles

        improved = fx > pbest_f
        pbest_x[improved] = x[improved]
        pbest_f[improved] = fx[improved]

        cand_x, cand_f = _incumbent(x, fx)
        if cand_f > best_f or (cand_f == best_f and cand_x < best_x):
            best_x, best_f = cand_x, cand_f
            converged_iteration = it

    return OptResult(
        omega_star=best_x,
        objective_value=best_f,
        evaluations=evaluations,
        converged_iteration=converged_iteration,
    )
