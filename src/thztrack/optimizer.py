"""Penalised average-rate objective over a sensing period and its PSO maximiser.

The objective for a candidate shape parameter omega is

    (1/tau) * integral_0^tau [ R(t, omega) + F_p(R(t, omega)) ] dt

where R is the instantaneous achievable rate along the predicted path and F_p
a linear penalty that activates when R drops below a minimum-rate threshold.
The integral is evaluated by Gauss-Legendre quadrature in real arithmetic,
for many specs and candidate omegas at once.

The search over omega is a synchronous, seeded particle swarm with reflective
bounds, deterministic bit-for-bit for a fixed seed, also when swarms step in lockstep.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .channel import ArrayConfig, LinkBudget, channel_gain
from .geometry import AngularInterval, SensedState, positions_to_directions
from .precoder import taper, taper_table


# Quadrature node counts a spec accepts; building the nodes is cubic in the count.
MIN_QUAD_NODES = 8
MAX_QUAD_NODES = 1024


def _check_count(name: str, value) -> None:
    """Reject a count that is no integer (a float such as 2.5 would fail later, inside numpy)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Everything needed to evaluate the per-period objective for one interval.

    ``state`` is the sensed state in the BS frame (see :mod:`thztrack.geometry`).
    """

    state: SensedState
    tau: float
    interval: AngularInterval
    budget: LinkBudget
    cfg: ArrayConfig
    r_min: float
    alpha: float
    n_quad: int

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError(f"sensing period must be positive, got {self.tau!r}")
        if not self.r_min >= 0.0:
            raise ValueError(f"minimum rate must be >= 0, got {self.r_min!r}")
        if not 0.0 <= self.alpha < math.inf:  # 0 * inf would make every unpenalised node NaN
            raise ValueError(f"penalty weight must be finite and >= 0, got {self.alpha!r}")
        _check_count("n_quad", self.n_quad)
        if not MIN_QUAD_NODES <= self.n_quad <= MAX_QUAD_NODES:
            raise ValueError(
                f"need {MIN_QUAD_NODES} to {MAX_QUAD_NODES} quadrature nodes, got {self.n_quad!r}"
            )


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings over omega bounds 0 <= lo < hi; defaults are constriction-factor values."""

    bounds: tuple[float, float]
    n_particles: int = 40
    n_iterations: int = 100
    inertia: float = 0.7298
    cognitive: float = 1.4962
    social: float = 1.4962
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
            raise ValueError(f"invalid search bounds {self.bounds!r}; need 0 <= lo < hi")
        _check_count("n_particles", self.n_particles)
        _check_count("n_iterations", self.n_iterations)
        if self.n_particles < 2:
            raise ValueError(f"need at least 2 particles, got {self.n_particles!r}")
        if self.n_iterations < 1:
            raise ValueError(f"need at least 1 iteration, got {self.n_iterations!r}")
        weights = (self.inertia, self.cognitive, self.social)
        if not all(map(math.isfinite, weights)):
            raise ValueError(f"inertia, cognitive and social must be finite, got {weights!r}")


@dataclass(frozen=True)
class OptResult:
    """A swarm's incumbent, the objective evaluations made for it, and the iteration it was found.

    A zero-width spec (delta = 0) is evaluated once, at the lower bound, so its
    ``evaluations`` is 1; every other spec's is ``n_particles * (n_iterations + 1)``.
    """

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


# Specs per lockstep batch. 32 takes 2-4% less CPU per cell than 16 and 64 about the same,
# but each spec adds about 0.3 MB to the peak: codebook-build's peak RSS went from 45.2 MB at
# 16 to 50.0 MB at 32 and 58.9 MB at 64 (2-core AMD EPYC), so 16 stays.
SWARM_CHUNK = 16


@lru_cache(maxsize=8)
def _gauss_legendre(n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes mapped to [0, 1] and their weights, which sum to 1."""
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    unit, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    unit.flags.writeable = weights.flags.writeable = False
    return unit, weights


class _PeriodEvaluator:
    """Period objectives of specs sharing the antenna count and ``n_quad``, batched.

    A node's gain is ``|sum_n g_n e^{j n phi}|^2 / ||g||^2`` for the real taper ``g``; tau
    cancels in the average. Taking phases from the array centre c = (N-1)/2 leaves the
    modulus unchanged and pairs antenna n with N-1-n, so that with m = floor(N/2) the sum is

        sum_{n<m} (g_n + g_{N-1-n}) cos((n-c) phi) + j (g_n - g_{N-1-n}) sin((n-c) phi)

    plus g_m for odd N. The product therefore runs over the first ceil(N/2) antennas against
    a real ``[cos, sin]`` steering stack, the centre antenna of an odd array at half weight
    since its fold sum holds it twice. The mirrored tapers g_{N-1-n} = Sa(a~ - b_n), with
    a~ = delta pi (N-1) - delta omega, come from the same half-size taper table as g_n, so
    both fold operands are contiguous. The antenna axis comes last, so every elementwise
    pass runs along it. Each call allocates its own arrays and fills them with ``out=``
    passes; nothing changes after ``__init__``.
    """

    def __init__(self, specs: list[ObjectiveSpec]):
        if len({(s.cfg.n_antennas, s.n_quad) for s in specs}) > 1:
            raise ValueError("batched specs must share the antenna count and n_quad")
        n_antennas = specs[0].cfg.n_antennas
        half, self.odd = (n_antennas + 1) // 2, n_antennas % 2 == 1
        unit, self.weights = _gauss_legendre(specs[0].n_quad)
        offsets = np.pi * (np.arange(half) - 0.5 * (n_antennas - 1))  # pi (n - c)
        steer, snr = [], []
        for spec in specs:
            t = spec.tau * unit  # predicted path p0 + v0 * t at the nodes
            (x0, y0), (vx, vy) = spec.state.position, spec.state.velocity
            sins, dists = positions_to_directions(x0 + vx * t, y0 + vy * t)
            phase = np.outer(offsets, sins - spec.interval.theta_m)
            cos = np.cos(phase)
            if self.odd:
                cos[-1] = 0.5  # the centre antenna: cos 0, held twice by its fold sum
            steer.append((cos, np.sin(phase)))
            b, h0 = spec.budget, channel_gain(dists, spec.budget, spec.cfg)
            snr.append(b.tx_power * h0 * h0 / (b.noise_psd * b.bandwidth))
        self.steer = np.array(steer)  # specs x [cos, sin] x half x nodes
        self.snr = np.stack(snr)[:, None, :]
        per_spec = [(s.interval.delta, s.budget.bandwidth, s.r_min, s.alpha) for s in specs]
        self.delta, self.bandwidth, self.r_min, self.alpha = np.array(per_spec).T[:, :, None, None]
        self.mirror = self.delta[:, 0] * (np.pi * (n_antennas - 1))
        self.table = taper_table(self.delta[:, 0], half)

    def rates(self, omegas: np.ndarray) -> np.ndarray:
        """Rate at every node (specs x omegas x nodes) for omegas given as specs x omegas."""
        return self._padded_rates(omegas)[:, : omegas.shape[1]]

    def _padded_rates(self, omegas: np.ndarray) -> np.ndarray:
        # The BLAS products round calls 1-3 omegas wide, and the omegas past a multiple of 4,
        # unlike full blocks of 4. Repeating the last omega up to such a block makes each value
        # depend on its own omega alone, and adds no rate that the call does not already hold.
        if pad := -omegas.shape[1] % 4:
            omegas = np.pad(omegas, ((0, 0), (0, pad)), mode="edge")
        a = np.empty((len(omegas), 2, omegas.shape[1]))
        np.multiply(self.delta[:, 0], omegas, out=a[:, 0])
        np.subtract(self.mirror, a[:, 0], out=a[:, 1])
        g = taper(a, *self.table)  # specs x [g_n, g_{N-1-n}] x omegas x half
        norm2 = np.einsum("iakn,iakn->ik", g, g)
        if self.odd:  # the centre taper is in both halves
            norm2 -= g[:, 0, :, -1] ** 2
        if np.any(norm2 <= 1e-300):
            raise ValueError("degenerate taper normalisation")
        fold = np.empty_like(g)
        np.add(g[:, 0], g[:, 1], out=fold[:, 0])
        np.subtract(g[:, 0], g[:, 1], out=fold[:, 1])
        amp = np.matmul(fold, self.steer)
        np.square(amp, out=amp)
        gains = np.add(amp[:, 0], amp[:, 1])
        gains /= norm2[:, :, None]
        gains *= self.snr
        np.log1p(gains, out=gains)
        np.multiply(self.bandwidth, gains, out=gains)
        gains /= math.log(2)
        return gains

    def values(self, omegas: np.ndarray) -> np.ndarray:
        """Period objective (specs x omegas) for omegas given as specs x omegas.

        The penalty passes run only if some spec has a node rate below its own ``r_min``
        (or a NaN rate); elsewhere F_p adds +0.0 at every node, so skipping it moves no bit.
        """
        rates = self._padded_rates(omegas)
        if not np.all(rates.min(axis=(1, 2)) >= self.r_min[:, 0, 0]):
            shortfall = rates - self.r_min
            np.minimum(shortfall, 0.0, out=shortfall)
            shortfall *= self.alpha
            rates += shortfall  # the penalty F_p
        return (rates @ self.weights)[:, : omegas.shape[1]]


def _omega_row(omegas) -> np.ndarray:
    row = np.asarray(omegas, dtype=float).reshape(1, -1)
    if not np.all(np.isfinite(row)):
        raise ValueError(f"omega must be finite, got {omegas!r}")
    return row


def objectives(omegas, spec: ObjectiveSpec) -> np.ndarray:
    """Penalised average rate over one sensing period at each of many omegas."""
    return _PeriodEvaluator([spec]).values(_omega_row(omegas))[0]


def _incumbent(x: np.ndarray, fx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # per row: best objective first, ties broken towards the smallest omega
    best = fx.max(axis=1)
    return np.where(fx == best[:, None], x, np.inf).min(axis=1), best


def optimize_omega(spec: ObjectiveSpec, pso: PsoConfig) -> OptResult:
    """Maximise the period objective over omega with a seeded particle swarm.

    Two particles start on the bounds and the rest uniformly between them,
    velocities are clamped to 20% of the bound span, and positions reflect at
    the bounds. The returned incumbent is the best omega visited by any
    particle, so it is never worse than either bound, with ties broken towards
    the smallest omega. Identical inputs (including the seed) yield identical
    results.
    """
    return optimize_omegas([spec], pso, [pso.seed])[0]


def optimize_omegas(
    specs: list[ObjectiveSpec], pso: PsoConfig, seeds: list[int], jobs: int = 1
) -> list[OptResult]:
    """:func:`optimize_omega` for each spec with its own seed (``pso.seed`` is unused).

    The swarms of :data:`SWARM_CHUNK` specs step in lockstep, one batched
    evaluation per iteration; each keeps its own random stream, so every
    result is bit-identical to the one-spec run. The chunks run in a pool of
    ``min(jobs, chunks, os.cpu_count())`` worker processes when that is above 1,
    and in this process otherwise; the pool module is imported only then.

    A zero-width spec (``interval.delta == 0``) has a taper of exactly 1, so
    every omega has the same objective. Such a spec runs no swarm and draws no
    random numbers: it is evaluated once, at the lower bound, in batches of
    :data:`SWARM_CHUNK`, and its result is ``(lo, value, 1, 0)``. Since no
    value depends on how many omegas share a call, that is the swarm's own
    answer with ``evaluations == 1``. Results keep input order.
    """
    if len(specs) != len(seeds):
        raise ValueError(f"{len(specs)} specs but {len(seeds)} seeds")

    def chunked(indices):
        return [indices[i : i + SWARM_CHUNK] for i in range(0, len(indices), SWARM_CHUNK)]

    results: list = [None] * len(specs)
    lo = pso.bounds[0]
    for chunk in chunked([i for i, spec in enumerate(specs) if spec.interval.delta == 0.0]):
        values = _PeriodEvaluator([specs[i] for i in chunk]).values(np.full((len(chunk), 1), lo))
        for i, value in zip(chunk, values[:, 0]):
            results[i] = OptResult(lo, float(value), 1, 0)
    swarmed = chunked([i for i, spec in enumerate(specs) if spec.interval.delta != 0.0])
    workers = min(jobs, len(swarmed), os.cpu_count() or 1)
    with ExitStack() as stack:
        run = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(workers)).map
        spec_chunks = [[specs[i] for i in chunk] for chunk in swarmed]
        seed_chunks = [[seeds[i] for i in chunk] for chunk in swarmed]
        parts = run(_lockstep_swarms, spec_chunks, repeat(pso), seed_chunks)
        for chunk, part in zip(swarmed, parts):
            for i, result in zip(chunk, part):
                results[i] = result
    return results


def _lockstep_swarms(specs, pso: PsoConfig, seeds) -> list[OptResult]:
    values = _PeriodEvaluator(specs).values
    lo, hi = pso.bounds
    # each swarm's whole stream, drawn in the order of one random(n_particles) per use
    shape = (2 * pso.n_iterations + 2, pso.n_particles)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    try:
        draws = np.stack([rng.random(shape) for rng in rngs], axis=1)
    except (MemoryError, ValueError) as exc:  # numpy's error for more bytes than it can index
        msg = f"{pso.n_particles} particles over {pso.n_iterations} iterations need more random"
        raise MemoryError(f"{msg} draws than memory holds") from exc

    span = hi - lo
    v_max = 0.2 * span

    x = lo + draws[0] * span
    # particles 0 and 1 start on the bounds, where reflection keeps others from settling
    x[:, 0], x[:, 1] = lo, hi
    v = (2.0 * draws[1] - 1.0) * v_max
    fx = values(x)

    pbest_x, pbest_f = x.copy(), fx.copy()
    best_x, best_f = _incumbent(x, fx)
    converged_iteration = np.zeros(len(seeds), dtype=int)

    for it in range(1, pso.n_iterations + 1):
        r_cog, r_soc = draws[2 * it], draws[2 * it + 1]
        v = (
            pso.inertia * v
            + pso.cognitive * r_cog * (pbest_x - x)
            + pso.social * r_soc * (best_x[:, None] - x)
        )
        np.clip(v, -v_max, v_max, out=v)
        x = x + v

        # reflect at the bounds; a single reflection suffices with the clamp
        outside = (x < lo) | (x > hi)
        x = np.where(x < lo, 2.0 * lo - x, np.where(x > hi, 2.0 * hi - x, x))
        v[outside] = -v[outside]
        np.clip(x, lo, hi, out=x)

        fx = values(x)

        improved = fx > pbest_f
        pbest_x[improved] = x[improved]
        pbest_f[improved] = fx[improved]

        cand_x, cand_f = _incumbent(x, fx)
        better = (cand_f > best_f) | ((cand_f == best_f) & (cand_x < best_x))
        best_x[better] = cand_x[better]
        best_f[better] = cand_f[better]
        converged_iteration[better] = it

    evaluations = pso.n_particles * (pso.n_iterations + 1)
    return [
        OptResult(float(bx), float(bf), evaluations, int(it))
        for bx, bf, it in zip(best_x, best_f, converged_iteration)
    ]
