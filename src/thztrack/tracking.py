"""End-to-end tracking episodes: rate/outage traces for three beam schemes.

Schemes
-------
proposed       At every sensing epoch the BS reads the exact target state,
               predicts the path over the next period, and holds the codebook
               beam covering the predicted sine-space interval.
conventional   At every sensing epoch the BS points a fixed-width MRT beam at
               the target's current direction and holds it for the period.
event-based    Slot-clocked approximation of an outage-triggered tracker: the
               direction estimate is held while its assumed uncertainty grows
               each slot; the beam widens to cover +/- 2 sigma of that
               uncertainty and realigns to the true direction at the slot
               boundary after an outage sample. Labelled "(approx.)" in all
               outputs because the reference algorithm's internals are not
               reproduced, only the mechanism with its published parameters.

An outage is a sample whose instantaneous rate falls below the scenario's
minimum-rate threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    ArrayConfig,
    LinkBudget,
    dbm_to_watt,
    link_power,
    rate_from_power,
    response_generator,
    response_rows,
)
from .codebook import Codebook, CodebookError, check_scenario, entry_precoder, lookup_indices
from .geometry import (
    AngularInterval,
    BsGeometry,
    SensedState,
    path_to_interval,
    positions_to_directions,
)
from .optimizer import ObjectiveSpec, PsoConfig, optimize_omegas
from .precoder import Precoder, adaptive_precoder, beam_gain, mrt_precoder
from .seeding import derive_seed

SCHEME_PROPOSED = "proposed"
SCHEME_CONVENTIONAL = "conventional"
SCHEME_EVENT = "event-based (approx.)"

# scheme key -> (label written into traces and sweep rows, output file slug)
SCHEMES = {
    "proposed": (SCHEME_PROPOSED, "proposed"),
    "conventional": (SCHEME_CONVENTIONAL, "conventional"),
    "event": (SCHEME_EVENT, "event_based"),
}

# Sine-space variance represented by one unit of the event tracker's
# random-walk variance parameter. Calibrated so that the default parameters
# produce a mean realignment spacing of about 3.3 slots over the 10..100 m/s
# sweep on the reference scenario.
EVENT_VARIANCE_UNIT = 4.8e-5

# Width multiplier: the event beam covers +/- k * sqrt(accumulated variance).
EVENT_COVERAGE_SIGMAS = 2.0


class TrackingRunError(Exception):
    """A tracking episode could not be completed."""


@dataclass(frozen=True)
class Scenario:
    """Simulation scenario: link physics plus a straight target path.

    The target rides a line parallel to the array at perpendicular distance
    ``perpendicular_distance``, from ``start_angle`` to ``end_angle`` (radians
    from broadside) at constant speed. ``r_min`` is the outage threshold.
    """

    cfg: ArrayConfig
    budget: LinkBudget
    perpendicular_distance: float
    start_angle: float
    end_angle: float
    velocity: float
    tau: float
    time_step: float
    r_min: float
    geom: BsGeometry = field(default_factory=BsGeometry)

    def __post_init__(self):
        if not self.perpendicular_distance > 0.0:
            raise ValueError("perpendicular distance must be positive")
        if not self.end_angle > self.start_angle:
            raise ValueError("end angle must exceed start angle")
        if not -math.pi / 2 < self.start_angle < math.pi / 2:
            raise ValueError("start angle must lie in (-pi/2, pi/2)")
        if not -math.pi / 2 < self.end_angle < math.pi / 2:
            raise ValueError("end angle must lie in (-pi/2, pi/2)")
        if not self.velocity >= 0.0:
            raise ValueError("velocity must be >= 0")
        if not self.tau > 0.0:
            raise ValueError("sensing period must be positive")
        if not 0.0 < self.time_step <= self.tau / 10.0 * (1.0 + 1e-12):
            raise ValueError("time step must be positive and at most tau/10")
        if not self.r_min >= 0.0:
            raise ValueError("minimum rate must be >= 0")

    @property
    def lateral_start(self) -> float:
        return self.perpendicular_distance * math.tan(self.start_angle)

    @property
    def lateral_end(self) -> float:
        return self.perpendicular_distance * math.tan(self.end_angle)

    @property
    def duration(self) -> float:
        """Time to traverse the motion range; one period for a static target."""
        if self.velocity == 0.0:
            return self.tau
        return (self.lateral_end - self.lateral_start) / self.velocity

    def position_at(self, t):
        """Target position at time ``t``; an array of times gives arrays of coordinates."""
        bx, by = self.geom.boresight
        px, py = self.geom.lateral
        lateral = self.lateral_start + self.velocity * t
        d = self.perpendicular_distance
        return (
            self.geom.origin[0] + d * bx + lateral * px,
            self.geom.origin[1] + d * by + lateral * py,
        )

    def state_at(self, t: float) -> SensedState:
        px, py = self.geom.lateral
        return SensedState(
            position=self.position_at(t),
            velocity=(self.velocity * px, self.velocity * py),
        )

    def directions_at(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(sines, distances) of the target at every time in ``times``."""
        xs, ys = self.position_at(np.asarray(times, dtype=float))
        return positions_to_directions(xs, ys, self.geom)

    def period_spec(self, epoch: float, alpha: float, n_quad: int) -> ObjectiveSpec:
        """Objective of the period starting at ``epoch``, predicted from the state sensed then."""
        state = self.state_at(epoch)
        return ObjectiveSpec(
            state=state,
            tau=self.tau,
            interval=path_to_interval(state, self.tau, self.geom),
            budget=self.budget,
            cfg=self.cfg,
            r_min=self.r_min,
            alpha=alpha,
            n_quad=n_quad,
            geom=self.geom,
        )


@dataclass(frozen=True)
class EventBasedParams:
    """Published knobs of the event-triggered baseline (see module docstring)."""

    slot: float = 0.05
    rw_var: float = 25.0
    weight: float = 0.1

    def __post_init__(self):
        if not self.slot > 0.0:
            raise ValueError("slot duration must be positive")
        if not self.rw_var >= 0.0:
            raise ValueError("random-walk variance must be >= 0")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class TrackRecord:
    """Sampled rate trace of one episode, plus the realignment instants."""

    scheme: str
    times: np.ndarray
    sin_dirs: np.ndarray
    distances: np.ndarray
    bf_gains: np.ndarray
    rates: np.ndarray
    outages: np.ndarray
    beam_ids: list[str]
    realignment_times: list[float]

    def __post_init__(self):
        if len(self.times) == 0:
            raise ValueError("track record must contain at least one sample")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")


@dataclass(frozen=True)
class Metrics:
    avg_rate: float
    outage_prob: float
    realignment_count: int


@dataclass(frozen=True)
class SweepRow:
    value: float
    scheme: str
    metrics: Metrics


def _sample_times(duration: float, dt: float) -> np.ndarray:
    count = int(math.floor(duration / dt + 1e-9))
    return np.arange(count + 1) * dt


class _TraceBuilder:
    """Samples an episode once, then evaluates held beams on contiguous segments of it.

    Segment k (a sensing period or an event slot of length ``period``) holds the
    samples with floor(t / period + 1e-9) == k, the last segment taking any
    samples beyond it. The channel is computed once per episode: each sample's
    response generator and its received power at unit gain. A segment then
    builds only its own response rows (never one samples x N matrix), its gains
    under the held beam and its rates, bit for bit what ``bf_gain_profile`` and
    ``achievable_rate`` give on the segment.
    """

    def __init__(self, sc: Scenario, scheme: str, period: float):
        self.sc = sc
        self.scheme = scheme
        self.times = _sample_times(sc.duration, sc.time_step)
        self.sins, self.dists = sc.directions_at(self.times)
        self.generators = response_generator(self.sins)
        self.powers = link_power(self.dists, sc.budget, sc.cfg)
        self.n_segments = max(1, int(math.ceil(sc.duration / period - 1e-9)))
        seg_of = np.minimum(np.floor(self.times / period + 1e-9).astype(int), self.n_segments - 1)
        self.starts = np.searchsorted(seg_of, np.arange(self.n_segments + 1))
        self.gains = np.empty(len(self.times))
        self.rates = np.empty(len(self.times))
        self.beam_ids: list[str] = []
        self.realignments: list[float] = []

    def add_segment(self, k: int, beam: Precoder, beam_id: str) -> bool:
        """Evaluate segment ``k`` under a held beam; returns True when it had an outage."""
        sc = self.sc
        seg = slice(self.starts[k], self.starts[k + 1])
        self.gains[seg] = beam_gain(response_rows(self.generators[seg], sc.cfg.n_antennas), beam)
        self.rates[seg] = rate_from_power(self.powers[seg], self.gains[seg], sc.budget)
        self.beam_ids.extend([beam_id] * (seg.stop - seg.start))
        return bool(np.any(self.rates[seg] < sc.r_min))

    def record(self) -> TrackRecord:
        return TrackRecord(
            scheme=self.scheme,
            times=self.times,
            sin_dirs=self.sins,
            distances=self.dists,
            bf_gains=self.gains,
            rates=self.rates,
            outages=self.rates < self.sc.r_min,
            beam_ids=self.beam_ids,
            realignment_times=self.realignments,
        )


def run_sensing_assisted(sc: Scenario, cb: Codebook) -> TrackRecord:
    """Proposed scheme: per-period codebook beams over predicted intervals."""
    check_scenario(cb, sc, cb.alpha)
    builder = _TraceBuilder(sc, SCHEME_PROPOSED, sc.tau)
    for k in range(builder.n_segments):
        epoch = k * sc.tau
        state = sc.state_at(epoch)
        interval = path_to_interval(state, sc.tau, sc.geom)
        try:
            ti, di = lookup_indices(cb, interval)
        except CodebookError as exc:
            raise TrackingRunError(
                f"no codebook beam for epoch {k} (t={epoch:.6g} s): {exc}"
            ) from exc
        beam = entry_precoder(cb.entries[(ti, di)], sc.cfg)
        builder.add_segment(k, beam, f"cb[{ti},{di}]")
        builder.realignments.append(epoch)
    return builder.record()


def run_conventional(sc: Scenario) -> TrackRecord:
    """Baseline: per-period MRT beam at the target's direction at each epoch."""
    builder = _TraceBuilder(sc, SCHEME_CONVENTIONAL, sc.tau)
    epochs = np.arange(builder.n_segments) * sc.tau
    sins, _ = sc.directions_at(epochs)
    for k, (epoch, sin_dir) in enumerate(zip(epochs.tolist(), sins.tolist())):
        builder.add_segment(k, mrt_precoder(sin_dir, sc.cfg), f"mrt[{k}]")
        builder.realignments.append(epoch)
    return builder.record()


def run_sensing_assisted_direct(
    sc: Scenario, pso: PsoConfig, alpha: float, n_quad: int = 64
) -> TrackRecord:
    """Proposed scheme with per-period re-optimisation instead of a codebook.

    Optimises each period's beam directly on its unquantised interval, for a
    scenario that no codebook matches. Transmit-power sweeps re-optimise for
    the same reason (the fingerprint binds the build power), but they call
    :func:`_run_direct` with every power point at once.
    """
    return _run_direct([sc], pso, alpha, n_quad)[0]


def _run_direct(
    scenarios: list[Scenario], pso: PsoConfig, alpha: float, n_quad: int, jobs: int = 1
) -> list[TrackRecord]:
    """:func:`run_sensing_assisted_direct` for each scenario, all periods in one optimisation."""
    builders = [_TraceBuilder(sc, SCHEME_PROPOSED, sc.tau) for sc in scenarios]
    periods = [(i, k) for i, b in enumerate(builders) for k in range(b.n_segments)]
    specs = [scenarios[i].period_spec(k * scenarios[i].tau, alpha, n_quad) for i, k in periods]
    seeds = [derive_seed("direct", pso.seed, k) for _, k in periods]
    results = optimize_omegas(specs, pso, seeds, jobs)
    for (i, k), spec, result in zip(periods, specs, results):
        beam = adaptive_precoder(spec.interval, result.omega_star, scenarios[i].cfg)
        builders[i].add_segment(k, beam, f"opt[{k}]")
        builders[i].realignments.append(k * scenarios[i].tau)
    return [b.record() for b in builders]


def _event_beam(sc: Scenario, centre: float, half_width: float) -> Precoder:
    """Unoptimised mid-array beam, half-width clamped to [0, 0.5] and the domain; 0 gives MRT."""
    delta = max(0.0, min(half_width, 0.5, 1.0 - abs(centre) - 1e-9))
    omega = (sc.cfg.n_antennas - 1) * math.pi / 2.0
    return adaptive_precoder(AngularInterval(centre, delta), omega, sc.cfg)


def run_event_based(sc: Scenario, params: EventBasedParams) -> TrackRecord:
    """Outage-triggered baseline with growing assumed uncertainty (approx.).

    Slot loop: hold the beam built from the current estimate and uncertainty;
    if any sample in the slot is an outage, realign to the true direction at
    the next slot boundary and reset the uncertainty, otherwise grow it by
    weight * rw_var per slot.
    """
    builder = _TraceBuilder(sc, SCHEME_EVENT, params.slot)
    (estimate,), _ = sc.directions_at([0.0])
    variance = 0.0
    growth = params.weight * params.rw_var * EVENT_VARIANCE_UNIT
    segment = 0
    builder.realignments.append(0.0)

    for k in range(builder.n_segments):
        half_width = EVENT_COVERAGE_SIGMAS * math.sqrt(variance)
        beam = _event_beam(sc, estimate, half_width)
        had_outage = builder.add_segment(k, beam, f"event[{segment}]")
        boundary = (k + 1) * params.slot
        if had_outage and boundary < sc.duration:
            (estimate,), _ = sc.directions_at([boundary])
            variance = 0.0
            segment += 1
            builder.realignments.append(boundary)
        else:
            variance += growth
    return builder.record()


def compute_metrics(rec: TrackRecord, window: tuple[float, float]) -> Metrics:
    """Aggregate a trace over an angular window given in radians from broadside.

    The average rate uses trapezoidal time weighting; the outage probability
    is the fraction of in-window samples below the threshold.
    """
    lo, hi = math.sin(window[0]), math.sin(window[1])
    mask = (rec.sin_dirs >= lo - 1e-12) & (rec.sin_dirs <= hi + 1e-12)
    if not np.any(mask):
        raise ValueError("no samples fall inside the requested angular window")

    times = rec.times[mask]
    rates = rec.rates[mask]
    if len(times) == 1:
        avg = float(rates[0])
    else:
        avg = float(np.trapezoid(rates, times) / (times[-1] - times[0]))
    outage = float(np.mean(rec.outages[mask]))
    count = sum(1 for t in rec.realignment_times if times[0] <= t <= times[-1])
    return Metrics(avg_rate=avg, outage_prob=outage, realignment_count=count)


def run_scheme(
    scheme: str, sc: Scenario, cb: Codebook | None, event_params: EventBasedParams
) -> TrackRecord:
    """One episode of a :data:`SCHEMES` key."""
    if scheme == "proposed":
        if cb is None:
            raise TrackingRunError("the proposed scheme requires a codebook")
        return run_sensing_assisted(sc, cb)
    if scheme == "conventional":
        return run_conventional(sc)
    if scheme == "event":
        return run_event_based(sc, event_params)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {tuple(SCHEMES)}")


def axis_scenario(template: Scenario, axis: str, value: float) -> Scenario:
    """The template at one axis value; a value no scenario accepts raises a ValueError naming it."""
    try:
        if axis == "velocity":
            return replace(template, velocity=value)
        if axis == "tx_power":
            return replace(template, budget=replace(template.budget, tx_power=dbm_to_watt(value)))
    except ValueError as exc:
        raise ValueError(f"{axis} value {value!r}: {exc}") from exc
    raise ValueError(f"unknown sweep axis {axis!r}")


def _point_error(value: float, scheme: str, exc: Exception) -> TrackingRunError:
    return TrackingRunError(f"sweep point (value={value!r}, scheme={scheme!r}): {exc}")


def sweep(
    template: Scenario,
    axis: str,
    values,
    schemes,
    cb: Codebook | None,
    event_params: EventBasedParams | None = None,
    jobs: int = 1,
) -> list[SweepRow]:
    """Metrics for every (value, scheme) pair along a velocity or power axis.

    ``axis`` is "velocity" (m/s) or "tx_power" (dBm). On the power axis the
    proposed scheme re-optimises beams per period because the codebook is
    fingerprinted to its build power; only this optimisation, one call for every
    period of every power, uses up to ``jobs`` worker processes. Rows come back
    in input order.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep requires at least one axis value")
    schemes = list(schemes)
    if not schemes or len(set(schemes)) < len(schemes):
        raise ValueError(f"sweep requires at least one scheme, each once; got {schemes!r}")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {tuple(SCHEMES)}")
    event_params = event_params or EventBasedParams()
    window = (template.start_angle, template.end_angle)

    scenarios = [axis_scenario(template, axis, v) for v in values]

    direct = None
    if axis == "tx_power" and "proposed" in schemes and cb is not None:
        try:
            direct = _run_direct(scenarios, cb.pso, cb.alpha, cb.n_quad, jobs)
        except ValueError as exc:  # no check on a period spec or its swarm depends on the power
            raise _point_error(values[0], "proposed", exc) from exc

    rows = []
    for i, (value, sc) in enumerate(zip(values, scenarios)):
        for scheme in schemes:
            try:
                use_direct = direct is not None and scheme == "proposed"
                rec = direct[i] if use_direct else run_scheme(scheme, sc, cb, event_params)
                metrics = compute_metrics(rec, window)
            except Exception as exc:
                raise _point_error(value, scheme, exc) from exc
            rows.append(SweepRow(value=value, scheme=rec.scheme, metrics=metrics))
    return rows
