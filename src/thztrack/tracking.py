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
from contextlib import suppress
from dataclasses import dataclass, field, replace
from itertools import islice

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

# Most sensing periods or event slots an episode is split into; each keeps a start index.
MAX_SEGMENTS = 1_000_000

# Most samples an episode holds; every trace array is sized by this count.
MAX_SAMPLES = 1_000_000


class TrackingRunError(Exception):
    """A tracking episode could not be completed."""


_SCENARIO_FLOATS = (
    "perpendicular_distance", "start_angle", "end_angle", "velocity", "tau", "time_step", "r_min"
)


@dataclass(frozen=True)
class Scenario:
    """Simulation scenario: link physics plus a straight target path.

    The target rides a line parallel to the array at perpendicular distance
    ``perpendicular_distance``, from ``start_angle`` to ``end_angle`` (radians
    from broadside) at constant speed. ``r_min`` is the outage threshold. ``geom``
    places only the true path that traces sample (:meth:`position_at`,
    :meth:`directions_at`); the BS senses and predicts in its own frame.
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
        for name in _SCENARIO_FLOATS:
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
        px, py = -by, bx  # lateral: boresight turned 90 degrees counter-clockwise
        lateral = self.lateral_start + self.velocity * t
        d = self.perpendicular_distance
        return (
            self.geom.origin[0] + d * bx + lateral * px,
            self.geom.origin[1] + d * by + lateral * py,
        )

    def state_at(self, t: float) -> SensedState:
        """The state the BS senses at time ``t``, in its own frame: position (D, lateral offset)
        and velocity (0, v), whatever ``geom`` is."""
        position = (self.perpendicular_distance, self.lateral_start + self.velocity * t)
        return SensedState(position=position, velocity=(0.0, self.velocity))

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
            interval=path_to_interval(state, self.tau),
            budget=self.budget,
            cfg=self.cfg,
            r_min=self.r_min,
            alpha=alpha,
            n_quad=n_quad,
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


class _Episode:
    """A scenario sampled once for every scheme run on it: the sample times, the target's sines
    and distances, each sample's response generator and received power at unit gain, and the
    first sample of each sensing period. It holds no response rows (see :func:`_run`)."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        samples = sc.duration / sc.time_step + 1.0
        if not samples <= MAX_SAMPLES:  # also inf and NaN
            at = f"velocity {sc.velocity!r} m/s at time step {sc.time_step!r} s"
            raise TrackingRunError(f"{at} needs {samples:.6g} samples, over {MAX_SAMPLES}")
        self.times = np.arange(math.floor(sc.duration / sc.time_step + 1e-9) + 1) * sc.time_step
        self.sins, self.dists = sc.directions_at(self.times)
        self.generators = response_generator(self.sins)
        self.powers = link_power(self.dists, sc.budget, sc.cfg)
        self.periods = self.starts(sc.tau)

    def starts(self, period: float) -> list[int]:
        """First sample of each segment of length ``period``, then the sample count: segment k
        holds the samples with floor(t / period + 1e-9) == k (the last also any later ones), and
        some may hold none."""
        segments = self.sc.duration / period
        if not segments <= MAX_SEGMENTS:  # also inf and NaN
            raise TrackingRunError(f"{segments:.6g} segments of {period!r} s, over {MAX_SEGMENTS}")
        count = max(1, int(math.ceil(segments - 1e-9)))
        seg_of = np.minimum(np.floor(self.times / period + 1e-9).astype(int), count - 1)
        return np.searchsorted(seg_of, np.arange(count + 1)).tolist()


def _event_beam(sc: Scenario, centre: float, half_width: float) -> Precoder:
    """Unoptimised mid-array beam, half-width clamped to [0, 0.5] and the domain; 0 gives MRT."""
    delta = max(0.0, min(half_width, 0.5, 1.0 - abs(centre) - 1e-9))
    omega = (sc.cfg.n_antennas - 1) * math.pi / 2.0
    return adaptive_precoder(AngularInterval(centre, delta), omega, sc.cfg)


def _event_beams(ep: _Episode, params: EventBasedParams, realignments: list[float]):
    """The slot loop of :func:`run_event_based`: yields each slot's beam, None for a slot with no
    sample, and is sent its outage. Only a slot with a sample can have an outage, so the sines at
    the start and at those slots' ends are read in one call; (k + 1) * slot has the same bits as
    a float64 product as it has as a Python float."""
    sc = ep.sc
    variance, segment = 0.0, 0
    growth = params.weight * params.rw_var * EVENT_VARIANCE_UNIT
    starts = ep.starts(params.slot)
    held_ends = (np.flatnonzero(np.diff(starts)) + 1) * params.slot
    sines = iter(sc.directions_at(np.append(0.0, held_ends))[0].tolist())
    estimate = next(sines)
    for k in range(len(starts) - 1):
        half_width = EVENT_COVERAGE_SIGMAS * math.sqrt(variance)
        beam = _event_beam(sc, estimate, half_width) if starts[k + 1] > starts[k] else None
        had_outage = yield beam, f"event[{segment}]"
        end_sine = None if beam is None else next(sines)
        boundary = (k + 1) * params.slot
        if had_outage and boundary < sc.duration:
            estimate = end_sine
            variance = 0.0
            segment += 1
            realignments.append(boundary)
        else:
            variance += growth


def _optimised(episodes: list[_Episode], pso: PsoConfig, alpha: float, n_quad: int, jobs: int = 1):
    """Each episode's (interval, omega) per sensing period, all periods in one optimisation."""
    periods = [(ep.sc, k) for ep in episodes for k in range(len(ep.periods) - 1)]
    specs = [sc.period_spec(k * sc.tau, alpha, n_quad) for sc, k in periods]
    seeds = [derive_seed("direct", pso.seed, k) for _, k in periods]
    results = optimize_omegas(specs, pso, seeds, jobs)
    held = iter([(spec.interval, result.omega_star) for spec, result in zip(specs, results)])
    return [list(islice(held, len(ep.periods) - 1)) for ep in episodes]


def _scheme_rule(key: str, ep: _Episode, cb, event_params, direct=None) -> tuple:
    """(scheme, segment length, beams, realignments) of a :data:`SCHEMES` key, or of the
    proposed scheme re-optimised per period when ``direct`` holds its (interval, omega)."""
    sc, epochs = ep.sc, [k * ep.sc.tau for k in range(len(ep.periods) - 1)]
    if key == "proposed" and direct is not None:
        beams = ((adaptive_precoder(*held, sc.cfg), f"opt[{k}]") for k, held in enumerate(direct))
        return SCHEME_PROPOSED, sc.tau, beams, epochs
    if key == "proposed":
        if cb is None:
            raise TrackingRunError("the proposed scheme requires a codebook")
        check_scenario(cb, sc.period_spec(0.0, cb.alpha, cb.n_quad))
        cells = []
        for k, epoch in enumerate(epochs):
            interval = path_to_interval(sc.state_at(epoch), sc.tau)
            try:
                cells.append(lookup_indices(cb, interval))
            except CodebookError as exc:
                raise TrackingRunError(
                    f"no codebook beam for epoch {k} (t={epoch:.6g} s): {exc}"
                ) from exc
        beams = ((entry_precoder(cb.entries[c], sc.cfg), "cb[{},{}]".format(*c)) for c in cells)
        return SCHEME_PROPOSED, sc.tau, beams, epochs
    if key == "conventional":
        sins = sc.directions_at(epochs)[0].tolist()
        beams = ((mrt_precoder(s, sc.cfg), f"mrt[{k}]") for k, s in enumerate(sins))
        return SCHEME_CONVENTIONAL, sc.tau, beams, epochs
    if key == "event":
        realigned = [0.0]
        return SCHEME_EVENT, event_params.slot, _event_beams(ep, event_params, realigned), realigned
    raise ValueError(f"unknown scheme {key!r}; expected one of {tuple(SCHEMES)}")


def _walk(ep: _Episode, rule: tuple, gains: np.ndarray, rates: np.ndarray, beam_ids: list[str]):
    """Coroutine evaluating ``rule`` on each sensing period sent as (lo, hi, rows); a segment
    crossing a period boundary is evaluated in pieces. The rule's beams yield each segment's
    beam (or None if it is empty) and id in order, and are sent whether the last had an outage.
    """
    sc, (_, period, beams, _) = ep.sc, rule
    starts = ep.starts(period)
    lo, hi, rows = yield
    outage = None
    for k in range(len(starts) - 1):
        beam, beam_id = beams.send(outage)
        outage = False
        while True:
            a, b = max(starts[k], lo), min(starts[k + 1], hi)
            if b > a:
                gains[a:b] = beam_gain(rows[a - lo : b - lo], beam)
                rates[a:b] = rate_from_power(ep.powers[a:b], gains[a:b], sc.budget)
                outage = outage or bool(np.any(rates[a:b] < sc.r_min))
                beam_ids.extend([beam_id] * (b - a))
            if starts[k + 1] <= hi:
                break
            del rows  # so that only one period's rows are alive while the next is built
            lo, hi, rows = yield
    with suppress(StopIteration):
        beams.send(outage)
    yield  # every segment has ended in the first period that reaches the last sample


def _run(ep: _Episode, rules: list[tuple]) -> list[TrackRecord]:
    """Each rule's record over one episode, building each sensing period's response rows once.
    Each row is its sample's own running product and ``beam_gain`` sums each row by itself,
    so grouping rows by period changes no value."""
    sc, n = ep.sc, len(ep.times)
    traces = [(np.empty(n), np.empty(n), []) for _ in rules]
    walks = [_walk(ep, rule, *trace) for rule, trace in zip(rules, traces)]
    for walk in walks:
        next(walk)
    for lo, hi in zip(ep.periods, ep.periods[1:]):
        rows = response_rows(ep.generators[lo:hi], sc.cfg.n_antennas)
        for walk in walks:
            walk.send((lo, hi, rows))
        del rows
        if hi == n:
            break
    return [
        TrackRecord(scheme, ep.times, ep.sins, ep.dists, gains, rates, rates < sc.r_min, ids, times)
        for (scheme, _, _, times), (gains, rates, ids) in zip(rules, traces)
    ]


def run_schemes(
    sc: Scenario, keys, cb: Codebook | None, event_params: EventBasedParams | None
) -> list[TrackRecord]:
    """One record per :data:`SCHEMES` key in ``keys``, every scheme on one sampling of ``sc``."""
    ep = _Episode(sc)
    return _run(ep, [_scheme_rule(key, ep, cb, event_params) for key in keys])


def run_sensing_assisted(sc: Scenario, cb: Codebook) -> TrackRecord:
    """Proposed scheme: per-period codebook beams over predicted intervals."""
    return run_schemes(sc, ["proposed"], cb, None)[0]


def run_conventional(sc: Scenario) -> TrackRecord:
    """Baseline: per-period MRT beam at the target's direction at each epoch."""
    return run_schemes(sc, ["conventional"], None, None)[0]


def run_sensing_assisted_direct(
    sc: Scenario, pso: PsoConfig, alpha: float, n_quad: int
) -> TrackRecord:
    """Proposed scheme with per-period re-optimisation instead of a codebook.

    Optimises each period's beam directly on its unquantised interval, for a
    scenario that no codebook matches. Transmit-power sweeps re-optimise for the
    same reason (the fingerprint states the build power); they optimise every
    period of every power in one call, then run each power's schemes together.
    """
    ep = _Episode(sc)
    (optimised,) = _optimised([ep], pso, alpha, n_quad)
    return _run(ep, [_scheme_rule("proposed", ep, None, None, optimised)])[0]


def run_event_based(sc: Scenario, params: EventBasedParams) -> TrackRecord:
    """Outage-triggered baseline with growing assumed uncertainty (approx.).

    Slot loop: hold the beam built from the current estimate and uncertainty;
    if any sample in the slot is an outage, realign to the true direction at
    the next slot boundary and reset the uncertainty, otherwise grow it by
    weight * rw_var per slot.
    """
    return run_schemes(sc, ["event"], None, params)[0]


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


def sweep_scenarios(template: Scenario, axis: str, values, schemes) -> list[Scenario]:
    """Each axis value's scenario, once the values and schemes are checked.

    A ValueError names the first value or scheme no sweep accepts, so a caller
    can check them all before it reads a codebook.
    """
    if not values:
        raise ValueError("sweep requires at least one axis value")
    if not schemes or len(set(schemes)) < len(schemes):
        raise ValueError(f"sweep requires at least one scheme, each once; got {schemes!r}")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {tuple(SCHEMES)}")
    return [axis_scenario(template, axis, v) for v in values]


def _at_point(value: float, scheme: str, fn, *args):
    """``fn(*args)``; a documented run failure of it is raised again naming the sweep point."""
    try:
        return fn(*args)
    except (ValueError, TrackingRunError) as exc:
        raise TrackingRunError(f"sweep point (value={value!r}, scheme={scheme!r}): {exc}") from exc


def sweep(
    template: Scenario,
    axis: str,
    values,
    schemes,
    cb: Codebook | None,
    event_params: EventBasedParams | None = None,
    jobs: int = 1,
) -> list[SweepRow]:
    """Metrics for every (value, scheme) pair along a velocity or power axis, in input order.

    ``axis`` is "velocity" (m/s) or "tx_power" (dBm). Each value's scenario is sampled once, as
    it runs, and its schemes share each sensing period's response rows (see :func:`run_schemes`).
    On the power axis the proposed scheme re-optimises beams per period, since the codebook's
    fingerprint holds its build power: one call for every period of every power, the only work
    on up to ``jobs`` worker processes. A point's ValueError or TrackingRunError is raised again
    as a TrackingRunError naming its value and a scheme: the first for its sampling and shared
    run, its own for its rule and metrics, and ``proposed`` at the first value for the
    optimisation. Any other exception propagates unwrapped.
    """
    values, schemes = [float(v) for v in values], list(schemes)
    scenarios = sweep_scenarios(template, axis, values, schemes)
    event_params = event_params or EventBasedParams()
    window = (template.start_angle, template.end_angle)

    episodes = (_at_point(v, schemes[0], _Episode, sc) for v, sc in zip(values, scenarios))
    optimised = [None] * len(values)
    if axis == "tx_power" and "proposed" in schemes and cb is not None:
        episodes = list(episodes)  # no check of the optimisation depends on the power
        args = episodes, cb.pso, cb.alpha, cb.n_quad, jobs
        optimised = _at_point(values[0], "proposed", _optimised, *args)

    rows = []
    for v, ep, direct in zip(values, episodes, optimised):
        rules = [_at_point(v, k, _scheme_rule, k, ep, cb, event_params, direct) for k in schemes]
        for k, rec in zip(schemes, _at_point(v, schemes[0], _run, ep, rules)):
            rows.append(SweepRow(v, rec.scheme, _at_point(v, k, compute_metrics, rec, window)))
    return rows
