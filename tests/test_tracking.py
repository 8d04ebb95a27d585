"""Tracking episodes: scheme semantics, metrics, and sweeps."""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from thztrack import (
    AngularInterval,
    ArrayConfig,
    BsGeometry,
    CodebookError,
    CodebookGrid,
    EventBasedParams,
    Scenario,
    TrackRecord,
    achievable_rate,
    adaptive_precoder,
    bf_gain_profile,
    build_codebook,
    channel_gain,
    compute_metrics,
    load,
    mrt_precoder,
    optimize_omega,
    pose_to_direction,
    positions_to_directions,
    run_conventional,
    run_event_based,
    run_sensing_assisted,
    run_sensing_assisted_direct,
    save,
    sweep,
)
from thztrack.exports import (
    PATTERN_COLUMNS,
    SWEEP_COLUMNS,
    TRACE_COLUMNS,
    pattern_gain_db,
    write_pattern,
    write_sweep,
    write_trace,
)
from thztrack.codebook import check_scenario
from thztrack.optimizer import SWARM_CHUNK
from thztrack.seeding import derive_seed
from thztrack import exports, tracking
from thztrack.tracking import _Episode, _event_beam, _run, axis_scenario, run_schemes
from conftest import DISTANCE_M, END_ANGLE_RAD, aligned_rate, make_objective_spec, make_scenario
from conftest import CARRIER_HZ, check_rejections, make_budget, table_tests
from gain_reference import direction_of

TAU = 0.165


@pytest.fixture(scope="module")
def static_codebook(small_cfg, small_budget, small_pso):
    sc = make_scenario(small_cfg, small_budget, velocity=0.0, time_step=TAU / 50.0)
    grid = CodebookGrid(theta_step=0.01, delta_step=0.002, theta_range=(0.0, 0.0), delta_max=0.0)
    return build_codebook(grid, make_objective_spec(sc, n_quad=16), small_pso)


def static_scenario(small_cfg, small_budget) -> Scenario:
    return make_scenario(small_cfg, small_budget, velocity=0.0, time_step=TAU / 50.0)


def test_static_target_scheme_equivalence(small_cfg, small_budget, static_codebook):
    sc = static_scenario(small_cfg, small_budget)
    rec_p = run_sensing_assisted(sc, static_codebook)
    rec_c = run_conventional(sc)
    rec_e = run_event_based(sc, EventBasedParams(rw_var=0.0))
    window = (sc.start_angle, sc.end_angle)
    m_p = compute_metrics(rec_p, window)
    m_c = compute_metrics(rec_c, window)
    m_e = compute_metrics(rec_e, window)
    assert m_p.avg_rate == pytest.approx(m_c.avg_rate, rel=1e-12)
    assert abs(m_p.avg_rate - m_e.avg_rate) <= 1e-9 * m_p.avg_rate
    assert m_p.outage_prob == m_c.outage_prob == m_e.outage_prob == 0.0
    expected = aligned_rate(small_cfg, small_budget)
    assert m_p.avg_rate == pytest.approx(expected, rel=1e-12)
    # flat trace, single beam
    assert np.allclose(rec_p.rates, rec_p.rates[0])
    assert len(set(rec_p.beam_ids)) == 1


def test_conventional_period_start_alignment(small_cfg, small_budget):
    sc = make_scenario(small_cfg, small_budget, velocity=20.0, time_step=TAU / 50.0)
    rec = run_conventional(sc)
    aligned = aligned_rate(small_cfg, small_budget)
    n_per = int(round(sc.tau / sc.time_step))
    starts = rec.rates[::n_per]
    dists = rec.distances[::n_per]
    for rate, dist in zip(starts, dists):
        expected = achievable_rate(float(small_cfg.n_antennas), float(dist), small_budget, small_cfg)
        assert rate == pytest.approx(expected, rel=1e-12)
    assert starts[0] == pytest.approx(aligned, rel=1e-12)


def test_beam_hold_one_beam_per_period(small_scenario, small_codebook):
    rec_p = run_sensing_assisted(small_scenario, small_codebook)
    rec_c = run_conventional(small_scenario)
    for rec in (rec_p, rec_c):
        period_of = np.minimum(
            np.floor(rec.times / TAU + 1e-9).astype(int),
            int(np.ceil(small_scenario.duration / TAU - 1e-9)) - 1,
        )
        for k in np.unique(period_of):
            ids = {rec.beam_ids[i] for i in np.where(period_of == k)[0]}
            assert len(ids) == 1


def test_outage_flags_consistent(small_scenario, small_codebook):
    for rec in (
        run_sensing_assisted(small_scenario, small_codebook),
        run_conventional(small_scenario),
        run_event_based(small_scenario, EventBasedParams()),
    ):
        assert np.array_equal(rec.outages, rec.rates < small_scenario.r_min)


def test_rotated_geometry_check_binds_the_path_distance(small_cfg, small_budget, small_pso):
    # the check computes the scenario's distance as the build does; both sense in the BS
    # frame, so on a rotated or moved BS that is sc.perpendicular_distance to the last bit
    rng = np.random.default_rng(23)
    grid = CodebookGrid(theta_step=0.01, delta_step=0.002, theta_range=(0.0, 0.0), delta_max=0.0)
    exact = []
    for origin, angle in zip(rng.uniform(-50.0, 50.0, (8, 2)), rng.uniform(-math.pi, math.pi, 8)):
        geom = BsGeometry(origin=tuple(origin), boresight=(math.cos(angle), math.sin(angle)))
        sc = replace(make_scenario(small_cfg, small_budget, velocity=20.0), geom=geom)
        spec = sc.period_spec(0.0, 10.0, 16)
        cb = build_codebook(grid, spec, small_pso)
        assert cb.fingerprint["perpendicular_distance"] == spec.state.position[0]
        exact.append(cb.fingerprint["perpendicular_distance"] == sc.perpendicular_distance)
        check_scenario(cb, spec)
        nearer = replace(sc, perpendicular_distance=0.5 * sc.perpendicular_distance)
        with pytest.raises(CodebookError, match="^codebook perpendicular_distance "):
            check_scenario(cb, nearer.period_spec(0.0, 10.0, 16))
    assert all(exact)


def test_period_specs_and_codebooks_do_not_depend_on_the_bs_placement(
    small_cfg, small_budget, small_pso
):
    # the BS senses, predicts and optimises in its own frame; its placement moves only the
    # true path a trace samples, so every spec field and every codebook bit stays put
    rng = np.random.default_rng(23)
    grid = CodebookGrid(theta_step=0.02, delta_step=0.005, theta_range=(0.0, 0.04), delta_max=0.01)
    default = make_scenario(small_cfg, small_budget, velocity=20.0)

    def specs(sc):
        return [sc.period_spec(k * sc.tau, 10.0, 16) for k in range(5)]

    def bits(sc):
        cb = build_codebook(grid, specs(sc)[0], small_pso)
        cells = [(e.omega.hex(), e.objective_value.hex()) for _, e in sorted(cb.entries.items())]
        return repr(cb.fingerprint), cells

    expected_specs, expected_bits = specs(default), bits(default)
    assert len(expected_bits[1]) == 9
    for origin, angle in zip(rng.uniform(-50.0, 50.0, (8, 2)), rng.uniform(-math.pi, math.pi, 8)):
        geom = BsGeometry(origin=tuple(origin), boresight=(math.cos(angle), math.sin(angle)))
        sc = replace(default, geom=geom)
        for spec, expected in zip(specs(sc), expected_specs):
            for f in fields(spec):
                assert repr(getattr(spec, f.name)) == repr(getattr(expected, f.name)), f.name
        assert bits(sc) == expected_bits


def test_event_static_never_realigns(small_cfg, small_budget):
    sc = static_scenario(small_cfg, small_budget)
    rec = run_event_based(sc, EventBasedParams(rw_var=0.0))
    assert rec.realignment_times == [0.0]
    assert not np.any(rec.outages)


def test_event_moving_target_realigns(small_scenario):
    params = EventBasedParams()
    rec1 = run_event_based(small_scenario, params)
    rec2 = run_event_based(small_scenario, params)
    assert len(rec1.realignment_times) > 1
    assert rec1.realignment_times == rec2.realignment_times
    assert np.array_equal(rec1.rates, rec2.rates)
    assert np.mean(np.diff(rec1.realignment_times)) / params.slot >= 1.0  # mean gap in slots


def test_event_slot_with_no_sample_builds_no_beam(small_scenario, monkeypatch):
    # a 1 ms slot is shorter than the 3.3 ms time step, so most slots hold no sample
    params = EventBasedParams(slot=0.001)
    starts = _Episode(small_scenario).starts(params.slot)
    filled = sum(b > a for a, b in zip(starts, starts[1:]))
    assert 0 < filled < len(starts) - 1
    calls = []

    def counted(*args):
        calls.append(args)
        return _event_beam(*args)

    monkeypatch.setattr(tracking, "_event_beam", counted)
    run_event_based(small_scenario, params)
    assert len(calls) == filled


@pytest.mark.parametrize("slot", [0.05, 0.001])
def test_event_realigns_to_the_sine_read_at_its_boundary(small_scenario, slot):
    # an outage in every slot with a sample realigns at each of their ends, and each later beam
    # is centred on the last estimate: the one-element read at that boundary, bit for bit
    sc, params = small_scenario, EventBasedParams(slot=slot)
    ep = _Episode(sc)
    starts = ep.starts(params.slot)
    realignments = [0.0]
    beams = tracking._event_beams(ep, params, realignments)
    centres = []
    beam, _ = next(beams)
    with suppress(StopIteration):
        while True:
            if beam is not None:
                centres.append((float(beam.theta_m), realignments[-1]))
            beam, _ = beams.send(beam is not None)
    assert len(centres) == sum(b > a for a, b in zip(starts, starts[1:]))
    assert len(realignments) > 10
    for centre, boundary in centres:
        (expected,), _ = sc.directions_at([boundary])
        assert centre.hex() == float(expected).hex()


def test_event_beam_at_zero_width_is_mrt(small_scenario):
    cfg = small_scenario.cfg
    for centre in (-0.6, 0.0, 0.37, 1.0 - 1e-10):
        mrt = mrt_precoder(centre, cfg).weights
        for half_width in (0.0, 1e-13):
            assert np.array_equal(_event_beam(small_scenario, centre, half_width).weights, mrt)
    # the half-width is clamped to 0.5 and to the sine-space domain
    assert _event_beam(small_scenario, 0.0, 2.0).delta == 0.5
    assert _event_beam(small_scenario, 0.9, 0.3).delta == pytest.approx(0.1 - 1e-9, abs=1e-15)


def _written_out_gain_and_rate(sins, dists, beam, sc):
    """Gain and rate of a held beam in the one-call forms' operation order, written out here."""
    rows = np.empty((len(sins), sc.cfg.n_antennas), dtype=complex)
    rows[:, 0] = 1.0
    rows[:, 1:] = np.exp(-1j * np.pi * sins)[:, None]
    np.cumprod(rows, axis=1, out=rows)
    amp = np.einsum("ij,j->i", rows, np.conj(beam.weights))
    gains = amp.real**2 + amp.imag**2
    b, h0 = sc.budget, channel_gain(dists, sc.budget, sc.cfg)
    snr = b.tx_power * h0 * h0 * gains / (b.noise_psd * b.bandwidth)
    return gains, b.bandwidth * np.log1p(snr) / math.log(2)


def _held(beam, count):
    """A rule's beams that hold ``beam`` for each of ``count`` segments."""
    for _ in range(count):
        yield beam, "b"


@pytest.mark.parametrize("length", [1, 3, 30, 100])
def test_segment_bits_match_the_one_call_forms(small_scenario, length):
    # the driver computes the channel once per episode and the rows once per sensing
    # period (50 samples), so a segment of 30 or 100 samples is evaluated in pieces;
    # no bit may differ from evaluating the segment alone
    sc = small_scenario  # 32 antennas, omega up to 31 pi / 2
    centre = float(sc.directions_at([0.0])[0][0])
    beams = {
        "mrt": mrt_precoder(centre, sc.cfg),
        "wide": adaptive_precoder(AngularInterval(centre, 0.2), 0.35 * math.pi * 31, sc.cfg),
        "event": _event_beam(sc, centre, 0.0),
    }
    ep = _Episode(sc)
    period = length * sc.time_step
    starts = ep.starts(period)
    assert len(starts) - 1 >= 3
    rules = [("test", period, _held(beam, len(starts) - 1), []) for beam in beams.values()]
    for beam, rec in zip(beams.values(), _run(ep, rules)):
        for k in range(len(starts) - 2):  # every segment but the last, which takes the rest
            seg = slice(starts[k], starts[k + 1])
            assert seg.stop - seg.start == length
            sins, dists = ep.sins[seg], ep.dists[seg]
            gains = bf_gain_profile(sins, beam, sc.cfg)
            rates = achievable_rate(gains, dists, sc.budget, sc.cfg)
            assert np.array_equal(rec.bf_gains[seg], gains)
            assert np.array_equal(rec.rates[seg], rates)
            written = _written_out_gain_and_rate(sins, dists, beam, sc)
            assert np.array_equal(gains, written[0]) and np.array_equal(rates, written[1])


def _listening(beam, count, heard):
    """A rule's beams that hold ``beam`` for ``count`` segments and keep each outage they hear."""
    for _ in range(count):
        heard.append((yield beam, "b"))


def test_segment_hears_an_outage_in_any_of_its_pieces(small_scenario):
    # segments of 30 samples cross the 50-sample sensing periods; each must hear, once,
    # whether any of its pieces had an outage, wherever in the segment that outage fell
    sc = small_scenario
    ep = _Episode(sc)
    period = 30 * sc.time_step
    starts = ep.starts(period)
    beams = [mrt_precoder(float(s), sc.cfg) for s in ep.sins[::40]]
    heard = [[] for _ in beams]
    rules = [("test", period, _listening(b, len(starts) - 1, h), []) for b, h in zip(beams, heard)]
    only_before_last = only_in_last = 0
    for rec, told in zip(_run(ep, rules), heard):
        segments = list(zip(starts, starts[1:]))
        assert told == [bool(rec.outages[a:b].any()) for a, b in segments]
        for a, b in segments:
            last = max([a] + [p for p in ep.periods if a < p < b])  # the segment's last piece
            before, after = rec.outages[a:last].any(), rec.outages[last:b].any()
            only_before_last += bool(before and not after)
            only_in_last += bool(after and not before and last > a)
    assert only_before_last > 0 and only_in_last > 0
    # segments shorter than the time step are mostly empty, and each is still heard, in order
    short = 0.6 * sc.time_step
    starts, heard = ep.starts(short), []
    (rec,) = _run(ep, [("test", short, _listening(beams[0], len(ep.starts(short)) - 1, heard), [])])
    assert heard == [bool(rec.outages[a:b].any()) for a, b in zip(starts, starts[1:])]
    assert len(heard) > len(ep.times)


@pytest.fixture(scope="module")
def wide_codebook(small_cfg, small_budget, small_pso):
    """Coarse codebook covering the reference path from 0 to 100 m/s."""
    sc = make_scenario(small_cfg, small_budget, velocity=20.0, time_step=TAU / 50.0)
    grid = CodebookGrid(theta_step=0.02, delta_step=0.01, theta_range=(0.0, 0.5), delta_max=0.1)
    return build_codebook(grid, make_objective_spec(sc, n_quad=16), small_pso)


def _assert_same_record(shared: TrackRecord, alone: TrackRecord) -> None:
    for f in fields(TrackRecord):
        a, b = getattr(shared, f.name), getattr(alone, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        elif f.name == "realignment_times":
            assert [t.hex() for t in a] == [t.hex() for t in b]
        else:
            assert a == b, f.name


# velocity, time step in sensing periods, event slot (s), and the empty segment the case holds
_SHARED_CASES = {
    "v10": (10.0, 1 / 50, 0.05, None),
    "v20": (20.0, 1 / 50, 0.05, None),
    "v100": (100.0, 1 / 50, 0.05, None),
    "static": (0.0, 1 / 50, 0.05, None),
    "last-slot-empty": (20.0, 1 / 50, 0.05155, "slot"),
    "slot-below-step": (20.0, 1 / 50, 0.001, "slot"),
    # 5.02 periods of path sampled every tau / 10.5: no sample falls in the sixth period
    "last-period-empty": (DISTANCE_M * math.tan(END_ANGLE_RAD) / (5.02 * TAU), 1 / 10.5, 0.05,
                          "period"),
}


@pytest.mark.parametrize("case", list(_SHARED_CASES))
def test_shared_walk_equals_one_scheme_runs(small_cfg, small_budget, wide_codebook, case):
    velocity, step, slot, empty = _SHARED_CASES[case]
    sc = make_scenario(small_cfg, small_budget, velocity=velocity, time_step=TAU * step)
    cb, params = wide_codebook, EventBasedParams(slot=slot)
    ep = _Episode(sc)
    if empty == "period":
        assert ep.periods[-2] == ep.periods[-1]
        assert len(run_conventional(sc).realignment_times) == len(ep.periods) - 1 == 6
    if empty == "slot":
        starts = ep.starts(slot)
        assert starts[-2] == starts[-1]
    shared = run_schemes(sc, ["proposed", "conventional", "event"], cb, params)
    alone = [run_sensing_assisted(sc, cb), run_conventional(sc), run_event_based(sc, params)]
    for rec, one in zip(shared, alone, strict=True):
        _assert_same_record(rec, one)
    # a slot evaluated in pieces realigns after an outage in any of them
    starts, outages = ep.starts(slot), shared[2].outages
    boundaries = [(k + 1) * slot for k in range(len(starts) - 1)]
    realigned = [b for k, b in enumerate(boundaries) if outages[starts[k] : starts[k + 1]].any()]
    assert shared[2].realignment_times == [0.0] + [b for b in realigned if b < sc.duration]
    # any subset and order of the schemes gives the same records
    reordered = run_schemes(sc, ["event", "proposed"], cb, params)
    _assert_same_record(reordered[0], shared[2])
    _assert_same_record(reordered[1], shared[0])


def test_power_sweep_records_equal_one_scheme_runs(small_scenario, small_codebook, monkeypatch):
    # each power's proposed record comes from one optimisation of every power's periods
    seen = []

    def spy(rec, window):
        seen.append(rec)
        return compute_metrics(rec, window)

    monkeypatch.setattr(tracking, "compute_metrics", spy)
    powers = [30.0, 40.0]
    sweep(small_scenario, "tx_power", powers, ["proposed", "conventional", "event"], small_codebook)
    assert len(seen) == 3 * len(powers)
    cb = small_codebook
    for i, power in enumerate(powers):
        sc = axis_scenario(small_scenario, "tx_power", power)
        alone = [
            run_sensing_assisted_direct(sc, cb.pso, cb.alpha, cb.n_quad),
            run_conventional(sc),
            run_event_based(sc, EventBasedParams()),
        ]
        for rec, one in zip(seen[3 * i : 3 * i + 3], alone):
            _assert_same_record(rec, one)


def test_compute_metrics_constant_record():
    times = np.linspace(0.0, 1.0, 11)
    rec = TrackRecord(
        scheme="conventional",
        times=times,
        sin_dirs=np.zeros(11),
        distances=np.full(11, 100.0),
        bf_gains=np.full(11, 32.0),
        rates=np.full(11, 5e9),
        outages=np.zeros(11, dtype=bool),
        beam_ids=["b0"] * 11,
        realignment_times=[0.0],
    )
    m = compute_metrics(rec, (0.0, 0.0))  # every sample lies at broadside
    assert m.avg_rate == pytest.approx(5e9, rel=1e-12)
    assert m.outage_prob == 0.0
    assert m.realignment_count == 1


def test_compute_metrics_half_outage():
    times = np.linspace(0.0, 1.0, 10)
    rates = np.where(np.arange(10) < 5, 2e9, 0.5e9)
    rec = TrackRecord(
        scheme="conventional",
        times=times,
        sin_dirs=np.zeros(10),
        distances=np.full(10, 100.0),
        bf_gains=np.ones(10),
        rates=rates.astype(float),
        outages=rates < 1e9,
        beam_ids=["b"] * 10,
        realignment_times=[],
    )
    assert compute_metrics(rec, (0.0, 0.0)).outage_prob == pytest.approx(0.5)


def test_compute_metrics_single_sample_window():
    times = np.linspace(0.0, 0.3, 4)
    rates = np.array([1e9, 2e9, 3e9, 4e9])
    rec = TrackRecord(
        scheme="conventional",
        times=times,
        sin_dirs=np.sin(times),  # one radian per second, so the window (0.1, 0.1) holds t = 0.1
        distances=np.full(4, 100.0),
        bf_gains=np.ones(4),
        rates=rates,
        outages=rates < 2.5e9,
        beam_ids=["b"] * 4,
        realignment_times=[0.0, float(times[1])],
    )
    m = compute_metrics(rec, (0.1, 0.1))
    assert (m.avg_rate, m.outage_prob, m.realignment_count) == (2e9, 1.0, 1)


def test_sweep_single_point_equals_direct_run(small_scenario, small_codebook):
    rows = sweep(small_scenario, "velocity", [20.0], ["conventional"], small_codebook)
    assert len(rows) == 1
    rec = run_conventional(small_scenario)
    m = compute_metrics(rec, (small_scenario.start_angle, small_scenario.end_angle))
    assert rows[0].metrics == m
    assert rows[0].value == 20.0


def test_sweep_velocity_ordering(small_scenario, small_codebook):
    rows = sweep(
        small_scenario, "velocity", [10.0, 25.0], ["proposed", "conventional"], small_codebook
    )
    by = {(r.value, r.scheme): r.metrics for r in rows}
    for v in (10.0, 25.0):
        assert by[(v, "proposed")].avg_rate >= by[(v, "conventional")].avg_rate
    assert by[(25.0, "proposed")].avg_rate <= by[(10.0, "proposed")].avg_rate


def test_sweep_power_axis_uses_direct_optimization(small_scenario, small_codebook):
    rows = sweep(
        small_scenario, "tx_power", [30.0, 40.0], ["proposed", "conventional"], small_codebook
    )
    by = {(r.value, r.scheme): r.metrics for r in rows}
    for p in (30.0, 40.0):
        assert by[(p, "proposed")].avg_rate > by[(p, "conventional")].avg_rate
    assert by[(40.0, "proposed")].avg_rate > by[(30.0, "proposed")].avg_rate


def test_sweep_rows_independent_of_jobs(small_scenario, small_codebook):
    args = (small_scenario, "velocity", [10.0, 25.0], ["proposed", "conventional", "event"])
    serial = sweep(*args, small_codebook, jobs=1)
    assert sweep(*args, small_codebook, jobs=2) == serial
    # the power axis re-optimises every period in lockstep swarms
    args = (small_scenario, "tx_power", [30.0, 40.0], ["proposed"])
    assert sweep(*args, small_codebook, jobs=2) == sweep(*args, small_codebook, jobs=1)


@pytest.mark.parametrize("axis", ["velocity", "tx_power"])
def test_sweep_lets_other_errors_through(small_scenario, small_codebook, monkeypatch, axis):
    # only a ValueError or TrackingRunError names its point; a programming error keeps its type
    def broken(rec, window):
        raise TypeError("not a run failure")

    monkeypatch.setattr(tracking, "compute_metrics", broken)
    with pytest.raises(TypeError, match="^not a run failure$"):
        sweep(small_scenario, axis, [30.0], ["proposed", "conventional"], small_codebook)


def test_velocity_sweep_samples_each_point_as_it_runs(small_scenario, small_codebook, monkeypatch):
    calls = []

    class Spy(_Episode):
        def __init__(self, sc):
            calls.append(("episode", sc.velocity))
            super().__init__(sc)

    def run(ep, rules):
        calls.append(("run", ep.sc.velocity))
        return _run(ep, rules)

    monkeypatch.setattr(tracking, "_Episode", Spy)
    monkeypatch.setattr(tracking, "_run", run)
    sweep(small_scenario, "velocity", [10.0, 25.0], ["proposed", "conventional"], small_codebook)
    assert calls == [("episode", 10.0), ("run", 10.0), ("episode", 25.0), ("run", 25.0)]


def test_direct_run_trace_symmetry(small_scenario, small_pso):
    # rate trace within each full period correlates with its own reversal
    rec = run_sensing_assisted_direct(small_scenario, small_pso, alpha=10.0, n_quad=16)
    sc = small_scenario
    n_full = int(sc.duration // sc.tau)
    assert n_full >= 3
    for k in range(n_full):
        mask = (rec.times >= k * sc.tau - 1e-9) & (rec.times < (k + 1) * sc.tau - 1e-9)
        seg = rec.rates[mask]
        if np.ptp(seg) < 1e-9 * abs(np.mean(seg)):
            continue
        corr = float(np.corrcoef(seg, seg[::-1])[0, 1])
        assert corr > 0.95


def test_direct_run_matches_per_period_swarms(small_scenario, small_pso):
    # one batched call reproduces a swarm per period seeded with ("direct", seed, k); at half
    # the fixture's speed the path takes 19 periods, two lockstep chunks
    sc = replace(small_scenario, velocity=10.0)
    rec = run_sensing_assisted_direct(sc, small_pso, alpha=10.0, n_quad=16)
    beam_ids = np.array(rec.beam_ids)
    n_periods = len(set(rec.beam_ids))
    assert n_periods > SWARM_CHUNK
    for k in range(n_periods):
        spec = sc.period_spec(k * sc.tau, 10.0, 16)
        seed = derive_seed("direct", small_pso.seed, k)
        omega = optimize_omega(spec, replace(small_pso, seed=seed)).omega_star
        beam = adaptive_precoder(spec.interval, omega, sc.cfg)
        mask = beam_ids == f"opt[{k}]"
        assert np.array_equal(rec.bf_gains[mask], bf_gain_profile(rec.sin_dirs[mask], beam, sc.cfg))


_SCENARIO_FLOATS = (
    "perpendicular_distance", "start_angle", "end_angle", "velocity", "tau", "time_step", "r_min"
)


def test_proposed_trace_parses_back_with_csv(small_scenario, small_codebook, tmp_path):
    import csv

    from thztrack.exports import TRACE_COLUMNS, write_trace

    rec = run_sensing_assisted(small_scenario, small_codebook)
    assert any("," in beam for beam in rec.beam_ids)  # ids like cb[4,14] hold the delimiter
    path = tmp_path / "trace.csv"
    write_trace(rec, path)
    with open(path, newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    assert tuple(table[0]) == TRACE_COLUMNS
    assert all(len(row) == len(TRACE_COLUMNS) for row in table[1:])
    columns = list(zip(*table[1:]))
    assert list(columns[7]) == rec.beam_ids
    assert [float(x) for x in columns[0]] == list(rec.times)
    assert [float(x) for x in columns[5]] == list(rec.rates)
    assert [int(x) for x in columns[6]] == [int(o) for o in rec.outages]


def test_a_long_trace_is_written_in_blocks_with_the_one_block_bytes(small_scenario, tmp_path,
                                                                      monkeypatch):
    rec = run_conventional(replace(small_scenario, time_step=TAU / 500.0))
    rows = len(rec.times)
    chunks = []
    write_trace(rec, SimpleNamespace(write=chunks.append))
    assert len(chunks) == 1 + math.ceil(rows / exports.BLOCK_ROWS) > 2  # the header, then blocks
    monkeypatch.setattr(exports, "BLOCK_ROWS", rows)
    write_trace(rec, tmp_path / "one.csv")
    assert "".join(chunks).encode() == (tmp_path / "one.csv").read_bytes()


def test_trace_export_round_trip(small_scenario, tmp_path):
    from thztrack.exports import TRACE_COLUMNS, write_trace

    rec = run_conventional(small_scenario)
    path = tmp_path / "trace.csv"
    write_trace(rec, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == list(TRACE_COLUMNS)
    assert len(lines) == len(rec.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == rec.times[0]
    assert first[1] == rec.scheme
    assert float(first[5]) == rec.rates[0]


def test_shorter_rewrite_leaves_no_stale_tail(small_scenario, small_codebook, tmp_path):
    # outputs are overwritten in place and truncated after the write, not before
    path, fresh = tmp_path / "out", tmp_path / "fresh.csv"
    write_trace(run_conventional(small_scenario), path)
    size = path.stat().st_size
    save(small_codebook, path)
    assert path.stat().st_size < size
    assert load(path) == small_codebook
    write_pattern(np.array([0.0, 0.5]), np.array([1.0, -3.0]), path)
    write_pattern(np.array([0.0, 0.5]), np.array([1.0, -3.0]), fresh)
    assert path.read_bytes() == fresh.read_bytes()


def test_output_symlink_is_written_through(small_scenario, tmp_path):
    target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "fresh.csv"
    target.write_text("an earlier run's file\n" * 10_000)
    link.symlink_to(target)
    rec = run_conventional(small_scenario)
    write_trace(rec, link)
    write_trace(rec, fresh)
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()
    write_trace(rec, os.devnull)  # a device takes the text with nothing to truncate


def _within_ulps(got: np.ndarray, expected: np.ndarray, ulps: int) -> bool:
    return bool(np.all(np.abs(got - expected) <= ulps * np.spacing(np.abs(expected))))


def test_directions_at_matches_scalar_kinematics(small_cfg, small_budget):
    tilted = BsGeometry(origin=(3.0, -2.0), boresight=(0.6, 0.8))
    for velocity, start, end, geom in (
        (20.0, 0.0, 0.3, BsGeometry()),
        (100.0, -0.6, 0.5, BsGeometry()),
        (55.0, -0.2, 0.4, tilted),
        (0.0, 0.2, 0.3, tilted),
    ):
        sc = replace(
            make_scenario(small_cfg, small_budget, velocity=velocity),
            start_angle=start, end_angle=end, geom=geom,
        )
        times = np.concatenate([np.linspace(0.0, sc.duration, 257), [sc.tau, 2.0 * sc.tau]])
        sins, dists = sc.directions_at(times)
        expected = np.array([direction_of(sc.position_at(float(t)), sc.geom) for t in times])
        assert _within_ulps(sins, expected[:, 0], 2) and _within_ulps(dists, expected[:, 1], 2)


def test_positions_to_directions_matches_pose_to_direction():
    rng = np.random.default_rng(8)
    geom = BsGeometry(origin=(1.0, 2.0), boresight=(0.8, -0.6))
    xs, ys = rng.uniform(-300.0, 300.0, (2, 500))
    sins, dists = positions_to_directions(xs, ys, geom)
    expected = np.array([direction_of((float(x), float(y)), geom) for x, y in zip(xs, ys)])
    assert _within_ulps(sins, expected[:, 0], 2) and _within_ulps(dists, expected[:, 1], 2)
    # the one-pose form is the one-element call
    assert pose_to_direction((float(xs[7]), float(ys[7])), geom) == (sins[7], dists[7])
    origin = "^target position coincides with the base station origin$"
    with pytest.raises(ValueError, match=origin):
        positions_to_directions(np.array([5.0, 1.0]), np.array([0.0, 2.0]), geom)


def _quote(field: str, delimiter: str) -> str:
    return '"' + field.replace('"', '""') + '"' if delimiter in field or '"' in field else field


def _reference_lines(header, rows, delimiter: str) -> str:
    """Row-by-row writer: every field formatted and quoted on its own."""
    lines = [delimiter.join(header)]
    lines += [delimiter.join(_quote(field, delimiter) for field in row) for row in rows]
    return "\n".join(lines) + "\n"


def _trace_fields(rec: TrackRecord) -> list[tuple[str, ...]]:
    return [
        (
            repr(float(rec.times[i])),
            rec.scheme,
            repr(float(rec.sin_dirs[i])),
            repr(float(rec.distances[i])),
            repr(float(rec.bf_gains[i])),
            repr(float(rec.rates[i])),
            str(int(rec.outages[i])),
            rec.beam_ids[i],
        )
        for i in range(len(rec.times))
    ]


def _sweep_fields(rows) -> list[tuple[str, ...]]:
    return [
        (
            repr(float(r.value)),
            r.scheme,
            repr(float(r.metrics.avg_rate)),
            repr(float(r.metrics.outage_prob)),
            str(r.metrics.realignment_count),
        )
        for r in rows
    ]


def _reference_trace_text(rec: TrackRecord, delimiter: str) -> str:
    return _reference_lines(TRACE_COLUMNS, _trace_fields(rec), delimiter)


@pytest.mark.parametrize("delimiter", [",", ";", "\t"])
def test_exports_match_row_by_row_reference(small_scenario, small_codebook, delimiter):
    import io

    records = [
        run_sensing_assisted(small_scenario, small_codebook),
        run_conventional(small_scenario),
        run_event_based(small_scenario, EventBasedParams()),
    ]
    records.append(replace(records[1], scheme='mrt "quoted"; tab\there'))
    for rec in records:
        sink = io.StringIO()
        write_trace(rec, sink, delimiter)
        assert sink.getvalue() == _reference_trace_text(rec, delimiter)

    rows = sweep(small_scenario, "velocity", [10.0, 20.0], ["conventional", "event"], None)
    rows.append(replace(rows[0], scheme='x,"y"'))
    sink = io.StringIO()
    write_sweep(rows, sink, delimiter)
    assert sink.getvalue() == _reference_lines(SWEEP_COLUMNS, _sweep_fields(rows), delimiter)


@pytest.mark.parametrize("delimiter", [",", ";", "_", "-", ".", "e", "|"])
def test_every_writer_parses_back_with_csv(small_scenario, small_codebook, delimiter):
    # headers ("time_s") and values ("-0.5", "1e-05") can hold the delimiter
    import csv
    import io

    def parsed(write, *data):
        sink = io.StringIO()
        write(*data, sink, delimiter)
        return [tuple(row) for row in csv.reader(io.StringIO(sink.getvalue()), delimiter=delimiter)]

    rec = run_sensing_assisted(small_scenario, small_codebook)
    assert parsed(write_trace, rec) == [TRACE_COLUMNS, *_trace_fields(rec)]
    rows = sweep(small_scenario, "velocity", [10.0, 20.0], ["conventional", "event"], None)
    assert parsed(write_sweep, rows) == [SWEEP_COLUMNS, *_sweep_fields(rows)]
    cfg = small_scenario.cfg
    sins = np.linspace(-1.0, 1.0, 41)
    gains_db = pattern_gain_db(bf_gain_profile(sins, mrt_precoder(0.3, cfg), cfg))
    pattern = [(repr(float(s)), repr(float(g))) for s, g in zip(sins, gains_db)]
    assert parsed(write_pattern, sins, gains_db) == [PATTERN_COLUMNS, *pattern]


def _with_header(cb, values):
    return replace(cb, fingerprint={**cb.fingerprint, **values})


def _sweep(axis, values, schemes, cb=lambda cb: cb, **kwargs):
    """A call sweeping the small scenario with ``cb(small codebook)`` as its codebook."""
    return lambda small_scenario, small_codebook: sweep(
        small_scenario, axis, values, schemes, cb(small_codebook), **kwargs
    )


def _run_proposed(header=(), **changes):
    """A call running the proposed scheme on the small scenario and codebook, changed."""
    return lambda small_scenario, small_codebook: run_sensing_assisted(
        replace(small_scenario, **changes), _with_header(small_codebook, dict(header))
    )


def _changed(**changes):
    return lambda small_scenario: replace(small_scenario, **changes)


_R_MIN = make_scenario(ArrayConfig(32, CARRIER_HZ), make_budget(), velocity=20.0).r_min
_REBUILD = "CodebookError: codebook {} {!r} is not the scenario's {!r}; rebuild the codebook"
_NO_VALUES = "ValueError: sweep requires at least one axis value"
_POINT = "TrackingRunError: sweep point (value={!r}, scheme='proposed'): "
_UNKNOWN = "ValueError: unknown scheme {!r}; expected one of ('proposed', 'conventional', 'event')"
_NO_BEAM = (  # a first interval as wide as its centre
    "no codebook beam for epoch 0 (t=0 s): interval (theta={0!r}, delta={0!r}) outside grid "
    "range; rebuild with a wider grid"
)
_REJECTIONS = {
    "test_fingerprint_mismatch_rejected": [
        (_run_proposed(r_min=2.0 * _R_MIN), _REBUILD.format("r_min", _R_MIN, 2.0 * _R_MIN)),
    ],
    # the check names the field
    "test_header_the_fingerprint_did_not_hash_rejected": {
        f"{field}-{value}": (_run_proposed({field: value}), _REBUILD.format(field, value, own))
        for field, value, own in [("tau", 0.2, TAU), ("r_min", 1.0, _R_MIN)]
    },
    # 60 m/s sweeps a wider interval than the small grid covers
    "test_interval_outside_grid_names_epoch": [
        (_run_proposed(velocity=60.0), "TrackingRunError: " + _NO_BEAM.format(0.04925919391662556)),
    ],
    "test_compute_metrics_empty_window": [
        (lambda small_scenario: compute_metrics(run_conventional(small_scenario), (1.0, 1.2)),
         "ValueError: no samples fall inside the requested angular window"),
    ],
    "test_track_record_validation": [
        (lambda: TrackRecord("x", *[np.zeros(0)] * 6, [], []),
         "ValueError: track record must contain at least one sample"),
        (lambda: TrackRecord("x", np.array([0.0, 0.1, 0.1]), *[np.zeros(3)] * 5, ["b"] * 3, []),
         "ValueError: sample times must be strictly increasing"),
    ],
    "test_run_schemes_rejects_unknown_scheme": [
        (lambda small_scenario: run_schemes(small_scenario, ["bogus"], None, None),
         _UNKNOWN.format("bogus")),
    ],
    "test_sweep_rejects_bad_input": [
        (_sweep("velocity", [], ["proposed"]), _NO_VALUES),
        (_sweep("velocity", [10.0], ["nonsense"]), _UNKNOWN.format("nonsense")),
        (_sweep("frequency", [10.0], ["proposed"]), "ValueError: unknown sweep axis 'frequency'"),
        (_sweep("velocity", [10.0, -5.0], ["conventional"]),
         "ValueError: velocity value -5.0: velocity must be >= 0"),
    ],
    "test_sweep_error_annotated_with_point": [
        (_sweep("velocity", [80.0], ["proposed"]),
         _POINT.format(80.0) + _NO_BEAM.format(0.065432414529955)),
        *[  # the proposed scheme without a codebook
            (_sweep(axis, [30.0], ["proposed"], lambda cb: None),
             _POINT.format(30.0) + "the proposed scheme requires a codebook")
            for axis in ("velocity", "tx_power")
        ],
    ],
    # a period spec that cannot be built fails alike at every power point; the first is named
    "test_power_sweep_error_names_its_point": [
        (_sweep("tx_power", [30.0, 40.0], ["proposed"], lambda cb: replace(cb, n_quad=4), jobs=2),
         _POINT.format(30.0) + "need 8 to 1024 quadrature nodes, got 4"),
    ],
    "test_velocity_sweep_codebook_of_another_power_is_a_codebook_error": [
        (_sweep("velocity", [20.0], ["conventional", "proposed"],
                lambda cb: _with_header(cb, {"tx_power": 1.0})),
         _REBUILD.format("tx_power", 1.0, 10.0)),
    ],
    "test_scenario_validation": [
        (_changed(velocity=-5.0), "ValueError: velocity must be >= 0"),
        (_changed(perpendicular_distance=0.0),
         "ValueError: perpendicular distance must be positive"),
        (_changed(tau=0.0), "ValueError: sensing period must be positive"),
        (_changed(r_min=-1.0), "ValueError: minimum rate must be >= 0"),
        (_changed(start_angle=0.3, end_angle=0.0), "ValueError: end angle must exceed start angle"),
        (_changed(time_step=TAU), "ValueError: time step must be positive and at most tau/10"),
    ],
    "test_event_params_validation": [
        (lambda: EventBasedParams(slot=0.0), "ValueError: slot duration must be positive"),
        (lambda: EventBasedParams(rw_var=-1.0), "ValueError: random-walk variance must be >= 0"),
        (lambda: EventBasedParams(weight=1.5), "ValueError: weight must lie in [0, 1]"),
    ],
    "test_scenario_rejects_nan": {  # and either infinity
        field: [(_changed(**{field: value}), f"ValueError: {field} must be finite, got {value!r}")
                for value in (math.nan, math.inf, -math.inf)]
        for field in _SCENARIO_FLOATS
    },
    "test_event_params_reject_nan": {
        field: (lambda f=field: EventBasedParams(**{f: math.nan}), f"ValueError: {message}")
        for field, message in [("slot", "slot duration must be positive"),
                               ("rw_var", "random-walk variance must be >= 0"),
                               ("weight", "weight must lie in [0, 1]")]
    },
    "test_export_rejects_non_finite": [
        (lambda tmp_path: write_trace(TrackRecord("x", np.arange(4.0), *[np.zeros(4)] * 3, np.array(
            [1.0, 1.0, 1.0, math.inf]), np.zeros(4), ["b"] * 4, []), tmp_path / "t.csv"),
         "ValueError: refusing to export non-finite values in column 'rate_bps'"),
    ],
}
globals().update(table_tests(_REJECTIONS, check_rejections))
