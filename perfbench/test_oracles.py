"""The benchmark's oracles agree with the program on small cases and reject
perturbed results. Run with ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import oracles
import workloads
from thztrack import (
    ArrayConfig,
    CodebookGrid,
    LinkBudget,
    ObjectiveSpec,
    PsoConfig,
    Scenario,
    achievable_rate,
    bf_gain_profile,
    build_codebook,
    compute_metrics,
    mrt_precoder,
    path_to_interval,
    pso_bounds,
    run_conventional,
)

LINK = oracles.Link(
    n_antennas=32,
    carrier_hz=220e9,
    tx_power_dbm=40.0,
    noise_dbmhz=-174.0,
    bandwidth_hz=10e9,
    absorption_per_m=1e-3,
    distance_m=100.0,
    start_angle=0.0,
    end_angle=0.3,
    tau=0.165,
    time_step=0.0033,
    alpha=10.0,
    n_quad=16,
)


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    cfg = ArrayConfig(LINK.n_antennas, LINK.carrier_hz)
    budget = LinkBudget.from_db(
        LINK.tx_power_dbm, LINK.noise_dbmhz, LINK.bandwidth_hz, LINK.absorption_per_m
    )
    d = LINK.distance_m / np.cos(LINK.start_angle)
    return Scenario(
        cfg=cfg,
        budget=budget,
        perpendicular_distance=LINK.distance_m,
        start_angle=LINK.start_angle,
        end_angle=LINK.end_angle,
        velocity=20.0,
        tau=LINK.tau,
        time_step=LINK.time_step,
        r_min=0.1 * achievable_rate(float(cfg.n_antennas), d, budget, cfg),
    )


@pytest.fixture(scope="module")
def small_codebook(scenario):
    state = scenario.state_at(0.0)
    template = ObjectiveSpec(
        state=state,
        tau=scenario.tau,
        interval=path_to_interval(state, scenario.tau, scenario.geom),
        budget=scenario.budget,
        cfg=scenario.cfg,
        r_min=scenario.r_min,
        alpha=LINK.alpha,
        n_quad=LINK.n_quad,
    )
    grid = CodebookGrid(theta_step=0.05, delta_step=0.01, theta_range=(0.0, 0.1), delta_max=0.02)
    pso = PsoConfig(bounds=pso_bounds(scenario.cfg), n_particles=10, n_iterations=15, seed=7)
    return build_codebook(grid, template, pso)


def test_r_min_matches(scenario):
    assert workloads._rel(LINK.r_min(), scenario.r_min) < workloads.REL_TOL


def test_cell_objective_matches_stored_values(small_codebook):
    for entry in small_codebook.entries.values():
        theta, delta = entry.interval.theta_m, entry.interval.delta
        value = oracles.cell_objective(LINK, theta, delta, [entry.omega], small_codebook.r_min)[0]
        assert workloads._rel(value, entry.objective_value) < workloads.REL_TOL
        assert workloads._rel(value, entry.objective_value * (1.0 + 1e-6)) > workloads.REL_TOL
        best = oracles.grid_search_best(LINK, theta, delta, small_codebook.pso.bounds, small_codebook.r_min)
        assert best >= value * (1.0 - 1e-3)


def test_cell_objective_depends_on_omega_only_off_the_mrt_row(small_codebook):
    omegas = np.linspace(*small_codebook.pso.bounds, 5)
    for entry in small_codebook.entries.values():
        theta, delta = entry.interval.theta_m, entry.interval.delta
        values = oracles.cell_objective(LINK, theta, delta, omegas, small_codebook.r_min)
        spread = np.ptp(values) / np.max(np.abs(values))
        assert (spread < 1e-12) == (delta == 0.0)


def test_mrt_gain_matches_direct_product(scenario):
    beam = mrt_precoder(0.1, scenario.cfg)
    sines = np.linspace(0.05, 0.15, 41)
    direct = bf_gain_profile(sines, beam, scenario.cfg)
    np.testing.assert_allclose(oracles.mrt_gain(LINK.n_antennas, sines - 0.1), direct, rtol=1e-10)


@pytest.mark.parametrize("velocity", [10.0, 35.0, 100.0])
def test_conventional_metrics_match_and_reject_perturbation(scenario, velocity):
    rec = run_conventional(replace(scenario, velocity=velocity))
    m = compute_metrics(rec, (scenario.start_angle, scenario.end_angle))
    avg, outage, realign = oracles.conventional_metrics(LINK, velocity, scenario.r_min)
    assert workloads._rel(m.avg_rate, avg) < workloads.REL_TOL
    assert (m.outage_prob, m.realignment_count) == (outage, realign)
    assert workloads._rel(m.avg_rate * (1.0 + 1e-6), avg) > workloads.REL_TOL
    t, _ = oracles.period_layout(LINK, velocity)
    np.testing.assert_array_equal(t, rec.times)


def test_predicted_interval_matches_program(scenario):
    sc = replace(scenario, velocity=60.0)
    for k in range(4):
        interval = path_to_interval(sc.state_at(k * sc.tau), sc.tau, sc.geom)
        centre, half = oracles.predicted_interval(LINK, 60.0, k)
        assert abs(centre - interval.theta_m) < 1e-15 and abs(half - interval.delta) < 1e-15


def test_trace_check_parses_back_and_rejects_perturbation(scenario, tmp_path):
    from thztrack import exports

    rec = run_conventional(scenario)
    path = tmp_path / "trace.csv"
    exports.write_trace(rec, path)
    problems: list[str] = []
    assert workloads._trace_parses_back(path, rec, problems) and not problems

    perturbed = replace(rec, rates=rec.rates * (1.0 + 1e-12))
    assert workloads._trace_parses_back(path, perturbed, problems) and problems

    # a beam id holding the delimiter, unquoted: 9 fields under 8 columns
    rows = [f"{t!r},conventional,0.1,100.0,32.0,1e9,0,cb[1,2]" for t in rec.times]
    path.write_text("\n".join([",".join(workloads.TRACE_COLUMNS)] + rows) + "\n")
    assert not workloads._trace_parses_back(path, rec, [])


def test_sweep_file_check_rejects_perturbation(scenario, tmp_path):
    from thztrack import exports, sweep

    rows = sweep(scenario, "velocity", [20.0, 40.0], ["conventional"], None)
    path = tmp_path / "sweep.csv"
    exports.write_sweep(rows, path)
    problems: list[str] = []
    workloads._check_sweep_file(path, rows, problems)
    assert not problems
    bad = [replace(rows[0], metrics=replace(rows[0].metrics, outage_prob=0.5))] + rows[1:]
    workloads._check_sweep_file(path, bad, problems)
    assert problems
