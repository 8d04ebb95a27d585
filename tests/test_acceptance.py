"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 6 and 7 and the
grid-floor check of every cell share the session-scoped default codebook build of
``conftest.py``.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from thztrack import (
    AngularInterval,
    ArrayConfig,
    CodebookGrid,
    PsoConfig,
    adaptive_precoder,
    bf_gain_profile,
    build_codebook,
    compute_metrics,
    load,
    objectives,
    optimize_omega,
    pso_bounds,
    run_event_based,
    run_sensing_assisted,
    save,
    sweep,
)
from thztrack.config import (
    RunConfig,
    build_event_params,
    build_objective_template,
    build_pso,
    build_scenario,
    parse_config,
    render_config,
)
from thztrack.codebook import _cell_spec
from conftest import CARRIER_HZ, make_budget, make_objective_spec, make_scenario
from gain_reference import bf_gain_closed_form, bf_gain_direct, g_coeff

VELOCITIES = [float(v) for v in range(10, 101, 10)]


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_unit_power():
    """10^4 random draws keep the precoder power within 1e-9 of unity."""
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    even_counts = np.arange(2, 129, 2)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.choice(even_counts))
        cfg = ArrayConfig(n, CARRIER_HZ)
        delta = rng.uniform(0.0, 0.5)
        theta = rng.uniform(-(1.0 - delta) * 0.999, (1.0 - delta) * 0.999)
        omega = rng.uniform(0.0, (n - 1) * math.pi)
        weights = adaptive_precoder(AngularInterval(theta, delta), omega, cfg).weights
        worst = max(worst, abs(float(np.sum(np.abs(weights) ** 2)) - 1.0))
    elapsed = time.perf_counter() - started
    assert worst < 1e-9
    _report(1, f"worst |power-1| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_closed_form_oracle():
    """10^3 random draws: expanded cosine form equals |a^H f|^2 within 1e-8."""
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1_000):
        n = int(rng.integers(2, 129))
        cfg = ArrayConfig(n, CARRIER_HZ)
        delta = rng.uniform(0.0, 0.4)
        theta = rng.uniform(-(1.0 - delta) * 0.999, (1.0 - delta) * 0.999)
        omega = rng.uniform(0.0, (n - 1) * math.pi)
        s = rng.uniform(-1.0, 1.0)
        interval = AngularInterval(theta, delta)
        direct = bf_gain_direct(s, adaptive_precoder(interval, omega, cfg), cfg)
        closed = bf_gain_closed_form(s, interval, omega, cfg)
        # relative tolerance with a unit floor so near-null gains stay testable
        worst = max(worst, abs(direct - closed) / (1.0 + direct))
    elapsed = time.perf_counter() - started
    assert worst < 1e-8
    _report(2, f"worst rel diff = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_symmetry_suite():
    """Gain/objective symmetry about (N-1)pi/2 plus the shift and pairing laws."""
    started = time.perf_counter()
    rng = np.random.default_rng(1003)

    # gain symmetry on dense omega grids
    worst_gain = 0.0
    for n in (2, 4, 8, 128):
        cfg = ArrayConfig(n, CARRIER_HZ)
        full = (n - 1) * math.pi
        interval = AngularInterval(0.11, 0.05)
        s = 0.13
        for omega in np.linspace(0.0, full, 401):
            g1 = bf_gain_closed_form(s, interval, float(omega), cfg)
            g2 = bf_gain_closed_form(s, interval, full - float(omega), cfg)
            worst_gain = max(worst_gain, abs(g1 - g2) / (1.0 + abs(g1)))
    assert worst_gain < 1e-8

    # objective symmetry on the same axis
    budget = make_budget()
    worst_obj = 0.0
    for n in (2, 4, 8, 128):
        cfg = ArrayConfig(n, CARRIER_HZ)
        sc = make_scenario(cfg, budget, velocity=40.0)
        spec = make_objective_spec(sc, n_quad=32)
        full = (n - 1) * math.pi
        omegas = np.linspace(0.0, full, 51)
        v1, v2 = objectives(omegas, spec), objectives(full - omegas, spec)
        worst_obj = max(worst_obj, float(np.max(np.abs(v1 - v2) / np.abs(v1))))
    assert worst_obj < 1e-8

    # taper energy sum_m g_m^2 shares the symmetry axis (dense grid, even N)
    worst_sum = 0.0
    for n in (2, 4, 8, 128):
        cfg = ArrayConfig(n, CARRIER_HZ)
        full = (n - 1) * math.pi
        for delta in (0.02, 0.1, 0.3):
            interval = AngularInterval(0.0, delta)
            for omega in np.linspace(0.0, full, 801):
                s1 = adaptive_precoder(interval, float(omega), cfg).beta ** -2
                s2 = adaptive_precoder(interval, full - float(omega), cfg).beta ** -2
                worst_sum = max(worst_sum, abs(s1 - s2) / s1)
    assert worst_sum < 1e-8

    # shift law: the cross term for equal index differences translates by
    # (m' - m) * pi in omega
    def q_term(m, n_idx, omega, delta, theta, s):
        phase = (m - n_idx) * math.pi * (theta - s)
        return 2.0 * math.cos(phase) * g_coeff(m, omega, delta) * g_coeff(n_idx, omega, delta)

    worst_shift = 0.0
    for _ in range(50):
        n_t = int(rng.integers(4, 65))
        delta = rng.uniform(0.01, 0.3)
        theta = rng.uniform(-0.5, 0.5)
        s = rng.uniform(-1.0, 1.0)
        m, n_idx = sorted(rng.integers(1, n_t + 1, 2), reverse=True)
        if m == n_idx:
            continue
        shift = int(rng.integers(1, n_t - m + 1)) if m < n_t else 0
        m2, n2 = m + shift, n_idx + shift
        for omega in np.linspace(0.0, (n_t - 1) * math.pi, 21):
            q1 = q_term(m, n_idx, float(omega), delta, theta, s)
            q2 = q_term(m2, n2, float(omega) + shift * math.pi, delta, theta, s)
            worst_shift = max(worst_shift, abs(q1 - q2))
    assert worst_shift < 1e-10

    # pairing law: every (m, n) with index sum rho has a same-difference
    # partner with the mirrored sum 2(N+1) - rho
    for n_t in range(2, 33):
        domain = {(m, n) for n in range(1, n_t) for m in range(n + 1, n_t + 1)}
        sums: dict[int, list[int]] = {}
        for m, n in domain:
            partner = (n_t + 1 - n, n_t + 1 - m)
            assert partner in domain
            assert (m + n) + (partner[0] + partner[1]) == 2 * (n_t + 1)
            assert partner[0] - partner[1] == m - n
            sums.setdefault(m + n, []).append(m - n)
        for rho, diffs in sums.items():
            mirrored = sums[2 * (n_t + 1) - rho]
            assert sorted(diffs) == sorted(mirrored)

    elapsed = time.perf_counter() - started
    _report(
        3,
        f"gain {worst_gain:.2e}, objective {worst_obj:.2e}, taper {worst_sum:.2e}, "
        f"shift {worst_shift:.2e}, pairing N<=32 exhaustive, {elapsed:.1f} s",
    )


def test_criterion_4_integral_definition():
    """Closed-form weights match 10^4-node integration of the defining integral."""
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    cfg = ArrayConfig(128, CARRIER_HZ)
    idx = np.arange(cfg.n_antennas)[:, None]
    worst = 0.0
    for _ in range(20):
        delta = rng.uniform(0.005, 0.3)
        theta = rng.uniform(-0.6, 0.6)
        omega = rng.uniform(0.0, (cfg.n_antennas - 1) * math.pi)
        p_grid = np.linspace(-delta, delta, 10_001)
        beam = adaptive_precoder(AngularInterval(theta, delta), omega, cfg)
        integrand = np.exp(-1j * math.pi * idx * (p_grid[None, :] + theta)) * np.exp(
            1j * omega * p_grid[None, :]
        )
        numeric = beam.beta / (2.0 * delta) * np.trapezoid(integrand, p_grid, axis=1)
        worst = max(worst, float(np.max(np.abs(numeric - beam.weights))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-6
    _report(4, f"worst element diff = {worst:.2e} over 20 draws, {elapsed:.1f} s")


def test_criterion_5_pso_quality_floor():
    """PSO matches a 256-point grid search within 1e-4 relative, repeatably."""
    started = time.perf_counter()
    cfg = ArrayConfig(128, CARRIER_HZ)
    budget = make_budget()
    bounds = pso_bounds(cfg)
    worst_gap = 0.0
    for start_angle in (0.0, 0.15):
        for velocity in VELOCITIES:
            sc = replace(
                make_scenario(cfg, budget, velocity=velocity), start_angle=start_angle,
                end_angle=0.3 if start_angle == 0.0 else 0.45,
            )
            spec = make_objective_spec(sc)
            pso = PsoConfig(bounds=bounds, seed=2024)
            results = [optimize_omega(spec, pso) for _ in range(3)]
            assert results[0] == results[1] == results[2]
            grid_best = float(np.max(objectives(np.linspace(*bounds, 257), spec)))
            gap = (grid_best - results[0].objective_value) / abs(grid_best)
            worst_gap = max(worst_gap, gap)
            assert results[0].objective_value >= grid_best * (1.0 - 1e-4)
    elapsed = time.perf_counter() - started
    _report(5, f"worst grid shortfall = {worst_gap:.2e} over 20 scenarios, {elapsed:.1f} s")


def test_default_codebook_meets_grid_floor(default_codebook):
    """Every default-grid cell is within 1e-4 relative of a 257-point grid search."""
    template = build_objective_template(RunConfig())
    grid = np.linspace(*default_codebook.pso.bounds, 257)
    short = []
    for key, entry in sorted(default_codebook.entries.items()):
        spec = _cell_spec(template, entry.interval)
        best = float(np.max(objectives(grid, spec)))
        if entry.objective_value < best * (1.0 - 1e-4):
            short.append((key, entry.objective_value, best))
    assert not short, f"{len(short)} cells below the grid floor: {short[:5]}"


def test_criterion_6_outage_at_100ms(default_codebook):
    """Proposed scheme at 100 m/s keeps outage probability under 10%."""
    started = time.perf_counter()
    rc = RunConfig()
    sc = replace(build_scenario(rc), velocity=100.0)
    rec = run_sensing_assisted(sc, default_codebook)
    metrics = compute_metrics(rec, (sc.start_angle, sc.end_angle))
    elapsed = time.perf_counter() - started
    assert metrics.outage_prob < 0.10
    _report(6, f"outage_prob = {metrics.outage_prob:.4f} at 100 m/s, {elapsed:.1f} s")


def test_criterion_7_velocity_ordering(default_codebook):
    """Proposed dominates the conventional scheme and degrades with velocity."""
    started = time.perf_counter()
    rc = RunConfig()
    template = build_scenario(rc)
    rows = sweep(
        template, "velocity", VELOCITIES, ["proposed", "conventional"], default_codebook
    )
    by = {(r.value, r.scheme): r.metrics for r in rows}
    proposed = [by[(v, "proposed")].avg_rate for v in VELOCITIES]
    conventional = [by[(v, "conventional")].avg_rate for v in VELOCITIES]

    for v, p, c in zip(VELOCITIES, proposed, conventional):
        assert p >= c, f"conventional ahead at {v} m/s"
        if v >= 50.0:
            assert p > c, f"no strict dominance at {v} m/s"
    # outage ordering at high mobility
    assert by[(100.0, "conventional")].outage_prob > by[(100.0, "proposed")].outage_prob

    # non-increasing within one delta-quantisation step of rate wobble
    grid = default_codebook.grid
    bandwidth = template.budget.bandwidth
    for i in range(len(VELOCITIES) - 1):
        v_next = VELOCITIES[i + 1]
        half_sweep = 0.5 * (v_next * template.tau) / math.hypot(
            v_next * template.tau, template.perpendicular_distance
        )
        delta_q = max(grid.delta_step, half_sweep)
        wobble = bandwidth * math.log2(1.0 + grid.delta_step / delta_q)
        assert proposed[i + 1] <= proposed[i] + wobble
    elapsed = time.perf_counter() - started
    ratio = proposed[-1] / conventional[-1]
    _report(7, f"dominance at all 10 velocities (x{ratio:.1f} at 100 m/s), {elapsed:.1f} s")


def test_criterion_8_pattern_trends():
    """Wider, lower main lobes as velocity grows: -3 dB width up, peak down."""
    started = time.perf_counter()
    rc = RunConfig()
    pso = build_pso(rc)
    sin_grid = np.linspace(-1.0, 1.0, 2001)
    widths, peaks = [], []
    for velocity in (10.0, 50.0, 90.0):
        sc = replace(build_scenario(rc), velocity=velocity)
        spec = sc.period_spec(0.0, 10.0, 64)
        result = optimize_omega(spec, replace(pso, seed=pso.seed + int(velocity)))
        beam = adaptive_precoder(spec.interval, result.omega_star, sc.cfg)
        gains = bf_gain_profile(sin_grid, beam, sc.cfg)
        peak_idx = int(np.argmax(gains))
        peak = float(gains[peak_idx])
        above = gains >= peak * 10 ** (-0.3)
        left, right = peak_idx, peak_idx
        while left > 0 and above[left - 1]:
            left -= 1
        while right < len(gains) - 1 and above[right + 1]:
            right += 1
        widths.append(float(sin_grid[right] - sin_grid[left]))
        peaks.append(peak)
    elapsed = time.perf_counter() - started
    assert widths[0] < widths[1] < widths[2]
    assert peaks[0] > peaks[1] > peaks[2]
    _report(
        8,
        f"widths {['%.4f' % w for w in widths]}, peaks "
        f"{['%.1f' % (10 * math.log10(p)) for p in peaks]} dB, {elapsed:.1f} s",
    )


def test_criterion_9_event_based_fairness():
    """Mean slots between realignments near 3.3 across the velocity sweep (soft)."""
    started = time.perf_counter()
    rc = RunConfig()
    params = build_event_params(rc)
    spacings = []
    for velocity in VELOCITIES:
        sc = replace(build_scenario(rc), velocity=velocity)
        rec = run_event_based(sc, params)
        if len(rec.realignment_times) > 1:  # mean realignment gap in slots
            spacings.append(float(np.mean(np.diff(rec.realignment_times)) / params.slot))
    mean_spacing = float(np.mean(spacings))
    elapsed = time.perf_counter() - started
    if not 3.3 * 0.8 <= mean_spacing <= 3.3 * 1.2:
        print(
            f"ACCEPTANCE 9: DEVIATION (mean slots {mean_spacing:.2f} outside "
            f"3.3 +/- 20%; approximate baseline, soft criterion)"
        )
        pytest.xfail("approximate event-based baseline outside the fairness band")
    _report(9, f"mean slots between realignments = {mean_spacing:.2f}, {elapsed:.1f} s")


def test_criterion_10_determinism_and_persistence(tmp_path, small_cfg, small_budget, small_pso):
    """Byte-identical rebuilds, exact save/load, exact config round trip."""
    started = time.perf_counter()
    sc = make_scenario(small_cfg, small_budget, velocity=20.0, time_step=0.165 / 50.0)
    grid = CodebookGrid(theta_step=0.02, delta_step=0.005, theta_range=(0.0, 0.06), delta_max=0.02)
    template = make_objective_spec(sc, n_quad=16)

    buffers = []
    for _ in range(2):
        cb = build_codebook(grid, template, small_pso)
        buf = io.StringIO()
        save(cb, buf)
        buffers.append(buf.getvalue())
    assert buffers[0] == buffers[1]

    path = tmp_path / "cb.json"
    path.write_text(buffers[0])
    loaded = load(path)
    cb = build_codebook(grid, template, small_pso)
    assert loaded.entries == cb.entries
    assert loaded.grid == cb.grid
    assert loaded.fingerprint == cb.fingerprint
    assert loaded.pso == cb.pso
    assert (loaded.tau, loaded.alpha, loaded.r_min, loaded.n_quad) == (
        cb.tau, cb.alpha, cb.r_min, cb.n_quad,
    )

    rc = RunConfig()
    assert parse_config(render_config(rc)) == rc
    elapsed = time.perf_counter() - started
    _report(10, f"rebuild bytes identical, load exact, config round trip, {elapsed:.1f} s")
