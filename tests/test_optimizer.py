"""Penalty, quadrature objective, and PSO behaviour."""

from __future__ import annotations

import concurrent.futures
import inspect
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import thztrack
from thztrack import (
    ArrayConfig,
    ObjectiveSpec,
    PsoConfig,
    SensedState,
    achievable_rate,
    adaptive_precoder,
    objectives,
    optimize_omega,
    optimize_omegas,
    predict_pose,
    pso_bounds,
)
from thztrack.codebook import _cell_spec
from thztrack.config import build_grid, build_objective_template, build_pso, parse_config_file
from thztrack.geometry import BS_FRAME
from thztrack.optimizer import SWARM_CHUNK, _gauss_legendre, _lockstep_swarms, _PeriodEvaluator
from thztrack.precoder import taper
from conftest import CARRIER_HZ, aligned_rate, make_budget, make_objective_spec, make_scenario
from conftest import check_rejections, table_tests
from gain_reference import (
    bf_gain_direct,
    direction_of,
    penalty,
    period_objective,
    period_rates,
    violation_masses,
)

CFG = ArrayConfig(128, CARRIER_HZ)
REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "table1.ini"
BUDGET = make_budget()


def spec_for_velocity(v: float, alpha=10.0, n_quad=64, cfg=CFG) -> ObjectiveSpec:
    sc = make_scenario(cfg, BUDGET, velocity=v)
    return make_objective_spec(sc, alpha=alpha, n_quad=n_quad)


def test_penalty_boundary_and_branches():
    assert penalty(5.0, 5.0, 3.0) == 0.0
    assert penalty(6.0, 5.0, 3.0) == 0.0
    assert penalty(3.0, 5.0, 2.0) == pytest.approx(-4.0, rel=1e-12)
    rates = np.array([0.0, 4.9, 5.0, 5.1])
    assert np.allclose(penalty(rates, 5.0, 1.0), [-5.0, -0.1, 0.0, 0.0])


def test_objective_static_target_equals_aligned_rate():
    spec = spec_for_velocity(0.0)
    expected = aligned_rate(CFG, BUDGET)
    for omega in (0.0, 17.0, 150.0):
        assert objectives([omega], spec)[0] == pytest.approx(expected, rel=1e-12)


def test_objective_zero_alpha_matches_manual_quadrature():
    # independent re-derivation from public pieces at the same nodes
    spec = spec_for_velocity(50.0, alpha=0.0)
    omega = 80.0
    nodes, weights = np.polynomial.legendre.leggauss(spec.n_quad)
    t = 0.5 * spec.tau * (nodes + 1.0)
    w = 0.5 * spec.tau * weights
    beam = adaptive_precoder(spec.interval, omega, spec.cfg)
    total = 0.0
    for tk, wk in zip(t, w):
        sin_dir, dist = direction_of(predict_pose(spec.state, float(tk), spec.tau), BS_FRAME)
        rate = achievable_rate(bf_gain_direct(sin_dir, beam, spec.cfg), dist, spec.budget, spec.cfg)
        total += wk * rate
    assert objectives([omega], spec)[0] == pytest.approx(total / spec.tau, rel=1e-10)


def test_objective_penalty_disabled_vs_enabled():
    spec_pen = spec_for_velocity(80.0, alpha=10.0)
    spec_off = replace(spec_pen, alpha=0.0)
    omega = 5.0  # poor shape: rates dip below the threshold somewhere
    assert objectives([omega], spec_pen)[0] <= objectives([omega], spec_off)[0] + 1e-6


def test_objective_quadrature_refinement():
    spec64 = spec_for_velocity(50.0, n_quad=64)
    spec128 = replace(spec64, n_quad=128)
    omega = 120.0
    v64 = objectives([omega], spec64)[0]
    v128 = objectives([omega], spec128)[0]
    assert abs(v128 - v64) / abs(v128) < 1e-6


def test_objective_reflection_symmetry():
    rng = np.random.default_rng(61)
    for n in (2, 4, 8, 128):
        cfg = ArrayConfig(n, CARRIER_HZ)
        spec = spec_for_velocity(40.0, cfg=cfg)
        full = (n - 1) * math.pi
        for _ in range(10):
            omega = rng.uniform(0.0, full)
            v1 = objectives([omega], spec)[0]
            v2 = objectives([full - omega], spec)[0]
            assert abs(v1 - v2) <= 1e-8 * abs(v1)


def test_pso_bounds_even_odd():
    assert pso_bounds(ArrayConfig(128, CARRIER_HZ)) == (0.0, 127.0 * math.pi / 2.0)
    assert pso_bounds(ArrayConfig(5, CARRIER_HZ)) == (0.0, 4.0 * math.pi)


def test_optimize_deterministic_across_repeats():
    spec = spec_for_velocity(50.0)
    pso = PsoConfig(bounds=pso_bounds(CFG), n_particles=20, n_iterations=30, seed=99)
    results = [optimize_omega(spec, pso) for _ in range(3)]
    assert results[0] == results[1] == results[2]


def test_optimize_beats_grid_search():
    spec = spec_for_velocity(50.0)
    pso = PsoConfig(bounds=pso_bounds(CFG), seed=5)
    result = optimize_omega(spec, pso)
    grid = np.linspace(*pso.bounds, 257)
    best_grid = float(np.max(objectives(grid, spec)))
    assert result.objective_value >= best_grid * (1.0 - 1e-4)
    assert pso.bounds[0] <= result.omega_star <= pso.bounds[1]


def test_optimize_takes_a_bound_the_swarm_misses():
    # one particle pair, one step: the swarm alone falls short of the upper bound
    pso = PsoConfig(bounds=pso_bounds(CFG), n_particles=2, n_iterations=1, seed=3)
    spec = spec_for_velocity(50.0)
    result = optimize_omega(spec, pso)
    edges = objectives(list(pso.bounds), spec)
    assert edges[1] > edges[0]
    assert (result.omega_star, result.objective_value) == (pso.bounds[1], edges[1])
    assert (result.evaluations, result.converged_iteration) == (2 * (1 + 1), 0)
    # a flat objective ties everywhere, and the tie goes to the lower bound
    static = optimize_omega(spec_for_velocity(0.0), pso)
    assert (static.omega_star, static.converged_iteration) == (pso.bounds[0], 0)


def test_optimize_static_interval_objective_is_flat():
    spec = spec_for_velocity(0.0)
    pso = PsoConfig(bounds=pso_bounds(CFG), n_particles=8, n_iterations=5, seed=1)
    result = optimize_omega(spec, pso)
    assert result.objective_value == pytest.approx(aligned_rate(CFG, BUDGET), rel=1e-12)


def test_optimize_mirror_domain():
    spec = spec_for_velocity(50.0)
    half = (CFG.n_antennas - 1) * math.pi / 2.0
    left = optimize_omega(spec, PsoConfig(bounds=(0.0, half), seed=8))
    right = optimize_omega(spec, PsoConfig(bounds=(half, 2.0 * half), seed=8))
    assert left.objective_value == pytest.approx(right.objective_value, rel=1e-8)


def test_violation_mass_non_increasing_in_alpha():
    # threshold high enough that the constraint binds at the optimum
    base = spec_for_velocity(80.0)
    r_min = 0.8 * aligned_rate(CFG, BUDGET)
    masses = []
    for alpha in (0.0, 1.0, 10.0, 100.0):
        spec = replace(base, r_min=r_min, alpha=alpha)
        result = optimize_omega(spec, PsoConfig(bounds=pso_bounds(CFG), seed=77))
        masses.append(float(violation_masses([result.omega_star], spec)[0]))
    assert masses[0] > 0.0
    for lo, hi in zip(masses[1:], masses[:-1]):
        assert lo <= hi * (1.0 + 1e-6) + 1e-9


def _mixed_specs(cfg: ArrayConfig, count: int, rng, n_quad: int = 64) -> list[ObjectiveSpec]:
    """Specs over velocities, start angles, epochs and penalties; the first is static (delta 0)."""
    aligned = aligned_rate(cfg, BUDGET)
    specs = []
    for i in range(count):
        velocity = 0.0 if i == 0 else float(rng.uniform(5.0, 120.0))
        sc = make_scenario(cfg, BUDGET, velocity=velocity)
        sc = replace(sc, start_angle=float(rng.uniform(-0.6, 0.3)))
        epoch = float(rng.uniform(0.0, 0.5)) if velocity else 0.0
        spec = make_objective_spec(sc, float(rng.uniform(0.0, 50.0)), n_quad, epoch)
        specs.append(replace(spec, r_min=float(rng.uniform(0.05, 1.0)) * aligned))
    return specs


@pytest.mark.parametrize("n_antennas", [2, 3, 16, 33, 128])
def test_evaluator_matches_complex_reference(n_antennas):
    rng = np.random.default_rng(n_antennas)
    cfg = ArrayConfig(n_antennas, CARRIER_HZ)
    specs = _mixed_specs(cfg, 5, rng)
    assert specs[0].interval.delta == 0.0
    # an r_min at the median node rate puts the penalty to work, also on a near-flat 2-antenna beam
    median_rate = float(np.median(period_rates(specs[-1], [0.0])[1]))
    specs[-1] = replace(specs[-1], r_min=median_rate)
    full = (n_antennas - 1) * math.pi
    # omega = 0 and n*pi zero the taper argument on one antenna; then both bounds
    special = [0.0, math.pi, 5.0 * math.pi, full / 2.0, full]
    omegas = np.array([special + list(rng.uniform(0.0, full, 15)) for _ in specs])
    values = _PeriodEvaluator(specs).values(omegas)
    masses = []
    for spec, row, got in zip(specs, omegas, values):
        assert np.allclose(got, period_objective(spec, row), rtol=1e-12, atol=0.0)
        # one omega at a time takes a matrix-vector product, so compare to the reference
        single = period_objective(spec, row[3:4])[0]
        assert objectives([float(row[3])], spec)[0] == pytest.approx(single, rel=1e-12)
        weights, rates = period_rates(spec, row[:5])
        for omega, expected in zip(row, weights @ np.maximum(0.0, spec.r_min - rates)):
            masses.append(float(violation_masses([omega], spec)[0]))
            assert masses[-1] == pytest.approx(expected, rel=1e-12, abs=1e-6)
    assert max(masses) > 0.0


@pytest.mark.parametrize("n_antennas", [2, 3, 16, 33, 128])
def test_batch_entry_points_match_scalar_calls(n_antennas):
    rng = np.random.default_rng(100 + n_antennas)
    cfg = ArrayConfig(n_antennas, CARRIER_HZ)
    full = (n_antennas - 1) * math.pi
    omegas = np.array([0.0, math.pi, full / 2.0, full] + list(rng.uniform(0.0, full, 12)))
    for spec in _mixed_specs(cfg, 3, rng):
        batch_values = objectives(omegas, spec)
        batch_masses = violation_masses(omegas, spec)
        assert batch_values.shape == batch_masses.shape == omegas.shape
        weights, rates = period_rates(spec, omegas)
        expected_masses = weights @ np.maximum(0.0, spec.r_min - rates)
        for omega, value, mass, expected_value, expected_mass in zip(
            omegas, batch_values, batch_masses, period_objective(spec, omegas), expected_masses
        ):
            assert value == pytest.approx(expected_value, rel=1e-12, abs=0.0)
            assert value == pytest.approx(objectives([float(omega)], spec)[0], rel=1e-12, abs=0.0)
            assert mass == pytest.approx(expected_mass, rel=1e-12, abs=1e-6)
    with pytest.raises(ValueError, match=r"^omega must be finite, got \[1\.0, nan\]$"):
        objectives([1.0, math.nan], spec)


@pytest.mark.parametrize("n_antennas", [3, 128])
def test_evaluator_results_survive_later_calls(n_antennas):
    rng = np.random.default_rng(7)
    cfg = ArrayConfig(n_antennas, CARRIER_HZ)
    specs = _mixed_specs(cfg, 3, rng)
    evaluator = _PeriodEvaluator(specs)
    full = (n_antennas - 1) * math.pi
    first, second = rng.uniform(0.0, full, (2, 3, 6))
    for method in (evaluator.values, evaluator.rates):
        kept = method(first)
        expected = kept.copy()
        method(second)
        method(first[:, :2])  # a new width
        assert np.array_equal(kept, expected)
    # an evaluator that has run gives the bits of a fresh one
    assert np.array_equal(evaluator.values(first), _PeriodEvaluator(specs).values(first))


@pytest.mark.parametrize("n_antennas", [3, 128])
def test_evaluator_keeps_no_state_between_calls(n_antennas):
    rng = np.random.default_rng(8)
    cfg = ArrayConfig(n_antennas, CARRIER_HZ)
    evaluator = _PeriodEvaluator(_mixed_specs(cfg, 2, rng))
    before = dict(vars(evaluator))
    for width in (5, 2):
        omegas = rng.uniform(*pso_bounds(cfg), (2, width))
        evaluator.values(omegas)
        evaluator.rates(omegas)
    after = vars(evaluator)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert list(inspect.signature(taper).parameters) == ["a", "b", "rot"]


def test_values_do_not_depend_on_call_width():
    # 16 default-grid cells at 40 omegas; any subset of the omegas, in any order and of any
    # width, gets the bits of the full call, and so does one spec alone
    config = parse_config_file(REPO_CONFIG)
    template, cells = build_objective_template(config), build_grid(config).cells()
    rng = np.random.default_rng(5)
    specs = [_cell_spec(template, cells[i][1]) for i in rng.choice(len(cells), 16, replace=False)]
    omegas = rng.uniform(*build_pso(config).bounds, (16, 40))
    evaluator = _PeriodEvaluator(specs)
    values, rates = evaluator.values(omegas), evaluator.rates(omegas)
    for _ in range(200):
        cols = rng.choice(40, int(rng.integers(1, 41)), replace=False)
        assert np.array_equal(evaluator.values(omegas[:, cols]), values[:, cols])
        assert np.array_equal(evaluator.rates(omegas[:, cols]), rates[:, cols])
    for spec, row, expected in zip(specs, omegas, values):
        assert np.array_equal(_PeriodEvaluator([spec]).values(row[None])[0], expected)


def test_penalty_skip_decided_per_spec_and_bit_exact():
    # one spec clear of its r_min beside one with nodes below its own, larger r_min; every rate
    # is above the smaller r_min, so a batch-wide test would skip the second spec's penalty
    rng = np.random.default_rng(6)
    clear, short = _mixed_specs(CFG, 3, rng)[1:]
    omegas = rng.uniform(*pso_bounds(CFG), (2, 6))  # width 6: the evaluator pads it to 8
    pairs = zip((clear, short), omegas)
    floor = min(float(_PeriodEvaluator([s]).rates(row[None]).min()) for s, row in pairs)
    clear = replace(clear, r_min=0.5 * floor)
    short = replace(short, r_min=float(np.median(_PeriodEvaluator([short]).rates(omegas[1:]))))
    batch = _PeriodEvaluator([clear, short]).values(omegas)
    _, weights = _gauss_legendre(clear.n_quad)
    for spec, row, got in zip((clear, short), omegas, batch):
        solo = _PeriodEvaluator([spec])
        rates = solo.rates(row[None])
        assert (rates.min() < spec.r_min) == (spec is short)
        assert np.array_equal(got, solo.values(row[None])[0])
        # the four penalty passes, run whether or not a node falls short, on the evaluator's
        # padding: the last omega repeated up to 8 columns
        penalised = rates + spec.alpha * np.minimum(rates - spec.r_min, 0.0)
        padded = np.concatenate([penalised, penalised[:, -1:], penalised[:, -1:]], axis=1)
        assert np.array_equal(got, (padded @ weights)[0, :6])
    assert np.any(batch[1] < _PeriodEvaluator([replace(short, alpha=0.0)]).values(omegas[1:])[0])


def test_optimize_omegas_bit_equal_to_per_spec_runs():
    # the specs hold an optimum on the upper bound and a flat delta = 0 spec
    rng = np.random.default_rng(11)
    specs = [spec_for_velocity(50.0)] + _mixed_specs(CFG, SWARM_CHUNK + 3, rng)
    assert SWARM_CHUNK < len(specs) and len(specs) % SWARM_CHUNK != 0  # a partial second chunk
    assert specs[1].interval.delta == 0.0
    pso = PsoConfig(bounds=pso_bounds(CFG), n_particles=16, n_iterations=25, seed=0)
    seeds = [1000 + 7 * i for i in range(len(specs))]
    batched = optimize_omegas(specs, pso, seeds)
    single = [optimize_omega(spec, replace(pso, seed=seed)) for spec, seed in zip(specs, seeds)]
    assert batched == single  # OptResult equality compares every float bit for bit
    # both bounds are particles of the first call, so a bound incumbent reports iteration 0
    lo, hi = pso.bounds
    assert [(r.omega_star, r.converged_iteration) for r in batched[:2]] == [(hi, 0), (lo, 0)]
    assert batched[0].evaluations == 16 * (25 + 1)


def test_optimize_omegas_pool_bit_equal_to_serial():
    specs = _mixed_specs(CFG, 19, np.random.default_rng(19))
    pso = PsoConfig(bounds=pso_bounds(CFG), n_particles=16, n_iterations=25)
    seeds = [500 + 3 * i for i in range(len(specs))]
    assert optimize_omegas(specs, pso, seeds, jobs=2) == optimize_omegas(specs, pso, seeds, jobs=1)


@pytest.mark.parametrize("n_particles", [2, 3, 4, 16, 40])
def test_zero_width_spec_is_the_swarms_answer(n_particles):
    # at delta = 0 every omega has the same value, so the swarm settles on the lower bound at
    # once; the one evaluation there gives its answer without running it
    pso = PsoConfig(bounds=pso_bounds(CFG), n_particles=n_particles, n_iterations=12)
    lo = pso.bounds[0]
    for i, start in enumerate([-0.6, -0.2, 0.0, 0.17, 0.29]):
        sc = replace(make_scenario(CFG, BUDGET, velocity=0.0), start_angle=start)
        spec = make_objective_spec(sc)
        assert spec.interval.delta == 0.0
        seed = 40 + i
        (got,) = optimize_omegas([spec], pso, [seed])
        swarm = _lockstep_swarms([spec], pso, [seed])[0]
        assert got == replace(swarm, evaluations=1)  # bit for bit
        assert (got.omega_star, got.converged_iteration) == (lo, 0)


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_optimize_omegas_mixed_widths_keep_input_order(jobs, monkeypatch):
    # every other spec has delta = 0: two batches of each kind, interleaved in the input
    specs = _mixed_specs(CFG, 2 * (SWARM_CHUNK + 2), np.random.default_rng(23))
    specs[::2] = [replace(s, interval=replace(s.interval, delta=0.0)) for s in specs[::2]]
    assert sum(s.interval.delta > 0.0 for s in specs) > SWARM_CHUNK  # two swarm chunks
    pso = PsoConfig(bounds=pso_bounds(CFG), n_particles=8, n_iterations=10)
    seeds = [70 + 5 * i for i in range(len(specs))]
    expected = []
    for spec, seed in zip(specs, seeds):
        swarm = _lockstep_swarms([spec], pso, [seed])[0]
        expected.append(replace(swarm, evaluations=1) if spec.interval.delta == 0.0 else swarm)
    monkeypatch.setattr(_CountingPool, "made", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the pool is also capped at the cores
    assert optimize_omegas(specs, pso, seeds, jobs=jobs) == expected
    assert _CountingPool.made == (jobs > 1)  # a silent fallback to serial fails here
    # zero-width specs alone run no swarm, so no pool either
    assert optimize_omegas(specs[::2], pso, seeds[::2], jobs=jobs) == expected[::2]
    assert _CountingPool.made == (jobs > 1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "jobs, cores, workers",
    [(1000, 2, 2), (1000, 8, 3), (2, 8, 2), (1000, 1, None), (1000, None, None), (1, 8, None)],
)
def test_optimize_omegas_pool_is_capped_at_chunks_and_cores(jobs, cores, workers, monkeypatch):
    # 33 swarm specs make 3 chunks; a pool of 1 would be a process doing what this one does
    cfg = ArrayConfig(16, CARRIER_HZ)
    specs = _mixed_specs(cfg, 2 * SWARM_CHUNK + 2, np.random.default_rng(29), n_quad=16)
    assert sum(s.interval.delta > 0.0 for s in specs) == 2 * SWARM_CHUNK + 1
    pso = PsoConfig(bounds=pso_bounds(cfg), n_particles=4, n_iterations=3)
    seeds = [90 + i for i in range(len(specs))]
    expected = optimize_omegas(specs, pso, seeds, jobs=1)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert optimize_omegas(specs, pso, seeds, jobs=jobs) == expected
    assert _RecordingPool.sizes == ([] if workers is None else [workers])


def test_importing_the_package_loads_no_worker_pool():
    probe = (
        "import sys, thztrack, thztrack.cli, thztrack.exports\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
    )
    src = str(Path(thztrack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_optimize_omegas_passes_spec_error_through(jobs):
    # a target at the BS origin has no direction; its ValueError reaches the caller, from a worker too
    specs = _mixed_specs(CFG, SWARM_CHUNK + 4, np.random.default_rng(12))
    bad = SWARM_CHUNK + 2  # in the second chunk
    at_origin = SensedState(position=BS_FRAME.origin, velocity=(0.0, 0.0))
    specs[bad] = replace(specs[bad], state=at_origin)
    pso = PsoConfig(bounds=pso_bounds(CFG), n_particles=8, n_iterations=5)
    origin = "^target position coincides with the base station origin$"
    with pytest.raises(ValueError, match=origin):
        optimize_omegas(specs, pso, list(range(len(specs))), jobs=jobs)


_WEIGHTS = "ValueError: inertia, cognitive and social must be finite, got "
_PENALTY = "ValueError: penalty weight must be finite and >= 0, got "
_NODES = "ValueError: need 8 to 1024 quadrature nodes, got "
_REJECTIONS = {
    "test_optimize_rejects_invalid_bounds": [
        (lambda b=bounds: PsoConfig(bounds=b, seed=1),
         f"ValueError: invalid search bounds {bounds}; need 0 <= lo < hi")
        for bounds in [(3.0, 3.0), (-1.0, 10.0)]
    ],
    "test_pso_config_rejects_non_integer_counts": {
        field: (lambda f=field: PsoConfig(bounds=(0.0, 1.0), **{f: 2.5}),
                f"ValueError: {field} must be an integer, got 2.5")
        for field in ("n_particles", "n_iterations")
    },
    "test_specs_and_swarms_reject_nan": {
        **{field: [(lambda f=field, v=value: replace(spec_for_velocity(50.0), **{f: v}),
                    f"ValueError: {line}{value!r}") for value in (math.nan, math.inf)]
           for field, line in [("tau", "sensing period must be finite and positive, got "),
                               ("r_min", "minimum rate must be finite and >= 0, got "),
                               ("alpha", "penalty weight must be finite and >= 0, got ")]},
        **{field: (lambda f=field: PsoConfig((0.0, 1.0), **{f: math.nan}), _WEIGHTS + weights)
           for field, weights in [("inertia", "(nan, 1.4962, 1.4962)"),
                                  ("cognitive", "(0.7298, nan, 1.4962)"),
                                  ("social", "(0.7298, 1.4962, nan)")]},
    },
    # MIN_QUAD_NODES and MAX_QUAD_NODES bound n_quad, and it is a count
    "test_spec_validation": [
        (lambda: spec_for_velocity(10.0, alpha=-1.0), f"{_PENALTY}-1.0"),
        (lambda: spec_for_velocity(10.0, alpha=math.inf), f"{_PENALTY}inf"),
        (lambda: spec_for_velocity(10.0, n_quad=4), f"{_NODES}4"),
        (lambda: spec_for_velocity(10.0, n_quad=1025), f"{_NODES}1025"),
        (lambda: spec_for_velocity(10.0, n_quad=16.5),
         "ValueError: n_quad must be an integer, got 16.5"),
        (lambda: spec_for_velocity(10.0, n_quad=1024), None),
    ],
    # at delta * omega = 5e159 each taper entry is at most 1 / x, so no norm reaches 1e-300
    "test_objectives_reject_degenerate_taper": (
        lambda: objectives([1e160], spec_for_velocity(50.0)),
        "ValueError: degenerate taper normalisation"),
    "test_evaluator_rejects_mixed_shapes": [
        (lambda: _PeriodEvaluator(_mixed_specs(CFG, 1, np.random.default_rng(3))
                                  + _mixed_specs(CFG, 1, np.random.default_rng(3), n_quad=32)),
         "ValueError: batched specs must share the antenna count and n_quad"),
        (lambda: optimize_omegas(_mixed_specs(CFG, 2, np.random.default_rng(3)),
                                 PsoConfig(bounds=(0.0, 1.0)), [1]),
         "ValueError: 2 specs but 1 seeds"),
    ],
}
globals().update(table_tests(_REJECTIONS, check_rejections))
