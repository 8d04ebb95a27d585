"""Codebook build, lookup semantics, and persistence guarantees."""

from __future__ import annotations

import io
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thztrack import (
    AngularInterval,
    CodebookError,
    CodebookGrid,
    build_codebook,
    entry_precoder,
    load,
    lookup_indices,
    mrt_precoder,
    objectives,
    optimize_omega,
    save,
)
from thztrack.codebook import _cell_spec
from thztrack.optimizer import SWARM_CHUNK
from thztrack.seeding import derive_seed
from conftest import check_rejections, make_objective_spec, make_scenario, table_tests


@pytest.fixture(scope="module")
def tiny_build(small_cfg, small_budget, small_pso):
    """3x3 grid built with the session PSO settings."""
    sc = make_scenario(small_cfg, small_budget, velocity=20.0, time_step=0.165 / 50.0)
    grid = CodebookGrid(
        theta_step=0.05, delta_step=0.01, theta_range=(0.0, 0.1), delta_max=0.02
    )
    template = make_objective_spec(sc, n_quad=16)
    return grid, template, build_codebook(grid, template, small_pso)


def test_grid_enumeration():
    grid = CodebookGrid(theta_step=0.05, delta_step=0.01, theta_range=(0.0, 0.1), delta_max=0.025)
    assert grid.theta_values() == pytest.approx([0.0, 0.05, 0.1])
    # rows extend to cover delta_max even when it is not a multiple of the step
    assert grid.delta_values() == pytest.approx([0.0, 0.01, 0.02, 0.03])


def test_grid_counts_and_ends_need_no_value_list():
    grid = CodebookGrid(0.01, 0.002, theta_range=(-0.37, 0.37), delta_max=0.084)
    assert (grid.theta_count, grid.delta_count) == (75, 43)
    assert len(grid.cells()) == 75 * 43
    assert grid.theta_values()[-1] == -0.37 + 74 * 0.01 and grid.delta_values()[-1] == 42 * 0.002
    # a step that no float count can reach is a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="^grid step 5e-324 is too small for a span of 0.3$"):
        CodebookGrid(theta_step=5e-324, delta_step=0.01, theta_range=(0.0, 0.3), delta_max=0.0)


def test_every_cell_present(tiny_build):
    grid, _, cb = tiny_build
    assert set(cb.entries) == {
        (ti, di)
        for ti in range(len(grid.theta_values()))
        for di in range(len(grid.delta_values()))
    }


def test_single_cell_equals_direct_optimization(small_cfg, small_budget, small_pso):
    sc = make_scenario(small_cfg, small_budget, velocity=20.0, time_step=0.165 / 50.0)
    grid = CodebookGrid(theta_step=0.01, delta_step=0.01, theta_range=(0.05, 0.05), delta_max=0.0)
    template = make_objective_spec(sc, n_quad=16)
    cb = build_codebook(grid, template, small_pso)
    assert len(cb.entries) == 1
    entry = cb.entries[(0, 0)]

    cell_seed = derive_seed("cell", small_pso.seed, 0, 0)
    spec = _cell_spec(template, AngularInterval(0.05, 0.0))
    direct = optimize_omega(spec, replace(small_pso, seed=cell_seed))
    assert entry.omega == direct.omega_star
    assert entry.objective_value == direct.objective_value
    # the file stores the PSO seed once, and each cell's seed is derived from it again
    sink = io.StringIO()
    save(cb, sink)
    payload = json.loads(sink.getvalue())
    assert payload["pso"]["seed"] == small_pso.seed
    assert (payload["omega"], payload["objective"]) == ([direct.omega_star], [direct.objective_value])


def test_stored_objective_is_the_value_at_its_omega(small_codebook, small_scenario):
    # the swarms were 10 wide; a one-omega call at a cell's omega gives its stored bits
    template = make_objective_spec(small_scenario, n_quad=16)
    for entry in small_codebook.entries.values():
        spec = _cell_spec(template, entry.interval)
        assert objectives([entry.omega], spec)[0] == entry.objective_value


def test_zero_width_row_is_mrt(tiny_build, small_cfg):
    grid, _, cb = tiny_build
    for ti, theta in enumerate(grid.theta_values()):
        beam = entry_precoder(cb.entries[(ti, 0)], small_cfg)
        assert np.array_equal(beam.weights, mrt_precoder(theta, small_cfg).weights)


def test_objective_decreases_with_width(tiny_build):
    # wider beams spread the same power, so the optimum value drops
    grid, _, cb = tiny_build
    for ti in range(len(grid.theta_values())):
        values = [cb.entries[(ti, di)].objective_value for di in range(len(grid.delta_values()))]
        assert all(v > 0.0 for v in values)
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1))


def test_entry_precoders_unit_power(tiny_build, small_cfg):
    _, _, cb = tiny_build
    for entry in cb.entries.values():
        beam = entry_precoder(entry, small_cfg)
        assert abs(np.sum(np.abs(beam.weights) ** 2) - 1.0) < 1e-9


def test_lookup_exact_and_round_up(tiny_build):
    grid, _, cb = tiny_build
    assert lookup_indices(cb, AngularInterval(0.05, 0.01)) == (1, 1)
    # half-width between rows rounds up; centre snaps to the nearest theta
    assert lookup_indices(cb, AngularInterval(0.06, 0.011)) == (1, 2)
    # exact halfway centre resolves to the smaller index
    assert lookup_indices(cb, AngularInterval(0.025, 0.0))[0] == 0
    entry = cb.entries[lookup_indices(cb, AngularInterval(0.04, 0.015))]
    assert entry.interval.delta >= 0.015


def test_lookup_coverage_soundness(tiny_build):
    grid, _, cb = tiny_build
    rng = np.random.default_rng(15)
    for _ in range(300):
        q = AngularInterval(rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.02))
        entry = cb.entries[lookup_indices(cb, q)]
        assert entry.interval.delta >= q.delta - 1e-12


def _scan_lookup_indices(grid: CodebookGrid, interval: AngularInterval) -> tuple[int, int]:
    """Reference lookup: a linear scan over the centres and the rows of the grid."""
    if not grid.contains(interval):
        raise CodebookError("outside grid range")
    centres = grid.theta_values()
    ti = 0
    for i, centre in enumerate(centres):
        if abs(centre - interval.theta_m) < abs(centres[ti] - interval.theta_m) - 1e-15:
            ti = i
    target = interval.delta * (1.0 - 1e-12) - 1e-15
    for di, row in enumerate(grid.delta_values()):
        if row >= target:
            return ti, di
    raise CodebookError("no grid row covers")


@st.composite
def _grid_and_query(draw):
    # centres lie in [-0.6, 0.5 + 0.2) and rows below 0.18 + 0.1, so no cell reaches sine-space edge
    lo = draw(st.floats(-0.6, 0.5))
    hi = min(lo + draw(st.floats(0.0, 0.8)), 0.5)
    grid = CodebookGrid(
        theta_step=draw(st.floats(1e-3, 0.2)),
        delta_step=draw(st.floats(1e-3, 0.1)),
        theta_range=(lo, hi),
        delta_max=draw(st.floats(0.0, 0.18)),
    )
    centres, rows = grid.theta_values(), grid.delta_values()
    i = draw(st.integers(0, len(centres) - 1))
    theta = draw(
        st.sampled_from(
            [centres[i], 0.5 * (centres[i] + centres[min(i + 1, len(centres) - 1)]),
             lo - 1e-12, hi + 1e-12]
        )
        | st.floats(lo - 2e-12, hi + 2e-12)
    )
    j = draw(st.integers(0, len(rows) - 1))
    delta = draw(
        st.sampled_from(
            # a row, a half-width whose round-up target lands on that row, the top of the range
            [rows[j], (rows[j] + 1e-15) / (1.0 - 1e-12), grid.delta_max, grid.delta_max + 1e-12]
        )
        | st.floats(0.0, grid.delta_max + 2e-12)
    )
    # one ulp either side of the drawn values, or the values themselves
    theta = float(np.nextafter(theta, draw(st.sampled_from([-math.inf, theta, math.inf]))))
    delta = max(0.0, float(np.nextafter(delta, draw(st.sampled_from([-math.inf, delta, math.inf])))))
    try:
        interval = AngularInterval(theta, delta)
    except ValueError:
        assume(False)
    return grid, interval


# ceil(target / step) overshoots the covering row here, and floor((theta - lo) / step)
# the centre at or below theta, by one
_ROUNDING_EDGES = (
    (CodebookGrid(0.01, 0.006, (-0.5, 0.5), 0.2), AngularInterval(0.0, 0.17400000000017501)),
    (CodebookGrid(0.1 / 3, 0.02, (-0.9, 0.5), 0.02), AngularInterval(-0.2666666666666668, 0.0)),
)


@settings(max_examples=400, deadline=None)
@given(_grid_and_query())
@example(_ROUNDING_EDGES[0])
@example(_ROUNDING_EDGES[1])
def test_lookup_indices_match_grid_scan(case):
    grid, interval = case
    try:
        expected = _scan_lookup_indices(grid, interval)
    except CodebookError as exc:
        with pytest.raises(CodebookError, match=str(exc)):
            lookup_indices(SimpleNamespace(grid=grid), interval)
    else:
        assert lookup_indices(SimpleNamespace(grid=grid), interval) == expected


def test_save_load_round_trip(tiny_build, tmp_path):
    _, _, cb = tiny_build
    path = tmp_path / "cb.json"
    save(cb, path)
    loaded = load(path)
    assert loaded.fingerprint == cb.fingerprint
    assert loaded.grid == cb.grid
    assert loaded.tau == cb.tau
    assert loaded.alpha == cb.alpha
    assert loaded.r_min == cb.r_min
    edited = replace(cb, fingerprint={**cb.fingerprint, "tau": 0.2, "r_min": 1.0})
    assert (edited.tau, edited.r_min) == (0.2, 1.0)  # stored once, in the fingerprint
    assert loaded.pso == cb.pso
    assert loaded.entries == cb.entries


def test_save_deterministic_bytes(tiny_build, small_pso):
    grid, template, cb = tiny_build
    rebuilt = build_codebook(grid, template, small_pso)
    buf1, buf2 = io.StringIO(), io.StringIO()
    save(cb, buf1)
    save(rebuilt, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_parallel_build_matches_serial(tiny_build, small_pso):
    grid, template, _ = tiny_build
    grid = replace(grid, delta_max=0.06)  # 21 cells: two lockstep chunks, so the pool runs
    assert len(grid.theta_values()) * len(grid.delta_values()) > SWARM_CHUNK
    cb = build_codebook(grid, template, small_pso)
    parallel = build_codebook(grid, template, small_pso, jobs=2)
    buf1, buf2 = io.StringIO(), io.StringIO()
    save(cb, buf1)
    save(parallel, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_entry_optimality_floor(tiny_build):
    # stored omegas stay within 1e-4 relative of a 256-point grid search
    from thztrack import objectives

    grid, template, cb = tiny_build
    lo, hi = cb.pso.bounds
    for ti, di in [(0, 1), (1, 2), (2, 1)]:
        entry = cb.entries[(ti, di)]
        spec = _cell_spec(template, entry.interval)
        best = float(np.max(objectives(np.linspace(lo, hi, 257), spec)))
        assert entry.objective_value >= best * (1.0 - 1e-4)


def test_static_template_builds_at_the_moving_template_distance(small_cfg, small_budget, small_pso):
    # cell paths run parallel to the array, so the target's speed must not move them
    grid = CodebookGrid(theta_step=0.05, delta_step=0.01, theta_range=(0.0, 0.05), delta_max=0.02)
    distances, books = [], []
    for velocity in (0.0, 20.0):
        sc = replace(make_scenario(small_cfg, small_budget, velocity=velocity), start_angle=0.2)
        template = make_objective_spec(sc, n_quad=16)
        distances.append(template.state.position[0])
        sink = io.StringIO()
        save(build_codebook(grid, template, small_pso), sink)
        books.append(sink.getvalue())
    assert distances[0] == distances[1] == pytest.approx(100.0, rel=1e-12)
    assert books[0] == books[1]


def test_cell_seeds_distinct_and_stable():
    seeds = {derive_seed("cell", 42, ti, di) for ti in range(10) for di in range(10)}
    assert len(seeds) == 100
    assert derive_seed("cell", 42, 3, 4) == derive_seed("cell", 42, 3, 4)


def test_cell_spec_reproduces_interval(small_cfg, small_budget):
    from thztrack import path_to_interval

    sc = make_scenario(small_cfg, small_budget, velocity=20.0, time_step=0.165 / 50.0)
    template = make_objective_spec(sc)
    assert template.state.position[0] == pytest.approx(100.0, rel=1e-12)
    spec = _cell_spec(template, AngularInterval(0.12, 0.03))
    interval = path_to_interval(spec.state, spec.tau)
    assert interval.theta_m == pytest.approx(0.12, abs=1e-12)
    assert interval.delta == pytest.approx(0.03, abs=1e-12)


def _loaded(edit=None, expected=None):
    """A call that saves the tiny codebook, applies any ``edit`` to its payload and loads the text
    ``edit`` returns, or else the payload it leaves, expecting the fingerprint ``expected(cb)``."""

    def call(tiny_build, tmp_path):
        cb, path = tiny_build[2], tmp_path / "cb.json"
        save(cb, path)
        payload = json.loads(path.read_text())
        text = edit and edit(payload)
        path.write_text(text if isinstance(text, str) else json.dumps(payload))
        return load(path, expected_fingerprint=expected and expected(cb))

    return call


_MISSING = Path(__file__).with_name("missing.json")
_GRID = {"theta_step": 0.05, "delta_step": 0.01, "theta_range": (0.0, 0.3), "delta_max": 0.02}
_INVALID = "CodebookError: codebook payload incomplete or invalid: "
_REJECTIONS = {
    "test_load_rejects_grid_step_without_finite_count": (
        _loaded(lambda payload: payload["grid"].update(delta_step=5e-324)),
        f"{_INVALID}grid step 5e-324 is too small for a span of 0.02"),
    "test_grid_rejects_non_finite_values": {
        f"{field}-{value!r}": (lambda f=field, v=value: CodebookGrid(**{**_GRID, f: v}),
                               f"ValueError: {field} must be finite, got {value!r}")
        for field, value in [("theta_step", math.nan), ("delta_step", math.inf),
                             ("delta_max", math.nan)]
    },
    "test_lookup_out_of_range": [
        (lambda tiny_build, i=interval: lookup_indices(tiny_build[2], i),
         f"CodebookError: interval (theta={interval.theta_m!r}, delta={interval.delta!r}) "
         "outside grid range; rebuild with a wider grid")
        for interval in (AngularInterval(0.2, 0.0), AngularInterval(0.05, 0.05))
    ],
    "test_load_fingerprint_mismatch": [  # and the matching fingerprint loads
        (_loaded(expected=lambda cb: {**cb.fingerprint, "n_antennas": 64}),
         "CodebookError: codebook n_antennas 32 is not the scenario's 64; rebuild the codebook"),
        (_loaded(expected=lambda cb: cb.fingerprint), None),
    ],
    "test_load_truncated_payload": (
        _loaded(lambda payload: json.dumps(payload)[:1]), "CodebookError: codebook payload is not "
        "valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "test_load_rejects_non_finite_numbers": {
        literal: (_loaded(lambda payload, c=literal: json.dumps({**payload, "omega": [c]})
                          .replace(f'"{c}"', c)),
                  f"CodebookError: codebook payload holds a non-finite number {literal!r}")
        for literal in ["NaN", "Infinity", "-Infinity", "1e999"]
    },
    "test_load_rejects_incomplete_or_inconsistent_cells": {
        "missing": (_loaded(lambda payload: payload["omega"].pop(4)),
                    "CodebookError: 8 omegas and 9 objectives for 9 cells"),
        "surplus": (_loaded(lambda payload: payload["objective"].append(1.0)),
                    "CodebookError: 9 omegas and 10 objectives for 9 cells"),
        "omega-below-bounds": (  # the 32-antenna bounds are (0, 31 pi / 2)
            _loaded(lambda payload: payload["omega"].__setitem__(2, -1e-9)),
            "CodebookError: codebook cell (0, 2) has omega -1e-09 outside the bounds "
            "(0.0, 48.69468613064179)",
        ),
    },
    # a cell path that touches sin = +-1 runs to infinity, so no such grid is built or loaded;
    # steps of 0.25 make the outermost edges exactly +-1 or beyond, and one row less stays inside
    "test_grid_rejects_cells_reaching_sine_edge": {
        case: [
            (lambda r=span, d=reach: CodebookGrid(0.25, 0.25, r, d), "ValueError: " + cell),
            (_loaded(lambda payload, r=span, d=reach: payload["grid"].update(
                theta_step=0.25, delta_step=0.25, theta_lo=r[0], theta_hi=r[1], delta_max=d)),
             f"{_INVALID}{cell}"),
            (lambda r=span: CodebookGrid(0.25, 0.125, r, 0.125), None),
        ]
        for case, span, reach, centre in [
            ("at-plus-1", (0.5, 0.75), 0.25, 0.75), ("past-plus-1", (0.5, 0.75), 0.5, 0.5),
            ("at-minus-1", (-0.75, 0.0), 0.25, -0.75), ("past-minus-1", (-0.75, 0.0), 0.5, -0.75),
        ]  # the first outermost centre whose row reaches the edge
        for cell in [f"cell theta={centre} delta={reach} reaches sine-space edge"]
    },
    # format 1, which listed every cell as a row, and format 2, which hashed the build
    # scenario, have no reader either; nor has a payload without a version, or a JSON array
    "test_load_version_mismatch": [
        *[(_loaded(lambda payload, v=v: payload.update(format_version=v)),
           f"CodebookError: unsupported codebook format {v}, expected 3; rebuild the codebook")
          for v in (1, 2, 999)],
        (_loaded(lambda payload: payload.pop("format_version")),
         "CodebookError: codebook payload missing format_version"),
        (_loaded(lambda payload: json.dumps([payload])),
         "CodebookError: codebook payload missing format_version"),
    ],
    "test_load_missing_file": (
        lambda: load(_MISSING), "CodebookError: cannot read codebook: "
        f"[Errno 2] No such file or directory: {str(_MISSING)!r}"),
}
globals().update(table_tests(_REJECTIONS, check_rejections))
