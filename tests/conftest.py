"""Shared fixtures: reference link parameters and a small, fast codebook; table tests."""

from __future__ import annotations

import inspect

import pytest

from thztrack import (
    ArrayConfig,
    CodebookGrid,
    LinkBudget,
    ObjectiveSpec,
    PsoConfig,
    Scenario,
    achievable_rate,
    build_codebook,
    pso_bounds,
)

# Reference simulation parameters used throughout the suite.
CARRIER_HZ = 220e9
BANDWIDTH_HZ = 10e9
TX_POWER_DBM = 40.0
NOISE_DBMHZ = -174.0
DISTANCE_M = 100.0
TAU_S = 0.165
END_ANGLE_RAD = 0.3


def make_budget(absorption: float = 0.0) -> LinkBudget:
    return LinkBudget.from_db(TX_POWER_DBM, NOISE_DBMHZ, BANDWIDTH_HZ, absorption)


def aligned_rate(cfg: ArrayConfig, budget: LinkBudget, distance: float = DISTANCE_M) -> float:
    """Instantaneous rate of a perfectly aligned MRT beam (gain = N)."""
    return achievable_rate(float(cfg.n_antennas), distance, budget, cfg)


def make_scenario(
    cfg: ArrayConfig,
    budget: LinkBudget,
    velocity: float,
    time_step: float = TAU_S / 100.0,
) -> Scenario:
    return Scenario(
        cfg=cfg,
        budget=budget,
        perpendicular_distance=DISTANCE_M,
        start_angle=0.0,
        end_angle=END_ANGLE_RAD,
        velocity=velocity,
        tau=TAU_S,
        time_step=time_step,
        r_min=0.1 * aligned_rate(cfg, budget),
    )


def make_objective_spec(
    sc: Scenario, alpha: float = 10.0, n_quad: int = 64, epoch: float = 0.0
) -> ObjectiveSpec:
    return sc.period_spec(epoch, alpha, n_quad)


@pytest.fixture(scope="session")
def small_cfg() -> ArrayConfig:
    return ArrayConfig(n_antennas=32, carrier_freq=CARRIER_HZ)


@pytest.fixture(scope="session")
def small_budget() -> LinkBudget:
    return make_budget()


@pytest.fixture(scope="session")
def small_pso(small_cfg) -> PsoConfig:
    return PsoConfig(
        bounds=pso_bounds(small_cfg),
        n_particles=10,
        n_iterations=15,
        seed=42,
    )


@pytest.fixture(scope="session")
def small_codebook(small_cfg, small_budget, small_pso):
    """Coarse 32-antenna codebook covering the reference path up to 30 m/s."""
    sc = make_scenario(small_cfg, small_budget, velocity=20.0, time_step=TAU_S / 50.0)
    grid = CodebookGrid(
        theta_step=0.02,
        delta_step=0.005,
        theta_range=(0.0, 0.36),
        delta_max=0.03,
    )
    template = make_objective_spec(sc, n_quad=16)
    return build_codebook(grid, template, small_pso)


@pytest.fixture(scope="session")
def small_scenario(small_cfg, small_budget) -> Scenario:
    return make_scenario(small_cfg, small_budget, velocity=20.0, time_step=TAU_S / 50.0)


def table_tests(families: dict, run) -> dict:
    """One test per family, named by its key, that calls ``run(rows, request)``. A family is a
    list of rows, or a dict from case id to its rows, so every case keeps its id; a lone row
    stands for a list of one."""

    def table_test(name, cases):
        if isinstance(cases, dict):
            @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
            def test(request, rows):
                run(rows if isinstance(rows, list) else [rows], request)
        else:
            def test(request):
                run(cases if isinstance(cases, list) else [cases], request)
        test.__name__ = test.__qualname__ = name
        return test

    return {name: table_test(name, cases) for name, cases in families.items()}


def check_rejections(rows, request) -> None:
    """Each row is an API call and the one line it raises, ``"<exception type>: <message>"``,
    as a traceback ends, or None for a call that must not raise, such as a value at a bound.
    The call's parameters without a default name the fixtures it is given."""
    for call, line in rows:
        params = inspect.signature(call).parameters.values()
        kwargs = {p.name: request.getfixturevalue(p.name) for p in params if p.default is p.empty}
        if line is None:
            call(**kwargs)
            continue
        with pytest.raises(Exception) as caught:
            call(**kwargs)
        assert f"{type(caught.value).__name__}: {caught.value}" == line and "\n" not in line
