"""Kinematics, direction conversion, and path-interval construction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from thztrack import (
    AngularInterval,
    BsGeometry,
    SensedState,
    path_to_interval,
    pose_to_direction,
    predict_pose,
)

GEOM = BsGeometry()
TAU = 0.165


def test_predict_pose_zero_elapsed():
    state = SensedState(position=(100.0, 0.0), velocity=(0.0, 20.0))
    assert predict_pose(state, 0.0, TAU) == (100.0, 0.0)


def test_predict_pose_table_velocity():
    # hand evaluation of p0 + v*t with t equal to the sensing period
    state = SensedState(position=(100.0, 0.0), velocity=(0.0, 20.0))
    x, y = predict_pose(state, 0.165, TAU)
    assert x == pytest.approx(100.0, abs=0.0)
    assert y == pytest.approx(3.3, abs=1e-12)


def test_predict_pose_static():
    state = SensedState(position=(50.0, -7.0), velocity=(0.0, 0.0))
    for t in (0.0, 0.01, TAU):
        assert predict_pose(state, t, TAU) == (50.0, -7.0)


def test_predict_pose_rejects_out_of_period():
    state = SensedState(position=(100.0, 0.0), velocity=(1.0, 0.0))
    with pytest.raises(ValueError):
        predict_pose(state, -0.01, TAU)
    with pytest.raises(ValueError):
        predict_pose(state, TAU + 0.01, TAU)
    with pytest.raises(ValueError, match="outside the sensing period"):
        predict_pose(state, math.nan, TAU)


def test_urm_composition():
    # predicting t1+t2 equals rebasing at t1 then predicting t2
    rng = np.random.default_rng(11)
    for _ in range(200):
        pos = tuple(rng.uniform(-100, 100, 2))
        vel = tuple(rng.uniform(-50, 50, 2))
        t1, t2 = rng.uniform(0, TAU / 2, 2)
        state = SensedState(position=pos, velocity=vel)
        direct = predict_pose(state, t1 + t2, TAU)
        rebased = SensedState(position=predict_pose(state, t1, TAU), velocity=vel)
        composed = predict_pose(rebased, t2, TAU)
        assert direct[0] == pytest.approx(composed[0], abs=1e-9)
        assert direct[1] == pytest.approx(composed[1], abs=1e-9)


def test_pose_to_direction_broadside():
    sin_dir, distance = pose_to_direction((100.0, 0.0), GEOM)
    assert sin_dir == 0.0
    assert distance == 100.0


def test_pose_to_direction_diagonal():
    sin_dir, distance = pose_to_direction((100.0, 100.0), GEOM)
    assert sin_dir == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert distance == pytest.approx(100.0 * math.sqrt(2.0), rel=1e-12)


def test_pose_to_direction_end_of_reference_path():
    # lateral offset x = D * tan(0.3) puts the target at angle 0.3 rad
    x = 100.0 * math.tan(0.3)
    sin_dir, _ = pose_to_direction((100.0, x), GEOM)
    assert sin_dir == pytest.approx(math.sin(0.3), abs=1e-12)


def test_pose_to_direction_rejects_coincident():
    with pytest.raises(ValueError):
        pose_to_direction((0.0, 0.0), GEOM)


def test_sine_direction_in_range():
    rng = np.random.default_rng(5)
    for _ in range(500):
        pos = tuple(rng.uniform(-200, 200, 2))
        if pos == (0.0, 0.0):
            continue
        sin_dir, _ = pose_to_direction(pos, GEOM)
        assert -1.0 <= sin_dir <= 1.0


def test_path_to_interval_static():
    state = SensedState(position=(100.0, 0.0), velocity=(0.0, 0.0))
    interval = path_to_interval(state, TAU, GEOM)
    assert interval.theta_m == 0.0
    assert interval.delta == 0.0


def test_path_to_interval_direct_evaluation():
    # endpoints with sines 0 and 0.2 give centre 0.1, half-width 0.1
    state = SensedState(position=(100.0, 0.0), velocity=(0.0, 100.0 * 0.2 / math.sqrt(1 - 0.04) / TAU))
    interval = path_to_interval(state, TAU, GEOM)
    assert interval.theta_m == pytest.approx(0.1, abs=1e-12)
    assert interval.delta == pytest.approx(0.1, abs=1e-12)


def test_path_to_interval_reference_endpoint_sines():
    # oracle: evaluate the two endpoint sines by hand for v = 20 m/s
    v = 20.0
    state = SensedState(position=(100.0, 0.0), velocity=(0.0, v))
    y_end = v * TAU
    sin_end = y_end / math.hypot(100.0, y_end)
    interval = path_to_interval(state, TAU, GEOM)
    assert interval.theta_m == pytest.approx(sin_end / 2.0, abs=1e-12)
    assert interval.delta == pytest.approx(sin_end / 2.0, abs=1e-12)


def test_path_to_interval_bounds_property():
    rng = np.random.default_rng(23)
    for _ in range(200):
        state = SensedState(
            position=(rng.uniform(50, 200), rng.uniform(-50, 50)),
            velocity=tuple(rng.uniform(-80, 80, 2)),
        )
        s0, _ = pose_to_direction(predict_pose(state, 0.0, TAU), GEOM)
        s1, _ = pose_to_direction(predict_pose(state, TAU, TAU), GEOM)
        interval = path_to_interval(state, TAU, GEOM)
        assert interval.lo == pytest.approx(min(s0, s1), abs=1e-12)
        assert interval.hi == pytest.approx(max(s0, s1), abs=1e-12)


def test_interval_validation():
    with pytest.raises(ValueError):
        AngularInterval(theta_m=0.99, delta=0.05)
    with pytest.raises(ValueError):
        AngularInterval(theta_m=0.0, delta=-0.1)
    with pytest.raises(ValueError):
        AngularInterval(theta_m=1.0, delta=0.0)


def test_boresight_must_be_unit():
    with pytest.raises(ValueError):
        BsGeometry(origin=(0.0, 0.0), boresight=(1.0, 1.0))
