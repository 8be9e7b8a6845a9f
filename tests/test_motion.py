"""Bicycle-model plant: stepping, wrapping, clamping, rollouts."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roadpatch.attack import RolloutRecord
from roadpatch.errors import InvalidArgumentError
from roadpatch.motion import VehicleParams, VehicleState, clamp_steer, step

from reference import rollout


def test_single_step_matches_the_closed_form():
    params = VehicleParams()
    s1 = step(VehicleState(0.0, 0.0, 0.0, 20.0), 0.1, params)
    assert s1.x == pytest.approx(20.0 * params.dt)  # heading 0: straight ahead
    assert s1.y == 0.0
    expected = (20.0 / params.wheelbase) * math.tan(0.1) * params.dt
    assert s1.heading == pytest.approx(expected, rel=1e-12)
    assert s1.heading == pytest.approx(0.0371610, abs=1e-7)
    assert s1.speed == 20.0


def test_zero_steer_is_exactly_straight():
    states, flags = rollout(VehicleState(0.0, -0.75, 0.0, 15.0),
                            [0.0] * 64, VehicleParams())
    assert not any(flags)
    assert all(s.y == -0.75 and s.heading == 0.0 for s in states)
    xs = [s.x for s in states]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_heading_wraps_into_the_principal_interval():
    assert VehicleState(0, 0, 1.5 * math.pi, 1.0).heading == pytest.approx(
        -0.5 * math.pi)
    assert VehicleState(0, 0, -1.5 * math.pi, 1.0).heading == pytest.approx(
        0.5 * math.pi)
    # pi itself is the closed end of (-pi, pi]
    assert VehicleState(0, 0, math.pi, 1.0).heading == math.pi


@given(st.floats(min_value=-50.0, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
def test_heading_always_lands_in_the_principal_interval(angle):
    h = VehicleState(0.0, 0.0, angle, 1.0).heading
    assert -math.pi < h <= math.pi


def test_steer_clamps_at_the_actuator_limit():
    params = VehicleParams()
    assert clamp_steer(1.0, params.max_steer) == params.max_steer
    assert clamp_steer(-1.0, params.max_steer) == -params.max_steer
    assert clamp_steer(0.1, params.max_steer) == 0.1
    # a saturated command integrates identically to the limit itself
    over = step(VehicleState(0, 0, 0, 10.0), 2.0, params)
    at_limit = step(VehicleState(0, 0, 0, 10.0), params.max_steer, params)
    assert over == at_limit


def test_rollout_keeps_the_initial_state_and_flags_clipping():
    states, flags = rollout(VehicleState(0, 0, 0, 5.0), [0.01, -0.5, 0.02],
                            VehicleParams(max_steer=0.3))
    assert len(states) == 4 and len(flags) == 3
    assert flags == [False, True, False]
    assert states[0] == VehicleState(0, 0, 0, 5.0)


def test_invalid_inputs_are_rejected():
    with pytest.raises(InvalidArgumentError):
        VehicleState(0, 0, 0, -1.0)
    with pytest.raises(InvalidArgumentError):
        step(VehicleState(0, 0, 0, 1.0), float("nan"), VehicleParams())


def test_state_helpers():
    record = RolloutRecord(states=[VehicleState(3.0, -0.4, 0.0, 1.0)],
                           steers=[], detections=[], paths=[], projections=[],
                           truncated=False)
    assert record.max_lateral_deviation() == 0.4
    faster = dataclasses.replace(VehicleState(1.0, 2.0, 0.1, 5.0), speed=9.0)
    assert faster.speed == 9.0
    assert (faster.x, faster.y) == (1.0, 2.0)
    assert faster.heading == pytest.approx(0.1)
