"""Pure-pursuit steering and desired-path slope evaluation."""

import math

import numpy as np
import pytest

from roadpatch.controller import (
    ControllerConfig,
    path_derivatives,
    steer_from_path,
)
from roadpatch.detector import DesiredPath
from roadpatch.errors import InvalidArgumentError, OutOfRangeError
from roadpatch.motion import VehicleParams

RANGE = (6.0, 50.0)


def test_slope_of_a_pure_quadratic_path():
    path = DesiredPath((0.0, 0.0, 0.01, 0.0), RANGE)
    assert path_derivatives(path, [10.0])[0] == pytest.approx(0.2)
    np.testing.assert_allclose(path_derivatives(path, [10.0, 20.0, 30.0]),
                               [0.2, 0.4, 0.6])


def test_constant_path_has_zero_slope_everywhere():
    path = DesiredPath((1.25,), RANGE)
    np.testing.assert_array_equal(path_derivatives(path, [6.0, 15.0, 50.0]),
                                  np.zeros(3))


def test_slopes_outside_the_trusted_range_are_rejected():
    path = DesiredPath((0.0, 1.0), RANGE)
    with pytest.raises(OutOfRangeError):
        path_derivatives(path, [5.0])
    with pytest.raises(OutOfRangeError):
        path_derivatives(path, [20.0, 51.0])


def test_steer_matches_the_pursuit_arc_formula():
    # Constant half-meter offset at the default 15 m lookahead.
    path = DesiredPath((0.5,), RANGE)
    steer = steer_from_path(path, ControllerConfig(), VehicleParams())
    assert steer == pytest.approx(math.atan(2.0 * 2.7 * 0.5 / 15.0 ** 2),
                                  rel=1e-12)
    assert steer == pytest.approx(0.011999, abs=1e-6)


def test_left_offset_steers_left_and_mirrors():
    cfg = ControllerConfig()
    params = VehicleParams()
    left = steer_from_path(DesiredPath((0.4,), RANGE), cfg, params)
    right = steer_from_path(DesiredPath((-0.4,), RANGE), cfg, params)
    assert left > 0.0
    assert right == pytest.approx(-left, rel=1e-15)


def test_gain_scales_the_raw_command():
    path = DesiredPath((0.2,), RANGE)
    params = VehicleParams()
    base = steer_from_path(path, ControllerConfig(steer_gain=1.0), params)
    doubled = steer_from_path(path, ControllerConfig(steer_gain=2.0), params)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_steer_clamps_to_the_vehicle_limit():
    path = DesiredPath((30.0,), RANGE)  # absurd offset saturates atan
    assert steer_from_path(path, ControllerConfig(),
                           VehicleParams(max_steer=0.1)) == 0.1


def test_lookahead_must_stay_in_the_trusted_range():
    path = DesiredPath((0.1,), (20.0, 50.0))
    with pytest.raises(OutOfRangeError):
        steer_from_path(path, ControllerConfig(lookahead=15.0),
                        VehicleParams())


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        ControllerConfig(decision_points=())
    with pytest.raises(InvalidArgumentError):
        ControllerConfig(decision_points=(10.0, 10.0))
    with pytest.raises(InvalidArgumentError):
        ControllerConfig(decision_points=(15.0, 10.0))
    with pytest.raises(InvalidArgumentError):
        ControllerConfig(lookahead=0.0)
    with pytest.raises(InvalidArgumentError):
        ControllerConfig(steer_gain=0.0)
