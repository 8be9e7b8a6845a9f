"""Pure-pursuit steering, desired-path slope evaluation, and the band-range
rules a pipeline checks when it is built."""

import dataclasses
import math

import numpy as np
import pytest

from roadpatch.attack import PipelineConfig
from roadpatch.controller import (
    ControllerConfig,
    path_derivatives,
    steer_from_path,
)
from roadpatch.detector import DetectorConfig
from roadpatch.errors import ConfigError, InvalidArgumentError
from roadpatch.motion import VehicleParams


def _path(*coeffs):
    """A desired path: offset coefficients in ascending powers of distance."""
    return np.array(coeffs, dtype=float)


def _refusal(**controller):
    with pytest.raises(ConfigError) as info:
        PipelineConfig(detector=DetectorConfig(band_near=6.0, band_far=50.0),
                       controller=ControllerConfig(**controller))
    return info.value.field


def test_slope_of_a_pure_quadratic_path():
    path = _path(0.0, 0.0, 0.01, 0.0)
    assert path_derivatives(path, [10.0])[0] == pytest.approx(0.2)
    np.testing.assert_allclose(path_derivatives(path, [10.0, 20.0, 30.0]),
                               [0.2, 0.4, 0.6])


def test_constant_path_has_zero_slope_everywhere():
    path = _path(1.25)
    np.testing.assert_array_equal(path_derivatives(path, [6.0, 15.0, 50.0]),
                                  np.zeros(3))


def test_slopes_outside_the_trusted_range_are_rejected():
    # A path is trusted over the band range [6, 50] m; a pipeline that
    # would ask for slopes outside it cannot be built.
    assert _refusal(decision_points=(5.0,)) == "controller.decision_points"
    assert _refusal(decision_points=(20.0, 51.0)) \
        == "controller.decision_points"
    PipelineConfig(detector=DetectorConfig(band_near=6.0, band_far=50.0),
                   controller=ControllerConfig(decision_points=(6.0, 50.0)))


def test_steer_matches_the_pursuit_arc_formula():
    # Constant half-meter offset at the default 15 m lookahead.
    path = _path(0.5)
    steer = steer_from_path(path, ControllerConfig(), VehicleParams())
    assert steer == pytest.approx(math.atan(2.0 * 2.7 * 0.5 / 15.0 ** 2),
                                  rel=1e-12)
    assert steer == pytest.approx(0.011999, abs=1e-6)


def test_left_offset_steers_left_and_mirrors():
    cfg = ControllerConfig()
    params = VehicleParams()
    left = steer_from_path(_path(0.4), cfg, params)
    right = steer_from_path(_path(-0.4), cfg, params)
    assert left > 0.0
    assert right == pytest.approx(-left, rel=1e-15)


def test_gain_scales_the_raw_command():
    path = _path(0.2)
    params = VehicleParams()
    base = steer_from_path(path, ControllerConfig(steer_gain=1.0), params)
    doubled = steer_from_path(path, ControllerConfig(steer_gain=2.0), params)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_steer_clamps_to_the_vehicle_limit():
    path = _path(30.0)  # absurd offset saturates atan
    assert steer_from_path(path, ControllerConfig(),
                           VehicleParams(max_steer=0.1)) == 0.1


def test_lookahead_must_stay_in_the_trusted_range():
    assert _refusal(lookahead=5.0) == "controller.lookahead"
    assert _refusal(lookahead=50.5) == "controller.lookahead"
    with pytest.raises(ConfigError) as info:
        PipelineConfig(detector=DetectorConfig(band_near=20.0),
                       controller=ControllerConfig(lookahead=15.0,
                                                   decision_points=(25.0,)))
    assert info.value.field == "controller.lookahead"


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


def test_pipeline_refuses_a_detector_grid_outside_the_model_input():
    with pytest.raises(ConfigError) as info:
        PipelineConfig(detector=DetectorConfig(band_far=200.0))
    assert info.value.field == "detector"
    pipe = PipelineConfig()
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(pipe, controller=ControllerConfig(lookahead=60.0))
    assert info.value.field == "controller.lookahead"
