"""Surrogate lane finder: forward fits, failure modes, analytic gradient."""

import numpy as np
import pytest

from roadpatch.camera import CameraConfig, Frame, warp_bev_to_camera
from roadpatch.detector import (
    DetectorConfig,
    _fit_half,
    _lane_detection,
    _plan,
    _soft_argmax_rows,
    desired_path,
    detect_lanes,
    detector_gradient,
    sampling_positions,
)
from roadpatch.errors import (
    DetectionFailedError,
    IncompleteModelInputError,
    InvalidArgumentError,
    StaleForwardStateError,
)
from roadpatch.motion import VehicleState
from roadpatch.scene import RoadSpec, render_road_bev

DET = DetectorConfig()
CAM = CameraConfig()


@pytest.fixture(scope="module")
def clean_scene():
    return render_road_bev(RoadSpec(road_length=200.0),
                           (0.0, 200.0, -48.0, 48.0), 0.05)


def _detect_at(scene, y=0.0):
    pose = VehicleState(0.0, y, 0.0, 20.0)
    frame = warp_bev_to_camera(scene, CAM, pose)
    return frame, detect_lanes(frame, DET, CAM)


@pytest.mark.parametrize("bad", [
    dict(poly_degree=0),
    dict(n_bands=3),
    dict(band_near=0.0),
    dict(band_near=50.0, band_far=6.0),
    dict(lateral_span=-1.0),
    dict(n_lateral=3),
    dict(tau=0.0),
    dict(response_bias=1.0),
    dict(split=3.0),
])
def test_config_validation(bad):
    with pytest.raises(InvalidArgumentError):
        DetectorConfig(**bad)


def _soft_argmax(r, tau):
    """One row through the detector's row-wise soft argmax."""
    idx, w = _soft_argmax_rows(np.asarray(r, dtype=float)[None, :], tau)
    return idx[0], w[0]


def test_soft_argmax_basics():
    idx, _ = _soft_argmax(np.zeros(7), 0.1)
    assert idx == pytest.approx(3.0, abs=1e-12)
    idx, _ = _soft_argmax(np.array([0.0, 1.0, 0.0]), 0.1)
    assert idx == pytest.approx(1.0, abs=1e-4)
    # The detector never runs it on a half of fewer than 2 columns (nor at
    # tau <= 0: see test_config_validation).
    with pytest.raises(InvalidArgumentError):
        _plan(DetectorConfig(split=2.95), CAM)


def test_soft_argmax_gradient_matches_finite_differences():
    # The backward pass takes d idx / d r_j = w_j (j - idx) / tau.
    rng = np.random.default_rng(0)
    r = rng.uniform(size=9)
    idx, w = _soft_argmax(r, 0.2)
    grad = w * (np.arange(r.size) - idx) / 0.2
    h = 1e-6
    for j in range(r.size):
        bump = np.zeros_like(r)
        bump[j] = h
        fd = (_soft_argmax(r + bump, 0.2)[0]
              - _soft_argmax(r - bump, 0.2)[0]) / (2.0 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)
    # shift invariance: adding a constant moves nothing
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def _wls_plan(degree):
    """A detector plan whose fit basis spans 12 bands over 6-50 m."""
    return _plan(DetectorConfig(n_bands=12, band_near=6.0, band_far=50.0,
                                poly_degree=degree), CAM)


def test_wls_recovers_an_exact_line():
    plan = _wls_plan(3)
    coeffs = _fit_half(plan, 2.0 + 0.5 * plan.dists, np.ones(12))[0]
    np.testing.assert_allclose(coeffs, [2.0, 0.5, 0.0, 0.0], atol=1e-9)


def test_wls_weight_handling():
    plan = _wls_plan(2)
    d = plan.dists
    y = 1.0 - 0.02 * d + 0.001 * d * d
    w = np.linspace(0.5, 2.0, 12)
    base = _fit_half(plan, y, w)[0]
    np.testing.assert_allclose(_fit_half(plan, y, 2.0 * w)[0], base,
                               atol=1e-12)
    spoiled = y.copy()
    spoiled[4] = 99.0
    w0 = w.copy()
    w0[4] = 0.0
    clean = _fit_half(plan, y, w0)[0]
    np.testing.assert_allclose(_fit_half(plan, spoiled, w0)[0], clean,
                               atol=1e-9)


def test_wls_needs_enough_distinct_distances():
    plan = _wls_plan(3)
    w = np.zeros(12)
    w[[2, 5, 9]] = 1.0
    with pytest.raises(DetectionFailedError):
        _fit_half(plan, np.ones(12), w)


def test_clean_road_lines_are_found_where_painted(clean_scene):
    _, det = _detect_at(clean_scene)
    d = np.linspace(DET.band_near, DET.band_far, 40)
    left = np.polynomial.polynomial.polyval(d, det.left_coeffs)
    right = np.polynomial.polynomial.polyval(d, det.right_coeffs)
    assert np.max(np.abs(left - 1.8)) < 0.05
    assert np.max(np.abs(right + 1.8)) < 0.05
    assert not det.low_confidence_left.any()
    assert not det.low_confidence_right.any()
    path = desired_path(det, DET)
    assert path.valid_range == (6.0, 50.0)
    assert max(abs(path.value(x)) for x in d) < 0.05


@pytest.mark.parametrize("y, expected", [(-0.3, 0.3), (0.3, -0.3)])
def test_lateral_pose_error_shows_up_in_the_path(clean_scene, y, expected):
    _, det = _detect_at(clean_scene, y=y)
    path = desired_path(det, DET)
    assert path.value(15.0) == pytest.approx(expected, abs=0.05)


def test_synthetic_ridge_is_localized():
    ys = np.linspace(-DET.lateral_span, DET.lateral_span, DET.n_lateral)
    col_l = int(np.argmin(np.abs(ys - 1.5)))
    col_r = int(np.argmin(np.abs(ys + 1.5)))
    samples = np.full((DET.n_bands, DET.n_lateral), 0.30)
    samples[:, [col_l, col_r]] = 0.9
    det = _lane_detection(samples, _plan(DET, CAM), None)
    assert det.left_coeffs[0] == pytest.approx(ys[col_l], abs=0.01)
    assert det.right_coeffs[0] == pytest.approx(ys[col_r], abs=0.01)
    assert np.max(np.abs(det.left_coeffs[1:])) < 1e-8


def test_dead_bands_are_flagged_but_tolerated():
    ys = np.linspace(-DET.lateral_span, DET.lateral_span, DET.n_lateral)
    samples = np.full((DET.n_bands, DET.n_lateral), 0.30)
    samples[:, [int(np.argmin(np.abs(ys - 1.5))),
                int(np.argmin(np.abs(ys + 1.5)))]] = 0.9
    samples[:10, ys > 0.0] = 0.0
    det = _lane_detection(samples, _plan(DET, CAM), None)
    assert det.low_confidence_left[:10].all()
    assert not det.low_confidence_left[10:].any()
    assert not det.low_confidence_right.any()
    assert det.left_coeffs[0] == pytest.approx(1.48, abs=0.02)


def test_featureless_input_fails_loudly():
    with pytest.raises(DetectionFailedError, match="left"):
        _lane_detection(np.full((DET.n_bands, DET.n_lateral), 0.30),
                        _plan(DET, CAM), None)


def test_unsourced_crop_pixels_are_rejected(clean_scene):
    frame, _ = _detect_at(clean_scene)
    frame.valid[300, 300] = False
    with pytest.raises(IncompleteModelInputError):
        detect_lanes(frame, DET, CAM)


def test_gradient_demands_the_matching_forward_pass(clean_scene):
    frame, det = _detect_at(clean_scene)
    upstream = np.array([1.0, 0.0, 0.0, 0.0])
    det.tape = None
    with pytest.raises(StaleForwardStateError):
        detector_gradient(frame, det, upstream, DET, CAM)
    frame2, det2 = _detect_at(clean_scene)
    with pytest.raises(StaleForwardStateError):
        detector_gradient(frame, det2, upstream, DET, CAM)


def test_pixel_gradient_matches_finite_differences(clean_scene):
    frame, det = _detect_at(clean_scene)
    upstream = np.array([0.0, 1.0, 0.0, 0.0])
    g = detector_gradient(frame, det, upstream, DET, CAM)

    def scalar(pixels):
        probe = Frame(pixels=pixels, valid=frame.valid, pose=frame.pose)
        d = detect_lanes(probe, DET, CAM)
        return float(0.5 * (d.left_coeffs[1] + d.right_coeffs[1]))

    flat = np.argsort(np.abs(g).ravel())[::-1][:8]
    h = 1e-5
    for k in flat:
        i, j = np.unravel_index(k, g.shape)
        plus, minus = frame.pixels.copy(), frame.pixels.copy()
        plus[i, j] += h
        minus[i, j] -= h
        fd = (scalar(plus) - scalar(minus)) / (2.0 * h)
        assert g[i, j] == pytest.approx(fd, rel=1e-3, abs=1e-8)

    rs, cs = CAM.rect_slices
    outside = np.ones_like(g, dtype=bool)
    outside[rs, cs] = False
    assert np.all(g[outside] == 0.0)


def test_sampling_grid_geometry():
    u, v = sampling_positions(DET, CAM)
    rx, ry, rw, rh = CAM.model_input_rect
    assert u.shape == (DET.n_bands, DET.n_lateral)
    assert np.all((u >= rx) & (u <= rx + rw - 1))
    assert np.all((v >= ry) & (v <= ry + rh - 1))
    # farther bands sit higher in the image, larger lateral offsets further left
    assert np.all(np.diff(v, axis=0) < 0.0)
    assert np.all(np.diff(u, axis=1) < 0.0)
