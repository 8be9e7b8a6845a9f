"""Surrogate lane finder: forward fits, failure modes, analytic gradient."""

import dataclasses

import numpy as np
import pytest

from roadpatch.attack import optimize_patch

from roadpatch.camera import (
    CameraConfig,
    warp_bev_to_camera,
    warp_bev_to_points,
)
from roadpatch.detector import (
    DetectorConfig,
    _fit_half,
    _lane_detection,
    _soft_argmax_rows,
    desired_path,
    detect_lanes,
    detector_gradient,
    sampling_positions,
    support_set,
)
from roadpatch.errors import (
    DetectionFailedError,
    IncompleteModelInputError,
    InvalidArgumentError,
)
from roadpatch.config import load_config, resolve_scenario
from roadpatch.motion import VehicleState
from roadpatch.scene import RoadSpec, render_road_bev

from roadpatch.sim import run_closed_loop

from reference import rect_slices

DET = DetectorConfig()
CAM = CameraConfig()


@pytest.fixture(scope="module")
def clean_scene():
    return render_road_bev(RoadSpec(road_length=200.0),
                           (0.0, 200.0, -48.0, 48.0), 0.05, 0)


def _support_grays(pixels):
    return pixels.ravel()[support_set(DET, CAM).pixels]


def _dead_bands(det):
    """Per-band flags of the left and right lines: no rectified response."""
    plan = support_set(DET, CAM)
    return tuple(det.responses[:, cols].sum(axis=1) == 0.0
                 for cols in (plan.cols_left, plan.cols_right))


def _detect_at(scene, y=0.0):
    pose = VehicleState(0.0, y, 0.0, 20.0)
    frame = warp_bev_to_camera(scene, CAM, pose)
    return frame, detect_lanes(_support_grays(frame.pixels), DET, CAM)


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
        support_set(DetectorConfig(split=2.95), CAM)


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
    return support_set(DetectorConfig(n_bands=12, band_near=6.0, band_far=50.0,
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
    assert not any(dead.any() for dead in _dead_bands(det))
    path = desired_path(det)
    np.testing.assert_array_equal(path,
                                  0.5 * (det.left_coeffs + det.right_coeffs))
    assert np.max(np.abs(np.polynomial.polynomial.polyval(d, path))) < 0.05


@pytest.mark.parametrize("y, expected", [(-0.3, 0.3), (0.3, -0.3)])
def test_lateral_pose_error_shows_up_in_the_path(clean_scene, y, expected):
    _, det = _detect_at(clean_scene, y=y)
    path = desired_path(det)
    assert np.polynomial.polynomial.polyval(15.0, path) == pytest.approx(
        expected, abs=0.05)


def test_synthetic_ridge_is_localized():
    ys = np.linspace(-DET.lateral_span, DET.lateral_span, DET.n_lateral)
    col_l = int(np.argmin(np.abs(ys - 1.5)))
    col_r = int(np.argmin(np.abs(ys + 1.5)))
    samples = np.full((DET.n_bands, DET.n_lateral), 0.30)
    samples[:, [col_l, col_r]] = 0.9
    det = _lane_detection(samples, support_set(DET, CAM))
    assert det.left_coeffs[0] == pytest.approx(ys[col_l], abs=0.01)
    assert det.right_coeffs[0] == pytest.approx(ys[col_r], abs=0.01)
    assert np.max(np.abs(det.left_coeffs[1:])) < 1e-8


def test_dead_bands_are_flagged_but_tolerated():
    ys = np.linspace(-DET.lateral_span, DET.lateral_span, DET.n_lateral)
    samples = np.full((DET.n_bands, DET.n_lateral), 0.30)
    samples[:, [int(np.argmin(np.abs(ys - 1.5))),
                int(np.argmin(np.abs(ys + 1.5)))]] = 0.9
    samples[:10, ys > 0.0] = 0.0
    det = _lane_detection(samples, support_set(DET, CAM))
    left, right = _dead_bands(det)
    assert left[:10].all()
    assert not left[10:].any()
    assert not right.any()
    assert det.left_coeffs[0] == pytest.approx(1.48, abs=0.02)


def test_featureless_input_fails_loudly():
    with pytest.raises(DetectionFailedError, match="left"):
        _lane_detection(np.full((DET.n_bands, DET.n_lateral), 0.30),
                        support_set(DET, CAM))


def test_unsourced_crop_pixels_are_rejected(clean_scene):
    # The detector's grays come from the support warp, which refuses a
    # pose whose model-input crop runs off the end of the road.
    sup = support_set(DET, CAM)
    pose = VehicleState(180.0, 0.0, 0.0, 20.0)
    with pytest.raises(IncompleteModelInputError):
        warp_bev_to_points(clean_scene, CAM, pose, sup.xf, sup.yf, sup.front)


def test_pixel_gradient_matches_finite_differences(clean_scene):
    frame, det = _detect_at(clean_scene)
    upstream = np.array([0.0, 1.0, 0.0, 0.0])
    g = detector_gradient(det.responses, upstream, DET, CAM)

    def scalar(pixels):
        d = detect_lanes(_support_grays(pixels), DET, CAM)
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

    rs, cs = rect_slices(CAM)
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


def test_fit_condition_numbers_stay_far_below_the_guard(monkeypatch,
                                                        record_check):
    # Every fit's normal equations pass the np.linalg.cond guard
    # (_COND_LIMIT, 1e12).  A cheaper guard may replace it only if it
    # refuses the same matrices, so the largest condition number the
    # bundled runs meet is logged, and held four orders below the limit.
    seen = []
    cond = np.linalg.cond

    def spy(a, *args):
        c = cond(a, *args)
        seen.append(float(c))
        return c

    monkeypatch.setattr(np.linalg, "cond", spy)
    worst = {}
    for name in ("highway-72", "highway-105", "highway-126"):
        cfg = load_config(resolve_scenario(name))
        scene, mask = cfg.build_scene()
        run_closed_loop(scene, mask, None, cfg.initial_state(),
                        cfg.duration_s, cfg.pipeline(), cfg.goal_m)
    worst["benign"] = max(seen)
    seen.clear()
    pipe, state0 = cfg.pipeline(), cfg.initial_state()
    opt = optimize_patch(scene, mask, cfg.initial_patch(), state0, pipe,
                         dataclasses.replace(cfg.attack, iterations=12))
    run_closed_loop(scene, mask, opt.patch, state0, cfg.duration_s, pipe,
                    cfg.goal_m)
    worst["patched highway-126"] = max(seen)
    ok = max(worst.values()) < 1e8
    record_check("fit condition numbers stay far below the guard", ok,
                 "; ".join(f"{k} max={v:.3g}" for k, v in worst.items())
                 + "; bound 1e8")
    assert ok, worst
