"""Pinhole ground-plane geometry, BEV warping, and the gradient splat."""

import dataclasses

import numpy as np
import pytest

from roadpatch import interp
from roadpatch.camera import (
    MAX_HEADING,
    MAX_LATERAL,
    CameraConfig,
    _columns_seeing,
    _vehicle_ground_grid,
    _vehicle_to_world,
    check_pose_bounds,
    ground_to_image,
    model_input_gaps,
    model_input_reach,
    model_input_sees,
    patch_footprint,
    patch_pixels,
    pixel_ground_points,
    run_pixels,
    splat_camera_to_bev,
    warp_bev_to_camera,
    warp_bev_to_points,
)
from roadpatch.detector import DetectorConfig, support_set
from roadpatch.errors import (
    IncompleteModelInputError,
    InvalidArgumentError,
    NoGroundIntersectionError,
)
from roadpatch.motion import VehicleState
from roadpatch.scene import (
    PatchPlacement,
    RoadSpec,
    _rect_index_ranges,
    composite_adjoint_local,
    composite_patch,
    composite_taps,
    lane_line_mask,
    overlay,
    patch_tile,
    render_road_bev,
    uniform_patch,
)

from reference import image_to_ground, rect_slices, scatter

CAM = CameraConfig()
ORIGIN = VehicleState(0.0, 0.0, 0.0, 10.0)


def _scene(road_length=80.0, **road_kw):
    road = RoadSpec(road_length=road_length, **road_kw)
    extent = (0.0, road_length, -48.0, 48.0)
    return (render_road_bev(road, extent, 0.05, 0),
            lane_line_mask(road, extent, 0.05))


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        CameraConfig(focal=0.0)
    with pytest.raises(InvalidArgumentError):
        CameraConfig(height=-1.0)
    with pytest.raises(InvalidArgumentError):
        CameraConfig(model_input_rect=(0, 0, 700, 100))


def test_pixel_to_ground_round_trip():
    px = np.stack(np.meshgrid(np.linspace(100.0, 500.0, 9),
                              np.linspace(250.0, 460.0, 9), indexing="ij"),
                  axis=-1)
    ground = image_to_ground(CAM, ORIGIN, px)
    u, v = ground_to_image(CAM, ORIGIN, ground)
    np.testing.assert_allclose(np.stack([u, v], axis=-1), px, atol=1e-9)


def test_rays_that_miss_the_ground_are_rejected():
    with pytest.raises(NoGroundIntersectionError):
        ground_to_image(CAM, ORIGIN, np.array([[-5.0, 0.0]]))
    with pytest.raises(NoGroundIntersectionError):
        # top of the image looks above the horizon
        image_to_ground(CAM, ORIGIN, np.array([[320.0, 200.0]]))


def test_pose_envelope_is_enforced():
    check_pose_bounds(VehicleState(0.0, 2.9, 0.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        check_pose_bounds(VehicleState(0.0, 3.5, 0.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        check_pose_bounds(VehicleState(0.0, 0.0, 0.25, 1.0))
    scene, _ = _scene()
    with pytest.raises(InvalidArgumentError):
        warp_bev_to_camera(scene, CAM, VehicleState(0.0, 3.5, 0.0, 1.0))


def test_warp_produces_a_fully_sourced_model_input():
    scene, _ = _scene()
    frame = warp_bev_to_camera(scene, CAM, ORIGIN, index=7)
    assert frame.pixels.shape == (480, 640)
    assert frame.index == 7 and frame.pose == ORIGIN
    valid = _per_pixel_warp(scene, ORIGIN)[1]
    rs, cs = rect_slices(CAM)
    assert valid[rs, cs].all()
    assert np.all(frame.pixels[~valid] == 0.0)


def test_warp_of_a_constant_scene_is_constant():
    scene, _ = _scene(texture_noise_amp=0.0)
    scene.pixels[:] = 0.3  # paint over the lane lines too
    frame = warp_bev_to_camera(scene, CAM, ORIGIN)
    valid = _per_pixel_warp(scene, ORIGIN)[1]
    np.testing.assert_allclose(frame.pixels[valid], 0.3, atol=1e-12)


def test_short_scene_cannot_source_the_model_input():
    road = RoadSpec(road_length=30.0)
    scene = render_road_bev(road, (0.0, 30.0, -48.0, 48.0), 0.05, 0)
    with pytest.raises(IncompleteModelInputError):
        warp_bev_to_camera(scene, CAM, ORIGIN)


def test_model_input_is_the_configured_crop():
    scene, _ = _scene()
    frame = warp_bev_to_camera(scene, CAM, ORIGIN)
    rs, cs = rect_slices(CAM)
    crop = frame.pixels[rs, cs]
    assert crop.shape == (256, 512)
    np.testing.assert_array_equal(crop, frame.pixels[224:480, 64:576])


def test_patch_footprint_tracks_the_pose():
    patch = uniform_patch(PatchPlacement(25.0, 0.0, 2.4, 10.0), 0.1, 0.45)
    ahead = patch_footprint(CAM, ORIGIN, patch)
    assert ahead.dtype == bool and ahead.sum() > 0
    behind = patch_footprint(CAM, VehicleState(40.0, 0.0, 0.0, 10.0), patch)
    assert behind.sum() == 0


def test_splat_is_the_adjoint_of_warp_after_composite():
    scene, mask = _scene()
    patch = uniform_patch(PatchPlacement(20.0, 0.2, 2.0, 12.0), 0.1, 0.40)
    rng = np.random.default_rng(11)
    base = warp_bev_to_camera(composite_patch(scene, patch, mask),
                              CAM, ORIGIN).pixels
    dv = rng.uniform(-0.05, 0.05, size=patch.values.shape)
    g = rng.standard_normal(base.shape)
    bumped = warp_bev_to_camera(
        composite_patch(scene, patch.with_values(patch.values + dv), mask),
        CAM, ORIGIN).pixels
    lhs = float(np.sum(g * (bumped - base)))
    rhs = float(np.sum(splat_camera_to_bev(g, CAM, ORIGIN, scene, patch,
                                           mask) * dv))
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_splat_input_checks():
    scene, mask = _scene()
    patch = uniform_patch(PatchPlacement(20.0, 0.0, 2.0, 12.0), 0.1, 0.40)
    with pytest.raises(InvalidArgumentError):
        splat_camera_to_bev(np.zeros((10, 10)), CAM, ORIGIN, scene, patch,
                            mask)


def test_camera_config_is_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CAM.focal = 600.0  # type: ignore[misc]


def _per_pixel_warp(scene, pose):
    """The warp computed for every pixel of the image, horizon included."""
    gx, gy, front = pixel_ground_points(CAM, pose)
    fi, fj = scene.fractional_index(gx, gy)
    valid = front & interp.inside(fi, fj, scene.pixels.shape)
    n_i, n_j = scene.pixels.shape
    pixels = interp.gather(scene.pixels, np.clip(fi, 0.0, n_i - 1),
                           np.clip(fj, 0.0, n_j - 1))
    pixels[~valid] = 0.0
    return pixels, valid


@pytest.mark.parametrize("pose", [ORIGIN, VehicleState(6.0, 1.2, 0.1, 10.0),
                                  VehicleState(15.0, -2.5, -0.15, 10.0)])
def test_dense_warp_matches_a_per_pixel_reference(pose):
    scene, _ = _scene()
    want, want_valid = _per_pixel_warp(scene, pose)
    assert not want_valid[0].any() and want_valid[-1].all()
    frame = warp_bev_to_camera(scene, CAM, pose)
    np.testing.assert_array_equal(frame.pixels, want)


def _crop_unsourced(scene, pose, det=DetectorConfig()):
    """Per-pixel rule: some model-input pixel reads past the raster's rows,
    or some pixel of ``det``'s support has no BEV source."""
    gx, _, front = pixel_ground_points(CAM, pose)
    fi = scene.fractional_index(gx, 0.0)[0]
    rows = front & (fi >= 0.0) & (fi <= scene.pixels.shape[0] - 1)
    valid = _per_pixel_warp(scene, pose)[1].ravel()
    support = support_set(det, CAM).pixels
    return not (rows[rect_slices(CAM)].all() and valid[support].all())


def _support_raises(scene, pose, det=DetectorConfig()):
    sup = support_set(det, CAM)
    try:
        warp_bev_to_points(scene, CAM, pose, sup.xf, sup.yf, sup.front)
    except IncompleteModelInputError:
        return True
    return False


def _dense_raises(scene, pose):
    try:
        warp_bev_to_camera(scene, CAM, pose)
    except IncompleteModelInputError:
        return True
    return False


@pytest.mark.parametrize("y, heading", [(0.0, 0.0), (1.0, 0.1),
                                       (-2.0, -MAX_HEADING)])
def test_crop_check_at_the_road_end_transition(y, heading, scenario72,
                                               scene72):
    # Bisect the last sourced x to one ulp with the per-pixel rule; the
    # corner rule must flip between the same two poses, and the loader's
    # reach must cover it: tightly at the worst heading, -MAX_HEADING.  The
    # scene renders the columns its own detector's support can read.
    scene, det = scene72[0], scenario72.detector
    lo, hi = 150.0, 270.0
    assert not _crop_unsourced(scene, VehicleState(lo, y, heading, 20.0), det)
    assert _crop_unsourced(scene, VehicleState(hi, y, heading, 20.0), det)
    while np.nextafter(lo, np.inf) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            mid = np.nextafter(lo, np.inf)
        if _crop_unsourced(scene, VehicleState(mid, y, heading, 20.0), det):
            hi = mid
        else:
            lo = mid
    for x, bad in ((lo, False), (hi, True)):
        pose = VehicleState(x, y, heading, 20.0)
        assert _support_raises(scene, pose, det) is bad
        assert _dense_raises(scene, pose) is bad
    end = scene.extent[1] - 0.5 * scene.meters_per_pixel   # last pixel center
    gap = lo + model_input_reach(CAM) - end
    assert gap >= -1e-9 and (heading != -MAX_HEADING or gap <= 1e-9)


@pytest.mark.parametrize("extent, x_range", [
    ((0.0, 270.0, -48.0, 48.0), (180.0, 215.0)),   # road end
    ((0.0, 80.0, -12.0, 12.0), (-3.0, 22.0)),      # near edge and both sides
])
def test_crop_check_matches_the_per_pixel_rule(extent, x_range):
    road = RoadSpec(road_length=extent[1])
    scene = render_road_bev(road, extent, 0.05, 0)
    rng = np.random.default_rng(17)
    verdicts = []
    for _ in range(150):
        pose = VehicleState(rng.uniform(*x_range),
                            rng.uniform(-MAX_LATERAL, MAX_LATERAL),
                            rng.uniform(-MAX_HEADING, MAX_HEADING), 20.0)
        want = _crop_unsourced(scene, pose)
        assert _support_raises(scene, pose) is want, pose
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


def _numpy_gaps(cfg, pose, x0, mpp, n_rows):
    """The corner rule of ``model_input_gaps`` in numpy arrays."""
    rx, ry, rw, rh = cfg.model_input_rect
    rows, cols = [ry, ry, ry + rh - 1, ry + rh - 1], [rx, rx + rw - 1] * 2
    xf, yf, front = (a[rows, cols] for a in _vehicle_ground_grid(cfg))
    fi = (_vehicle_to_world(pose, xf, yf)[0] - x0) / mpp
    return (bool(np.any(front & ~(fi >= 0.0))),
            bool(np.any(~front | ~(fi <= n_rows - 1))))


def _ulps_around(v, k=3):
    """``v`` and the ``k`` floats on either side of it."""
    return [v + i * abs(np.spacing(v)) for i in range(-k, k + 1)]


def test_model_input_gaps_match_the_numpy_corner_rule():
    # Random poses, each moved to within a few ulps of where one of its
    # corners crosses one of the raster's first and last rows: every flag
    # must flip inside some of those windows, at the same ulp in both
    # rules.
    rng = np.random.default_rng(3)
    x0, mpp, n_rows = 0.025, 0.05, 1600
    rx, ry, rw, rh = CAM.model_input_rect
    rows, cols = [ry, ry, ry + rh - 1, ry + rh - 1], [rx, rx + rw - 1] * 2
    flips = np.zeros(2, int)
    for cfg in (CAM, dataclasses.replace(CAM, pitch=0.0)):  # top at horizon
        xf, yf = (a[rows, cols] for a in _vehicle_ground_grid(cfg)[:2])
        for _ in range(40):
            pose = VehicleState(rng.uniform(-10.0, 70.0),
                                rng.uniform(-MAX_LATERAL, MAX_LATERAL),
                                rng.uniform(-MAX_HEADING, MAX_HEADING), 20.0)
            fi = (_vehicle_to_world(pose, xf, yf)[0] - x0) / mpp
            windows = [[dataclasses.replace(pose, x=x) for x in
                        _ulps_around(pose.x + (e - f) * mpp)]
                       for e in (0.0, n_rows - 1) for f in fi]
            for window in windows:
                verdicts = np.array([_numpy_gaps(cfg, p, x0, mpp, n_rows)
                                     for p in window])
                assert [model_input_gaps(cfg, p, x0, mpp, n_rows)
                        for p in window] == [tuple(v) for v in verdicts]
                flips += verdicts.any(axis=0) & ~verdicts.all(axis=0)
    assert np.all(flips > 0), flips


_BEHIND = VehicleState(40.0, 0.0, 0.0, 10.0)
# the camera stands over the patch, two corners behind it
_OVER = VehicleState(30.0, -2.5, -0.15, 10.0)
# the patch lies 58-68 m ahead: across the model input's top row
_RECT_TOP = VehicleState(-33.0, 0.5, 0.05, 10.0)
# the patch's near end runs off the image's left or right edge
_LEFT_EDGE = VehicleState(22.0, -1.0, 0.0, 10.0)
_RIGHT_EDGE = VehicleState(22.0, 2.0, 0.0, 10.0)
# one corner of the patch lies behind the camera, three in front
_ONE_BEHIND = VehicleState(25.3, -0.5, 0.6, 10.0)
# every corner in front, all of the patch far to the left of the image
_OUTSIDE = VehicleState(20.0, -15.0, 0.0, 10.0)


@pytest.mark.parametrize("pose", [ORIGIN, VehicleState(6.0, 1.2, 0.1, 10.0),
                                  _OVER, _BEHIND, _RECT_TOP, _LEFT_EDGE, _RIGHT_EDGE,
                                  _ONE_BEHIND, _OUTSIDE],
                         ids=["pose0", "pose1", "pose2", "behind", "rect-top",
                              "left-edge", "right-edge", "one-behind",
                              "outside"])
def test_patch_footprint_matches_a_per_pixel_reference(pose):
    scene, mask = _scene()
    patch = uniform_patch(PatchPlacement(25.0, 0.3, 2.4, 10.0), 0.1, 0.45)
    gx, gy, front = pixel_ground_points(CAM, pose)
    x_lo, x_hi, y_lo, y_hi = patch.placement.rect
    want = front & (gx >= x_lo) & (gx <= x_hi) & (gy >= y_lo) & (gy <= y_hi)
    rows = np.flatnonzero(want.any(axis=1))
    cols = np.flatnonzero(want.any(axis=0))
    assert (rows.size == 0) == (pose in (_BEHIND, _OUTSIDE))
    if pose == _RECT_TOP:
        assert rows[0] < CAM.model_input_rect[1] <= rows[-1]
    # the footprint is hit-tested only on the columns that can see it:
    # all of them when a corner lies behind the camera, none when the
    # patch projects beside the image
    width = CAM.image_size[0]
    tested = _columns_seeing(CAM, pose, patch.placement.rect)
    assert tested.start <= tested.stop
    assert (tested == slice(0, width)) == (pose in (_OVER, _BEHIND,
                                                    _ONE_BEHIND))
    assert (tested.start == tested.stop) == (pose == _OUTSIDE)
    if pose == ORIGIN:
        assert tested.stop - tested.start < width // 8
    if pose == _LEFT_EDGE:
        assert cols[0] == tested.start == 0 and tested.stop < width
    if pose == _RIGHT_EDGE:
        assert tested.start > 0 and cols[-1] == tested.stop - 1 == width - 1
    if cols.size:
        assert tested.start <= cols[0] and cols[-1] < tested.stop
    np.testing.assert_array_equal(patch_footprint(CAM, pose, patch), want)
    bev = composite_patch(scene, patch, mask)
    with overlay(scene, patch_tile(scene, patch, mask)):
        runs, values = patch_pixels(scene, CAM, pose, patch)
    assert runs.shape == (rows.size, 2)
    np.testing.assert_array_equal(run_pixels(runs), np.flatnonzero(want))
    np.testing.assert_array_equal(values, _per_pixel_warp(bev, pose)[0][want])
    assert model_input_sees(CAM, pose, patch.placement.rect) == bool(
        want[rect_slices(CAM)].any())


@pytest.mark.parametrize("pose", [ORIGIN, VehicleState(6.0, 1.2, 0.1, 10.0),
                                  VehicleState(15.0, -2.5, -0.15, 10.0)])
def test_splat_matches_a_per_pixel_reference(pose):
    # The splat reads only the rows that can see the patch; scattering
    # from every pixel of the image must give the identical result.
    scene, mask = _scene()
    patch = uniform_patch(PatchPlacement(20.0, 0.2, 2.0, 12.0), 0.1, 0.40)
    g = np.random.default_rng(3).standard_normal((480, 640))
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    gx, gy, front = pixel_ground_points(CAM, pose)
    fi, fj = scene.fractional_index(gx, gy)
    near = (front & interp.inside(fi, fj, scene.pixels.shape)
            & (fi > i_lo - 1.0) & (fi < i_hi + 1.0)
            & (fj > j_lo - 1.0) & (fj < j_hi + 1.0))
    assert near.any()
    local = scatter((i_hi - i_lo + 5, j_hi - j_lo + 5),
                    fi[near] - (i_lo - 2), fj[near] - (j_lo - 2), g[near])
    want = composite_adjoint_local(local, composite_taps(
        scene, patch, mask, i_lo - 2, j_lo - 2, local.shape))
    np.testing.assert_array_equal(
        splat_camera_to_bev(g, CAM, pose, scene, patch, mask), want)
