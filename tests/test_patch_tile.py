"""A patched scene is the shared scene raster plus a small tile of
composited grays; every read of it must equal the same read of the whole
composited raster (``composite_patch``), bit for bit."""

import dataclasses

import numpy as np

from roadpatch.camera import (
    CameraConfig,
    patch_pixels,
    warp_bev_to_camera,
    warp_bev_to_points,
)
from roadpatch.config import config_from_dict
from roadpatch.detector import DetectorConfig, support_set
from roadpatch.motion import VehicleState
from roadpatch.scene import (
    PatchPlacement,
    RoadSpec,
    composite_patch,
    lane_line_mask,
    patch_tile,
    render_road_bev,
    uniform_patch,
)
from roadpatch.sim import run_closed_loop

CAM = CameraConfig()


def _tiled(scene, patch, mask):
    return dataclasses.replace(scene, tile=patch_tile(scene, patch, mask))


def _random_grays(patch, seed):
    rng = np.random.default_rng(seed)
    return patch.with_values(rng.uniform(patch.v_min, patch.v_max,
                                         patch.values.shape))


def _assert_reads_agree(tiled, whole, patch, pose, support):
    frame = warp_bev_to_camera(tiled, CAM, pose).pixels
    want = warp_bev_to_camera(whole, CAM, pose).pixels
    assert np.array_equal(frame, want)
    assert np.array_equal(
        warp_bev_to_points(tiled, CAM, pose, support.xf, support.yf,
                           support.front),
        warp_bev_to_points(whole, CAM, pose, support.xf, support.yf,
                           support.front))
    pixels, grays = patch_pixels(tiled, CAM, pose, patch)
    assert np.array_equal(grays, want.ravel()[pixels])
    return pixels, grays


def test_tile_reads_equal_the_composited_scene_along_a_closed_loop():
    cfg = config_from_dict({"speed_kmh": 54.0, "duration_s": 1.0,
                            "road": {"road_length": 90.0},
                            "patch": {"start_x": 12.0, "width": 2.0,
                                      "length": 8.0},
                            "attack": {"horizon_frames": 5}})
    scene, mask = cfg.build_scene()
    patch = _random_grays(cfg.initial_patch(), 1)
    frames = []
    result = run_closed_loop(scene, mask, patch, cfg.initial_state(),
                             cfg.duration_s, cfg.pipeline(), cfg.goal_m,
                             frame_sink=frames.append)
    assert len(frames) == result.frames_evaluated == 20
    whole = composite_patch(scene, patch, mask)
    tiled = _tiled(scene, patch, mask)
    support = support_set(cfg.detector, cfg.camera)
    seen = 0
    for frame, pose in zip(frames, result.states):
        assert frame.pose == pose
        assert np.array_equal(
            frame.pixels, warp_bev_to_camera(whole, CAM, pose).pixels)
        pixels, grays = _assert_reads_agree(tiled, whole, patch, pose,
                                            support)
        # the tile is read: the base scene gives other grays there
        base = warp_bev_to_camera(scene, CAM, pose).pixels.ravel()[pixels]
        seen += not np.array_equal(grays, base)
    assert seen == len(frames)


# A 0.25 m raster whose pixel centres and half-pixel points are exact in
# binary, seen from the road origin at heading 0, where a ground point is
# its own vehicle-frame point: fractional indices land exactly on the
# raster's first and last rows and columns.
_MPP = 0.25
_EXTENT = (0.0, 70.0, -34.0, 34.0)
_STRIPS = [PatchPlacement(0.0, -32.0, 4.0, 70.0, margin=0.0),
           PatchPlacement(0.0, 32.0, 4.0, 70.0, margin=0.0)]


def _edge_scene():
    road = RoadSpec(road_length=70.0)
    return (render_road_bev(road, _EXTENT, _MPP, 3),
            lane_line_mask(road, _EXTENT, _MPP))


def test_a_tile_clipped_at_the_raster_edge_reads_the_composited_grays():
    scene, mask = _edge_scene()
    n_i, n_j = scene.pixels.shape
    origin = VehicleState(0.0, 0.0, 0.0, 10.0)
    # every pixel centre and half-pixel point, one step past each edge
    gx = scene.origin[0] + 0.5 * _MPP * np.arange(-1, 2 * n_i)
    gy = scene.origin[1] + 0.5 * _MPP * np.arange(-1, 2 * n_j)
    xf, yf = (a.copy() for a in np.meshgrid(gx, gy, indexing="ij"))
    front = np.ones(xf.shape, dtype=bool)
    fi, fj = scene.fractional_index(xf, yf)
    assert fi[-2, 0] == n_i - 1 and fj[0, -2] == n_j - 1
    poses = [VehicleState(-2.0, 0.0, 0.0, 10.0),
             VehicleState(3.0, 1.0, 0.03, 10.0),
             VehicleState(3.0, -1.0, -0.03, 10.0)]
    support = support_set(DetectorConfig(), CAM)
    for k, placement in enumerate(_STRIPS):
        patch = _random_grays(uniform_patch(placement, 0.5, 0.3), 10 + k)
        tile = patch_tile(scene, patch, mask)
        rows, cols = tile.pixels.shape
        # flush against the first and last rows and one side's column
        assert tile.row0 == 0 and tile.row0 + rows == n_i
        assert (tile.col0 == 0) if k == 0 else (tile.col0 + cols == n_j)
        whole = composite_patch(scene, patch, mask)
        tiled = dataclasses.replace(scene, tile=tile)
        got = warp_bev_to_points(tiled, CAM, origin, xf, yf, front)
        assert np.array_equal(
            got, warp_bev_to_points(whole, CAM, origin, xf, yf, front))
        # the corners of the raster read the composited grays there
        corner = (-2, 1) if k == 0 else (-2, -2)
        assert got[corner] == whole.pixels[-1, 0 if k == 0 else -1]
        assert got[corner] != scene.pixels[-1, 0 if k == 0 else -1]
        for pose in poses:
            _assert_reads_agree(tiled, whole, patch, pose, support)
