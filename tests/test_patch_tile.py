"""A patched run writes a small tile of composited grays into the shared
scene raster for its length; every read of it must equal the same read
of the whole composited raster (``composite_patch``), bit for bit."""

import dataclasses
import weakref

import numpy as np
import pytest

from roadpatch.attack import rollout_with_patch
from roadpatch import interp
from roadpatch.camera import (
    CameraConfig,
    _footprint_band,
    patch_pixels,
    run_pixels,
    warp_bev_to_camera,
    warp_bev_to_points,
)
from roadpatch.config import config_from_dict
from roadpatch.detector import DetectorConfig, support_set
from roadpatch.errors import IncompleteModelInputError
from roadpatch.motion import VehicleState
from roadpatch.scene import (
    ColumnDraw,
    PatchPlacement,
    RoadSpec,
    composite_patch,
    lane_line_mask,
    overlay,
    patch_tile,
    render_road_bev,
    uniform_patch,
)
from roadpatch.sim import run_closed_loop

CAM = CameraConfig()


def _random_grays(patch, seed):
    rng = np.random.default_rng(seed)
    return patch.with_values(rng.uniform(patch.v_min, patch.v_max,
                                         patch.values.shape))


def _assert_reads_agree(scene, tile, whole, patch, pose, support):
    """Reads of ``scene`` with ``tile`` laid in equal those of ``whole``."""
    want = warp_bev_to_camera(whole, CAM, pose).pixels
    with overlay(scene, tile):
        frame = warp_bev_to_camera(scene, CAM, pose).pixels
        assert np.array_equal(frame, want)
        assert np.array_equal(
            warp_bev_to_points(scene, CAM, pose, support.xf, support.yf,
                               support.front),
            warp_bev_to_points(whole, CAM, pose, support.xf, support.yf,
                               support.front))
        runs, grays = patch_pixels(scene, CAM, pose, patch)
    pixels = run_pixels(runs)
    assert grays.tobytes() == frame.ravel()[pixels].tobytes()
    return pixels, grays


def _short_road():
    return config_from_dict({"speed_kmh": 54.0, "duration_s": 1.0,
                             "road": {"road_length": 90.0},
                             "patch": {"start_x": 12.0, "width": 2.0,
                                       "length": 8.0},
                             "attack": {"horizon_frames": 5}})


def test_tile_reads_equal_the_composited_scene_along_a_closed_loop():
    cfg = _short_road()
    scene, mask = cfg.build_scene()
    patch = _random_grays(cfg.initial_patch(), 1)
    frames = []
    result = run_closed_loop(scene, mask, patch, cfg.initial_state(),
                             cfg.duration_s, cfg.pipeline(), cfg.goal_m,
                             frame_sink=frames.append)
    assert len(frames) == result.frames_evaluated == 20
    whole = composite_patch(scene, patch, mask)
    tile = patch_tile(scene, patch, mask)
    support = support_set(cfg.detector, cfg.camera)
    seen = 0
    for frame, pose in zip(frames, result.states):
        assert frame.pose == pose
        assert np.array_equal(
            frame.pixels, warp_bev_to_camera(whole, CAM, pose).pixels)
        pixels, grays = _assert_reads_agree(scene, tile, whole, patch, pose,
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
    # the points one step past an edge have no source, so the warp
    # refuses them; the rest reach exactly to the edges
    inner = (slice(1, -1), slice(1, -1))
    with pytest.raises(IncompleteModelInputError, match="detector-support"):
        warp_bev_to_points(scene, CAM, origin, xf, yf, front)
    xf, yf, front = xf[inner], yf[inner], front[inner]
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
        with overlay(scene, tile):
            got = warp_bev_to_points(scene, CAM, origin, xf, yf, front)
        assert np.array_equal(
            got, warp_bev_to_points(whole, CAM, origin, xf, yf, front))
        # the corners of the raster read the composited grays there
        corner = (-1, 0) if k == 0 else (-1, -1)
        assert got[corner] == whole.pixels[-1, 0 if k == 0 else -1]
        assert got[corner] != scene.pixels[-1, 0 if k == 0 else -1]
        for pose in poses:
            pixels, _ = _assert_reads_agree(scene, tile, whole, patch, pose,
                                            support)
            # the footprint reaches past the outer column centres, where
            # its points are clamped into the raster
            fj = scene.fractional_index(*_footprint_band(
                CAM, pose, placement.rect)[1:])[1]
            assert pixels.size
            assert fj.min() < 0.0 if k == 0 else fj.max() > n_j - 1


# A patched run writes its tile into the scene's grays and must write the
# scene's own grays back, however it ends; a rendered scene that draws
# more columns during the run must lay the tile over them again.

class _Stop(Exception):
    pass


def _stop_at(k):
    def sink(frame):
        if frame.index == k:
            raise _Stop
    return sink


def _runs(cfg, patch):
    """The patched runs, each of which takes a scene and its mask."""
    pipe, state0 = cfg.pipeline(), cfg.initial_state()

    def rollout(scene, mask):
        rollout_with_patch(scene, mask, patch, state0, 5, pipe)

    def closed_loop(scene, mask):
        frames = []
        run_closed_loop(scene, mask, patch, state0, cfg.duration_s, pipe,
                        cfg.goal_m, frame_sink=frames.append)
        assert len(frames) == 20

    def raising(scene, mask):
        with pytest.raises(_Stop):
            rollout_with_patch(scene, mask, patch, state0, 5, pipe,
                               frame_sink=_stop_at(3))

    return {"rollout": rollout, "closed-loop": closed_loop,
            "raises": raising}


def _unchanged(scene, fresh):
    """Whether every gray ``scene`` holds is ``fresh``'s, bit for bit."""
    draw = scene.draw
    return (draw.under is None and draw.hi > draw.lo
            and draw.block.tobytes() == fresh.draw.draw(draw.lo,
                                                        draw.hi).tobytes())


@pytest.mark.parametrize("run", ["rollout", "closed-loop", "raises"])
@pytest.mark.parametrize("kind", ["rendered", "raster"])
def test_a_patched_run_leaves_the_scene_grays_as_they_were(run, kind):
    cfg = _short_road()
    scene, mask = cfg.build_scene()
    if kind == "raster":
        scene = dataclasses.replace(
            scene, draw=ColumnDraw.holding(scene.pixels.copy()))
    patch = _random_grays(cfg.initial_patch(), 4)
    _runs(cfg, patch)[run](scene, mask)
    assert _unchanged(scene, cfg.build_scene()[0])


def test_a_held_raster_is_never_drawn(monkeypatch):
    # composite_patch's raster holds every column from the start, so no
    # read of it draws: not a gather, a column read, its pixels, nor a
    # patched run laid over it.
    cfg = _short_road()
    pipe, state0 = cfg.pipeline(), cfg.initial_state()
    scene, mask = cfg.build_scene()
    whole = composite_patch(scene, _random_grays(cfg.initial_patch(), 6),
                            mask)
    held = whole.pixels.copy()

    def refuse(self, a, b):
        raise AssertionError(f"a held raster drew columns [{a}, {b})")

    monkeypatch.setattr(ColumnDraw, "draw", refuse)
    assert whole.draw.done
    n_i, n_j = whole.shape
    fi = np.array([0.0, n_i - 1.0, 3.5, 100.25])
    fj = np.array([0.0, n_j - 1.0, 7.25, 0.5])
    assert whole.gather(fi, fj).tobytes() \
        == interp.gather(held, fi, fj).tobytes()
    block, lo = whole.columns(3, 40)
    assert lo == 0 and block is whole.pixels is whole.draw.block
    other = _random_grays(cfg.initial_patch(), 7)
    with overlay(whole, patch_tile(whole, other, mask)):
        laid = whole.pixels.copy()
        warp_bev_to_camera(whole, CAM, state0)
    record = rollout_with_patch(whole, mask, other, state0, 5, pipe)
    assert len(record.tapes) == 5 and record.tapes[0].grays.size
    again = composite_patch(whole, other, mask)
    assert again.pixels.tobytes() == laid.tobytes()
    assert not np.array_equal(laid, held)
    assert whole.pixels.tobytes() == held.tobytes()


def test_footprint_grays_are_the_dense_warp_along_a_patched_closed_loop(
        scenario126):
    # At every pose of a patched highway-126 closed loop, the footprint's
    # grays are the dense warp's of the scene with the tile laid in.
    cfg = scenario126
    scene, mask = cfg.build_scene()
    patch = _random_grays(cfg.initial_patch(), 8)
    result = run_closed_loop(scene, mask, patch, cfg.initial_state(),
                             cfg.duration_s, cfg.pipeline(), cfg.goal_m)
    seen = 0
    with overlay(scene, patch_tile(scene, patch, mask)):
        for pose in result.states[:result.frames_evaluated]:
            runs, grays = patch_pixels(scene, cfg.camera, pose, patch)
            if not grays.size:
                continue
            dense = warp_bev_to_camera(scene, cfg.camera, pose).pixels
            assert grays.tobytes() \
                == dense.ravel()[run_pixels(runs)].tobytes()
            seen += 1
    assert seen >= 30


def test_a_redraw_during_a_rollout_lays_the_tile_again():
    # Only the tile's strip is drawn when the overlay starts; the first
    # support read grows the drawn span, and every read after it must
    # still see the patch, as the whole composited raster does.
    cfg = _short_road()
    pipe, state0 = cfg.pipeline(), cfg.initial_state()
    scene, mask = cfg.build_scene()
    patch = _random_grays(cfg.initial_patch(), 5)
    strip = cfg.build_scene()[0]
    patch_tile(strip, patch, mask)
    got = rollout_with_patch(scene, mask, patch, state0, 5, pipe)
    assert scene.draw.lo <= strip.draw.lo < strip.draw.hi <= scene.draw.hi
    assert scene.draw.hi - scene.draw.lo > strip.draw.hi - strip.draw.lo
    assert _unchanged(scene, cfg.build_scene()[0])
    whole = composite_patch(scene, patch, mask)
    want = rollout_with_patch(whole, mask, patch, state0, 5, pipe)
    bare = rollout_with_patch(scene, mask, None, state0, 5, pipe)
    assert got.states == want.states and len(got.tapes) == 5
    for a, b in zip(got.tapes, want.tapes):
        assert a.responses.tobytes() == b.responses.tobytes()
        assert a.grays.tobytes() == b.grays.tobytes()
    # the support does see the patch
    assert got.states != bare.states
    # and nothing holds the strip's block once a read redraws the span,
    # nor the tile once it is laid, but its grays are laid again
    scene, _ = cfg.build_scene()
    tile = patch_tile(scene, patch, mask)
    old, laid = weakref.ref(scene.draw.block), weakref.ref(tile.pixels)
    with overlay(scene, tile):
        del tile
        assert laid() is None
        scene.columns(0, scene.shape[1])
        assert old() is None
        assert np.array_equal(scene.draw.block, whole.pixels)
