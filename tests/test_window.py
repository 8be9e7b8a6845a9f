"""The scene renders a window of its grid's columns: the columns every
rollout can read, drawn and read bit for bit as the full-width grid.  A
column is drawn on its first read, so a run draws only the columns it
reads, in whatever order, and they are the same bits."""

import dataclasses

import numpy as np
import pytest

import reference
from roadpatch import interp
from roadpatch.attack import patch_gradient, rollout_with_patch
from roadpatch.camera import (
    MAX_HEADING,
    MAX_LATERAL,
    _vehicle_to_world,
    lateral_reach,
    pixel_ground_points,
    warp_bev_to_camera,
)
from roadpatch.config import config_from_dict, load_config, resolve_scenario
from roadpatch.detector import support_set
from roadpatch.errors import IncompleteModelInputError
from roadpatch.motion import VehicleState
from roadpatch.scene import (
    ColumnDraw,
    RoadSpec,
    overlay,
    render_road_bev,
)
from roadpatch.sim import run_closed_loop

SCENARIOS = ("highway-72", "highway-105", "highway-126")


def _full_width(cfg):
    """The reference scene and mask over all of the scenario's grid."""
    mpp = cfg.scene.meters_per_pixel
    return (reference.render_road_bev(cfg.road, cfg.extent, mpp, cfg.seed),
            reference.lane_line_mask(cfg.road, cfg.extent, mpp))


def _assert_window_of(window, mask, full, full_mask, c0, c1):
    mpp = full.meters_per_pixel
    assert np.array_equal(window.pixels, full.pixels[:, c0:c1])
    assert np.array_equal(mask, full_mask[:, c0:c1])
    assert (window.col0, window.grid_y) == (c0, full.origin[1])
    assert window.origin == (full.origin[0], full.origin[1] + c0 * mpp)
    # ground and column index convert through the grid's index
    rng = np.random.default_rng(c0)
    gx = rng.uniform(*full.extent[:2], 500)
    gy = rng.uniform(*window.extent[2:], 500)
    fi, fj = window.fractional_index(gx, gy)
    want_i, want_j = full.fractional_index(gx, gy)
    assert np.array_equal(fi, want_i) and np.array_equal(fj, want_j - c0)
    cols = np.arange(c1 - c0)
    assert np.array_equal(window.column_y(cols),
                          full.origin[1] + (c0 + cols) * mpp)


@pytest.mark.parametrize("doc", [
    *({"name": name} for name in SCENARIOS),
    {"road": {"texture_noise_amp": 0.0}},
    {"scene": {"y_half_extent": 12.0}},         # clipped to the whole grid
], ids=[*SCENARIOS, "noise-free", "clipped"])
def test_the_window_holds_the_full_width_columns(doc):
    cfg = (load_config(resolve_scenario(doc["name"])) if "name" in doc
           else config_from_dict(doc))
    c0, c1 = cfg.columns
    scene, mask = cfg.build_scene()
    full, full_mask = _full_width(cfg)
    if "scene" in doc:
        assert (c0, c1) == (0, full.pixels.shape[1]) == (0, 480)
    else:
        assert 0 < c0 < c1 < full.pixels.shape[1]
    _assert_window_of(scene, mask, full, full_mask, c0, c1)


@pytest.mark.parametrize("cols", [(0, 37), (3, 40), (239, 272)],
                         ids=["first-column", "inner", "last-column"])
def test_any_column_window_is_drawn_bit_for_bit(cols):
    road, mpp = RoadSpec(road_length=30.0), 0.25
    extent = (0.0, 30.0, -34.0, 34.0)
    window = render_road_bev(road, extent, mpp, 11, cols)
    mask = np.broadcast_to(window.draw.lines, window.shape)
    full = reference.render_road_bev(road, extent, mpp, 11)
    full_mask = reference.lane_line_mask(road, extent, mpp)
    assert full.pixels.shape[1] == 272
    _assert_window_of(window, mask, full, full_mask, *cols)


def _assert_taps_spare_two_columns(scene, support, poses):
    """Each support point at each pose reads columns ``floor(fj)`` and
    ``floor(fj) + 1``, both at least two columns inside the window."""
    last = scene.pixels.shape[1] - 1
    for pose in poses:
        fj = scene.fractional_index(*_vehicle_to_world(pose, support.xf,
                                                        support.yf))[1]
        taps = np.floor(fj)
        assert taps.min() >= 2 and taps.max() + 1 <= last - 2, pose


@pytest.mark.parametrize("name", SCENARIOS)
def test_support_taps_stay_inside_the_window_at_the_envelope_corners(name):
    cfg = load_config(resolve_scenario(name))
    scene, _ = cfg.build_scene()
    corners = [VehicleState(100.0, y, h, 20.0) for y in (-MAX_LATERAL,
                                                         MAX_LATERAL)
               for h in (-MAX_HEADING, MAX_HEADING)]
    _assert_taps_spare_two_columns(
        scene, support_set(cfg.detector, cfg.camera), corners)


def _warped_states(states, steers, truncated):
    """The poses a rollout warped: one per steer, plus a truncating one."""
    return states[:len(steers) + bool(truncated)]


def test_support_taps_stay_inside_the_window_along_rollouts(scenario72,
                                                           scene72):
    scene, mask = scene72
    pipe, state0 = scenario72.pipeline(), scenario72.initial_state()
    support = support_set(pipe.detector, pipe.camera)
    benign = run_closed_loop(scene, mask, None, state0,
                             scenario72.duration_s, pipe, scenario72.goal_m)
    patched = rollout_with_patch(scene, mask, scenario72.initial_patch(),
                                 state0, scenario72.attack.horizon_frames,
                                 pipe)
    assert benign.frames_evaluated == 200 and len(patched.tapes) == 34
    for run in (benign, patched):
        _assert_taps_spare_two_columns(
            scene, support,
            _warped_states(run.states, run.steers, run.truncated))


def _patches(cfg):
    patch = cfg.initial_patch()
    rng = np.random.default_rng(23)
    return [patch, patch.with_values(
        rng.uniform(patch.v_min, patch.v_max, patch.values.shape))]


@pytest.mark.parametrize("name", ["highway-72", "highway-126"])
def test_rollouts_and_gradients_match_the_full_width_scene(name):
    cfg = load_config(resolve_scenario(name))
    pipe, state0 = cfg.pipeline(), cfg.initial_state()
    window, full = cfg.build_scene(), _full_width(cfg)
    for patch in _patches(cfg):
        records = [rollout_with_patch(*scene, patch, state0,
                                      cfg.attack.horizon_frames, pipe)
                   for scene in (window, full)]
        got, want = records
        assert [dataclasses.astuple(s) for s in got.states] \
            == [dataclasses.astuple(s) for s in want.states]
        assert got.steers == want.steers and got.truncated == want.truncated
        assert [p.tobytes() for p in got.paths] \
            == [p.tobytes() for p in want.paths]
        assert len(got.tapes) == len(want.tapes) > 0
        for a, b in zip(got.tapes, want.tapes):
            assert a.responses.tobytes() == b.responses.tobytes()
            assert np.array_equal(a.runs, b.runs)
            assert a.grays.tobytes() == b.grays.tobytes()
        grads = [patch_gradient(record, cfg.attack, pipe, bev, patch, m)
                 for record, (bev, m) in zip(records, (window, full))]
        assert grads[0].tobytes() == grads[1].tobytes()


@pytest.mark.parametrize("pose", [VehicleState(40.0, 0.0, 0.0, 20.0),
                                  VehicleState(20.0, MAX_LATERAL,
                                               MAX_HEADING, 20.0),
                                  VehicleState(30.0, -1.5, -0.1, 20.0)],
                         ids=["centre", "corner", "off-centre"])
def test_dense_frames_are_the_full_width_frame_inside_the_window(
        pose, scenario72, scene72):
    scene, mask = scene72
    full, full_mask = _full_width(scenario72)
    patch = _patches(scenario72)[1]
    cam = scenario72.camera
    for laid in (None, patch):
        with overlay(scene, laid, mask), overlay(full, laid, full_mask):
            got = warp_bev_to_camera(scene, cam, pose).pixels
            want = warp_bev_to_camera(full, cam, pose).pixels
        gx, gy, front = pixel_ground_points(cam, pose)
        inside = front & interp.inside(*scene.fractional_index(gx, gy),
                                       scene.pixels.shape)
        assert np.array_equal(got[inside], want[inside])
        assert np.all(got[~inside] == 0.0)
        # the frame does reach past the window, where the full width is lit
        assert np.any(want[front & ~inside] > 0.0)


def test_a_detector_reading_past_the_window_is_refused(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    wide = dataclasses.replace(pipe, detector=dataclasses.replace(
        pipe.detector, band_near=9.0, lateral_span=4.0))
    own, wider = (support_set(p.detector, p.camera) for p in (pipe, wide))
    # the window is cut for the scenario's own detector
    assert lateral_reach(own.xf, own.yf) < 13.2 < lateral_reach(wider.xf,
                                                                 wider.yf)
    pose = VehicleState(20.0, MAX_LATERAL, MAX_HEADING, 20.0)
    rollout_with_patch(scene, mask, None, pose, 1, pipe)
    with pytest.raises(IncompleteModelInputError, match="detector-support"):
        rollout_with_patch(scene, mask, None, pose, 1, wide)
    # at the lane centre the wider support still reads inside the window
    rollout_with_patch(scene, mask, None, VehicleState(20.0, 0.0, 0.0, 20.0),
                       1, wide)


def test_building_a_scene_draws_no_column(monkeypatch):
    drawn = []
    monkeypatch.setattr(ColumnDraw, "draw",
                        lambda self, a, b: drawn.append((a, b)))
    for name in SCENARIOS:
        cfg = load_config(resolve_scenario(name))
        scene, mask = cfg.build_scene()
        c0, c1 = cfg.columns
        assert scene.shape == mask.shape == (scene.draw.n_x, c1 - c0)
        assert scene.extent and scene.draw.block.size == 0
    assert drawn == []


def test_the_line_mask_is_one_read_only_row(scenario72):
    scene, mask = scenario72.build_scene()
    assert mask.strides[0] == 0 and not mask.flags.writeable
    # it is a view of the columns the scene's draw paints
    assert np.shares_memory(mask, scene.draw.lines)
    with pytest.raises(ValueError):
        mask[0, 0] = True
    with pytest.raises(ValueError):
        mask[:] = False


@pytest.mark.parametrize("noise", [0.02, 0.0], ids=["textured", "noise-free"])
@pytest.mark.parametrize("cols", [(0, 37), (3, 40), (200, 272), (0, 272)],
                         ids=["first-column", "inner", "last-column",
                              "whole-grid"])
def test_columns_drawn_in_any_order_are_the_same_bits(cols, noise):
    road, extent = RoadSpec(road_length=30.0, texture_noise_amp=noise), \
        (0.0, 30.0, -34.0, 34.0)
    full = reference.render_road_bev(road, extent, 0.25,
                                     11).pixels[:, cols[0]:cols[1]]
    n = cols[1] - cols[0]
    rng = np.random.default_rng(n)
    draw = render_road_bev(road, extent, 0.25, 11, cols).draw
    # strips drawn in shuffled order, and overlapping spans
    for a in rng.permutation(np.arange(0, n, 5)):
        b = min(a + 5, n)
        assert np.array_equal(draw.draw(a, b), full[:, a:b])
    for a, b in ((n // 3, n), (0, n // 2 + 3), (1, 4), (n - 2, n)):
        assert np.array_equal(draw.draw(a, b), full[:, a:b])
    # reads in any order grow one held span, which holds those columns
    window = render_road_bev(road, extent, 0.25, 11, cols)
    for a in rng.permutation(n - 1):
        block, lo = window.columns(a, a + 2)
        hi = lo + block.shape[1]
        assert lo <= a and a + 2 <= hi and block.flags.c_contiguous
        assert np.array_equal(block, full[:, lo:hi])
    assert window.draw.done
    assert window.pixels is window.draw.block
    assert np.array_equal(window.pixels, full)


def test_a_read_of_held_columns_is_the_whole_window_read():
    # Points at and between pixel centres, on the window's first and
    # last rows and columns, read through every partly held span.
    road, extent = RoadSpec(road_length=30.0), (0.0, 30.0, -34.0, 34.0)
    whole = reference.render_road_bev(road, extent, 0.25, 11)
    n_i, n_j = whole.shape
    fi = np.concatenate([np.linspace(0.0, n_i - 1, 41), [0.0, n_i - 1.0]])
    for a in (0, 5, 64, 100, n_j - 3, n_j - 2):
        for fj in (np.full(fi.size, float(a)), np.full(fi.size, a + 0.5),
                   np.linspace(a, min(a + 40.0, n_j - 1.0), fi.size)):
            window = render_road_bev(road, extent, 0.25, 11)
            fj = np.clip(fj, 0.0, n_j - 1.0)
            got = window.gather(fi, fj)
            assert not window.draw.done
            want = interp.gather(whole.pixels, fi, fj)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_benign_run_draws_only_the_columns_it_reads(name):
    cfg = load_config(resolve_scenario(name))
    scene, mask = cfg.build_scene()
    pipe, state0 = cfg.pipeline(), cfg.initial_state()
    run = run_closed_loop(scene, mask, None, state0, cfg.duration_s, pipe,
                          cfg.goal_m)
    assert run.frames_evaluated == 200 and not run.truncated
    lo, hi = scene.draw.lo, scene.draw.hi
    assert 0 < hi - lo <= 0.4 * scene.shape[1]
    assert scene.draw.block.shape == (scene.shape[0], hi - lo)
    support = support_set(pipe.detector, pipe.camera)
    for pose in _warped_states(run.states, run.steers, run.truncated):
        fj = scene.fractional_index(*_vehicle_to_world(pose, support.xf,
                                                        support.yf))[1]
        assert lo <= np.floor(fj).min() and np.floor(fj).max() + 1 < hi
    # the run read drawn grays only: every column drawn, it runs the same
    scene.pixels
    again = run_closed_loop(scene, mask, None, state0, cfg.duration_s, pipe,
                            cfg.goal_m)
    assert [dataclasses.astuple(s) for s in again.states] \
        == [dataclasses.astuple(s) for s in run.states]
    assert again.steers == run.steers


def test_a_run_with_a_frame_sink_draws_its_window_once(monkeypatch,
                                                       scenario126):
    # The tile draws the patch's strip; a frame sink's whole frames read
    # every column, which are drawn once, before the first frame, with no
    # support-sized draw between.
    drawn = []
    draw = ColumnDraw.draw

    def record(self, a, b):
        drawn.append((a, b))
        return draw(self, a, b)

    monkeypatch.setattr(ColumnDraw, "draw", record)
    scene, mask = scenario126.build_scene()
    frames = []
    run = run_closed_loop(scene, mask, scenario126.identity_patch(),
                          scenario126.initial_state(), 0.1,
                          scenario126.pipeline(), scenario126.goal_m,
                          frame_sink=frames.append)
    assert run.frames_evaluated == len(frames) > 0
    assert len(drawn) == 2 and drawn[1] == (0, scene.shape[1])
    a, b = drawn[0]
    assert 0 < a < b < scene.shape[1]
