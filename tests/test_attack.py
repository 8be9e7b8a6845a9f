"""Rollout recording, the bending objective, gradients, and the optimizer."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import reference
from roadpatch import attack
from roadpatch.attack import (
    AttackConfig,
    FrameTape,
    PipelineConfig,
    RolloutRecord,
    rollout_objective,
    optimize_patch,
    patch_gradient,
    rollout_with_patch,
)
from roadpatch.camera import (
    MAX_HEADING,
    MAX_LATERAL,
    patch_footprint,
    patch_pixels,
    run_pixels,
    splat_camera_to_bev,
    splat_pixels,
)
from roadpatch.config import config_from_dict
from roadpatch.detector import desired_path, detect_lanes, support_set
from roadpatch.errors import InvalidArgumentError, NoVisibilityError
from roadpatch.motion import VehicleState
from roadpatch.scene import composite_patch, overlay, patch_tile
from roadpatch.sim import run_closed_loop

from reference import (
    FrameGradient,
    aggregate_gradients_bev,
    frame_gradient,
    rect_slices,
    row_runs,
)

BASE = 0.45


def _tape(n_pixels, value):
    return FrameTape(responses=np.zeros((1, 1)),
                     runs=np.array([[0, n_pixels]]),
                     grays=np.full(n_pixels, float(value)))


def _record(paths, tapes):
    return RolloutRecord(states=[], steers=[], paths=paths, tapes=tapes,
                         truncated=False)


def _quad_path():
    # p(d) = 0.01 d^2, so p'(10) = 0.2
    return np.array([0.0, 0.0, 0.01, 0.0])


def test_objective_worked_example():
    record = _record([_quad_path()], [_tape(100, BASE + 1.0)])
    cfg = AttackConfig(lambda_reg=1e-4)
    bd = rollout_objective(record, cfg, (10.0,), BASE)
    assert bd.path_term == pytest.approx(0.2, rel=1e-12)
    assert bd.reg_term == pytest.approx(100.0, rel=1e-12)
    assert bd.total == pytest.approx(0.21, rel=1e-12)
    assert bd.directed == pytest.approx(0.21, rel=1e-12)
    left = rollout_objective(record, dataclasses.replace(cfg, direction="left"),
                             (10.0,), BASE)
    assert left.directed == pytest.approx(-0.19, rel=1e-12)
    assert left.total == bd.total


def test_objective_sums_over_frames_and_points():
    cfg = AttackConfig(lambda_reg=0.0)
    bd = rollout_objective(_record([_quad_path(), _quad_path()],
                                   [_tape(10, BASE + 0.5), _tape(0, 0.0)]),
                           cfg, (10.0, 20.0), BASE)
    assert bd.path_term == pytest.approx(0.2 + 0.4 + 0.2 + 0.4, rel=1e-12)
    assert bd.reg_term == pytest.approx(10 * 0.25, rel=1e-12)
    # a record without tapes (no patch) scores its paths and no stealth
    bare = rollout_objective(_record([_quad_path()], []), cfg, (10.0,), BASE)
    assert bare.path_term == pytest.approx(0.2, rel=1e-12)
    assert bare.reg_term == 0.0


@pytest.mark.parametrize("bad", [
    dict(horizon_frames=0),
    dict(lambda_reg=-1.0),
    dict(direction="up"),
    dict(step_size=0.0),
    dict(iterations=-1),
    dict(max_halvings=-1),
])
def test_attack_config_validation(bad):
    with pytest.raises(InvalidArgumentError):
        AttackConfig(**bad)


def test_direction_sign_and_default_pipeline():
    assert AttackConfig(direction="right").direction_sign == 1.0
    assert AttackConfig(direction="left").direction_sign == -1.0
    PipelineConfig()


def test_rollout_without_patch(scenario72, scene72):
    scene, mask = scene72
    record = rollout_with_patch(scene, mask, None, scenario72.initial_state(),
                                5, scenario72.pipeline())
    assert len(record.states) == 6
    assert record.frames_evaluated == 5
    assert not record.truncated
    assert len(record.paths) == 5 and record.tapes == []
    assert record.max_lateral_deviation() < 0.01
    with pytest.raises(InvalidArgumentError):
        rollout_with_patch(scene, mask, None, scenario72.initial_state(),
                           0, scenario72.pipeline())


def test_rollout_records_frames_and_sinks(scenario72, scene72):
    scene, mask = scene72
    seen = []
    record = rollout_with_patch(scene, mask, scenario72.initial_patch(),
                                scenario72.initial_state(), 3,
                                scenario72.pipeline(),
                                frame_sink=lambda f: seen.append(f.index))
    assert seen == [1, 2, 3]
    assert record.frames_evaluated == 3
    # a patch means a tape per frame, sink or not: the detector responses
    # and the footprint's indices and grays
    assert len(record.tapes) == 3
    pipe = scenario72.pipeline()
    for tape in record.tapes:
        assert tape.responses.shape == (pipe.detector.n_bands,
                                        pipe.detector.n_lateral)
        assert tape.pixels.size == tape.grays.size
    assert record.tapes[0].grays.size > 0


def test_benign_rollout_barely_bends_the_path(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    record = rollout_with_patch(scene, mask, None, scenario72.initial_state(),
                                5, pipe)
    bd = rollout_objective(record, AttackConfig(lambda_reg=0.0),
                           pipe.controller.decision_points, BASE)
    bound = 2e-3 * 5 * len(pipe.controller.decision_points)
    assert abs(bd.path_term) < bound
    assert bd.reg_term == 0.0


def test_frame_gradient_guards(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    cfg = scenario72.attack
    # A rollout without a patch keeps no tape, with or without a frame
    # sink.
    for sink in (None, lambda f: None):
        blind = rollout_with_patch(scene, mask, None,
                                   scenario72.initial_state(), 1, pipe,
                                   frame_sink=sink)
        with pytest.raises(InvalidArgumentError):
            frame_gradient(blind, 0, cfg, pipe,
                           pipe.controller.decision_points, BASE)
    record = rollout_with_patch(scene, mask, scenario72.initial_patch(),
                                scenario72.initial_state(), 1, pipe)
    for t in (-1, 1):
        with pytest.raises(InvalidArgumentError):
            frame_gradient(record, t, cfg, pipe,
                           pipe.controller.decision_points, BASE)


def test_frame_gradient_support(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    record = rollout_with_patch(scene, mask, scenario72.initial_patch(),
                                scenario72.initial_state(), 1, pipe)
    fg = frame_gradient(record, 0, scenario72.attack, pipe,
                        pipe.controller.decision_points, BASE)
    assert fg.index == 0 and fg.pose == record.states[0]
    nonzero = fg.image != 0.0
    assert nonzero.any()
    allowed = np.zeros(fg.image.shape, dtype=bool)
    allowed.ravel()[record.tapes[0].pixels] = True
    allowed[rect_slices(pipe.camera)] = True
    assert not np.any(nonzero & ~allowed)


def test_aggregate_is_the_mean_over_frames_that_saw_the_patch(scenario72,
                                                              scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    record = rollout_with_patch(scene, mask, patch,
                                scenario72.initial_state(), 2, pipe)
    pts = pipe.controller.decision_points
    fg = [frame_gradient(record, t, scenario72.attack, pipe, pts, BASE)
          for t in range(2)]
    counts = [tape.grays.size for tape in record.tapes]
    assert counts[0] > 0 and counts[1] > 0
    splats = [splat_camera_to_bev(g.image, pipe.camera, g.pose, scene,
                                  patch, mask) for g in fg]

    single = aggregate_gradients_bev(fg[:1], counts[:1], pipe.camera, scene,
                                     patch, mask)
    np.testing.assert_array_equal(single, splats[0])

    # every frame that saw the patch weighs 1, whatever its pixel count
    assert counts[0] != counts[1]
    both = aggregate_gradients_bev(fg, counts, pipe.camera, scene, patch,
                                   mask)
    np.testing.assert_array_equal(both, (splats[0] + splats[1]) / 2)

    # zero-count frames are skipped before their image is ever touched
    junk = FrameGradient(image=np.ones_like(fg[0].image), pose=fg[0].pose,
                         index=9)
    skip = aggregate_gradients_bev([junk, fg[1]], [0, counts[1]],
                                   pipe.camera, scene, patch, mask)
    np.testing.assert_array_equal(skip, splats[1])

    with pytest.raises(NoVisibilityError):
        aggregate_gradients_bev([junk], [0], pipe.camera, scene, patch, mask)
    with pytest.raises(InvalidArgumentError):
        aggregate_gradients_bev(fg, counts[:1], pipe.camera, scene, patch,
                                mask)


def test_patch_gradient_is_the_documented_composition(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    cfg = scenario72.attack
    record = rollout_with_patch(scene, mask, patch,
                                scenario72.initial_state(), 2, pipe)
    pts = pipe.controller.decision_points
    manual = aggregate_gradients_bev(
        [frame_gradient(record, t, cfg, pipe, pts, patch.base_value)
         for t in range(2)],
        [tape.grays.size for tape in record.tapes], pipe.camera,
        scene, patch, mask)
    auto = patch_gradient(record, cfg, pipe, scene, patch, mask)
    np.testing.assert_array_equal(auto, manual)


def test_an_untaped_rollout_has_no_gradient(scenario72, scene72):
    # A rollout without a patch keeps no tape, so no frame of it saw the
    # patch for a gradient pass.
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    record = rollout_with_patch(scene, mask, None,
                                scenario72.initial_state(), 3, pipe)
    assert record.frames_evaluated == 3 and record.tapes == []
    with pytest.raises(NoVisibilityError):
        patch_gradient(record, scenario72.attack, pipe, scene, patch, mask)


def test_optimize_zero_iterations_scores_the_start(scenario72, scene72):
    scene, mask = scene72
    cfg = dataclasses.replace(scenario72.attack, iterations=0,
                              horizon_frames=3)
    patch0 = scenario72.initial_patch()
    result = optimize_patch(scene, mask, patch0, scenario72.initial_state(),
                            scenario72.pipeline(), cfg)
    assert result.iterations_run == 0 and result.best_iteration == 0
    assert len(result.history) == 1 and result.history[0].accepted
    assert not result.converged
    np.testing.assert_array_equal(result.patch.values, patch0.values)


def test_optimize_bookkeeping_matches_a_rescore(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    cfg = dataclasses.replace(scenario72.attack, iterations=3,
                              horizon_frames=4)
    result = optimize_patch(scene, mask, scenario72.initial_patch(),
                            scenario72.initial_state(), pipe, cfg)
    directeds = [h.breakdown.directed for h in result.history]
    assert len(result.history) == result.iterations_run + 1
    assert result.best_iteration == int(np.argmin(directeds))
    assert result.best_breakdown.directed == min(directeds)
    record = rollout_with_patch(scene, mask, result.patch,
                                scenario72.initial_state(),
                                cfg.horizon_frames, pipe)
    rescored = rollout_objective(record, cfg, pipe.controller.decision_points,
                                 result.patch.base_value)
    assert rescored.directed == pytest.approx(min(directeds), abs=1e-12)


def _count_rollouts(monkeypatch):
    """Rebind the optimizer's rollout to log the patch values it scores."""
    tried = []

    def counted(scene, mask, patch, *args, **kwargs):
        tried.append(patch.values.copy())
        return rollout(scene, mask, patch, *args, **kwargs)

    rollout = attack.rollout_with_patch
    monkeypatch.setattr(attack, "rollout_with_patch", counted)
    return tried


def test_optimize_stops_on_a_zero_gradient(scenario72, scene72, monkeypatch):
    scene, mask = scene72
    cfg = dataclasses.replace(scenario72.attack, iterations=3,
                              horizon_frames=3)
    monkeypatch.setattr(attack, "patch_gradient",
                        lambda record, cfg, pipe, scene, patch, mask:
                        np.zeros_like(patch.values))
    tried = _count_rollouts(monkeypatch)
    patch0 = scenario72.initial_patch()
    result = optimize_patch(scene, mask, patch0, scenario72.initial_state(),
                            scenario72.pipeline(), cfg)
    assert result.converged and result.iterations_run == 1
    assert len(tried) == 1
    np.testing.assert_array_equal(result.patch.values, patch0.values)
    row = result.history[1]
    assert (row.iteration, row.step_size, row.accepted) == (
        1, cfg.step_size / 2 ** (cfg.max_halvings + 1), False)
    assert result.best_iteration == 0


def test_optimize_steps_stay_clamped(scenario72, scene72, monkeypatch):
    scene, mask = scene72
    cfg = dataclasses.replace(scenario72.attack, iterations=2,
                              horizon_frames=3)
    start = scenario72.initial_patch()
    patch0 = start.with_values(np.full_like(start.values, start.v_max))
    tried = _count_rollouts(monkeypatch)
    iterates = []

    def gradient_at(record, cfg, pipe, scene, patch, mask):
        iterates.append(patch.values)
        return patch_gradient(record, cfg, pipe, scene, patch, mask)

    monkeypatch.setattr(attack, "patch_gradient", gradient_at)
    result = optimize_patch(scene, mask, patch0, scenario72.initial_state(),
                            scenario72.pipeline(), cfg)
    assert len(tried) > 1
    for values in tried + [result.patch.values]:
        assert values.min() >= patch0.v_min and values.max() <= patch0.v_max
    assert max(values.max() for values in tried[1:]) == patch0.v_max
    iterates.append(result.patch.values)
    for before, after in zip(iterates, iterates[1:]):
        assert np.max(np.abs(after - before)) <= cfg.step_size + 1e-12


def _stalling_config():
    """A short scenario whose optimizer rejects candidates and stalls."""
    return config_from_dict({
        "name": "tiny", "speed_kmh": 54.0, "duration_s": 1.0,
        "road": {"road_length": 90.0},
        "patch": {"start_x": 12.0, "width": 2.0, "length": 8.0},
        "attack": {"horizon_frames": 5, "iterations": 6, "step_size": 0.3,
                   "max_halvings": 0}})


def test_a_stalled_iteration_reuses_its_gradient(monkeypatch):
    # A stalled iteration keeps its iterate, so the next one has the
    # gradient there already; every gradient pass sees a new iterate.
    cfg = _stalling_config()
    seen = []

    def gradient_at(record, cfg, pipe, scene, patch, mask):
        seen.append(patch.values)
        return patch_gradient(record, cfg, pipe, scene, patch, mask)

    monkeypatch.setattr(attack, "patch_gradient", gradient_at)
    scene, mask = cfg.build_scene()
    result = optimize_patch(scene, mask, cfg.initial_patch(),
                            cfg.initial_state(), cfg.pipeline(), cfg.attack)
    # the budget holds an iteration after a stall
    stalls = [h.iteration for h in result.history[1:] if not h.accepted]
    assert stalls and stalls[0] < result.iterations_run
    assert len(seen) > 1
    for before, after in zip(seen, seen[1:]):
        assert not np.array_equal(before, after)


def test_optimize_is_deterministic(scenario72, scene72):
    scene, mask = scene72
    cfg = dataclasses.replace(scenario72.attack, iterations=2,
                              horizon_frames=3)

    def run():
        return optimize_patch(scene, mask, scenario72.initial_patch(),
                              scenario72.initial_state(),
                              scenario72.pipeline(), cfg)

    a, b = run(), run()
    np.testing.assert_array_equal(a.patch.values, b.patch.values)
    assert ([h.breakdown.directed for h in a.history]
            == [h.breakdown.directed for h in b.history])


@pytest.mark.parametrize("name", ["scenario72", "scenario105", "scenario126"])
def test_support_loop_matches_the_dense_loop(name, request):
    # A frame sink adds the dense warp of every frame it is handed; the
    # loop must drive exactly as it does without one.
    cfg = request.getfixturevalue(name)
    scene, mask = cfg.build_scene()
    args = (scene, mask, None, cfg.initial_state(), cfg.duration_s,
            cfg.pipeline(), cfg.goal_m)
    support = run_closed_loop(*args, frame_sink=None)
    dense = run_closed_loop(*args, frame_sink=lambda f: None)
    assert support.frames_evaluated == dense.frames_evaluated == cfg.n_frames
    assert support.states == dense.states
    assert support.steers == dense.steers


def _patched(cfg, kind, seed=17):
    patch = cfg.initial_patch()
    if kind == "random":
        rng = np.random.default_rng(seed)
        patch = patch.with_values(rng.uniform(patch.v_min, patch.v_max,
                                              patch.values.shape))
    return patch


def _sunk(cfg, scene, mask, patch, horizon):
    """A patched rollout whose frames go to a sink, and those frames."""
    frames = []
    record = rollout_with_patch(scene, mask, patch, cfg.initial_state(),
                                horizon, cfg.pipeline(),
                                frame_sink=frames.append)
    return record, frames


def _taped_from_frames(record, frames, patch, pipe):
    """``record`` with its tapes read off its whole frames: each
    detection rerun on the frame's support grays, each footprint taken
    from ``patch_footprint``."""
    assert len(frames) == len(record.tapes)
    support = support_set(pipe.detector, pipe.camera).pixels
    tapes = []
    for frame in frames:
        det = detect_lanes(frame.pixels.ravel()[support], pipe.detector,
                           pipe.camera)
        fp = patch_footprint(pipe.camera, frame.pose, patch)
        tapes.append(FrameTape(det.responses,
                               row_runs(np.flatnonzero(fp), fp.shape[1]),
                               frame.pixels[fp]))
    return dataclasses.replace(record, tapes=tapes)


@pytest.mark.parametrize("kind", ["initial", "random"])
def test_support_rollout_sees_the_patch_like_the_dense_one(kind, scenario72,
                                                           scene72):
    # A frame sink adds the dense warp of every frame and changes nothing
    # else; each whole frame reproduces what the rollout detected and saw.
    scene, mask = scene72
    pipe = scenario72.pipeline()
    cfg = scenario72.attack
    patch = _patched(scenario72, kind, seed=5)
    support = rollout_with_patch(scene, mask, patch,
                                 scenario72.initial_state(),
                                 cfg.horizon_frames, pipe)
    dense, frames = _sunk(scenario72, scene, mask, patch, cfg.horizon_frames)
    assert [f.index for f in frames] == list(range(1, len(dense.steers) + 1))
    assert support.states == dense.states and support.steers == dense.steers
    assert any(tape.pixels.size for tape in dense.tapes)
    pixels = support_set(pipe.detector, pipe.camera).pixels
    for a, b, path, frame in zip(support.tapes, dense.tapes, support.paths,
                                 frames, strict=True):
        np.testing.assert_array_equal(a.pixels, b.pixels)
        np.testing.assert_array_equal(a.grays, b.grays)
        np.testing.assert_array_equal(a.responses, b.responses)
        again = detect_lanes(frame.pixels.ravel()[pixels], pipe.detector,
                             pipe.camera)
        np.testing.assert_array_equal(again.responses, a.responses)
        np.testing.assert_array_equal(desired_path(again), path)
        np.testing.assert_array_equal(
            frame.pixels[patch_footprint(pipe.camera, frame.pose, patch)],
            a.grays)
    scores = [rollout_objective(r, cfg, pipe.controller.decision_points,
                                patch.base_value)
              for r in (support, dense)]
    assert scores[0] == scores[1]


@pytest.mark.parametrize("kind", ["initial", "random"])
@pytest.mark.parametrize("name", ["scenario72", "scenario126"])
def test_patch_gradient_is_the_same_with_and_without_frames(name, kind,
                                                            request):
    # The gradient pass from the rollout's own tapes and footprints equals
    # the one from tapes and footprints read off the sunk whole frames.
    cfg = request.getfixturevalue(name)
    scene, mask = cfg.build_scene()
    pipe = cfg.pipeline()
    patch = _patched(cfg, kind)
    support = rollout_with_patch(scene, mask, patch, cfg.initial_state(),
                                 cfg.attack.horizon_frames, pipe)
    dense = _taped_from_frames(*_sunk(cfg, scene, mask, patch,
                                      cfg.attack.horizon_frames), patch, pipe)
    got = patch_gradient(support, cfg.attack, pipe, scene, patch, mask)
    want = patch_gradient(dense, cfg.attack, pipe, scene, patch, mask)
    assert np.any(got != 0.0)
    np.testing.assert_array_equal(got, want)
    # and equals, byte for byte, the pass that stacks every frame's splat
    stacked = reference.stacked_patch_gradient(support, cfg.attack, pipe,
                                               scene, patch, mask)
    assert got.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("name", ["scenario72", "scenario105", "scenario126"])
def test_footprint_runs_expand_to_the_per_pixel_footprint(name, request):
    # A row's footprint pixels are one interval, so one run a row holds
    # them: at every pose of an initial-patch rollout, and at the corners
    # of the pose envelope, the runs expand to the per-pixel indices and
    # the grays are the per-pixel ones, read from the scene with the
    # patch's tile laid in.
    cfg = request.getfixturevalue(name)
    scene, mask = cfg.build_scene()
    pipe = cfg.pipeline()
    width = pipe.camera.image_size[0]
    patch = cfg.initial_patch()
    record = rollout_with_patch(scene, mask, patch, cfg.initial_state(),
                                cfg.attack.horizon_frames, pipe)
    whole = composite_patch(scene, patch, mask)
    x = cfg.placement.start_x - 10.0
    corners = [VehicleState(x, y, heading, 20.0)
               for y in (-MAX_LATERAL, MAX_LATERAL)
               for heading in (-MAX_HEADING, MAX_HEADING)]
    taped = list(zip(record.states, record.tapes))
    assert len(taped) == cfg.attack.horizon_frames
    for pose, tape in taped + [(pose, None) for pose in corners]:
        with overlay(scene, patch_tile(scene, patch, mask)):
            runs, grays = patch_pixels(scene, pipe.camera, pose, patch)
        pixels, want = reference.patch_pixels(whole, pipe.camera, pose, patch)
        assert pixels.size
        assert np.array_equal(run_pixels(runs), pixels)
        assert grays.tobytes() == want.tobytes()
        assert np.all(np.diff(runs[:, 0] // width) > 0)   # one run a row
        if tape is not None:
            assert np.array_equal(tape.runs, runs)
            assert np.array_equal(tape.pixels, pixels)
            assert tape.grays.tobytes() == want.tobytes()


def test_sparse_splat_matches_the_image_splat(scenario72, scene72):
    # The support and the footprint overlap; each run holds exact zeros
    # of both signs, and some shared pixels get values that cancel.
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    record = rollout_with_patch(scene, mask, patch,
                                scenario72.initial_state(), 3, pipe)
    support = support_set(pipe.detector, pipe.camera).pixels
    rng = np.random.default_rng(8)
    for tape, pose in zip(record.tapes, record.states):
        shared = np.intersect1d(support, tape.pixels)
        assert shared.size
        runs = []
        for pixels in (support, tape.pixels):
            values = rng.standard_normal(pixels.size)
            values[rng.random(pixels.size) < 0.2] = 0.0
            values[rng.random(pixels.size) < 0.1] = -0.0
            runs.append((pixels, values))
        (sp, sv), (fp, fv) = runs
        cancel = shared[::7]
        fv[np.searchsorted(fp, cancel)] = -sv[np.searchsorted(sp, cancel)]
        image = np.zeros(pipe.camera.image_size[::-1])
        for pixels, values in runs:
            image.ravel()[pixels] += values
        sparse, = splat_pixels([(pose, runs)], pipe.camera, scene, patch,
                               mask)
        assert sparse.shape == patch.values.shape
        assert np.any(sparse != 0.0)
        dense = splat_camera_to_bev(image, pipe.camera, pose, scene, patch,
                                    mask)
        assert sparse.tobytes() == dense.tobytes()


def test_frame_gradient_of_a_frameless_record(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    records = [rollout_with_patch(scene, mask, patch,
                                  scenario72.initial_state(), 2, pipe),
               _taped_from_frames(*_sunk(scenario72, scene, mask, patch, 2),
                                  patch, pipe)]
    support = support_set(pipe.detector, pipe.camera).pixels
    pts = pipe.controller.decision_points
    for t in range(2):
        fg, want = (frame_gradient(r, t, scenario72.attack, pipe, pts,
                                   patch.base_value) for r in records)
        np.testing.assert_array_equal(fg.image, want.image)
        assert fg.pose == want.pose == records[0].states[t]
        allowed = np.zeros(fg.image.size, dtype=bool)
        allowed[support] = True
        allowed[records[0].tapes[t].pixels] = True
        assert np.any(fg.image.ravel()[allowed] != 0.0)
        assert not np.any(fg.image.ravel()[~allowed])


def test_optimizer_never_renders_a_frame(scenario72, scene72, monkeypatch):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    record = rollout_with_patch(scene, mask, patch,
                                scenario72.initial_state(), 2, pipe)
    assert len(record.tapes) == 2

    def no_dense_warp(*args, **kwargs):
        raise AssertionError("the optimizer rendered a whole frame")

    monkeypatch.setattr(attack, "warp_bev_to_camera", no_dense_warp)
    cfg = dataclasses.replace(scenario72.attack, iterations=2,
                              horizon_frames=4)
    result = optimize_patch(scene, mask, patch, scenario72.initial_state(),
                            pipe, cfg)
    assert result.iterations_run == 2


_REG_TERM = """
import numpy as np
from roadpatch.attack import (AttackConfig, FrameTape, RolloutRecord,
                             rollout_objective)
rng = np.random.default_rng(3)
path = np.array([0.0, 0.01, 0.001, 0.0])
tapes = [FrameTape(responses=np.zeros((1, 1)), runs=np.array([[0, 38000]]),
                   grays=rng.uniform(0.05, 0.88, 38000))
         for _ in range(4)]
record = RolloutRecord(states=[], steers=[], paths=[path] * 4, tapes=tapes,
                       truncated=False)
bd = rollout_objective(record, AttackConfig(lambda_reg=2e-5), (9.0, 13.0),
                       0.45)
print(repr(bd.reg_term))
"""


def test_stealth_term_does_not_depend_on_blas_threads():
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _REG_TERM], env=env,
                              capture_output=True, text=True, check=True)
        out.append(float(done.stdout))
    assert out[0] == out[1]


def _traced_peak(run):
    """``run()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_patched_runs_never_copy_the_scene(scenario72, scene72):
    # The patch is a small tile laid over the shared scene; a scene-sized
    # copy would put the traced peak above half the scene's size.
    scene, mask = scene72
    patch, state0 = scenario72.initial_patch(), scenario72.initial_state()
    pipe = scenario72.pipeline()
    record, rollout_peak = _traced_peak(
        lambda: rollout_with_patch(scene, mask, patch, state0, 5, pipe))
    result, loop_peak = _traced_peak(
        lambda: run_closed_loop(scene, mask, patch, state0, 0.5, pipe,
                                scenario72.goal_m))
    assert all(tape.pixels.size for tape in record.tapes)
    assert result.patch_entry_frame == 1
    assert max(rollout_peak, loop_peak) < scene.pixels.nbytes / 2


def test_a_gradient_pass_holds_one_frame_at_a_time(scenario72, scene72):
    # The pass streams its frames through the splat.  On this full-horizon
    # highway-72 rollout of a random in-bounds patch it traced 17.5 MB at
    # its peak, and the stacked reference pass, which builds every frame's
    # pixel gradient and splat first, 53.6 MB (numpy 2.4.6, Python 3.11.7).
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = _patched(scenario72, "random")
    record = rollout_with_patch(scene, mask, patch,
                                scenario72.initial_state(),
                                scenario72.attack.horizon_frames, pipe)
    args = (record, scenario72.attack, pipe, scene, patch, mask)
    got, peak = _traced_peak(lambda: patch_gradient(*args))
    want, stacked = _traced_peak(
        lambda: reference.stacked_patch_gradient(*args))
    assert got.tobytes() == want.tobytes()
    assert peak < 28e6 < stacked, (peak, stacked)


def test_the_optimizer_holds_at_most_one_candidate(monkeypatch):
    # While a candidate rolls out, the current record is the only earlier
    # one alive: a rejected candidate's tapes are gone before the next.
    cfg = _stalling_config()
    alive, records = [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in records))
        record = rollout(*args, **kwargs)
        records.append(weakref.ref(record))
        return record

    rollout = attack.rollout_with_patch
    monkeypatch.setattr(attack, "rollout_with_patch", tracked)
    scene, mask = cfg.build_scene()
    result = optimize_patch(scene, mask, cfg.initial_patch(),
                            cfg.initial_state(), cfg.pipeline(), cfg.attack)
    accepted = sum(h.accepted for h in result.history[1:])
    assert len(records) - 1 > accepted > 0       # some candidates rejected
    assert alive[0] == 0 and max(alive) == 1
