"""Rollout recording, the bending objective, gradients, and the optimizer."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from roadpatch import attack
from roadpatch.attack import (
    AttackConfig,
    FrameGradient,
    PatchProjection,
    PipelineConfig,
    aggregate_gradients_bev,
    frame_gradient,
    rollout_objective,
    optimize_patch,
    patch_gradient,
    project_patch,
    rollout_with_patch,
)
from roadpatch.camera import splat_camera_to_bev, splat_pixels
from roadpatch.detector import DesiredPath, support_set
from roadpatch.errors import InvalidArgumentError, NoVisibilityError
from roadpatch.motion import VehicleState
from roadpatch.sim import run_closed_loop

BASE = 0.45


def _proj(n_pixels, value, index=1):
    return PatchProjection(index=index, count=n_pixels, rect_count=n_pixels,
                           pixel_values=np.full(n_pixels, float(value)),
                           pose=VehicleState(0.0, 0.0, 0.0, 20.0))


def _quad_path():
    # p(d) = 0.01 d^2, so p'(10) = 0.2
    return DesiredPath(coeffs=(0.0, 0.0, 0.01, 0.0), valid_range=(6.0, 50.0))


def test_objective_worked_example():
    bd = rollout_objective([_quad_path()], [_proj(100, BASE + 1.0)], 1e-4,
                       (10.0,), "right", BASE)
    assert bd.path_term == pytest.approx(0.2, rel=1e-12)
    assert bd.reg_term == pytest.approx(100.0, rel=1e-12)
    assert bd.total == pytest.approx(0.21, rel=1e-12)
    assert bd.directed == pytest.approx(0.21, rel=1e-12)
    left = dataclasses.replace(bd, direction="left")
    assert left.directed == pytest.approx(-0.19, rel=1e-12)
    np.testing.assert_allclose(bd.per_frame_path, [0.2])
    np.testing.assert_allclose(bd.per_frame_reg, [100.0])


def test_objective_sums_over_frames_and_points():
    bd = rollout_objective([_quad_path(), _quad_path()],
                       [_proj(10, BASE + 0.5), _proj(0, 0.0)],
                       0.0, (10.0, 20.0), "right", BASE)
    assert bd.path_term == pytest.approx(0.2 + 0.4 + 0.2 + 0.4, rel=1e-12)
    assert bd.reg_term == pytest.approx(10 * 0.25, rel=1e-12)
    assert bd.per_frame_reg[1] == 0.0
    with pytest.raises(InvalidArgumentError):
        rollout_objective([_quad_path()], [], 0.0, (10.0,), "right", BASE)


def test_project_patch_moves_clamp_and_scale():
    new, moved = project_patch(np.array([[0.9]]), np.array([[-1.0]]),
                               0.05, (0.05, 0.60))
    assert moved and new[0, 0] == 0.60
    new, _ = project_patch(np.array([[0.06]]), np.array([[1.0]]),
                           0.05, (0.05, 0.60))
    assert new[0, 0] == 0.05
    vals = np.array([[0.3, 0.3, 0.3]])
    new, moved = project_patch(vals, np.array([[4.0, -2.0, 0.0]]),
                               0.05, (0.05, 0.60))
    np.testing.assert_allclose(new - vals, [[-0.05, 0.025, 0.0]], atol=1e-15)
    assert np.max(np.abs(new - vals)) <= 0.05 + 1e-15


def test_project_patch_zero_gradient_is_a_noop():
    vals = np.full((2, 2), 0.3)
    new, moved = project_patch(vals, np.zeros((2, 2)), 0.05, (0.05, 0.60))
    assert not moved
    assert new is not vals and np.array_equal(new, vals)


def test_project_patch_validation():
    vals = np.zeros((2, 2)) + 0.3
    with pytest.raises(InvalidArgumentError):
        project_patch(vals, np.zeros((2, 2)), 0.0, (0.05, 0.60))
    with pytest.raises(InvalidArgumentError):
        project_patch(vals, np.zeros((2, 2)), 0.05, (0.60, 0.60))
    with pytest.raises(InvalidArgumentError):
        project_patch(vals, np.zeros((3, 2)), 0.05, (0.05, 0.60))


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
    assert record.frames is None and not record.truncated
    assert all(p.count == 0 and p.rect_count == 0 for p in record.projections)
    assert all(d.tape is None for d in record.detections)
    assert record.max_lateral_deviation() < 0.01
    with pytest.raises(InvalidArgumentError):
        rollout_with_patch(scene, mask, None, scenario72.initial_state(),
                           0, scenario72.pipeline())


def test_rollout_records_frames_and_sinks(scenario72, scene72):
    scene, mask = scene72
    seen = []
    record = rollout_with_patch(scene, mask, scenario72.initial_patch(),
                                scenario72.initial_state(), 3,
                                scenario72.pipeline(), keep_frames=True,
                                frame_sink=lambda f: seen.append(f.index))
    assert seen == [1, 2, 3]
    assert len(record.frames) == 3
    assert record.projections[0].count > 0
    assert record.projections[0].mask is not None
    assert record.projections[0].index == 1
    assert record.detections[0].tape is not None


def test_benign_rollout_barely_bends_the_path(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    record = rollout_with_patch(scene, mask, None, scenario72.initial_state(),
                                5, pipe)
    bd = rollout_objective(record.paths, record.projections, 0.0,
                       pipe.controller.decision_points, "right", BASE)
    bound = 2e-3 * 5 * len(pipe.controller.decision_points)
    assert abs(bd.path_term) < bound
    assert bd.reg_term == 0.0


def test_frame_gradient_guards(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    cfg = scenario72.attack
    # A frame sink without keep_frames drops every detector tape, and a
    # rollout without a patch keeps none either.
    untaped = [rollout_with_patch(scene, mask, patch,
                                  scenario72.initial_state(), 1, pipe,
                                  frame_sink=sink)
               for patch, sink in ((scenario72.initial_patch(),
                                    lambda f: None), (None, None))]
    for blind in untaped:
        with pytest.raises(InvalidArgumentError):
            frame_gradient(blind, 0, cfg, pipe,
                           pipe.controller.decision_points, BASE)
    record = rollout_with_patch(scene, mask, scenario72.initial_patch(),
                                scenario72.initial_state(), 1, pipe,
                                keep_frames=True)
    for t in (-1, 1):
        with pytest.raises(InvalidArgumentError):
            frame_gradient(record, t, cfg, pipe,
                           pipe.controller.decision_points, BASE)


def test_frame_gradient_support(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    record = rollout_with_patch(scene, mask, scenario72.initial_patch(),
                                scenario72.initial_state(), 1, pipe,
                                keep_frames=True)
    fg = frame_gradient(record, 0, scenario72.attack, pipe,
                        pipe.controller.decision_points, BASE)
    assert fg.index == 0 and fg.pose == record.states[0]
    nonzero = fg.image != 0.0
    assert nonzero.any()
    allowed = record.projections[0].mask.copy()
    rs, cs = pipe.camera.rect_slices
    allowed[rs, cs] = True
    assert not np.any(nonzero & ~allowed)


def test_aggregate_is_the_mean_over_frames_that_saw_the_patch(scenario72,
                                                              scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    record = rollout_with_patch(scene, mask, patch,
                                scenario72.initial_state(), 2, pipe,
                                keep_frames=True)
    pts = pipe.controller.decision_points
    fg = [frame_gradient(record, t, scenario72.attack, pipe, pts, BASE)
          for t in range(2)]
    counts = [p.count for p in record.projections]
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
                                scenario72.initial_state(), 2, pipe,
                                keep_frames=True)
    pts = pipe.controller.decision_points
    manual = aggregate_gradients_bev(
        [frame_gradient(record, t, cfg, pipe, pts, patch.base_value)
         for t in range(2)],
        [p.count for p in record.projections], pipe.camera, scene, patch,
        mask)
    auto = patch_gradient(record, cfg, pipe, scene, patch, mask)
    np.testing.assert_array_equal(auto, manual)


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
    rescored = rollout_objective(record.paths, record.projections, cfg.lambda_reg,
                             pipe.controller.decision_points, cfg.direction,
                             result.patch.base_value)
    assert rescored.directed == pytest.approx(min(directeds), abs=1e-12)


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
    # Without a frame sink the loop renders only the detector's pixel
    # support; a sink forces the dense warp.  Both must drive identically.
    cfg = request.getfixturevalue(name)
    scene, mask = cfg.build_scene()
    args = (scene, mask, None, cfg.initial_state(), cfg.duration_s,
            cfg.pipeline(), cfg.goal_m)
    support = run_closed_loop(*args, frame_sink=None)
    dense = run_closed_loop(*args, frame_sink=lambda f: None)
    assert support.frames_evaluated == dense.frames_evaluated == cfg.n_frames
    assert support.states == dense.states
    assert support.steers == dense.steers


@pytest.mark.parametrize("kind", ["initial", "random"])
def test_support_rollout_sees_the_patch_like_the_dense_one(kind, scenario72,
                                                           scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    cfg = scenario72.attack
    patch = scenario72.initial_patch()
    if kind == "random":
        rng = np.random.default_rng(5)
        patch = patch.with_values(rng.uniform(patch.v_min, patch.v_max,
                                              patch.values.shape))
    records = [rollout_with_patch(scene, mask, patch,
                                  scenario72.initial_state(),
                                  cfg.horizon_frames, pipe, keep_frames=keep)
               for keep in (False, True)]
    support, dense = records
    assert support.frames is None and dense.frames is not None
    assert support.states == dense.states and support.steers == dense.steers
    assert any(p.rect_count for p in dense.projections)
    for a, b in zip(support.projections, dense.projections, strict=True):
        assert (a.index, a.count, a.rect_count) == (b.index, b.count,
                                                    b.rect_count)
        np.testing.assert_array_equal(a.pixel_values, b.pixel_values)
    scores = [rollout_objective(r.paths, r.projections, cfg.lambda_reg,
                                pipe.controller.decision_points,
                                cfg.direction, patch.base_value)
              for r in records]
    assert scores[0].path_term == scores[1].path_term
    assert scores[0].reg_term == scores[1].reg_term
    np.testing.assert_array_equal(scores[0].per_frame_path,
                                  scores[1].per_frame_path)
    np.testing.assert_array_equal(scores[0].per_frame_reg,
                                  scores[1].per_frame_reg)


def _patched(cfg, kind):
    patch = cfg.initial_patch()
    if kind == "random":
        rng = np.random.default_rng(17)
        patch = patch.with_values(rng.uniform(patch.v_min, patch.v_max,
                                              patch.values.shape))
    return patch


@pytest.mark.parametrize("kind", ["initial", "random"])
@pytest.mark.parametrize("name", ["scenario72", "scenario126"])
def test_patch_gradient_is_the_same_with_and_without_frames(name, kind,
                                                            request):
    cfg = request.getfixturevalue(name)
    scene, mask = cfg.build_scene()
    pipe = cfg.pipeline()
    patch = _patched(cfg, kind)
    support, dense = (rollout_with_patch(scene, mask, patch,
                                         cfg.initial_state(),
                                         cfg.attack.horizon_frames, pipe,
                                         keep_frames=keep)
                      for keep in (False, True))
    assert support.frames is None and dense.frames is not None
    got = patch_gradient(support, cfg.attack, pipe, scene, patch, mask)
    want = patch_gradient(dense, cfg.attack, pipe, scene, patch, mask)
    assert np.any(got != 0.0)
    np.testing.assert_array_equal(got, want)


def test_sparse_splat_matches_the_image_splat(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    record = rollout_with_patch(scene, mask, patch,
                                scenario72.initial_state(), 3, pipe)
    rng = np.random.default_rng(8)
    for proj in record.projections:
        assert proj.count
        pixels = np.union1d(support_set(pipe.detector, pipe.camera).pixels,
                            proj.pixels)
        values = rng.standard_normal(pixels.size)
        image = np.zeros(pipe.camera.image_size[::-1])
        image.ravel()[pixels] = values
        sparse = splat_pixels([(proj.pose, pixels, values)], pipe.camera,
                              scene, patch, mask)
        assert sparse.shape == (1,) + patch.values.shape
        np.testing.assert_array_equal(
            sparse[0], splat_camera_to_bev(image, pipe.camera, proj.pose,
                                           scene, patch, mask))


def test_frame_gradient_of_a_frameless_record(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    records = [rollout_with_patch(scene, mask, patch,
                                  scenario72.initial_state(), 2, pipe,
                                  keep_frames=keep) for keep in (False, True)]
    support = support_set(pipe.detector, pipe.camera).pixels
    pts = pipe.controller.decision_points
    for t in range(2):
        fg, want = (frame_gradient(r, t, scenario72.attack, pipe, pts,
                                   patch.base_value) for r in records)
        np.testing.assert_array_equal(fg.image, want.image)
        assert fg.pose == want.pose == records[0].states[t]
        allowed = np.zeros(fg.image.size, dtype=bool)
        allowed[support] = True
        allowed[records[0].projections[t].pixels] = True
        assert np.any(fg.image.ravel()[allowed] != 0.0)
        assert not np.any(fg.image.ravel()[~allowed])


def test_optimizer_never_renders_a_frame(scenario72, scene72, monkeypatch):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    patch = scenario72.initial_patch()
    record = rollout_with_patch(scene, mask, patch,
                                scenario72.initial_state(), 2, pipe)
    assert record.frames is None
    assert all(d.tape is not None and d.tape.frame is None
               for d in record.detections)

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
from roadpatch.attack import PatchProjection, rollout_objective
from roadpatch.detector import DesiredPath
from roadpatch.motion import VehicleState
rng = np.random.default_rng(3)
path = DesiredPath(coeffs=(0.0, 0.01, 0.001, 0.0), valid_range=(6.0, 50.0))
projs = [PatchProjection(index=k, count=38000, rect_count=38000,
                         pixel_values=rng.uniform(0.05, 0.88, 38000),
                         pose=VehicleState(0.0, 0.0, 0.0, 20.0))
         for k in range(4)]
bd = rollout_objective([path] * 4, projs, 2e-5, (9.0, 13.0), "right", 0.45)
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
