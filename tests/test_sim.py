"""Closed-loop scoring: entry detection, crossing-time interpolation."""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from roadpatch import attack, sim
from roadpatch.camera import CameraConfig, pixel_ground_points
from roadpatch.errors import InvalidArgumentError
from roadpatch.motion import VehicleState
from roadpatch.sim import attack_success_time, patch_entry_frame, run_closed_loop

from reference import rect_slices

CAM = CameraConfig()
RECT = (60.0, 96.0, -1.2, 1.2)          # the default scenario's patch


def _model_input_hits(pose, rect):
    """Per-pixel rule: which model-input pixels see a ground point in rect."""
    gx, gy, front = pixel_ground_points(CAM, pose)
    x_lo, x_hi, y_lo, y_hi = rect
    hit = front & (gx >= x_lo) & (gx <= x_hi) & (gy >= y_lo) & (gy <= y_hi)
    return hit[rect_slices(CAM)]


def test_patch_entry_frame_is_first_rect_hit():
    # Approach the patch in 0.5 m steps; frame t is seen from state t-1.
    for y, heading in ((0.0, 0.0), (0.6, 0.05), (-1.5, -0.12), (2.5, 0.2)):
        states = [VehicleState(float(x), y, heading, 20.0)
                  for x in np.arange(-12.0, 12.0, 0.5)]
        hits = [_model_input_hits(pose, RECT) for pose in states[:-1]]
        seen = [t for t, h in enumerate(hits, start=1) if h.any()]
        assert seen and seen[0] > 1
        assert patch_entry_frame(CAM, states, RECT) == seen[0]
        # the patch enters the model input across its top row
        first = hits[seen[0] - 1]
        assert first[0].any() and not first[1:].any()
        # the last state is never seen
        assert patch_entry_frame(CAM, states[:seen[0]], RECT) is None
    # a rect behind the camera never enters
    assert patch_entry_frame(CAM, states, (-60.0, -40.0, -1.2, 1.2)) is None


def test_patched_closed_loop_keeps_no_tape(scenario72, scene72, monkeypatch):
    # The loop composites its own patch and rolls out without one: no
    # tape, and no footprint is ever sampled.
    scene, mask = scene72
    records = []

    def kept(*args, **kwargs):
        records.append(rollout(*args, **kwargs))
        return records[-1]

    def no_footprint(*args, **kwargs):
        raise AssertionError("the closed loop sampled the patch footprint")

    rollout = sim.rollout_with_patch
    monkeypatch.setattr(sim, "rollout_with_patch", kept)
    monkeypatch.setattr(attack, "patch_pixels", no_footprint)
    result = run_closed_loop(scene, mask, scenario72.initial_patch(),
                             scenario72.initial_state(), 1.0,
                             scenario72.pipeline(), scenario72.goal_m)
    record, = records
    assert result.patch_entry_frame is not None
    assert record.frames_evaluated == result.frames_evaluated == 20
    assert record.tapes == []


def test_success_time_interpolates_between_states():
    t = attack_success_time(np.array([0.0, 0.2, 0.8]), 0.05, 0.745, 1)
    assert t == pytest.approx((1.0 + (0.745 - 0.2) / 0.6) * 0.05, rel=1e-12)


def test_success_time_zero_when_entering_already_off_course():
    assert attack_success_time(np.array([0.8, 0.9]), 0.05, 0.745, 1) == 0.0


def test_success_time_none_cases():
    lateral = np.array([0.0, 0.1, 0.2])
    assert attack_success_time(lateral, 0.05, 0.745, None) is None
    assert attack_success_time(lateral, 0.05, 0.745, 1) is None
    assert attack_success_time(lateral, 0.05, 0.745, 5) is None


def test_success_time_exact_touch():
    t = attack_success_time(np.array([0.0, 0.8, 0.8]), 0.05, 0.8, 1)
    assert t == pytest.approx(0.05, rel=1e-12)


def test_success_time_validation():
    lateral = np.array([0.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        attack_success_time(lateral, 0.0, 0.745, 1)
    with pytest.raises(InvalidArgumentError):
        attack_success_time(lateral, 0.05, -0.1, 1)


def test_benign_half_second_run(scenario72, scene72):
    scene, mask = scene72
    result = run_closed_loop(scene, mask, None, scenario72.initial_state(),
                             0.5, scenario72.pipeline(), scenario72.goal_m)
    assert result.frames_evaluated == 10
    assert len(result.steers) == 10 and not result.truncated
    assert len(result.states) == 11
    assert result.patch_entry_frame is None
    assert result.attack_time is None and not result.succeeded
    assert result.max_lateral_deviation < 0.01


def test_duration_must_be_positive(scenario72, scene72):
    scene, mask = scene72
    with pytest.raises(InvalidArgumentError):
        run_closed_loop(scene, mask, None, scenario72.initial_state(),
                        0.0, scenario72.pipeline(), scenario72.goal_m)


def test_identity_patch_run_matches_the_bare_road(scenario72, scene72):
    scene, mask = scene72
    pipe = scenario72.pipeline()
    state0 = scenario72.initial_state()
    bare = run_closed_loop(scene, mask, None, state0, 1.0, pipe,
                           scenario72.goal_m)
    ghost = run_closed_loop(scene, mask, scenario72.identity_patch(), state0,
                            1.0, pipe, scenario72.goal_m)
    # the patch is seen (it enters the crop) but must change nothing
    assert ghost.patch_entry_frame is not None
    assert ghost.attack_time is None
    assert ghost.states == bare.states
    assert ghost.steers == bare.steers


_STEADY_FAULTS = """
import resource
from roadpatch.config import load_config, resolve_scenario
from roadpatch.sim import run_closed_loop
cfg = load_config(resolve_scenario("highway-72"))
scene, mask = cfg.build_scene()
pipe, state0 = cfg.pipeline(), cfg.initial_state()
def run():
    return run_closed_loop(scene, mask, None, state0, cfg.duration_s, pipe,
                           cfg.goal_m).frames_evaluated
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
frames = sum(run() for _ in range(3))
print(frames, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault count depends on glibc malloc")
def test_steady_benign_frames_take_no_page_faults():
    # Once a run has drawn its columns, a frame's temporaries must come
    # from the heap glibc malloc keeps.  Its mmap and trim thresholds
    # grow when a large block is freed, as the setup's temporaries are;
    # left at their defaults, every frame maps and unmaps its arrays (a
    # prototype measured about 99 minor faults a frame, and half the
    # speed).  Steady frames take about 0.03 each.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _STEADY_FAULTS], env=env,
                          capture_output=True, text=True, check=True)
    frames, faults = map(int, done.stdout.split())
    assert frames == 600
    assert faults < frames, f"{faults} minor page faults in {frames} frames"
