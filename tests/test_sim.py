"""Closed-loop scoring: entry detection, crossing-time interpolation."""

import numpy as np
import pytest

from roadpatch.attack import PatchProjection, RolloutRecord
from roadpatch.errors import InvalidArgumentError
from roadpatch.sim import attack_success_time, patch_entry_frame, run_closed_loop


def _record(rect_counts):
    projs = [PatchProjection(rect_count=rc, pixel_values=np.zeros(rc))
             for rc in rect_counts]
    return RolloutRecord(states=[], steers=[], detections=[], paths=[],
                         projections=projs, truncated=False)


def test_patch_entry_frame_is_first_rect_hit():
    assert patch_entry_frame(_record([0, 0, 7, 9])) == 3
    assert patch_entry_frame(_record([0, 0, 0])) is None


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
