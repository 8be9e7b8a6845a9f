"""Closed-loop evaluation: run the full stack for a fixed duration and
measure how far the vehicle was pushed off the lane center.

The headline number is the time from the patch first entering the model
input until the lateral deviation first reaches the goal, interpolated
linearly between the bracketing control steps.  Runs without a patch
(or where the goal is never reached) simply report no crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import PipelineConfig, rollout_with_patch
from .camera import CameraConfig, model_input_sees
from .errors import InvalidArgumentError
from .motion import VehicleState
from .scene import BevImage, PatchState, overlay


@dataclass
class SimResult:
    states: list[VehicleState]
    steers: list[float]
    dt: float
    max_lateral_deviation: float
    patch_entry_frame: int | None   # 1-based frame index, as rolled out
    attack_time: float | None       # seconds from patch entry to goal crossing
    truncated: bool
    frames_evaluated: int

    @property
    def succeeded(self) -> bool:
        return self.attack_time is not None


def patch_entry_frame(camera: CameraConfig, states: list[VehicleState],
                      rect) -> int | None:
    """First frame (1-based) whose model input sees a ground point inside
    ``rect``.  Frame t was seen from ``states[t - 1]``; the last state of
    a rollout was never seen."""
    for t, pose in enumerate(states[:-1], start=1):
        if model_input_sees(camera, pose, rect):
            return t
    return None


def attack_success_time(lateral: np.ndarray, dt: float, goal: float,
                        entry_frame: int | None) -> float | None:
    """Seconds from patch entry until ``|y|`` first reaches ``goal``.

    ``lateral`` holds per-state absolute deviations (state 0 first); the
    crossing instant is interpolated between the two bracketing states.
    Entry frame k sees the world at state k-1, so the clock starts at
    state index ``entry_frame - 1``.
    """
    if dt <= 0.0:
        raise InvalidArgumentError("dt must be positive")
    if goal < 0.0:
        raise InvalidArgumentError("goal must be >= 0")
    if entry_frame is None:
        return None
    lateral = np.asarray(lateral, dtype=float)
    start = entry_frame - 1
    if start >= lateral.size:
        return None
    for i in range(start, lateral.size):
        if lateral[i] >= goal:
            if i == start:
                return 0.0
            prev, cur = lateral[i - 1], lateral[i]
            frac = 1.0 if cur == prev else (goal - prev) / (cur - prev)
            return ((i - 1) + frac - start) * dt
    return None


def run_closed_loop(scene: BevImage, line_mask: np.ndarray,
                    patch: PatchState | None, state0: VehicleState,
                    duration_s: float, pipe: PipelineConfig, goal: float, *,
                    frame_sink=None) -> SimResult:
    """Drive for ``duration_s`` seconds and score the excursion.

    The patch's small tile of composited grays is written into the
    scene's grays once, here, for the run's length, and taken out again
    when it ends, however it ends (:func:`~roadpatch.scene.overlay`; the
    scene is not copied).  The rollout runs on that scene without a
    patch, so it keeps no gradient tape.  The patch's entry frame is
    found afterwards from the recorded poses.  With a ``frame_sink``,
    every column of the scene is drawn before the first frame, once,
    since each whole frame reads them all; the tile is laid first and
    laid again over the drawn columns.  A detection failure mid-run
    truncates the rollout; everything driven up to that point is still
    scored (a runaway that blinds the detector has usually already
    crossed the goal).
    """
    if duration_s <= 0.0:
        raise InvalidArgumentError("duration_s must be positive")
    horizon = int(round(duration_s / pipe.vehicle.dt))
    with overlay(scene, patch, line_mask):
        if frame_sink is not None:
            scene.columns(0, scene.shape[1])   # whole frames read every column
        record = rollout_with_patch(scene, line_mask, None, state0, horizon,
                                    pipe, frame_sink=frame_sink)
    lateral = np.array([abs(s.y) for s in record.states])
    entry = (None if patch is None else
             patch_entry_frame(pipe.camera, record.states,
                               patch.placement.rect))
    return SimResult(states=record.states, steers=record.steers,
                     dt=pipe.vehicle.dt,
                     max_lateral_deviation=float(lateral.max()),
                     patch_entry_frame=entry,
                     attack_time=attack_success_time(lateral, pipe.vehicle.dt,
                                                     goal, entry),
                     truncated=record.truncated,
                     frames_evaluated=record.frames_evaluated)
