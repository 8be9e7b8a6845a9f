"""Kinematic bicycle model integrated with forward Euler.

State is the road-frame pose of the vehicle reference point plus its
(constant) speed.  Heading 0 points down the lane; positive steering
turns left.  The model deliberately has no tire or actuator dynamics:
it is the plant the lane-keeping loop and the attack optimizer share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.remainder(a, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    heading: float
    speed: float

    def __post_init__(self):
        if self.speed < 0.0:
            raise InvalidArgumentError("speed must be >= 0")
        object.__setattr__(self, "heading", _wrap_angle(self.heading))


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float = 2.7
    dt: float = 0.05
    max_steer: float = 0.45

    def __post_init__(self):
        if self.wheelbase <= 0.0:
            raise InvalidArgumentError("wheelbase must be positive")
        if self.dt <= 0.0:
            raise InvalidArgumentError("dt must be positive")
        if not 0.0 < self.max_steer < 0.5 * math.pi:
            raise InvalidArgumentError("max_steer must be in (0, pi/2)")


def clamp_steer(steer: float, limit: float) -> float:
    """Clamp a steering command to ``[-limit, limit]``."""
    return min(max(steer, -limit), limit)


def step(state: VehicleState, steer: float, params: VehicleParams) -> VehicleState:
    """One Euler step of the bicycle model at fixed speed.

    x' = x + v cos(h) dt,  y' = y + v sin(h) dt,
    h' = h + (v / wheelbase) tan(steer) dt.
    Steering beyond ``params.max_steer`` is clamped to it
    (:func:`clamp_steer`).
    """
    if not math.isfinite(steer):
        raise InvalidArgumentError("steer must be finite")
    delta = clamp_steer(steer, params.max_steer)
    v, h, dt = state.speed, state.heading, params.dt
    return VehicleState(
        x=state.x + v * math.cos(h) * dt,
        y=state.y + v * math.sin(h) * dt,
        heading=h + (v / params.wheelbase) * math.tan(delta) * dt,
        speed=v,
    )
