"""Pure-pursuit lateral control on the detected path.

The steering command chases the desired path at a fixed lookahead:
``steer = atan(2 L p(la) / la^2)``, the circular-arc pursuit law for a
target ``la`` meters ahead offset laterally by ``p(la)``.  A path to the
left (positive offset) yields a positive (left) steering angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DesiredPath
from .errors import InvalidArgumentError, OutOfRangeError
from .motion import VehicleParams, clamp_steer


@dataclass(frozen=True)
class ControllerConfig:
    decision_points: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0)
    lookahead: float = 15.0
    steer_gain: float = 1.0

    def __post_init__(self):
        if not self.decision_points:
            raise InvalidArgumentError("decision_points must be non-empty")
        pts = self.decision_points
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InvalidArgumentError("decision_points must be strictly increasing")
        if self.lookahead <= 0.0:
            raise InvalidArgumentError("lookahead must be positive")
        if self.steer_gain <= 0.0:
            raise InvalidArgumentError("steer_gain must be positive")


def path_derivatives(path: DesiredPath, points) -> np.ndarray:
    """Slope of the desired path at each decision-point distance."""
    pts = np.asarray(points, dtype=float)
    lo, hi = path.valid_range
    if np.any(pts < lo) or np.any(pts > hi):
        raise OutOfRangeError(
            f"decision points must lie within the trusted range [{lo}, {hi}] m")
    deriv = np.polynomial.polynomial.polyder(np.asarray(path.coeffs))
    return np.polynomial.polynomial.polyval(pts, deriv)


def steer_from_path(path: DesiredPath, cfg: ControllerConfig,
                    params: VehicleParams) -> float:
    """Pure-pursuit steering toward the path, clamped to the actuator limit."""
    lo, hi = path.valid_range
    if not lo <= cfg.lookahead <= hi:
        raise OutOfRangeError(
            f"lookahead {cfg.lookahead} m outside the trusted range [{lo}, {hi}] m")
    offset = path.value(cfg.lookahead)
    raw = cfg.steer_gain * math.atan(
        2.0 * params.wheelbase * offset / (cfg.lookahead ** 2))
    return clamp_steer(raw, params.max_steer)
