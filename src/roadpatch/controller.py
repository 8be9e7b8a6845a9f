"""Pure-pursuit lateral control on the detected path.

The steering command chases the desired path at a fixed lookahead:
``steer = atan(2 L p(la) / la^2)``, the circular-arc pursuit law for a
target ``la`` meters ahead offset laterally by ``p(la)``.  A path to the
left (positive offset) yields a positive (left) steering angle.  A path
is a ``detector.desired_path``; ``PipelineConfig`` keeps every distance
asked of it inside the detector's band range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import InvalidArgumentError
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


def path_derivatives(path: np.ndarray, points) -> np.ndarray:
    """Slope of the desired path at each decision-point distance."""
    return P.polyval(np.asarray(points, dtype=float), P.polyder(path))


def steer_from_path(path: np.ndarray, cfg: ControllerConfig,
                    params: VehicleParams) -> float:
    """Pure-pursuit steering toward the path, clamped to the actuator limit."""
    offset = float(P.polyval(cfg.lookahead, path))
    raw = cfg.steer_gain * math.atan(
        2.0 * params.wheelbase * offset / (cfg.lookahead ** 2))
    return clamp_steer(raw, params.max_steer)
