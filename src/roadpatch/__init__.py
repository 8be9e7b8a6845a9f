"""roadpatch: a desk-scale workbench for dirty-road-patch attacks on
camera-based lane keeping.

The package closes the loop synthetic road scene -> pinhole camera ->
lane detector -> pure-pursuit controller -> bicycle plant, and optimizes
the gray levels of a painted road patch so the loop steers itself out of
the lane.  Every differentiable stage ships with its exact adjoint, so
the patch gradient is analytic end to end within a frame.
"""

from .attack import (
    AttackConfig,
    ObjectiveBreakdown,
    OptimizeResult,
    PipelineConfig,
    RolloutRecord,
    rollout_objective,
    optimize_patch,
    rollout_with_patch,
)
from .camera import CameraConfig, Frame, ground_to_image, warp_bev_to_camera
from .config import ScenarioConfig, config_from_dict, load_config
from .controller import ControllerConfig, steer_from_path
from .detector import (
    DesiredPath,
    DetectorConfig,
    LaneDetection,
    desired_path,
    detect_lanes,
)
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DetectionFailedError,
    IncompleteModelInputError,
    InvalidArgumentError,
    NoVisibilityError,
    RoadPatchError,
)
from .motion import VehicleParams, VehicleState, step
from .scene import (
    BevImage,
    PatchPlacement,
    PatchState,
    RoadSpec,
    composite_patch,
    identity_patch,
    lane_line_mask,
    render_road_bev,
    uniform_patch,
)
from .sim import SimResult, attack_success_time, run_closed_loop

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "BevImage",
    "CameraConfig",
    "ConfigError",
    "ConstraintViolationError",
    "ControllerConfig",
    "DesiredPath",
    "DetectionFailedError",
    "DetectorConfig",
    "Frame",
    "IncompleteModelInputError",
    "InvalidArgumentError",
    "LaneDetection",
    "NoVisibilityError",
    "ObjectiveBreakdown",
    "OptimizeResult",
    "PatchPlacement",
    "PatchState",
    "PipelineConfig",
    "RoadPatchError",
    "RoadSpec",
    "RolloutRecord",
    "ScenarioConfig",
    "SimResult",
    "VehicleParams",
    "VehicleState",
    "attack_success_time",
    "composite_patch",
    "config_from_dict",
    "desired_path",
    "detect_lanes",
    "ground_to_image",
    "identity_patch",
    "lane_line_mask",
    "load_config",
    "rollout_objective",
    "optimize_patch",
    "render_road_bev",
    "rollout_with_patch",
    "run_closed_loop",
    "step",
    "steer_from_path",
    "uniform_patch",
    "warp_bev_to_camera",
]
