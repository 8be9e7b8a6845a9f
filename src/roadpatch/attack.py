"""Closed-loop rollouts, the multi-frame bending objective, and the
projected-gradient patch optimizer.

The attack objective scores a whole rollout: the sum over frames and
decision points of the desired-path slope, plus a weighted penalty on
how far the patch's visible pixels stray from a neutral gray.  Steering
right means making the path bend right, so the optimizer always
minimizes ``direction_sign * path_term + lambda * reg_term`` with
``direction_sign`` +1 for a rightward attack and -1 for leftward.

Per-frame pixel gradients treat the vehicle states of the recorded
rollout as fixed (no differentiation through the controller or plant);
closing the loop again after each update is what feeds the state
dependence back in.

Every candidate patch is rolled out on the shared scene with a small
tile of composited grays written into it for the rollout's length; no
rollout copies the scene.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .camera import (
    CameraConfig,
    patch_footprint,  # unused here; bench/spans.py rebinds it in this module
    patch_pixels,
    run_pixels,
    splat_camera_to_bev,  # unused here; bench/spans.py rebinds it in this module
    splat_pixels,
    warp_bev_to_camera,
    warp_bev_to_points,
)
from .controller import ControllerConfig, path_derivatives, steer_from_path
from .detector import (
    DetectorConfig,
    desired_path,
    detect_lanes,
    detector_gradient,  # unused here; bench/spans.py rebinds it in this module
    support_gradient,
    support_set,
)
from .errors import (
    ConfigError,
    DetectionFailedError,
    InvalidArgumentError,
    NoVisibilityError,
)
from .motion import VehicleParams, VehicleState, step
from .scene import (
    BevImage,
    PatchState,
    composite_patch,  # unused here; bench/spans.py rebinds it in this module
    overlay,
    patch_tile,
)


@dataclass(frozen=True)
class PipelineConfig:
    """The fixed perception/control stack a rollout runs through.

    Its cross-section rules are checked once, here: the decision points
    and the lookahead lie in the detector's band range, where a path is
    trusted, and the detector's grid in the model-input rect.
    """

    camera: CameraConfig = CameraConfig()
    detector: DetectorConfig = DetectorConfig()
    controller: ControllerConfig = ControllerConfig()
    vehicle: VehicleParams = VehicleParams()

    def __post_init__(self):
        det, ctl = self.detector, self.controller
        for d in ctl.decision_points:
            if not det.band_near <= d <= det.band_far:
                raise ConfigError(
                    "controller.decision_points",
                    f"distance {d} lies outside the detector band range "
                    f"[{det.band_near}, {det.band_far}]")
        if not det.band_near <= ctl.lookahead <= det.band_far:
            raise ConfigError("controller.lookahead",
                              "must lie within the detector band range")
        try:
            support_set(det, self.camera)
        except InvalidArgumentError as exc:
            raise ConfigError("detector", str(exc)) from exc


@dataclass(frozen=True)
class AttackConfig:
    horizon_frames: int = 46
    lambda_reg: float = 1e-4
    direction: str = "right"
    step_size: float = 0.05
    iterations: int = 100
    max_halvings: int = 5

    def __post_init__(self):
        if self.horizon_frames < 1:
            raise InvalidArgumentError("horizon_frames must be >= 1")
        if self.lambda_reg < 0.0:
            raise InvalidArgumentError("lambda_reg must be >= 0")
        if self.direction not in ("left", "right"):
            raise InvalidArgumentError("direction must be 'left' or 'right'")
        if self.step_size <= 0.0:
            raise InvalidArgumentError("step_size must be positive")
        if self.iterations < 0:
            raise InvalidArgumentError("iterations must be >= 0")
        if self.max_halvings < 0:
            raise InvalidArgumentError("max_halvings must be >= 0")

    @property
    def direction_sign(self) -> float:
        return 1.0 if self.direction == "right" else -1.0


@dataclass
class FrameTape:
    """What a gradient pass reads of one patched frame: the detector's
    rectified responses, the patch footprint as row runs (each row's
    ``(start, stop)`` flat pixel indices, in row order) and the frame's
    grays on its pixels in that order, 8 bytes a pixel."""

    responses: np.ndarray
    runs: np.ndarray
    grays: np.ndarray

    @property
    def pixels(self) -> np.ndarray:
        """The footprint's sorted flat pixel indices."""
        return run_pixels(self.runs)


@dataclass
class RolloutRecord:
    """Everything one closed-loop pass produced.

    Frame ``t`` (0-based) was seen from ``states[t]`` and gave ``paths[t]``
    and ``steers[t]``.  A patched rollout keeps one tape per frame,
    ``tapes[t]``; a rollout without a patch keeps none.
    """

    states: list[VehicleState]
    steers: list[float]
    paths: list[np.ndarray]
    tapes: list[FrameTape]
    truncated: bool

    @property
    def frames_evaluated(self) -> int:
        return len(self.steers)

    def max_lateral_deviation(self) -> float:
        return max(abs(s.y) for s in self.states)


@dataclass
class ObjectiveBreakdown:
    """The rollout objective split into its bending and stealth parts,
    with ``total = path + lambda * reg`` and the optimizer's
    ``directed = direction_sign * path + lambda * reg``."""

    path_term: float
    reg_term: float
    total: float
    directed: float


def rollout_with_patch(scene: BevImage, line_mask: np.ndarray,
                       patch: PatchState | None, state0: VehicleState,
                       horizon: int, pipe: PipelineConfig, *,
                       frame_sink=None) -> RolloutRecord:
    """Drive the perception/control loop for ``horizon`` frames.

    Frame t is rendered at state t-1, detected, and steered on; the
    plant then advances.  A mid-run detection failure truncates the
    record (flagged) rather than raising; geometric failures such as an
    unsourced model input or detector support propagate.

    Each frame renders just the detector's pixel support.  A whole frame
    (the dense warp) is rendered only for ``frame_sink``, after its
    detection succeeded, and is not kept.  A patch's
    :func:`~roadpatch.scene.patch_tile` is written into ``scene``'s grays
    for the rollout's length and taken out again when it ends, however it
    ends (:func:`~roadpatch.scene.overlay`), so every read of the scene,
    support, footprint or whole frame, sees the patch and the scene is
    not copied.  Each frame then keeps a :class:`FrameTape` for the
    gradient pass, its footprint found without an image-sized mask.  Only
    the optimizer passes a patch; a rollout without one (the closed loop
    lays its own) keeps no tape.
    """
    if horizon < 1:
        raise InvalidArgumentError("horizon must be >= 1")
    cam = pipe.camera
    support = support_set(pipe.detector, cam)

    states = [state0]
    steers: list[float] = []
    paths: list[np.ndarray] = []
    tapes: list[FrameTape] = []
    truncated = False

    s = state0
    with (nullcontext() if patch is None
          else overlay(scene, patch_tile(scene, patch, line_mask))):
        for t in range(1, horizon + 1):
            values = warp_bev_to_points(scene, cam, s, support.xf, support.yf,
                                        support.front)
            try:
                det = detect_lanes(values, pipe.detector, cam)
            except DetectionFailedError:
                truncated = True
                break
            path = desired_path(det)
            steer = steer_from_path(path, pipe.controller, pipe.vehicle)
            if frame_sink is not None:
                frame_sink(warp_bev_to_camera(scene, cam, s, index=t))
            if patch is not None:
                tapes.append(FrameTape(det.responses, *patch_pixels(
                    scene, cam, s, patch)))
            paths.append(path)
            steers.append(steer)
            s = step(s, steer, pipe.vehicle)
            states.append(s)

    return RolloutRecord(states=states, steers=steers, paths=paths,
                         tapes=tapes, truncated=truncated)


def rollout_objective(record: RolloutRecord, cfg: AttackConfig,
                      decision_points, base_value: float) -> ObjectiveBreakdown:
    """Score a rollout: summed path slopes plus the stealth penalty.

    ``path_term`` sums the desired-path derivative over every frame and
    decision distance; ``reg_term`` sums squared deviation of the
    patch's visible frame pixels (the tapes' footprint grays) from the
    neutral ``base_value``, so a rollout without a patch scores 0.0
    there.  Each term sums per-frame sums; the squares are summed by
    numpy's own pairwise reduction, not a BLAS dot, so ``reg_term`` does
    not depend on the BLAS thread count.
    """
    path = float(np.array(
        [np.sum(path_derivatives(p, decision_points)) for p in record.paths],
        dtype=float).sum())
    reg = float(np.array(
        [np.sum(np.square(tape.grays - base_value)) for tape in record.tapes],
        dtype=float).sum())
    stealth = cfg.lambda_reg * reg
    return ObjectiveBreakdown(path_term=path, reg_term=reg,
                              total=path + stealth,
                              directed=cfg.direction_sign * path + stealth)


def _path_upstream(cfg: AttackConfig, pipe: PipelineConfig,
                   decision_points) -> np.ndarray:
    """Gradient of the directed path term in the desired-path coefficients."""
    pts = np.asarray(decision_points, dtype=float)
    degree = pipe.detector.poly_degree
    upstream = np.zeros(degree + 1)
    for k in range(1, degree + 1):
        upstream[k] = cfg.direction_sign * float(np.sum(k * pts ** (k - 1)))
    return upstream


def _stealth_gradient(tape: FrameTape, lambda_reg: float,
                      base_value: float) -> np.ndarray:
    """Gradient of the stealth term on the footprint pixels."""
    return 2.0 * lambda_reg * (tape.grays - base_value)


def _mean(splats) -> np.ndarray:
    """Mean of the frames' patch-grid gradients, read one at a time and
    summed in frame order."""
    acc, n = None, 0
    for n, s in enumerate(splats, start=1):
        if acc is None:
            acc = np.zeros_like(s)
        acc += s
    if acc is None:
        raise NoVisibilityError("no frame in the horizon ever saw the patch")
    return acc / n


def patch_gradient(record: RolloutRecord, cfg: AttackConfig,
                   pipe: PipelineConfig, scene: BevImage, patch: PatchState,
                   line_mask: np.ndarray) -> np.ndarray:
    """Full gradient pass: the patch-grid gradient of the directed
    objective, the mean over the frames that saw the patch.

    States are taken as recorded: in each frame only its detection and
    its visible patch pixels vary.  A frame's pixel gradient is two runs:
    the detector's gradient of the path term on its pixel support and the
    stealth term's on the patch footprint, taken from the detector
    responses and the footprint grays the rollout recorded, so no frame
    is rendered or read.  Every other pixel has exactly zero gradient, so
    splatting the runs' sum through the warp/composite adjoint is
    bit-identical to splatting the whole image.  Every frame that saw the
    patch weighs 1; a record without tapes has none and raises
    ``NoVisibilityError``.  The frames stream through the splat one at a
    time, so the pass holds one frame's pixel gradient and splat.
    """
    upstream = _path_upstream(cfg, pipe, pipe.controller.decision_points)
    support = support_set(pipe.detector, pipe.camera).pixels
    grads = ((state, [(support, support_gradient(tape.responses, upstream,
                                                 pipe.detector, pipe.camera)),
                      (tape.pixels, _stealth_gradient(tape, cfg.lambda_reg,
                                                      patch.base_value))])
             for state, tape in zip(record.states, record.tapes)
             if tape.grays.size)
    return _mean(splat_pixels(grads, pipe.camera, scene, patch, line_mask))


@dataclass
class HistoryEntry:
    iteration: int
    breakdown: ObjectiveBreakdown
    step_size: float
    max_deviation: float
    accepted: bool


@dataclass
class OptimizeResult:
    patch: PatchState
    history: list[HistoryEntry]
    converged: bool

    @property
    def iterations_run(self) -> int:
        return len(self.history) - 1

    @property
    def best_iteration(self) -> int:
        """The last accepted iteration; the start patch counts as accepted."""
        return max(h.iteration for h in self.history if h.accepted)

    @property
    def best_breakdown(self) -> ObjectiveBreakdown:
        return self.history[self.best_iteration].breakdown


def _evaluate(scene, line_mask, patch, state0, pipe, cfg):
    record = rollout_with_patch(scene, line_mask, patch, state0,
                                cfg.horizon_frames, pipe)
    bd = rollout_objective(record, cfg, pipe.controller.decision_points,
                           patch.base_value)
    return record, bd


def optimize_patch(scene: BevImage, line_mask: np.ndarray, patch0: PatchState,
                   state0: VehicleState, pipe: PipelineConfig,
                   cfg: AttackConfig, *, logger=None) -> OptimizeResult:
    """Projected-gradient descent on the directed rollout objective.

    Each iteration takes one gradient pass at the current iterate, then
    tries a step, halving it up to ``max_halvings`` times until the
    directed objective strictly decreases; an iteration after a stalled
    one, whose iterate did not move, reuses the gradient in hand.  At every trial size the sign
    of the gradient is tried first (full-cell moves develop large-scale
    patch structure quickly) and the max-normalized raw gradient second —
    the fallback rescues iterates where the all-cells sign move overshoots
    in every direction at once.  Both directions have max-abs 1, so a step
    moves no cell further than its size; the result is clamped to the
    gray bounds.  On success the step is regrown (never past its initial
    value).  Since acceptance needs a strict decrease, the returned patch,
    the last accepted iterate, is the best one scored.  An all-zero
    gradient gives no direction: the step halves through every trial size
    and the run stops converged.  The history gains one entry per
    iteration plus one for the initial patch, so ``iterations=0`` still
    yields a single scored entry.  A start whose first frame fails
    detection has nothing to optimize and raises ``DetectionFailedError``.
    """
    current = patch0
    record, bd = _evaluate(scene, line_mask, current, state0, pipe, cfg)
    if not record.frames_evaluated:
        raise DetectionFailedError(
            "the first frame's detection failed, so the start patch's "
            "rollout measured nothing to optimize")
    step_size = cfg.step_size
    history = [HistoryEntry(0, bd, step_size, record.max_lateral_deviation(),
                            True)]
    converged = False
    grad = None

    for it in range(1, cfg.iterations + 1):
        if grad is None:
            grad = patch_gradient(record, cfg, pipe, scene, current, line_mask)
        # Steepest descent in the max-norm geometry: raw gradients put
        # almost all their mass on a handful of cells, which stalls the
        # search long before the patch develops large-scale structure,
        # so the sign direction leads and the scaled gradient backs it up.
        gmax = float(np.abs(grad).max())
        directions = [np.sign(grad), grad / gmax] if gmax != 0.0 else []
        accepted = False
        for _ in range(cfg.max_halvings + 1):
            for direction in directions:
                cand = current.with_values(np.clip(
                    current.values - step_size * direction,
                    current.v_min, current.v_max))
                cand_record, cand_bd = _evaluate(scene, line_mask, cand,
                                                 state0, pipe, cfg)
                if cand_bd.directed < bd.directed:
                    current, record, bd = cand, cand_record, cand_bd
                    step_size = min(step_size * 1.25, cfg.step_size)
                    accepted = True
                    break
                # A rejected candidate's tapes go before the next rollout,
                # so at most the current record and one candidate are held.
                del cand_record
            if accepted:
                grad = None
                break
            step_size *= 0.5
        history.append(HistoryEntry(it, bd, step_size,
                                    record.max_lateral_deviation(), accepted))
        if logger is not None:
            logger.info("iter %d directed=%.6f path=%.6f reg=%.4f step=%.2e%s",
                        it, bd.directed, bd.path_term, bd.reg_term, step_size,
                        "" if accepted else " (stalled)")
        if not directions or step_size < cfg.step_size * 1e-6:
            converged = True
            break

    return OptimizeResult(patch=current, history=history, converged=converged)
