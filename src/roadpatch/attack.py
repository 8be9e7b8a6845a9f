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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import (
    CameraConfig,
    patch_footprint,  # unused here; bench/spans.py rebinds it in this module
    patch_pixels,
    splat_camera_to_bev,
    splat_pixels,
    warp_bev_to_camera,
    warp_bev_to_points,
)
from .controller import ControllerConfig, path_derivatives, steer_from_path
from .detector import (
    DesiredPath,
    DetectorConfig,
    LaneDetection,
    desired_path,
    detect_lanes,
    detector_gradient,
    support_gradient,
    support_set,
)
from .errors import (
    DetectionFailedError,
    InvalidArgumentError,
    NoVisibilityError,
)
from .motion import VehicleParams, VehicleState, step
from .scene import BevImage, PatchState, composite_patch


@dataclass(frozen=True)
class PipelineConfig:
    """The fixed perception/control stack a rollout runs through."""

    camera: CameraConfig = CameraConfig()
    detector: DetectorConfig = DetectorConfig()
    controller: ControllerConfig = ControllerConfig()
    vehicle: VehicleParams = VehicleParams()


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
class PatchProjection:
    """Where the patch landed in one frame and what it looked like; frame
    ``t`` (0-based) of a record was seen from ``record.states[t]``."""

    rect_count: int                 # footprint pixels in the model input
    pixel_values: np.ndarray        # frame grays over the footprint
    pixels: np.ndarray | None = None  # sorted flat footprint indices (taped)


@dataclass
class RolloutRecord:
    """Everything one closed-loop pass produced."""

    states: list[VehicleState]
    steers: list[float]
    detections: list[LaneDetection]
    paths: list[DesiredPath]
    projections: list[PatchProjection]
    truncated: bool

    @property
    def frames_evaluated(self) -> int:
        return len(self.steers)

    def max_lateral_deviation(self) -> float:
        return max(abs(s.y) for s in self.states)


@dataclass
class ObjectiveBreakdown:
    """The rollout objective split into its bending and stealth parts."""

    path_term: float
    reg_term: float
    lambda_reg: float
    direction: str
    per_frame_path: np.ndarray
    per_frame_reg: np.ndarray

    @property
    def total(self) -> float:
        return self.path_term + self.lambda_reg * self.reg_term

    @property
    def directed(self) -> float:
        sign = 1.0 if self.direction == "right" else -1.0
        return sign * self.path_term + self.lambda_reg * self.reg_term


@dataclass
class FrameGradient:
    """Image-space gradient of the directed objective for one frame."""

    image: np.ndarray
    pose: VehicleState
    index: int


def rollout_with_patch(scene: BevImage, line_mask: np.ndarray,
                       patch: PatchState | None, state0: VehicleState,
                       horizon: int, pipe: PipelineConfig, *,
                       frame_sink=None) -> RolloutRecord:
    """Drive the perception/control loop for ``horizon`` frames.

    Frame t is rendered at state t-1, detected, and steered on; the
    plant then advances.  A mid-run detection failure truncates the
    record (flagged) rather than raising; geometric failures such as an
    unsourced model input propagate.

    Each frame renders just the detector's pixel support and, with a
    patch, the footprint's grays, found from its sorted flat pixel indices
    without an image-sized mask.  A whole frame (the dense warp) is
    rendered only for ``frame_sink``, after its detection succeeded.  A
    patched rollout without a sink keeps each frame's detector tape beside
    the footprint's indices and grays, which is all a gradient pass needs;
    any other rollout keeps neither, so a frame sink leaves no frame alive.
    """
    if horizon < 1:
        raise InvalidArgumentError("horizon must be >= 1")
    bev = scene if patch is None else composite_patch(scene, patch, line_mask)
    cam = pipe.camera
    support = support_set(pipe.detector, cam)
    taped = patch is not None and frame_sink is None

    states = [state0]
    steers: list[float] = []
    detections: list[LaneDetection] = []
    paths: list[DesiredPath] = []
    projections: list[PatchProjection] = []
    truncated = False

    s = state0
    for t in range(1, horizon + 1):
        values = warp_bev_to_points(bev, cam, s, support.xf, support.yf,
                                    support.front)
        if patch is not None:
            pixels, seen, rect_count = patch_pixels(bev, cam, s, patch)
            proj = PatchProjection(rect_count=rect_count, pixel_values=seen,
                                   pixels=pixels if taped else None)
        else:
            proj = PatchProjection(rect_count=0, pixel_values=np.zeros(0))
        try:
            det = detect_lanes(values, pipe.detector, cam)
        except DetectionFailedError:
            truncated = True
            break
        if not taped:
            det.tape = None
        path = desired_path(det, pipe.detector)
        steer = steer_from_path(path, pipe.controller, pipe.vehicle)
        if frame_sink is not None:
            frame_sink(warp_bev_to_camera(bev, cam, s, index=t))
        detections.append(det)
        paths.append(path)
        projections.append(proj)
        steers.append(steer)
        s = step(s, steer, pipe.vehicle)
        states.append(s)

    return RolloutRecord(states=states, steers=steers, detections=detections,
                         paths=paths, projections=projections,
                         truncated=truncated)


def rollout_objective(paths, projections, lambda_reg: float, decision_points,
                  direction: str, base_value: float) -> ObjectiveBreakdown:
    """Score a rollout: summed path slopes plus the stealth penalty.

    ``path_term`` sums the desired-path derivative over every frame and
    decision distance; ``reg_term`` sums squared deviation of the
    patch's visible frame pixels from the neutral ``base_value``.  The
    squares are summed by numpy's own pairwise reduction, not a BLAS dot,
    so ``reg_term`` does not depend on the BLAS thread count.
    """
    if len(paths) != len(projections):
        raise InvalidArgumentError("paths and projections must align")
    n = len(paths)
    per_path = np.zeros(n)
    per_reg = np.zeros(n)
    for k, (path, proj) in enumerate(zip(paths, projections)):
        per_path[k] = float(np.sum(path_derivatives(path, decision_points)))
        if proj.pixel_values.size:
            dev = proj.pixel_values - base_value
            per_reg[k] = float(np.sum(dev * dev))
    return ObjectiveBreakdown(path_term=float(per_path.sum()),
                              reg_term=float(per_reg.sum()),
                              lambda_reg=lambda_reg, direction=direction,
                              per_frame_path=per_path, per_frame_reg=per_reg)


def _path_upstream(cfg: AttackConfig, pipe: PipelineConfig,
                   decision_points) -> np.ndarray:
    """Gradient of the directed path term in the desired-path coefficients."""
    pts = np.asarray(decision_points, dtype=float)
    degree = pipe.detector.poly_degree
    upstream = np.zeros(degree + 1)
    for k in range(1, degree + 1):
        upstream[k] = cfg.direction_sign * float(np.sum(k * pts ** (k - 1)))
    return upstream


def _taped_detection(record: RolloutRecord, t: int) -> LaneDetection:
    if not 0 <= t < record.frames_evaluated:
        raise InvalidArgumentError(f"frame index {t} outside the record")
    detection = record.detections[t]
    if detection.tape is None:
        raise InvalidArgumentError(
            "rollout kept no detector tapes: rerun it with a patch and no "
            "frame sink")
    return detection


def _stealth_gradient(proj: PatchProjection, lambda_reg: float,
                      base_value: float) -> np.ndarray:
    """Gradient of the stealth term on the footprint pixels."""
    return 2.0 * lambda_reg * (proj.pixel_values - base_value)


def frame_gradient(record: RolloutRecord, t: int, cfg: AttackConfig,
                   pipe: PipelineConfig, decision_points,
                   base_value: float) -> FrameGradient:
    """Pixel gradient of the directed objective for frame index ``t`` (0-based).

    States are taken as recorded: only this frame's detection and its
    visible patch pixels vary.  The gradient is zero outside the
    detector's pixel support (path term) and the patch footprint (stealth
    term).  It is computed from the detection tape and the footprint grays
    the rollout recorded.
    """
    detection = _taped_detection(record, t)
    img = detector_gradient(detection,
                            _path_upstream(cfg, pipe, decision_points),
                            pipe.detector, pipe.camera)
    proj = record.projections[t]
    if proj.pixel_values.size:
        img.ravel()[proj.pixels] += _stealth_gradient(proj, cfg.lambda_reg,
                                                      base_value)
    return FrameGradient(image=img, pose=record.states[t], index=t)


def aggregate_gradients_bev(grads, counts, camera: CameraConfig,
                            scene: BevImage, patch: PatchState,
                            line_mask: np.ndarray) -> np.ndarray:
    """Average per-frame gradients on the patch grid.

    Each image gradient is splatted through the exact warp/composite
    adjoint at its own pose; every frame that saw the patch (nonzero
    footprint size) weighs 1.  Frames that never saw the patch
    contribute nothing; if no frame saw it, there is nothing to optimize.
    """
    if len(grads) != len(counts):
        raise InvalidArgumentError("grads and counts must align")
    return _mean([splat_camera_to_bev(g.image, camera, g.pose, scene, patch,
                                      line_mask)
                  for g, c in zip(grads, counts) if c])


def _mean(splats) -> np.ndarray:
    """Mean of the frames' patch-grid gradients, summed in frame order."""
    if not len(splats):
        raise NoVisibilityError("no frame in the horizon ever saw the patch")
    acc = np.zeros_like(splats[0])
    for s in splats:
        acc += s
    return acc / len(splats)


def _union_values(a: np.ndarray, va: np.ndarray, b: np.ndarray,
                  vb: np.ndarray):
    """Sorted union of the sorted index sets ``a`` and ``b``, with values.

    One stable sort of the two sorted runs is a linear merge (``np.union1d``
    hashes instead).  An index in both sets comes out ``a`` first and gets
    ``va + vb``, the sum an image that holds ``va`` and then adds ``vb``
    would hold.
    """
    both = np.concatenate([a, b])
    order = np.argsort(both, kind="stable")
    pixels = both[order]
    values = np.concatenate([va, vb])[order]
    dup = pixels[1:] == pixels[:-1]
    values[:-1][dup] += values[1:][dup]
    keep = np.concatenate([[True], ~dup])
    return pixels[keep], values[keep]


def patch_gradient(record: RolloutRecord, cfg: AttackConfig,
                   pipe: PipelineConfig, scene: BevImage, patch: PatchState,
                   line_mask: np.ndarray) -> np.ndarray:
    """Full gradient pass: :func:`frame_gradient` of every frame that saw
    the patch, splatted and averaged with equal weights as in
    :func:`aggregate_gradients_bev`.

    Each frame's gradient is taken on the sorted union of the detector's
    pixel support and the patch footprint, from the detection tape and the
    footprint grays the rollout recorded, so no frame is rendered or read.
    Every pixel left out has exactly zero gradient, so the result is
    bit-identical to splatting the whole images.
    """
    upstream = _path_upstream(cfg, pipe, pipe.controller.decision_points)
    support = support_set(pipe.detector, pipe.camera).pixels
    grads = []
    for t, proj in enumerate(record.projections):
        if not proj.pixel_values.size:
            continue
        path = support_gradient(_taped_detection(record, t), upstream,
                                pipe.detector, pipe.camera)
        stealth = _stealth_gradient(proj, cfg.lambda_reg, patch.base_value)
        grads.append((record.states[t],
                      *_union_values(support, path, proj.pixels, stealth)))
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
    bd = rollout_objective(record.paths, record.projections, cfg.lambda_reg,
                       pipe.controller.decision_points, cfg.direction,
                       patch.base_value)
    return record, bd


def optimize_patch(scene: BevImage, line_mask: np.ndarray, patch0: PatchState,
                   state0: VehicleState, pipe: PipelineConfig,
                   cfg: AttackConfig, *, logger=None) -> OptimizeResult:
    """Projected-gradient descent on the directed rollout objective.

    Each iteration takes one gradient pass at the current iterate, then
    tries a step, halving it up to ``max_halvings`` times until the
    directed objective strictly decreases.  At every trial size the sign
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
    yields a single scored entry.
    """
    current = patch0
    record, bd = _evaluate(scene, line_mask, current, state0, pipe, cfg)
    step_size = cfg.step_size
    history = [HistoryEntry(0, bd, step_size, record.max_lateral_deviation(),
                            True)]
    converged = False

    for it in range(1, cfg.iterations + 1):
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
            if accepted:
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
