"""Differentiable surrogate lane finder.

The detector mimics the in-model stage a lane-keeping stack runs on its
camera crop: it resamples the crop onto a ground-aligned grid (bands
ahead of the vehicle by distance, columns across the lane), rectifies
brightness above a pavement threshold, localizes one lane line per half
with a temperature-controlled soft argmax, and fits one polynomial per
line by weighted least squares.  The desired driving path is the
coefficient-wise mean of the two line fits.

Every stage is an explicit closed form, so the exact pixel gradient of
any scalar in the fitted coefficients is available analytically; the
forward pass records a tape that the backward pass consumes.  The
gradient lives on the detector's pixel support (``support_set``): the
backward pass needs the tape, never the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from . import interp
from .camera import CameraConfig, Frame, _vehicle_ground_grid, ground_to_image
from .errors import (
    DetectionFailedError,
    IllConditionedFitError,
    IncompleteModelInputError,
    InvalidArgumentError,
    StaleForwardStateError,
)
from .motion import VehicleState

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class DetectorConfig:
    n_bands: int = 32
    band_near: float = 6.0
    band_far: float = 50.0
    lateral_span: float = 3.0
    n_lateral: int = 96
    tau: float = 0.05
    poly_degree: int = 3
    response_bias: float = 0.40
    split: float = 0.0

    def __post_init__(self):
        if self.poly_degree < 1:
            raise InvalidArgumentError("poly_degree must be >= 1")
        if self.n_bands < self.poly_degree + 1:
            raise InvalidArgumentError("need more bands than fit coefficients")
        if not 0.0 < self.band_near < self.band_far:
            raise InvalidArgumentError("band range must satisfy 0 < near < far")
        if self.lateral_span <= 0.0 or self.n_lateral < 4:
            raise InvalidArgumentError("lateral grid must span > 0 m with >= 4 columns")
        if self.tau <= 0.0:
            raise InvalidArgumentError("tau must be positive")
        if not 0.0 <= self.response_bias < 1.0:
            raise InvalidArgumentError("response_bias must lie in [0, 1)")
        if abs(self.split) >= self.lateral_span:
            raise InvalidArgumentError("split must lie inside the lateral span")


@dataclass(frozen=True)
class DesiredPath:
    """Lateral offset of the target path as a polynomial in distance ahead."""

    coeffs: tuple[float, ...]          # ascending powers, meters
    valid_range: tuple[float, float]   # distances the fit is trusted over

    def value(self, d: float) -> float:
        return float(np.polynomial.polynomial.polyval(d, np.asarray(self.coeffs)))


@dataclass
class LaneDetection:
    """Per-line fits plus the band evidence they were built from."""

    left_coeffs: np.ndarray
    right_coeffs: np.ndarray
    positions_left: np.ndarray    # per-band lateral estimate of the left line
    positions_right: np.ndarray
    weights_left: np.ndarray      # per-band confidence (rectified mass)
    weights_right: np.ndarray
    low_confidence_left: np.ndarray
    low_confidence_right: np.ndarray
    tape: "DetectionTape | None" = None


@dataclass
class DetectionTape:
    """Forward-pass record needed to run the analytic backward pass.

    ``frame`` is the frame a full-frame detection ran on, or None for a
    detection run on the support pixels' grays alone.
    """

    frame: Frame | None
    responses: np.ndarray
    halves: dict


class _Plan:
    """Everything about a (detector, camera) pair that frames share."""

    def __init__(self, det: DetectorConfig, cam: CameraConfig):
        self.det = det
        self.cam = cam
        self.dists = np.linspace(det.band_near, det.band_far, det.n_bands)
        self.ys = np.linspace(-det.lateral_span, det.lateral_span, det.n_lateral)
        self.dy = self.ys[1] - self.ys[0]
        origin = VehicleState(0.0, 0.0, 0.0, 0.0)
        pts = np.stack(np.meshgrid(self.dists, self.ys, indexing="ij"), axis=-1)
        self.u, self.v = ground_to_image(cam, origin, pts)
        rx, ry, rw, rh = cam.model_input_rect
        ok = ((self.u >= rx) & (self.u <= rx + rw - 1.0 - 1e-9)
              & (self.v >= ry) & (self.v <= ry + rh - 1.0 - 1e-9))
        if not np.all(ok):
            raise InvalidArgumentError(
                "detector grid projects outside the model-input rect; shrink the "
                "band range or lateral span, or move the rect")
        self.cols_right = np.where(self.ys < det.split)[0]
        self.cols_left = np.where(self.ys > det.split)[0]
        if self.cols_left.size < 2 or self.cols_right.size < 2:
            raise InvalidArgumentError("each search half needs >= 2 columns")
        # Scaled fit basis keeps the normal equations well conditioned.
        self.mid = 0.5 * (det.band_near + det.band_far)
        self.half_range = 0.5 * (det.band_far - det.band_near)
        t = (self.dists - self.mid) / self.half_range
        self.T = np.vander(t, det.poly_degree + 1, increasing=True)
        self.M = _basis_change(self.mid, self.half_range, det.poly_degree)


def _basis_change(mid: float, half_range: float, degree: int) -> np.ndarray:
    """Matrix taking coefficients in t = (d - mid)/hr to coefficients in d."""
    M = np.zeros((degree + 1, degree + 1))
    base = np.array([-mid / half_range, 1.0 / half_range])
    for k in range(degree + 1):
        col = P.polypow(base, k) if k else np.array([1.0])
        M[: len(col), k] = col
    return M


@lru_cache(maxsize=16)
def _plan(det: DetectorConfig, cam: CameraConfig) -> _Plan:
    return _Plan(det, cam)


class Support:
    """The image pixels the detector's bilinear samples read.

    ``pixels`` holds their sorted flat image indices and ``xf``/``yf``/
    ``front`` their pose-independent ground points in the vehicle frame;
    ``taps``/``weights`` are the four bilinear taps of every sample at
    ``(_Plan.v, _Plan.u)``, remapped to positions in ``pixels``.
    """

    def __init__(self, plan: _Plan):
        w, h = plan.cam.image_size
        idx, self.weights = interp.taps(plan.v, plan.u, (h, w))
        self.pixels = np.unique(np.concatenate([k.ravel() for k in idx]))
        self.taps = tuple(np.searchsorted(self.pixels, k) for k in idx)
        self.xf, self.yf, self.front = (
            a.ravel()[self.pixels] for a in _vehicle_ground_grid(plan.cam))


@lru_cache(maxsize=16)
def support_set(det: DetectorConfig, cam: CameraConfig) -> Support:
    """The pixel support of a (detector, camera) pair, computed once."""
    return Support(_plan(det, cam))


def _soft_argmax_rows(resp: np.ndarray, tau: float):
    """Row-wise soft argmax over a (bands, columns) response block."""
    m = resp.max(axis=1, keepdims=True)
    e = np.exp((resp - m) / tau)
    w = e / e.sum(axis=1, keepdims=True)
    idx = w @ np.arange(resp.shape[1], dtype=float)
    return idx, w


def _fit_half(plan: _Plan, y_est: np.ndarray, w: np.ndarray):
    """Detector-internal WLS in the plan's fixed scaled basis."""
    if np.count_nonzero(w > 0.0) < plan.det.poly_degree + 1:
        raise DetectionFailedError("too few confident bands to fit a line")
    A = plan.T.T @ (w[:, None] * plan.T)
    if np.linalg.cond(A) > _COND_LIMIT:
        raise IllConditionedFitError("weighted normal equations are near singular")
    ct = np.linalg.solve(A, plan.T.T @ (w * y_est))
    return plan.M @ ct, A, ct


def _detect_core(samples: np.ndarray, plan: _Plan):
    """Shared forward pass from a (bands, columns) sample grid."""
    det = plan.det
    responses = np.maximum(samples - det.response_bias, 0.0)
    halves = {}
    for name, cols in (("left", plan.cols_left), ("right", plan.cols_right)):
        resp = responses[:, cols]
        mass = resp.sum(axis=1)
        low = mass == 0.0
        if np.count_nonzero(low) > det.n_bands // 2:
            raise DetectionFailedError(
                f"{name} line: {int(low.sum())} of {det.n_bands} bands have no "
                f"response above the bias")
        idx, w_soft = _soft_argmax_rows(resp, det.tau)
        y_est = plan.ys[cols[0]] + idx * plan.dy
        coeffs, A, ct = _fit_half(plan, y_est, mass)
        halves[name] = dict(cols=cols, mass=mass, low=low, idx=idx,
                            w_soft=w_soft, y_est=y_est, coeffs=coeffs,
                            A=A, ct=ct)
    return responses, halves


def detect_lanes(frame: Frame, det: DetectorConfig,
                 cam: CameraConfig) -> LaneDetection:
    """Run the surrogate detector on a frame.

    Raises ``IncompleteModelInputError`` if the crop has unsourced pixels,
    ``DetectionFailedError`` when more than half the bands of either line
    carry no evidence.
    """
    plan = _plan(det, cam)
    rs, cs = cam.rect_slices
    if not np.all(frame.valid[rs, cs]):
        raise IncompleteModelInputError("model-input crop contains unsourced pixels")
    samples = interp.gather(frame.pixels, plan.v, plan.u)
    return _lane_detection(samples, plan, frame)


def detect_lanes_on_support(values: np.ndarray, det: DetectorConfig,
                            cam: CameraConfig) -> LaneDetection:
    """:func:`detect_lanes` from the grays of the ``support_set`` pixels alone.

    The samples are the same tap sums over the same pixel values, so the
    detection is bit-identical to the full-frame one; its tape holds no
    frame.
    """
    sup = support_set(det, cam)
    samples = interp.combine(values, sup.taps, sup.weights)
    return _lane_detection(samples, _plan(det, cam), None)


def _lane_detection(samples: np.ndarray, plan: _Plan,
                    frame: Frame | None) -> LaneDetection:
    """Forward pass from the sample grid, taped for the backward pass."""
    responses, halves = _detect_core(samples, plan)
    tape = DetectionTape(frame=frame, responses=responses, halves=halves)
    left, right = halves["left"], halves["right"]
    return LaneDetection(
        left_coeffs=left["coeffs"], right_coeffs=right["coeffs"],
        positions_left=left["y_est"], positions_right=right["y_est"],
        weights_left=left["mass"], weights_right=right["mass"],
        low_confidence_left=left["low"], low_confidence_right=right["low"],
        tape=tape)


def desired_path(detection: LaneDetection, det: DetectorConfig) -> DesiredPath:
    """Target path = coefficient-wise mean of the two line fits."""
    coeffs = 0.5 * (detection.left_coeffs + detection.right_coeffs)
    return DesiredPath(coeffs=tuple(float(c) for c in coeffs),
                       valid_range=(det.band_near, det.band_far))


def detector_gradient(frame: Frame | None, detection: LaneDetection,
                      upstream: np.ndarray, det: DetectorConfig,
                      cam: CameraConfig) -> np.ndarray:
    """:func:`support_gradient` placed in an image, zero off the support.

    ``frame`` is the frame the detection ran on (None for a detection run
    on the support grays); a tape from any other frame is stale.
    """
    tape = detection.tape
    if tape is None or tape.frame is not frame:
        raise StaleForwardStateError(
            "detection tape does not belong to this frame")
    w, h = cam.image_size
    image = np.zeros(h * w)
    image[support_set(det, cam).pixels] = support_gradient(detection, upstream,
                                                           det, cam)
    return image.reshape(h, w)


def support_gradient(detection: LaneDetection, upstream: np.ndarray,
                     det: DetectorConfig, cam: CameraConfig) -> np.ndarray:
    """Exact pixel gradient of ``upstream . desired_path_coeffs``.

    ``upstream`` is the gradient of some scalar objective with respect to
    the desired-path coefficients.  The result holds one value per pixel
    of ``support_set(det, cam).pixels``; every other pixel's gradient is
    zero.  All stages of the forward pass (soft argmax, confidence
    weights, weighted fit) are differentiated.  The sample gradients are
    scattered through the support's taps with the same sums as a
    full-image :func:`interp.scatter`, so the values are bit-identical to
    that image's values on the support.
    """
    tape = detection.tape
    if tape is None:
        raise StaleForwardStateError("detection carries no tape")
    plan = _plan(det, cam)
    g_line = 0.5 * np.asarray(upstream, dtype=float)  # mean over two lines
    d_resp = np.zeros((plan.det.n_bands, plan.det.n_lateral))
    for name in ("left", "right"):
        h = tape.halves[name]
        g_t = plan.M.T @ g_line
        sA = np.linalg.solve(h["A"], g_t)
        r_proj = plan.T @ sA                      # dL/d(weighted residual row)
        d_y = h["mass"] * r_proj                  # dL/d(y_est)
        resid = h["y_est"] - plan.T @ h["ct"]
        d_mass = r_proj * resid                   # dL/d(band weight)
        d_idx = d_y * plan.dy
        cols_local = np.arange(h["cols"].size, dtype=float)
        block = h["w_soft"] * (cols_local[None, :] - h["idx"][:, None])
        block *= (d_idx / plan.det.tau)[:, None]
        block += d_mass[:, None]
        d_resp[:, h["cols"]] += block
    d_samples = d_resp * (tape.responses > 0.0)
    sup = support_set(det, cam)
    return interp.accumulate(sup.pixels.size, sup.taps, sup.weights,
                             d_samples)


def sampling_positions(det: DetectorConfig, cam: CameraConfig):
    """(u, v) image positions of every detector grid point (for tests)."""
    plan = _plan(det, cam)
    return plan.u.copy(), plan.v.copy()
