"""Differentiable surrogate lane finder.

The detector mimics the in-model stage a lane-keeping stack runs on its
camera crop: it resamples the crop onto a ground-aligned grid (bands
ahead of the vehicle by distance, columns across the lane), rectifies
brightness above a pavement threshold, localizes one lane line per half
with a temperature-controlled soft argmax, and fits one polynomial per
line by weighted least squares.  The desired driving path is the
coefficient-wise mean of the two line fits.

Every stage is an explicit closed form, so the exact pixel gradient of
any scalar in the fitted coefficients is available analytically.  The
forward pass keeps one array for the backward pass, the rectified
responses; every other forward quantity is a deterministic function of
them, which the backward pass recomputes (rematerialization).  Both
passes live on the detector's pixel support (``support_set``): the
forward pass reads only those pixels' grays, the backward pass only the
responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P

from . import interp
from .camera import CameraConfig, _vehicle_ground_grid, ground_to_image
from .errors import (
    DetectionFailedError,
    IllConditionedFitError,
    InvalidArgumentError,
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


@dataclass
class LaneDetection:
    """Per-line fits plus the rectified responses they were built from.

    ``responses`` (bands x columns) is the whole tape of the backward
    pass.
    """

    left_coeffs: np.ndarray
    right_coeffs: np.ndarray
    responses: np.ndarray


class _Plan:
    """Everything about a (detector, camera) pair that frames share.

    ``dists``/``ys`` span the ground grid, ``T``/``M`` are the scaled fit
    basis and its change back to powers of distance.  ``pixels`` holds
    the sorted flat image indices the grid's bilinear samples read and
    ``xf``/``yf``/``front`` their pose-independent ground points in the
    vehicle frame; ``taps``/``weights`` are the four bilinear taps of
    every sample at ``(v, u)``, remapped to positions in ``pixels``.
    """

    def __init__(self, det: DetectorConfig, cam: CameraConfig):
        self.det = det
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
        mid = 0.5 * (det.band_near + det.band_far)
        half_range = 0.5 * (det.band_far - det.band_near)
        t = (self.dists - mid) / half_range
        self.T = np.vander(t, det.poly_degree + 1, increasing=True)
        self.M = _basis_change(mid, half_range, det.poly_degree)
        w, h = cam.image_size
        idx, self.weights = interp.taps(self.v, self.u, (h, w))
        self.pixels = np.unique(np.concatenate([k.ravel() for k in idx]))
        self.taps = tuple(np.searchsorted(self.pixels, k) for k in idx)
        self.xf, self.yf, self.front = (
            a.ravel()[self.pixels] for a in _vehicle_ground_grid(cam))


def _basis_change(mid: float, half_range: float, degree: int) -> np.ndarray:
    """Matrix taking coefficients in t = (d - mid)/hr to coefficients in d."""
    M = np.zeros((degree + 1, degree + 1))
    base = np.array([-mid / half_range, 1.0 / half_range])
    for k in range(degree + 1):
        col = P.polypow(base, k) if k else np.array([1.0])
        M[: len(col), k] = col
    return M


@lru_cache(maxsize=16)
def support_set(det: DetectorConfig, cam: CameraConfig) -> _Plan:
    """The grid, fit basis and pixel support of a (detector, camera) pair,
    computed once."""
    return _Plan(det, cam)


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


class _Line(NamedTuple):
    """One line's forward pass, as :func:`_fit_lines` computes it."""

    cols: np.ndarray      # grid columns of this search half
    mass: np.ndarray      # per-band rectified mass, the fit's weights
    idx: np.ndarray       # per-band soft-argmax column, local to the half
    w_soft: np.ndarray    # soft-argmax weights
    y_est: np.ndarray     # per-band lateral estimate
    coeffs: np.ndarray    # fit in powers of distance
    A: np.ndarray         # weighted normal equations
    ct: np.ndarray        # fit in the scaled basis


def _fit_lines(responses: np.ndarray, plan: _Plan) -> tuple[_Line, _Line]:
    """The left and right line fits from the rectified responses.

    Raises ``DetectionFailedError`` when more than half the bands of a
    line carry no response above the bias.
    """
    det = plan.det
    lines = []
    for name, cols in (("left", plan.cols_left), ("right", plan.cols_right)):
        resp = responses[:, cols]
        mass = resp.sum(axis=1)
        low = np.count_nonzero(mass == 0.0)
        if low > det.n_bands // 2:
            raise DetectionFailedError(
                f"{name} line: {low} of {det.n_bands} bands have no "
                f"response above the bias")
        idx, w_soft = _soft_argmax_rows(resp, det.tau)
        y_est = plan.ys[cols[0]] + idx * plan.dy
        lines.append(_Line(cols, mass, idx, w_soft, y_est,
                           *_fit_half(plan, y_est, mass)))
    return tuple(lines)


def detect_lanes(values: np.ndarray, det: DetectorConfig,
                 cam: CameraConfig) -> LaneDetection:
    """Run the surrogate detector on the grays of the ``support_set`` pixels.

    The detector's bilinear samples read no other pixel, so these grays
    are its whole input; the warp that produced them has already checked
    that the model-input crop is fully sourced.  Raises
    ``DetectionFailedError`` when more than half the bands of either line
    carry no evidence.
    """
    plan = support_set(det, cam)
    return _lane_detection(interp.combine(values, plan.taps, plan.weights),
                           plan)


def _lane_detection(samples: np.ndarray, plan: _Plan) -> LaneDetection:
    """Forward pass from the (bands, columns) sample grid."""
    responses = np.maximum(samples - plan.det.response_bias, 0.0)
    left, right = _fit_lines(responses, plan)
    return LaneDetection(left.coeffs, right.coeffs, responses)


def desired_path(detection: LaneDetection) -> np.ndarray:
    """Target path = coefficient-wise mean of the two line fits: lateral
    offset (m) in ascending powers of distance ahead, over the band range."""
    return 0.5 * (detection.left_coeffs + detection.right_coeffs)


def detector_gradient(responses: np.ndarray, upstream: np.ndarray,
                      det: DetectorConfig, cam: CameraConfig) -> np.ndarray:
    """:func:`support_gradient` placed in an image, zero off the support."""
    w, h = cam.image_size
    image = np.zeros(h * w)
    image[support_set(det, cam).pixels] = support_gradient(responses, upstream,
                                                           det, cam)
    return image.reshape(h, w)


def support_gradient(responses: np.ndarray, upstream: np.ndarray,
                     det: DetectorConfig, cam: CameraConfig) -> np.ndarray:
    """Exact pixel gradient of ``upstream . desired_path_coeffs`` for the
    detection whose rectified responses are ``responses``.

    ``upstream`` is the gradient of some scalar objective with respect to
    the desired-path coefficients.  The result holds one value per pixel
    of ``support_set(det, cam).pixels``; every other pixel's gradient is
    zero.  All stages of the forward pass (soft argmax, confidence
    weights, weighted fit) are differentiated; they are recomputed from
    ``responses`` by the same :func:`_fit_lines` the forward pass ran,
    so they are bit-identical to its values.  The sample gradients are
    scattered through the support's taps with the same sums as a
    full-image :func:`interp.scatter`, so the values are bit-identical to
    that image's values on the support.
    """
    plan = support_set(det, cam)
    g_t = plan.M.T @ (0.5 * np.asarray(upstream, dtype=float))  # line mean
    d_resp = np.zeros((det.n_bands, det.n_lateral))
    for line in _fit_lines(responses, plan):
        sA = np.linalg.solve(line.A, g_t)
        r_proj = plan.T @ sA                      # dL/d(weighted residual row)
        d_y = line.mass * r_proj                  # dL/d(y_est)
        resid = line.y_est - plan.T @ line.ct
        d_mass = r_proj * resid                   # dL/d(band weight)
        d_idx = d_y * plan.dy
        cols_local = np.arange(line.cols.size, dtype=float)
        block = line.w_soft * (cols_local[None, :] - line.idx[:, None])
        block *= (d_idx / det.tau)[:, None]
        block += d_mass[:, None]
        d_resp[:, line.cols] += block
    d_samples = d_resp * (responses > 0.0)
    return interp.accumulate(plan.pixels.size, plan.taps, plan.weights,
                             d_samples)


def sampling_positions(det: DetectorConfig, cam: CameraConfig):
    """(u, v) image positions of every detector grid point.

    Raises ``InvalidArgumentError`` when the grid leaves the model-input
    rect, as :func:`support_set` does.
    """
    plan = support_set(det, cam)
    return plan.u.copy(), plan.v.copy()
