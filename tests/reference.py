"""Reference helpers only the tests use.

Each is written from the package's own pieces, so a check built on one
still exercises production code: the plant's ``step``, the camera model's
constants, the detector's and the splat's gradients, the PGM reader, and
the trajectory CSV's field list.  The exceptions are the bilinear kernel
(``taps``, ``combine``, ``accumulate``, ``scatter``), a plain, unfused
form of ``roadpatch.interp``'s whose writes are one ``bincount`` a tap,
not ``interp``'s ``np.add.at``, the footprint and gradient pass in the form
that keeps one flat index per footprint pixel and stacks every frame's
splatted points (``footprint_band`` to ``stacked_patch_gradient``), whose
footprint grays are read from ``composite_patch``'s whole raster with
the plain kernel, not from the overlaid scene, and the full-width scene
(``render_road_bev``, ``lane_line_mask``) that the production scene is a
column window of; production must match all three bit for bit.
Production keeps the line mask only as its draw's line columns.  A raster
given whole here (``load_bev``, ``render_road_bev``) is held whole, by
``ColumnDraw.holding``, as production holds a composited raster.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

import roadpatch.scene
from roadpatch import interp
from roadpatch.artifacts import TRAJECTORY_FIELDS
from roadpatch.attack import (
    AttackConfig,
    PipelineConfig,
    RolloutRecord,
    _path_upstream,
    _stealth_gradient,
)
from roadpatch.camera import (
    _DEPTH_EPS,
    CameraConfig,
    _blocks,
    _ground_hits,
    _ground_index,
    _vehicle_ground_grid,
    _vehicle_to_world,
    _window_seeing,
    splat_pixels,
)
from roadpatch.detector import detector_gradient, support_gradient, support_set
from roadpatch.errors import (
    InvalidArgumentError,
    NoGroundIntersectionError,
    NoVisibilityError,
)
from roadpatch.motion import VehicleParams, VehicleState, clamp_steer, step
from roadpatch.pgmio import _sidecar_path, read_pgm
from roadpatch.scene import (
    BevImage,
    ColumnDraw,
    PatchPlacement,
    PatchState,
    RoadSpec,
    _grid,
    _line_columns,
    _patch_fractional,
    _rect_index_ranges,
)


def rect_slices(cfg: CameraConfig) -> tuple[slice, slice]:
    """The model-input rect as (row, column) slices of the image."""
    rx, ry, rw, rh = cfg.model_input_rect
    return slice(ry, ry + rh), slice(rx, rx + rw)


@dataclass
class FrameGradient:
    """Image-space gradient of the directed objective for one frame."""

    image: np.ndarray
    pose: VehicleState
    index: int


def frame_gradient(record: RolloutRecord, t: int, cfg: AttackConfig,
                   pipe: PipelineConfig, decision_points,
                   base_value: float) -> FrameGradient:
    """Pixel gradient of the directed objective for frame index ``t`` (0-based).

    States are taken as recorded: only this frame's detection and its
    visible patch pixels vary.  The gradient is zero outside the
    detector's pixel support (path term) and the patch footprint (stealth
    term).  It is computed from the frame's tape, so a rollout without a
    patch, which keeps none, has no frame gradient.
    """
    if not 0 <= t < len(record.tapes):
        raise InvalidArgumentError(f"frame index {t} has no tape in the "
                                   f"record: rerun it with a patch")
    tape = record.tapes[t]
    img = detector_gradient(tape.responses,
                            _path_upstream(cfg, pipe, decision_points),
                            pipe.detector, pipe.camera)
    if tape.grays.size:
        img.ravel()[tape.pixels] += _stealth_gradient(tape, cfg.lambda_reg,
                                                      base_value)
    return FrameGradient(image=img, pose=record.states[t], index=t)


def aggregate_gradients_bev(grads, counts, camera: CameraConfig,
                            scene: BevImage, patch: PatchState,
                            line_mask: np.ndarray) -> np.ndarray:
    """Average per-frame gradients on the patch grid.

    The images of the frames that saw the patch (nonzero footprint size)
    go through one pass of the exact warp/composite adjoint, each as one
    run over every pixel at its own pose, and the sum is divided by their
    number, so every such frame weighs 1.  Frames that never saw the
    patch contribute nothing; if no frame saw it, there is nothing to
    optimize.
    """
    if len(grads) != len(counts):
        raise InvalidArgumentError("grads and counts must align")
    seen = [(g.pose, [(np.arange(g.image.size), g.image.ravel())])
            for g, c in zip(grads, counts) if c]
    if not seen:
        raise NoVisibilityError("no frame in the horizon ever saw the patch")
    return splat_pixels(seen, camera, scene, patch, line_mask) / len(seen)


def rollout(state0: VehicleState, steers, params: VehicleParams):
    """Integrate a steering sequence; returns T+1 states and clamp flags."""
    states = [state0]
    clamped = []
    s = state0
    for d in steers:
        clamped.append(clamp_steer(float(d), params.max_steer) != float(d))
        s = step(s, float(d), params)
        states.append(s)
    return states, clamped


def image_to_ground(cfg: CameraConfig, pose: VehicleState, pixels):
    """Intersect pixel rays (..., 2) of (u, v) with the ground plane."""
    px = np.asarray(pixels, dtype=float)
    x_dir = (px[..., 0] - cfg.principal_point[0]) / cfg.focal
    y_dir = (px[..., 1] - cfg.principal_point[1]) / cfg.focal
    ct, st = math.cos(cfg.pitch), math.sin(cfg.pitch)
    denom = ct * y_dir + st
    if np.any(denom <= _DEPTH_EPS):
        raise NoGroundIntersectionError(
            "pixel ray does not reach the ground ahead of the camera")
    t = cfg.height / denom
    xf = t * (ct - st * y_dir)
    yf = t * (-x_dir)
    gx, gy = _vehicle_to_world(pose, xf, yf)
    return np.stack([gx, gy], axis=-1)


def load_bev(path) -> BevImage:
    meta = json.loads(_sidecar_path(path).read_text())
    if meta.get("kind") != "bev":
        raise InvalidArgumentError(f"{path} sidecar does not describe a scene")
    return BevImage(ColumnDraw.holding(read_pgm(path)),
                    meters_per_pixel=float(meta["meters_per_pixel"]),
                    origin=(float(meta["origin"][0]), float(meta["origin"][1])))


def read_trajectory_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in TRAJECTORY_FIELDS:
            row[key] = float(row[key]) if row[key] != "" else None
    return rows


# The bilinear kernel in its plain form: one expression per tap and per
# weight, with integer floors.  ``roadpatch.interp`` computes the same
# values with fewer passes and temporaries, and must stay bit-identical.

def taps(fi: np.ndarray, fj: np.ndarray, shape: tuple[int, int]):
    """Flat tap indices and weights for bilinear access at (fi, fj)."""
    n_i, n_j = shape
    i0 = np.clip(np.floor(fi), 0, max(n_i - 2, 0)).astype(np.intp)
    j0 = np.clip(np.floor(fj), 0, max(n_j - 2, 0)).astype(np.intp)
    # The +1 neighbors collapse onto the same cell for single-row or
    # single-column rasters; their weights are zero there, but the index
    # itself still has to stay inside the array.
    i1 = np.minimum(i0 + 1, n_i - 1)
    j1 = np.minimum(j0 + 1, n_j - 1)
    di = fi - i0
    dj = fj - j0
    w00 = (1.0 - di) * (1.0 - dj)
    w01 = (1.0 - di) * dj
    w10 = di * (1.0 - dj)
    w11 = di * dj
    return (i0 * n_j + j0, i0 * n_j + j1, i1 * n_j + j0, i1 * n_j + j1), \
        (w00, w01, w10, w11)


def combine(flat: np.ndarray, idx, w) -> np.ndarray:
    """Weighted sum of the four taps ``flat[idx[k]] * w[k]``, in tap order."""
    return (flat[idx[0]] * w[0] + flat[idx[1]] * w[1]
            + flat[idx[2]] * w[2] + flat[idx[3]] * w[3])


def accumulate(size: int, idx, w, values: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`combine`: add ``values * w[k]`` at ``idx[k]``."""
    out = np.zeros(size)
    for k in range(4):
        out += np.bincount(idx[k].ravel(),
                           weights=(values * w[k]).ravel(),
                           minlength=size)
    return out


def scatter(shape: tuple[int, int], fi: np.ndarray, fj: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """The adjoint of ``interp.gather`` over every point at once, as one
    ``bincount`` a tap: what the splat's per-block ``interp.scatter``
    sums must equal bit for bit."""
    idx, w = taps(fi, fj, shape)
    return accumulate(shape[0] * shape[1], idx, w, values).reshape(shape)


# The footprint with one flat index per pixel, and the gradient pass that
# builds every frame's pixel gradient first and splats them as one stack.
# The run-length tape and the streaming pass must match them bit for bit.

def footprint_band(cfg: CameraConfig, pose: VehicleState, rect):
    """Sorted flat indices of the pixels whose ground point lies inside
    ``rect``, and their ground points."""
    rows, _ = _window_seeing(cfg, pose, rect)
    width = cfg.image_size[0]
    parts = [(np.empty(0, np.intp), np.empty(0), np.empty(0))]
    for block in _blocks(rows.stop - rows.start, width):
        r0 = rows.start + block.start
        hit, gx, gy = _ground_hits(cfg, pose, rect,
                                   slice(r0, rows.start + block.stop))
        parts.append((np.flatnonzero(hit) + r0 * width, gx[hit], gy[hit]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def patch_pixels(whole: BevImage, cfg: CameraConfig, pose: VehicleState,
                 patch: PatchState):
    """The footprint's sorted flat indices, every column of the rows that
    see the patch tested, and the grays there of ``whole``, the patch's
    ``composite_patch``, read at once with the plain kernel."""
    pixels, gx, gy = footprint_band(cfg, pose, patch.placement.rect)
    fi, fj, valid = _ground_index(whole, gx, gy, True)
    raster = whole.pixels
    grays = combine(raster.ravel(), *taps(fi, fj, raster.shape))
    return pixels, np.where(valid, grays, 0.0)


def composite_adjoint(local_grad, row0, col0, scene, patch, line_mask):
    """The composite adjoint of a window gradient, whose first pixel is
    scene pixel ``(row0, col0)``: the replaced pixels are the pixel
    centres in the patch's rect off the lane lines, row-major."""
    shape = patch.values.shape
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    rows, cols = np.nonzero(~line_mask[i_lo:i_hi + 1, j_lo:j_hi + 1])
    rows, cols = rows + i_lo, cols + j_lo
    idx, w = taps(*_patch_fractional(scene, patch, rows, cols), shape)
    return accumulate(shape[0] * shape[1], idx, w,
                      local_grad[rows - row0, cols - col0]).reshape(shape)


def stacked_splat(grads, cfg: CameraConfig, scene: BevImage,
                  patch: PatchState, line_mask) -> np.ndarray:
    """Every frame's ``(pose, runs)`` splatted at once.  Each frame's runs
    are summed, in run order, into a zero image; its nonzero pixels whose
    ground point is sourced and lies within a scene pixel of the patch's
    index rectangle are stacked in frame and pixel order, scattered over
    the patch's window (its index rectangle grown by two pixels on each
    side, clipped at the raster's edge), then composited back once.
    Every pixel of the image is projected, not just those on the rows
    that can see the patch."""
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    n_i, n_j = scene.shape
    row0, col0 = max(i_lo - 2, 0), max(j_lo - 2, 0)
    window = (min(i_hi + 3, n_i) - row0, min(j_hi + 3, n_j) - col0)
    xf, yf, front = (a.ravel() for a in _vehicle_ground_grid(cfg))
    parts = [(np.empty(0), np.empty(0), np.empty(0))]
    for pose, runs in grads:
        image = np.zeros(front.size)
        for pixels, values in runs:
            image[pixels] += values
        pix = np.flatnonzero(image)
        fi, fj = scene.fractional_index(*_vehicle_to_world(pose, xf[pix],
                                                           yf[pix]))
        near = (front[pix] & interp.inside(fi, fj, scene.shape)
                & (fi > i_lo - 1.0) & (fi < i_hi + 1.0)
                & (fj > j_lo - 1.0) & (fj < j_hi + 1.0))
        parts.append((fi[near] - row0, fj[near] - col0, image[pix][near]))
    fi, fj, values = (np.concatenate(p) for p in zip(*parts))
    return composite_adjoint(scatter(window, fi, fj, values), row0, col0,
                             scene, patch, line_mask)


def stacked_patch_gradient(record: RolloutRecord, cfg: AttackConfig,
                           pipe: PipelineConfig, scene: BevImage,
                           patch: PatchState, line_mask) -> np.ndarray:
    """The gradient pass over a list of every frame's pixel gradients,
    splatted at once, divided by the number of frames."""
    upstream = _path_upstream(cfg, pipe, pipe.controller.decision_points)
    support = support_set(pipe.detector, pipe.camera).pixels
    grads = []
    for state, tape in zip(record.states, record.tapes):
        if not tape.grays.size:
            continue
        path = support_gradient(tape.responses, upstream, pipe.detector,
                                pipe.camera)
        stealth = _stealth_gradient(tape, cfg.lambda_reg, patch.base_value)
        grads.append((state, [(support, path), (tape.pixels, stealth)]))
    return stacked_splat(grads, pipe.camera, scene, patch,
                         line_mask) / len(grads)


def row_runs(pixels: np.ndarray, width: int) -> np.ndarray:
    """Sorted flat pixel indices as ``(start, stop)`` runs, one per stretch
    of consecutive indices within an image row."""
    if not pixels.size:
        return np.empty((0, 2), np.intp)
    breaks = np.flatnonzero((np.diff(pixels) != 1)
                            | (pixels[1:] % width == 0)) + 1
    starts = np.concatenate(([0], breaks))
    stops = np.append(breaks, pixels.size)
    return np.stack([pixels[starts], pixels[stops - 1] + 1], axis=1)


# The scene over the whole width of its grid, in one draw of the texture.
# A production scene renders a window of these columns and must hold
# exactly their bits.

def render_road_bev(road: RoadSpec, extent, meters_per_pixel: float,
                    seed: int) -> BevImage:
    """The road rasterized over all of ``extent``."""
    n_x, n_y, origin = _grid(extent, meters_per_pixel)
    ys = origin[1] + np.arange(n_y) * meters_per_pixel
    line_cols = _line_columns(road, ys)
    if road.texture_noise_amp > 0.0:
        rng = np.random.default_rng(seed)
        pixels = rng.uniform(-road.texture_noise_amp, road.texture_noise_amp,
                             size=(n_x, n_y))
        pixels += road.asphalt_intensity
        np.clip(pixels, 0.0, 1.0, out=pixels)
    else:
        pixels = np.full((n_x, n_y), road.asphalt_intensity)
    pixels[:, line_cols] = road.line_intensity
    return BevImage(ColumnDraw.holding(pixels),
                    meters_per_pixel=meters_per_pixel, origin=origin)


def lane_line_mask(road: RoadSpec, extent,
                   meters_per_pixel: float) -> np.ndarray:
    """The line mask over all of ``extent``."""
    n_x, n_y, origin = _grid(extent, meters_per_pixel)
    ys = origin[1] + np.arange(n_y) * meters_per_pixel
    return np.broadcast_to(_line_columns(road, ys), (n_x, n_y)).copy()


# A 0.25 m raster whose pixel centres and half-pixel points are exact in
# binary, rendered as production renders it, and two patch strips over
# its whole length, flush against its first and last rows and one side's
# column each: fractional indices land exactly on the raster's edges.
EDGE_MPP = 0.25
EDGE_EXTENT = (0.0, 70.0, -34.0, 34.0)
EDGE_STRIPS = [PatchPlacement(0.0, -32.0, 4.0, 70.0, margin=0.0),
               PatchPlacement(0.0, 32.0, 4.0, 70.0, margin=0.0)]


def edge_scene() -> tuple[BevImage, np.ndarray]:
    """The edge raster and its line mask."""
    road = RoadSpec(road_length=70.0)
    return (roadpatch.scene.render_road_bev(road, EDGE_EXTENT, EDGE_MPP, 3),
            lane_line_mask(road, EDGE_EXTENT, EDGE_MPP))
