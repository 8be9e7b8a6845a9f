"""Reference helpers only the tests use.

Each is written from the package's own pieces, so a check built on one
still exercises production code: the plant's ``step``, the camera model's
constants, the detector's and the splat's gradients, the PGM reader, and
the trajectory CSV's field list.  The exceptions are the bilinear kernel
(``taps``, ``combine``, ``accumulate``, ``scatter``), a plain, unfused
form of ``roadpatch.interp``'s whose writes are one ``bincount`` a tap,
not ``interp``'s ``np.add.at``, the footprint and gradient pass in the form
that keeps one flat index per footprint pixel and stacks every frame's
splat (``footprint_band`` to ``stacked_patch_gradient``), whose
footprint grays are read from ``composite_patch``'s whole raster with
the plain kernel, not from the overlaid scene, and the full-width scene
(``render_road_bev``, ``lane_line_mask``) that the production scene is a
column window of; production must match all three bit for bit.  A raster
given whole here (``load_bev``, ``render_road_bev``) is held whole, by
``ColumnDraw.holding``, as production holds a composited raster.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from roadpatch import interp
from roadpatch.artifacts import TRAJECTORY_FIELDS
from roadpatch.attack import (
    AttackConfig,
    PipelineConfig,
    RolloutRecord,
    _mean,
    _path_upstream,
    _stealth_gradient,
)
from roadpatch.camera import (
    _DEPTH_EPS,
    CameraConfig,
    _blocks,
    _ground_hits,
    _ground_index,
    _rows_seeing,
    _vehicle_ground_grid,
    _vehicle_to_world,
    splat_camera_to_bev,
)
from roadpatch.detector import detector_gradient, support_gradient, support_set
from roadpatch.errors import InvalidArgumentError, NoGroundIntersectionError
from roadpatch.motion import VehicleParams, VehicleState, clamp_steer, step
from roadpatch.pgmio import _sidecar_path, read_pgm
from roadpatch.scene import (
    BevImage,
    ColumnDraw,
    PatchState,
    RoadSpec,
    _composite_indices,
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
    rows = _rows_seeing(cfg, pose, rect)
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


def stacked_composite_adjoint(local_grad, row0, col0, scene, patch,
                              line_mask):
    """The composite adjoint of a stack of scene-rectangle gradients."""
    shape = patch.values.shape
    out = np.zeros((local_grad.shape[0], shape[0] * shape[1]))
    rows, cols = _composite_indices(scene, patch, line_mask)
    if rows.size:
        idx, w = taps(*_patch_fractional(scene, patch, rows, cols), shape)
        rows, cols = rows - row0, cols - col0
        for k, g in enumerate(local_grad):
            out[k] = accumulate(out.shape[1], idx, w, g[rows, cols])
    return out.reshape((-1,) + shape)


def stacked_splat(grads, cfg: CameraConfig, scene: BevImage,
                  patch: PatchState, line_mask) -> np.ndarray:
    """Every frame's ``(pose, runs)`` splatted into one stack of
    scene-rectangle gradients, then composited back as one stack."""
    width = cfg.image_size[0]
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    mpp, ox = scene.meters_per_pixel, scene.origin[0]
    grown = (ox + (i_lo - 1) * mpp, ox + (i_hi + 1) * mpp,
             scene.column_y(j_lo - 1), scene.column_y(j_hi + 1))
    row0, col0 = i_lo - 2, j_lo - 2
    local = np.zeros((len(grads), i_hi - i_lo + 5, j_hi - j_lo + 5))
    xf, yf, front = (a.ravel() for a in _vehicle_ground_grid(cfg))
    for k, (pose, runs) in enumerate(grads):
        rows = _rows_seeing(cfg, pose, grown)
        start, stop = rows.start * width, rows.stop * width
        band = np.zeros(stop - start)
        for pixels, values in runs:
            a, b = np.searchsorted(pixels, (start, stop))
            band[pixels[a:b] - start] += values[a:b]
        kept = np.flatnonzero(band)
        pix = kept + start
        fi, fj = scene.fractional_index(*_vehicle_to_world(pose, xf[pix],
                                                           yf[pix]))
        near = (front[pix] & interp.inside(fi, fj, scene.shape)
                & (fi > i_lo - 1.0) & (fi < i_hi + 1.0)
                & (fj > j_lo - 1.0) & (fj < j_hi + 1.0))
        local[k] = scatter(local.shape[1:], fi[near] - row0,
                           fj[near] - col0, band[kept][near])
    return stacked_composite_adjoint(local, row0, col0, scene, patch,
                                     line_mask)


def stacked_patch_gradient(record: RolloutRecord, cfg: AttackConfig,
                           pipe: PipelineConfig, scene: BevImage,
                           patch: PatchState, line_mask) -> np.ndarray:
    """The gradient pass over a list of every frame's pixel gradients and
    their stacked splat, averaged over the stack."""
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
    splats = stacked_splat(grads, pipe.camera, scene, patch, line_mask)
    acc = np.zeros_like(splats[0])
    for s in splats:
        acc += s
    return acc / len(splats)


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
