"""Pinhole ground-plane imaging: BEV-to-camera warp and its exact adjoint.

The camera sits at the vehicle reference point, ``height`` meters above
the road, pitched down by ``pitch`` radians, optical axis otherwise
aligned with the vehicle heading.  Image coordinates are (u right,
v down) with pixel centers at integer positions.

Camera-frame axes are x right, y down, z forward, so a vehicle-frame
ground point (x_f forward, y_f left) maps to::

    x_c = -y_f
    y_c = -x_f sin(pitch) + height cos(pitch)
    z_c =  x_f cos(pitch) + height sin(pitch)

and projects at ``u = u0 + f x_c / z_c``, ``v = v0 + f y_c / z_c``.
Everything here is plain float64 numpy; the warp is a bilinear gather
from the BEV raster and the splat is its literal transpose, sharing one
tap computation so the adjoint identity holds to round-off.  Ground
points and raster indices are elementwise, with each sum in the order
written (``pose.x + c xf - s yf``), and ``interp`` keeps its tap sums
in order too; so a pixel gets the same bits from the whole frame, the
detector's support, a footprint or a block, and so does its splat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import interp
from .errors import (
    IncompleteModelInputError,
    InvalidArgumentError,
    NoGroundIntersectionError,
)
from .motion import VehicleState
from .scene import (
    BevImage,
    PatchState,
    _rect_index_ranges,
    composite_adjoint_local,
    composite_taps,
)

_DEPTH_EPS = 1e-9

# Points per block of a large bilinear read (a whole frame, a patch
# footprint), so that each 64 KB temporary of a block stays in cache and
# the heap reuses it.  On a 2-core Xeon (glibc malloc), warping every
# frame of a fresh 200-frame highway-72 run took 3k minor page faults and
# 1.5 s in 8192-point blocks, 126k in 16000-point ones, 271k in
# 20480-point ones, and 1.2M and 4.4 s unblocked.
_BLOCK = 8192

# Warp pose envelope: lateral offset (m) and heading error (rad) the warp
# accepts before declaring the query outside its supported regime.
MAX_LATERAL = 3.0
MAX_HEADING = 0.2


@dataclass(frozen=True)
class CameraConfig:
    focal: float = 500.0
    principal_point: tuple[float, float] = (320.0, 240.0)
    height: float = 1.2
    pitch: float = 0.052
    image_size: tuple[int, int] = (640, 480)          # (width, height)
    model_input_rect: tuple[int, int, int, int] = (64, 224, 512, 256)

    def __post_init__(self):
        if self.focal <= 0.0:
            raise InvalidArgumentError("focal must be positive")
        if self.height <= 0.0:
            raise InvalidArgumentError("camera height must be positive")
        if not 0.0 <= self.pitch < 0.5 * math.pi:
            raise InvalidArgumentError("pitch must lie in [0, pi/2)")
        w, h = self.image_size
        if w < 1 or h < 1:
            raise InvalidArgumentError("image_size must be positive")
        rx, ry, rw, rh = self.model_input_rect
        if rw < 1 or rh < 1 or rx < 0 or ry < 0 or rx + rw > w or ry + rh > h:
            raise InvalidArgumentError(
                "model_input_rect must fit inside the image")


@dataclass
class Frame:
    """Camera image warped from the BEV scene at a given pose."""

    pixels: np.ndarray   # (H, W) gray, zero where not sourced from the BEV
    pose: VehicleState
    index: int = 0


def _world_to_vehicle(pose: VehicleState, gx, gy):
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    dx = np.asarray(gx) - pose.x
    dy = np.asarray(gy) - pose.y
    return c * dx + s * dy, -s * dx + c * dy


def _vehicle_to_world(pose: VehicleState, xf, yf):
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    gx = xf * c
    gx += pose.x
    gx -= yf * s
    gy = xf * s
    gy += pose.y
    gy += yf * c
    return gx, gy


def ground_to_image(cfg: CameraConfig, pose: VehicleState, points):
    """Project road-frame ground points (..., 2) to pixel (u, v) arrays."""
    pts = np.asarray(points, dtype=float)
    xf, yf = _world_to_vehicle(pose, pts[..., 0], pts[..., 1])
    ct, st = math.cos(cfg.pitch), math.sin(cfg.pitch)
    z_c = xf * ct + cfg.height * st
    if np.any(z_c <= _DEPTH_EPS):
        raise NoGroundIntersectionError(
            "ground point at or behind the camera plane")
    x_c = -yf
    y_c = -xf * st + cfg.height * ct
    u = cfg.principal_point[0] + cfg.focal * x_c / z_c
    v = cfg.principal_point[1] + cfg.focal * y_c / z_c
    return u, v


@lru_cache(maxsize=8)
def _vehicle_ground_grid(cfg: CameraConfig):
    """Per-pixel ground hits in the vehicle frame (pose-independent).

    Returns (xf, yf, front) image-shaped arrays; ``front`` is False where
    the ray leaves the camera at or above the horizon.
    """
    w, h = cfg.image_size
    u = np.arange(w, dtype=float)[None, :]
    v = np.arange(h, dtype=float)[:, None]
    x_dir = np.broadcast_to((u - cfg.principal_point[0]) / cfg.focal, (h, w))
    y_dir = np.broadcast_to((v - cfg.principal_point[1]) / cfg.focal, (h, w))
    ct, st = math.cos(cfg.pitch), math.sin(cfg.pitch)
    denom = ct * y_dir + st
    front = denom > _DEPTH_EPS
    t = cfg.height / np.where(front, denom, np.inf)
    xf = t * (ct - st * y_dir)
    yf = -t * x_dir
    return xf, yf, front


@lru_cache(maxsize=8)
def _first_ground_row(cfg: CameraConfig) -> int:
    """First image row whose rays meet the ground; every row above it is
    at or over the horizon (``front`` depends on the row only)."""
    rows = np.flatnonzero(_vehicle_ground_grid(cfg)[2][:, 0])
    return int(rows[0]) if rows.size else cfg.image_size[1]


def pixel_ground_points(cfg: CameraConfig, pose: VehicleState):
    """Road-frame ground hit of every pixel plus a front-of-camera mask."""
    xf, yf, front = _vehicle_ground_grid(cfg)
    gx, gy = _vehicle_to_world(pose, xf, yf)
    return gx, gy, front


def check_pose_bounds(pose: VehicleState) -> None:
    if abs(pose.y) > MAX_LATERAL or abs(pose.heading) > MAX_HEADING:
        raise InvalidArgumentError(
            f"pose (y={pose.y:.3f} m, heading={pose.heading:.4f} rad) outside "
            f"the supported envelope (|y|<={MAX_LATERAL}, "
            f"|heading|<={MAX_HEADING})")


def _ground_index(bev: BevImage, gx, gy, front):
    """Fractional scene indices of ground points, clamped into the raster,
    and whether each point is sourced: in front and inside the raster."""
    fi, fj = bev.fractional_index(gx, gy)
    n_i, n_j = bev.shape
    valid = front & interp.inside(fi, fj, (n_i, n_j))
    return np.clip(fi, 0.0, n_i - 1), np.clip(fj, 0.0, n_j - 1), valid


def _sample_ground(bev: BevImage, fi, fj, valid):
    """Bilinear scene values at the clamped scene indices ``fi``, ``fj``
    (:func:`_ground_index`), zero where not ``valid``: one read of the
    scene's grays, which draws the columns it touches first.  During a
    patched run the patch's tile is written into those grays
    (:func:`~roadpatch.scene.overlay`), so the read sees the patch.
    Every step is elementwise, so any subset of pixels gets exactly the
    values the full-image warp gives them.
    """
    values = bev.gather(fi, fj)
    values[~valid] = 0.0
    return values


@lru_cache(maxsize=8)
def _rect_corners(cfg: CameraConfig):
    """Vehicle-frame ground hits ``(xf, yf, front)`` of the model-input
    rect's four corner pixels, as tuples of Python floats and bools."""
    rx, ry, rw, rh = cfg.model_input_rect
    rows = [ry, ry, ry + rh - 1, ry + rh - 1]
    cols = [rx, rx + rw - 1, rx, rx + rw - 1]
    return tuple(tuple(a[rows, cols].tolist())
                 for a in _vehicle_ground_grid(cfg))


def model_input_gaps(cfg: CameraConfig, pose: VehicleState, x0: float,
                     mpp: float, n_rows: int) -> tuple[bool, bool]:
    """Whether the model input at ``pose`` reads past the rows behind, or
    past the rows ahead, of a raster of ``n_rows`` rows of pitch ``mpp``
    whose first row is centred at ground ``x = x0``.

    Decided from the rect's four corner pixels; one at or above the
    horizon reads past the rows ahead.  ``front`` is a per-row property,
    so the rect lies below the horizon iff its top corners do.  There the
    pixel-to-ground map is projective: it takes the rect onto the convex
    quadrilateral spanned by the corners' ground points, and the sourced
    rows (between the raster's first and last pixel centres) are convex
    too.  The four points are tested in Python floats, with the IEEE
    double operations of :func:`_vehicle_to_world` and
    ``fractional_index``.  The columns a rollout reads are the detector
    support's, tested where it is warped (:func:`warp_bev_to_points`).
    """
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    x = float(pose.x)
    behind = ahead = False
    for xf, yf, front in zip(*_rect_corners(cfg)):
        fi = (x + c * xf - s * yf - x0) / mpp
        behind |= front and not fi >= 0.0
        ahead |= not front or not fi <= n_rows - 1
    return behind, ahead


def lateral_reach(xf: np.ndarray, yf: np.ndarray) -> float:
    """How far to either side of the lane centre the vehicle-frame ground
    points ``(xf, yf)`` reach at any pose the warp accepts.  A point
    ``r (cos a, sin a)`` lies ``r sin(a + heading)`` to the side of the
    vehicle; over the headings that is at most ``r sin(|a| + MAX_HEADING)``
    while that angle stays below a right angle, and ``r`` past it."""
    turn = np.minimum(np.abs(np.arctan2(yf, xf)) + MAX_HEADING, 0.5 * math.pi)
    return MAX_LATERAL + float(np.max(np.hypot(xf, yf) * np.sin(turn)))


def model_input_reach(cfg: CameraConfig) -> float:
    """How far down the road the model input sees at the worst heading the
    warp accepts (inf above the horizon).  Its farthest ground point is a
    corner ``r (cos a, sin a)``, which lies ``r cos(a + heading)`` ahead."""
    xf, yf, front = _rect_corners(cfg)
    turn = np.maximum(np.abs(np.arctan2(yf, xf)) - MAX_HEADING, 0.0)
    far = np.hypot(xf, yf) * np.cos(turn)
    return float(np.max(np.where(front, far, np.inf)))


def _blocks(n: int, per: int = 1):
    """Slices over ``n`` rows of ``per`` points each, about ``_BLOCK``
    points to a slice."""
    step = max(_BLOCK // per, 1)
    return (slice(r, min(r + step, n)) for r in range(0, n, step))


def warp_bev_to_camera(bev: BevImage, cfg: CameraConfig, pose: VehicleState,
                       *, index: int = 0) -> Frame:
    """Render the camera view of the BEV scene at ``pose``: the values
    :func:`warp_bev_to_points` gives every row below the horizon, with
    the rows above it zero, as is every pixel whose ground point lies
    outside the raster (past the road's end, or beside a column window).

    The rows are warped in blocks (``_blocks``), each one read of the
    scene's grays, which during a patched run hold the patch's tile.
    """
    _check_sourced(bev, cfg, pose)
    xf, yf, front = _vehicle_ground_grid(cfg)
    h, w = front.shape
    r0 = _first_ground_row(cfg)
    pixels = np.zeros((h, w))
    for block in _blocks(h - r0, w):
        rows = slice(r0 + block.start, r0 + block.stop)
        gx, gy = _vehicle_to_world(pose, xf[rows], yf[rows])
        pixels[rows] = _sample_ground(bev, *_ground_index(bev, gx, gy,
                                                          front[rows]))
    return Frame(pixels=pixels, pose=pose, index=index)


def _pose_text(pose: VehicleState) -> str:
    return f"(x={pose.x:.1f}, y={pose.y:.2f}, heading={pose.heading:.3f})"


def _check_sourced(bev: BevImage, cfg: CameraConfig,
                   pose: VehicleState) -> None:
    """Refuse a pose outside the warp envelope, or one whose model input
    reads past the raster's rows (the detector contract requires a fully
    sourced crop)."""
    check_pose_bounds(pose)
    if any(model_input_gaps(cfg, pose, bev.origin[0], bev.meters_per_pixel,
                            bev.shape[0])):
        raise IncompleteModelInputError(
            "some model-input pixels have no BEV source at pose "
            + _pose_text(pose))


def warp_bev_to_points(bev: BevImage, cfg: CameraConfig, pose: VehicleState,
                       xf: np.ndarray, yf: np.ndarray,
                       front: np.ndarray) -> np.ndarray:
    """Warp the BEV scene onto the pixels whose vehicle-frame ground points
    (``_vehicle_ground_grid`` entries) are given: in a rollout, the
    detector's support.

    Each pixel's ray is intersected with the ground plane and the scene is
    sampled bilinearly there; pixels at or above the horizon are zero.
    The pose must lie in the warp envelope, the model input must read
    inside the raster's rows, and every pixel asked for in front of the
    camera must have a scene source; a pose at which one has none is
    refused, so a raster narrower than the detector's reach (a column
    window cut for another detector) cannot feed it zeros.
    """
    _check_sourced(bev, cfg, pose)
    gx, gy = _vehicle_to_world(pose, xf, yf)
    fi, fj, valid = _ground_index(bev, gx, gy, front)
    if np.count_nonzero(valid) != np.count_nonzero(front):
        raise IncompleteModelInputError(
            "some detector-support pixels have no BEV source at pose "
            + _pose_text(pose))
    return _sample_ground(bev, fi, fj, valid)


def _window_seeing(cfg: CameraConfig, pose: VehicleState,
                   rect) -> tuple[slice, slice]:
    """The image rows and the image columns whose ground points can fall
    inside ``rect``, from one projection of its four corners.

    Every pixel of a row lies the same distance ahead of the vehicle, and
    every point of the rect lies between its corners' distances ahead, so
    only rows in that range can hit it; one row of margin on each side
    absorbs round-off.

    The columns are clipped to the image (possibly none).  When the
    rect's four corners lie in front of the camera, the rect projects
    onto the convex hull of theirs, so only columns between their
    projections' smallest and largest ``u`` can see it; one column of
    margin before and two past absorb round-off.  Otherwise the rect
    reaches behind the camera, its projection is unbounded, and every
    column is kept.
    """
    x_lo, x_hi, y_lo, y_hi = rect
    ahead, left = _world_to_vehicle(pose, np.array([x_lo, x_lo, x_hi, x_hi]),
                                    np.array([y_lo, y_hi, y_lo, y_hi]))
    r0 = _first_ground_row(cfg)
    back = -_vehicle_ground_grid(cfg)[0][r0:, 0]     # increases down the image
    a = int(np.searchsorted(back, -ahead.max(), side="left"))
    b = int(np.searchsorted(back, -ahead.min(), side="right"))
    rows = slice(r0 + max(a - 1, 0), r0 + min(b + 1, back.size))
    width = cfg.image_size[0]
    depth = ahead * math.cos(cfg.pitch) + cfg.height * math.sin(cfg.pitch)
    if not np.all(depth > _DEPTH_EPS):
        return rows, slice(0, width)
    u = cfg.principal_point[0] - cfg.focal * left / depth
    start = min(max(math.floor(u.min()) - 1, 0), width)
    return rows, slice(start, min(max(math.ceil(u.max()) + 2, start), width))


def _ground_hits(cfg: CameraConfig, pose: VehicleState, rect, rows,
                 cols=slice(None)):
    """Which pixels of the block ``rows`` x ``cols`` have their ground point
    inside ``rect``, and the block's ground points."""
    xf, yf, front = _vehicle_ground_grid(cfg)
    gx, gy = _vehicle_to_world(pose, xf[rows, cols], yf[rows, cols])
    x_lo, x_hi, y_lo, y_hi = rect
    hit = (front[rows, cols] & (gx >= x_lo) & (gx <= x_hi)
           & (gy >= y_lo) & (gy <= y_hi))
    return hit, gx, gy


def _footprint_band(cfg: CameraConfig, pose: VehicleState, rect):
    """The pixels whose ground point lies inside ``rect``, as row runs,
    and their ground points in row-major order, found on the rows and
    columns that can see it (:func:`_window_seeing`) in blocks
    (``_blocks``).

    A run is the ``(start, stop)`` flat indices of one row's hits.  In a
    row, ``xf`` and ``front`` are constant and ``yf`` falls with the
    column; :func:`_vehicle_to_world` and the four rect tests are
    monotone under round-to-nearest, so a row's hits are one interval.
    Each tested pixel's test and ground point are the whole row's, so
    the columns left out change no run and no bit.
    """
    rows, cols = _window_seeing(cfg, pose, rect)
    width = cfg.image_size[0]
    if cols.start == cols.stop:
        return np.empty((0, 2), np.intp), np.empty(0), np.empty(0)
    first, count = (np.empty(rows.stop - rows.start, np.intp)
                    for _ in range(2))
    parts = [(np.empty(0), np.empty(0))]
    for block in _blocks(rows.stop - rows.start, cols.stop - cols.start):
        hit, gx, gy = _ground_hits(cfg, pose, rect,
                                   slice(rows.start + block.start,
                                         rows.start + block.stop), cols)
        hit.argmax(axis=1, out=first[block])
        np.add.reduce(hit, axis=1, dtype=np.intp, out=count[block])
        parts.append((gx[hit], gy[hit]))
    seen = np.flatnonzero(count)
    start = (seen + rows.start) * width + cols.start + first[seen]
    gx, gy = (np.concatenate(p) for p in zip(*parts))
    return np.stack([start, start + count[seen]], axis=1), gx, gy


def run_pixels(runs: np.ndarray) -> np.ndarray:
    """The sorted flat image indices that the row runs ``runs`` cover."""
    lengths = runs[:, 1] - runs[:, 0]
    ends = np.cumsum(lengths)
    return (np.repeat(runs[:, 0] - (ends - lengths), lengths)
            + np.arange(ends[-1] if ends.size else 0))


def model_input_sees(cfg: CameraConfig, pose: VehicleState, rect) -> bool:
    """Whether any model-input pixel has its ground point inside ``rect``;
    only the model-input block of the rows that can see it is tested."""
    rows, _ = _window_seeing(cfg, pose, rect)
    rx, ry, rw, rh = cfg.model_input_rect
    block = slice(max(rows.start, ry), min(rows.stop, ry + rh))
    return bool(_ground_hits(cfg, pose, rect, block,
                             slice(rx, rx + rw))[0].any())


def patch_footprint(cfg: CameraConfig, pose: VehicleState,
                    patch: PatchState) -> np.ndarray:
    """Image mask of pixels whose ground point lies inside the patch rect."""
    mask = np.zeros(cfg.image_size[::-1], dtype=bool)
    runs = _footprint_band(cfg, pose, patch.placement.rect)[0]
    mask.ravel()[run_pixels(runs)] = True
    return mask


def patch_pixels(bev: BevImage, cfg: CameraConfig, pose: VehicleState,
                 patch: PatchState) -> tuple[np.ndarray, np.ndarray]:
    """The patch footprint as row runs (``(start, stop)`` flat image
    indices, one per row it covers, in row order), and the warped grays
    of its pixels in that order.

    ``run_pixels`` of the runs equals ``np.flatnonzero(patch_footprint(...))``
    and the grays are the dense warp's of ``bev``, but no image-sized
    array is built.  During a patched run the scene's grays hold the
    patch's tile (:func:`~roadpatch.scene.overlay`), so the grays are the
    patched ones.  They are read from the scene in blocks (``_blocks``),
    with the taps, weights, clamp and validity test of the support and
    the dense warp (:func:`_sample_ground`): the patch rectangle may
    reach half a pixel past the raster's outer pixel centres, and such a
    point is clamped into the raster, zero where it has no source.
    """
    runs, gx, gy = _footprint_band(cfg, pose, patch.placement.rect)
    grays = np.empty(gx.shape)
    for block in _blocks(gx.size):
        grays[block] = _sample_ground(bev, *_ground_index(
            bev, gx[block], gy[block], True))
    return runs, grays


def splat_camera_to_bev(grad_image: np.ndarray, cfg: CameraConfig,
                        pose: VehicleState, scene: BevImage, patch: PatchState,
                        line_mask: np.ndarray) -> np.ndarray:
    """Pull an image-space gradient back onto the patch grid.

    Exact adjoint of ``warp(composite(patch))`` as a linear map in the
    patch values: :func:`splat_pixels` of one frame with one run over
    every pixel.
    """
    if grad_image.shape != tuple(reversed(cfg.image_size)):
        raise InvalidArgumentError("grad_image shape must match the camera image")
    run = (np.arange(grad_image.size), grad_image.ravel())
    return splat_pixels([(pose, [run])], cfg, scene, patch, line_mask)


def splat_pixels(grads, cfg: CameraConfig, scene: BevImage, patch: PatchState,
                 line_mask: np.ndarray) -> np.ndarray:
    """Pull sparse image-space gradients back onto the patch grid: the sum
    of every frame's patch-grid gradient.

    ``grads`` is an iterable of one ``(pose, runs)`` pair per frame.  Each
    run is a ``(pixels, values)`` pair of sorted distinct flat image
    indices and the gradient there; a frame's gradient is the sum of its
    runs, zero at every other pixel.  A pass reads one frame at a time.

    Only pixels on the rows that see the patch's scene rectangle grown by
    one scene pixel can have a tap inside it.  Each frame's runs are
    summed, in run order, into a zero buffer over those rows.  The
    buffer's nonzero pixels whose ground point is sourced and lies within
    a scene pixel of the rectangle are found in blocks (``_blocks``), at
    the scene indices the warp reads (:func:`_ground_index`, whose clamp
    leaves a sourced point as it is), and splatted, the warp taps
    transposed into four per-tap sums over the patch's window
    (:func:`~roadpatch.interp.scatter`, one block at a time) that every
    frame adds to, whose :func:`~roadpatch.interp.total` is taken at the
    pass's end; then the composite resampling is transposed onto the patch
    raster, once.  The window and its taps (``composite_taps``) are
    computed once; the window is clipped at the raster's edge, as the
    warp's taps are, so the sums are the whole-raster transpose's.
    A pixel in two runs holds ``(0 + a) + b``, which is ``a + b``.  A
    pixel left out holds ±0, which adds nothing to a tap sum that starts
    at +0, and the rest keep their row-major order, so one frame is
    bit-identical to splatting the whole image that holds its runs' sum;
    summing frames before the composite adjoint moves a pass at round-off.
    """
    width = cfg.image_size[0]
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    mpp, ox = scene.meters_per_pixel, scene.origin[0]
    grown = (ox + (i_lo - 1) * mpp, ox + (i_hi + 1) * mpp,
             scene.column_y(j_lo - 1), scene.column_y(j_hi + 1))
    (row0, col0, window), taps = composite_taps(scene, patch, line_mask)
    xf, yf, front = (a.ravel() for a in _vehicle_ground_grid(cfg))
    # One band buffer for the pass, as long as every row below the
    # horizon, and one set of tap sums: frame-sized buffers allocated per
    # frame let glibc malloc trim the heap between frames.
    band_buf = np.empty(front.size - _first_ground_row(cfg) * width)
    sums = np.zeros((4, *window))
    for pose, runs in grads:
        rows, _ = _window_seeing(cfg, pose, grown)
        start, stop = rows.start * width, rows.stop * width
        band = band_buf[:stop - start]
        band[:] = 0.0
        for pixels, values in runs:
            a, b = np.searchsorted(pixels, (start, stop))
            band[pixels[a:b] - start] += values[a:b]
        kept = np.flatnonzero(band)
        for block in _blocks(kept.size):
            pix = kept[block] + start
            bi, bj, valid = _ground_index(scene, *_vehicle_to_world(
                pose, xf[pix], yf[pix]), front[pix])
            near = (valid & (bi > i_lo - 1.0) & (bi < i_hi + 1.0)
                    & (bj > j_lo - 1.0) & (bj < j_hi + 1.0))
            interp.scatter(sums, bi[near] - row0, bj[near] - col0,
                           band[kept[block][near]])
    return composite_adjoint_local(interp.total(sums), taps)
