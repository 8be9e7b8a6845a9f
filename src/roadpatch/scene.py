"""Bird's-eye-view road rendering and patch compositing.

The scene is a gray-scale raster of a straight two-line lane viewed from
above.  Geometry lives in road coordinates: x forward along the lane,
y positive to the left, units in meters.  Raster rows follow x and
columns follow y; ``origin`` is the ground position of the center of
pixel (0, 0).

A road patch is an independently rastered gray rectangle that is
resampled onto the scene grid when composited.  Lane-line pixels are
never overwritten, so a patch can darken or brighten pavement but cannot
repaint the markings themselves.  The composited grays live in a small
:class:`PatchTile` laid over the unchanged scene raster, so a patched
scene costs the patch's area, not a copy of the scene.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

import numpy as np

from . import interp
from .errors import InvalidArgumentError, OutOfExtentError

# Nudge applied when mapping rectangle edges to pixel-center ranges so that
# edges falling exactly on a center are treated deterministically.
_EDGE_EPS = 1e-9


@dataclass(frozen=True)
class RoadSpec:
    """Geometry and appearance of the straight test road."""

    lane_width: float = 3.6
    lane_line_width: float = 0.15
    line_intensity: float = 0.90
    asphalt_intensity: float = 0.30
    texture_noise_amp: float = 0.02
    road_length: float = 270.0

    def __post_init__(self):
        if not 0.0 < self.lane_line_width < self.lane_width:
            raise InvalidArgumentError(
                "lane_line_width must be positive and smaller than lane_width")
        for name in ("line_intensity", "asphalt_intensity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} must lie in [0, 1]")
        if self.asphalt_intensity >= self.line_intensity:
            raise InvalidArgumentError(
                "asphalt_intensity must be darker than line_intensity")
        if self.texture_noise_amp < 0.0:
            raise InvalidArgumentError("texture_noise_amp must be >= 0")
        if self.road_length <= 0.0:
            raise InvalidArgumentError("road_length must be positive")


@dataclass(frozen=True)
class PatchTile:
    """The composited scene over a patch's index rectangle grown by two
    pixels on each side, clipped at the raster's edge: ``pixels[k, l]``
    is scene pixel ``(row0 + k, col0 + l)``.  ``rect`` is the ground
    rectangle its pixel centers span."""

    row0: int
    col0: int
    pixels: np.ndarray
    rect: tuple[float, float, float, float]


@dataclass
class BevImage:
    """Ground-plane raster with its resolution and placement metadata.

    A patched scene shares the ``pixels`` of the scene it was made from
    and carries the composited patch as ``tile``: where the tile covers
    a pixel, the patched scene's gray is the tile's, so ``pixels`` alone
    is the scene without the patch.
    """

    pixels: np.ndarray          # (n_x, n_y) float64 gray in [0, 1]
    meters_per_pixel: float
    origin: tuple[float, float]  # ground (x, y) of pixel (0, 0) center
    tile: PatchTile | None = None

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the covered ground rectangle."""
        return _raster_extent(*self.pixels.shape, self.origin,
                              self.meters_per_pixel)

    def fractional_index(self, gx: np.ndarray, gy: np.ndarray):
        """Raster coordinates of ground points (no bounds handling)."""
        fi = (np.asarray(gx) - self.origin[0]) / self.meters_per_pixel
        fj = (np.asarray(gy) - self.origin[1]) / self.meters_per_pixel
        return fi, fj


@dataclass(frozen=True)
class PatchPlacement:
    """Road-frame rectangle a patch occupies.

    ``center_y = 0`` is the lane center.  ``margin`` is the clearance that
    must separate the rectangle from the inner edge of either lane line.
    """

    start_x: float
    center_y: float
    width: float
    length: float
    margin: float = 0.15

    def __post_init__(self):
        if not np.isfinite(astuple(self)).all():
            raise InvalidArgumentError("patch placement must be finite")
        if self.width <= 0.0 or self.length <= 0.0:
            raise InvalidArgumentError("patch width and length must be positive")
        if self.margin < 0.0:
            raise InvalidArgumentError("patch margin must be >= 0")

    @property
    def rect(self) -> tuple[float, float, float, float]:
        return (self.start_x, self.start_x + self.length,
                self.center_y - 0.5 * self.width,
                self.center_y + 0.5 * self.width)


@dataclass
class PatchState:
    """Gray values of a patch on its own raster plus its bounds and placement;
    a patch with a gray outside ``[v_min, v_max]`` cannot be built."""

    values: np.ndarray          # (n_len, n_wid), rows along x
    grid_mpp: float
    v_min: float
    v_max: float
    base_value: float
    placement: PatchPlacement

    def __post_init__(self):
        if self.grid_mpp <= 0.0:
            raise InvalidArgumentError("patch grid_mpp must be positive")
        if not 0.0 <= self.v_min < self.v_max <= 1.0:
            raise InvalidArgumentError("need 0 <= v_min < v_max <= 1")
        if not self.v_min <= self.base_value <= self.v_max:
            raise InvalidArgumentError("base_value must lie within gray bounds")
        shape = _patch_shape(self.placement, self.grid_mpp)
        if self.values.shape != shape:
            raise InvalidArgumentError(
                f"patch raster has shape {self.values.shape}, but its "
                f"placement in {self.grid_mpp} m cells needs {shape}")
        if not self.v_min <= self.values.min() <= self.values.max() <= self.v_max:
            raise InvalidArgumentError("patch grays must lie in [v_min, v_max]")

    def with_values(self, values: np.ndarray) -> "PatchState":
        """Same patch, new grays (of the shape its placement needs)."""
        return replace(self, values=np.asarray(values, dtype=float))


def _patch_shape(placement: PatchPlacement, grid_mpp: float) -> tuple[int, int]:
    """Cells of a patch raster along x and across, at ``grid_mpp`` meters
    each: the placement's length and width rounded to whole cells."""
    return (max(int(round(placement.length / grid_mpp)), 1),
            max(int(round(placement.width / grid_mpp)), 1))


def uniform_patch(placement: PatchPlacement, grid_mpp: float, value: float,
                  v_min: float = 0.05, v_max: float = 0.60,
                  base_value: float | None = None) -> PatchState:
    """Patch filled with a single gray value (the optimization start state)."""
    return PatchState(values=np.full(_patch_shape(placement, grid_mpp),
                                     float(value)),
                      grid_mpp=grid_mpp, v_min=v_min, v_max=v_max,
                      base_value=value if base_value is None else base_value,
                      placement=placement)


def _line_columns(road: RoadSpec, ys: np.ndarray) -> np.ndarray:
    """Boolean column mask of lane-line coverage at lateral centers ``ys``.

    The edge test carries a small absolute tolerance so that a pixel
    center sitting exactly on a line edge is included on both sides of
    the road; without it, float rounding can paint the two lines with
    different widths and give the whole pipeline a lateral bias.
    """
    dist = np.abs(np.abs(ys) - 0.5 * road.lane_width)
    return dist <= 0.5 * road.lane_line_width + _EDGE_EPS


def _grid(extent, meters_per_pixel):
    x_min, x_max, y_min, y_max = extent
    if meters_per_pixel <= 0.0:
        raise InvalidArgumentError("meters_per_pixel must be positive")
    if x_max <= x_min or y_max <= y_min:
        raise InvalidArgumentError("extent must have positive area")
    n_x = int(round((x_max - x_min) / meters_per_pixel))
    n_y = int(round((y_max - y_min) / meters_per_pixel))
    if n_x < 1 or n_y < 1:
        raise InvalidArgumentError("extent smaller than one pixel")
    origin = (x_min + 0.5 * meters_per_pixel, y_min + 0.5 * meters_per_pixel)
    return n_x, n_y, origin


def _raster_extent(n_x: int, n_y: int, origin, meters_per_pixel: float):
    """Ground an ``n_x`` by ``n_y`` raster covers (its ``BevImage.extent``)."""
    half = 0.5 * meters_per_pixel
    return (origin[0] - half,
            origin[0] + (n_x - 1) * meters_per_pixel + half,
            origin[1] - half,
            origin[1] + (n_y - 1) * meters_per_pixel + half)


def _rect_leaves(rect, extent) -> bool:
    """Whether ``rect`` reaches past ``extent`` by more than the tolerance."""
    x_lo, x_hi, y_lo, y_hi = rect
    return (x_lo < extent[0] - _EDGE_EPS or x_hi > extent[1] + _EDGE_EPS
            or y_lo < extent[2] - _EDGE_EPS or y_hi > extent[3] + _EDGE_EPS)


def render_road_bev(road: RoadSpec, extent, meters_per_pixel: float,
                    seed: int) -> BevImage:
    """Rasterize the road over ``extent`` = (x_min, x_max, y_min, y_max).

    Lane lines are painted at exactly ``line_intensity`` wherever a pixel
    center falls on them; asphalt gets zero-mean texture noise drawn from
    ``seed`` and is clamped to [0, 1].  The same (road, extent, seed)
    always renders a bit-identical raster.
    """
    n_x, n_y, origin = _grid(extent, meters_per_pixel)
    ys = origin[1] + np.arange(n_y) * meters_per_pixel
    line_cols = _line_columns(road, ys)

    if road.texture_noise_amp > 0.0:
        # noise + asphalt == asphalt + noise bit for bit, so the raster is
        # built in the noise buffer without a second full-size array.
        rng = np.random.default_rng(seed)
        pixels = rng.uniform(-road.texture_noise_amp, road.texture_noise_amp,
                             size=(n_x, n_y))
        pixels += road.asphalt_intensity
        np.clip(pixels, 0.0, 1.0, out=pixels)
    else:
        pixels = np.full((n_x, n_y), road.asphalt_intensity)
    pixels[:, line_cols] = road.line_intensity
    return BevImage(pixels=pixels, meters_per_pixel=meters_per_pixel, origin=origin)


def lane_line_mask(road: RoadSpec, extent, meters_per_pixel: float) -> np.ndarray:
    """Boolean raster that is True exactly where rendering paints a line."""
    n_x, n_y, origin = _grid(extent, meters_per_pixel)
    ys = origin[1] + np.arange(n_y) * meters_per_pixel
    return np.broadcast_to(_line_columns(road, ys), (n_x, n_y)).copy()


def _rect_index_ranges(scene: BevImage, placement: PatchPlacement):
    """Scene row/column index ranges whose pixel centers fall in the rect."""
    x_lo, x_hi, y_lo, y_hi = placement.rect
    ex = scene.extent
    if _rect_leaves(placement.rect, ex):
        raise OutOfExtentError(
            f"patch rect x[{x_lo:.2f},{x_hi:.2f}] y[{y_lo:.2f},{y_hi:.2f}] "
            f"exceeds scene extent {tuple(round(v, 2) for v in ex)}")
    mpp = scene.meters_per_pixel
    i_lo = int(np.ceil((x_lo - scene.origin[0]) / mpp - _EDGE_EPS))
    i_hi = int(np.floor((x_hi - scene.origin[0]) / mpp + _EDGE_EPS))
    j_lo = int(np.ceil((y_lo - scene.origin[1]) / mpp - _EDGE_EPS))
    j_hi = int(np.floor((y_hi - scene.origin[1]) / mpp + _EDGE_EPS))
    return (max(i_lo, 0), min(i_hi, scene.pixels.shape[0] - 1),
            max(j_lo, 0), min(j_hi, scene.pixels.shape[1] - 1))


def _patch_fractional(scene: BevImage, patch: PatchState, rows, cols):
    """Fractional patch-grid indices of the given scene pixel centers."""
    mpp = scene.meters_per_pixel
    gx = scene.origin[0] + rows * mpp
    gy = scene.origin[1] + cols * mpp
    rect = patch.placement.rect
    p_ox = rect[0] + 0.5 * patch.grid_mpp
    p_oy = rect[2] + 0.5 * patch.grid_mpp
    fi = (gx - p_ox) / patch.grid_mpp
    fj = (gy - p_oy) / patch.grid_mpp
    n_len, n_wid = patch.values.shape
    return np.clip(fi, 0.0, n_len - 1), np.clip(fj, 0.0, n_wid - 1)


def _composite_indices(scene: BevImage, patch: PatchState, line_mask: np.ndarray):
    """Row/col index arrays of scene pixels replaced by the patch."""
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    if i_hi < i_lo or j_hi < j_lo:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    rows, cols = np.mgrid[i_lo:i_hi + 1, j_lo:j_hi + 1]
    keep = ~line_mask[i_lo:i_hi + 1, j_lo:j_hi + 1]
    return rows[keep].astype(np.intp), cols[keep].astype(np.intp)


def patch_tile(scene: BevImage, patch: PatchState,
               line_mask: np.ndarray) -> PatchTile:
    """Resample the patch onto the scene grid; lane-line pixels pass through.

    The result holds a copy of the scene over the patch's index rectangle
    grown by two pixels on each side (clipped at the raster's edge), with
    the patch's resampled grays written into it.  Replacement is linear
    in the patch values, which is what makes the camera-side gradient
    splat an exact adjoint.
    """
    if line_mask.shape != scene.pixels.shape:
        raise InvalidArgumentError("line_mask shape must match the scene")
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    n_i, n_j = scene.pixels.shape
    row0, col0 = max(i_lo - 2, 0), max(j_lo - 2, 0)
    row1, col1 = min(i_hi + 3, n_i), min(j_hi + 3, n_j)
    pixels = scene.pixels[row0:row1, col0:col1].copy()
    rows, cols = _composite_indices(scene, patch, line_mask)
    if rows.size:
        fi, fj = _patch_fractional(scene, patch, rows, cols)
        pixels[rows - row0, cols - col0] = interp.gather(patch.values, fi, fj)
    mpp, (ox, oy) = scene.meters_per_pixel, scene.origin
    return PatchTile(row0, col0, pixels,
                     (ox + row0 * mpp, ox + (row1 - 1) * mpp,
                      oy + col0 * mpp, oy + (col1 - 1) * mpp))


def composite_patch(scene: BevImage, patch: PatchState,
                    line_mask: np.ndarray) -> BevImage:
    """The scene with :func:`patch_tile` pasted into a copy of its raster.

    Production code reads the tile over the shared scene instead; this
    whole-raster form serves checks and tests.  Compositing the same
    patch twice is a no-op by construction (pure replacement).
    """
    tile = patch_tile(scene, patch, line_mask)
    out = scene.pixels.copy()
    n_i, n_j = tile.pixels.shape
    out[tile.row0:tile.row0 + n_i, tile.col0:tile.col0 + n_j] = tile.pixels
    return BevImage(pixels=out, meters_per_pixel=scene.meters_per_pixel,
                    origin=scene.origin)


def composite_adjoint_local(local_grad: np.ndarray, row0: int, col0: int,
                            scene: BevImage, patch: PatchState,
                            line_mask: np.ndarray) -> np.ndarray:
    """Pull a scene-space gradient back onto the patch grid.

    Exact transpose of the resampling performed by :func:`patch_tile`:
    only the replaced pixels contribute, with the same bilinear weights.
    ``local_grad`` may cover just the patch's scene rectangle; ``row0`` and
    ``col0`` give the scene indices of its first cell.  A stack of such
    gradients (leading axes) comes back as a stack of patch gradients; the
    replaced pixels and their patch-grid taps depend only on the placement
    and the line mask, so they are computed once for the whole stack.
    """
    local_grad = np.asarray(local_grad)
    lead, shape = local_grad.shape[:-2], patch.values.shape
    stack = local_grad.reshape((-1,) + local_grad.shape[-2:])
    out = np.zeros((stack.shape[0], shape[0] * shape[1]))
    rows, cols = _composite_indices(scene, patch, line_mask)
    if rows.size:
        idx, w = interp.taps(*_patch_fractional(scene, patch, rows, cols),
                             shape)
        rows, cols = rows - row0, cols - col0
        for k, g in enumerate(stack):
            out[k] = interp.accumulate(out.shape[1], idx, w, g[rows, cols])
    return out.reshape(lead + shape)


def identity_patch(placement: PatchPlacement, grid_mpp: float,
                   road: RoadSpec, v_min: float = 0.05,
                   v_max: float = 0.60) -> PatchState:
    """Patch painted uniformly at asphalt intensity.

    Compositing it changes pavement pixels only below the detector's
    response threshold, so the closed-loop trajectory is bit-identical to
    the no-patch run.  Its bounds widen to hold the asphalt gray.
    """
    value = road.asphalt_intensity
    return uniform_patch(placement, grid_mpp, value, v_min=min(v_min, value),
                         v_max=max(v_max, value), base_value=value)
