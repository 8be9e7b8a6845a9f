"""Bird's-eye-view road rendering and patch compositing.

The scene is a gray-scale raster of a straight two-line lane viewed from
above.  Geometry lives in road coordinates: x forward along the lane,
y positive to the left, units in meters.  Raster rows follow x and
columns follow y; ``origin`` is the ground position of the center of
pixel (0, 0).  A raster may hold only a window of its grid's columns,
drawn bit for bit as the whole grid would draw them.  Every raster keeps
its grays in a :class:`ColumnDraw`: a rendered one draws its columns on
first read and holds only those, so a run takes memory only for the
columns it reads, and a raster given whole holds every column from the
start.

A road patch is an independently rastered gray rectangle that is
resampled onto the scene grid when composited.  Lane-line pixels are
never overwritten, so a patch can darken or brighten pavement but cannot
repaint the markings themselves.  The composited grays live in a small
:class:`PatchTile`, which a patched run writes into the scene's own grays
for its length and takes out again (:func:`overlay`), so a patched scene
costs the patch's area, not a copy of the scene.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import interp
from .errors import InvalidArgumentError, OutOfExtentError

# Nudge applied when mapping rectangle edges to pixel-center ranges so that
# edges falling exactly on a center are treated deterministically.
_EDGE_EPS = 1e-9

# A read draws the columns it touches rounded out to whole strips of this
# many columns, so a run that drifts sideways draws a strip at a time.
_STRIP = 32


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
    is scene pixel ``(row0 + k, col0 + l)``."""

    row0: int
    col0: int
    pixels: np.ndarray

    def _view(self, block: np.ndarray, lo: int) -> np.ndarray:
        """The tile's pixels in ``block``, a row-major array whose first
        column is raster column ``lo`` and which holds the tile's."""
        n_i, n_j = self.pixels.shape
        return block[self.row0:self.row0 + n_i,
                     self.col0 - lo:self.col0 - lo + n_j]

    def lay(self, block: np.ndarray, lo: int) -> None:
        """Write the tile's grays into ``block`` (see :meth:`_view`)."""
        self._view(block, lo)[:] = self.pixels

    def cut(self, block: np.ndarray, lo: int) -> "PatchTile":
        """A tile over the same pixels holding ``block``'s grays there."""
        return PatchTile(self.row0, self.col0, self._view(block, lo).copy())


class ColumnDraw:
    """The columns of a rendered raster drawn so far: ``block`` holds its
    columns ``[lo, hi)``, row-major, and the others are not held at all.

    Drawing columns ``[a, b)`` gives exactly the grays
    :func:`render_road_bev` of the whole grid gives them: the grid's
    row-major uniform draw from ``default_rng(seed)``, advanced to each
    row's first column, plus the asphalt gray, clamped, with the lane
    lines painted over.  Every step is elementwise, so a column comes out
    the same whatever the columns drawn with it.
    """

    def __init__(self, road: RoadSpec, seed: int, n_x: int, n_y: int,
                 c0: int, lines: np.ndarray):
        self.road, self.seed, self.n_x, self.n_y = road, seed, n_x, n_y
        self.c0, self.lines = c0, lines
        self.block = np.empty((n_x, 0))
        self.lo = self.hi = 0
        # While an overlay holds a tile in the block: the scene's own
        # grays under it, whose pixels a redraw keeps
        self.under: PatchTile | None = None

    @classmethod
    def holding(cls, block: np.ndarray) -> "ColumnDraw":
        """A raster given whole, such as :func:`composite_patch`'s: its span
        is already every column of ``block``, so it has no road to draw."""
        held = cls(None, 0, *block.shape, 0, np.zeros(block.shape[1], bool))
        held.block, held.hi = block, block.shape[1]
        return held

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_x, self.lines.size

    @property
    def done(self) -> bool:
        return self.hi - self.lo == self.lines.size

    def cover(self, a: int, b: int) -> None:
        """Hold at least columns ``[a, b)``.  The held columns grow as one
        span, in whole strips (``_STRIP``), drawn anew into one block:
        drawing costs a few microseconds a row and call, so one pass over
        the span beats one for each side of it, and a column drawn twice
        holds the same bits.  The grays :func:`overlay` has laid, if any,
        are cut from the old block and laid again over the new one."""
        if self.lo <= a and b <= self.hi:
            return
        a = a // _STRIP * _STRIP
        b = min(-(-b // _STRIP) * _STRIP, self.lines.size)
        if self.lo < self.hi:
            a, b = min(a, self.lo), max(b, self.hi)
        laid = (None if self.under is None
                else self.under.cut(self.block, self.lo))
        # let the old block go before the new one is drawn
        self.block, self.lo, self.hi = np.empty((self.n_x, 0)), 0, 0
        self.block, self.lo, self.hi = self.draw(a, b), a, b
        if laid is not None:
            laid.lay(self.block, self.lo)

    def draw(self, a: int, b: int) -> np.ndarray:
        """Columns ``[a, b)``, drawn into a new row-major block."""
        road, block = self.road, np.empty((self.n_x, b - a))
        amp = road.texture_noise_amp
        if amp > 0.0:
            # noise + asphalt == asphalt + noise bit for bit, so the block
            # is built in place; ``advance`` takes Python ints only.
            rng = np.random.default_rng(self.seed)
            rng.bit_generator.advance(int(self.c0 + a))
            skip = int(self.n_y - (b - a))
            for row in block:
                row[:] = rng.uniform(-amp, amp, b - a)
                rng.bit_generator.advance(skip)
            block += road.asphalt_intensity
            np.clip(block, 0.0, 1.0, out=block)
        else:
            block[:] = road.asphalt_intensity
        block[:, self.lines[a:b]] = road.line_intensity
        return block


@dataclass
class BevImage:
    """Ground-plane raster with its resolution and placement metadata.

    The grays are the columns ``draw`` holds; every read draws the columns
    it touches first (:meth:`gather`, :meth:`columns`), ``pixels`` is the
    whole raster with every column drawn, and ``shape`` draws nothing.  A
    raster given whole (:meth:`ColumnDraw.holding`) holds every column, so
    no read of it draws.

    There is one raster, patched or not: for the length of a patched run
    :func:`overlay` writes the composited patch's tile into these grays,
    so every read then sees the patch, and writes the scene's own grays
    back when the run ends.

    The raster may be a window of a wider grid's columns: ``pixels[:, j]``
    is the grid's column ``col0 + j``, centred at ground
    ``y = grid_y + (col0 + j) * meters_per_pixel``.  Ground and column
    index convert through the grid's index, with the integer ``col0``
    taken off or put back, which is exact; so a window reads the bits
    the whole grid reads there.  ``grid_y`` defaults to ``origin[1]``.
    """

    draw: ColumnDraw             # its (n_x, n_y) float64 grays in [0, 1]
    meters_per_pixel: float
    origin: tuple[float, float]  # ground (x, y) of pixel (0, 0) center
    col0: int = 0
    grid_y: float | None = None

    def __post_init__(self):
        if self.grid_y is None:
            if self.col0:
                raise InvalidArgumentError("a column window needs its grid_y")
            self.grid_y = self.origin[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.draw.shape

    @property
    def pixels(self) -> np.ndarray:
        """The whole raster, every column drawn: the array itself, so a
        write to it is a write to the scene."""
        return self.columns(0, self.shape[1])[0]

    def columns(self, a: int, b: int) -> tuple[np.ndarray, int]:
        """A row-major array that holds at least raster columns ``[a, b)``
        (drawn first), and the raster column its first column is."""
        self.draw.cover(a, b)
        return self.draw.block, self.draw.lo

    def gather(self, fi: np.ndarray, fj: np.ndarray) -> np.ndarray:
        """Bilinear grays at raster indices ``fi``, ``fj`` (clamped by the
        caller).  The columns the taps read are drawn first, and read at
        indices shifted by the first held column, which is exact: each
        point reads the taps and weights it reads in the whole raster,
        summed in the same order."""
        draw = self.draw
        if not draw.done and fj.size:
            # a point's first tap column is floor(fj), clipped as taps does
            last = max(draw.shape[1] - 2, 0)
            draw.cover(min(int(fj.min()), last), min(int(fj.max()), last) + 2)
        return interp.gather(draw.block, fi, fj - draw.lo if draw.lo else fj)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the covered ground rectangle."""
        return _raster_extent(*self.shape,
                              (self.origin[0], self.grid_y),
                              self.meters_per_pixel, self.col0)

    def fractional_index(self, gx: np.ndarray, gy: np.ndarray):
        """Raster coordinates of ground points (no bounds handling)."""
        fi = (np.asarray(gx) - self.origin[0]) / self.meters_per_pixel
        fj = (np.asarray(gy) - self.grid_y) / self.meters_per_pixel
        fj -= self.col0
        return fi, fj

    def column_y(self, cols):
        """Ground ``y`` of the centres of raster columns ``cols``."""
        return self.grid_y + (self.col0 + cols) * self.meters_per_pixel


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


def _axis(lo: float, hi: float, meters_per_pixel: float):
    """Pixel count and first pixel centre of a grid axis over [lo, hi]."""
    return (int(round((hi - lo) / meters_per_pixel)),
            lo + 0.5 * meters_per_pixel)


def _grid(extent, meters_per_pixel):
    x_min, x_max, y_min, y_max = extent
    if meters_per_pixel <= 0.0:
        raise InvalidArgumentError("meters_per_pixel must be positive")
    if x_max <= x_min or y_max <= y_min:
        raise InvalidArgumentError("extent must have positive area")
    (n_x, x0), (n_y, y0) = (_axis(x_min, x_max, meters_per_pixel),
                            _axis(y_min, y_max, meters_per_pixel))
    if n_x < 1 or n_y < 1:
        raise InvalidArgumentError("extent smaller than one pixel")
    return n_x, n_y, (x0, y0)


def _columns(cols, n_y: int) -> tuple[int, int]:
    """The grid columns ``[c0, c1)`` a raster holds: ``cols``, or all."""
    c0, c1 = (0, n_y) if cols is None else cols
    if not 0 <= c0 < c1 <= n_y:
        raise InvalidArgumentError(
            f"columns [{c0}, {c1}) leave the grid's {n_y} columns")
    return c0, c1


def _raster_extent(n_x: int, n_y: int, origin, meters_per_pixel: float,
                   col0: int = 0):
    """Ground an ``n_x`` by ``n_y`` raster covers (its ``BevImage.extent``)
    when its first column is column ``col0`` of the grid whose pixel
    (0, 0) is centred at ``origin``."""
    half = 0.5 * meters_per_pixel
    return (origin[0] - half,
            origin[0] + (n_x - 1) * meters_per_pixel + half,
            origin[1] + col0 * meters_per_pixel - half,
            origin[1] + (col0 + n_y - 1) * meters_per_pixel + half)


def _rect_leaves(rect, extent) -> bool:
    """Whether ``rect`` reaches past ``extent`` by more than the tolerance."""
    x_lo, x_hi, y_lo, y_hi = rect
    return (x_lo < extent[0] - _EDGE_EPS or x_hi > extent[1] + _EDGE_EPS
            or y_lo < extent[2] - _EDGE_EPS or y_hi > extent[3] + _EDGE_EPS)


def render_road_bev(road: RoadSpec, extent, meters_per_pixel: float,
                    seed: int,
                    cols: tuple[int, int] | None = None) -> BevImage:
    """Rasterize the road over ``extent`` = (x_min, x_max, y_min, y_max),
    or only the columns ``cols`` = ``(c0, c1)`` of its grid.

    Lane lines are painted at exactly ``line_intensity`` wherever a pixel
    center falls on them; asphalt gets zero-mean texture noise drawn from
    ``seed`` and is clamped to [0, 1].  The same (road, extent, seed)
    always renders a bit-identical raster, and a window of columns holds
    exactly those columns of it.  No column is drawn here: each is drawn
    on its first read (:class:`ColumnDraw`).
    """
    n_x, n_y, origin = _grid(extent, meters_per_pixel)
    c0, c1 = _columns(cols, n_y)
    ys = origin[1] + np.arange(c0, c1) * meters_per_pixel
    return BevImage(ColumnDraw(road, seed, n_x, n_y, c0,
                               _line_columns(road, ys)),
                    meters_per_pixel=meters_per_pixel,
                    origin=(origin[0], origin[1] + c0 * meters_per_pixel),
                    col0=c0, grid_y=origin[1])


def lane_line_mask(road: RoadSpec, extent, meters_per_pixel: float,
                   cols: tuple[int, int] | None = None) -> np.ndarray:
    """Boolean raster that is True exactly where rendering paints a line
    (over the same ``cols`` of the grid): a read-only view of one row,
    since every row is the same."""
    n_x, n_y, origin = _grid(extent, meters_per_pixel)
    c0, c1 = _columns(cols, n_y)
    ys = origin[1] + np.arange(c0, c1) * meters_per_pixel
    return np.broadcast_to(_line_columns(road, ys), (n_x, c1 - c0))


def _rect_index_ranges(scene: BevImage, placement: PatchPlacement):
    """Scene row/column index ranges whose pixel centers fall in the rect."""
    x_lo, x_hi, y_lo, y_hi = placement.rect
    ex = scene.extent
    if _rect_leaves(placement.rect, ex):
        raise OutOfExtentError(
            f"patch rect x[{x_lo:.2f},{x_hi:.2f}] y[{y_lo:.2f},{y_hi:.2f}] "
            f"exceeds scene extent {tuple(round(v, 2) for v in ex)}")
    mpp, (ox, oy) = scene.meters_per_pixel, (scene.origin[0], scene.grid_y)
    i_lo = int(np.ceil((x_lo - ox) / mpp - _EDGE_EPS))
    i_hi = int(np.floor((x_hi - ox) / mpp + _EDGE_EPS))
    j_lo = int(np.ceil((y_lo - oy) / mpp - _EDGE_EPS)) - scene.col0
    j_hi = int(np.floor((y_hi - oy) / mpp + _EDGE_EPS)) - scene.col0
    return (max(i_lo, 0), min(i_hi, scene.shape[0] - 1),
            max(j_lo, 0), min(j_hi, scene.shape[1] - 1))


def _patch_fractional(scene: BevImage, patch: PatchState, rows, cols):
    """Fractional patch-grid indices of the given scene pixel centers."""
    gx = scene.origin[0] + rows * scene.meters_per_pixel
    gy = scene.column_y(cols)
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
    if line_mask.shape != scene.shape:
        raise InvalidArgumentError("line_mask shape must match the scene")
    i_lo, i_hi, j_lo, j_hi = _rect_index_ranges(scene, patch.placement)
    n_i, n_j = scene.shape
    row0, col0 = max(i_lo - 2, 0), max(j_lo - 2, 0)
    row1, col1 = min(i_hi + 3, n_i), min(j_hi + 3, n_j)
    block, lo = scene.columns(col0, col1)
    pixels = block[row0:row1, col0 - lo:col1 - lo].copy()
    at, idx, w, _ = composite_taps(scene, patch, line_mask, row0, col0,
                                   pixels.shape)
    pixels.reshape(-1)[at] = interp.combine(patch.values.ravel(), idx, w)
    return PatchTile(row0, col0, pixels)


@contextmanager
def overlay(scene: BevImage, tile: PatchTile):
    """Write ``tile`` into the scene's grays for the length of the block,
    and the grays it replaced back when the block ends, however it ends.

    The grays written over are the scene's own, kept aside (the tile's
    size), so the scene afterwards holds the bits it held before.  The
    scene draws the tile's columns first; when a read grows its drawn
    span while the tile is laid, the tile's grays are laid again over the
    new block (:meth:`ColumnDraw.cover`).  Neither a block nor the tile
    is held here across the yield: a redraw lets the old block go, and a
    caller that keeps no other reference to the tile lets it go too, so
    a run holds one tile-sized array beside the scene.  Overlays do not
    nest, so a scene serves one patched run at a time.
    """
    span = (tile.col0, tile.col0 + tile.pixels.shape[1])
    under = tile.cut(*scene.columns(*span))
    tile.lay(*scene.columns(*span))
    del tile
    scene.draw.under = under
    try:
        yield scene
    finally:
        scene.draw.under = None
        under.lay(*scene.columns(*span))


def composite_patch(scene: BevImage, patch: PatchState,
                    line_mask: np.ndarray) -> BevImage:
    """The scene with :func:`patch_tile` pasted into a copy of its whole
    raster, held whole (:meth:`ColumnDraw.holding`).

    Production code lays the tile into the shared scene for a run
    instead (:func:`overlay`); this copy serves checks and tests.
    Compositing the same patch twice is a no-op by construction (pure
    replacement).
    """
    tile = patch_tile(scene, patch, line_mask)
    out = scene.pixels.copy()
    tile.lay(out, 0)
    return replace(scene, draw=ColumnDraw.holding(out))


def composite_taps(scene: BevImage, patch: PatchState,
                   line_mask: np.ndarray, row0: int, col0: int,
                   local_shape: tuple[int, int]):
    """The composite's taps: which pixels of a buffer of ``local_shape``
    scene pixels from ``(row0, col0)`` on the patch replaces, and the
    patch-grid taps each one reads.

    The buffer must hold every pixel :func:`patch_tile` replaces.  Returns
    the replaced pixels' flat indices into that buffer, their patch-grid
    taps and weights, and the patch shape.  :func:`patch_tile` writes
    its grays through them and :func:`composite_adjoint_local` reads a
    gradient back through them.  They depend only on the placement, the
    patch grid, the line mask and the buffer, so a gradient pass computes
    them once for all of its frames.
    """
    rows, cols = _composite_indices(scene, patch, line_mask)
    at = (rows - row0) * local_shape[1] + (cols - col0)
    idx, w = interp.taps(*_patch_fractional(scene, patch, rows, cols),
                         patch.values.shape)
    return at, idx, w, patch.values.shape


def composite_adjoint_local(local_grad: np.ndarray, taps) -> np.ndarray:
    """Pull a scene-space gradient back onto the patch grid.

    Exact transpose of the resampling performed by :func:`patch_tile`:
    only the replaced pixels contribute, with the same bilinear weights.
    ``local_grad`` covers the scene pixels that ``taps`` (its
    :func:`composite_taps`) was made for, which may be just the patch's
    scene rectangle.
    """
    at, idx, w, shape = taps
    values = np.asarray(local_grad).ravel()[at]
    return interp.accumulate(shape[0] * shape[1], idx, w,
                             values).reshape(shape)


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
