"""Bilinear interpolation primitives shared by every raster operation.

The read and the write (its adjoint) are built on one tap/weight
computation, so ``<g, J d> == <J^T g, d>`` holds to floating-point
round-off by construction rather than by tolerance tuning.

Each value is one fixed sequence of float64 operations, whatever the
input's size: a read (:func:`combine`) sums its four tap products left
to right in tap order, and every write goes through one transpose
kernel, which adds each tap's products into that tap's own sum with
``np.add.at``, in point order from +0.0, after which :func:`total` adds
the four sums in tap order.  So any subset of points, the same points in
consecutive blocks, or the same taps remapped into a subset of a raster,
gets bit-identical values.  Buffers are reused in place only where that
leaves every operation, and the order of every sum, as it is.
"""

from __future__ import annotations

import numpy as np


def taps(fi: np.ndarray, fj: np.ndarray, shape: tuple[int, int]):
    """Return flat tap indices and weights for bilinear access at (fi, fj).

    ``fi``/``fj`` are fractional row/column indices, already clamped by the
    caller to ``[0, shape-1]``.  Rows beyond ``shape-2`` collapse onto the
    last cell with the complementary weight equal to zero, which keeps the
    operation linear and exact at the border.  The floors stay float,
    which is exact below 2**53.
    """
    n_i, n_j = shape
    # ``out`` keeps a 0-d input an array for the in-place clip; adding +0.0
    # turns a -0.0 floor into the +0.0 that an integer floor gives back.
    i0 = np.floor(fi, out=np.empty(np.shape(fi)))
    j0 = np.floor(fj, out=np.empty(np.shape(fj)))
    np.clip(i0, 0, max(n_i - 2, 0), out=i0)
    np.clip(j0, 0, max(n_j - 2, 0), out=j0)
    i0 += 0.0
    j0 += 0.0
    di, dj = fi - i0, fj - j0
    ci, cj = 1.0 - di, 1.0 - dj
    w00 = ci * cj
    ci *= dj                         # w01 = (1 - di) dj
    cj *= di                         # w10 = di (1 - dj)
    di *= dj                         # w11
    i0 *= n_j
    i0 += j0
    base = i0.astype(np.intp)
    # The +1 neighbors collapse onto the same cell for single-row or
    # single-column rasters; their weights are zero there, but the index
    # itself still has to stay inside the array.
    sj, si = int(n_j > 1), n_j * int(n_i > 1)
    return (base, base + sj, base + si, base + (si + sj)), (w00, ci, cj, di)


def gather(arr: np.ndarray, fi: np.ndarray, fj: np.ndarray) -> np.ndarray:
    """Bilinearly sample ``arr`` at fractional indices (clamped by caller)."""
    idx, w = taps(fi, fj, arr.shape)
    return combine(arr.ravel(), idx, w)


def combine(flat: np.ndarray, idx, w) -> np.ndarray:
    """Weighted sum of the four taps ``flat[idx[k]] * w[k]``, in tap order.

    Every bilinear read goes through this one sum, so reading the same
    taps from a subset of a raster (with remapped indices) gives the
    bit-identical value.
    """
    out = flat[idx[0]]
    out *= w[0]
    for k in (1, 2, 3):
        part = flat[idx[k]]
        part *= w[k]
        out += part
    return out


def _add_taps(sums: np.ndarray, idx, w, values: np.ndarray) -> None:
    """The transpose kernel: add ``values * w[k]`` at flat ``idx[k]``
    into ``sums[k]``, in point order (``np.add.at``)."""
    for k in range(4):
        np.add.at(sums[k], idx[k], values * w[k])


def total(sums: np.ndarray) -> np.ndarray:
    """The raster that four per-tap sums stand for, added in tap order."""
    out = sums[0] + sums[1]
    out += sums[2]
    out += sums[3]
    return out


def scatter(sums: np.ndarray, fi: np.ndarray, fj: np.ndarray,
            values: np.ndarray) -> None:
    """Adjoint of :func:`gather`, one block of points at a time: add the
    block into ``sums``, four per-tap rasters of zeros or of earlier
    blocks' sums, whose :func:`total` is the raster."""
    idx, w = taps(fi, fj, sums.shape[1:])
    _add_taps(sums.reshape(4, -1), idx, w, np.asarray(values))


def accumulate(size: int, idx, w, values: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`combine`: the flat raster of ``size`` cells that
    adds ``values * w[k]`` at ``idx[k]``, all points at once."""
    sums = np.zeros((4, size))
    _add_taps(sums, [i.ravel() for i in idx], [x.ravel() for x in w],
              np.asarray(values).ravel())
    return total(sums)


def inside(fi: np.ndarray, fj: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """True where a fractional index has full bilinear support in ``shape``."""
    return ((fi >= 0.0) & (fi <= shape[0] - 1)
            & (fj >= 0.0) & (fj <= shape[1] - 1))
