"""Bilinear interpolation primitives shared by every raster operation.

The forward gather and the scatter (adjoint) are built on one tap/weight
computation, so ``<g, J d> == <J^T g, d>`` holds to floating-point
round-off by construction rather than by tolerance tuning.

Each value is one fixed sequence of float64 operations, whatever the
input's size: a read sums its four tap products left to right in tap
order, and a write adds each tap's products into that tap's own sums in
point order, then adds the four sums in tap order.  So any subset of
points, the same points in consecutive blocks, or the same taps
remapped into a subset of a raster, gets bit-identical values.  Buffers
are reused in place only where that leaves every operation, and the
order of every sum, as it is.
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


def scatter(sums: np.ndarray, fi: np.ndarray, fj: np.ndarray,
            values: np.ndarray) -> None:
    """Adjoint of :func:`gather`, one block of points at a time: add
    ``values * w[k]`` at tap ``k`` into ``sums[k]``, a row-major raster
    of zeros or of earlier blocks' sums.

    ``np.add.at`` adds in point order, so the tap sums are those one
    ``bincount`` a tap over every block's points in order gives (each
    starts at +0.0, so a -0.0 term reads +0.0 in both), whatever the
    blocks; the raster is ``sums[0] + sums[1] + sums[2] + sums[3]``.
    """
    idx, w = taps(fi, fj, sums.shape[1:])
    values = np.asarray(values)
    for k in range(4):
        np.add.at(sums[k].reshape(-1), idx[k], values * w[k])


def accumulate(size: int, idx, w, values: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`combine`: add ``values * w[k]`` at ``idx[k]``.

    A write of precomputed taps goes through these four ``bincount``
    calls in tap order, so scattering the same taps into a subset of a
    raster (with remapped indices), or through :func:`scatter`, gives
    the bit-identical sums.  A ``bincount`` sum starts at +0.0 and is
    never -0.0, so the first one stands for itself added to zeros.
    """
    values = np.asarray(values).ravel()
    part = values * w[0].ravel()
    out = np.bincount(idx[0].ravel(), weights=part, minlength=size)
    for k in (1, 2, 3):
        np.multiply(values, w[k].ravel(), out=part)
        out += np.bincount(idx[k].ravel(), weights=part, minlength=size)
    return out


def inside(fi: np.ndarray, fj: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """True where a fractional index has full bilinear support in ``shape``."""
    return ((fi >= 0.0) & (fi <= shape[0] - 1)
            & (fj >= 0.0) & (fj <= shape[1] - 1))
