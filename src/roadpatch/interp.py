"""Bilinear interpolation primitives shared by every raster operation.

The forward gather and the scatter (adjoint) are built on one tap/weight
computation, so ``<g, J d> == <J^T g, d>`` holds to floating-point
round-off by construction rather than by tolerance tuning.
"""

from __future__ import annotations

import numpy as np


def taps(fi: np.ndarray, fj: np.ndarray, shape: tuple[int, int]):
    """Return flat tap indices and weights for bilinear access at (fi, fj).

    ``fi``/``fj`` are fractional row/column indices, already clamped by the
    caller to ``[0, shape-1]``.  Rows beyond ``shape-2`` collapse onto the
    last cell with the complementary weight equal to zero, which keeps the
    operation linear and exact at the border.
    """
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
    return (flat[idx[0]] * w[0] + flat[idx[1]] * w[1]
            + flat[idx[2]] * w[2] + flat[idx[3]] * w[3])


def scatter(shape: tuple[int, int], fi: np.ndarray, fj: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`gather`: accumulate ``values`` into a raster."""
    idx, w = taps(fi, fj, shape)
    size = shape[0] * shape[1]
    out = np.zeros(size)
    for k in range(4):
        out += np.bincount(idx[k].ravel(),
                           weights=(values * w[k]).ravel(),
                           minlength=size)
    return out.reshape(shape)


def inside(fi: np.ndarray, fj: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """True where a fractional index has full bilinear support in ``shape``."""
    return ((fi >= 0.0) & (fi <= shape[0] - 1)
            & (fj >= 0.0) & (fj <= shape[1] - 1))
