"""Image persistence: binary 16-bit PGM for gray rasters, JSON sidecars
for the geometry that a bare raster can't carry.

Grays in ``[0, 1]`` are quantized to 16 bits with ``np.round``, which
rounds halves to even; the inverse maps exactly back onto the
quantization lattice, so save/load round-trips are stable and values at
the bounds stay at the bounds.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .config import finite_number
from .errors import InvalidArgumentError
from .scene import BevImage, PatchPlacement, PatchState

_MAXVAL = 65535
# Grays are quantized this many at a time.  A frame-sized float temporary
# made glibc hand the heap back to the kernel after every dumped frame:
# a 200-frame --dump-frames run in a fresh process took 280k minor page
# faults that way, against 7k in blocks.
_BLOCK = 8192


def encode_gray16(values: np.ndarray) -> np.ndarray:
    """Quantize grays (or booleans) to big-endian 16-bit codes; any value
    outside [0, 1], NaN included, is refused.  Blocks of rows are
    converted, checked and quantized one at a time, whatever the array's
    layout, so neither a pass over the whole array nor a float copy of
    it (of a bool mask, or of a raster that is not row-major) is made."""
    values = np.asarray(values)
    raw = np.empty(values.shape, ">u2")
    rows = (values.reshape(-1, values.shape[-1]) if values.ndim > 1
            else values.reshape(1, -1))
    out = raw.reshape(rows.shape)
    step = max(_BLOCK // max(rows.shape[1], 1), 1)
    for start in range(0, rows.shape[0], step):
        block = np.asarray(rows[start:start + step], dtype=float)
        # min and max carry a NaN through, and NaN fails both tests
        if block.size and not (block.min() >= 0.0 and block.max() <= 1.0):
            raise InvalidArgumentError(
                "gray values must lie in [0, 1] to encode")
        scaled = block * _MAXVAL
        np.round(scaled, out=scaled)
        out[start:start + step] = scaled
    return raw


def decode_gray16(raw: np.ndarray) -> np.ndarray:
    return raw.astype(float) / _MAXVAL


def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2-D gray raster as binary PGM, 16-bit big-endian."""
    if values.ndim != 2:
        raise InvalidArgumentError("PGM payload must be 2-D")
    raw = encode_gray16(values)
    h, w = raw.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{_MAXVAL}\n".encode("ascii"))
        fh.write(raw.tobytes())


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise InvalidArgumentError(f"{path} is not a binary PGM file")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != _MAXVAL:
        raise InvalidArgumentError(f"expected 16-bit PGM, got maxval {maxval}")
    body = data[m.end():]
    expect = w * h * 2
    if len(body) != expect:
        raise InvalidArgumentError(
            f"PGM payload is {len(body)} bytes, expected {expect}")
    return decode_gray16(np.frombuffer(body, dtype=">u2").reshape(h, w))


def _sidecar_path(pgm_path) -> Path:
    return Path(pgm_path).with_suffix(".json")


def save_bev(path, bev: BevImage, extra: dict | None = None) -> None:
    """PGM of the raster plus a sidecar with its ground placement."""
    write_pgm(path, bev.pixels)
    meta = {"kind": "bev",
            "meters_per_pixel": bev.meters_per_pixel,
            "origin": list(bev.origin)}
    if extra:
        meta.update(extra)
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True)
                                   + "\n")


def save_patch(path, patch: PatchState, extra: dict | None = None) -> None:
    write_pgm(path, patch.values)
    meta = {"kind": "patch",
            "grid_mpp": patch.grid_mpp,
            "v_min": patch.v_min, "v_max": patch.v_max,
            "base_value": patch.base_value,
            "placement": asdict(patch.placement)}
    if extra:
        meta.update(extra)
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True)
                                   + "\n")


def load_patch(path) -> PatchState:
    """Read a patch :func:`save_patch` wrote; out-of-bounds grays are
    refused, and so is a sidecar number the scenario loader would refuse
    (a ``ConfigError``)."""
    meta = json.loads(_sidecar_path(path).read_text())
    if not isinstance(meta, dict) or meta.get("kind") != "patch":
        raise InvalidArgumentError(f"{path} sidecar does not describe a patch")
    nums = {k: finite_number(meta[k], k)
            for k in ("grid_mpp", "v_min", "v_max", "base_value")}
    placement = PatchPlacement(**{
        f.name: finite_number(meta["placement"][f.name], f"placement.{f.name}")
        for f in fields(PatchPlacement)})
    values = read_pgm(path)
    # Quantization may overshoot the declared bounds by up to half a
    # quantum; snap those back and leave genuine violations to PatchState.
    snapped = np.clip(values, nums["v_min"], nums["v_max"])
    values = np.where(np.abs(snapped - values) <= 0.5 / _MAXVAL,
                      snapped, values)
    return PatchState(values=values, placement=placement, **nums)
