"""Image persistence: binary 16-bit PGM for gray rasters, JSON sidecars
for the geometry that a bare raster can't carry.

Grays in ``[0, 1]`` are quantized to 16 bits with round-half-away
behavior via ``np.round``; the inverse maps exactly back onto the
quantization lattice, so save/load round-trips are stable and values at
the bounds stay at the bounds.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .scene import BevImage, PatchPlacement, PatchState

_MAXVAL = 65535


def encode_gray16(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise InvalidArgumentError("gray values must lie in [0, 1] to encode")
    return np.round(values * _MAXVAL).astype(">u2")


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
    p = patch.placement
    meta = {"kind": "patch",
            "grid_mpp": patch.grid_mpp,
            "v_min": patch.v_min, "v_max": patch.v_max,
            "base_value": patch.base_value,
            "placement": {"start_x": p.start_x, "center_y": p.center_y,
                          "width": p.width, "length": p.length,
                          "margin": p.margin}}
    if extra:
        meta.update(extra)
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True)
                                   + "\n")


def load_patch(path) -> PatchState:
    meta = json.loads(_sidecar_path(path).read_text())
    if not isinstance(meta, dict) or meta.get("kind") != "patch":
        raise InvalidArgumentError(f"{path} sidecar does not describe a patch")
    pm = meta["placement"]
    values = read_pgm(path)
    # Quantization may overshoot the declared bounds by up to half a
    # quantum; snap those back without touching genuine violations.
    snapped = np.clip(values, float(meta["v_min"]), float(meta["v_max"]))
    values = np.where(np.abs(snapped - values) <= 0.5 / _MAXVAL,
                      snapped, values)
    return PatchState(values=values,
                      grid_mpp=float(meta["grid_mpp"]),
                      v_min=float(meta["v_min"]),
                      v_max=float(meta["v_max"]),
                      base_value=float(meta["base_value"]),
                      placement=PatchPlacement(
                          start_x=float(pm["start_x"]),
                          center_y=float(pm["center_y"]),
                          width=float(pm["width"]),
                          length=float(pm["length"]),
                          margin=float(pm["margin"])))
