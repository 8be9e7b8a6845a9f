"""Reference helpers only the tests use.

Each is written from the package's own pieces, so a check built on one
still exercises production code: the plant's ``step``, the camera model's
constants, the PGM reader, and the trajectory CSV's field list.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from roadpatch.artifacts import TRAJECTORY_FIELDS
from roadpatch.camera import _DEPTH_EPS, CameraConfig, _vehicle_to_world
from roadpatch.errors import InvalidArgumentError, NoGroundIntersectionError
from roadpatch.motion import VehicleParams, VehicleState, clamp_steer, step
from roadpatch.pgmio import _sidecar_path, read_pgm
from roadpatch.scene import BevImage


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
    return BevImage(pixels=read_pgm(path),
                    meters_per_pixel=float(meta["meters_per_pixel"]),
                    origin=(float(meta["origin"][0]), float(meta["origin"][1])))


def read_trajectory_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in TRAJECTORY_FIELDS:
            row[key] = float(row[key]) if row[key] != "" else None
    return rows
