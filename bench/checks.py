"""Output checks computed from first principles, not from the package.

Each check rebuilds the quantity it verifies with its own arithmetic (the
bicycle equations, the pinhole ray-ground intersection, the bilinear
lookup, the crossing interpolation, the PGM layout) and returns a list
of problems; an empty list means the output is correct.  Nothing here
compares against a stored result of an earlier run.
"""

from __future__ import annotations

import math
import re

import numpy as np

PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")
HALF_QUANTUM = 0.5 / 65535


def euler_problems(states, steers, wheelbase, dt, max_steer, tol=1e-12):
    """Each state must follow from the one before it and its steer.

    Forward Euler on the kinematic bicycle at constant speed, with the
    steer clamped to the actuator limit and the heading wrapped to
    (-pi, pi].
    """
    if len(states) != len(steers) + 1:
        return [f"{len(states)} states for {len(steers)} steers"]
    for k, steer in enumerate(steers):
        a, b = states[k], states[k + 1]
        delta = min(max(steer, -max_steer), max_steer)
        h = a.heading
        want = (a.x + a.speed * math.cos(h) * dt,
                a.y + a.speed * math.sin(h) * dt,
                math.remainder(h + a.speed / wheelbase * math.tan(delta) * dt,
                               2.0 * math.pi))
        for label, w, got in zip(("x", "y", "heading"), want,
                                 (b.x, b.y, b.heading)):
            if abs(w - got) > tol * max(1.0, abs(w)):
                return [f"state {k + 1} {label}={got!r} but Euler gives {w!r}"]
        if b.speed != a.speed:
            return [f"state {k + 1} changed speed"]
    return []


def ground_points(camera, pose, u, v):
    """Ray-ground hits (road frame) of pixels (u, v) and a hits-ahead mask.

    The camera sits ``height`` above the reference point, pitched down by
    ``pitch``; its axes are x right, y down, z forward.
    """
    x_dir = (np.asarray(u, dtype=float) - camera.principal_point[0]) / camera.focal
    y_dir = (np.asarray(v, dtype=float) - camera.principal_point[1]) / camera.focal
    cp, sp = math.cos(camera.pitch), math.sin(camera.pitch)
    # Ray in vehicle axes (forward, left, up): z_cam*(cp, 0, -sp)
    # + y_cam*(-sp, 0, -cp) + x_cam*(0, -1, 0); it meets z = 0 when the
    # downward component has covered the camera height.
    down = sp + y_dir * cp
    ahead = down > 1e-9
    t = camera.height / np.where(ahead, down, 1.0)
    fwd = t * (cp - y_dir * sp)
    left = -t * x_dir
    ch, sh = math.cos(pose.heading), math.sin(pose.heading)
    return (pose.x + ch * fwd - sh * left, pose.y + sh * fwd + ch * left,
            ahead)


def patch_entry_frame(camera, states, rect):
    """First 1-based frame whose model-input crop sees a patch ground point."""
    rx, ry, rw, rh = camera.model_input_rect
    v, u = np.mgrid[ry:ry + rh, rx:rx + rw]
    x_lo, x_hi, y_lo, y_hi = rect
    for k, pose in enumerate(states[:-1], start=1):
        gx, gy, ahead = ground_points(camera, pose, u, v)
        if np.any(ahead & (gx >= x_lo) & (gx <= x_hi)
                  & (gy >= y_lo) & (gy <= y_hi)):
            return k
    return None


def crossing_time(states, dt, goal, entry_frame):
    """Seconds from the entry frame's state until |y| first reaches ``goal``.

    Linear interpolation between the two states that bracket the
    crossing; None when the goal is never reached.
    """
    if entry_frame is None:
        return None
    start = entry_frame - 1
    lat = [abs(s.y) for s in states]
    for i in range(start, len(lat)):
        if lat[i] >= goal:
            if i == start:
                return 0.0
            lo, hi = lat[i - 1], lat[i]
            return (i - 1 - start + (goal - lo) / (hi - lo)) * dt
    return None


def lookup(raster, bev_origin, mpp, gx, gy, ahead, override=None):
    """Bilinear value of ``raster`` at ground points; 0 where unsourced.

    ``override(rows, cols)`` may return (mask, value) to replace some taps,
    which is how a composited patch is looked up without building it.
    """
    fi = (gx - bev_origin[0]) / mpp
    fj = (gy - bev_origin[1]) / mpp
    n_i, n_j = raster.shape
    inside = ahead & (fi >= 0) & (fi <= n_i - 1) & (fj >= 0) & (fj <= n_j - 1)
    fi = np.where(inside, fi, 0.0)
    fj = np.where(inside, fj, 0.0)
    i0 = np.minimum(np.floor(fi).astype(int), n_i - 2)
    j0 = np.minimum(np.floor(fj).astype(int), n_j - 2)
    di, dj = fi - i0, fj - j0
    out = np.zeros(np.shape(fi))
    for ri, cj, w in ((i0, j0, (1 - di) * (1 - dj)), (i0, j0 + 1, (1 - di) * dj),
                      (i0 + 1, j0, di * (1 - dj)), (i0 + 1, j0 + 1, di * dj)):
        val = raster[ri, cj]
        if override is not None:
            mask, value = override(ri, cj)
            val = np.where(mask, value, val)
        out += val * w
    return np.where(inside, out, 0.0)


def pgm_problems(data: bytes, width: int, height: int):
    """A binary 16-bit PGM of the given size, or the reasons it is not."""
    m = PGM_HEADER.match(data)
    if not m:
        return None, ["not a binary PGM"]
    w, h, maxval = (int(g) for g in m.groups())
    if (w, h, maxval) != (width, height, 65535):
        return None, [f"header P5 {w} {h} {maxval}"]
    body = data[m.end():]
    if len(body) != 2 * w * h:
        return None, [f"payload {len(body)} bytes, expected {2 * w * h}"]
    return np.frombuffer(body, dtype=">u2").reshape(h, w), []
