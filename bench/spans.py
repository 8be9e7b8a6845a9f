"""In-memory span tracer for the traced benchmark run.

The tracer wraps package functions from outside: each wrapped function
becomes a span with a name, start, end, parent span and round.  A name is
rebound in every module that looks it up, because ``attack`` and ``sim``
import names directly (``from .camera import warp_bev_to_camera``), so
rebinding ``roadpatch.camera`` alone would miss their calls.  Spans stay
in memory and are written out once, when the run ends.

Self time of a span is its duration minus the time its direct children
cover, so nested layers (rollout > warp > gather) are not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans and counters while ``enabled``; passes through otherwise."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, round]
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.round = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        """Span-recording twin of ``fn``; ``count(tracer, args, out)`` runs after."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.round]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer, args, out)
            return out

        return traced

    def install(self, name: str, modules, attr: str, count=None) -> None:
        """Rebind ``attr`` to one traced wrapper in each of ``modules``."""
        original = getattr(modules[0], attr)
        wrapper = self.wrap(name, original, count)
        for mod in modules:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the function "
                                   f"bound in {modules[0].__name__}")
            self._restore.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, busy (inclusive) and self seconds, durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child[k]
            s["durations"].append(end - start)
        return stats

    def ancestor_count(self, name: str, ancestor: str) -> int:
        """How many ``name`` spans run somewhere inside an ``ancestor`` span."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, round."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "round": rnd}) + "\n")


def _median_ms(stats, name, scale=1e3) -> float:
    s = stats.get(name)
    return statistics.median(s["durations"]) * scale if s else 0.0


def detector_tap_mask(cfg) -> np.ndarray:
    """Pixels the detector grid's bilinear samples read (all four taps)."""
    from roadpatch.detector import sampling_positions

    u, v = sampling_positions(cfg.detector, cfg.camera)
    w, h = cfg.camera.image_size
    mask = np.zeros((h, w), dtype=bool)
    i0 = np.clip(np.floor(v), 0, h - 2).astype(int)
    j0 = np.clip(np.floor(u), 0, w - 2).astype(int)
    for di in (0, 1):
        for dj in (0, 1):
            mask[i0 + di, j0 + dj] = True
    return mask


def install_all(tracer: Tracer, cfg) -> None:
    """Trace every layer the per-layer metrics name.

    ``cfg`` supplies the camera and detector: the pixels the detector
    grid's taps read, with the patch footprint, give the share of warped
    pixels anything downstream reads.
    """
    from roadpatch import attack, camera, cli, config, interp, pgmio, sim

    detector_taps = detector_tap_mask(cfg)
    n_taps = int(detector_taps.sum())

    def count_samples(key):
        def count(t, args, out):
            t.counters[key] += np.size(args[1])
        return count

    def count_warp(t, args, out):
        t.counters["warp.pixels"] += out.pixels.size
        t.counters["warp.read"] += n_taps

    def count_footprint(t, args, out):
        t.counters["warp.read"] += int(np.count_nonzero(out & ~detector_taps))

    def count_composite(t, args, out):
        t.counters["composite.bytes"] += args[0].pixels.nbytes

    def count_pgm(t, args, out):
        t.counters["pgm.bytes"] += os.path.getsize(args[0])

    def count_accepted(t, args, out):
        t.counters["optimize.accepted"] += sum(h.accepted
                                               for h in out.history[1:])

    tracer.install("config.load_config", [config, cli], "load_config")
    tracer.install("scene.render_road_bev", [config], "render_road_bev")
    tracer.install("attack.optimize_patch", [attack], "optimize_patch",
                   count_accepted)
    tracer.install("attack.rollout_with_patch", [attack, sim],
                   "rollout_with_patch")
    tracer.install("attack.patch_gradient", [attack], "patch_gradient")
    tracer.install("scene.composite_patch", [attack], "composite_patch",
                   count_composite)
    tracer.install("camera.warp_bev_to_camera", [camera, attack],
                   "warp_bev_to_camera", count_warp)
    tracer.install("camera.patch_footprint", [camera, attack],
                   "patch_footprint", count_footprint)
    tracer.install("camera.splat_camera_to_bev", [camera, attack],
                   "splat_camera_to_bev")
    tracer.install("camera.pixel_ground_points", [camera],
                   "pixel_ground_points")
    tracer.install("scene.composite_adjoint_local", [camera],
                   "composite_adjoint_local")
    tracer.install("detector.detect_lanes", [attack], "detect_lanes")
    tracer.install("detector.detector_gradient", [attack], "detector_gradient")
    tracer.install("controller.steer_from_path", [attack], "steer_from_path")
    tracer.install("motion.step", [attack], "step")
    tracer.install("interp.gather", [interp], "gather",
                   count_samples("gather.samples"))
    tracer.install("interp.scatter", [interp], "scatter",
                   count_samples("scatter.samples"))
    tracer.install("pgmio.write_pgm", [pgmio], "write_pgm", count_pgm)


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    st = tracer.layer_stats()
    c = tracer.counters

    def calls(name):
        return st[name]["calls"] if name in st else 0

    def busy(name):
        return st[name]["busy_s"] if name in st else 0.0

    warps = calls("camera.warp_bev_to_camera")
    candidates = (tracer.ancestor_count("attack.rollout_with_patch",
                                        "attack.optimize_patch")
                  - calls("attack.optimize_patch"))
    return {
        "camera.warp_bev_to_camera.calls": (warps, "count"),
        "camera.warp_bev_to_camera.ms_p50":
            (_median_ms(st, "camera.warp_bev_to_camera"), "ms"),
        "camera.warp_bev_to_camera.self_s":
            (st["camera.warp_bev_to_camera"]["self_s"] if warps else 0.0, "s"),
        "camera.warp.read_share":
            (c["warp.read"] / c["warp.pixels"] if c["warp.pixels"] else 0.0,
             "ratio"),
        "interp.gather.samples": (int(c["gather.samples"]), "count"),
        "interp.gather.busy_s": (busy("interp.gather"), "s"),
        "interp.scatter.samples": (int(c["scatter.samples"]), "count"),
        "interp.scatter.busy_s": (busy("interp.scatter"), "s"),
        "camera.pixel_ground_points.calls_per_frame":
            (calls("camera.pixel_ground_points") / warps if warps else 0.0,
             "calls/frame"),
        "scene.composite_patch.calls": (calls("scene.composite_patch"), "count"),
        "scene.composite_patch.ms_p50":
            (_median_ms(st, "scene.composite_patch"), "ms"),
        "scene.composite_patch.mb_copied": (c["composite.bytes"] / 1e6, "MB"),
        "camera.patch_footprint.ms_p50":
            (_median_ms(st, "camera.patch_footprint"), "ms"),
        "camera.splat_camera_to_bev.ms_p50":
            (_median_ms(st, "camera.splat_camera_to_bev"), "ms"),
        "camera.splat_camera_to_bev.busy_s":
            (busy("camera.splat_camera_to_bev"), "s"),
        "scene.composite_adjoint_local.ms_p50":
            (_median_ms(st, "scene.composite_adjoint_local"), "ms"),
        "detector.detector_gradient.ms_p50":
            (_median_ms(st, "detector.detector_gradient"), "ms"),
        "attack.patch_gradient.calls": (calls("attack.patch_gradient"), "count"),
        "attack.patch_gradient.ms_p50":
            (_median_ms(st, "attack.patch_gradient"), "ms"),
        "attack.rollout_with_patch.calls":
            (calls("attack.rollout_with_patch"), "count"),
        "attack.rollout_with_patch.ms_p50":
            (_median_ms(st, "attack.rollout_with_patch"), "ms"),
        "attack.rollout_with_patch.self_s":
            (st["attack.rollout_with_patch"]["self_s"]
             if "attack.rollout_with_patch" in st else 0.0, "s"),
        "attack.optimize.accept_ratio":
            (c["optimize.accepted"] / candidates if candidates > 0 else 0.0,
             "ratio"),
        "detector.detect_lanes.ms_p50":
            (_median_ms(st, "detector.detect_lanes"), "ms"),
        "controller.steer_from_path.us_p50":
            (_median_ms(st, "controller.steer_from_path", 1e6), "us"),
        "motion.step.us_p50": (_median_ms(st, "motion.step", 1e6), "us"),
        "pgmio.write_pgm.calls": (calls("pgmio.write_pgm"), "count"),
        "pgmio.write_pgm.ms_p50": (_median_ms(st, "pgmio.write_pgm"), "ms"),
        "pgmio.write_pgm.mb_written": (c["pgm.bytes"] / 1e6, "MB"),
        "config.load_config.ms": (_median_ms(st, "config.load_config"), "ms"),
        "scene.render_road_bev.ms":
            (_median_ms(st, "scene.render_road_bev"), "ms"),
    }
