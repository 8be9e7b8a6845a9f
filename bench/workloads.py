"""The benchmark's three workloads: inputs, operations and output checks.

Every workload builds its inputs from the run's seed, which becomes the
scenario seed and so picks the asphalt texture of every scene; the
package receives only those inputs.  An operation is the unit the run
counts as attempted and, when it raises or fails a check, as failed.

- ``benign-loop``: the unpatched 10 s closed loop of each bundled
  scenario, three operations of 200 frames each.  No attack code runs;
  the dense camera warp is nearly all of a frame.
- ``attack-72``: ``optimize_patch`` on highway-72 for a fixed budget of
  ``ATTACK_ITERATIONS`` iterations, then a 10 s ``run_closed_loop`` on
  the returned patch; one operation.  Adds the per-candidate scene
  composite and the gradient pass.
- ``dump-frames``: ``roadpatch evaluate highway-126 --identity-patch
  --dump-frames`` through the command-line entry point; one operation.
  Every pixel of every frame is needed and written as a 16-bit PGM.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

# At 12 iterations every seed tried reaches the 0.745 m goal, while the
# run stays short enough for one operation per run.
ATTACK_ITERATIONS = 12
SCENARIOS = ("highway-72", "highway-105", "highway-126")
BENIGN_MAX_DEVIATION = 0.1
ADJOINT_TOL = 1e-8
PIXEL_FRAMES = 8
PIXELS_PER_FRAME = 256


class LoopTimer:
    """Per-frame wall times of the closed loop, from outside the package.

    Every closed-loop frame ends in one ``step`` call inside
    ``rollout_with_patch``, which ``run_closed_loop`` and every optimizer
    rollout go through.  Both names are rebound where ``attack`` and
    ``sim`` look them up; a frame's time runs from the previous step (or
    the rollout's start) to its own step.  One clock read per frame, in
    traced and untraced runs alike.
    """

    def __init__(self):
        from roadpatch import attack, sim

        self.frame_s: list[float] = []
        self._last = None
        rollout, step = attack.rollout_with_patch, attack.step

        def timed_rollout(*args, **kwargs):
            self._last = perf_counter()
            try:
                return rollout(*args, **kwargs)
            finally:
                self._last = None

        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            if self._last is not None:
                now = perf_counter()
                self.frame_s.append(now - self._last)
                self._last = now
            return out

        attack.step = timed_step
        for mod in (attack, sim):
            mod.rollout_with_patch = timed_rollout


class Workload:
    scenarios: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.inputs: list = []
        self.summary: dict = {}

    def setup(self) -> None:
        """``load_config`` plus ``build_scene`` for every scenario used."""
        from roadpatch import config

        self.inputs = []          # let the previous rasters go first
        for name in self.scenarios:
            cfg = config.load_config(config.resolve_scenario(name),
                                     seed_override=self.seed)
            scene, mask = cfg.build_scene()
            self.inputs.append((cfg, scene, mask))

    def operations(self):
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _drive(cfg, scene, mask, patch):
    from roadpatch import sim

    return sim.run_closed_loop(scene, mask, patch, cfg.initial_state(),
                               cfg.duration_s, cfg.pipeline(), cfg.goal_m)


class BenignLoop(Workload):
    scenarios = SCENARIOS

    def operations(self):
        return [lambda cfg=cfg, scene=scene, mask=mask:
                (cfg, _drive(cfg, scene, mask, None))
                for cfg, scene, mask in self.inputs]

    def check(self, output):
        cfg, sim = output
        name = cfg.name
        problems = []
        if sim.truncated or sim.frames_evaluated != cfg.n_frames:
            problems.append(f"{name}: {sim.frames_evaluated} of {cfg.n_frames} "
                            f"frames, truncated={sim.truncated}")
        worst = max(abs(s.y) for s in sim.states)
        if not worst < BENIGN_MAX_DEVIATION:
            problems.append(f"{name}: max |y| = {worst} m")
        v = cfg.vehicle
        problems += [f"{name}: {p}" for p in checks.euler_problems(
            sim.states, sim.steers, v.wheelbase, v.dt, v.max_steer)]
        return problems


class Attack72(Workload):
    scenarios = ("highway-72",)

    def operations(self):
        from roadpatch import attack

        cfg, scene, mask = self.inputs[0]

        def op():
            budget = dataclasses.replace(cfg.attack,
                                         iterations=ATTACK_ITERATIONS)
            opt = attack.optimize_patch(scene, mask, cfg.initial_patch(),
                                        cfg.initial_state(), cfg.pipeline(),
                                        budget)
            return opt, _drive(cfg, scene, mask, opt.patch)
        return [op]

    def check(self, output):
        from roadpatch.scene import composite_patch

        cfg, scene, mask = self.inputs[0]
        opt, sim = output
        patch = opt.patch
        problems = []
        vals = patch.values
        if not np.all((vals >= cfg.patch_v_min) & (vals <= cfg.patch_v_max)):
            problems.append("patch values leave [v_min, v_max]")
        comp = composite_patch(scene, patch, mask)
        if not np.array_equal(comp.pixels[mask], scene.pixels[mask]):
            problems.append("compositing changed a lane-line pixel")
        del comp
        best = opt.history[opt.best_iteration].breakdown.directed
        start = opt.history[0].breakdown.directed
        if not best <= start:
            problems.append(f"best directed objective {best} above the "
                            f"initial {start}")

        entry = checks.patch_entry_frame(cfg.camera, sim.states,
                                         cfg.placement.rect)
        want = checks.crossing_time(sim.states, sim.dt, cfg.goal_m, entry)
        got = sim.attack_time
        if want is None or got is None or abs(want - got) > 1e-9:
            problems.append(f"attack time {got} but the trajectory crosses "
                            f"{cfg.goal_m} m at {want} (entry frame {entry})")
        self.summary = {"attack_time_s": got, "entry_frame": entry,
                        "iterations": ATTACK_ITERATIONS,
                        "best_iteration": opt.best_iteration,
                        "frames_evaluated": sim.frames_evaluated,
                        "truncated": sim.truncated}
        if entry is not None:
            problems += self._adjoint_problems(patch, sim.states[entry - 1])
        return problems

    def _adjoint_problems(self, patch, pose):
        """<G, W C dv> == <(W C)^T G, dv> on one frame, to ADJOINT_TOL."""
        from roadpatch.camera import splat_camera_to_bev, warp_bev_to_camera
        from roadpatch.scene import composite_patch

        cfg, scene, mask = self.inputs[0]
        rng = np.random.default_rng(self.seed)
        bumped = np.clip(patch.values + rng.uniform(-0.05, 0.05,
                                                    patch.values.shape),
                         patch.v_min, patch.v_max)
        dv = bumped - patch.values
        cam = cfg.camera
        base = warp_bev_to_camera(composite_patch(scene, patch, mask),
                                  cam, pose).pixels
        moved = warp_bev_to_camera(
            composite_patch(scene, patch.with_values(bumped), mask),
            cam, pose).pixels
        g = rng.standard_normal(base.shape)
        lhs = float(np.sum(g * (moved - base)))
        rhs = float(np.sum(splat_camera_to_bev(g, cam, pose, scene, patch,
                                               mask) * dv))
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        if not rel <= ADJOINT_TOL:
            return [f"warp/splat adjoint off by {rel:.2e} relative"]
        return []


class DumpFrames(Workload):
    scenarios = ("highway-126",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from roadpatch import cli

        self.frames_dir = workdir / "frames"
        self._reference = None
        self._last = None
        run_closed_loop = cli.run_closed_loop

        def keep(scene, mask, *args, **kwargs):
            out = run_closed_loop(scene, mask, *args, **kwargs)
            self._last = (out, scene, mask)
            return out

        cli.run_closed_loop = keep
        self._restore = lambda: setattr(cli, "run_closed_loop",
                                        run_closed_loop)

    def setup(self):
        # The command builds its own scene; checks read that one back, so
        # holding a second copy here would only inflate peak memory.
        super().setup()
        self.inputs = [(cfg, None, None) for cfg, _, _ in self.inputs]

    def operations(self):
        from roadpatch import cli

        def op():
            shutil.rmtree(self.frames_dir, ignore_errors=True)
            self._last = None
            argv = ["evaluate", self.scenarios[0], "--identity-patch",
                    "--dump-frames", str(self.frames_dir),
                    "--out", str(self.workdir / "out"),
                    "--seed", str(self.seed), "--deterministic"]
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            kept = self._last or (None, None, None)
            self._last = None
            return (code, *kept)
        return [op]

    def check(self, output):
        cfg = self.inputs[0][0]
        code, sim, scene, mask = output
        if code != 0 or sim is None:
            return [f"evaluate exited {code}"]
        if self._reference is None:
            self._reference = _drive(cfg, scene, mask, None)
        ref = self._reference
        problems = []
        if sim.steers != ref.steers or [dataclasses.astuple(s) for s in sim.states] \
                != [dataclasses.astuple(s) for s in ref.states]:
            problems.append("identity-patch trajectory differs from the "
                            "unpatched run")
        n = sim.frames_evaluated
        names = sorted(p.name for p in self.frames_dir.iterdir())
        want = [f"frame_{k:05d}.pgm" for k in range(1, n + 1)]
        if names != want:
            return problems + [f"{len(names)} frame files for {n} frames"]
        width, height = cfg.camera.image_size
        rng = np.random.default_rng(self.seed)
        probe = set(int(k) for k in rng.choice(n, size=min(PIXEL_FRAMES, n),
                                               replace=False) + 1)
        for k, name in enumerate(names, start=1):
            raw, bad = checks.pgm_problems(
                (self.frames_dir / name).read_bytes(), width, height)
            if bad:
                problems += [f"{name}: {p}" for p in bad]
            elif k in probe:
                problems += self._pixel_problems(name, raw, sim.states[k - 1],
                                                 rng, scene, mask)
        return problems

    def _pixel_problems(self, name, raw, pose, rng, scene, mask):
        """Dumped grays match ray-ground hits looked up in the composited scene."""
        cfg = self.inputs[0][0]
        width, height = cfg.camera.image_size
        u = rng.integers(0, width, PIXELS_PER_FRAME)
        v = rng.integers(0, height, PIXELS_PER_FRAME)
        gx, gy, ahead = checks.ground_points(cfg.camera, pose, u, v)
        x_lo, x_hi, y_lo, y_hi = cfg.placement.rect
        mpp, origin = scene.meters_per_pixel, scene.origin

        def identity_patch(rows, cols):
            cx = origin[0] + rows * mpp
            cy = origin[1] + cols * mpp
            covered = ((cx >= x_lo - 1e-9) & (cx <= x_hi + 1e-9)
                       & (cy >= y_lo - 1e-9) & (cy <= y_hi + 1e-9)
                       & ~mask[rows, cols])
            return covered, cfg.road.asphalt_intensity

        want = checks.lookup(scene.pixels, origin, mpp, gx, gy, ahead,
                             identity_patch)
        got = raw[v, u] / 65535.0
        err = np.abs(got - want)
        if err.max() > checks.HALF_QUANTUM + 1e-9:
            k = int(err.argmax())
            return [f"{name}: pixel (u={u[k]}, v={v[k]}) is {float(got[k])!r}, "
                    f"ray-ground lookup gives {float(want[k])!r}"]
        return []

    def close(self):
        self._restore()
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"benign-loop": BenignLoop, "attack-72": Attack72,
             "dump-frames": DumpFrames}
