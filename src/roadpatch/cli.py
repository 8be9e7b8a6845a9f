"""Command-line front end.

Subcommands cover the full experiment loop:

- ``render``    rasterize a scenario's road scene to PGM
- ``benign``    closed-loop run without a patch
- ``optimize``  run the patch optimizer and save the result
- ``evaluate``  closed-loop run with a saved (or identity) patch
- ``report``    fold a run directory's JSON reports into one summary

Exit codes: 0 success, 2 configuration problem, 3 runtime failure,
4 the attack goal was not met under ``--require-success``.  Failures
also emit a one-line JSON record on stderr so harnesses don't have to
parse prose.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import artifacts, pgmio
from .attack import optimize_patch
from .config import (
    ScenarioConfig,
    builtin_scenarios,
    load_config,
    resolve_scenario,
)
from .errors import ConfigError, InvalidArgumentError, RoadPatchError
from .sim import run_closed_loop

log = logging.getLogger("roadpatch.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_GOAL_NOT_MET = 4


def _out_dir(args, cfg: ScenarioConfig) -> Path:
    out = Path(args.out) if args.out else Path("runs") / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _base_report(kind: str, cfg: ScenarioConfig, args) -> dict:
    rep = {"kind": kind, "scenario": cfg.name, "config_hash": cfg.hash,
           "seed": cfg.seed, "speed_kmh": cfg.speed_kmh}
    if not args.deterministic:
        rep["created_at"] = datetime.now(timezone.utc).isoformat()
    return rep


def _load_scenario(args) -> ScenarioConfig:
    return load_config(resolve_scenario(args.scenario),
                       seed_override=args.seed)


def _frame_sink(dump_dir: Path):
    dump_dir.mkdir(parents=True, exist_ok=True)

    def sink(frame):
        pgmio.write_pgm(dump_dir / f"frame_{frame.index:05d}.pgm",
                        np.clip(frame.pixels, 0.0, 1.0))
    return sink


def cmd_render(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args, cfg)
    scene, mask = cfg.build_scene()
    pgmio.save_bev(out / "scene.pgm", scene, extra={"scenario": cfg.name,
                                                    "config_hash": cfg.hash})
    pgmio.write_pgm(out / "line_mask.pgm", mask.astype(float))
    rep = _base_report("render", cfg, args)
    rep.update({"extent": list(cfg.extent),
                "meters_per_pixel": cfg.meters_per_pixel,
                "shape": list(scene.pixels.shape),
                "scene_file": "scene.pgm"})
    artifacts.write_report(out / "render_report.json", rep)
    print(f"rendered {scene.pixels.shape[0]}x{scene.pixels.shape[1]} scene "
          f"for '{cfg.name}' -> {out / 'scene.pgm'}")
    return EXIT_OK


def _run_and_report(kind: str, cfg: ScenarioConfig, args, patch,
                    patch_label: str) -> tuple[dict, int]:
    scene, mask = cfg.build_scene()
    sink = _frame_sink(Path(args.dump_frames)) if getattr(
        args, "dump_frames", None) else None
    result = run_closed_loop(scene, mask, patch, cfg.initial_state(),
                             cfg.duration_s, cfg.pipeline(), cfg.goal_m,
                             frame_sink=sink)
    out = _out_dir(args, cfg)
    traj_name = f"{kind}_trajectory.csv"
    artifacts.write_trajectory_csv(out / traj_name, result.states,
                                   result.dt, result.steers)
    rep = _base_report(kind, cfg, args)
    rep.update({
        "patch": patch_label,
        "goal_m": cfg.goal_m,
        "max_lateral_deviation": result.max_lateral_deviation,
        "final_lateral_deviation": abs(result.states[-1].y),
        "attack_time_s": result.attack_time,
        "patch_entry_frame": result.patch_entry_frame,
        "success": result.succeeded,
        "truncated": result.truncated,
        "frames_evaluated": result.frames_evaluated,
        "trajectory_file": traj_name,
    })
    artifacts.write_report(out / f"{kind}_report.json", rep)
    return rep, EXIT_OK


def cmd_benign(args) -> int:
    cfg = _load_scenario(args)
    rep, code = _run_and_report("benign", cfg, args, None, "none")
    print(f"benign run '{cfg.name}': max |y| = "
          f"{rep['max_lateral_deviation']:.4f} m over "
          f"{rep['frames_evaluated']} frames")
    return code


def cmd_optimize(args) -> int:
    cfg = _load_scenario(args)
    if args.iterations is not None:
        if args.iterations < 0:
            raise ConfigError("attack.iterations", "must be >= 0")
        cfg.merged["attack"]["iterations"] = args.iterations
        cfg.attack = type(cfg.attack)(**cfg.merged["attack"])
    out = _out_dir(args, cfg)
    scene, mask = cfg.build_scene()
    t0 = time.perf_counter()
    result = optimize_patch(scene, mask, cfg.initial_patch(),
                            cfg.initial_state(), cfg.pipeline(), cfg.attack,
                            logger=log if args.verbose else None)
    elapsed = time.perf_counter() - t0
    pgmio.save_patch(out / "patch.pgm", result.patch,
                     extra={"scenario": cfg.name, "config_hash": cfg.hash})
    artifacts.write_history_csv(out / "history.csv", result.history)
    best = result.best_breakdown
    rep = _base_report("optimize", cfg, args)
    rep.update({
        "iterations_run": result.iterations_run,
        "best_iteration": result.best_iteration,
        "converged": result.converged,
        "path_term": best.path_term,
        "reg_term": best.reg_term,
        "total": best.total,
        "directed": best.directed,
        "max_deviation_horizon":
            result.history[result.best_iteration].max_deviation,
        "patch_file": "patch.pgm",
        "history_file": "history.csv",
    })
    if not args.deterministic:
        rep["elapsed_s"] = elapsed
    artifacts.write_report(out / "optimize_report.json", rep)
    print(f"optimized '{cfg.name}': directed objective "
          f"{best.directed:.5f} at iteration {result.best_iteration} "
          f"({result.iterations_run} run, {elapsed:.1f}s) -> {out / 'patch.pgm'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args, cfg)
    if args.identity_patch:
        patch, label = cfg.identity_patch(), "identity"
    else:
        patch_path = Path(args.patch) if args.patch else out / "patch.pgm"
        if not patch_path.exists():
            raise ConfigError("patch",
                              f"no patch file at {patch_path}; run optimize "
                              f"first or pass --patch")
        # A patch under the run directory is named relative to it, so the
        # report does not depend on where the run directory lives.
        where, root = patch_path.resolve(), out.resolve()
        label = str(where.relative_to(root) if where.is_relative_to(root)
                    else patch_path)
        try:
            patch = pgmio.load_patch(patch_path)
            cfg.check_placement(patch.placement)
        except (OSError, ArithmeticError, LookupError, TypeError, ValueError,
                RoadPatchError) as exc:
            raise ConfigError("patch", f"cannot use the patch at "
                                       f"{patch_path}: {exc}") from exc
        if not patch.within_bounds():
            raise ConfigError("patch", f"the grays of {patch_path} stray "
                                       f"outside [v_min, v_max]")
    rep, code = _run_and_report("evaluate", cfg, args, patch, label)
    if rep["success"]:
        print(f"evaluate '{cfg.name}': goal {cfg.goal_m} m reached "
              f"{rep['attack_time_s']:.3f} s after patch entry "
              f"(max |y| = {rep['max_lateral_deviation']:.3f} m)")
    else:
        print(f"evaluate '{cfg.name}': goal {cfg.goal_m} m not reached "
              f"(max |y| = {rep['max_lateral_deviation']:.3f} m)")
        if args.require_success:
            return EXIT_GOAL_NOT_MET
    return code


def cmd_report(args) -> int:
    out = Path(args.out) if args.out else None
    if out is None or not out.is_dir():
        raise InvalidArgumentError("report needs --out pointing at a run "
                                   "directory")
    summary: dict = {"kind": "summary", "run_dir": str(out)}
    found = False
    for name in ("render", "benign", "optimize", "evaluate"):
        path = out / f"{name}_report.json"
        if path.exists():
            found = True
            summary[name] = artifacts.read_report(path)
    if not found:
        raise InvalidArgumentError(f"no reports found under {out}")
    artifacts.write_report(out / "summary.json", summary)
    for key in ("benign", "evaluate"):
        rep = summary.get(key)
        if rep:
            line = (f"{key}: max |y| = {rep['max_lateral_deviation']:.4f} m")
            if key == "evaluate":
                t = rep.get("attack_time_s")
                line += (f", attack time {t:.3f} s" if t is not None
                         else ", goal not reached")
            print(line)
    if "optimize" in summary:
        rep = summary["optimize"]
        print(f"optimize: directed objective {rep['directed']:.5f} after "
              f"{rep['iterations_run']} iterations")
    print(f"summary -> {out / 'summary.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadpatch",
        description="Closed-loop lane-keeping attack workbench: render road "
                    "scenes, drive the perception/control loop, optimize "
                    "adversarial road patches, and score the excursions.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="chatty progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_scenario=True):
        if needs_scenario:
            p.add_argument("scenario",
                           help="scenario JSON path or bundled name "
                                f"({', '.join(builtin_scenarios())})"
                           if _have_builtins() else
                           "scenario JSON path or bundled name")
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
        p.add_argument("--out", default=None,
                       help="run directory (default: runs/<scenario name>)")
        p.add_argument("--deterministic", action="store_true",
                       help="omit wall-clock fields from reports")

    p = sub.add_parser("render", help="rasterize the road scene")
    add_common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("benign", help="closed-loop run without a patch")
    add_common(p)
    p.add_argument("--dump-frames", default=None, metavar="DIR",
                   help="also write every camera frame as PGM")
    p.set_defaults(func=cmd_benign)

    p = sub.add_parser("optimize", help="optimize an adversarial patch")
    add_common(p)
    p.add_argument("--iterations", type=int, default=None,
                   help="override the scenario's iteration budget")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="closed-loop run with a patch")
    add_common(p)
    p.add_argument("--patch", default=None,
                   help="patch PGM (default: <out>/patch.pgm)")
    p.add_argument("--identity-patch", action="store_true",
                   help="evaluate the asphalt-colored null patch instead")
    p.add_argument("--require-success", action="store_true",
                   help="exit 4 unless the deviation goal is reached")
    p.add_argument("--dump-frames", default=None, metavar="DIR",
                   help="also write every camera frame as PGM")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="summarize a run directory")
    add_common(p, needs_scenario=False)
    p.set_defaults(func=cmd_report)

    return parser


def _have_builtins() -> bool:
    try:
        return bool(builtin_scenarios())
    except Exception:
        return False


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        json.dump({"error": type(exc).__name__, "field": exc.field,
                   "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_CONFIG
    except RoadPatchError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
