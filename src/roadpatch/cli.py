"""Command-line front end.

Subcommands cover the full experiment loop:

- ``render``    rasterize a scenario's road scene to PGM
- ``benign``    closed-loop run without a patch
- ``optimize``  run the patch optimizer and save the result
- ``evaluate``  closed-loop run with a saved (or identity) patch
- ``report``    fold a run directory's JSON reports into one summary

Exit codes: 0 success, 2 configuration problem, 3 runtime failure
(an ``OSError`` writing an output included, and a ``benign`` or
``evaluate`` run whose first frame fails, after its report is written),
4 the attack goal was not met under ``--require-success``.  Failures
also emit a one-line JSON record on stderr so harnesses don't have to
parse prose.
"""

from __future__ import annotations

import argparse
import errno
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
from .errors import (
    ConfigError,
    DetectionFailedError,
    InvalidArgumentError,
    RoadPatchError,
)
from .sim import run_closed_loop

log = logging.getLogger("roadpatch.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_GOAL_NOT_MET = 4


def _out_dir(args, cfg: ScenarioConfig) -> Path:
    """The run directory; a command makes it just before its first
    artifact, so a refused run leaves none.  A path through an existing
    file is refused here, before any work."""
    out = Path(args.out) if args.out else Path("runs") / cfg.name
    for p in (out, *out.parents):
        if p.exists() and not p.is_dir():
            raise FileExistsError(errno.EEXIST, "File exists", str(p))
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

    def sink(frame):    # the frame is the sink's alone: clip it in place
        pgmio.write_pgm(dump_dir / f"frame_{frame.index:05d}.pgm",
                        np.clip(frame.pixels, 0.0, 1.0, out=frame.pixels))
    return sink


def cmd_render(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args, cfg)
    scene, mask = cfg.build_scene()
    out.mkdir(parents=True, exist_ok=True)
    pgmio.save_bev(out / "scene.pgm", scene, extra={"scenario": cfg.name,
                                                    "config_hash": cfg.hash})
    pgmio.write_pgm(out / "line_mask.pgm", mask)
    rep = _base_report("render", cfg, args)
    rep.update({"extent": list(scene.extent),
                "meters_per_pixel": scene.meters_per_pixel,
                "shape": list(scene.shape),
                "scene_file": "scene.pgm"})
    artifacts.write_report(out / "render_report.json", rep)
    print(f"rendered {scene.shape[0]}x{scene.shape[1]} scene "
          f"for '{cfg.name}' -> {out / 'scene.pgm'}")
    return EXIT_OK


def _run_and_report(kind: str, cfg: ScenarioConfig, args, patch,
                    patch_label: str) -> dict:
    out = _out_dir(args, cfg)
    scene, mask = cfg.build_scene()
    sink = _frame_sink(Path(args.dump_frames)) if getattr(
        args, "dump_frames", None) else None
    result = run_closed_loop(scene, mask, patch, cfg.initial_state(),
                             cfg.duration_s, cfg.pipeline(), cfg.goal_m,
                             frame_sink=sink)
    out.mkdir(parents=True, exist_ok=True)
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
    if not result.frames_evaluated:
        raise DetectionFailedError(
            f"the first frame's detection failed, so the {kind} run measured "
            f"nothing; its report is in {out}")
    return rep


def cmd_benign(args) -> int:
    cfg = _load_scenario(args)
    rep = _run_and_report("benign", cfg, args, None, "none")
    print(f"benign run '{cfg.name}': max |y| = "
          f"{rep['max_lateral_deviation']:.4f} m over "
          f"{rep['frames_evaluated']} frames")
    return EXIT_OK


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
    out.mkdir(parents=True, exist_ok=True)
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
            cfg.check_patch(patch.placement, patch.v_max)
        except (OSError, ArithmeticError, LookupError, TypeError, ValueError,
                RoadPatchError) as exc:
            raise ConfigError("patch", f"cannot use the patch at "
                                       f"{patch_path}: {exc}") from exc
    rep = _run_and_report("evaluate", cfg, args, patch, label)
    if rep["success"]:
        print(f"evaluate '{cfg.name}': goal {cfg.goal_m} m reached "
              f"{rep['attack_time_s']:.3f} s after patch entry "
              f"(max |y| = {rep['max_lateral_deviation']:.3f} m)")
    else:
        print(f"evaluate '{cfg.name}': goal {cfg.goal_m} m not reached "
              f"(max |y| = {rep['max_lateral_deviation']:.3f} m)")
        if args.require_success:
            return EXIT_GOAL_NOT_MET
    return EXIT_OK


def _summary_lines(kind: str, rep) -> list[str]:
    """What ``report`` prints for one report; raises ``LookupError``,
    ``TypeError`` or ``ValueError`` on a report without a field it prints
    (a render report has none)."""
    if kind == "render":
        return []
    if kind == "optimize":
        return [f"optimize: directed objective {rep['directed']:.5f} after "
                f"{rep['iterations_run']} iterations"]
    line = f"{kind}: max |y| = {rep['max_lateral_deviation']:.4f} m"
    if kind == "evaluate":
        t = rep.get("attack_time_s")
        line += (f", attack time {t:.3f} s" if t is not None
                 else ", goal not reached")
    return [line]


def cmd_report(args) -> int:
    out = Path(args.out) if args.out else None
    if out is None or not out.is_dir():
        raise InvalidArgumentError("report needs --out pointing at a run "
                                   "directory")
    summary: dict = {"kind": "summary", "run_dir": str(out)}
    lines: list[str] = []
    found = False
    for kind in ("render", "benign", "evaluate", "optimize"):
        path = out / f"{kind}_report.json"
        if path.exists():
            found = True
            try:
                rep = summary[kind] = artifacts.read_report(path)
                if rep["kind"] != kind:
                    raise ValueError(f"its kind is {rep['kind']!r}")
                lines += _summary_lines(kind, rep)
            except (LookupError, TypeError, ValueError) as exc:
                raise InvalidArgumentError(
                    f"{path} is not a {kind} report: {exc!r}") from exc
    if not found:
        raise InvalidArgumentError(f"no reports found under {out}")
    artifacts.write_report(out / "summary.json", summary)
    print("\n".join(lines + [f"summary -> {out / 'summary.json'}"]))
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
                                f"({', '.join(builtin_scenarios())})")
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
    except (RoadPatchError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
