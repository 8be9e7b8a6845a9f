"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` in a fresh interpreter whose BLAS and OpenMP pools
are pinned to one thread.  The last line of standard output is one JSON
object; everything the package itself prints goes to standard error.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, LoopTimer  # noqa: E402

# Set-up is short and noisy, so it is repeated and the median reported.
SETUP_REPEATS = 7


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    from roadpatch.errors import RoadPatchError

    loop = LoopTimer()
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            from roadpatch.config import load_config, resolve_scenario
            cfg = load_config(resolve_scenario(workload.scenarios[0]))
            spans.install_all(tracer, cfg)
            tracer.enabled = True

        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)

        attempted = failed = 0
        correct = True
        measured = 0.0
        frame_s: list[float] = []
        round_walls: list[float] = []
        problems: list[str] = []
        rss = None
        while not round_walls or measured < args.seconds:
            if tracer is not None:
                tracer.round = len(round_walls) + 1
                tracer.enabled = True
            results = []
            wall = 0.0
            first_frame = len(loop.frame_s)
            for op in workload.operations():
                t0 = perf_counter()
                try:
                    results.append((op(), None))
                except RoadPatchError:
                    results.append((None, traceback.format_exc(limit=3)))
                wall += perf_counter() - t0
            frame_s += loop.frame_s[first_frame:]
            if tracer is not None:
                tracer.enabled = False
            if rss is None:
                rss = peak_rss_mb()     # before any check allocates
            round_walls.append(wall)
            measured += wall
            for result, error in results:
                attempted += 1
                if error is not None:
                    failed += 1
                    problems.append(error)
                    continue
                bad = workload.check(result)
                if bad:
                    failed += 1
                    correct = False
                    problems += bad
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
            if args.spans:
                tracer.dump(args.spans)

    for line in problems:
        print(f"check: {line}", file=sys.stderr)
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "setup_s": statistics.median(setup_times),
        "setup_runs_s": setup_times,
        "round_walls_s": round_walls,
        "frames": len(frame_s),
        "frame_ms_p50": statistics.median(frame_s) * 1e3 if frame_s else 0.0,
        "peak_rss_mb": rss,
        "numpy": np.__version__,
        "summary": workload.summary,
    }
    if tracer is not None:
        out["per_layer"] = spans.per_layer_metrics(tracer)
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
