"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload benign-loop --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload runs in a fresh interpreter
(``worker.py``) with BLAS and OpenMP pinned to one thread.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` runs the workload twice,
untraced and then traced, and reports the per-layer metrics of the
traced run with the tracing overhead between the two.  Standard output
ends with a provenance line and then the result line::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

A record of the run goes to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("benign-loop", "attack-72", "dump-frames")
# Every run must end within 180 s; the workers share what is left of it.
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha() -> str:
    """Digest of every file under ``src/``, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_worker(args, trace: int, deadline: float, tag: str) -> dict:
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if trace:
        cmd += ["--spans",
                str(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    env = {**os.environ, **PINNED}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - monotonic(), 1.0),
                              text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def end_to_end(w: dict) -> dict:
    return {
        "setup_s": {"value": w["setup_s"], "unit": "s"},
        "frames_per_s": {"value": 1e3 / w["frame_ms_p50"]
                         if w["frame_ms_p50"] else 0.0, "unit": "frames/s"},
        "round_wall_s": {"value": statistics.median(w["round_walls_s"]),
                         "unit": "s"},
        "peak_rss_mb": {"value": w["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds until this much time is spent")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "roadpatch" / "__init__.py").is_file():
        print(f"bench: no roadpatch package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    try:
        base = run_worker(args, 0, deadline, "plain")
        runs = [base]
        if args.trace:
            traced = run_worker(args, 1, deadline, "traced")
            runs.append(traced)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {args.workload} seed {args.seed}: {exc}",
              file=sys.stderr)
        return 1

    if args.trace:
        plain = statistics.median(base["round_walls_s"])
        with_spans = statistics.median(traced["round_walls_s"])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["per_layer"].items()}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (with_spans - plain) / plain, "unit": "%"}
    else:
        metrics = end_to_end(base)

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_sha": source_sha(),
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": base["numpy"],
        "blas_threads": PINNED["OPENBLAS_NUM_THREADS"],
        "summary": base["summary"],
    }
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    record = {"provenance": provenance, "result": result,
              "runs": [{k: v for k, v in r.items() if k != "per_layer"}
                       for r in runs]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
