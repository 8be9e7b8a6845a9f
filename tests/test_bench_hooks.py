"""The benchmark rebinds package functions by name and imports others
inside its workloads; every such name must exist, so a rename fails here
rather than in a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

from roadpatch import attack, camera, cli, sim

_BENCH = Path(__file__).resolve().parent.parent / "bench"
_SPANS = _BENCH / "spans.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound(scenario72):
    spans = _load("bench_spans", _SPANS)
    before = attack.rollout_with_patch, camera.splat_camera_to_bev
    tracer = spans.Tracer()
    try:
        spans.install_all(tracer, scenario72)
        assert attack.rollout_with_patch is not before[0]
    finally:
        tracer.uninstall()
    assert (attack.rollout_with_patch, camera.splat_camera_to_bev) == before


def _resolves(module_name: str, name: str) -> bool:
    """Whether ``from module_name import name`` would succeed."""
    if hasattr(importlib.import_module(module_name), name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_benchmark_import_resolves():
    # The untraced benchmark imports these inside its workloads, so a
    # removed name would otherwise surface only when a workload runs.
    checked, missing = 0, []
    for path in (_BENCH / "workloads.py", _SPANS):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "roadpatch"):
                continue
            for alias in node.names:
                checked += 1
                if not _resolves(node.module, alias.name):
                    missing.append(f"{path.name}: from {node.module} "
                                   f"import {alias.name}")
    assert checked and not missing, missing


def test_every_workload_rebinding_resolves(tmp_path, monkeypatch):
    # ``LoopTimer`` rebinds ``step`` and ``rollout_with_patch`` where
    # ``attack`` and ``sim`` look them up; ``DumpFrames`` rebinds
    # ``cli.run_closed_loop`` until it is closed.
    rebound = [(attack, "step"), (attack, "rollout_with_patch"),
               (sim, "rollout_with_patch"), (cli, "run_closed_loop")]
    before = [getattr(mod, name) for mod, name in rebound]
    for (mod, name), value in zip(rebound, before):
        monkeypatch.setattr(mod, name, value)   # restored after the test
    monkeypatch.syspath_prepend(str(_BENCH))    # workloads imports checks
    workloads = _load("bench_workloads", _BENCH / "workloads.py")
    workloads.LoopTimer()
    dump = workloads.DumpFrames(0, tmp_path / "dump")
    assert all(getattr(mod, name) is not value
               for (mod, name), value in zip(rebound, before))
    dump.close()
    assert cli.run_closed_loop is before[-1]


def test_loop_timer_clocks_every_closed_loop_frame(scenario72, scene72,
                                                 monkeypatch):
    # ``frames_per_s`` is read off ``LoopTimer.frame_s``: a patched closed
    # loop must go through the rollout and the step it rebinds, once a frame.
    rebound = [(attack, "step"), (attack, "rollout_with_patch"),
               (sim, "rollout_with_patch")]
    for mod, name in rebound:
        monkeypatch.setattr(mod, name, getattr(mod, name))
    monkeypatch.syspath_prepend(str(_BENCH))
    timer = _load("bench_workloads", _BENCH / "workloads.py").LoopTimer()
    scene, mask = scene72
    result = sim.run_closed_loop(scene, mask, scenario72.identity_patch(),
                                 scenario72.initial_state(), 0.5,
                                 scenario72.pipeline(), scenario72.goal_m)
    assert result.frames_evaluated == 10
    assert len(timer.frame_s) == result.frames_evaluated
