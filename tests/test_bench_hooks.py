"""The benchmark rebinds package functions by name and imports others
inside its workloads; every such name must exist, so a rename fails here
rather than in a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

from roadpatch import attack, camera

_BENCH = Path(__file__).resolve().parent.parent / "bench"
_SPANS = _BENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound(scenario72):
    spans = _load_spans()
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
