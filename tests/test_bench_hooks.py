"""The traced benchmark rebinds package functions by name; every name it
traces must exist, so a rename fails here rather than in a traced run."""

import importlib.util
from pathlib import Path

from roadpatch import attack, camera

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
