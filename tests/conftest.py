"""Shared fixtures for the test suite.

Bundled scenario configs and the rendered 72 km/h scene are session
fixtures so the many tests that need them don't re-parse or re-raster.
The two full-budget optimize/evaluate command-line runs are also session
fixtures — they dominate the suite's runtime and several end-to-end
checks score the same artifacts.

End-to-end verdicts are collected through ``record_check`` and printed
as one PASS/FAIL line each in a terminal-summary section, so the
measured numbers survive pytest's output capture.
"""

from __future__ import annotations

import json
import time

import pytest

from roadpatch import cli
from roadpatch.config import load_config, resolve_scenario

_CHECKS: list[tuple[str, bool, str]] = []


# The full-budget optimize/evaluate fixtures; ``pytest -m 'not slow'``
# skips every test that needs one.
_SLOW_FIXTURES = {"attack72", "attack126"}


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _SLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CHECKS:
        return
    terminalreporter.section("acceptance summary")
    for name, passed, detail in _CHECKS:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}  [{detail}]")


@pytest.fixture(scope="session")
def record_check():
    """Callable that files one headline verdict for the summary block."""

    def _record(name: str, passed: bool, detail: str) -> None:
        _CHECKS.append((name, bool(passed), detail))

    return _record


def run_cli(*argv) -> int:
    """Invoke the command-line entry point in-process."""
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="session")
def scenario72():
    return load_config(resolve_scenario("highway-72"))


@pytest.fixture(scope="session")
def scenario105():
    return load_config(resolve_scenario("highway-105"))


@pytest.fixture(scope="session")
def scenario126():
    return load_config(resolve_scenario("highway-126"))


@pytest.fixture(scope="session")
def scene72(scenario72):
    """Rendered scene and line mask for highway-72; treat as read-only."""
    return scenario72.build_scene()


def _cli_attack(name: str, out) -> dict:
    t0 = time.perf_counter()
    assert run_cli("optimize", name, "--out", out, "--deterministic") == 0
    assert run_cli("evaluate", name, "--out", out, "--deterministic") == 0
    elapsed = time.perf_counter() - t0
    return {
        "out": out,
        "optimize": json.loads((out / "optimize_report.json").read_text()),
        "evaluate": json.loads((out / "evaluate_report.json").read_text()),
        "elapsed_s": elapsed,
    }


@pytest.fixture(scope="session")
def attack72(tmp_path_factory):
    """Full-budget optimize + evaluate run for highway-72 (slow)."""
    return _cli_attack("highway-72", tmp_path_factory.mktemp("attack72"))


@pytest.fixture(scope="session")
def attack126(tmp_path_factory):
    """Full-budget optimize + evaluate run for highway-126 (slow)."""
    return _cli_attack("highway-126", tmp_path_factory.mktemp("attack126"))
