"""Run artifacts: trajectory and optimizer-history CSVs, JSON reports.

Floats are written with nine significant digits — enough to reproduce a
trajectory bit-for-bit through a parse round-trip at simulation scale,
short enough to stay readable.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .attack import HistoryEntry
from .motion import VehicleState


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


TRAJECTORY_FIELDS = ("t", "x", "y", "heading", "speed", "steer", "lat_dev")


def write_trajectory_csv(path, states: list[VehicleState], dt: float,
                         steers: list[float]) -> None:
    """One row per state; the final state has no steer decision (blank)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(TRAJECTORY_FIELDS)
        for i, s in enumerate(states):
            steer = _fmt(steers[i]) if i < len(steers) else ""
            out.writerow([_fmt(i * dt), _fmt(s.x), _fmt(s.y),
                          _fmt(s.heading), _fmt(s.speed), steer,
                          _fmt(abs(s.y))])


HISTORY_FIELDS = ("iteration", "total", "path_term", "reg_term", "directed",
                  "step_size", "max_deviation", "accepted")


def write_history_csv(path, history: list[HistoryEntry]) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(HISTORY_FIELDS)
        for h in history:
            bd = h.breakdown
            out.writerow([h.iteration, _fmt(bd.total), _fmt(bd.path_term),
                          _fmt(bd.reg_term), _fmt(bd.directed),
                          _fmt(h.step_size), _fmt(h.max_deviation),
                          int(h.accepted)])


def write_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())
