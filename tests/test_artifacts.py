"""CSV/JSON artifact writers and their parse round-trips."""

import csv

from roadpatch.artifacts import (
    HISTORY_FIELDS,
    TRAJECTORY_FIELDS,
    read_report,
    write_history_csv,
    write_report,
    write_trajectory_csv,
)
from roadpatch.attack import HistoryEntry, ObjectiveBreakdown
from roadpatch.motion import VehicleState

from reference import read_trajectory_csv


def test_trajectory_round_trip(tmp_path):
    states = [VehicleState(0.0, -0.2, 0.01, 15.0),
              VehicleState(0.75, -0.18, 0.005, 15.0),
              VehicleState(1.5, -0.15, 0.0, 15.0)]
    steers = [0.01, -0.02]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, states, 0.05, steers)
    rows = read_trajectory_csv(path)
    assert len(rows) == 3
    assert list(rows[0]) == list(TRAJECTORY_FIELDS)
    for i, (row, s) in enumerate(zip(rows, states)):
        assert row["t"] == i * 0.05
        assert (row["x"], row["y"], row["heading"]) == (s.x, s.y, s.heading)
        assert row["speed"] == 15.0
        assert row["lat_dev"] == abs(s.y)
    assert rows[0]["steer"] == 0.01 and rows[1]["steer"] == -0.02
    assert rows[2]["steer"] is None


def _entry(iteration, accepted):
    bd = ObjectiveBreakdown(path_term=0.2, reg_term=100.0,
                            total=0.2 + 1e-4 * 100.0,
                            directed=0.2 + 1e-4 * 100.0)
    return HistoryEntry(iteration=iteration, breakdown=bd, step_size=0.05,
                        max_deviation=0.1, accepted=accepted)


def test_history_layout(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(path, [_entry(0, True), _entry(1, False)])
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(HISTORY_FIELDS)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["iteration"] for r in rows] == ["0", "1"]
    assert [r["accepted"] for r in rows] == ["1", "0"]
    assert rows[0]["total"] == "0.21"
    assert rows[0]["directed"] == "0.21"
    assert rows[0]["path_term"] == "0.2"


def test_report_round_trip(tmp_path):
    path = tmp_path / "report.json"
    doc = {"zeta": 2, "alpha": [1, 2], "nested": {"x": 1.5}}
    write_report(path, doc)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"nested"') < text.index('"zeta"')
    assert read_report(path) == doc
