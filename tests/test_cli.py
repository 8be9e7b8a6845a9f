"""End-to-end command-line behavior on a small, fast scenario."""

import json

import pytest

from conftest import run_cli
from reference import read_trajectory_csv
from roadpatch.artifacts import read_report
from roadpatch.config import config_hash, load_config, resolve_scenario
from roadpatch.pgmio import load_patch, read_pgm, save_patch


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A short, cheap scenario file: 1 s drive, 5-frame attack horizon."""
    doc = {
        "name": "tiny",
        "seed": 3,
        "speed_kmh": 54.0,
        "duration_s": 1.0,
        "road": {"road_length": 90.0},
        "patch": {"start_x": 12.0, "width": 2.0, "length": 8.0},
        "attack": {"horizon_frames": 5, "iterations": 1},
    }
    path = tmp_path_factory.mktemp("scenario") / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def test_render(tiny, tmp_path):
    assert run_cli("render", tiny, "--out", tmp_path, "--deterministic") == 0
    rep = read_report(tmp_path / "render_report.json")
    assert rep["kind"] == "render" and rep["scenario"] == "tiny"
    assert rep["shape"] == [1800, 1920]
    assert "created_at" not in rep
    assert read_pgm(tmp_path / "scene.pgm").shape == (1800, 1920)
    assert (tmp_path / "scene.json").exists()
    assert read_pgm(tmp_path / "line_mask.pgm").shape == (1800, 1920)


def test_benign_run(tiny, tmp_path):
    assert run_cli("benign", tiny, "--out", tmp_path, "--deterministic") == 0
    rep = read_report(tmp_path / "benign_report.json")
    assert rep["kind"] == "benign" and rep["patch"] == "none"
    assert rep["success"] is False and rep["attack_time_s"] is None
    assert rep["frames_evaluated"] == 20
    assert rep["max_lateral_deviation"] < 0.01
    rows = read_trajectory_csv(tmp_path / "benign_trajectory.csv")
    assert len(rows) == 21
    assert rows[0]["t"] == 0.0 and rows[-1]["steer"] is None

    # the all-defaults scenario drives its whole 10 s
    defaults = tmp_path / "defaults.json"
    defaults.write_text("{}")
    assert run_cli("benign", defaults, "--out", tmp_path,
                   "--deterministic") == 0
    rep = read_report(tmp_path / "benign_report.json")
    assert rep["frames_evaluated"] == 200 and not rep["truncated"]


def test_optimize_then_evaluate(tiny, tmp_path):
    assert run_cli("optimize", tiny, "--out", tmp_path, "--deterministic") == 0
    rep = read_report(tmp_path / "optimize_report.json")
    assert rep["kind"] == "optimize"
    assert rep["iterations_run"] == 1
    assert 0 <= rep["best_iteration"] <= 1
    assert rep["total"] == pytest.approx(
        rep["path_term"] + 1e-4 * rep["reg_term"], rel=1e-6)
    assert "elapsed_s" not in rep
    patch = load_patch(tmp_path / "patch.pgm")
    assert patch.values.shape == (80, 20)
    assert patch.within_bounds()
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert len(history) == 1 + 2   # header + initial entry + one iteration

    # evaluate picks up <out>/patch.pgm by default
    assert run_cli("evaluate", tiny, "--out", tmp_path, "--deterministic") == 0
    ev = read_report(tmp_path / "evaluate_report.json")
    assert ev["patch"].endswith("patch.pgm")
    assert ev["goal_m"] == 0.745
    assert (tmp_path / "evaluate_trajectory.csv").exists()

    # one starved iteration cannot reach the goal; --require-success notices
    assert run_cli("evaluate", tiny, "--out", tmp_path, "--deterministic",
                   "--require-success") == 4

    assert run_cli("report", "--out", tmp_path) == 0
    summary = read_report(tmp_path / "summary.json")
    assert summary["kind"] == "summary"
    assert {"optimize", "evaluate"} <= set(summary)
    assert summary["optimize"]["directed"] == rep["directed"]


def test_evaluate_report_does_not_depend_on_the_run_directory(tiny,
                                                              tmp_path):
    reports = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run_cli("optimize", tiny, "--out", out, "--deterministic",
                       "--iterations", 1) == 0
        assert run_cli("evaluate", tiny, "--out", out, "--deterministic") == 0
        reports.append((out / "evaluate_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["patch"] == "patch.pgm"


def test_identity_patch_evaluation(tiny, tmp_path):
    assert run_cli("evaluate", tiny, "--out", tmp_path, "--deterministic",
                   "--identity-patch") == 0
    rep = read_report(tmp_path / "evaluate_report.json")
    assert rep["patch"] == "identity"
    assert rep["success"] is False
    assert rep["max_lateral_deviation"] < 0.01


def test_dump_frames(tiny, tmp_path):
    frames = tmp_path / "frames"
    assert run_cli("benign", tiny, "--out", tmp_path, "--deterministic",
                   "--dump-frames", frames) == 0
    files = sorted(frames.glob("frame_*.pgm"))
    assert len(files) == 20
    assert files[0].name == "frame_00001.pgm"
    assert read_pgm(files[0]).shape == (480, 640)


def test_error_exit_codes(tiny, tmp_path, capsys, monkeypatch):
    assert run_cli("benign", "no-such-scenario", "--out", tmp_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["field"] == "config"

    assert run_cli("optimize", tiny, "--out", tmp_path,
                   "--iterations", -1) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "attack.iterations"

    endless = tmp_path / "endless.json"
    endless.write_text('{"duration_s": Infinity}')
    assert run_cli("benign", endless, "--out", tmp_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["field"] == "duration_s"

    blink = tmp_path / "blink.json"
    blink.write_text('{"duration_s": 0.02}')       # shorter than one frame
    assert run_cli("benign", blink, "--out", tmp_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["field"] == "duration_s"

    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("evaluate", tiny, "--out", empty) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "patch"

    # a patch that does not load, or does not fit the scenario the way
    # the scenario's own patch must, is a configuration problem too
    patch = tmp_path / "p.pgm"
    sidecar = patch.with_suffix(".json")
    save_patch(patch, load_config(tiny).initial_patch())
    meta, raster = json.loads(sidecar.read_text()), patch.read_bytes()
    unplaced = {k: v for k, v in meta.items() if k != "placement"}

    def placed(**kw):
        return json.dumps({**meta, "placement": {**meta["placement"], **kw}})

    for text, pgm in [(None, raster),                          # no sidecar
                      ("{not json", raster),
                      (json.dumps(unplaced), raster),
                      (json.dumps({**meta, "kind": "bev"}), raster),
                      (json.dumps({**meta, "v_min": 0.7}), raster),
                      (json.dumps(meta), b"P2\n1 1\n255\n0\n"),
                      (placed(width=6.0), raster),             # over the lines
                      (placed(start_x=500.0), raster),         # off the scene
                      (json.dumps({**meta, "v_min": 0.40, "v_max": 0.44,
                                   "base_value": 0.42}), raster)]:
        patch.write_bytes(pgm)
        sidecar.unlink(missing_ok=True)
        if text is not None:
            sidecar.write_text(text)
        assert run_cli("evaluate", tiny, "--out", tmp_path,
                       "--patch", patch) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["field"] == "patch"
        assert not (tmp_path / "evaluate_report.json").exists()

    refused = tmp_path / "refused.json"
    highway72 = json.loads(resolve_scenario("highway-72").read_text())
    for flags, doc, env, field in [
            (["--seed", -1], {}, None, "seed"),
            ([], {"seed": -1}, None, "seed"),
            ([], {}, "-2", "seed"),
            ([], {"road": {"texture_seed": -3}}, None, "road"),
            # 10 s at 81 km/h outruns highway-72's 270 m road
            ([], {**highway72, "speed_kmh": 81.0}, None, "road.road_length")]:
        refused.write_text(json.dumps(doc))
        if env is None:
            monkeypatch.delenv("DRP_SEED", raising=False)
        else:
            monkeypatch.setenv("DRP_SEED", env)
        assert run_cli("benign", refused, "--out", tmp_path, *flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["field"] == field
    monkeypatch.delenv("DRP_SEED", raising=False)

    assert run_cli("report", "--out", empty) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgumentError"

    assert run_cli("report") == 3

    with pytest.raises(SystemExit):
        run_cli()


def test_seed_override_chain(tiny, tmp_path, monkeypatch):
    monkeypatch.delenv("DRP_SEED", raising=False)
    assert run_cli("benign", tiny, "--out", tmp_path, "--deterministic") == 0
    assert read_report(tmp_path / "benign_report.json")["seed"] == 3

    monkeypatch.setenv("DRP_SEED", "7")
    assert run_cli("benign", tiny, "--out", tmp_path, "--deterministic") == 0
    assert read_report(tmp_path / "benign_report.json")["seed"] == 7

    assert run_cli("benign", tiny, "--out", tmp_path, "--deterministic",
                   "--seed", 9) == 0
    assert read_report(tmp_path / "benign_report.json")["seed"] == 9


def test_default_out_directory(tiny, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("benign", tiny, "--deterministic") == 0
    assert (tmp_path / "runs" / "tiny" / "benign_report.json").exists()


def test_iterations_override_is_part_of_the_config_hash(tiny, tmp_path):
    hashes = {}
    for n in (0, 1):
        out = tmp_path / str(n)
        assert run_cli("optimize", tiny, "--out", out, "--deterministic",
                       "--iterations", n) == 0
        hashes[n] = read_report(out / "optimize_report.json")["config_hash"]
        cfg = load_config(tiny)
        cfg.merged["attack"]["iterations"] = n
        assert hashes[n] == config_hash(cfg.merged)
    assert hashes[0] != hashes[1]
