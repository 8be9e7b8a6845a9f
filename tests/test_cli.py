"""End-to-end command-line behavior on a small, fast scenario."""

import json

import numpy as np
import pytest

from conftest import run_cli
from reference import read_trajectory_csv
from roadpatch import cli
from roadpatch.artifacts import read_report
from roadpatch.camera import CameraConfig, model_input_reach
from roadpatch.config import config_hash, load_config, resolve_scenario
from roadpatch.pgmio import load_patch, read_pgm, save_patch, write_pgm


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
    # the 692 columns of the 1920-column grid its detector can read
    assert rep["shape"] == [1800, 692]
    np.testing.assert_allclose(rep["extent"], [0.0, 90.0, -17.3, 17.3],
                               rtol=0, atol=1e-12)
    assert "created_at" not in rep
    assert read_pgm(tmp_path / "scene.pgm").shape == (1800, 692)
    assert read_report(tmp_path / "scene.json")["origin"] == [0.025, -17.275]
    assert read_pgm(tmp_path / "line_mask.pgm").shape == (1800, 692)


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
    # bounds that hold the asphalt gray, and bounds wholly below it
    dark = tmp_path / "dark.json"
    doc = json.loads(tiny.read_text())
    doc["patch"].update(v_max=0.25, init_value=0.2)
    dark.write_text(json.dumps(doc))
    for scenario in (tiny, dark):
        out = tmp_path / scenario.stem
        assert run_cli("evaluate", scenario, "--out", out, "--deterministic",
                       "--identity-patch") == 0
        rep = read_report(out / "evaluate_report.json")
        assert rep["patch"] == "identity"
        assert rep["success"] is False
        assert rep["max_lateral_deviation"] < 0.01
        assert run_cli("benign", scenario, "--out", out,
                       "--deterministic") == 0
        assert (out / "evaluate_trajectory.csv").read_bytes() \
            == (out / "benign_trajectory.csv").read_bytes()


def test_dump_frames(tiny, tmp_path):
    frames = tmp_path / "frames"
    assert run_cli("benign", tiny, "--out", tmp_path, "--deterministic",
                   "--dump-frames", frames) == 0
    files = sorted(frames.glob("frame_*.pgm"))
    assert len(files) == 20
    assert files[0].name == "frame_00001.pgm"
    assert read_pgm(files[0]).shape == (480, 640)


def test_error_exit_codes(tiny, tmp_path, capsys):
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

    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\x00bad")               # not UTF-8 text
    assert run_cli("benign", binary, "--out", tmp_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["field"] == "config"

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
    small = tmp_path / "small.pgm"
    write_pgm(small, np.full((3, 3), 0.45))

    def placed(**kw):
        return json.dumps({**meta, "placement": {**meta["placement"], **kw}})

    for k, (text, pgm) in enumerate([(None, raster),          # no sidecar
                      ("{not json", raster),
                      (json.dumps(unplaced), raster),
                      (json.dumps({**meta, "kind": "bev"}), raster),
                      (json.dumps({**meta, "v_min": 0.7}), raster),
                      (json.dumps({**meta, "v_max": 0.95}), raster),
                      (json.dumps(meta), b"P2\n1 1\n255\n0\n"),
                      (placed(width=6.0), raster),             # over the lines
                      (placed(start_x=500.0), raster),         # off the scene
                      (placed(start_x=float("nan")), raster),
                      (placed(center_y=float("nan")), raster),
                      (json.dumps({**meta, "v_min": 0.40, "v_max": 0.44,
                                   "base_value": 0.42}), raster),
                      (json.dumps(meta), small.read_bytes())]):  # 3x3 cells
        patch.write_bytes(pgm)
        sidecar.unlink(missing_ok=True)
        if text is not None:
            sidecar.write_text(text)
        out = tmp_path / f"refused-{k}"
        assert run_cli("evaluate", tiny, "--out", out, "--patch", patch) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["field"] == "patch"
        assert not out.exists()        # a refused run leaves no directory

    refused = tmp_path / "refused.json"
    highway72 = json.loads(resolve_scenario("highway-72").read_text())
    for flags, doc, field in [
            (["--seed", -1], {}, "seed"),
            ([], {"seed": -1}, "seed"),
            ([], {"road": {"texture_seed": -3}}, "road.texture_seed"),
            # 10 s at 81 km/h outruns highway-72's 270 m road
            ([], {**highway72, "speed_kmh": 81.0}, "road.road_length"),
            # the first frame's model input reaches 2.2 m ahead, and its
            # detector support 3.4 m to each side
            ([], {"vehicle": {"start_x": -3.0}}, "vehicle.start_x"),
            ([], {"scene": {"y_half_extent": 3.0}}, "scene.y_half_extent"),
            # the raster of a 300.01 m road ends at 300.0 m
            ([], {"road": {"road_length": 300.01},
                  "patch": {"start_x": 264.0, "length": 36.005}},
             "patch.start_x")]:
        refused.write_text(json.dumps(doc))
        assert run_cli("benign", refused, "--out", tmp_path, *flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and err["field"] == field

    assert run_cli("report", "--out", empty) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgumentError"

    assert run_cli("report") == 3

    with pytest.raises(SystemExit):
        run_cli()


def test_a_patch_sidecar_number_as_a_string_exits_2(tiny, tmp_path, capsys):
    patch = tmp_path / "p.pgm"
    save_patch(patch, load_config(tiny).initial_patch())
    meta = json.loads(patch.with_suffix(".json").read_text())
    meta["placement"]["width"] = "2.0"
    patch.with_suffix(".json").write_text(json.dumps(meta))
    assert run_cli("evaluate", tiny, "--out", tmp_path / "run",
                   "--patch", patch) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["field"] == "patch"
    assert "placement.width: expected a number" in err["message"]


@pytest.mark.parametrize("flag", ["--out", "--dump-frames"])
def test_an_output_path_that_names_a_file_is_a_runtime_failure(
        flag, tiny, tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("the output path is checked only after the work")
    monkeypatch.setattr(cli, "optimize_patch", work)
    monkeypatch.setattr(cli, "run_closed_loop", work)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = tmp_path / "out"
    if flag == "--out":
        runs = [["benign"], ["optimize"], ["evaluate", "--identity-patch"]]
        flags = ["--out", afile]
    else:
        runs = [["benign"], ["evaluate", "--identity-patch"]]
        flags = ["--out", out, flag, afile]
    for command, *extra in runs:
        assert run_cli(command, tiny, "--deterministic", *extra, *flags) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileExistsError"
        assert str(afile) in err["message"]
        assert afile.read_text() == "kept" and not out.exists()


_MALFORMED = [("benign", '{"kind": "benign", "max_lateral'),
              ("benign", '{"kind": "benign"}'), ("benign", "[1, 2]"),
              ("render", "[1, 2]"),
              ("benign", '{"kind": "evaluate", "max_lateral_deviation": 0.1}')]


@pytest.mark.parametrize("kind, text", _MALFORMED, ids=[
    text if kind == "benign" else f"{kind}-{text}" for kind, text in _MALFORMED])
def test_report_refuses_a_malformed_report(kind, text, tmp_path, capsys):
    (tmp_path / f"{kind}_report.json").write_text(text)
    assert run_cli("report", "--out", tmp_path) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgumentError"
    assert f"{kind}_report.json" in err["message"]
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("slack, code", [(0.0, 2), (0.01, 2), (0.02, 0),
                                         (0.03, 0)])
def test_road_length_rule_at_the_last_pixel_centre(slack, code, tmp_path,
                                                   capsys):
    # A near-standstill drive at the worst envelope heading sees exactly
    # model_input_reach past its start.  The 0.05 m raster is sourced up to
    # its last pixel centre, so a road that ends less than half a pixel
    # past that point is refused at load (``code`` 2) instead of failing
    # mid-run.  A scenario that loads (``code`` 0) fails detection on its
    # first frame at this heading, so the run exits 3 after its report.
    need = 0.01 / 3.6 + model_input_reach(CameraConfig())
    doc = {"speed_kmh": 0.01, "duration_s": 1.0,
           "vehicle": {"start_heading": -0.2},
           "controller": {"steer_gain": 1e-9},
           "patch": {"start_x": 2.0, "length": 5.0, "width": 2.0},
           "road": {"road_length": need + slack}}
    path = tmp_path / "crawl.json"
    path.write_text(json.dumps(doc))
    assert run_cli("benign", path, "--out", tmp_path / "out",
                   "--deterministic") == (code or 3)
    err = json.loads(capsys.readouterr().err)
    if code:
        assert err["field"] == "road.road_length"
        assert not (tmp_path / "out").exists()
    else:
        assert err["error"] == "DetectionFailedError"
        assert (tmp_path / "out" / "benign_report.json").exists()


def test_a_run_that_evaluates_no_frame_exits_3(tmp_path, capsys):
    # At this heading the first frame's detection fails: the run writes its
    # report, then fails as a runtime error rather than report success.
    blind = tmp_path / "blind.json"
    blind.write_text(json.dumps({"vehicle": {"start_heading": 0.1}}))
    for command, *extra in (["benign"], ["evaluate", "--identity-patch"]):
        out = tmp_path / command
        assert run_cli(command, blind, "--out", out, "--deterministic",
                       *extra) == 3
        captured = capsys.readouterr()
        assert "over 0 frames" not in captured.out
        err = json.loads(captured.err)
        assert err["error"] == "DetectionFailedError"
        assert "measured nothing" in err["message"]
        rep = read_report(out / f"{command}_report.json")
        assert rep["frames_evaluated"] == 0 and rep["truncated"] is True
        assert len(read_trajectory_csv(out / f"{command}_trajectory.csv")) == 1


def test_seed_override_chain(tiny, tmp_path, monkeypatch):
    assert run_cli("benign", tiny, "--out", tmp_path, "--deterministic") == 0
    assert read_report(tmp_path / "benign_report.json")["seed"] == 3

    monkeypatch.setenv("DRP_SEED", "7")        # the environment changes nothing
    assert run_cli("benign", tiny, "--out", tmp_path, "--deterministic") == 0
    assert read_report(tmp_path / "benign_report.json")["seed"] == 3

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
