"""Scenario documents: merging, coercion, seeds, cross checks, builders."""

import dataclasses
import json

import numpy as np
import pytest

from reference import image_to_ground
from roadpatch.attack import AttackConfig
from roadpatch.camera import CameraConfig, warp_bev_to_camera
from roadpatch.config import (
    builtin_scenarios,
    config_from_dict,
    config_hash,
    defaults,
    load_config,
    merge_with_defaults,
    resolve_scenario,
)
from roadpatch.controller import ControllerConfig
from roadpatch.detector import DetectorConfig
from roadpatch.errors import (
    ConfigError,
    IncompleteModelInputError,
    InvalidArgumentError,
)
from roadpatch.motion import VehicleParams, VehicleState
from roadpatch.scene import PatchPlacement, PatchState, RoadSpec, render_road_bev


def _err(doc, **kw):
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc, **kw)
    return info.value.field


def test_bundled_scenario_roster():
    assert builtin_scenarios() == ["highway-105", "highway-126", "highway-72"]


@pytest.mark.parametrize("name, kmh", [("highway-72", 72.0),
                                       ("highway-105", 105.0),
                                       ("highway-126", 126.0)])
def test_bundled_scenarios_load(name, kmh):
    cfg = load_config(resolve_scenario(name))
    assert cfg.name == name
    assert cfg.speed_kmh == kmh
    assert cfg.duration_s == 10.0 and cfg.goal_m == 0.745
    assert len(cfg.hash) == 12 and int(cfg.hash, 16) >= 0
    assert cfg.hash == load_config(resolve_scenario(name)).hash


def test_empty_document_is_a_full_scenario():
    cfg = config_from_dict({})
    assert cfg.name == "scenario" and cfg.seed == 0
    assert cfg.speed_kmh == 72.0
    assert cfg.extent == (0.0, 270.0, -48.0, 48.0)
    assert cfg.n_frames == 200
    assert cfg.placement.start_x == 60.0
    cfg.pipeline()


_PINNED_HASHES = {"highway-72": "5ecf0303e54b", "highway-105": "e9443d6a0aaf",
                  "highway-126": "eb9c5e3383db"}
_EMPTY_HASH = "c6148b610770"


def test_bundled_config_hashes_are_pinned():
    for name, digest in _PINNED_HASHES.items():
        assert load_config(resolve_scenario(name)).hash == digest
    assert config_from_dict({}).hash == _EMPTY_HASH


def test_the_environment_does_not_set_the_seed(monkeypatch):
    # the seed has no way in but the file and ``seed_override``
    monkeypatch.setenv("DRP_SEED", "5")
    for name, digest in _PINNED_HASHES.items():
        cfg = load_config(resolve_scenario(name))
        assert (cfg.seed, cfg.hash) == (0, digest)
    assert config_from_dict({}).hash == _EMPTY_HASH


@pytest.mark.parametrize("section, cls", [
    ("road", RoadSpec), ("camera", CameraConfig), ("vehicle", VehicleParams),
    ("detector", DetectorConfig), ("controller", ControllerConfig),
    ("attack", AttackConfig), ("patch", PatchPlacement)])
def test_class_backed_sections_hold_the_class_fields(section, cls):
    names = [f.name for f in dataclasses.fields(cls)]
    extra = {"vehicle": ["start_x", "start_y", "start_heading"],
             "patch": ["grid_mpp", "v_min", "v_max", "init_value"]}
    assert list(defaults()[section]) == names + extra.get(section, [])


def test_defaults_are_isolated():
    d1 = defaults()
    d1["road"]["lane_width"] = 99.0
    d1["controller"]["decision_points"].append(1.0)
    d2 = defaults()
    assert d2["road"]["lane_width"] == 3.6
    assert 1.0 not in d2["controller"]["decision_points"]


def test_resolve_scenario_paths(tmp_path):
    f = tmp_path / "mine.json"
    f.write_text("{}")
    assert resolve_scenario(str(f)) == f
    with pytest.raises(ConfigError) as info:
        resolve_scenario("no-such-place")
    assert "highway-72" in str(info.value)


def test_unknown_fields_are_named():
    assert _err({"detector": {"bogus": 1}}) == "detector.bogus"
    assert _err({"extra_top": 1}) == "extra_top"
    assert _err({"attack": {"weight_mode": "uniform"}}) == "attack.weight_mode"
    assert _err({"controller": {"max_steer": 0.45}}) == "controller.max_steer"


_PLACEMENT = dict(start_x=5.0, center_y=0.0, width=2.0, length=10.0)
_PATCH = dict(values=np.full((2, 2), 0.3), grid_mpp=0.1, v_min=0.05,
              v_max=0.6, base_value=0.3,
              placement=PatchPlacement(**_PLACEMENT))


_INVALID = [
    (CameraConfig, {}, dict(pitch=-0.1)),
    (DetectorConfig, {}, dict(tau=0.0)),
    (ControllerConfig, {}, dict(lookahead=0.0)),
    (VehicleParams, {}, dict(dt=0.0)),
    (VehicleParams, {}, dict(max_steer=2.0)),
    (VehicleParams, {}, dict(wheelbase=-2.7)),
    (AttackConfig, {}, dict(step_size=0.0)),
    (RoadSpec, {}, dict(lane_line_width=0.0)),
    (RoadSpec, {}, dict(asphalt_intensity=0.95)),
    (PatchPlacement, _PLACEMENT, dict(width=0.0)),
    (PatchPlacement, _PLACEMENT, dict(margin=-0.1)),
    (PatchPlacement, _PLACEMENT, dict(start_x=float("nan"))),
    (PatchPlacement, _PLACEMENT, dict(center_y=float("inf"))),
    (PatchState, _PATCH, dict(v_min=0.6, v_max=0.5, base_value=0.55)),
]


@pytest.mark.parametrize("cls, valid, bad", _INVALID, ids=[
    f"{cls.__name__}-{'-'.join(bad)}" for cls, _, bad in _INVALID])
def test_invalid_configs_cannot_be_built(cls, valid, bad):
    with pytest.raises(InvalidArgumentError):
        cls(**{**valid, **bad})
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(cls(**valid), **bad)


def test_type_coercion_complaints():
    assert _err({"road": {"texture_seed": "x"}}) == "road.texture_seed"
    assert _err({"seed": True}) == "seed"
    assert _err({"name": 7}) == "name"
    assert _err({"road": {"lane_width": "wide"}}) == "road.lane_width"
    assert _err({"camera": {"image_size": [640.5, 480]}}) == "camera.image_size"
    assert _err({"camera": {"principal_point": [1.0, 2.0, 3.0]}}) \
        == "camera.principal_point"
    assert _err({"controller": {"decision_points": []}}) \
        == "controller.decision_points"
    assert _err({"scene": 5}) == "scene"
    # ints are acceptable where floats are expected
    cfg = config_from_dict({"speed_kmh": 70})
    assert cfg.speed_kmh == 70.0


def test_seed_precedence(monkeypatch):
    assert config_from_dict({"seed": 3}).seed == 3
    assert config_from_dict({"seed": 3}, seed_override=25).seed == 25
    assert _err({"seed": 3}, seed_override=-1) == "seed"
    for env in ("17", "abc", "-2"):          # the environment changes nothing
        monkeypatch.setenv("DRP_SEED", env)
        assert config_from_dict({"seed": 3}).seed == 3
        assert config_from_dict({"seed": 3}, seed_override=25).seed == 25


def test_hash_tracks_the_effective_document():
    h3 = config_from_dict({"seed": 3}).hash
    h4 = config_from_dict({"seed": 4}).hash
    assert h3 != h4
    assert config_from_dict({}, seed_override=3).hash == h3
    merged = merge_with_defaults({"seed": 3})
    assert config_hash(merged) == h3


_NON_FINITE = [
    ("duration_s", float("inf")),
    ("speed_kmh", float("nan")),
    ("goal_m", float("nan")),
    ("attack.step_size", float("inf")),
    ("attack.lambda_reg", float("nan")),
    ("camera.principal_point", [320.0, float("-inf")]),
    ("road.road_length", 10 ** 400),          # past the float range
]


@pytest.mark.parametrize("field, value", _NON_FINITE,
                         ids=[field for field, _ in _NON_FINITE])
def test_non_finite_numbers_are_refused(field, value):
    section, _, key = field.rpartition(".")
    assert _err({section: {key: value}} if section else {key: value}) == field


def test_scalar_range_checks():
    assert _err({"speed_kmh": 0}) == "speed_kmh"
    assert _err({"duration_s": 0}) == "duration_s"
    assert _err({"duration_s": 0.02}) == "duration_s"     # under one frame
    assert _err({"goal_m": -1}) == "goal_m"
    assert _err({"seed": -1}) == "seed"
    assert _err({"scene": {"meters_per_pixel": 0}}) == "scene.meters_per_pixel"
    assert _err({"patch": {"grid_mpp": 0}}) == "patch.grid_mpp"


def test_section_validation_is_attributed():
    assert _err({"camera": {"focal": 0}}) == "camera"
    assert _err({"vehicle": {"dt": 0}}) == "vehicle"
    assert _err({"road": {"road_length": 0}}) == "road"
    assert _err({"road": {"texture_seed": -3}}) == "road.texture_seed"


def test_cross_checks():
    assert _err({"controller": {"decision_points": [9.0, 60.0]}}) \
        == "controller.decision_points"
    assert _err({"controller": {"lookahead": 60.0}}) == "controller.lookahead"
    assert _err({"patch": {"width": 3.2}}) == "patch.placement"
    assert _err({"patch": {"start_x": 240.0}}) == "patch.start_x"
    # a 300.01 m road rounds to 6000 pixels, so the raster ends at 300.0 m
    assert _err({"road": {"road_length": 300.01},
                 "patch": {"start_x": 264.0, "length": 36.005}}) \
        == "patch.start_x"
    assert _err({"speed_kmh": 81.0}) == "road.road_length"
    # shorter than half a pixel, so the raster would have no row, with the
    # start pose far enough behind it to pass the road-length rule
    assert _err({"speed_kmh": 0.01, "duration_s": 1.0,
                 "road": {"road_length": 0.01},
                 "vehicle": {"start_x": -100.0},
                 "patch": {"start_x": 0.0, "length": 0.005, "width": 2.0}}) \
        == "road.road_length"
    assert _err({"patch": {"v_max": 0.92}}) == "patch.v_max"
    assert _err({"patch": {"v_min": 0.7}}) == "patch.v_min"
    assert _err({"patch": {"init_value": 0.7}}) == "patch.init_value"
    assert _err({"scene": {"y_half_extent": 1.0}}) == "scene.y_half_extent"
    assert _err({"detector": {"band_far": 200.0}}) == "detector"


def test_patch_must_clear_the_lane_lines():
    # the default road's line-free interior extends to +-1.725 m, and the
    # patch keeps a 0.15 m margin from it
    assert config_from_dict({"patch": {"width": 2.4}}).placement.width == 2.4
    assert _err({"patch": {"width": 3.2}}) == "patch.placement"
    assert _err({"patch": {"center_y": 1.0, "width": 2.0}}) \
        == "patch.placement"
    assert _err({"patch": {"center_y": -1.0, "width": 2.0}}) \
        == "patch.placement"


def test_road_length_covers_the_attack_horizon():
    # A 1 s drive fits an 85 m road, but the 34-frame (1.7 s) optimizer
    # rollout would run off it, so the loader refuses the scenario.
    doc = json.loads(resolve_scenario("highway-72").read_text())
    doc["duration_s"] = 1.0
    doc["road"]["road_length"] = 85.0
    assert _err(doc) == "road.road_length"
    doc["attack"]["horizon_frames"] = 20
    assert config_from_dict(doc).n_frames == 20


_EDGE_MPP = 0.1
_EDGE_ROAD = 70.0


def _first_frame_raises(start_x, heading, y_half_extent):
    scene = render_road_bev(RoadSpec(road_length=_EDGE_ROAD),
                            (0.0, _EDGE_ROAD, -y_half_extent, y_half_extent),
                            _EDGE_MPP, 0)
    try:
        warp_bev_to_camera(scene, CameraConfig(),
                           VehicleState(start_x, 0.0, heading, 1.0))
    except IncompleteModelInputError:
        return True
    return False


@pytest.mark.parametrize("heading", [-0.2, 0.0, 0.13])
def test_start_pose_is_refused_exactly_when_frame_one_is_unsourced(heading):
    # The model input's near corners lie about 2.2 m ahead and its far
    # corners about 30.7 m to each side.  Sweep start_x and y_half_extent
    # across the edges where the first frame loses its source; the loader
    # must refuse exactly the poses whose first frame raises.
    cam = CameraConfig()
    rx, ry, rw, rh = cam.model_input_rect
    corners = image_to_ground(cam, VehicleState(0.0, 0.0, heading, 0.0),
                              [(rx, ry), (rx + rw - 1, ry), (rx, ry + rh - 1),
                               (rx + rw - 1, ry + rh - 1)])
    x_edge = 0.5 * _EDGE_MPP - corners[:, 0].min()
    y_edge = _EDGE_MPP * np.ceil((np.abs(corners[:, 1]).max()
                                  + 0.5 * _EDGE_MPP) / _EDGE_MPP)
    cases = ([("vehicle.start_x", x_edge + d, 48.0)
              for d in (-0.01, -1e-9, 1e-9, 0.01)]
             + [("scene.y_half_extent", 0.0, y_edge + k * _EDGE_MPP)
                for k in (-2, -1, 0, 1)])
    seen = set()
    for field, start_x, y_half in cases:
        doc = {"speed_kmh": 1.0, "duration_s": 0.05,
               "road": {"road_length": _EDGE_ROAD},
               "scene": {"meters_per_pixel": _EDGE_MPP,
                         "y_half_extent": y_half},
               "vehicle": {"start_x": start_x, "start_heading": heading},
               "patch": {"start_x": 5.0, "length": 5.0},
               "attack": {"horizon_frames": 1}}
        try:
            config_from_dict(doc)
            refused = None
        except ConfigError as exc:
            refused = exc.field
        raises = _first_frame_raises(start_x, heading, y_half)
        assert refused == (field if raises else None), (start_x, y_half)
        seen.add((field, raises))
    assert len(seen) == 4       # each sweep straddles its edge


_TINY = {"name": "tiny", "speed_kmh": 54.0, "duration_s": 1.0,
         "road": {"road_length": 90.0},
         "patch": {"start_x": 12.0, "width": 2.0, "length": 8.0},
         "attack": {"horizon_frames": 5}}


def test_builders(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_TINY))
    cfg = load_config(path)
    assert cfg.n_frames == 20
    assert cfg.initial_state() == VehicleState(0.0, 0.0, 0.0, 15.0)
    scene, mask = cfg.build_scene()
    assert scene.pixels.shape == (1800, 1920)
    assert mask.shape == scene.pixels.shape and mask.dtype == bool
    patch = cfg.initial_patch()
    assert patch.values.shape == (80, 20)
    assert np.all(patch.values == 0.45)
    assert (patch.v_min, patch.v_max) == (0.05, 0.60)
    ghost = cfg.identity_patch()
    assert ghost.values.shape == (80, 20)


def test_texture_seed_defaults_to_the_scenario_seed():
    # the scenario seed draws the texture; the road section has no seed
    cfg = config_from_dict({"seed": 5, **_TINY})
    scene, _ = cfg.build_scene()
    want = render_road_bev(cfg.road, cfg.extent, cfg.meters_per_pixel, 5)
    np.testing.assert_array_equal(scene.pixels, want.pixels)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
