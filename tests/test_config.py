"""Scenario documents: merging, coercion, seeds, cross checks, builders."""

import dataclasses
import json
import typing

import numpy as np
import pytest

from reference import image_to_ground
from roadpatch.attack import AttackConfig
from roadpatch.camera import (
    MAX_HEADING,
    MAX_LATERAL,
    CameraConfig,
    warp_bev_to_points,
)
from roadpatch.config import (
    _SECTIONS,
    MAX_FRAMES,
    MAX_GRID_COLUMNS,
    MAX_SCENE_BYTES,
    builtin_scenarios,
    config_from_dict,
    config_hash,
    defaults,
    load_config,
    merge_with_defaults,
    resolve_scenario,
)
from roadpatch.controller import ControllerConfig
from roadpatch.detector import DetectorConfig, support_set
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

    # every container a call returns, however deep, is its own
    want = json.dumps(defaults(), sort_keys=True)
    mutated = []

    def mutate(value):
        if isinstance(value, dict):
            for v in value.values():
                mutate(v)
            value["mutated"] = True
            mutated.append(dict)
        elif isinstance(value, list):
            for v in value:
                mutate(v)
            value.append("mutated")
            mutated.append(list)

    mutate(defaults())
    assert dict in mutated and list in mutated
    assert json.dumps(defaults(), sort_keys=True) == want


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


_POOL = [0, -1, 1, 2, 7, 1000, 0.0, -0.0, -0.5, 1e-9, 1e9, 1e300, -1e300,
         float("nan"), float("inf"), True, "x", None, {}, [], [1], [1, 2],
         [1.5, 2.5], [1000, 1000], [0, 0, 0, 0], [1.5, 2.5, 3.5, 4.5]]


def test_every_one_leaf_edit_loads_or_is_refused():
    # Each pool value at each leaf of the defaults, one at a time: the
    # document loads, or is refused on a document key.  No patch raster
    # is built to decide it, so huge or fine patches are refused too.
    base = defaults()
    leaves = [(key, sub) for key, dval in base.items()
              for sub in (dval if isinstance(dval, dict) else [None])]
    named = ({"config", "patch.placement"} | set(base)
             | {f"{key}.{sub}" for key, sub in leaves if sub})
    for key, sub in leaves:
        for value in _POOL:
            doc = {key: {sub: value}} if sub else {key: value}
            try:
                cfg = config_from_dict(doc)
            except ConfigError as exc:
                assert exc.field in named, (doc, exc.field)
                continue
            # what loads renders a window of at most the cap's size
            c0, c1 = cfg.columns
            rows = round(cfg.road.road_length / cfg.scene.meters_per_pixel)
            assert 0 <= c0 < c1 and rows * (c1 - c0) * 8 <= MAX_SCENE_BYTES


def test_grid_finer_than_half_a_scene_pixel_is_refused():
    assert config_from_dict({"patch": {"grid_mpp": 0.025}}).patch.grid_mpp \
        == 0.025
    assert _err({"patch": {"grid_mpp": 0.0249}}) == "patch.grid_mpp"
    assert _err({"patch": {"grid_mpp": 1e-9}}) == "patch.grid_mpp"
    assert _err({"patch": {"length": 1e9}}) == "patch.start_x"
    assert _err({"patch": {"width": 1e9}}) == "patch.placement"


def test_tuple_fields_are_checked_by_their_annotations():
    # Length and entry type come from each tuple field's annotation.
    seen = set()
    for section, _, obj in _SECTIONS:
        for key, rule in typing.get_type_hints(type(obj)).items():
            if typing.get_origin(rule) is not tuple:
                continue
            kinds, good = typing.get_args(rule), list(getattr(obj, key))
            bad = [[], [True] + good[1:]]
            if kinds[-1] is not Ellipsis:
                bad += [good + good[:1], good[:-1]]
            if int in kinds:
                bad.append([good[0] + 0.5] + good[1:])
            for value in bad:
                assert _err({section: {key: value}}) == f"{section}.{key}", \
                    value
            seen.add(f"{section}.{key}")
    assert {"camera.principal_point", "camera.image_size",
            "camera.model_input_rect", "controller.decision_points"} <= seen


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
    # the default detector's support reads up to 17.1 m to the side in the
    # pose envelope, and 3.4 m at the start pose
    assert _err({"scene": {"y_half_extent": 3.0}}) == "scene.y_half_extent"
    assert config_from_dict({"scene": {"y_half_extent": 25.0}}).columns \
        == (154, 846)
    assert _err({"detector": {"band_far": 200.0}}) == "detector"


def test_a_start_outside_the_warp_envelope_is_refused_on_its_field():
    # The warp would refuse the pose at frame 1; the loader refuses it on
    # the field that leaves the envelope, the lateral offset first, and
    # loads the envelope's corners.
    assert _err({"vehicle": {"start_y": 3.5}}) == "vehicle.start_y"
    assert _err({"vehicle": {"start_y": -3.01, "start_heading": 0.3}}) \
        == "vehicle.start_y"
    assert _err({"vehicle": {"start_heading": 0.3}}) == "vehicle.start_heading"
    assert _err({"vehicle": {"start_y": 3.0, "start_heading": -0.21}}) \
        == "vehicle.start_heading"
    for y in (-MAX_LATERAL, MAX_LATERAL):
        for heading in (-MAX_HEADING, MAX_HEADING):
            pose = config_from_dict({"vehicle": {
                "start_y": y, "start_heading": heading}}).initial_state()
            assert (pose.y, pose.heading) == (y, heading)


def test_scene_raster_and_frame_counts_are_capped():
    # Refused at load, on the field that grows them most over the
    # defaults, before anything is sized from them.  The half extent only
    # bounds the rendered column window, and the grid it counts columns
    # on must keep its index exact.
    assert config_from_dict({"scene": {"y_half_extent": 1e9}}).columns \
        == (19999999654, 20000000346)
    assert _err({"scene": {"y_half_extent": 1e308}}) == "scene.y_half_extent"
    half = MAX_GRID_COLUMNS * 0.025
    assert config_from_dict({"scene": {"y_half_extent": half}})
    assert _err({"scene": {"y_half_extent": half + 0.05}}) \
        == "scene.y_half_extent"
    assert _err({"road": {"road_length": 1e9}}) == "road.road_length"
    assert _err({"scene": {"meters_per_pixel": 1e-9}}) \
        == "scene.meters_per_pixel"
    assert _err({"vehicle": {"dt": 1e-9}}) == "vehicle.dt"
    assert _err({"duration_s": 1e9}) == "duration_s"
    assert _err({"duration_s": 1e300, "vehicle": {"dt": 1e-9}}) \
        == "duration_s"
    assert _err({"attack": {"horizon_frames": MAX_FRAMES + 1}}) \
        == "attack.horizon_frames"
    # The default 692-column window is admitted up to the cap's row count,
    # and a run up to the cap's frame count.
    rows = MAX_SCENE_BYTES // (8 * 692)
    cfg = config_from_dict({"road": {"road_length": rows * 0.05}})
    assert cfg.columns == (614, 1306)
    assert _err({"road": {"road_length": (rows + 1) * 0.05}}) \
        == "road.road_length"
    slow = {"speed_kmh": 0.01, "attack": {"horizon_frames": MAX_FRAMES}}
    assert config_from_dict(dict(slow, duration_s=MAX_FRAMES * 0.05)) \
        .n_frames == MAX_FRAMES
    assert _err(dict(slow, duration_s=(MAX_FRAMES + 1) * 0.05)) \
        == "duration_s"


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
    # Narrower than the window, the grid is the whole rendered raster; at
    # 48 m only the rows matter, and the support stays inside it.
    scene = render_road_bev(RoadSpec(road_length=_EDGE_ROAD),
                            (0.0, _EDGE_ROAD, -y_half_extent, y_half_extent),
                            _EDGE_MPP, 0)
    sup = support_set(DetectorConfig(), CameraConfig())
    try:
        warp_bev_to_points(scene, CameraConfig(),
                           VehicleState(start_x, 0.0, heading, 1.0),
                           sup.xf, sup.yf, sup.front)
    except IncompleteModelInputError:
        return True
    return False


@pytest.mark.parametrize("heading", [-0.2, 0.0, 0.13])
def test_start_pose_is_refused_exactly_when_frame_one_is_unsourced(heading):
    # The model input's near corners lie about 2.2 m ahead, and the
    # detector support reaches 3.4-14.1 m to the sides at these headings.
    # Sweep start_x and y_half_extent across the edges where the first
    # frame loses its source; the loader must refuse exactly the poses
    # whose first frame raises.
    cam = CameraConfig()
    rx, ry, rw, rh = cam.model_input_rect
    corners = image_to_ground(cam, VehicleState(0.0, 0.0, heading, 0.0),
                              [(rx, ry), (rx + rw - 1, ry), (rx, ry + rh - 1),
                               (rx + rw - 1, ry + rh - 1)])
    sup = support_set(DetectorConfig(), cam)
    c, s = np.cos(heading), np.sin(heading)
    x_edge = 0.5 * _EDGE_MPP - corners[:, 0].min()
    y_edge = _EDGE_MPP * np.ceil((np.abs(s * sup.xf + c * sup.yf).max()
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
    assert cfg.columns == (614, 1306)
    assert scene.pixels.shape == (1800, 692)
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
    want = render_road_bev(cfg.road, cfg.extent, cfg.scene.meters_per_pixel,
                           5)
    c0, c1 = cfg.columns
    np.testing.assert_array_equal(scene.pixels, want.pixels[:, c0:c1])


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
