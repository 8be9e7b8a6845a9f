"""Scenario files: JSON in, fully validated run setup out.

A scenario bundles everything one experiment needs — road, scene raster,
camera, vehicle, detector, controller, patch placement, and optimizer
settings.  A section's keys and defaults are the fields of its config
classes (``_SECTIONS``), each value must fit its field's annotation, and
each complaint names the offending entry by its dotted path.  The hash
of the merged (defaults-applied) document identifies a setup across
runs.  The ``seed`` draws the road's asphalt texture, the only random
input; ``seed_override`` (the command line's ``--seed``) replaces the
file's value before hashing.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cache, lru_cache
from importlib import resources
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attack import AttackConfig, PipelineConfig
from .camera import (
    MAX_HEADING,
    MAX_LATERAL,
    CameraConfig,
    _vehicle_to_world,
    lateral_reach,
    model_input_gaps,
    model_input_reach,
)
from .controller import ControllerConfig
from .detector import DetectorConfig, support_set
from .errors import ConfigError, InvalidArgumentError
from .motion import VehicleParams, VehicleState
from .scene import (
    BevImage,
    PatchPlacement,
    PatchState,
    RoadSpec,
    _EDGE_EPS,
    _axis,
    _grid,
    _raster_extent,
    _rect_leaves,
    identity_patch,
    render_road_bev,
    uniform_patch,
)


@dataclass(frozen=True)
class SceneSpec:
    """The scene grid's pixel pitch, near edge and half width (m).

    Only a window of the grid's columns is rendered, the columns a rollout
    can read (``ScenarioConfig.columns``); ``y_half_extent`` bounds that
    window from outside.
    """

    meters_per_pixel: float = 0.05
    x_min: float = 0.0
    y_half_extent: float = 48.0

    def __post_init__(self):
        if self.meters_per_pixel <= 0.0:
            raise ConfigError("scene.meters_per_pixel", "must be positive")


@dataclass(frozen=True)
class StartPose:
    """Where the vehicle starts: road-frame position (m) and heading (rad)."""

    start_x: float = 0.0
    start_y: float = 0.0
    start_heading: float = 0.0


@dataclass(frozen=True)
class PatchSpec:
    """A patch's cell size (m), gray bounds and starting gray."""

    grid_mpp: float = 0.10
    v_min: float = 0.05
    v_max: float = 0.60
    init_value: float = 0.45

    def __post_init__(self):
        if not 0.0 <= self.v_min < self.v_max <= 1.0:
            raise ConfigError("patch.v_min", "need 0 <= v_min < v_max <= 1")
        if not self.v_min <= self.init_value <= self.v_max:
            raise ConfigError("patch.init_value",
                              "must lie within the gray bounds")
        if self.grid_mpp <= 0.0:
            raise ConfigError("patch.grid_mpp", "must be positive")


# What a scenario may ask of one process, refused at load.  The scene
# raster is the float64 column window; the bundled ones take 23-36 MB
# (highway-126 the most), so the cap leaves them about 30x room.  The
# window's column index counts from the grid's first column, and a grid
# of more than ``MAX_GRID_COLUMNS`` would leave a float64 index under 12
# bits of fraction.  A rollout (the run, or the attack horizon) of more
# frames is refused; the bundled ones run 200.
MAX_SCENE_BYTES = 2 ** 30
MAX_GRID_COLUMNS = 2 ** 40
MAX_FRAMES = 100_000

# The top-level run keys; their annotations are ``ScenarioConfig``'s.
_RUN = {"name": "scenario", "seed": 0, "speed_kmh": 72.0, "duration_s": 10.0,
        "goal_m": 0.745}

# (section, ``ScenarioConfig`` field, default object).  A section read into
# two classes holds the fields of both, in this order.
_SECTIONS = (
    ("road", "road", RoadSpec()),
    ("scene", "scene", SceneSpec()),
    ("camera", "camera", CameraConfig()),
    ("vehicle", "vehicle", VehicleParams()),
    ("vehicle", "start", StartPose()),
    ("detector", "detector", DetectorConfig()),
    ("controller", "controller", ControllerConfig()),
    ("patch", "placement", PatchPlacement(start_x=60.0, center_y=0.0,
                                          width=2.4, length=36.0)),
    ("patch", "patch", PatchSpec()),
    ("attack", "attack", AttackConfig()),
)


def defaults() -> dict:
    """The complete scenario document every file is merged onto: the run
    keys, then each section's class fields (tuples as lists).  Each call
    returns its own deep copy of one document built once."""
    return copy.deepcopy(_defaults())


@cache
def _defaults() -> dict:
    """The defaults document, built once from the section objects."""
    doc = dict(_RUN)
    for section, _, obj in _SECTIONS:
        doc.setdefault(section, {}).update(
            (k, list(v) if isinstance(v, tuple) else v)
            for k, v in asdict(obj).items())
    return doc


@cache
def _rules() -> dict:
    """Each document key's annotation by dotted name, read at first load."""
    run = get_type_hints(ScenarioConfig)
    rules = {key: run[key] for key in _RUN}
    for section, _, obj in _SECTIONS:
        rules.update((f"{section}.{k}", rule)
                     for k, rule in get_type_hints(type(obj)).items())
    return rules


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def finite_number(value, dotted: str) -> float:
    """A JSON number (an int or float, not a bool) as a finite float; NaN
    and infinities (``json`` reads them) and huge ints are refused."""
    if not (_is_int(value) or isinstance(value, float)):
        raise ConfigError(dotted, "expected a number")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(dotted, "expected a finite number")
    return out


def _coerce(value, rule, dotted: str):
    """``value`` checked against the annotation ``rule`` (``None`` for an
    unknown key).  A tuple is read from a list: ``tuple[int, int]`` of
    exactly two integers, ``tuple[float, ...]`` of at least one number."""
    if rule is None:
        raise ConfigError(dotted, "unknown field")
    if rule is str:
        if not isinstance(value, str):
            raise ConfigError(dotted, "expected a string")
        return value
    if rule is int:
        if not _is_int(value):
            raise ConfigError(dotted, "expected an integer")
        return value
    if rule is float:
        return finite_number(value, dotted)
    if get_origin(rule) is not tuple:
        raise ConfigError(dotted, "unsupported field type")   # pragma: no cover
    if not isinstance(value, list):
        raise ConfigError(dotted, "expected a list of numbers")
    kinds = get_args(rule)
    if kinds[-1] is Ellipsis:
        if not value:
            raise ConfigError(dotted, "expected at least one entry")
        kinds = kinds[:1] * len(value)
    elif len(value) != len(kinds):
        raise ConfigError(dotted, f"expected exactly {len(kinds)} entries")
    return [_coerce(v, kind, dotted) for v, kind in zip(value, kinds)]


def merge_with_defaults(user: dict) -> dict:
    """Overlay ``user`` onto the defaults; unknown keys and values that do
    not fit their field's annotation are refused."""
    if not isinstance(user, dict):
        raise ConfigError("config", "expected a JSON object")
    merged, rules = defaults(), _rules()
    for key, value in user.items():
        if isinstance(merged.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(key, "expected a JSON object")
            for sub, v in value.items():
                dotted = f"{key}.{sub}"
                merged[key][sub] = _coerce(v, rules.get(dotted), dotted)
        else:
            merged[key] = _coerce(value, rules.get(key), key)
    return merged


def config_hash(merged: dict) -> str:
    """Short stable digest of a merged scenario document."""
    blob = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class ScenarioConfig:
    """A validated scenario: the run keys, one object per section class
    and the merged document, plus builders for its runtime objects."""

    name: str
    seed: int
    speed_kmh: float
    duration_s: float
    goal_m: float
    road: RoadSpec
    scene: SceneSpec
    camera: CameraConfig
    vehicle: VehicleParams
    start: StartPose
    detector: DetectorConfig
    controller: ControllerConfig
    placement: PatchPlacement
    patch: PatchSpec
    attack: AttackConfig
    merged: dict = field(repr=False)

    @property
    def hash(self) -> str:
        """Digest of ``merged``, so it follows any later edit of the document."""
        return config_hash(self.merged)

    # The benchmark reads these two; its next change retires them.
    patch_v_min = property(lambda self: self.patch.v_min)
    patch_v_max = property(lambda self: self.patch.v_max)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        x, y = self.scene.x_min, self.scene.y_half_extent
        return (x, x + self.road.road_length, -y, y)

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s / self.vehicle.dt))

    @property
    def columns(self) -> tuple[int, int]:
        """The columns ``[c0, c1)`` of the ``extent``'s grid that the scene
        renders: every column a rollout can read.

        A ground point at column index ``fj`` reads columns ``floor(fj)``
        and ``floor(fj) + 1``.  The window holds them, with two more
        columns on each side, for every point within ``_window_reach`` of
        the lane centre, and it is clipped to the grid.
        """
        mpp, half = self.scene.meters_per_pixel, self.scene.y_half_extent
        n_y, grid_y = _axis(-half, half, mpp)
        reach = _window_reach(self.road, self.detector, self.camera)
        return (max(math.floor((-reach - grid_y) / mpp) - 2, 0),
                min(math.floor((reach - grid_y) / mpp) + 4, n_y))

    def build_scene(self) -> tuple[BevImage, np.ndarray]:
        """The scene over ``columns`` only and its line mask: a read-only
        view of the line columns its draw paints, for every row."""
        scene = render_road_bev(self.road, self.extent,
                                self.scene.meters_per_pixel, self.seed,
                                self.columns)
        return scene, np.broadcast_to(scene.draw.lines, scene.shape)

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(camera=self.camera, detector=self.detector,
                              controller=self.controller, vehicle=self.vehicle)

    def initial_state(self) -> VehicleState:
        return VehicleState(self.start.start_x, self.start.start_y,
                            self.start.start_heading, self.speed_kmh / 3.6)

    def initial_patch(self) -> PatchState:
        spec = self.patch
        return uniform_patch(self.placement, spec.grid_mpp, spec.init_value,
                             v_min=spec.v_min, v_max=spec.v_max)

    def identity_patch(self) -> PatchState:
        return identity_patch(self.placement, self.patch.grid_mpp, self.road,
                              v_min=self.patch.v_min, v_max=self.patch.v_max)

    def check_patch(self, placement: PatchPlacement, v_max: float) -> None:
        """Raise ``ConfigError`` unless a patch at ``placement`` (plus its
        margin) stays off both lane lines and inside the extent of the
        rendered raster (by the test compositing applies), and its grays,
        up to ``v_max``, stay below the lane-line intensity."""
        road = self.road
        half_interior = 0.5 * (road.lane_width - road.lane_line_width)
        reach = (abs(placement.center_y) + 0.5 * placement.width
                 + placement.margin)
        if reach > half_interior + _EDGE_EPS:
            raise ConfigError(
                "patch.placement",
                f"patch reaches {reach:.3f} m from lane center but the "
                f"line-free interior extends only {half_interior:.3f} m")
        mpp, (c0, c1) = self.scene.meters_per_pixel, self.columns
        n_x, _, origin = _grid(self.extent, mpp)
        if _rect_leaves(placement.rect,
                        _raster_extent(n_x, c1 - c0, origin, mpp, c0)):
            raise ConfigError("patch.start_x",
                              "patch placement leaves the rendered scene extent")
        if v_max >= road.line_intensity:
            raise ConfigError("patch.v_max", "patch grays must stay below "
                                             "the lane-line intensity")


def _build(section: str, cls, doc: dict):
    """``cls`` from its fields in the merged section ``doc`` (lists as
    tuples); an ``InvalidArgumentError`` is reported against ``section``."""
    try:
        return cls(**{f.name: tuple(v) if isinstance(v := doc[f.name], list)
                      else v for f in fields(cls)})
    except InvalidArgumentError as exc:
        raise ConfigError(section, str(exc)) from exc


def config_from_dict(user: dict, seed_override: int | None = None) -> ScenarioConfig:
    """Merge, apply the seed override, and validate a scenario document.

    ``seed_override`` beats the file's seed.  The hash covers the
    effective document, the override included.
    """
    merged = merge_with_defaults(user)

    if seed_override is not None:
        merged["seed"] = int(seed_override)
    for fname, positive in (("seed", False), ("speed_kmh", True),
                            ("duration_s", True), ("goal_m", False)):
        if merged[fname] < 0.0 or (positive and merged[fname] == 0.0):
            kind = "positive" if positive else ">= 0"
            raise ConfigError(fname, f"must be {kind}")

    cfg = ScenarioConfig(
        **{key: merged[key] for key in _RUN},
        **{attr: _build(section, type(obj), merged[section])
           for section, attr, obj in _SECTIONS},
        merged=merged)
    _cross_validate(cfg)
    return cfg


@lru_cache(maxsize=16)
def _window_reach(road: RoadSpec, detector: DetectorConfig,
                  camera: CameraConfig) -> float:
    """How far from the lane centre the scene's column window reaches (m):
    as far as any ground point of the detector's support at a pose in the
    warp envelope (``camera.lateral_reach``), or the outer edge of either
    lane line (the patch lies between them, by ``check_patch``), plus a
    nanometre against round-off.  Computed once per (road, detector,
    camera)."""
    support = support_set(detector, camera)
    return max(lateral_reach(support.xf, support.yf),
               0.5 * (road.lane_width + road.lane_line_width)) + _EDGE_EPS


def _check_caps(cfg: ScenarioConfig) -> None:
    """Refuse a scene grid over ``MAX_GRID_COLUMNS`` columns, a scene
    raster (the column window) over ``MAX_SCENE_BYTES`` or a rollout over
    ``MAX_FRAMES`` before anything is sized from them, on the field that
    grows it most over the default scenario.  The counts round as the
    grid and ``n_frames`` do, in floats, so no size overflows."""
    road, scene, vehicle = RoadSpec(), SceneSpec(), VehicleParams()
    mpp = cfg.scene.meters_per_pixel
    x_lo, x_hi, y_lo, y_hi = cfg.extent
    grid_columns = round((y_hi - y_lo) / mpp, 0)
    if not grid_columns <= MAX_GRID_COLUMNS:
        growth = {"scene.y_half_extent":
                      cfg.scene.y_half_extent / scene.y_half_extent,
                  "scene.meters_per_pixel": scene.meters_per_pixel / mpp}
        raise ConfigError(max(growth, key=growth.get),
                          f"the scene grid would count {grid_columns:.3g} "
                          f"columns, over {MAX_GRID_COLUMNS}")
    c0, c1 = cfg.columns
    pixels = round((x_hi - x_lo) / mpp, 0) * (c1 - c0)
    if not pixels * 8 <= MAX_SCENE_BYTES:
        growth = {"road.road_length": cfg.road.road_length / road.road_length,
                  "scene.meters_per_pixel":
                      (scene.meters_per_pixel / mpp) ** 2,
                  "detector": _window_reach(cfg.road, cfg.detector, cfg.camera)
                      / _window_reach(road, DetectorConfig(), CameraConfig())}
        raise ConfigError(max(growth, key=growth.get),
                          f"the scene raster would take {pixels * 8:.3g} "
                          f"bytes, over the {MAX_SCENE_BYTES} byte cap")
    if not round(cfg.duration_s / cfg.vehicle.dt, 0) <= MAX_FRAMES:
        growth = {"duration_s": cfg.duration_s / _RUN["duration_s"],
                  "vehicle.dt": vehicle.dt / cfg.vehicle.dt}
        raise ConfigError(max(growth, key=growth.get),
                          f"the run would take more than {MAX_FRAMES} frames")
    if cfg.attack.horizon_frames > MAX_FRAMES:
        raise ConfigError("attack.horizon_frames",
                          f"must be at most {MAX_FRAMES} frames")


def _cross_validate(cfg: ScenarioConfig) -> None:
    road, mpp = cfg.road, cfg.scene.meters_per_pixel
    if cfg.scene.y_half_extent < 0.5 * (road.lane_width + road.lane_line_width):
        raise ConfigError("scene.y_half_extent",
                          "scene must be wide enough to contain both lane lines")
    cfg.pipeline()          # its detector support sizes the column window
    _check_caps(cfg)
    if cfg.n_frames < 1:
        raise ConfigError("duration_s",
                          "rounds to zero control steps "
                          f"of vehicle.dt = {cfg.vehicle.dt} s")

    # Every model input needs ground; no pose passes speed times the longer
    # of the run and the attack horizon.  The raster is sourced up to its
    # last pixel centre, half a pixel short of the extent.
    x_lo, x_hi, y_lo, y_hi = cfg.extent
    for fname, span in (("road.road_length", x_hi - x_lo),
                        ("scene.y_half_extent", y_hi - y_lo)):
        if int(round(span / mpp)) < 1:      # as the raster counts its pixels
            raise ConfigError(fname, f"spans less than one {mpp} m pixel")
    reach = model_input_reach(cfg.camera)
    drive_s = max(cfg.duration_s, cfg.attack.horizon_frames * cfg.vehicle.dt)
    need = cfg.start.start_x + cfg.speed_kmh / 3.6 * drive_s + reach
    last = x_lo + (round(road.road_length / mpp) - 0.5) * mpp
    if last < need:
        raise ConfigError("road.road_length", f"the road is sourced up to "
                          f"x = {last:.3f} m but the drive sees up to "
                          f"{need:.3f} m ({reach:.2f} m past its last pose)")
    cfg.check_patch(cfg.placement, cfg.patch.v_max)
    # Taps at most two cells apart leave no cell without a gradient.
    if cfg.patch.grid_mpp < 0.5 * mpp:
        raise ConfigError("patch.grid_mpp",
                          f"cells below half the {mpp} m scene pixel are "
                          f"skipped by the composite's taps")

    # The first frame by the warp's own tests: its pose inside the envelope
    # that ``check_pose_bounds`` holds every frame to, the model input's
    # rows (the rule above covers their far end), and the detector
    # support's columns by the grid's column index, which the window
    # offsets exactly.
    pose = cfg.initial_state()
    if abs(pose.y) > MAX_LATERAL:
        raise ConfigError("vehicle.start_y", f"{pose.y} m is outside the "
                          f"warp's envelope, |y| <= {MAX_LATERAL} m")
    if abs(pose.heading) > MAX_HEADING:
        raise ConfigError("vehicle.start_heading", f"{pose.heading} rad is "
                          f"outside the warp's envelope, |heading| <= "
                          f"{MAX_HEADING} rad")
    n_x, _, origin = _grid(cfg.extent, mpp)
    if model_input_gaps(cfg.camera, pose, origin[0], mpp, n_x)[0]:
        raise ConfigError("vehicle.start_x", "the first frame's model input "
                                             "reads behind the rendered scene")
    support = support_set(cfg.detector, cfg.camera)
    c0, c1 = cfg.columns
    fj = (_vehicle_to_world(pose, support.xf, support.yf)[1] - origin[1]) / mpp
    if not np.all(~support.front | ((fj >= c0) & (fj <= c1 - 1))):
        raise ConfigError("scene.y_half_extent",
                          "the first frame's detector support reads beside "
                          "the rendered scene")


def load_config(path, seed_override: int | None = None) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc, seed_override=seed_override)


def builtin_scenarios() -> list[str]:
    """Names of the scenario files shipped inside the package."""
    root = resources.files("roadpatch") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))


def resolve_scenario(name_or_path: str) -> Path:
    """Accept either a filesystem path or a bundled scenario name."""
    p = Path(name_or_path)
    if p.exists():
        return p
    builtin = resources.files("roadpatch") / "scenarios" / f"{name_or_path}.json"
    if builtin.is_file():
        return Path(str(builtin))
    raise ConfigError("config",
                      f"no such scenario file or bundled scenario: "
                      f"{name_or_path!r} (bundled: {', '.join(builtin_scenarios())})")
