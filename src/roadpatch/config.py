"""Scenario files: JSON in, fully validated run setup out.

A scenario bundles everything one experiment needs — road, scene raster,
camera, vehicle, detector, controller, patch placement, and optimizer
settings.  Every field has a default, unknown fields are rejected, and
each complaint names the offending entry by its dotted path.  The
canonical hash of the merged (defaults-applied) document identifies a
setup across runs.  The ``seed`` draws the road's asphalt texture, the
only random input; ``seed_override`` (the command line's ``--seed``)
replaces the file's value before hashing.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

from .attack import AttackConfig, PipelineConfig
from .camera import CameraConfig, model_input_gaps, model_input_reach
from .controller import ControllerConfig
from .detector import DetectorConfig
from .errors import ConfigError, InvalidArgumentError
from .motion import VehicleParams, VehicleState
from .scene import (
    BevImage,
    PatchPlacement,
    PatchState,
    RoadSpec,
    _EDGE_EPS,
    _grid,
    _raster_extent,
    _rect_leaves,
    identity_patch,
    lane_line_mask,
    render_road_bev,
    uniform_patch,
)

_FIXED_LEN = {"camera.principal_point": 2, "camera.image_size": 2,
              "camera.model_input_rect": 4}
_INT_LISTS = {"camera.image_size", "camera.model_input_rect"}


def _section(obj) -> dict:
    """A config object's fields as a scenario section, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(obj).items()}


def defaults() -> dict:
    """The complete scenario document every file is merged onto.

    Class-backed sections take their fields and defaults from the config
    classes themselves; only the values no class holds are written here.
    """
    return {
        "name": "scenario",
        "seed": 0,
        "speed_kmh": 72.0,
        "duration_s": 10.0,
        "goal_m": 0.745,
        "road": _section(RoadSpec()),
        "scene": {
            "meters_per_pixel": 0.05,
            "x_min": 0.0,
            "y_half_extent": 48.0,
        },
        "camera": _section(CameraConfig()),
        "vehicle": {
            **_section(VehicleParams()),
            "start_x": 0.0,
            "start_y": 0.0,
            "start_heading": 0.0,
        },
        "detector": _section(DetectorConfig()),
        "controller": _section(ControllerConfig()),
        "patch": {
            **_section(PatchPlacement(start_x=60.0, center_y=0.0, width=2.4,
                                      length=36.0)),
            "grid_mpp": 0.10,
            "v_min": 0.05,
            "v_max": 0.60,
            "init_value": 0.45,
        },
        "attack": _section(AttackConfig()),
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(value, dotted: str) -> float:
    """``value`` as a float; NaN, infinities and ints past the float range
    are refused (Python's ``json`` accepts ``NaN`` and ``Infinity``)."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(dotted, "expected a finite number")
    return out


def _coerce(uval, dval, dotted: str):
    if isinstance(dval, str):
        if not isinstance(uval, str):
            raise ConfigError(dotted, "expected a string")
        return uval
    if _is_int(dval):
        if not _is_int(uval):
            raise ConfigError(dotted, "expected an integer")
        return uval
    if isinstance(dval, float):
        if not (_is_int(uval) or isinstance(uval, float)):
            raise ConfigError(dotted, "expected a number")
        return _finite(uval, dotted)
    if isinstance(dval, list):
        if not isinstance(uval, list):
            raise ConfigError(dotted, "expected a list of numbers")
        want = _FIXED_LEN.get(dotted)
        if want is not None and len(uval) != want:
            raise ConfigError(dotted, f"expected exactly {want} entries")
        if want is None and not uval:
            raise ConfigError(dotted, "expected at least one entry")
        out = []
        for v in uval:
            if dotted in _INT_LISTS:
                if not _is_int(v):
                    raise ConfigError(dotted, "entries must be integers")
                out.append(v)
            else:
                if not (_is_int(v) or isinstance(v, float)):
                    raise ConfigError(dotted, "entries must be numbers")
                out.append(_finite(v, dotted))
        return out
    raise ConfigError(dotted, "unsupported field type")        # pragma: no cover


def merge_with_defaults(user: dict, base: dict | None = None,
                        _path: str = "") -> dict:
    """Recursively overlay ``user`` onto the defaults, rejecting unknowns."""
    if base is None:
        base = defaults()
    if not isinstance(user, dict):
        raise ConfigError(_path.rstrip(".") or "config",
                          "expected a JSON object")
    merged = {}
    for key, dval in base.items():
        dotted = f"{_path}{key}"
        if isinstance(dval, dict):
            sub = user.get(key, {})
            merged[key] = merge_with_defaults(sub, dval, dotted + ".")
        elif key in user:
            merged[key] = _coerce(user[key], dval, dotted)
        else:
            merged[key] = copy.deepcopy(dval)
    for key in user:
        if key not in base:
            raise ConfigError(f"{_path}{key}", "unknown field")
    return merged


def config_hash(merged: dict) -> str:
    """Short stable digest of a merged scenario document."""
    blob = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class ScenarioConfig:
    """A validated scenario plus builders for its runtime objects."""

    name: str
    seed: int
    speed_kmh: float
    duration_s: float
    goal_m: float
    road: RoadSpec
    meters_per_pixel: float
    x_min: float
    y_half_extent: float
    camera: CameraConfig
    vehicle: VehicleParams
    start_x: float
    start_y: float
    start_heading: float
    detector: DetectorConfig
    controller: ControllerConfig
    attack: AttackConfig
    placement: PatchPlacement
    patch_grid_mpp: float
    patch_v_min: float
    patch_v_max: float
    patch_init_value: float
    merged: dict = field(repr=False)

    @property
    def hash(self) -> str:
        """Digest of ``merged``, so it follows any later edit of the document."""
        return config_hash(self.merged)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.x_min + self.road.road_length,
                -self.y_half_extent, self.y_half_extent)

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s / self.vehicle.dt))

    def build_scene(self) -> tuple[BevImage, "np.ndarray"]:
        scene = render_road_bev(self.road, self.extent, self.meters_per_pixel,
                                self.seed)
        mask = lane_line_mask(self.road, self.extent, self.meters_per_pixel)
        return scene, mask

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(camera=self.camera, detector=self.detector,
                              controller=self.controller, vehicle=self.vehicle)

    def initial_state(self) -> VehicleState:
        return VehicleState(self.start_x, self.start_y, self.start_heading,
                            self.speed_kmh / 3.6)

    def initial_patch(self) -> PatchState:
        return uniform_patch(self.placement, self.patch_grid_mpp,
                             self.patch_init_value, v_min=self.patch_v_min,
                             v_max=self.patch_v_max)

    def identity_patch(self) -> PatchState:
        return identity_patch(self.placement, self.patch_grid_mpp, self.road,
                              v_min=self.patch_v_min, v_max=self.patch_v_max)

    def check_patch(self, patch: PatchState) -> None:
        """Raise ``ConfigError`` unless ``patch`` fits this scenario: its
        placement (plus its margin) stays off both lane lines and inside
        the extent of the rendered raster (by the test compositing
        applies), and its grays stay below the lane-line intensity."""
        placement, road = patch.placement, self.road
        half_interior = 0.5 * (road.lane_width - road.lane_line_width)
        reach = (abs(placement.center_y) + 0.5 * placement.width
                 + placement.margin)
        if reach > half_interior + _EDGE_EPS:
            raise ConfigError(
                "patch.placement",
                f"patch reaches {reach:.3f} m from lane center but the "
                f"line-free interior extends only {half_interior:.3f} m")
        mpp = self.meters_per_pixel
        if _rect_leaves(placement.rect,
                        _raster_extent(*_grid(self.extent, mpp), mpp)):
            raise ConfigError("patch.start_x",
                              "patch placement leaves the rendered scene extent")
        if patch.v_max >= road.line_intensity:
            raise ConfigError("patch.v_max", "patch grays must stay below "
                                             "the lane-line intensity")


def _build(section: str, cls, doc: dict):
    """``cls`` from its fields in the merged ``doc`` (lists as tuples); a
    refusal is reported against ``section``."""
    values = {f.name: doc[f.name] for f in fields(cls)}
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in values.items()})
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
    if merged["seed"] < 0:
        raise ConfigError("seed", "must be >= 0")
    for fname, positive in (("speed_kmh", True), ("duration_s", True),
                            ("goal_m", False)):
        if merged[fname] < 0.0 or (positive and merged[fname] == 0.0):
            kind = "positive" if positive else ">= 0"
            raise ConfigError(fname, f"must be {kind}")

    road = _build("road", RoadSpec, merged["road"])

    sc = merged["scene"]
    if sc["meters_per_pixel"] <= 0.0:
        raise ConfigError("scene.meters_per_pixel", "must be positive")
    if sc["y_half_extent"] < 0.5 * (road.lane_width + road.lane_line_width):
        raise ConfigError("scene.y_half_extent",
                          "scene must be wide enough to contain both lane lines")

    camera = _build("camera", CameraConfig, merged["camera"])
    veh = merged["vehicle"]
    vehicle = _build("vehicle", VehicleParams, veh)
    detector = _build("detector", DetectorConfig, merged["detector"])
    controller = _build("controller", ControllerConfig, merged["controller"])
    attack = _build("attack", AttackConfig, merged["attack"])

    pk = merged["patch"]
    placement = _build("patch", PatchPlacement, pk)
    if not 0.0 <= pk["v_min"] < pk["v_max"] <= 1.0:
        raise ConfigError("patch.v_min", "need 0 <= v_min < v_max <= 1")
    if not pk["v_min"] <= pk["init_value"] <= pk["v_max"]:
        raise ConfigError("patch.init_value", "must lie within the gray bounds")
    if pk["grid_mpp"] <= 0.0:
        raise ConfigError("patch.grid_mpp", "must be positive")

    cfg = ScenarioConfig(
        name=merged["name"], seed=merged["seed"],
        speed_kmh=merged["speed_kmh"], duration_s=merged["duration_s"],
        goal_m=merged["goal_m"], road=road,
        meters_per_pixel=sc["meters_per_pixel"], x_min=sc["x_min"],
        y_half_extent=sc["y_half_extent"], camera=camera, vehicle=vehicle,
        start_x=veh["start_x"], start_y=veh["start_y"],
        start_heading=veh["start_heading"], detector=detector,
        controller=controller, attack=attack, placement=placement,
        patch_grid_mpp=pk["grid_mpp"], patch_v_min=pk["v_min"],
        patch_v_max=pk["v_max"], patch_init_value=pk["init_value"],
        merged=merged)

    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ScenarioConfig) -> None:
    if cfg.n_frames < 1:
        raise ConfigError("duration_s",
                          "rounds to zero control steps "
                          f"of vehicle.dt = {cfg.vehicle.dt} s")
    cfg.pipeline()

    # Every model input needs ground; no pose passes speed times the longer
    # of the run and the attack horizon.  The raster is sourced up to its
    # last pixel centre, half a pixel short of the extent.
    mpp = cfg.meters_per_pixel
    x_lo, x_hi, y_lo, y_hi = cfg.extent
    for fname, span in (("road.road_length", x_hi - x_lo),
                        ("scene.y_half_extent", y_hi - y_lo)):
        if int(round(span / mpp)) < 1:      # as the raster counts its pixels
            raise ConfigError(fname, f"spans less than one {mpp} m pixel")
    reach = model_input_reach(cfg.camera)
    drive_s = max(cfg.duration_s, cfg.attack.horizon_frames * cfg.vehicle.dt)
    need = cfg.start_x + cfg.speed_kmh / 3.6 * drive_s + reach
    last = cfg.x_min + (round(cfg.road.road_length / mpp) - 0.5) * mpp
    if last < need:
        raise ConfigError("road.road_length", f"the road is sourced up to "
                          f"x = {last:.3f} m but the drive sees up to "
                          f"{need:.3f} m ({reach:.2f} m past its last pose)")
    cfg.check_patch(cfg.initial_patch())   # sizes the raster: after the road rule

    # The first frame's model input by the warp's own test; the rule above
    # covers its far end.
    n_x, n_y, origin = _grid(cfg.extent, mpp)
    behind, _, side = model_input_gaps(cfg.camera, cfg.initial_state(),
                                       origin, mpp, (n_x, n_y))
    for fname, gap, where in (("vehicle.start_x", behind, "behind"),
                              ("scene.y_half_extent", side, "beside")):
        if gap:
            raise ConfigError(fname, f"the first frame's model input reads "
                                     f"{where} the rendered scene")


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
