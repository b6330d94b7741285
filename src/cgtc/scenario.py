"""Scenario files: strict JSON schema, parsing, validation.

One scenario is one JSON object. All lengths are meters, all angles compass
degrees, all speeds m/s. Unknown fields are rejected so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .cells import check_dt, check_radius, check_resolution
from .errors import ParseError, ValidationError
from .grid import DOMAIN_FACTOR_MAX, DOMAIN_FACTOR_MIN
from .ship import ShipParams
from .static_planner import Obstacle

MODES = ("static", "dynamic", "free")

_DEFAULT_DT_S = 0.5
_DEFAULT_MAX_STEPS = 64
_DEFAULT_RESOLUTION_DEG = 5.0


@dataclass
class Scenario:
    mode: str
    ship: ShipParams
    start_x_m: float
    start_y_m: float
    start_heading_deg: float
    dest_x_m: float
    dest_y_m: float
    obstacles: list[Obstacle] = field(default_factory=list)
    circle_radius_m: float | None = None
    domain_factor: float | None = None
    reach_tolerance_override_m: float | None = None
    dt_s: float = _DEFAULT_DT_S
    max_steps: int = _DEFAULT_MAX_STEPS
    cell_resolution_deg: float = _DEFAULT_RESOLUTION_DEG
    name: str = ""

    @property
    def radius_m(self) -> float:
        """Circle-grid radius: explicit value wins over the domain factor."""
        if self.circle_radius_m is not None:
            return self.circle_radius_m
        return self.domain_factor * self.ship.length_m

    @property
    def reach_tolerance_m(self) -> float:
        if self.reach_tolerance_override_m is not None:
            return self.reach_tolerance_override_m
        return self.radius_m


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


def _take_number(obj: dict, key: str, where: str, *, required: bool = True,
                 default=None):
    if key not in obj:
        _require(not required, f"{where}: missing required field '{key}'")
        return default
    val = obj[key]
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             f"{where}.{key}: expected a number, got {val!r}")
    _require(math.isfinite(val), f"{where}.{key}: expected a finite number, got {val!r}")
    return float(val)


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")


def scenario_from_dict(data: dict, name: str = "") -> Scenario:
    _require(isinstance(data, dict), "scenario: top level must be a single object")
    _reject_unknown(data, {"mode", "ship", "start", "destination", "obstacles",
                           "circle_radius_m", "domain_factor", "reach_tolerance_m",
                           "sim"}, "scenario")

    mode = data.get("mode")
    _require(mode in MODES, f"scenario.mode: expected one of {MODES}, got {mode!r}")

    ship_obj = data.get("ship", {})
    _require(isinstance(ship_obj, dict), "scenario.ship: expected an object")
    ship_fields = {f.name for f in dc_fields(ShipParams)}
    _reject_unknown(ship_obj, ship_fields, "scenario.ship")
    try:
        ship = ShipParams(**{k: _take_number(ship_obj, k, "scenario.ship")
                             for k in ship_obj})
    except ValueError as exc:
        raise ValidationError(f"scenario.ship: {exc}") from exc

    start = data.get("start")
    _require(isinstance(start, dict), "scenario.start: expected an object")
    _reject_unknown(start, {"x_m", "y_m", "heading_deg"}, "scenario.start")
    sx = _take_number(start, "x_m", "scenario.start")
    sy = _take_number(start, "y_m", "scenario.start")
    sh = _take_number(start, "heading_deg", "scenario.start")

    dest = data.get("destination")
    _require(isinstance(dest, dict), "scenario.destination: expected an object")
    _reject_unknown(dest, {"x_m", "y_m"}, "scenario.destination")
    dx = _take_number(dest, "x_m", "scenario.destination")
    dy = _take_number(dest, "y_m", "scenario.destination")
    _require((sx, sy) != (dx, dy), "scenario: start and destination coincide")

    radius = _take_number(data, "circle_radius_m", "scenario", required=False)
    factor = _take_number(data, "domain_factor", "scenario", required=False)
    _require(radius is not None or factor is not None,
             "scenario: give circle_radius_m or domain_factor")
    if radius is not None:
        _require(radius > 0, f"scenario.circle_radius_m: must be positive, got {radius}")
    if factor is not None:
        _require(DOMAIN_FACTOR_MIN <= factor <= DOMAIN_FACTOR_MAX,
                 f"scenario.domain_factor: must be in [{DOMAIN_FACTOR_MIN}, "
                 f"{DOMAIN_FACTOR_MAX}], got {factor}")
    try:
        check_radius(ship, radius if radius is not None else factor * ship.length_m)
    except ValueError as exc:
        raise ValidationError(f"scenario: circle {exc}") from exc
    reach = _take_number(data, "reach_tolerance_m", "scenario", required=False)

    obstacles = []
    obs_list = data.get("obstacles", [])
    _require(isinstance(obs_list, list), "scenario.obstacles: expected a list")
    for i, obs in enumerate(obs_list):
        where = f"scenario.obstacles[{i}]"
        _require(isinstance(obs, dict), f"{where}: expected an object")
        _reject_unknown(obs, {"x_m", "y_m", "radius_m", "speed_mps", "course_deg"}, where)
        ox = _take_number(obs, "x_m", where)
        oy = _take_number(obs, "y_m", where)
        orad = _take_number(obs, "radius_m", where)
        _require(orad > 0, f"{where}.radius_m: must be positive, got {orad}")
        ospeed = _take_number(obs, "speed_mps", where, required=False, default=0.0)
        _require(ospeed >= 0, f"{where}.speed_mps: must be non-negative, got {ospeed}")
        ocourse = _take_number(obs, "course_deg", where, required=False, default=0.0)
        obstacles.append(Obstacle(center=(ox, oy), radius_m=orad,
                                  speed_mps=ospeed, course_deg=ocourse))

    sim = data.get("sim", {})
    _require(isinstance(sim, dict), "scenario.sim: expected an object")
    _reject_unknown(sim, {"dt_s", "max_steps", "cell_resolution_deg"}, "scenario.sim")
    dt = _take_number(sim, "dt_s", "scenario.sim", required=False, default=_DEFAULT_DT_S)
    try:
        check_dt(ship, dt)
    except ValueError as exc:
        raise ValidationError(f"scenario.sim.dt_s: {exc}") from exc
    max_steps = sim.get("max_steps", _DEFAULT_MAX_STEPS)
    _require(isinstance(max_steps, int) and not isinstance(max_steps, bool)
             and max_steps > 0,
             f"scenario.sim.max_steps: expected a positive integer, got {max_steps!r}")
    resolution = _take_number(sim, "cell_resolution_deg", "scenario.sim",
                              required=False, default=_DEFAULT_RESOLUTION_DEG)
    try:
        check_resolution(resolution)
    except ValueError as exc:
        raise ValidationError(f"scenario.sim.cell_resolution_deg: {exc}") from exc

    movers = [o for o in obstacles if o.moving]
    if mode == "dynamic":
        _require(len(movers) == 1,
                 f"scenario: dynamic mode needs exactly one moving obstacle, got {len(movers)}")
    else:
        _require(not movers,
                 f"scenario: mode '{mode}' cannot have moving obstacles ({len(movers)} found)")
    if mode == "free":
        _require(not obstacles, "scenario: free mode must not list obstacles")

    return Scenario(
        mode=mode, ship=ship,
        start_x_m=sx, start_y_m=sy, start_heading_deg=sh,
        dest_x_m=dx, dest_y_m=dy,
        obstacles=obstacles,
        circle_radius_m=radius, domain_factor=factor,
        reach_tolerance_override_m=reach,
        dt_s=dt, max_steps=max_steps, cell_resolution_deg=resolution,
        name=name,
    )


def _reject_constant(name: str):
    # Python's json accepts NaN and Infinity, which are not JSON numbers
    raise ValueError(f"{name} is not a number in JSON")


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(data, name=path.stem)


def mirror_scenario(scenario: Scenario) -> Scenario:
    """Reflect a scenario about the north (y) axis; useful for symmetry checks."""
    return Scenario(
        mode=scenario.mode,
        ship=scenario.ship,
        start_x_m=-scenario.start_x_m,
        start_y_m=scenario.start_y_m,
        start_heading_deg=(-scenario.start_heading_deg) % 360.0,
        dest_x_m=-scenario.dest_x_m,
        dest_y_m=scenario.dest_y_m,
        obstacles=[Obstacle(center=(-o.center[0], o.center[1]), radius_m=o.radius_m,
                            speed_mps=o.speed_mps,
                            course_deg=(-o.course_deg) % 360.0)
                   for o in scenario.obstacles],
        circle_radius_m=scenario.circle_radius_m,
        domain_factor=scenario.domain_factor,
        reach_tolerance_override_m=scenario.reach_tolerance_override_m,
        dt_s=scenario.dt_s,
        max_steps=scenario.max_steps,
        cell_resolution_deg=scenario.cell_resolution_deg,
        name=scenario.name + "-mirrored" if scenario.name else "",
    )
