"""Scenario files: strict JSON schema, parsing, validation.

One scenario is one JSON object. All lengths are meters, all angles compass
degrees, all speeds m/s. Unknown fields are rejected so typos fail loudly
instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from .cells import (DEFAULT_DT_S, DEFAULT_RESOLUTION_DEG, check_radius,
                    check_resolution, check_rollout_dt)
from .errors import FactorOutOfRange, ParseError, ValidationError
from .grid import ship_domain_radius
from .ship import ShipParams
from .static_planner import Obstacle

MODES = ("static", "dynamic", "free")

_DEFAULT_MAX_STEPS = 64

# Every number in a scenario, coordinates, radii and speeds among them, lies
# within this magnitude, so the square of a difference of two stays far
# below float overflow.
MAX_MAGNITUDE = 1e9


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
    dt_s: float = DEFAULT_DT_S
    max_steps: int = _DEFAULT_MAX_STEPS
    cell_resolution_deg: float = DEFAULT_RESOLUTION_DEG
    name: str = ""

    @property
    def radius_m(self) -> float:
        """Circle-grid radius: explicit value wins over the domain factor."""
        if self.circle_radius_m is not None:
            return self.circle_radius_m
        return ship_domain_radius(self.ship, self.domain_factor)

    @property
    def reach_tolerance_m(self) -> float:
        if self.reach_tolerance_override_m is not None:
            return self.reach_tolerance_override_m
        return self.radius_m


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


def _checked(where: str, rule, *args, **kwargs):
    """Call a rule's owner (a check or a constructor); its error names where."""
    try:
        return rule(*args, **kwargs)
    except (ValueError, FactorOutOfRange) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _take_number(obj: dict, key: str, where: str, *, required: bool = True,
                 default=None):
    if key not in obj:
        _require(not required, f"{where}: missing required field '{key}'")
        return default
    val = obj[key]
    _require(isinstance(val, (int, float)) and not isinstance(val, bool),
             f"{where}.{key}: expected a number, got {val!r}")
    # one test for NaN, ±inf and an int too large for a float as well
    _require(abs(val) <= MAX_MAGNITUDE, f"{where}.{key}: expected a finite number of "
             f"magnitude at most {MAX_MAGNITUDE:g}, got {val!r}")
    return float(val)


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")


def _read_object(obj, where: str, required: tuple[str, ...] = (),
                 optional: tuple[str, ...] = ()) -> dict[str, float]:
    """The numbers of one JSON object whose fields are exactly these names.

    The required fields, then the optional ones that are present, are taken
    in the order given; an absent optional field is left to its owner's
    default.
    """
    _require(isinstance(obj, dict), f"{where}: expected an object")
    _reject_unknown(obj, {*required, *optional}, where)
    return {key: _take_number(obj, key, where)
            for key in (*required, *optional) if key in required or key in obj}


def scenario_from_dict(data: dict, name: str = "") -> Scenario:
    _require(isinstance(data, dict), "scenario: top level must be a single object")
    _reject_unknown(data, {"mode", "ship", "start", "destination", "obstacles",
                           "circle_radius_m", "domain_factor", "reach_tolerance_m",
                           "sim"}, "scenario")

    mode = data.get("mode")
    _require(mode in MODES, f"scenario.mode: expected one of {MODES}, got {mode!r}")

    ship = _checked("scenario.ship", ShipParams,
                    **_read_object(data.get("ship", {}), "scenario.ship",
                                   optional=tuple(f.name for f in dc_fields(ShipParams))))
    sx, sy, sh = _read_object(data.get("start"), "scenario.start",
                              ("x_m", "y_m", "heading_deg")).values()
    dx, dy = _read_object(data.get("destination"), "scenario.destination",
                          ("x_m", "y_m")).values()
    _require((sx, sy) != (dx, dy), "scenario: start and destination coincide")

    radius = _take_number(data, "circle_radius_m", "scenario", required=False)
    factor = _take_number(data, "domain_factor", "scenario", required=False)
    _require(radius is not None or factor is not None,
             "scenario: give circle_radius_m or domain_factor")
    if factor is not None:
        domain_radius = _checked("scenario.domain_factor", ship_domain_radius, ship, factor)
    circle = radius if radius is not None else domain_radius
    _checked("scenario", check_radius, ship, circle)
    reach = _take_number(data, "reach_tolerance_m", "scenario", required=False)
    _require(reach is None or reach > 0,
             f"scenario.reach_tolerance_m: expected a positive number, got {reach!r}")

    obstacles = []
    obs_list = data.get("obstacles", [])
    _require(isinstance(obs_list, list), "scenario.obstacles: expected a list")
    for i, obs in enumerate(obs_list):
        where = f"scenario.obstacles[{i}]"
        nums = _read_object(obs, where, ("x_m", "y_m", "radius_m"),
                            ("speed_mps", "course_deg"))
        obstacles.append(_checked(where, Obstacle, center=(nums.pop("x_m"), nums.pop("y_m")),
                                  **nums))

    sim = data.get("sim", {})
    _require(isinstance(sim, dict), "scenario.sim: expected an object")
    _reject_unknown(sim, {"dt_s", "max_steps", "cell_resolution_deg"}, "scenario.sim")
    dt = _take_number(sim, "dt_s", "scenario.sim", required=False, default=DEFAULT_DT_S)
    _checked("scenario.sim.dt_s", check_rollout_dt, ship, circle, dt)
    max_steps = sim.get("max_steps", _DEFAULT_MAX_STEPS)
    _require(isinstance(max_steps, int) and not isinstance(max_steps, bool)
             and max_steps > 0,
             f"scenario.sim.max_steps: expected a positive integer, got {max_steps!r}")
    resolution = _take_number(sim, "cell_resolution_deg", "scenario.sim",
                              required=False, default=DEFAULT_RESOLUTION_DEG)
    _checked("scenario.sim.cell_resolution_deg", check_resolution, resolution)

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
