"""Moving-obstacle encounters: speed bounds, virtual obstacle, two-stage plan.

The maintain-heading analysis projects both tracks to their intersection M
and bounds the obstacle speed from below and above: slow enough that it is
still clear of M when own ship crosses, or fast enough that it has cleared
M before own ship arrives. Between the bounds, a steering command is due:
a static virtual obstacle of minimal radius is placed at M such that
bypassing it tangentially keeps the separation at the critical instant at
least the sum of the two domain radii. Stage 1 bypasses the virtual disc;
once it is bypassed the plan drops it and drives to the destination
(stage 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .cells import MAX_HEADING_CHANGE_DEG, CellSet
from .errors import (
    LengthMismatch,
    NoFeasibleRadius,
    NoForwardIntersection,
    ParallelCourses,
    ValidationError,
)
from .grid import GridNode, compass_bearing, polar_to_world
from .static_planner import (
    Engagement,
    HeadingDecision,
    Obstacle,
    PlanResult,
    _polyline_gap,
    _separation_series,
    check_endpoints,
    decide_heading,
    execute_cells,
    pick_cell,
    scenario_cells,
)

if TYPE_CHECKING:
    from .scenario import Scenario

Point = tuple[float, float]

_PARALLEL_EPS = 1e-12
# bisection stops once the virtual-radius bracket is this narrow (m)
_VIRTUAL_RADIUS_TOL_M = 0.1
# a zero-radius disc at (0, 0): an own-minus-mover track's gap to it is the separation
_ORIGIN = [((0.0, 0.0), 0.0)]


class EncounterClass(Enum):
    MAINTAIN_OWN_FIRST = "maintain_own_first"
    MAINTAIN_OBSTACLE_FIRST = "maintain_obstacle_first"
    MUST_STEER = "must_steer"


@dataclass(frozen=True)
class Encounter:
    """Snapshot of a crossing geometry for the maintain-heading analysis."""

    own_pose: GridNode
    own_speed_mps: float
    obstacle: Obstacle
    meeting_point: Point
    l_s_m: float  # own run to the meeting point
    l_o_m: float  # obstacle run to the meeting point
    R_m: float    # own domain (= circle grid) radius
    R_o_m: float  # obstacle domain radius


@dataclass(frozen=True)
class Classification:
    kind: EncounterClass
    v_lo_mps: float
    v_hi_mps: float
    degenerate: bool = False


@dataclass(frozen=True)
class VirtualObstacle:
    """Static stand-in for a moving obstacle at the meeting point.

    radius_m is the minimal feasible disc radius solved from the
    critical-instant separation constraint. avoid_radius_m is the disc the
    planner actually bypasses: the constraint models the own center running
    a full domain radius outside the tangent point, so the disc whose
    tangent line is that modeled run is wider than radius_m by exactly that
    offset.
    """

    center: Point
    radius_m: float
    avoid_radius_m: float

    def as_obstacle(self) -> Obstacle:
        return Obstacle(center=self.center, radius_m=self.avoid_radius_m)


def heading_intersection(own: GridNode, obstacle: Obstacle) -> Point:
    """Forward intersection M of the own-heading ray and the obstacle course ray."""
    hc = math.radians(own.heading_deg)
    ho = math.radians(obstacle.course_deg)
    dcx, dcy = math.sin(hc), math.cos(hc)
    dox, doy = math.sin(ho), math.cos(ho)
    cross = dcx * doy - dcy * dox
    if abs(cross) < _PARALLEL_EPS:
        raise ParallelCourses(
            f"own heading {own.heading_deg:.2f} parallel to course {obstacle.course_deg:.2f}"
        )
    rx = obstacle.center[0] - own.position[0]
    ry = obstacle.center[1] - own.position[1]
    t_own = (rx * doy - ry * dox) / cross
    t_obs = (rx * dcy - ry * dcx) / cross
    if t_own < 0.0 or t_obs < 0.0:
        raise NoForwardIntersection(
            f"tracks meet behind one vessel (own run {t_own:.1f} m, obstacle run {t_obs:.1f} m)"
        )
    return (own.position[0] + t_own * dcx, own.position[1] + t_own * dcy)


def make_encounter(own: GridNode, own_speed_mps: float, obstacle: Obstacle,
                   own_radius_m: float, obstacle_radius_m: float) -> Encounter:
    """Build the encounter snapshot; raises when the tracks do not cross forward."""
    m = heading_intersection(own, obstacle)
    l_s = math.dist(own.position, m)
    l_o = math.dist(obstacle.center, m)
    return Encounter(
        own_pose=own,
        own_speed_mps=own_speed_mps,
        obstacle=obstacle,
        meeting_point=m,
        l_s_m=l_s,
        l_o_m=l_o,
        R_m=own_radius_m,
        R_o_m=obstacle_radius_m,
    )


def classify_encounter(enc: Encounter) -> Classification:
    """Maintain-heading speed bounds for the obstacle.

    v_lo: obstacle slow enough to still be a domain-sum short of M when own
    ship crosses it. v_hi: obstacle fast enough to have cleared M by a
    domain-sum of own-ship run. Degenerate geometries (meeting point inside
    a domain-sum of either vessel) force MUST_STEER with a flag instead of
    raising.
    """
    sep = enc.R_m + enc.R_o_m
    cm = enc.l_s_m
    om = enc.l_o_m
    v_s = enc.own_speed_mps
    if cm <= sep or om <= sep:
        return Classification(EncounterClass.MUST_STEER, 0.0, math.inf, degenerate=True)
    v_lo = v_s * (om - sep) / cm
    v_hi = v_s * om / (cm - sep)
    v_o = enc.obstacle.speed_mps
    if v_o <= v_lo:
        kind = EncounterClass.MAINTAIN_OWN_FIRST
    elif v_o >= v_hi:
        kind = EncounterClass.MAINTAIN_OBSTACLE_FIRST
    else:
        kind = EncounterClass.MUST_STEER
    return Classification(kind, v_lo, v_hi)


def separation_at_critical(enc: Encounter, virtual_radius_m: float) -> float:
    """Separation between the advanced obstacle and own ship at the critical
    instant of a tangential bypass of a virtual disc of the given radius.

    Own ship runs l_s to the point where its domain circle is tangent to the
    virtual disc at M; the obstacle runs its own course for the same transit
    time. Positive return values above zero mean the domain-sum constraint
    holds with that margin.
    """
    c = enc.own_pose.position
    cm = enc.l_s_m
    l_s_sq = cm * cm - virtual_radius_m * virtual_radius_m + enc.R_m * enc.R_m
    if l_s_sq <= 0.0 or virtual_radius_m > cm:
        return -math.inf
    l_s = math.sqrt(l_s_sq)
    if enc.R_m > l_s:
        return -math.inf
    ang = (compass_bearing(c, enc.meeting_point)
           + math.degrees(math.asin(virtual_radius_m / cm))
           + math.degrees(math.asin(enc.R_m / l_s)))
    cx = polar_to_world(c, l_s, ang)
    ox = enc.obstacle.position_at(l_s / enc.own_speed_mps)
    return math.dist(ox, cx) - (enc.R_m + enc.R_o_m)


def virtual_obstacle_radius(enc: Encounter) -> VirtualObstacle:
    """Minimal virtual-disc radius making the critical-instant separation hold.

    Brackets the smallest sign change of the separation margin over
    (0, |CM|) with a coarse scan, then bisects to _VIRTUAL_RADIUS_TOL_M. The
    constraint is active at the returned radius (margin within a meter of zero).
    """
    cm = enc.l_s_m
    if separation_at_critical(enc, 0.0) >= 0.0:
        # no disc needed: the tangency construction alone clears the obstacle
        return _with_avoid_radius(enc, _VIRTUAL_RADIUS_TOL_M)

    n = 512
    lo = 0.0
    hi = None
    for i in range(1, n + 1):
        rx = cm * i / n
        if separation_at_critical(enc, rx) >= 0.0:
            hi = rx
            lo = cm * (i - 1) / n
            break
    if hi is None:
        raise NoFeasibleRadius(
            f"no virtual radius below |CM|={cm:.0f} m resolves the encounter"
        )
    while hi - lo > _VIRTUAL_RADIUS_TOL_M:
        mid = 0.5 * (lo + hi)
        if separation_at_critical(enc, mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return _with_avoid_radius(enc, hi)


def _with_avoid_radius(enc: Encounter, r_x: float) -> VirtualObstacle:
    """Attach the planner-facing disc radius to a solved virtual obstacle.

    The modeled bypass run is tangent to nothing of radius r_x: it passes
    the tangent point a domain radius wide. The disc whose tangent line
    from the current position equals that run has radius
    cm * sin(asin(r_x/cm) + asin(R/l_s)), cm being enc.l_s_m.
    """
    cm = enc.l_s_m
    l_s = math.sqrt(max(cm * cm - r_x * r_x + enc.R_m * enc.R_m, enc.R_m * enc.R_m))
    ang = math.asin(min(1.0, r_x / cm)) + math.asin(min(1.0, enc.R_m / l_s))
    avoid = min(cm * math.sin(min(ang, 0.5 * math.pi)), 0.99 * cm)
    return VirtualObstacle(center=enc.meeting_point, radius_m=r_x,
                           avoid_radius_m=avoid)


def min_separation(own_xy: np.ndarray,
                   obstacle_track: Sequence[Point] | np.ndarray) -> tuple[list[float], float]:
    """Own/obstacle distances at each sample, and their minimum between samples.

    own_xy is the own track as a (2, n) array of x and y rows (a
    Trajectory's xy); obstacle_track is a sequence of (x, y) points
    or an (n, 2) array. Each distance is math.hypot of the coordinate
    differences (as math.dist); the minimum is the relative polyline's
    distance to (0, 0).
    """
    if own_xy.shape[1] != len(obstacle_track):
        raise LengthMismatch(
            f"{own_xy.shape[1]} own samples vs {len(obstacle_track)} obstacle samples"
        )
    relative = own_xy - np.asarray(obstacle_track, dtype=np.float64).T
    return _separation_series(relative), _polyline_gap(relative, _ORIGIN)


@dataclass(frozen=True)
class _DynamicState:
    """plan_dynamic's step state: the episode, the virtual disc as bypassed
    (dropped for good once virtual_done) and the last classified heading."""

    engagement: Engagement = Engagement()
    virtual: Optional[Obstacle] = None
    virtual_done: bool = False
    classified_heading: Optional[float] = None


def plan_dynamic(scenario: "Scenario", cells: Optional[CellSet] = None) -> PlanResult:
    """Two-stage dynamic plan around one constant-velocity moving obstacle.

    A Maintain classification keeps heading decisions purely destination
    driven for the whole run (the speed bounds are a whole-track guarantee
    while courses hold). MustSteer pins a virtual static obstacle at the
    track intersection; stage 1 bypasses it through the static tangency
    strategy and stage 2 starts once it reports bypassed, dropping it for
    good and driving home. Static obstacles participate in every decision
    throughout. Each step is a pure function of a frozen _DynamicState,
    which execute_cells threads. The plan measures the minimum separation
    to the moving obstacle (min_separation's) and keeps the own-minus-mover
    track, from which PlanResult.separation_m gives the distance at every
    sample on first read; when no cell runs, only the minimum is measured,
    at the start point, and the series stays empty.
    """
    movers = [o for o in scenario.obstacles if o.moving]
    if len(movers) != 1:
        raise ValidationError(
            f"dynamic planning needs exactly one moving obstacle, got {len(movers)}"
        )
    mover = movers[0]
    statics = [o for o in scenario.obstacles if not o.moving]

    check_endpoints(scenario, statics)
    cells = scenario_cells(scenario, cells)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    tracked_statics = list(enumerate(statics))

    def step(pose: GridNode, t: float, state: _DynamicState):
        virtual, classified = state.virtual, state.classified_heading
        decision = None
        # The maintain-heading bounds are a whole-track guarantee under
        # constant courses, so they are re-derived only when the own heading
        # has changed since last evaluated. Once MustSteer fires, the virtual
        # disc stays fixed at that meeting point (a virtual placed on an
        # already-turned heading ray would clear its own tangent cone
        # immediately) and is dropped only via bypass.
        if not state.virtual_done and virtual is None and pose.heading_deg != classified:
            classified = pose.heading_deg
            try:
                enc = make_encounter(pose, scenario.ship.steady_speed_mps,
                                     replace(mover, center=mover.position_at(t)),
                                     scenario.radius_m, mover.radius_m)
                if classify_encounter(enc).kind is EncounterClass.MUST_STEER:
                    try:
                        virtual = virtual_obstacle_radius(enc).as_obstacle()
                    except NoFeasibleRadius:  # no disc resolves it: turn hard to starboard
                        decision = HeadingDecision(MAX_HEADING_CHANGE_DEG, avoid_side=+1)
            except (ParallelCourses, NoForwardIntersection):
                pass  # diverging tracks: no crossing risk from here
        engagement, virtual_done = state.engagement, state.virtual_done
        if decision is None:
            tracked = (tracked_statics if virtual is None
                       else [*tracked_statics, ("virtual", virtual)])
            decision, engagement = decide_heading(pose, dest, tracked, engagement)
            if virtual is not None and "virtual" not in engagement.ids:
                # bypassed: stage 2 drives home without it
                virtual, virtual_done = None, True
        return (*pick_cell(decision, cells),
                _DynamicState(engagement, virtual, virtual_done, classified))

    result = execute_cells(scenario, step, _DynamicState(), statics)
    if result.executed_cells:
        relative = result.trajectory.xy - np.array(mover.position_at(result._times))
        result.relative_track = relative
    else:  # the start point alone, at time 0
        relative = (np.array([[scenario.start_x_m], [scenario.start_y_m]], dtype=np.float64)
                    - np.array(mover.position_at(np.zeros(1))))
    result.min_separation_m = _polyline_gap(relative, _ORIGIN)
    return result
