"""Circle-grid trajectory-cell motion planning for unmanned surface vehicles."""

from .cells import (
    CellSet,
    RuleReport,
    TrajectoryCell,
    build_cell_set,
    cell_library,
    generate_cell,
    transform_cell,
    validate_rules,
)
from .grid import (
    GridNode,
    compass_bearing,
    polar_to_world,
    ship_domain_radius,
)
from .baseline import grid_baseline_plan
from .dynamic_planner import (
    Classification,
    Encounter,
    EncounterClass,
    VirtualObstacle,
    classify_encounter,
    heading_intersection,
    make_encounter,
    min_separation,
    plan_dynamic,
    virtual_obstacle_radius,
)
from .harness import compare_planners, run_batch, run_scenario
from .relation import CubicRelation, RelationSample, fit_poly, invert_relation, pearson
from .scenario import Scenario, load_scenario
from .ship import (
    ShipParams,
    ShipState,
    online_generate,
    simulate_turn,
    step,
    trimmed_state,
)
from .static_planner import (
    HeadingDecision,
    Obstacle,
    PlanResult,
    plan_static,
)

__version__ = "0.1.0"

__all__ = [
    "CellSet",
    "Classification",
    "CubicRelation",
    "Encounter",
    "EncounterClass",
    "GridNode",
    "HeadingDecision",
    "Obstacle",
    "PlanResult",
    "RelationSample",
    "RuleReport",
    "Scenario",
    "ShipParams",
    "ShipState",
    "TrajectoryCell",
    "VirtualObstacle",
    "build_cell_set",
    "cell_library",
    "classify_encounter",
    "compare_planners",
    "compass_bearing",
    "fit_poly",
    "generate_cell",
    "grid_baseline_plan",
    "heading_intersection",
    "invert_relation",
    "load_scenario",
    "make_encounter",
    "min_separation",
    "online_generate",
    "pearson",
    "plan_dynamic",
    "plan_static",
    "polar_to_world",
    "run_batch",
    "run_scenario",
    "ship_domain_radius",
    "simulate_turn",
    "step",
    "transform_cell",
    "trimmed_state",
    "validate_rules",
    "virtual_obstacle_radius",
]
