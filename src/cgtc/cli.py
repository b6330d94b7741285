"""Command line interface.

Subcommands:
  gen-cells     write a cell set as per-cell CSVs plus an index file
  fit-relation  fit the cubic rudder/heading relation to a two-column CSV
  plan          run one scenario file, write artifacts
  compare       circle planner vs grid baseline on one scenario
  batch         run every scenario in a directory
  turn-test     port/starboard turning circles of the default hull

Exit codes: 0 success, 1 planning failure (not reached or unsafe),
2 input error (including an unusable input or output path).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .cells import (DEFAULT_DT_S, DEFAULT_RESOLUTION_DEG, build_cell_set, check_dt,
                    check_radius, check_resolution)
from .errors import CGTCError, ScenarioError
from .harness import compare_planners, run_batch, run_scenario, scenario_is_safe
from .relation import RelationSample, fit_poly, pearson
from .scenario import load_scenario
from .ship import ShipParams, fitted_turn_radius, simulate_turn


def _cmd_gen_cells(args) -> int:
    params = ShipParams()
    radius = 6.0 * params.length_m if args.radius is None else args.radius
    try:
        check_resolution(args.resolution)
        check_radius(params, radius)
        check_dt(params, args.dt)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    cells = build_cell_set(params, radius, args.resolution, dt=args.dt)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = ["heading_change_deg,delta0_deg,duration_s,arc_length_m"]
    for cell in cells.cells:
        tag = f"{cell.heading_change_deg:+07.2f}".replace("+", "p").replace("-", "m")
        lines = ["t_s,x_m,y_m,heading_deg,u_mps,v_mps,rudder_deg"]
        for t, s in zip(cell.sample_times_s, cell.samples):
            lines.append(f"{t:.4f},{s.x_m:.4f},{s.y_m:.4f},{s.heading_deg:.4f},"
                         f"{s.u_mps:.4f},{s.v_mps:.4f},{s.rudder_deg:.4f}")
        (out / f"cell_{tag}.csv").write_text("\n".join(lines) + "\n")
        index.append(f"{cell.heading_change_deg:.4f},{cell.delta0_deg:.4f},"
                     f"{cell.duration_s:.4f},{cell.arc_length_m:.4f}")
    (out / "index.csv").write_text("\n".join(index) + "\n")
    print(f"wrote {len(cells.cells)} cells to {out}")
    return 0


def _read_relation_csv(path: str) -> list[RelationSample]:
    """Rows of a two-column rudder/heading CSV; ValueError says what is wrong."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    rows = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected two columns")
        try:
            rudder, heading = float(parts[0]), float(parts[1])
        except ValueError:
            if ln == 1:
                continue  # header row
            raise ValueError(f"{path}:{ln}: not numeric") from None
        if not (math.isfinite(rudder) and math.isfinite(heading)):
            raise ValueError(f"{path}:{ln}: not a finite number")
        rows.append(RelationSample(rudder, heading))
    return rows


def _cmd_fit_relation(args) -> int:
    try:
        rows = _read_relation_csv(args.csv)
        r = pearson([s.rudder_deg for s in rows], [s.heading_change_deg for s in rows])
        rel, resid = fit_poly(rows, 3)
        by_degree = {deg: fit_poly(rows, deg)[1] for deg in range(1, 6)}
    except (ValueError, CGTCError) as exc:
        # the fit fails only on its input: too few rows, a constant column
        # or a non-monotone cubic
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    report = {
        "samples": len(rows),
        "pearson_r": r,
        "cubic": {"a": rel.a, "b": rel.b, "c": rel.c, "d": rel.d},
        "domain_deg": [rel.domain_lo_deg, rel.domain_hi_deg],
        "residual_stddev_deg": resid,
        "residual_stddev_by_degree": by_degree,
    }
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "relation.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"r={r:.4f} residual={resid:.4f} deg  ->  {out / 'relation.json'}")
    return 0


def _cmd_plan(args) -> int:
    scenario, result = run_scenario(args.scenario, args.out_dir)
    ok = result.reached and scenario_is_safe(scenario, result)
    print(f"{scenario.name}: reached={result.reached} "
          f"safe={scenario_is_safe(scenario, result)} "
          f"length={result.path_length_m:.0f} m steerings={result.steering_count}")
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    report = compare_planners(scenario)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "circle": asdict(report.circle) if report.circle else report.circle_error,
        "grid": asdict(report.grid) if report.grid else report.grid_error,
        "length_ratio": report.length_ratio,
        "steering_ratio": report.steering_ratio,
    }
    (out / "comparison.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    both_ok = (report.circle is not None and report.circle.reached
               and report.grid is not None and report.grid.reached)
    return 0 if both_ok else 1


def _cmd_batch(args) -> int:
    summary = run_batch(args.scenario_dir, args.out_dir)
    bad = [name for name, row in summary.items()
           if not (row["reached"] and row["safe"])]
    for name, row in summary.items():
        print(f"{name}: reached={row['reached']} safe={row['safe']} "
              f"length={row['path_length_m']:.0f} steerings={row['steering_count']}")
    return 0 if not bad else 1


def _cmd_turn_test(args) -> int:
    params = ShipParams()
    runs = {}
    try:
        check_dt(params, args.dt)
        for name, rudder in (("starboard", params.rudder_limit_stbd_deg),
                             ("port", params.rudder_limit_port_deg)):
            states = simulate_turn(params, rudder, args.duration, args.dt)
            runs[name] = (rudder, states, fitted_turn_radius(states))
    except (ValueError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {}
    for name, (rudder, states, radius) in runs.items():
        lines = ["t_s,x_m,y_m,heading_deg,u_mps,v_mps,yaw_rate_degps,rudder_deg"]
        for i, s in enumerate(states):
            lines.append(f"{i * args.dt:.3f},{s.x_m:.4f},{s.y_m:.4f},{s.heading_deg:.4f},"
                         f"{s.u_mps:.4f},{s.v_mps:.4f},{s.yaw_rate_degps:.4f},{s.rudder_deg:.4f}")
        (out / f"turn_{name}.csv").write_text("\n".join(lines) + "\n")
        report[name] = {"rudder_deg": rudder, "fitted_radius_m": radius}
    (out / "turn_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cgtc",
                                     description="Circle-grid trajectory-cell planning")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-cells", help="generate a trajectory cell set")
    g.add_argument("--radius", type=float, default=None,
                   help="circle radius in meters (default: 6 ship lengths)")
    g.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION_DEG)
    g.add_argument("--dt", type=float, default=DEFAULT_DT_S)
    g.add_argument("--out-dir", default="out/cells")
    g.set_defaults(func=_cmd_gen_cells)

    f = sub.add_parser("fit-relation", help="fit the rudder/heading relation to a CSV")
    f.add_argument("csv", help="two columns: rudder_deg, heading_deg")
    f.add_argument("--out-dir", default="out/relation")
    f.set_defaults(func=_cmd_fit_relation)

    pl = sub.add_parser("plan", help="run one scenario file")
    pl.add_argument("scenario")
    pl.add_argument("--out-dir", default="out/plan")
    pl.set_defaults(func=_cmd_plan)

    cp = sub.add_parser("compare", help="circle planner vs grid baseline")
    cp.add_argument("scenario")
    cp.add_argument("--out-dir", default="out/compare")
    cp.set_defaults(func=_cmd_compare)

    b = sub.add_parser("batch", help="run a directory of scenarios")
    b.add_argument("scenario_dir")
    b.add_argument("--out-dir", default="out/batch")
    b.set_defaults(func=_cmd_batch)

    t = sub.add_parser("turn-test", help="emit port/starboard turning circles")
    t.add_argument("--duration", type=float, default=800.0)
    t.add_argument("--dt", type=float, default=DEFAULT_DT_S)
    t.add_argument("--out-dir", default="out/turn")
    t.set_defaults(func=_cmd_turn_test)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CGTCError as exc:
        print(f"planning error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
