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
import functools
import json
import sys
from pathlib import Path

from .cells import (DEFAULT_DT_S, DEFAULT_RESOLUTION_DEG, build_cell_set,
                    check_radius, check_resolution, check_rollout_dt)
from .errors import CGTCError, ScenarioError
from .harness import (TRAJECTORY_COLUMNS, _plan_summary, artifacts, compare_planners,
                      run_batch, run_scenario, write_csv)
from .relation import RelationSample, fit_poly, pearson
from .scenario import MAX_MAGNITUDE, load_scenario
from .ship import ShipParams, check_dt, fitted_turn_radius, simulate_turn

CELL_COLUMNS = ("t_s", "x_m", "y_m", "heading_deg", "u_mps", "v_mps", "rudder_deg")
CELL_ROW = ",".join(["%.4f"] * len(CELL_COLUMNS))
INDEX_COLUMNS = ("heading_change_deg", "delta0_deg", "duration_s", "arc_length_m")
INDEX_ROW = ",".join(["%.4f"] * len(INDEX_COLUMNS))
TURN_ROW = "%.3f" + ",%.4f" * (len(TRAJECTORY_COLUMNS) - 1)


def _cmd_gen_cells(args) -> int:
    params = ShipParams()
    radius = 6.0 * params.length_m if args.radius is None else args.radius
    out = Path(args.out_dir)
    # each cell file is named by its achieved change, so they are owned by pattern
    with artifacts(out, ("index.csv", "cell_*.csv")) as put:
        try:
            check_resolution(args.resolution)
            check_radius(params, radius)
            check_rollout_dt(params, radius, args.dt)
        except ValueError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        out.mkdir(parents=True, exist_ok=True)
        cells = build_cell_set(params, radius, args.resolution, dt=args.dt)
        for cell in cells.cells:
            tag = f"{cell.heading_change_deg:+07.2f}".replace("+", "p").replace("-", "m")
            x, y, heading, u, v, _, rudder = cell.samples.columns.tolist()
            write_csv(put(f"cell_{tag}.csv"), CELL_COLUMNS, CELL_ROW,
                      zip(cell.sample_times_s, x, y, heading, u, v, rudder))
        write_csv(put("index.csv"), INDEX_COLUMNS, INDEX_ROW,
                  ((c.heading_change_deg, c.delta0_deg, c.duration_s, c.arc_length_m)
                   for c in cells.cells))
    print(f"wrote {len(cells.cells)} cells to {out}")
    return 0


def _read_relation_csv(path: str) -> list[RelationSample]:
    """Rows of a two-column rudder/heading CSV; ValueError says what is wrong."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    rows = []
    lines = [(ln, line.strip()) for ln, line in enumerate(text.splitlines(), 1)]
    lines = [(ln, line) for ln, line in lines if line and not line.startswith("#")]
    for k, (ln, line) in enumerate(lines):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected two columns")
        try:
            rudder, heading = float(parts[0]), float(parts[1])
        except ValueError:
            if k == 0:
                continue  # header row: the first line neither blank nor a comment
            raise ValueError(f"{path}:{ln}: not numeric") from None
        # one test for NaN, ±inf and a value whose powers would overflow the fit
        if not (abs(rudder) <= MAX_MAGNITUDE and abs(heading) <= MAX_MAGNITUDE):
            raise ValueError(f"{path}:{ln}: expected finite numbers of magnitude at most "
                             f"{MAX_MAGNITUDE:g}")
        rows.append(RelationSample(rudder, heading))
    return rows


def _cmd_fit_relation(args) -> int:
    out = Path(args.out_dir)
    with artifacts(out, ("relation.json",)) as put:
        try:
            rows = _read_relation_csv(args.csv)
            r = pearson([s.rudder_deg for s in rows], [s.heading_change_deg for s in rows])
            rel, resid = fit_poly(rows, 3)
            by_degree = {d: fit_poly(rows, d)[1] for d in range(1, min(5, len(rows) - 1) + 1)}
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
        out.mkdir(parents=True, exist_ok=True)
        put("relation.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"r={r:.4f} residual={resid:.4f} deg  ->  {out / 'relation.json'}")
    return 0


def _passed(summary) -> bool:
    """The per-plan verdict of plan, compare and batch exit codes: a plan
    summary (not an error string) that reached the destination safely."""
    return isinstance(summary, dict) and summary["reached"] and summary["safe"]


def _cmd_plan(args) -> int:
    scenario, result = run_scenario(args.scenario, args.out_dir)
    plan = _plan_summary(scenario, result)
    print(f"{scenario.name}: reached={plan['reached']} safe={plan['safe']} "
          f"length={plan['path_length_m']:.0f} m steerings={plan['steering_count']}")
    return 0 if _passed(plan) else 1


def _cmd_compare(args) -> int:
    out = Path(args.out_dir)
    with artifacts(out, ("comparison.json",)) as put:
        scenario = load_scenario(args.scenario)
        out.mkdir(parents=True, exist_ok=True)
        report = compare_planners(scenario)
        text = json.dumps(report, indent=2, sort_keys=True)
        put("comparison.json").write_text(text + "\n")
    print(text)
    return 0 if _passed(report["circle"]) and _passed(report["grid"]) else 1


def _cmd_batch(args) -> int:
    summary = run_batch(args.scenario_dir, args.out_dir)
    for name, row in summary.items():
        if "error" in row:
            print(f"{name}: planning error: {row['error']}")
        else:
            print(f"{name}: reached={row['reached']} safe={row['safe']} "
                  f"length={row['path_length_m']:.0f} steerings={row['steering_count']}")
    return 0 if all(map(_passed, summary.values())) else 1


def _cmd_turn_test(args) -> int:
    params = ShipParams()
    runs = {}
    out = Path(args.out_dir)
    with artifacts(out, ("turn_starboard.csv", "turn_port.csv", "turn_report.json")) as put:
        try:
            check_dt(params, args.dt)
            for name, rudder in (("starboard", params.rudder_limit_stbd_deg),
                                 ("port", params.rudder_limit_port_deg)):
                states = simulate_turn(params, rudder, args.duration, args.dt)
                runs[name] = (rudder, states, fitted_turn_radius(states))
        except ValueError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        out.mkdir(parents=True, exist_ok=True)
        report = {}
        for name, (rudder, states, radius) in runs.items():
            write_csv(put(f"turn_{name}.csv"), TRAJECTORY_COLUMNS, TURN_ROW,
                      ((i * args.dt, s.x_m, s.y_m, s.heading_deg, s.u_mps, s.v_mps,
                        s.yaw_rate_degps, s.rudder_deg) for i, s in enumerate(states)))
            report[name] = {"rudder_deg": rudder, "fitted_radius_m": radius}
        put("turn_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call to main."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
