"""Benchmark worker: one workload in a fresh interpreter.

run.py starts this script once per measurement, so every measurement pays
its own `import cgtc` and set-up, as a user's process does. Modes:

  setup  time `import cgtc` plus the workload's set-up, then exit;
  timed  set up, then run jobs in a closed loop (one client, the next job
         starts when the previous one ends) until the jobs have taken
         --seconds; then, outside the timed region, repeat jobs to compare
         digests, check the cell rules and plan the quality pool;
  fixed  set up, then run the first --jobs jobs once each, with the span
         recorder installed when --trace is given.

The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

# jobs re-run after the timed loop when it repeated none
DIGEST_REPEATS = 2
# The machine's speed can swing by 2x in episodes of about a second, and a
# job can take longer than that, so the reference kernel runs from a timer
# signal every SAMPLE_EVERY_S during the work it scales (its own time is
# taken out of the work's). A job's speed is the mean of the samples taken
# from SAMPLE_WINDOW_S before it to SAMPLE_WINDOW_S after it, which gives
# jobs shorter than SAMPLE_EVERY_S several samples too.
SAMPLE_EVERY_S = 0.02
SAMPLE_STEPS = 400
SAMPLE_WINDOW_S = 0.1
# the cell sets of the first jobs are rule-checked along with those of the
# quality pool; traced runs check every set they build
RULE_JOBS = 6


@dataclass(frozen=True)
class _RefState:
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 7.7

    def __post_init__(self):
        object.__setattr__(self, "heading", self.heading % 360.0)


def reference_kernel(steps: int = SAMPLE_STEPS) -> float:
    """Time a fixed pure-Python kernel shaped like cgtc's hot path.

    It allocates frozen dataclass states with a __post_init__, does the
    trigonometry of an Euler step, keeps the states in a list and reads them
    back, as ship.step and transform_cell do. It shares no code with cgtc,
    so a change to the program cannot change its time; only the speed of
    the machine can. The garbage collector is off while it runs so that the
    size of the program's heap does not leak into its time.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = _RefState()
        states = []
        for _ in range(steps):
            h = math.radians(s.heading)
            s = _RefState(s.x + 0.5 * s.speed * math.sin(h), s.y + 0.5 * s.speed * math.cos(h),
                          s.heading + 0.1, s.speed)
            states.append(s)
        sum(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(states, states[1:]))
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


class SpeedSampler:
    """Times reference_kernel on a timer signal while it is entered."""

    def __init__(self):
        self.at: list[float] = []     # when each sample started
        self.took: list[float] = []   # how long each took
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        self.at.append(time.perf_counter())
        self.took.append(reference_kernel())
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.took:
            self._sample(None, None)

    def speed(self, start: float, end: float) -> float:
        """Mean sample time around [start, end]: the machine's speed then."""
        lo = bisect.bisect_left(self.at, start - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SAMPLE_WINDOW_S)
        return statistics.fmean(self.took[lo:hi] or self.took)


def import_cgtc():
    sys.path.insert(0, str(SRC))
    import cgtc
    import cgtc.cli

    if Path(cgtc.__file__).resolve().parent != (SRC / "cgtc").resolve():
        raise RuntimeError(f"imported cgtc from {cgtc.__file__}, not from {SRC}")
    return cgtc


class Outcome:
    """What one job did, as the benchmark sees it from outside."""

    def __init__(self, code: str, digest: str, bare: bool = False, artifact_bytes: int = 0,
                 ratios=None):
        self.code = code            # "exit0", "exit1", "exit2" or an exception class
        self.digest = digest
        self.bare = bare            # a Python exception, not a CGTCError
        self.artifact_bytes = artifact_bytes
        self.ratios = ratios        # (length, steering) of a compare job, else None

    @property
    def failed(self) -> bool:
        return self.code != "exit0"

    @property
    def raised(self) -> bool:
        return not self.code.startswith("exit")


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def cell_key(scn):
    """The arguments a planner builds its cell set from."""
    return (scn.ship, scn.radius_m, scn.cell_resolution_deg, scn.dt_s)


class Workload:
    """A stream of timed jobs plus a quality pool planned after the loop.

    Subclasses set `family` (the gen function giving scene i of the
    workload) and `quality_scenes` (how many of them the pool holds).
    """

    quality_scenes = 0
    baseline_scenes = 0   # run the grid baseline too on this many pool scenes

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.out = work / "out"

    def setup(self, cgtc) -> None:
        self.cgtc = cgtc

    def pool_size(self):
        return len(self.paths)

    def prepare(self, i: int) -> None:
        pass

    def finish(self, i: int) -> None:
        pass

    def quality_pool(self) -> list:
        from_dict = self.cgtc.scenario.scenario_from_dict
        return [from_dict(self.family(self.seed, i)) for i in range(self.quality_scenes)]

    def prebuilt(self) -> dict:
        return {}


class CliWorkload(Workload):
    """Jobs are `cgtc plan` (or `cgtc compare`) runs through cgtc.cli.main."""

    command = "plan"

    def path(self, i: int) -> Path:
        return self.paths[i % len(self.paths)]

    def key(self, i: int):
        data = json.loads(self.path(i).read_text())
        return cell_key(self.cgtc.scenario.scenario_from_dict(data))

    def out_dir(self, i: int) -> Path:
        return self.out / f"j{i % len(self.paths):04d}"

    def run(self, i: int):
        """The timed part of a job: one in-process CLI call."""
        argv = [self.command, str(self.path(i)), "--out-dir", str(self.out_dir(i))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return self.cgtc.cli.main(argv), None, out.getvalue(), err.getvalue()
            except Exception as exc:  # a bare exception escaping the CLI is a finding
                return None, exc, out.getvalue(), err.getvalue()

    def outcome(self, i: int, raw) -> Outcome:
        code, exc, stdout, stderr = raw
        if exc is not None:
            return Outcome(type(exc).__name__, _sha(type(exc).__name__, exc), bare=True)
        out_dir = self.out_dir(i)
        blobs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*")) if p.is_file()}
        size = sum(len(b) for b in blobs.values())
        digest = _sha(code, stdout, stderr, *[x for blob in blobs.items() for x in blob])
        if stderr.startswith("planning error: "):
            cls = stderr[len("planning error: "):].split(":", 1)[0]
            return Outcome(cls, digest, artifact_bytes=size)
        ratios = None
        if "comparison.json" in blobs:
            report = json.loads(blobs["comparison.json"])
            ratios = (report["length_ratio"], report["steering_ratio"])
        return Outcome(f"exit{code}", digest, artifact_bytes=size, ratios=ratios)


class BatchShared(CliWorkload):
    family = staticmethod(gen.batch_scene)
    quality_scenes = 300

    def generate(self) -> None:
        self.paths = gen.batch_shared(self.seed, self.inputs, ROOT / "scenarios")


class CellsCold(CliWorkload):
    """An unbounded stream of scenes, each with a hull of its own."""

    family = staticmethod(gen.cold_scene)
    quality_scenes = 18

    def generate(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)

    def pool_size(self):
        return None

    def path(self, i: int) -> Path:
        path = self.inputs / f"cold{i:05d}.json"
        if not path.exists():
            gen.write(path, gen.cold_scene(self.seed, i))
        return path

    def prepare(self, i: int) -> None:
        self.path(i)

    def out_dir(self, i: int) -> Path:
        return self.out / f"j{i:05d}"

    def finish(self, i: int) -> None:
        shutil.rmtree(self.out_dir(i), ignore_errors=True)


class CompareCluttered(CliWorkload):
    command = "compare"
    family = staticmethod(gen.compare_scene)
    # the circle planner alone takes ~25 ms a scene here, the grid baseline
    # ~100 ms, so the pool is large and only its head gets the baseline
    quality_scenes = 500
    baseline_scenes = 60

    def generate(self) -> None:
        self.paths = gen.write_pool(gen.compare_scene, self.seed, gen.COMPARE_POOL,
                                    self.inputs, "c")


class ReplanWarm(Workload):
    """Library replanning over one CellSet built during set-up."""

    family = staticmethod(gen.replan_scene)
    quality_scenes = gen.REPLAN_POOL

    def generate(self) -> None:
        self.paths = gen.write_pool(gen.replan_scene, self.seed, gen.REPLAN_POOL,
                                    self.inputs, "r")

    def setup(self, cgtc) -> None:
        from cgtc.errors import CGTCError

        self.cgtc = cgtc
        self.CGTCError = CGTCError
        self.scenarios = [cgtc.scenario.load_scenario(p) for p in self.paths]
        self.cells = cgtc.cells.build_cell_set(cgtc.ship.ShipParams(), gen.DEFAULT_RADIUS_M,
                                               gen.DEFAULT_RESOLUTION_DEG)

    def key(self, i: int):
        return cell_key(self.scenarios[i % len(self.scenarios)])

    def prebuilt(self) -> dict:
        return {self.key(0): self.cells}

    def run(self, i: int):
        scn = self.scenarios[i % len(self.scenarios)]
        try:
            if scn.mode == "dynamic":
                return self.cgtc.dynamic_planner.plan_dynamic(scn, self.cells), None
            return self.cgtc.static_planner.plan_static(scn, self.cells), None
        except Exception as exc:
            return None, exc

    def outcome(self, i: int, raw) -> Outcome:
        r, exc = raw
        if exc is not None:
            bare = not isinstance(exc, self.CGTCError)
            return Outcome(type(exc).__name__, _sha(type(exc).__name__, exc), bare=bare)
        scn = self.scenarios[i % len(self.scenarios)]
        ok = r.reached and self.cgtc.harness.scenario_is_safe(scn, r)
        states = array("d", [v for s in r.trajectory
                             for v in (s.x_m, s.y_m, s.heading_deg, s.u_mps, s.v_mps,
                                       s.yaw_rate_degps, s.rudder_deg)])
        digest = _sha(r.reached, r.path_length_m, r.steering_count, r.min_clearance_m,
                      r.min_separation_m, r.rudder_commands, r.heading_changes_deg,
                      array("d", r.sample_times_s).tobytes(),
                      array("d", r.separation_m).tobytes(), states.tobytes())
        return Outcome("exit0" if ok else "exit1", digest)


WORKLOADS = {
    "batch_shared": BatchShared,
    "cells_cold": CellsCold,
    "replan_warm": ReplanWarm,
    "compare_cluttered": CompareCluttered,
}


class Runner:
    """Runs jobs, keeping per-job latency, outcome and digest."""

    def __init__(self, workload, recorder=None):
        self.w = workload
        self.rec = recorder
        self.sampler = None   # a SpeedSampler during timed runs
        self.latencies: list[float] = []   # less the sampler's time
        self.windows: list[tuple[float, float]] = []
        self.codes: list[str] = []
        self.crashes = 0      # timed jobs that raised a bare Python exception
        self.outcomes: dict[int, Outcome] = {}   # first outcome per pool index
        self.repeats = 0
        self.mismatches: list[int] = []
        self.keys: list = []
        self.artifact_bytes = 0

    def pool_index(self, i: int) -> int:
        size = self.w.pool_size()
        return i if size is None else i % size

    def job(self, i: int, timed: bool = True) -> None:
        self.w.prepare(i)
        if self.rec is not None:
            self.rec.current_job = i
            t0 = time.perf_counter()
            raw = self.rec.span("bench.job", "bench", self.w.run, (i,))
            dt = time.perf_counter() - t0
        else:
            n0 = len(self.sampler.took) if self.sampler else 0
            t0 = time.perf_counter()
            raw = self.w.run(i)
            t1 = time.perf_counter()
            dt = t1 - t0 - (sum(self.sampler.took[n0:]) if self.sampler else 0.0)
        out = self.w.outcome(i, raw)
        self.w.finish(i)
        self.artifact_bytes += out.artifact_bytes
        if timed:
            self.latencies.append(dt)
            if self.rec is None:
                self.windows.append((t0, t1))
            self.codes.append(out.code)
            self.crashes += out.bare
            self.keys.append(self.w.key(i))
        p = self.pool_index(i)
        if p in self.outcomes:
            self.repeats += 1
            if self.outcomes[p].digest != out.digest:
                self.mismatches.append(p)
        else:
            self.outcomes[p] = out

    def timed_loop(self, seconds: float) -> None:
        """Run jobs until they have taken `seconds`."""
        i = 0
        while sum(self.latencies) < seconds or not self.latencies:
            self.job(i)
            i += 1

    def ensure_repeats(self) -> None:
        if self.repeats == 0:
            for i in range(DIGEST_REPEATS):
                self.job(i, timed=False)

    def key_repeat_share(self) -> float:
        seen, repeats = set(), 0
        for k in self.keys:
            repeats += k in seen
            seen.add(k)
        return repeats / len(self.keys)

    def outcome_summary(self) -> dict:
        jobs = list(self.outcomes.values())
        return {
            "failed_frac": sum(o.failed for o in jobs) / len(jobs),
            "error_frac": sum(o.raised for o in jobs) / len(jobs),
            "outcomes": _count(o.code for o in jobs),
            "bare_exceptions": _count(o.code for o in jobs if o.bare),
        }


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _count(items) -> dict:
    return dict(sorted(Counter(items).items()))


def build_sets(cgtc, keys, sets: dict) -> dict:
    """Add a cell set for every distinct key that `sets` lacks."""
    for key in dict.fromkeys(keys):
        if key not in sets:
            params, radius, resolution, dt = key
            sets[key] = cgtc.cells.build_cell_set(params, radius, resolution, dt=dt)
    return sets


def check_rules(cgtc, sets: dict) -> list[str]:
    """validate_rules on every cell of every distinct cell set."""
    bad = []
    for (params, radius, resolution, dt), cells in sets.items():
        for cell in cells.cells:
            if not cgtc.cells.validate_rules(cell, params).all_ok:
                bad.append(f"radius {radius} resolution {resolution}: "
                           f"cell {cell.heading_change_deg:+.1f} deg")
    return bad


def plan_quality(cgtc, scenarios, sets: dict, baseline_scenes: int) -> dict:
    """Plan-quality figures of the quality pool, planned on prebuilt cell sets.

    The ok share counts the scenes the circle planner plans to the
    destination without entering a disc or a mover's domain (what `cgtc
    plan` exits 0 on); the rest either raised a CGTCError, stopped short or
    were unsafe.

    Path excess is path length over the shortest reaching path (straight to
    the destination's reach circle), minus 1. Ratios are circle over grid,
    filled when both reached, as compare_planners fills them, over the
    first `baseline_scenes` scenes.
    """
    from cgtc.errors import CGTCError

    excess, steerings, length_ratios, steering_ratios = [], [], [], []
    ok = 0
    for k, scn in enumerate(scenarios):
        cells = sets[cell_key(scn)]
        plan = (cgtc.dynamic_planner.plan_dynamic if scn.mode == "dynamic"
                else cgtc.static_planner.plan_static)
        try:
            r = plan(scn, cells)
        except CGTCError:
            continue
        if not r.reached:
            continue
        ok += cgtc.harness.scenario_is_safe(scn, r)
        shortest = math.dist((scn.start_x_m, scn.start_y_m),
                             (scn.dest_x_m, scn.dest_y_m)) - scn.reach_tolerance_m
        excess.append(r.path_length_m / shortest - 1.0)
        steerings.append(r.steering_count)
        if k < baseline_scenes:
            try:
                g = cgtc.baseline.grid_baseline_plan(scn, cells)
            except CGTCError:
                continue
            if g.reached:
                length_ratios.append(r.path_length_m / g.path_length_m)
                if g.steering_count > 0:
                    steering_ratios.append(r.steering_count / g.steering_count)
    return {
        "scenes": len(scenarios),
        "reached": len(excess),
        "plans_ok_frac": ok / len(scenarios),
        "path_excess_mean": _mean(excess),
        "steerings_mean": _mean(steerings),
        "length_ratio_mean": _mean(length_ratios),
        "steering_ratio_mean": _mean(steering_ratios),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "timed", "fixed"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=Path, default=None, help="write spans here")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work)
    workload.generate()

    sampler = None if args.mode == "fixed" else SpeedSampler()
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        cgtc = import_cgtc()
        recorder = None
        if args.trace is not None:
            import spans

            recorder = spans.Recorder()
            recorder.install(cgtc)
        workload.setup(cgtc)
        t1 = time.perf_counter()
    result = {"setup_s": t1 - t0}
    if sampler is not None:
        result["setup_s"] -= sum(sampler.took)
        result["setup_ref_s"] = sampler.speed(t0, t1)
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0

    runner = Runner(workload, recorder)
    if args.mode == "timed":
        runner.sampler = SpeedSampler()
        with runner.sampler:
            runner.timed_loop(args.seconds)
        result["ref_s"] = runner.sampler.took
        result["job_ref_s"] = [runner.sampler.speed(a, b) for a, b in runner.windows]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.ensure_repeats()
        scenarios = workload.quality_pool()
        keys = runner.keys[:RULE_JOBS] + [cell_key(s) for s in scenarios]
        sets = build_sets(cgtc, keys, workload.prebuilt())
        result["quality"] = plan_quality(cgtc, scenarios, sets, workload.baseline_scenes)
    else:
        for i in range(args.jobs):
            runner.job(i)
        result["digests"] = [runner.outcomes[runner.pool_index(i)].digest
                             for i in range(args.jobs)]
        sets = {}   # the traced run of the same jobs checks them

    if recorder is not None:
        recorder.uninstall()
        # recorder keys are build_cell_set's arguments, max heading change included
        sets = {key[:3] + key[4:]: cells for key, cells in recorder.cell_sets.items()}
    result.update({
        "latencies_s": runner.latencies,
        "codes": runner.codes,
        "crashes": runner.crashes,
        "outcomes": runner.outcome_summary(),
        "key_repeat_share": runner.key_repeat_share(),
        "digest_repeats": runner.repeats,
        "digest_mismatches": runner.mismatches,
        "rule_sets": len(sets),
        "rule_failures": check_rules(cgtc, sets),
    })
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, runner)
        result["trace_missing"] = recorder.missing
        recorder.write(args.trace)
    args.result.write_text(json.dumps(result))
    return 0


def layer_metrics(rec, runner) -> dict:
    """Per-layer metrics from the recorded spans, by the benchmark's names."""
    summary = rec.summary()

    def agg(name, field, site=None):
        return sum(v[field] for (n, s), v in summary.items()
                   if n == name and (site is None or s == site))

    rollouts = agg("cells._roll_until_crossing", "calls")
    generated = agg("cells.generate_cell", "calls")
    keys = rec.build_keys
    outcomes = runner.outcome_summary()
    ratios = [o.ratios for o in runner.outcomes.values() if o.ratios]
    return {
        "ship.step.calls": agg("ship.step", "calls"),
        "ship.step.self_ms": agg("ship.step", "self_ms"),
        "cells.rollouts": rollouts,
        "cells.rollout.self_ms": agg("cells._roll_until_crossing", "self_ms"),
        "cells.rollouts_per_cell": rollouts / generated if generated else 0.0,
        "cells.generate_cell.calls": agg("cells.generate_cell", "calls", "cells"),
        "cells.build_cell_set.calls": agg("cells.build_cell_set", "calls"),
        "cells.build_cell_set.ms": agg("cells.build_cell_set", "ms"),
        "cells.builds_per_key": len(keys) / len(set(keys)) if keys else 0.0,
        "cells.transform_cell.calls": agg("cells.transform_cell", "calls"),
        "cells.transform_cell.self_ms": agg("cells.transform_cell", "self_ms"),
        "relation.invert_relation.calls": agg("relation.invert_relation", "calls"),
        "relation.invert_relation.self_ms": agg("relation.invert_relation", "self_ms"),
        "relation.fit_poly.calls": agg("relation.fit_poly", "calls"),
        "static_planner.plan_static.self_ms": agg("static_planner.plan_static", "self_ms"),
        "static_planner.decide_heading.calls": agg("static_planner.decide_heading", "calls"),
        "static_planner.decide_heading.self_ms": agg("static_planner.decide_heading", "self_ms"),
        "static_planner.clearance.calls": agg("static_planner.clearance", "calls"),
        "static_planner.clearance.self_ms": agg("static_planner.clearance", "self_ms"),
        "static_planner.position_at.calls": agg("static_planner.position_at", "calls"),
        "dynamic_planner.plan_dynamic.self_ms": agg("dynamic_planner.plan_dynamic", "self_ms"),
        "dynamic_planner.classify_encounter.calls":
            agg("dynamic_planner.classify_encounter", "calls"),
        "dynamic_planner.virtual_obstacle_radius.calls":
            agg("dynamic_planner.virtual_obstacle_radius", "calls"),
        "dynamic_planner.virtual_obstacle_radius.self_ms":
            agg("dynamic_planner.virtual_obstacle_radius", "self_ms"),
        "dynamic_planner.separation_at_critical.calls":
            agg("dynamic_planner.separation_at_critical", "calls"),
        "baseline.astar_grid_path.calls": agg("baseline.astar_grid_path", "calls"),
        "baseline.astar_grid_path.self_ms": agg("baseline.astar_grid_path", "self_ms"),
        "baseline.grid_baseline_plan.self_ms": agg("baseline.grid_baseline_plan", "self_ms"),
        "baseline.generate_cell.calls": agg("cells.generate_cell", "calls", "baseline"),
        "scenario.load_scenario.self_ms": agg("scenario.load_scenario", "self_ms"),
        "harness.run_scenario.self_ms": agg("harness.run_scenario", "self_ms"),
        "harness.artifact_bytes": runner.artifact_bytes,
        "harness.compare_planners.self_ms": agg("harness.compare_planners", "self_ms"),
        "cli.main.self_ms": agg("cli.main", "self_ms"),
        "jobs.failed_frac": outcomes["failed_frac"],
        "jobs.error_frac": outcomes["error_frac"],
        "compare.length_ratio_mean": _mean([r[0] for r in ratios if r[0] is not None]),
        "compare.steering_ratio_mean": _mean([r[1] for r in ratios if r[1] is not None]),
    }


if __name__ == "__main__":
    sys.exit(main())
