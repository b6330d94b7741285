"""Seeded scenario generator for the benchmark workloads.

Every scenario is a plain cgtc scenario file. Inputs depend only on the
seed, the workload and the job index, so the same seed always gives the
same files. Scenes are filtered on input geometry alone: the start and the
destination lie at least one circle radius clear of every disc. Planner
outcomes are never looked at.

Scenes are drawn in a local frame (start at the origin heading north) and
then rotated as a whole by a random bearing.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

DEFAULT_RADIUS_M = 600.0
DEFAULT_RESOLUTION_DEG = 5.0

# batch_shared directory: generated scene kinds in a fixed mix (7 free,
# 10 static, 8 dynamic), interleaved so that any prefix of the sorted
# directory holds every kind, plus the shipped scenarios/ files
_KIND_COUNTS = {"free": 7, "static": 10, "dynamic": 8}
BATCH_MIX = tuple(kind for _, kind in sorted(
    ((j + 0.5) / n, kind) for kind, n in _KIND_COUNTS.items() for j in range(n)))
REPLAN_POOL = 200
COMPARE_POOL = 10
# speed of a crossing mover by encounter class; the classes cycle so that
# every run spans all three (slow: own ship first, fast: mover first,
# mid: steer)
MOVER_SPEEDS_MPS = ((1.0, 2.5), (15.0, 20.0), (4.0, 6.0))


def rng_for(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _rotate(p, theta_deg):
    t = math.radians(theta_deg)
    return (p[0] * math.cos(t) + p[1] * math.sin(t),
            -p[0] * math.sin(t) + p[1] * math.cos(t))


def _clear(p, disc, radius_m):
    return math.dist(p, disc[:2]) - disc[2] >= radius_m


def _scene(mode, dest_local, discs_local, theta_deg, radius_m, resolution_deg,
           ship=None, mover=None, max_steps=64):
    """Rotate a local-frame scene by theta and return it as a scenario dict."""
    dest = _rotate(dest_local, theta_deg)
    obstacles = [{"x_m": round(x, 3), "y_m": round(y, 3), "radius_m": round(r, 3)}
                 for x, y, r in ((*_rotate(d[:2], theta_deg), d[2]) for d in discs_local)]
    if mover is not None:
        (mx, my), mr, speed, course = mover
        mx, my = _rotate((mx, my), theta_deg)
        obstacles.append({"x_m": round(mx, 3), "y_m": round(my, 3), "radius_m": round(mr, 3),
                          "speed_mps": round(speed, 3),
                          "course_deg": round((course + theta_deg) % 360.0, 3)})
    scn = {
        "mode": mode,
        "start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": round(theta_deg % 360.0, 3)},
        "destination": {"x_m": round(dest[0], 3), "y_m": round(dest[1], 3)},
        "circle_radius_m": round(radius_m, 3),
        "sim": {"max_steps": max_steps, "cell_resolution_deg": resolution_deg},
    }
    if ship:
        scn["ship"] = {k: round(v, 4) for k, v in ship.items()}
    if obstacles:
        scn["obstacles"] = obstacles
    return scn


def free_scene(rng):
    dist = rng.uniform(2500.0, 7000.0)
    bearing = math.radians(rng.uniform(-150.0, 150.0))
    dest = (dist * math.sin(bearing), dist * math.cos(bearing))
    return _scene("free", dest, [], rng.uniform(0.0, 360.0), DEFAULT_RADIUS_M,
                  DEFAULT_RESOLUTION_DEG)


def static_scene(rng, n_discs, leg_m, lateral_m, max_steps=64):
    """Discs spread along a straight leg, one per along-track slot.

    Each disc gets its own slot of the leg, so discs overlap only when the
    slot is narrower than a diameter. A disc that breaks the start or
    destination clearance is drawn again.
    """
    start = (0.0, 0.0)
    dest = (0.0, leg_m)
    lo, hi = 0.1 * leg_m, 0.9 * leg_m
    slot = (hi - lo) / n_discs
    discs = []
    for i in range(n_discs):
        for _ in range(100):
            r = rng.uniform(400.0, 700.0)
            disc = (rng.uniform(-lateral_m, lateral_m),
                    lo + slot * (i + rng.uniform(0.0, 1.0)), r)
            if _clear(start, disc, DEFAULT_RADIUS_M) and _clear(dest, disc, DEFAULT_RADIUS_M):
                discs.append(disc)
                break
    return _scene("static", dest, discs, rng.uniform(0.0, 360.0), DEFAULT_RADIUS_M,
                  DEFAULT_RESOLUTION_DEG, max_steps=max_steps)


def dynamic_scene(rng, encounter_class):
    """Port-side mover on a near-perpendicular course, as in scenarios/sit1-3."""
    lo, hi = MOVER_SPEEDS_MPS[encounter_class]
    mover = ((-rng.uniform(2000.0, 2800.0), rng.uniform(2400.0, 3200.0)),
             rng.uniform(700.0, 900.0), rng.uniform(lo, hi), 90.0 + rng.uniform(-10.0, 10.0))
    dest = (0.0, rng.uniform(6000.0, 8000.0))
    return _scene("dynamic", dest, [], rng.uniform(0.0, 360.0), DEFAULT_RADIUS_M,
                  DEFAULT_RESOLUTION_DEG, mover=mover, max_steps=40)


def batch_scene(seed: int, index: int) -> dict:
    """Scene `index` of the batch family; kinds cycle through BATCH_MIX."""
    cycle, pos = divmod(index, len(BATCH_MIX))
    kind = BATCH_MIX[pos]
    j = cycle * _KIND_COUNTS[kind] + BATCH_MIX[:pos].count(kind)   # index among its kind
    rng = rng_for(seed, "batch_shared", index)
    if kind == "free":
        return free_scene(rng)
    if kind == "static":
        return static_scene(rng, 1 + j % 4, rng.uniform(4000.0, 9000.0), 600.0)
    return dynamic_scene(rng, j % 3)


def batch_shared(seed: int, out_dir: Path, shipped_dir: Path) -> list[Path]:
    """The seeded directory: the first len(BATCH_MIX) batch scenes plus scenarios/."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(len(BATCH_MIX)):
        scn = batch_scene(seed, i)
        write(out_dir / f"g{i:02d}_{scn['mode']}.json", scn)
    shipped = sorted(shipped_dir.glob("*.json"))
    if not shipped:
        raise FileNotFoundError(f"no shipped scenarios in {shipped_dir}")
    for path in shipped:
        shutil.copyfile(path, out_dir / path.name)
    return sorted(out_dir.glob("*.json"))


# cells_cold obstacle layout (the scenarios/fig25_analog discs), the same
# for every job: only the hull, the circle radius and the resolution vary,
# so the plan-quality figures move with the program, not with the seed
COLD_DISCS = ((-350.0, 2600.0, 600.0), (500.0, 5800.0, 650.0), (-400.0, 9000.0, 600.0))
COLD_DEST = (0.0, 12000.0)


def cold_scene(seed: int, index: int) -> dict:
    """Static scene on a hull of its own, so no cell-set key ever repeats.

    Every third job is at 2 degrees, the others at 5. The circle radius
    grows with the hull's speed (a faster hull gets a wider domain), which
    keeps the Euler steps per rollout, and so a run's throughput, steady
    across seeds.
    """
    rng = rng_for(seed, "cells_cold", index)
    a = rng.random()
    ship = {
        "steady_speed_mps": 6.0 + 4.0 * a,
        "kick_gain": rng.uniform(0.05, 0.15),
        "speed_loss_gain": rng.uniform(0.02, 0.08),
    }
    radius = 500.0 + 250.0 * min(1.0, max(0.0, a + rng.uniform(-0.1, 0.1)))
    resolution = 2.0 if index % 3 == 2 else 5.0
    return _scene("static", COLD_DEST, COLD_DISCS, rng.uniform(0.0, 360.0), radius,
                  resolution, ship=ship, max_steps=100)


def replan_scene(seed: int, index: int) -> dict:
    """Static (1-6 discs) scenes, with every fourth one a dynamic crossing."""
    rng = rng_for(seed, "replan_warm", index)
    if index % 4 == 3:
        return dynamic_scene(rng, (index // 4) % 3)
    return static_scene(rng, 1 + index % 6, rng.uniform(4000.0, 10000.0), 700.0)


def compare_scene(seed: int, index: int) -> dict:
    """Static scene with 5-10 discs scattered along a 6-14 km leg."""
    rng = rng_for(seed, "compare_cluttered", index)
    n = 5 + index % 6
    leg = rng.uniform(max(6000.0, 1300.0 * n), 14000.0)
    return static_scene(rng, n, leg, 1500.0, max_steps=100)


def write_pool(scene, seed: int, count: int, out_dir: Path, prefix: str) -> list[Path]:
    """Write scenes 0..count-1 of a family as scenario files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        scn = scene(seed, i)
        paths.append(write(out_dir / f"{prefix}{i:03d}_{scn['mode']}.json", scn))
    return paths


def write(path: Path, scn: dict) -> Path:
    path.write_text(json.dumps(scn, indent=1, sort_keys=True) + "\n")
    return path
