"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The traced-run test starts the benchmark twice per workload and takes
about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def _generate(seed: int, out: Path) -> dict[str, bytes]:
    gen.batch_shared(seed, out / "batch", ROOT / "scenarios")
    gen.write_pool(gen.replan_scene, seed, gen.REPLAN_POOL, out / "replan", "r")
    gen.write_pool(gen.compare_scene, seed, gen.COMPARE_POOL, out / "compare", "c")
    gen.write_pool(gen.cold_scene, seed, 6, out / "cold", "k")
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.json"))}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = _generate(7, tmp_path / "a")
    b = _generate(7, tmp_path / "b")
    c = _generate(8, tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys()
    generated = [k for k in a if not k.startswith("batch/") or "/g" in k]
    assert all(a[k] != c[k] for k in generated)


def test_generated_endpoints_clear_every_disc():
    families = (gen.batch_scene, gen.cold_scene, gen.replan_scene, gen.compare_scene)
    for family in families:
        for i in range(40):
            scn = family(3, i)
            r = scn["circle_radius_m"]
            for end in (scn["start"], scn["destination"]):
                for o in scn.get("obstacles", []):
                    gap = math.dist((end["x_m"], end["y_m"]), (o["x_m"], o["y_m"]))
                    assert gap - o["radius_m"] >= r - 1e-3


def _traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k in ("cells.rollouts", "cells.builds_per_key",
                                             "harness.artifact_bytes")}


@pytest.mark.parametrize("workload", ["batch_shared", "cells_cold", "replan_warm",
                                      "compare_cluttered"])
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload)
    assert first["ship.step.calls"] > 0
    assert first == _traced_counts(workload)
