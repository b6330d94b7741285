"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BASELINE.json

For every workload this runs `run.py --trace 0` once per seed, then one
`--trace 1` run with the first seed. It records, per end-to-end metric, the
ten values, their median, quartiles and spread (quartile distance over the
median, from statistics.quantiles(values, n=4)), and the per-layer values
of the traced run, together with the Python and numpy versions and the CPU
count of the machine. It exits 1 if any run fails or reports an incorrect
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)

    import numpy

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seeds": args.seeds,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in args.seeds:
            res = run(workload, seed, args.seconds, 0)
            if not res["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        traced = run(workload, args.seeds[0], args.seconds, 1)
        e2e = {name: summarize(v) for name, v in values.items()}
        record["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": e2e,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(f"{workload}: {attempted} jobs, {failed} failed")
        for name, s in e2e.items():
            flag = "  OVER BOUND" if name != "setup_s" and s["spread"] > bounds[name] else ""
            print(f"  {name:20s} median {s['median']:12.6g}  spread {s['spread']:.3f}"
                  f"  (bound {bounds[name]}){flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
