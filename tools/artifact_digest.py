"""Print one digest line per CLI artifact, to show that a change is byte for byte.

Runs these commands in-process, each into its own out dir under a temp
dir, and prints `<command> <file> <sha256>` for every file each leaves
there (paths relative to its out dir), then `<command> stdout <sha256>` and
`<command> stderr <sha256>` of what it printed (its out dir written as
<out>), then `<command> exit <code>`:

    batch                 on scenarios/
    batch-again           on scenarios/ once more, into batch's out dir, so
                          every file it writes replaces one already there
    compare:<name>        on each scenario in scenarios/ (a dynamic one
                          exits 2 and leaves no file), then on each of
                          COMPARE_SCENES, written into the temp dir
    gen-cells:5, :2       the default hull's cells at 5 and 2 deg
    turn-test             the default turning circles
    fit-relation          on a CSV of the 5 deg set's (delta0, change) pairs,
                          read from its index.csv

Run it on two checkouts and diff the outputs:

    PYTHONPATH=src python tools/artifact_digest.py > after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from cgtc.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# the comparison.json cases the shipped scenes leave out; each starts at
# (0, 0), heading 0, with a 600 m circle
_START = {"start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0}, "circle_radius_m": 600.0}
_FREE_RUN = {**_START, "mode": "free", "destination": {"x_m": 0.0, "y_m": 6000.0}}
COMPARE_SCENES = {
    # the grid finds no node path past the disc; the circle plan is reported
    "grid-fails": {**_START, "mode": "static", "destination": {"x_m": 0.0, "y_m": 2000.0},
                   "obstacles": [{"x_m": 0.0, "y_m": 1750.0, "radius_m": 100.0}],
                   "sim": {"max_steps": 40}},
    # both reach without steering: a length ratio, no steering ratio
    "grid-never-steers": {**_FREE_RUN, "sim": {"max_steps": 40}},
    # both stop after one step, unreached: no ratio
    "unreached": {**_FREE_RUN, "sim": {"max_steps": 1}},
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(label: str, argv: list[str], out: Path):
    """Run one command into out; yield its digest lines."""
    printed = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    with contextlib.redirect_stdout(printed["stdout"]), \
            contextlib.redirect_stderr(printed["stderr"]):
        code = cli_main([*argv, "--out-dir", str(out)])
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            yield f"{label} {path.relative_to(out).as_posix()} {_digest(path.read_bytes())}"
    for stream, text in printed.items():
        text = text.getvalue().replace(str(out), "<out>")
        yield f"{label} {stream} {_digest(text.encode())}"
    yield f"{label} exit {code}"


def artifact_lines(tmp: Path):
    yield from _run("batch", ["batch", str(SCENARIOS)], tmp / "batch")
    yield from _run("batch-again", ["batch", str(SCENARIOS)], tmp / "batch")
    scenes = sorted(SCENARIOS.glob("*.json"))
    for name, scene in COMPARE_SCENES.items():
        scenes.append(tmp / f"{name}.json")
        scenes[-1].write_text(json.dumps(scene))
    for path in scenes:
        yield from _run(f"compare:{path.stem}", ["compare", str(path)],
                        tmp / "compare" / path.stem)
    for resolution in ("5", "2"):
        yield from _run(f"gen-cells:{resolution}", ["gen-cells", "--resolution", resolution],
                        tmp / f"cells{resolution}")
    yield from _run("turn-test", ["turn-test"], tmp / "turn")
    index = (tmp / "cells5" / "index.csv").read_text().splitlines()[1:]
    pairs = tmp / "pairs.csv"
    pairs.write_text("delta0_deg,heading_change_deg\n" + "".join(
        f"{delta0},{change}\n" for change, delta0, *_ in (row.split(",") for row in index)))
    yield from _run("fit-relation", ["fit-relation", str(pairs)], tmp / "relation")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for line in artifact_lines(Path(tmp)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
