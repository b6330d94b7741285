"""Print one digest line per CLI artifact, to show that a change is byte for byte.

Runs these commands in-process, each into its own out dir under a temp
dir, and prints `<command> <file> <sha256>` for every file each leaves
there (paths relative to its out dir), then `<command> exit <code>`:

    batch                 on scenarios/
    batch-again           on scenarios/ once more, into batch's out dir, so
                          every file it writes replaces one already there
    compare:<name>        on each non-dynamic scenario in scenarios/
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
import sys
import tempfile
from pathlib import Path

from cgtc.cli import main as cli_main
from cgtc.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _run(label: str, argv: list[str], out: Path):
    """Run one command into out; yield its digest lines."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([*argv, "--out-dir", str(out)])
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            yield f"{label} {path.relative_to(out).as_posix()} {digest}"
    yield f"{label} exit {code}"


def artifact_lines(tmp: Path):
    yield from _run("batch", ["batch", str(SCENARIOS)], tmp / "batch")
    yield from _run("batch-again", ["batch", str(SCENARIOS)], tmp / "batch")
    for path in sorted(SCENARIOS.glob("*.json")):
        if load_scenario(path).mode != "dynamic":
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
