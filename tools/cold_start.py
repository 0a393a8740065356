"""Cold start of a symbio process, this checkout against another one.

Times fresh interpreter processes, in alternating pairs between this
checkout and the one given as --parent (the first of each pair alternates
too), for two jobs:

- import: `import symbio.cli`;
- analyze: `symbio.cli.main(["analyze", "tests/data/g3_prime.json"])`, the
  whole process, on this checkout's copy of the file for both trees;

and the bare interpreter, `-c pass`, as the floor. Each tree's src/ is
copied into a temporary directory first, without __pycache__, and run
there in two modes:

- "no bytecode": PYTHONDONTWRITEBYTECODE=1, so every process compiles
  symbio's sources (the standard library keeps its installed caches);
- "-S compiled": the copy compiled by compileall, every process run with
  -S (no site, so no .pth files).

Prints one JSON object: per mode, the floor's median and, per job, each
tree's median seconds, the change in percent against --parent, and the
number of pairs this checkout won. A report, not a gate.

Usage: python3 tools/cold_start.py --parent PATH (the stdlib only, 15
pairs per mode; PATH is a checkout of the tree to compare against, this
one's own root included; it writes nothing under either tree).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "g3_prime.json"

#: Alternating pairs per mode.
PAIRS = 15

JOBS = {
    "import": "import symbio.cli",
    "analyze": f"from symbio.cli import main; main(['analyze', {str(DATA)!r}])",
}

#: Variables of the caller's environment that would choose the trees or
#: their bytecode for the children.
CLEARED = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")

#: mode -> (interpreter flags, extra environment, compile the copies)
MODES = {
    "no bytecode": ([], {"PYTHONDONTWRITEBYTECODE": "1"}, False),
    "-S compiled": (["-S"], {}, True),
}


def seconds(flags, env, code) -> float:
    """Wall time of one fresh interpreter running code."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(trees: dict) -> dict:
    """Per mode: the floor and each job's medians, change and wins."""
    base = {k: v for k, v in os.environ.items() if k not in CLEARED}
    report = {}
    with tempfile.TemporaryDirectory() as scratch:
        for mode, (flags, extra, compiled) in MODES.items():
            envs = {}
            for name, tree in trees.items():
                src = Path(scratch, mode.replace(" ", "_"), name)
                shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
                if compiled:
                    compileall.compile_dir(src, quiet=1)
                envs[name] = {**base, **extra, "PYTHONPATH": str(src)}
            floor, times = [], {job: {name: [] for name in trees} for job in JOBS}
            order = list(trees)
            for _ in range(PAIRS):
                floor.append(seconds(flags, {**base, **extra}, "pass"))
                for job, code in JOBS.items():
                    for name in order:
                        times[job][name].append(seconds(flags, envs[name], code))
                order.reverse()
            report[mode] = {"floor_s": round(statistics.median(floor), 4)}
            for job, runs in times.items():
                change, parent = (statistics.median(runs[name]) for name in trees)
                report[mode][job] = {
                    "change_s": round(change, 4),
                    "parent_s": round(parent, 4),
                    "change_pct": round(100 * (change - parent) / parent, 1),
                    "pairs_won": sum(c < p for c, p in zip(runs["change"], runs["parent"])),
                }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the tree to compare against")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "symbio" / "cli.py").is_file():
        parser.error(f"no src/symbio/cli.py under {args.parent}")
    report = measure({"change": ROOT, "parent": args.parent.resolve()})
    print(json.dumps({"python": sys.version.split()[0], "pairs": PAIRS, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
