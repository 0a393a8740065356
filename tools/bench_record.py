"""Record the benchmark at this checkout in BENCH_<pr>.json.

Runs `bench/run.py --workload W --seed 1 --trace T`, each in a fresh
process from the repository root at the default run length, for every
workload that BENCHMARK.json names and for T = 0 and 1. Keeps each run's
last stdout line (its JSON summary) and adds the git revision, whether
src/ or bench/ differ from it, the Python version and the CPU count, then
writes BENCH_<pr>.json at the repository root.

If any run exits non-zero, ends in a line that is not a JSON object, or
does not read correct: true and failed: 0, it exits 1 and writes nothing.

Usage: python3 tools/bench_record.py PR (the stdlib only, no options;
22 s on a 2-core x86-64 VM, the runs' own stderr passed through).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, encoding="utf-8").stdout.strip()


def bench_run(workload: str, trace: int) -> dict:
    """One run's last stdout line, parsed; exits 1 on any fault."""
    argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--trace", str(trace)]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, encoding="utf-8")
    name = " ".join(argv)
    if done.returncode:
        sys.exit(f"{name}: exit {done.returncode}")
    lines = done.stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{name}: last stdout line is not JSON")
    if not isinstance(summary, dict):
        sys.exit(f"{name}: last stdout line is not a JSON object")
    if summary.get("correct") is not True or summary.get("failed") != 0:
        sys.exit(f"{name}: correct {summary.get('correct')!r}, failed {summary.get('failed')!r}")
    return summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0].isdigit():
        sys.exit("usage: python3 tools/bench_record.py PR")
    pr = int(argv[0])
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["workloads"]]
    record = {
        "pr": pr,
        "revision": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "bench")),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": [{"workload": w, "seed": 1, "trace": t, "summary": bench_run(w, t)}
                 for w in workloads for t in (0, 1)],
    }
    path = ROOT / f"BENCH_{pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
