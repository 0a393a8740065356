"""Print the benchmark's end-to-end metrics across the committed records.

Reads every BENCH_<pr>.json at the repository root, in PR order, and the
end-to-end metrics and workloads that BENCHMARK.json names. For each
workload and metric it prints one row per record: the PR, the revision the
record names (12 hex digits, with "+" when the record says src/ or bench/
differed from it), the sample count, the median and the interquartile
range. A record's untraced (--trace 0) run gives the samples: a metric's
`samples` list if it has one, else its one `value`, so every record written
so far reads as a single sample, with no range. The last column compares
each median with the previous record's range: "moved" outside it, "within"
inside it, blank when the previous record has no range to compare with.

It reports and never gates: a record it cannot read is named on its own
row, and it exits 0 unless BENCHMARK.json itself cannot be read.

Usage: python3 tools/trend.py (the stdlib only, no options).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(samples: list) -> "tuple[float, float] | None":
    """(q1, q3) of two or more samples, None for one."""
    if len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q3


def samples_of(record: dict, workload: str, metric: str) -> list:
    """The samples of one metric in the record's untraced run of workload."""
    for run in record["runs"]:
        if run["workload"] == workload and run["trace"] == 0:
            entry = run["summary"]["metrics"][metric]
            return list(entry.get("samples") or [entry["value"]])
    return []


def records() -> "list[tuple[int, str, dict | None]]":
    """(pr, file name, record or None if unreadable), in PR order."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match is None:
            continue
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = None
        found.append((int(match[1]), path.name, record))
    return sorted(found)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    found = records()
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in metrics:
            print(f"{workload}  {metric['name']} ({metric['unit']}, {metric['better']} is better)")
            print(f"  {'PR':>4}  {'revision':<13}  {'n':>2}  {'median':>12}  {'q1 .. q3':<27}  vs last")
            last = None  # the previous readable record's (q1, q3), or None
            for pr, name, record in found:
                try:
                    samples = samples_of(record, workload, metric["name"])
                    revision = record["revision"][:12] + ("+" if record.get("dirty") else "")
                except (KeyError, TypeError, AttributeError):
                    print(f"  {pr:>4}  {name} cannot be read")
                    continue
                if not samples:
                    print(f"  {pr:>4}  {revision:<13}  no untraced run")
                    continue
                quartiles = spread(samples)
                median = statistics.median(samples)
                span = "" if quartiles is None else f"{quartiles[0]:.6g} .. {quartiles[1]:.6g}"
                mark = ""
                if last is not None:
                    mark = "within" if last[0] <= median <= last[1] else "moved"
                print(f"  {pr:>4}  {revision:<13}  {len(samples):>2}  {median:>12.6g}  "
                      f"{span:<27}  {mark}".rstrip())
                last = quartiles
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
