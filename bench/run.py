"""Benchmark of the symbio command line, one workload per run.

    python3 bench/run.py --workload tables-analyze --seed 1 --seconds 35 --trace 0

Run from the repository root. The benchmark writes seeded scenario files
under bench/out/, then calls `symbio.cli.main(argv)` on them in this one
process: one client, no threads, each invocation right after the previous
one (a closed loop). A run makes --seconds // PASS_SECONDS passes of the
workload's batch (see scenarios.py), at least one, so every run of a
workload does the same work on any machine. Every invocation's exit code
and report are checked (checks.py), and for the default seed each report's
digest must match bench/reference.json. Times are scaled to a reference
interpreter speed (SpeedClock), because the raw speed of a shared machine
drifts.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics. With --trace 1 half as many passes run, each twice, untraced and
then traced (spans.py), and the metrics are per layer, per pass. Details,
including the tail percentile and its sample count, go to stderr and to
bench/out/result-<workload>-<seed>-<trace>.json; the spans of the last
traced pass go to bench/out/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import scenarios
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 1
#: One interpreter start varies by about 15%; the median of this many is steady.
SETUP_SAMPLES = 15
#: Nominal length of one pass of any workload on a 2-core machine.
PASS_SECONDS = 15
#: Median time of calibrate() on the reference machine (2-core x86-64 VM,
#: Python 3.11.7), which defines the speed reported times are scaled to.
CALIBRATION_S = 0.006

END_TO_END = {
    "scenarios_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> "dict[str, str]":
    units = {}
    for module, qualname, with_spans in spans.LAYERS:
        name = spans.layer_name(module, qualname)
        if with_spans:
            units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({
        f"{spans.ROOT}.s": "s",
        "solutions.core_rows": "count",
        "lp.rows_max": "count",
        "mcnets.rules": "count",
        "exchange.route_subsets": "count",
        "cli.input_bytes": "B",
        "cli.output_bytes": "B",
        "trace.overhead_ratio": "ratio",
    })
    return units


def calibrate() -> float:
    """Wall time of a fixed stdlib Fraction loop: the interpreter's speed now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class SpeedClock:
    """Times calls in seconds at the reference speed CALIBRATION_S defines.

    On a shared 2-core VM the interpreter's speed changed by up to 1.8x
    between periods of seconds to minutes, in wall and CPU time alike, and
    the calibration loop changed with it: in 8 fresh processes whose raw
    times of the same CLI call differed by up to 60%, the median scaled time
    held within 2%. So every call is timed between two calibrations, each
    after a garbage collection. A call longer than SAMPLE_EVERY_S is also
    interrupted by a timer signal that runs a calibration inside it; that
    time is taken out of the call's. The call's time is then scaled by
    CALIBRATION_S over the mean of all its calibrations. symbio code never
    runs in the loop, so a change to symbio moves the scaled time as it
    moves the raw one. A call that waits for a child process keeps running
    while the loop runs, so such calls need interrupt=False.
    """

    SAMPLE_EVERY_S = 0.25

    def __init__(self, interrupt: bool = True):
        self.every = self.SAMPLE_EVERY_S if interrupt else 0
        calibrate()  # warm up
        self.last = calibrate()

    def time(self, fn, *args, **kwargs):
        """(result, scaled seconds, raw seconds) of one call."""
        inside, paused = [], 0.0

        def sample(signum, frame):
            nonlocal paused
            begin = time.perf_counter()
            inside.append(calibrate())
            paused += time.perf_counter() - begin

        gc.collect()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw = time.perf_counter() - start - paused
            signal.signal(signal.SIGALRM, previous)
        gc.collect()  # the call's garbage must not land in the calibration
        after = calibrate()
        speeds = [self.last, after, *inside]
        self.last = after
        return result, raw * CALIBRATION_S * len(speeds) / sum(speeds), raw


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import symbio.cli.

    It has its own clock: a calibration right after a wait for a child
    process runs faster than one after a CLI call, so the two must not mix.
    """
    clock = SpeedClock(interrupt=False)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import symbio.cli"]
    return statistics.median(
        clock.time(subprocess.run, argv, env=env, cwd=ROOT, check=True)[1]
        for _ in range(SETUP_SAMPLES)
    )


def tail_rank(n: int) -> "tuple[int, int]":
    """Highest whole percentile with at least ten of n samples above it, and its rank."""
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, rank
    raise ValueError(f"{n} samples leave no percentile with ten samples above it")


def write_pass(workload: str, seed: int, index: int):
    """Generate one pass and write its files; returns (cases, paths, bytes)."""
    folder = OUT / "scenarios" / workload
    folder.mkdir(parents=True, exist_ok=True)
    cases = scenarios.make_batch(workload, seed, index)
    paths, size = [], 0
    for case in cases:
        data = case.text().encode()
        path = folder / f"{case.name}.json"
        path.write_bytes(data)
        paths.append(path)
        size += len(data)
        case.doc = None  # the checks keep only the facts they need
    return cases, paths, size


def invoke(main, case, path, clock, tracer=None):
    """One CLI call with captured stdout: (exit code, stdout, scaled s, raw s)."""
    argv = [case.command, str(path), *case.argv]

    def call():
        try:
            return main(argv) if tracer is None else tracer.call(spans.ROOT, main, argv)
        except SystemExit as e:
            return e.code
        except Exception:  # a crash fails this invocation; the run goes on
            return "exception: " + traceback.format_exc().splitlines()[-1]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, scaled, raw = clock.time(call)
    return code, out.getvalue(), scaled, raw


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Run:
    """Invocation records and failures of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.reference = {}
        if seed == DEFAULT_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text())["digests"].get(workload, {})
        self.attempted = 0
        self.failures = []
        self.digest_checks = 0
        self.clock = SpeedClock()
        self.raw_seconds = 0.0
        self.log = []  # (case, scaled s, raw s) per invocation

    def run_pass(self, main, cases, paths, tracer=None, expect=None):
        """Run and check one pass; returns (scaled seconds, digests, output bytes).

        expect, when given, holds the digests this pass must reproduce.
        """
        times, digests, out_bytes = [], [], 0
        for k, (case, path) in enumerate(zip(cases, paths)):
            code, text, scaled, raw = invoke(main, case, path, self.clock, tracer)
            self.raw_seconds += raw
            self.log.append((case.name, round(scaled, 6), round(raw, 6)))
            times.append(scaled)
            digest = digest_of(text)
            problems = [f"exit code {code}"] if code != 0 else checks.check(case, text)
            want = self.reference.get(case.name)
            if want is not None:
                self.digest_checks += 1
                if digest != want:
                    problems.append("stdout digest differs from bench/reference.json")
            if expect is not None and digest != expect[k]:
                problems.append("stdout changed under tracing")
            self.attempted += 1
            if problems:
                self.failures.append({"case": case.name, "problems": problems[:5]})
            digests.append(digest)
            out_bytes += len(text.encode())
        return times, digests, out_bytes


def measure(args, main):
    """Untraced passes: the end-to-end metrics."""
    run = Run(args.workload, args.seed)
    times, names = [], []
    passes = max(1, int(args.seconds // PASS_SECONDS))
    for index in range(passes):
        cases, paths, _ = write_pass(args.workload, args.seed, index)
        times += run.run_pass(main, cases, paths)[0]
        names += [case.name for case in cases]
    order = sorted(range(len(times)), key=times.__getitem__)
    percentile, rank = tail_rank(len(times))
    metrics = {
        "scenarios_per_s": len(times) / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": times[order[rank - 1]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_seconds(),
    }
    details = {
        "passes": passes,
        "tail_percentile": percentile,
        "samples": len(times),
        "median_cases": [names[i] for i in order[(len(order) - 1) // 2 : len(order) // 2 + 1]],
        "tail_case": names[order[rank - 1]],
        "raw_seconds": run.raw_seconds,
        "scaled_seconds": sum(times),
    }
    return run, metrics, details


def measure_traced(args, main):
    """Pairs of untraced and traced passes: the per-layer metrics."""
    run = Run(args.workload, args.seed)
    tracer = spans.Tracer()
    per_pass = []
    passes = max(1, int(args.seconds // PASS_SECONDS) // 2)
    for index in range(passes):
        cases, paths, in_bytes = write_pass(args.workload, args.seed, index)
        plain, plain_digests, _ = run.run_pass(main, cases, paths)
        tracer.reset()
        tracer.install()
        try:
            traced, _, out_bytes = run.run_pass(main, cases, paths, tracer, plain_digests)
        finally:
            tracer.uninstall()
        own = tracer.self_times()
        scale = sum(traced) / (tracer.spans_seconds(spans.ROOT) or 1)
        values = {}
        for name in per_layer_units():
            if name.endswith(".s"):
                values[name] = own[name[:-2]] * scale
            elif name.endswith(".calls"):
                values[name] = tracer.calls[name[:-6]]
            else:
                values[name] = tracer.counts[name]
        values["cli.input_bytes"] = in_bytes
        values["cli.output_bytes"] = out_bytes
        values["trace.overhead_ratio"] = sum(traced) / sum(plain)
        per_pass.append(values)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_layer_units()}
    (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}) + "\n"
    )
    details = {"passes": passes, "absent": tracer.absent}
    return run, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symbio" / "cli.py").is_file():
        print(f"error: no symbio sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from symbio.cli import main as cli_main

    shutil.rmtree(OUT / "scenarios" / args.workload, ignore_errors=True)
    if args.trace:
        run, metrics, details = measure_traced(args, cli_main)
        units = per_layer_units()
    else:
        run, metrics, details = measure(args, cli_main)
        units = END_TO_END
    failed = len(run.failures)
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": run.attempted,
        "failed": failed,
        "failed_ratio": failed / run.attempted,
        "digest_checks": run.digest_checks,
        "failures": run.failures[:20],
        "invocations": run.log,
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n"
    )
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    summary = {
        k: v for k, v in details.items() if k not in ("metrics", "failures", "invocations")
    }
    print(json.dumps(summary), file=sys.stderr)
    for failure in run.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
