"""Record the default seed's report digests into bench/reference.json.

    python3 bench/record_reference.py

Run it only at a commit whose reports are known good: from then on a run
with the default seed fails every invocation whose report differs. Every
report must pass its independent checks before its digest is recorded.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import scenarios

#: Passes a run makes at the --seconds BENCHMARK.json gives.
PASSES = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"] // run.PASS_SECONDS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from symbio.cli import main as cli_main

    clock = run.SpeedClock()
    digests = {}
    for workload in sorted(scenarios.WORKLOADS):
        digests[workload] = {}
        for index in range(PASSES):
            cases, paths, _ = run.write_pass(workload, run.DEFAULT_SEED, index)
            for case, path in zip(cases, paths):
                code, text, _, _ = run.invoke(cli_main, case, path, clock)
                problems = [f"exit code {code}"] if code != 0 else checks.check(case, text)
                if problems:
                    print(f"error: {case.name}: {problems}", file=sys.stderr)
                    return 1
                digests[workload][case.name] = run.digest_of(text)
            print(f"{workload} pass {index} recorded", file=sys.stderr)
    doc = {"seed": run.DEFAULT_SEED, "passes": PASSES, "digests": digests}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
