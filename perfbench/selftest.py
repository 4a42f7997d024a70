#!/usr/bin/env python3
"""Self-test of the benchmark's output check, at a tiny horizon.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload it checks that

  * an untraced and a traced run pass their output check and report every
    metric BENCHMARK.json declares;
  * the traced table's rows add up to engine.run_s;
  * a reference value equal to the observed output passes, and a
    deliberately wrong one fails the run (every job counted as failed).

Exits 0 when all of that holds.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark entry point)

TINY_HORIZON = 1500
# The output each workload's wrong-reference case tampers with.
CHECKED_OUTPUT = {"grid10_sds": "states", "grid10_cow": "events",
                  "fleet_testgen": "fingerprint_digest"}


def bench(workload, trace, *extra):
    """One run.py run of about one job; returns (result, stdout lines)."""
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--horizon", str(TINY_HORIZON), *extra],
        capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def observed(workload):
    """The job runner's observed outputs at the tiny horizon."""
    work_dir = run.BUILD_DIR / "work" / "selftest"
    record = run.run_job(workload, TINY_HORIZON, work_dir, [])
    assert record is not None and record["ok"], record
    return record["observed"]


def table_adds_up(lines):
    """The rows above '= engine.run_s' sum to it (4-decimal rounding)."""
    rows, total = [], None
    for line in lines:
        fields = line.split()
        if line.startswith("  = engine.run_s"):
            total = float(fields[-1])
            break
        if len(fields) >= 4 and fields[-1].isdigit() and fields[-2].endswith("%"):
            rows.append(float(fields[-3]))
    return total is not None and abs(sum(rows) - total) <= 1e-4 * (len(rows) + 1)


def main():
    end_to_end, per_layer = run.declared_metrics()
    run.build()
    failures = []

    def expect(condition, what):
        print(("ok    " if condition else "FAIL  ") + what, flush=True)
        if not condition:
            failures.append(what)

    for workload in run.WORKLOADS:
        result, _ = bench(workload, 0)
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: untraced run passes its check")
        expect(all(m["name"] in result["metrics"] and
                   result["metrics"][m["name"]]["value"] > 0
                   for m in end_to_end),
               f"{workload}: every end-to-end metric reported, none 0")

        result, table = bench(workload, 1)
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: traced run passes its check")
        expect(all(m["name"] in result["metrics"] for m in per_layer),
               f"{workload}: every per-layer metric reported")
        expect(table_adds_up(table),
               f"{workload}: table rows sum to engine.run_s")

        name = CHECKED_OUTPUT[workload]
        value = observed(workload)[name]
        result, _ = bench(workload, 0, "--expect", f"{name}={value}")
        expect(result["correct"],
               f"{workload}: reference {name}={value} passes")
        wrong = value[:-1] + ("1" if value[-1] != "1" else "2")
        result, _ = bench(workload, 0, "--expect", f"{name}={wrong}")
        expect(not result["correct"] and
               result["failed"] == result["attempted"],
               f"{workload}: wrong reference {name}={wrong} fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
