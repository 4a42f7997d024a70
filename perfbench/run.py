#!/usr/bin/env python3
"""The repository benchmark: builds the job runner and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (the SDE libraries
plus sde_perfbench) into .bench_build/, then runs jobs of the workload one
after another (closed loop, one client), each in a fresh process, until
--seconds have passed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json (medians over the run's jobs); with
--trace 1 untraced and traced jobs alternate, the per-layer table of the last
traced job is printed, and the metrics are the per-layer ones.

--horizon and --expect exist for the self-test (selftest.py): they override
the horizon the seed selects and add reference values to the output check.
See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
BINARY = BUILD_DIR / "sde_perfbench"
SOURCE_DIR = Path(__file__).resolve().parent
WORKLOADS = ("grid10_sds", "grid10_cow", "fleet_testgen")

# Seed 0 is the canonical workload (Table I's 5,000 time units). Other seeds
# shift the horizon by one time unit either way: a held-out input that does
# nearly the same work, so runs on different seeds stay comparable.
CANONICAL_HORIZON = 5000
HORIZON_SHIFTS = (0, -1, 1)

# Set-up takes tens of microseconds, and on a shared host it reads up to
# 1.6x slower during episodes of a fraction of a second. So after every job
# SETUP_PROBES short processes each time SETUP_REPEATS set-ups, which spreads
# the samples over the whole run, and the run reports the median of their
# medians.
SETUP_PROBES = 2
SETUP_REPEATS = 5000
JOB_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def horizon_for(seed):
    return CANONICAL_HORIZON + HORIZON_SHIFTS[seed % len(HORIZON_SHIFTS)]


def build():
    """Configures (once) and builds the job runner; a no-op when current."""
    if not (SOURCE_DIR.parent / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("SDE sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(SOURCE_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "sde_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_job(workload, horizon, work_dir, expect, *flags):
    """Runs one job in a fresh process; returns its record or None."""
    command = [str(BINARY), "--workload", workload, "--horizon", str(horizon),
               "--work-dir", str(work_dir), *flags]
    for entry in expect:
        command += ["--expect", entry]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"job timed out after {JOB_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(f"job exited with code {done.returncode}")
        return None
    record = json.loads(lines[-1])
    record["table"] = "\n".join(lines[:-1])
    if not record["ok"]:
        log("output check failed: " + "; ".join(record["mismatches"]))
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--expect", action="append", default=[],
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    end_to_end, per_layer = declared_metrics()
    build()
    horizon = args.horizon or horizon_for(args.seed)
    work_root = BUILD_DIR / "work"

    untraced, traced, setups, rounds = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    # Closed loop: the next job starts when the previous one has ended, and
    # only if it would end nearer the deadline than not.
    while True:
        round_start = time.monotonic()
        for is_traced in ((False, True) if args.trace else (False,)):
            attempted += 1
            record = run_job(args.workload, horizon,
                             work_root / f"{os.getpid()}-{attempted}",
                             args.expect, *(["--trace"] if is_traced else []))
            if record is None or not record["ok"]:
                failed += 1
            if record is not None:
                (traced if is_traced else untraced).append(record)
                log(f"job {attempted}{' (traced)' if is_traced else ''}: " +
                    " ".join(f"{k}={v:.6g}" for k, v in record["metrics"].items()))
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe = run_job(args.workload, horizon,
                            work_root / f"{os.getpid()}-setup", [],
                            "--setups", str(SETUP_REPEATS))
            if probe is None:
                raise RuntimeError("set-up timing failed")
            setups.append(probe)
        rounds.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(rounds) / 2 > args.seconds:
            break

    def median_of(records, section, name):
        values = [r[section][name] for r in records if name in r[section]]
        if not values:
            raise RuntimeError(f"no job reported {section} metric {name}")
        return statistics.median(values)

    metrics = {}
    if args.trace:
        if traced:
            print(traced[-1]["table"])
        for m in per_layer:
            if m["name"] == "trace.overhead_s":
                # Untraced explore_s has no checkpoint sink (only the
                # fleet's traced replay has one), so leave the sink out.
                value = (statistics.median([
                    r["layers"]["engine.run_s"] -
                    r["layers"]["snapshot.checkpoint_s"] for r in traced]) -
                    median_of(untraced, "metrics", "explore_s"))
            else:
                value = median_of(traced, "layers", m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in end_to_end:
            records = setups if m["name"] == "setup_s" else untraced
            metrics[m["name"]] = {"value": median_of(records, "metrics",
                                                     m["name"]),
                                  "unit": m["unit"]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError,
            statistics.StatisticsError) as error:
        log(f"benchmark error: {error}")
        sys.exit(1)
