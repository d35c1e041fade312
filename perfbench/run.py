#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the library, the wcmd daemon and
the benchmark binary with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), and runs one workload with every WCM_* variable
removed from its environment.  The binary prints the metrics it measured;
this script prints them in a table with the units BENCHMARK.json declares,
then the result line: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  A per-layer metric the workload does not measure
reads 0; a missing end-to-end metric or an undeclared one is an error.
Build output goes to stderr.

Exit codes: 0 the workload ran (its "correct" field reports the checks),
1 build or run failure, 2 usage error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sort_paper", "campaign_grid", "serve_mixed")
MAX_SECONDS = 60


def run_timeout(seconds):
    """Measurement plus set-up, checks and a traced run's extra passes."""
    return 3 * seconds + 110


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(source_dir, build_dir):
    configure = ["cmake", "-S", str(source_dir), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    compile_ = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                "perfbench_wcmd", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def stop_group(child):
    """Kill the child's process group and wait until every member is gone."""
    os.killpg(child.pid, signal.SIGKILL)
    child.communicate()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def result_line(measured, declared, trace):
    """The driver's result line from the binary's measured metrics."""
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    undeclared = sorted(set(measured["metrics"]) - set(units))
    if undeclared:
        raise ValueError(f"metrics not in BENCHMARK.json: {undeclared}")
    metrics = {}
    for m in declared["per_layer" if trace else "end_to_end"]:
        got = measured["metrics"].get(m["name"])
        if got is None and not trace:
            raise ValueError(f"end-to-end metric {m['name']} not measured")
        value = got["value"] if got is not None else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": measured["failed"] == 0,
            "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def table(measured, declared):
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    rows = [f"{'metric':30}{'value':>22}  {'unit':8}{'samples':>9}"]
    for name, m in measured["metrics"].items():
        rows.append(f"{name:30}{m['value']:>22.10g}  {units[name]:8}"
                    f"{m['samples']:>9}")
    rows.append(f"checks: {measured['attempted']} attempted, "
                f"{measured['failed']} failed")
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        fail(f"--seed must be >= 0 and --seconds in 1..{MAX_SECONDS}", 2)

    source_dir = Path(__file__).resolve().parent
    root = source_dir.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    build(source_dir, build_dir)

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--wcmd", str(build_dir / "perfbench_wcmd")]
    # No library telemetry, trace output, event log or failpoints.
    env = {k: v for k, v in os.environ.items() if not k.startswith("WCM_")}
    timeout = run_timeout(args.seconds)
    # Its own process group, so a timeout also stops the daemon it spawned.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(child)
        fail(f"workload did not finish within {timeout} s")
    if child.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"benchmark binary exited with {child.returncode}")

    lines = stdout.rstrip("\n").split("\n")
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text())
        measured = json.loads(lines[-1])
        result = result_line(measured, declared, args.trace == 1)
        rows = table(measured, declared)
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.stderr.write(stdout)
        fail(f"bad metrics line: {e}")
    print("\n".join(lines[:-1]))
    print(f"\n== metrics: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'} ==")
    print(rows)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
