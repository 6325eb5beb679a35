#!/usr/bin/env python3
"""Build and run the burstqos benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-presets --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles the libraries from src/) in Release mode
into .bench_build/, then runs the benchmark binary.  An untraced run starts
the binary PROCESSES times in turn, each measuring --seconds / PROCESSES,
and checks that every process printed the same input and output digests.
On a shared host the program's speed drops for seconds at a time while
neighbours contend for the CPU, so a run reports the best process for the
run-phase timings (BEST), which measures the program rather than the
neighbours, and the median over the processes for every other metric.  A traced run starts it once; its spans are
written to .bench_build/spans-<workload>-<seed>.tsv.  The last stdout line
is the JSON result.  Exits non-zero when the build fails (printing no
result) or a correctness check fails (after printing the result, whose
"correct" is false).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper-presets", "many-tenants", "online-admit")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
PROCESSES = 6  # benchmark processes per untraced run
# Run-phase timings reported as the best process: the function picks it.
BEST = {"plan_s": min, "sim_events_per_s": max, "admit_decisions_per_s": max}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def on_term(signum, frame):
    sys.exit(128 + signum)


def run_child(cmd, timeout, stderr=None):
    """Runs cmd to completion; kills and reaps it if this script is stopped
    (SIGTERM, Ctrl-C) or the timeout expires.  Returns (code, stdout)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)  # the build's compilers too
            child.wait()


def build(bench_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            code, out = run_child(cmd, BUILD_TIMEOUT_S,
                                  stderr=subprocess.STDOUT)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} did not finish: {e}")
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail(f"build step {' '.join(cmd)} failed")


def last_json(out):
    """The result on the last line of `out`, or None."""
    try:
        result = json.loads(out.rstrip("\n").rpartition("\n")[2])
    except ValueError:
        return None
    if not isinstance(result, dict) or result.get("correct") not in (True,
                                                                     False):
        return None
    return result


def combine(results):
    """One result from several processes: correct only if every process
    was, counts added up, each metric the best (BEST) or the median over
    the processes."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        pick = BEST.get(name)
        value = pick(values) if pick else statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
        print(f"{name} {value:.6g} {first['unit']} "
              f"({'best' if pick else 'median'} of {len(values)} processes: "
              f"{' '.join(f'{v:.6g}' for v in values)})")
    return {"correct": all(r["correct"] is True for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the benchmark's")
    parser.add_argument("--shards", type=int, default=2,
                        help="simulate_sharded workers (many-tenants)")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    signal.signal(signal.SIGTERM, on_term)
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build(os.path.relpath(bench_dir))

    processes = 1 if args.trace == "1" else PROCESSES
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / processes), "--trace", args.trace,
           "--scale", repr(args.scale), "--shards", str(args.shards)]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.tsv")]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    digests = set()
    code = 0
    for i in range(processes):
        try:
            code, out = run_child(cmd, max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        result = last_json(out)
        if result is None:
            sys.stderr.write(out[-4000:])
            fail(f"benchmark exited with code {code} and no result")
        lines = out.rstrip("\n").split("\n")
        if processes > 1:
            lines = [f"[process {i + 1}/{processes}] {l}" for l in lines[:-1]]
        print("\n".join(lines), flush=True)
        results.append(result)
        digests.add(tuple(l.partition("] ")[2] for l in lines
                          if " digest " in l))
        # A failed check still prints its result (correct: false), then fails.
        if code != 0 or result["correct"] is not True:
            break
    if processes > 1:
        result = combine(results)
        if len(digests) > 1:
            print("perfbench: processes over the same inputs disagree",
                  file=sys.stderr)
        result["correct"] = (result["correct"] and code == 0
                             and len(digests) == 1)
        print(json.dumps(result), flush=True)
    if code != 0 or result["correct"] is not True:
        fail(f"benchmark exited with code {code}, correct = "
             f"{result['correct']}")


if __name__ == "__main__":
    main()
