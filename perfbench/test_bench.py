#!/usr/bin/env python3
"""Tests of the benchmark itself, at reduced input size.

Run from the repository root (builds .bench_build/ like run.py):

    python3 perfbench/test_bench.py

They check that the timing decorators of the traced run change no result,
that the traced run's unattributed time matches what it measured of its
own work, that many-tenants is independent of the shard count, that --seed
changes the inputs and nothing else, that run.py combines its processes as
it says, that peak_rss_mb is the benchmark's own, and that the printed
result follows BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

BINARY = os.path.join(run.BUILD_DIR, "perfbench")
SCALE = {"paper-presets": 0.02, "online-admit": 0.02, "many-tenants": 0.05}
DETERMINISTIC = ("deadline_miss_ratio", "response_p50_ms", "response_p999_ms")
# What bench.unattributed_s may hold beyond the benchmark's timed own work and
# its timers, as a share of the traced wall time: the untimed glue of the
# benchmark's loops.  Only online-admit's replay loop (clock, heap, digest)
# has much of it.
GLUE_SHARE = {"paper-presets": 0.05, "many-tenants": 0.05,
              "online-admit": 0.25}

_cache = {}


def bench(workload, seed=1, trace=0, shards=2):
    key = (workload, seed, trace, shards)
    if key not in _cache:
        done = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "0.01", "--trace", str(trace),
             "--scale", str(SCALE[workload]), "--shards", str(shards)],
            stdout=subprocess.PIPE, text=True, timeout=170)
        lines = done.stdout.rstrip("\n").split("\n")
        _cache[key] = (done.returncode, lines[:-1], json.loads(lines[-1]))
    return _cache[key]


def digest_lines(lines, kind):
    """Lines naming a digest: kind 'input' or 'output'."""
    inputs = [l for l in lines if " inputs " in l]
    if kind == "input":
        return inputs
    return [l for l in lines if "digest" in l and l not in inputs]


def metrics(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(os.path.relpath(HERE))
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def test_result_follows_benchmark_json(self):
        for w in self.spec["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                code, _, result = bench(w["name"], trace=trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in self.spec[group]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w["name"], group))
                if group == "end_to_end":
                    for name, value in metrics(result).items():
                        self.assertGreater(value, 0, (w["name"], name))

    def test_traced_run_gives_the_untraced_results(self):
        for w in SCALE:
            _, plain, r0 = bench(w, trace=0)
            _, traced, r1 = bench(w, trace=1)
            self.assertEqual(digest_lines(plain, "input"),
                             digest_lines(traced, "input"), w)
            self.assertEqual(digest_lines(plain, "output"),
                             digest_lines(traced, "output"), w)
            self.assertTrue(digest_lines(plain, "output"), w)

    def test_unattributed_time_is_the_benchmarks_own(self):
        # bench.unattributed_s is wall minus the layer self times.  Compare
        # it with figures measured apart from every layer: the benchmark's
        # own work, timed directly, and the calibrated cost of its timers.
        # A layer that counted time twice drives the residual below zero;
        # one that lost time drives it above the glue share.
        for w in SCALE:
            _, lines, result = bench(w, trace=1)
            m = metrics(result)
            fields = next(l for l in lines
                          if l.startswith("bench own_s ")).split()
            own_s, timer_s = float(fields[2]), float(fields[4])
            self.assertGreater(own_s, 0, w)
            residual = m["bench.unattributed_s"] - own_s - timer_s
            wall = m["bench.wall_s"]
            self.assertGreaterEqual(residual, -0.05 * wall, w)
            self.assertLessEqual(residual, GLUE_SHARE[w] * wall, w)

    def test_run_py_combines_processes(self):
        w = "many-tenants"
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
             "--seed", "1", "--seconds", "0.04", "--trace", "0",
             "--scale", str(SCALE[w])],
            stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(done.returncode, 0)
        lines = done.stdout.rstrip("\n").split("\n")
        combined = json.loads(lines[-1])
        single = bench(w)[2]
        self.assertEqual(combined["attempted"],
                         run.PROCESSES * single["attempted"])
        for name in DETERMINISTIC:
            self.assertEqual(metrics(combined)[name], metrics(single)[name])
        for m in self.spec["end_to_end"]:
            how = "best" if m["name"] in run.BEST else "median"
            line = next(l for l in lines if l.startswith(m["name"] + " "))
            self.assertIn(f"({how} of {run.PROCESSES} processes: ", line)
            values = [float(v) for v in
                      line.rpartition(": ")[2].rstrip(")").split()]
            self.assertEqual(len(values), run.PROCESSES)
            pick = run.BEST.get(m["name"], statistics.median)
            want = pick(values)
            self.assertLessEqual(abs(metrics(combined)[m["name"]] - want),
                                 1e-5 * abs(want), m["name"])

    def test_peak_rss_is_not_the_parents(self):
        # The kernel keeps ru_maxrss across execve; a large parent must not
        # show up as the benchmark's peak.
        ballast = bytearray(96 << 20)
        ballast[::4096] = b"x" * len(ballast[::4096])
        w = "many-tenants"
        done = subprocess.run(
            [BINARY, "--workload", w, "--seed", "1", "--seconds", "0.01",
             "--trace", "0", "--scale", str(SCALE[w])],
            stdout=subprocess.PIPE, text=True, timeout=170)
        del ballast
        result = json.loads(done.stdout.rstrip("\n").rpartition("\n")[2])
        self.assertLess(metrics(result)["peak_rss_mb"], 48)

    def test_many_tenants_admits_to_q1(self):
        m = metrics(bench("many-tenants", trace=1)[2])
        self.assertGreater(m["core.q1_admit_ratio"], 0.5)

    def test_many_tenants_shard_count_changes_nothing(self):
        _, one, r1 = bench("many-tenants", shards=1)
        _, two, r2 = bench("many-tenants", shards=2)
        self.assertEqual(digest_lines(one, "output"),
                         digest_lines(two, "output"))
        for name in DETERMINISTIC:
            self.assertEqual(metrics(r1)[name], metrics(r2)[name], name)
        self.assertEqual(r1["attempted"], r2["attempted"])

    def test_seed_changes_inputs_and_nothing_else(self):
        for w in SCALE:
            _, a, ra = bench(w, seed=1)
            _, again, ra2 = bench(w, seed=1, trace=1)
            _, b, rb = bench(w, seed=2)
            self.assertNotEqual(digest_lines(a, "input"),
                                digest_lines(b, "input"), w)
            self.assertEqual(digest_lines(a, "input"),
                             digest_lines(again, "input"), w)
            # The workload's configuration is the same under every seed.
            config = [l for l in a if " config " in l]
            self.assertEqual(config, [l for l in b if " config " in l], w)
            self.assertEqual(set(metrics(ra)), set(metrics(rb)), w)

    def test_online_replay_matches_offline_simulation(self):
        _, offline, _ = bench("paper-presets")
        _, online, _ = bench("online-admit")

        def completion(lines):
            line = next(l for l in lines if "completion digest" in l)
            return line.split("completion digest ")[1]
        self.assertEqual(completion(offline), completion(online))


if __name__ == "__main__":
    unittest.main()
