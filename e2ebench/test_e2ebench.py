#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark's input generator and metric names.

    python3 e2ebench/test_e2ebench.py

Builds the benchmark like run.py does, then checks that a seed reproduces
its inputs exactly, that serve-hot cycles exactly 20 distinct specs, that
every sweep pass gets a fresh seed, and that the metrics the benchmark
prints are the ones BENCHMARK.json declares.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

BINARY = os.path.join(run.BUILD, "e2ebench")
WORKLOADS = ["serve-hot", "sweep-fleet", "sweep-detailed"]


def dump(workload, seed, seconds=1):
    """The generated inputs of one run, as (kind, value) pairs."""
    out = subprocess.run([BINARY, "--dump-inputs", workload, "--seed", str(seed),
                          "--seconds", str(seconds)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return [tuple(line.split(" ", 1)) for line in out.splitlines()]


def values(pairs, kind):
    return [value for k, value in pairs if k == kind]


class GeneratorTest(unittest.TestCase):
    def test_a_seed_reproduces_its_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(dump(workload, 7), dump(workload, 7))
                self.assertNotEqual(dump(workload, 7), dump(workload, 8))

    def test_serve_hot_cycles_twenty_distinct_specs(self):
        inputs = dump("serve-hot", 3)
        specs = values(inputs, "spec")
        self.assertEqual(len(set(specs)), 20)
        self.assertEqual(set(specs), set(values(inputs, "warmup")))
        # One seeded shuffle, cycled: request i repeats request i - 20.
        self.assertEqual(specs[20:], specs[:-20])

    def test_sweep_passes_get_fresh_seeds(self):
        for workload in ["sweep-fleet", "sweep-detailed"]:
            with self.subTest(workload=workload):
                inputs = dump(workload, 3, seconds=2)
                seeds = values(inputs, "pass_seed") + values(inputs, "warmup_seed")
                self.assertEqual(len(seeds), len(set(seeds)))
        self.assertEqual(len(values(dump("sweep-fleet", 3), "spec")), 1000)
        self.assertEqual(len(values(dump("sweep-detailed", 3), "spec")), 10)


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)
        out = subprocess.run([BINARY, "--list-metrics"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        printed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            printed[kind].append((name, unit))
        for kind in printed:
            with self.subTest(kind=kind):
                self.assertEqual(sorted(printed[kind]),
                                 sorted((m["name"], m["unit"]) for m in declared[kind]))
        self.assertEqual([w["name"] for w in declared["workloads"]], WORKLOADS)


if __name__ == "__main__":
    if not run.build():
        sys.exit("e2ebench: build failed")
    unittest.main()
