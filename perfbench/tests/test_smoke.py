"""Smoke-size self-test of the benchmark.

    python3 perfbench/tests/test_smoke.py        (from the repository root)

Runs every workload at small size, untraced and traced, and checks that:
every metric of BENCHMARK.json is emitted with its unit and a sample count;
the traced run prints span coverage and tracing overhead; serve_mix reports
generator lateness; and the traced run's output digests equal the untraced
run's.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEED = 5
# serve_mix needs 1000 scheduled requests for its p99 lateness figure.
SECONDS = {"synth_dblp": 2, "fit_dblp_1e5": 2, "serve_mix": 10}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS[workload]), "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout


def rows(stdout):
    """name -> (value, unit, n) of the printed metric table."""
    table = {}
    for line in stdout.splitlines():
        m = re.match(r"^  (\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)", line)
        if m:
            table[m.group(1)] = (m.group(2), m.group(3), int(m.group(4)))
    return table


def digests(stdout):
    for line in stdout.splitlines():
        if line.startswith("  digests: "):
            return json.loads(line[len("  digests: "):])
    return None


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.out = {}
        for w in [w["name"] for w in cls.spec["workloads"]]:
            for trace in (0, 1):
                cls.out[(w, trace)] = run(w, trace)

    def check_metrics(self, workload, trace, kind):
        code, stdout = self.out[(workload, trace)]
        self.assertEqual(code, 0, stdout)
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        table = rows(stdout)
        for m in self.spec[kind]:
            name = m["name"]
            self.assertIn(name, result["metrics"], f"{workload}: {name} not emitted")
            self.assertEqual(result["metrics"][name]["unit"], m["unit"])
            self.assertIn(name, table, f"{workload}: {name} not printed")
            self.assertEqual(table[name][1], m["unit"])
            self.assertGreaterEqual(table[name][2], 1, f"{workload}: {name} has no samples")
        return table

    def test_end_to_end_metrics(self):
        for w in self.spec["workloads"]:
            self.check_metrics(w["name"], 0, "end_to_end")

    def test_per_layer_metrics_with_coverage_and_overhead(self):
        for w in self.spec["workloads"]:
            table = self.check_metrics(w["name"], 1, "per_layer")
            self.assertIn("obs.span_coverage", table)
            self.assertIn("obs.trace_overhead", table)

    def test_serve_mix_reports_generator_lateness(self):
        self.assertIn("serve.client_lag_ms", rows(self.out[("serve_mix", 0)][1]))
        self.assertIn("serve.client_lag_p99_ms", rows(self.out[("serve_mix", 1)][1]))

    def test_traced_digests_equal_untraced(self):
        for w in self.spec["workloads"]:
            plain = digests(self.out[(w["name"], 0)][1])
            traced = digests(self.out[(w["name"], 1)][1])
            self.assertTrue(plain, w["name"])
            self.assertEqual(plain, traced, w["name"])


if __name__ == "__main__":
    unittest.main()
