"""Tests of the benchmark itself: its descriptor, metric names, percentile
rules and input determinism.

    python3 -m unittest discover -s perfbench/tests

The first run builds the benchmark into .bench_build/ (about a minute).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def binary(*args):
    return subprocess.run([run.BINARY, *args], capture_output=True, text=True,
                          timeout=120)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_benchmark_json_parses_with_contract_keys(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_metric_names_match_pattern(self):
        names = [m["name"] for m in self.spec["end_to_end"] +
                 self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_binary_reports_exactly_the_declared_metrics(self):
        out = binary("--list-metrics")
        self.assertEqual(out.returncode, 0, out.stderr)
        rows = [line.split() for line in out.stdout.splitlines()]
        for kind, key in (("e2e", "end_to_end"), ("layer", "per_layer")):
            self.assertEqual([(n, u) for k, n, u in rows if k == kind],
                             [(m["name"], m["unit"]) for m in self.spec[key]])

    def test_percentiles_need_ten_samples_beyond(self):
        out = binary("--self-test")
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("self-test ok", out.stdout)

    def test_same_seed_gives_byte_identical_op_stream(self):
        for workload in run.WORKLOADS:
            first = binary("--workload", workload, "--seed", "11",
                           "--dump-ops", "3000")
            again = binary("--workload", workload, "--seed", "11",
                           "--dump-ops", "3000")
            other = binary("--workload", workload, "--seed", "12",
                           "--dump-ops", "3000")
            self.assertEqual(first.returncode, 0, first.stderr)
            self.assertEqual(len(first.stdout.splitlines()), 3000)
            self.assertEqual(first.stdout, again.stdout, workload)
            self.assertNotEqual(first.stdout, other.stdout, workload)


class RunOneTest(unittest.TestCase):
    """run.py's deadline and clean-up, against stand-in binaries that fork
    a child holding the output pipe, as a fleet node does."""

    def run_stand_in(self, script, timeout_s):
        with tempfile.TemporaryDirectory() as tmp:
            binary = os.path.join(tmp, "stand_in")
            with open(binary, "w") as f:
                f.write("#!/bin/sh\n" + script + "\n")
            os.chmod(binary, 0o755)
            pid_file = os.path.join(tmp, "child.pid")
            with mock.patch.object(run, "BINARY", binary), \
                    mock.patch.object(run, "RUN_TIMEOUT_S", timeout_s), \
                    mock.patch.dict(os.environ, {"PID_FILE": pid_file}), \
                    mock.patch("sys.stdout"):
                t0 = time.monotonic()
                result = run.run_one("browse", 1, 1, 0, tmp)
                elapsed = time.monotonic() - t0
            with open(pid_file) as f:
                child = int(f.read())
        return result, elapsed, child

    def assertGone(self, pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        with open("/proc/%d/stat" % pid) as f:
            self.assertEqual(f.read().split(")")[-1].split()[0], "Z",
                             "child %d still running" % pid)

    def test_hung_run_is_killed_at_the_deadline(self):
        (code, last), elapsed, child = self.run_stand_in(
            "sleep 60 & echo $! > $PID_FILE; sleep 60", timeout_s=1)
        self.assertEqual((code, last), (1, None))
        self.assertLess(elapsed, 10)
        self.assertGone(child)

    def test_child_left_by_a_crash_does_not_hang_the_run(self):
        (code, last), elapsed, child = self.run_stand_in(
            "sleep 60 & echo $! > $PID_FILE; echo '{\"correct\": false}'; "
            "exit 3", timeout_s=30)
        self.assertEqual(code, 3)
        self.assertEqual(last.strip(), '{"correct": false}')
        self.assertLess(elapsed, 10)
        self.assertGone(child)


if __name__ == "__main__":
    unittest.main()
