"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny_run(name: str, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(name, seed=3, seconds=0, trace=trace, tiny=True)
    return result, out.getvalue()


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, result: dict, printed: str, declared: list[dict]):
        self.assertEqual([m["name"] for m in declared], list(result["metrics"]))
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(m["unit"], got["unit"], m["name"])
            self.assertTrue(
                any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                    for line in printed.splitlines()),
                f"{m['name']} is not printed with its unit",
            )

    def test_workloads_run_tiny_and_print_every_metric(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, printed = tiny_run(name, trace=False)
                self.assertTrue(result["correct"])
                self.assertEqual(0, result["failed"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_metrics(result, printed, SPEC["end_to_end"])
                self.assertIn("fail_frac 0 ratio", printed)

    def test_traced_counts_repeat_exactly(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, printed = tiny_run(name, trace=True)
                second, _ = tiny_run(name, trace=True)
                self.assertTrue(first["correct"])
                self.assert_metrics(first, printed, SPEC["per_layer"])
                self.assertIn("tracing overhead", printed)
                counts = [n for n, m in first["metrics"].items()
                          if m["unit"] in ("count", "ratio") and not n.startswith("trace.")]
                for n in counts:
                    self.assertEqual(first["metrics"][n]["value"],
                                     second["metrics"][n]["value"], n)

    def test_fixed_seed_gives_identical_inputs(self):
        def inputs(name, seed):
            workdir = tempfile.mkdtemp()
            try:
                cmds = workloads.WORKLOADS[name].make_pass(seed, workdir, False)
                # the involution path (argv[4]) names a temporary directory
                return [(c.argv[:4] + c.argv[5:], c.expect) for c in cmds]
            finally:
                shutil.rmtree(workdir)

        for name in ("wide_middle", "palindrome_g23"):
            with self.subTest(workload=name):
                self.assertEqual(inputs(name, 11), inputs(name, 11))
                self.assertNotEqual(inputs(name, 11), inputs(name, 12))

    def test_gauge_ticks_inside_a_command_are_not_its_time(self):
        workload = workloads.WORKLOADS["palindrome_g23"]
        gauge = worker.Gauge()

        def ticking_main(argv):
            for _ in range(40):
                gauge.tick()
            return eqsurg_main(argv)

        import eqsurg.cli

        eqsurg_main = eqsurg.cli.main
        workdir = tempfile.mkdtemp()
        try:
            cmds = workload.make_pass(5, workdir, True)[:4]
            res = worker.execute(workload, cmds, ticking_main, seconds=0, once=True,
                                 gauge=gauge)
        finally:
            shutil.rmtree(workdir)
        self.assertEqual(0, res["failed"])
        self.assertEqual(4 * 41, gauge.ticks)
        # 40 ticks take about 10 ms; one tiny palindrome command far less
        self.assertLess(max(res["latency_s"]), 40 * gauge.spent / gauge.ticks)

    def test_tampered_output_counts_as_failure(self):
        import eqsurg.cli

        workload = workloads.WORKLOADS["palindrome_g23"]
        calls: dict[tuple, int] = {}

        def tamper_matrix(argv):
            # flip the sign of the first exponent: a valid but wrong product
            argv[-1] = re.sub(r"\^(-?\d+)", lambda m: f"^{-int(m[1])}", argv[-1], count=1)
            return eqsurg.cli.main(argv)

        def tamper_rerun(argv):
            code = eqsurg.cli.main(argv)
            calls[tuple(argv)] = calls.get(tuple(argv), 0) + 1
            if calls[tuple(argv)] == 2:
                print(" ")  # same command, different bytes
            return code

        workdir = tempfile.mkdtemp()
        try:
            cmds = workload.make_pass(5, workdir, True)
            res = worker.execute(workload, cmds, tamper_matrix, seconds=0)
            self.assertEqual(res["attempted"], res["failed"])
            res = worker.execute(workload, cmds, tamper_rerun, seconds=0)
            self.assertEqual(worker.RERUN, res["failed"])
        finally:
            shutil.rmtree(workdir)


if __name__ == "__main__":
    unittest.main()
