"""Self-tests of the benchmark itself (seconds-long sizes).

    python3 bench/selftest.py

- every workload runs at smoke size, passes its checks and prints every
  end-to-end metric of ``BENCHMARK.json``;
- a perturbed CLI result is counted as failed, not passed;
- the traced run prints every per-layer metric, and its ``*_per_op`` counts
  are identical across two runs;
- outside a full checkout the benchmark exits non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def bench(workload, seed, trace, cwd=run.ROOT):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_at_smoke_size(self):
        names = {m["name"] for m in BENCH["end_to_end"]}
        self.assertEqual({w["name"] for w in BENCH["workloads"]}, set(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                res = result_of(bench(workload, 3, 0))
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]), names)
                for name, metric in res["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)


class PerturbedResultTest(unittest.TestCase):
    """A check must count a damaged report as failed operations."""

    def setUp(self):
        self.work = os.path.join(run.WORK, "selftest")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = run.child_env()

    def cli(self, cmd):
        _, code, _ = run.spawn([sys.executable, "-c", run.ENTRY, *cmd.args], self.env,
                               os.path.join(self.work, cmd.label + ".err"))
        return code

    def rewrite(self, path, edit):
        with open(path) as f:
            report = json.load(f)
        edit(report)
        with open(path, "w") as f:
            json.dump(report, f)

    def test_curvature_rows(self):
        cmd = workloads.plan_sweep4d(5, self.work, smoke=True).timed[0]
        code = self.cli(cmd)
        self.assertEqual(cmd.check(code, cmd.out), 0)
        self.assertEqual(cmd.check(1, cmd.out), cmd.ops)  # traceback exit

        def bad_cross(report):
            report["per_point"][3]["cross_check_max"] = 1e-3

        self.rewrite(cmd.out, bad_cross)
        self.assertEqual(cmd.check(code, cmd.out), 1)

        def drop_rows(report):
            del report["per_point"][:2]

        self.rewrite(cmd.out, drop_rows)
        self.assertEqual(cmd.check(code, cmd.out), 3)

        def drop_key(report):
            del report["per_point"][0]["connection_torsion"]

        self.rewrite(cmd.out, drop_key)
        self.assertEqual(cmd.check(code, cmd.out), 4)

    def test_fd_sample_disagreement(self):
        plan = workloads.plan_sweep4d(6, self.work, smoke=True)
        timed, fd = plan.timed[0], plan.untimed[0]
        self.cli(timed)
        code = self.cli(fd)
        self.assertEqual(fd.check(code, fd.out), 0)

        def shift(report):
            for row in report["per_point"]:
                row["scalar_curvature"] += 1e-2

        self.rewrite(timed.out, shift)
        self.assertEqual(fd.check(code, fd.out), fd.ops)

    def test_gauge_rows(self):
        cmd = workloads.plan_fiber2d(7, self.work, smoke=True).timed[0]
        code = self.cli(cmd)
        self.assertEqual(cmd.check(code, cmd.out), 0)

        def bad_row(report):
            report["per_point"][0]["gauge_covariance_residual"] = 1e-4

        self.rewrite(cmd.out, bad_row)
        self.assertEqual(cmd.check(code, cmd.out), 1)

        def no_rows(report):
            del report["per_point"]

        self.rewrite(cmd.out, no_rows)
        self.assertEqual(cmd.check(code, cmd.out), cmd.ops)

    def test_cold_commands(self):
        plan = workloads.plan_cold_cmds(8, self.work, smoke=True)
        for cmd in plan.timed:
            code = self.cli(cmd)
            self.assertEqual(cmd.check(code, cmd.out), 0, cmd.label)
        lift = plan.timed[2]

        def bad_final(report):
            report["paths"][1]["final"][0][0] += 1e-5

        self.rewrite(lift.out, bad_final)
        self.assertEqual(lift.check(0, lift.out), 1)
        ident = plan.timed[1]

        def bad_residual(report):
            report["max_residual"] = 1e-9

        self.rewrite(ident.out, bad_residual)
        self.assertEqual(ident.check(0, ident.out), 1)


class TraceTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        names = {m["name"] for m in BENCH["per_layer"]}
        for workload in ("sweep4d", "sweep3d_fd", "fiber2d"):
            with self.subTest(workload=workload):
                first = result_of(bench(workload, 1, 1))["metrics"]
                second = result_of(bench(workload, 2, 1))["metrics"]
                self.assertEqual(set(first), names)
                counts = [n for n, m in first.items()
                          if m["unit"] == "count" and n.endswith("_per_op")]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)


class BareDirectoryTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = os.path.join(run.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = bench("sweep4d", 1, 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
