"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench -p 'test_*.py'

They run the real driver on short runs, so they take about a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

from inputs import BENCH, ROOT, SRC, WORKLOADS, child_env

sys.path.insert(0, SRC)


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", args[0]), *args[1:]],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=600,
    )


class FixtureTest(unittest.TestCase):
    def test_fixtures_parse_and_extend_korteweg(self):
        from liukit.jet import JetVariable
        from liukit.models import load_builtin

        base = load_builtin("korteweg")
        for inp in WORKLOADS["stress-derive"]:
            model, _ = inp.load()
            added = set(model.space.members) - set(base.space.members)
            self.assertEqual(len(added), 1, inp.name)
            (jet,) = added
            self.assertIn(jet, (JetVariable("eps", 0, 2), JetVariable("rho", 0, 3)))
            self.assertEqual(model.space.order, max(2, jet.x_order))
            for u in model.unknowns:
                self.assertIn(jet, u.deps)
            self.assertEqual([law.name for law in model.laws], [law.name for law in base.laws])


class TraceTest(unittest.TestCase):
    def test_two_traced_runs_give_identical_counters(self):
        index = [i.name for i in WORKLOADS["builtin-derive"]].index("korteweg")
        outs = []
        for _ in range(2):
            proc = _run(["probe.py", "traced", str(index), "builtin-derive", "3"])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            outs.append(json.loads(proc.stdout))
        self.assertEqual(outs[0]["counts"], outs[1]["counts"])
        self.assertEqual(outs[0]["sha256"], outs[1]["sha256"])
        self.assertGreater(outs[0]["counts"]["expr.p_mul_calls"], 0)


class DriverTest(unittest.TestCase):
    def _result(self, trace: int) -> dict:
        proc = _run(["run.py", "--workload", "builtin-derive", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertIn("detail", json.loads(lines[-2]))
        return json.loads(lines[-1])

    def _assert_metrics(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        result = self._result(0)
        self._assert_metrics(result, _bench_spec()["end_to_end"])
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        self._assert_metrics(self._result(1), _bench_spec()["per_layer"])

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = _run(["run.py", "--workload", "builtin-derive", "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
