"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest bench`` or
``python3 -m unittest discover -s bench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (gen.long_seq_corpus, gen.short_seq_corpus, gen.mine_log_corpus):
            with self.subTest(make.__name__):
                self.assertEqual(make(7), make(7))
                self.assertNotEqual(make(7), make(8))

    def test_every_malformed_class_is_generated(self):
        kinds = [r["kind"] for r in gen.short_seq_corpus(3)]
        for kind in gen.MALFORMED_CLASSES:
            self.assertEqual(kinds.count(kind), gen.MALFORMED_PER_CLASS, kind)

    def test_log_labels_are_the_templates_the_miner_sees(self):
        import rpusim

        log = gen.mine_log(5, 1200)
        lines = log["log"].splitlines()
        self.assertEqual(len(lines), len(log["labels"]))
        planted = [(line, label) for line, label in zip(lines, log["labels"]) if label != "noise"]
        self.assertTrue(planted)
        for line, label in planted:
            self.assertEqual(rpusim.fingerprint(line.split("\t")[1]), label)


class HelperTest(unittest.TestCase):
    def test_percentile(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(run.percentile(list(range(1, 11)), 90), 9.1)
        self.assertEqual(run.percentile([1, 2, 3], 0), 1)
        self.assertEqual(run.percentile([1, 2, 3], 100), 3)
        self.assertEqual(run.percentile([7.5], 90), 7.5)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_scaling_exponent(self):
        self.assertAlmostEqual(run.scaling_exponent([(n, 3 * n * n) for n in (10, 100, 1000)]), 2.0)
        self.assertEqual(run.scaling_exponent([(5, 1.0), (5, 2.0)]), 0.0)

    def test_self_times_sum_to_root_span(self):
        tracer = tracing.Tracer()
        inner = tracer._wrap("inner", lambda: sum(range(1000)))
        outer = tracer._wrap("outer", lambda: [inner() for _ in range(3)])
        tracer.request(0, outer)
        tracer.request(1, inner)
        self.assertTrue(tracer.roots_balance())
        self.assertEqual(tracer.span_counts()[("inner", "outer")], 3)


class EndToEndTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}

    def check_output(self, proc: subprocess.CompletedProcess, trace: int) -> str:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(sorted(result["metrics"]), sorted(self.names[trace]))
        printed = [line.split()[1] for line in lines if line.startswith("metric ")]
        self.assertEqual(sorted(printed), sorted(self.names[trace]))
        for name in printed:
            self.assertRegex(name, NAME)
        return next(line for line in lines if line.startswith("digest "))

    def test_metrics_named_in_benchmark_json_and_digest_repeats(self):
        first = self.check_output(bench("mine-log", 4, 0), 0)
        second = self.check_output(bench("mine-log", 4, 1), 1)
        self.assertEqual(first, second)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("long-seq", 1, 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip())


if __name__ == "__main__":
    unittest.main()
