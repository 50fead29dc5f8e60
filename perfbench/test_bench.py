#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py            # everything (~2 minutes)
    python3 perfbench/test_bench.py Corpus     # generator tests only

Run from the repository root. The traced tests build and drive the
release binaries exactly as `run.py` does.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import corpus  # noqa: E402
import layers  # noqa: E402


def run_bench(*args, cwd=ROOT):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None), r.stderr


class Corpus(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(corpus.digest(corpus.ring_corpus(7)), corpus.digest(corpus.ring_corpus(7)))
        self.assertEqual(corpus.digest(corpus.ServeCorpus(7).working_set()),
                         corpus.digest(corpus.ServeCorpus(7).working_set()))

    def test_seeds_differ(self):
        self.assertNotEqual(corpus.digest(corpus.ring_corpus(1)),
                            corpus.digest(corpus.ring_corpus(2)))
        self.assertNotEqual(corpus.digest(corpus.kstate_corpus(1)),
                            corpus.digest(corpus.kstate_corpus(2)))

    def test_shapes_fixed_per_seed(self):
        def shapes(specs):
            return sorted(json.dumps(s.shape, sort_keys=True) for s in specs)
        self.assertEqual(shapes(corpus.ring_corpus(1)), shapes(corpus.ring_corpus(2)))
        self.assertEqual(shapes(corpus.kstate_corpus(1)), shapes(corpus.kstate_corpus(2)))

    def test_planted_checks(self):
        for seed in (1, 2, 3):
            ring = corpus.ring_corpus(seed)
            self.assertEqual(sum(bool(s.false_checks()) for s in ring), 2)
            ks = corpus.kstate_corpus(seed)
            self.assertEqual(sum(bool(s.false_checks()) for s in ks), 1)

    def test_serve_working_set(self):
        c = corpus.ServeCorpus(1)
        work = c.working_set()
        self.assertEqual(len(work), 48)
        flat = {s.text.split("spec ")[0] for s in work if not s.compositional}
        self.assertEqual(len(flat), corpus.SERVE_FLAT)
        self.assertGreater(corpus.SERVE_FLAT, 32, "must exceed the daemon's memory layer")
        # A check-line edit keeps the program text.
        for a, b in c.flat:
            self.assertEqual(a.text.split("spec ")[0], b.text.split("spec ")[0])
            self.assertNotEqual(a.text, b.text)
        # A grid edit changes exactly one component.
        base = c.grids[0].text.split("program ")
        edit = c.grid_edit(0, 1, "_t").text.split("program ")
        self.assertEqual(sum(x != y for x, y in zip(base, edit)), 1)


class Traced(unittest.TestCase):
    """Two traced runs on one seed repeat every deterministic count."""

    def check_workload(self, workload):
        runs = []
        for _ in range(2):
            code, result, err = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                          "--trace", "1")
            self.assertEqual(code, 0, err[-3000:])
            self.assertTrue(result["correct"], err[-3000:])
            runs.append({k: result["metrics"][k]["value"] for k in layers.DETERMINISTIC})
        self.assertEqual(runs[0], runs[1])
        return runs[0]

    def test_check_ring_counts_repeat(self):
        m = self.check_workload("check-ring")
        self.assertEqual(m["transition.states"], corpus.RING_CORPUS * corpus.RING_STATES)
        self.assertEqual(m["transition.edges"], corpus.RING_CORPUS * corpus.RING_TRANSITIONS)

    def test_check_symbolic_counts_repeat(self):
        m = self.check_workload("check-symbolic")
        self.assertEqual(m["transition.states"], 0)
        self.assertGreater(m["symbolic.peak_nodes"], 0)

    def test_serve_session_counts_repeat(self):
        m = self.check_workload("serve-session")
        self.assertEqual(m["transition.states"], 0, "no build in the timed phase")
        self.assertGreater(m["compositional.cert_hit_ratio"], 0)
        self.assertGreater(m["store.bytes_written"], 0)


class Hygiene(unittest.TestCase):
    def test_refuses_without_sources(self):
        """Only BENCHMARK.json and perfbench/: exit non-zero, no result."""
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            code, result, _ = run_bench("--workload", "check-ring", "--seed", "1", "--seconds",
                                        "1", "--trace", "0", cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
