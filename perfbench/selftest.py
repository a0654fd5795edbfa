"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 perfbench/selftest.py

They check that the printed metric names are the ones ``BENCHMARK.json``
declares, that the seed changes the inputs of the seeded workloads and
leaves ``paper_figures`` alone, that traced and untraced passes give
identical fingerprints, that the tracer patches every import site and
restores it, and that the command fails without the program.  About two
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


class MetricNames(unittest.TestCase):
    def test_declared_names_match_the_code(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], list(tracer.PER_LAYER))
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, list(run.WORKLOAD_NAMES))
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))

    def test_printed_names_and_units(self):
        for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            code, out = _bench("--workload", "fleet_hetero", "--seed", "5",
                               "--seconds", "1", "--trace", trace)
            self.assertEqual(code, 0)
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            printed = {k: v["unit"] for k, v in out["metrics"].items()}
            self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})


class Seeds(unittest.TestCase):
    def test_seed_changes_seeded_inputs_only(self):
        for name, wl in workloads.WORKLOADS.items():
            a, b, a2 = wl.input_digest(1), wl.input_digest(2), wl.input_digest(1)
            self.assertEqual(a, a2, name)
            if wl.seeded:
                self.assertNotEqual(a, b, name)
            else:
                self.assertEqual(a, b, name)


class Tracing(unittest.TestCase):
    def test_traced_pass_matches_untraced_and_restores(self):
        wl = workloads.WORKLOADS["fleet_stream"]
        wl.HORIZON_S = 30.0  # a short day keeps the in-process test quick

        def fingerprint():
            ctx = wl.setup(7)
            return workloads.digest(wl.read(ctx, wl.run(ctx)))

        plain = fingerprint()
        t = tracer.Tracer()
        t.install()
        try:
            from repro.core import scheduler as core_scheduler
            from repro.serving import scheduler as serving_scheduler

            # Import sites, not only the defining module, hold the wrapper.
            for mod, attr in ((core_scheduler, "choose_execution"),
                              (serving_scheduler, "choose_execution"),
                              (workloads, "mix_request_stream"),
                              (workloads, "node_capacity_rps")):
                self.assertTrue(hasattr(getattr(mod, attr), tracer.MARK), f"{mod.__name__}.{attr}")
            t.pass_id = "pass"
            traced = fingerprint()
        finally:
            t.uninstall()
            del wl.HORIZON_S
        self.assertEqual(plain, traced)
        tracer.assert_unwrapped()
        self.assertFalse(hasattr(workloads.mix_request_stream, tracer.MARK))
        m = t.metrics()
        self.assertGreater(m["cluster.router.calls"], 0)
        self.assertGreater(m["sim.stats.sketch_adds"], 0)
        self.assertEqual(m["sim.fast.fallback.presorted-stream"], 1)

    def test_traced_run_compares_fingerprints(self):
        code, out = _bench("--workload", "fleet_stream", "--seed", "3",
                           "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(out["correct"])
        self.assertEqual(out["metrics"]["sim.fast.engaged"]["value"], 0)
        self.assertEqual(out["metrics"]["core.plan_gemm.calls"]["value"], 0)


class Checkout(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, root / p, ignore=shutil.ignore_patterns("out"))
            code, out = _bench("--workload", "fleet_hetero", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=root)
        self.assertNotEqual(code, 0)
        self.assertIsNone(out)


if __name__ == "__main__":
    unittest.main()
