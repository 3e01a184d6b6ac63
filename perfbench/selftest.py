"""Self-tests of the benchmark's checks, inputs and tracer.

Usage: python3 -m unittest perfbench/selftest.py   (from the repository root)
"""

import copy
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run as bench  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from checks import certificate, flux_problems  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_RTOL,
    WORKLOADS,
    compare_values,
    unstructured_mesh,
)

from eqflux import config as cfg  # noqa: E402
from eqflux import run  # noqa: E402
from eqflux.mesh import Mesh, read_mesh, write_mesh  # noqa: E402
from eqflux.presets import preset_config  # noqa: E402


class GoldenTest(unittest.TestCase):
    def setUp(self):
        self.golden = json.loads(bench.GOLDEN.read_text())

    def test_every_workload_has_golden_rows(self):
        self.assertEqual(set(self.golden), set(WORKLOADS))

    def test_golden_matches_itself(self):
        for entry in self.golden.values():
            self.assertEqual(compare_values(entry["rows"], entry["rows"]), [])

    def test_perturbed_value_is_a_failure(self):
        want = self.golden["test2-refsweep"]["rows"]
        for key in ("eta_total", "eta_0", "eta_0_tilde", "error_energy", "effectivity", "h"):
            got = copy.deepcopy(want)
            got[1][key] *= 1 + 10 * GOLDEN_RTOL
            self.assertEqual(len(compare_values(got, want)), 1, key)
        got = copy.deepcopy(want)
        got[2]["features"]["2"] *= 1 + 10 * GOLDEN_RTOL
        self.assertEqual(len(compare_values(got, want)), 1)
        got = copy.deepcopy(want)
        got[0]["n_dof"] += 1
        self.assertEqual(len(compare_values(got, want)), 1)
        self.assertEqual(len(compare_values(want[:2], want)), 1)

    def test_round_off_within_tolerance_passes(self):
        want = self.golden["test3-lattice"]["rows"]
        got = copy.deepcopy(want)
        got[0]["eta_total"] *= 1 + 0.1 * GOLDEN_RTOL
        self.assertEqual(compare_values(got, want), [])

    def test_run_exits_nonzero_on_golden_mismatch(self):
        golden = copy.deepcopy(self.golden)
        golden["test3-lattice"]["rows"][0]["eta_total"] *= 1 + 1e-9
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "golden.json"
            path.write_text(json.dumps(golden))
            saved = bench.GOLDEN
            bench.GOLDEN = path
            try:
                code = bench.main(["--workload", "test3-lattice", "--seconds", "0"])
            finally:
                bench.GOLDEN = saved
        self.assertEqual(code, 1)


class UnstructuredMeshTest(unittest.TestCase):
    n = 16

    def mesh(self, seed):
        doc = preset_config("test3", n=self.n)
        return unstructured_mesh(self.n, seed, cfg.predicate_expression(doc["dirichlet"]))

    def test_deterministic_per_seed(self):
        a, b, c = self.mesh(5), self.mesh(5), self.mesh(6)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.triangles, b.triangles)
        self.assertFalse(np.array_equal(a.vertices, c.vertices))
        self.assertFalse(np.array_equal(a.triangles, c.triangles))

    def test_passes_mesh_validation_and_round_trips(self):
        for seed in range(4):
            m = self.mesh(seed)
            again = Mesh(m.vertices, m.triangles)  # positive areas, conforming
            self.assertEqual(again.n_edges, m.n_edges)
            m.validate_markers()
            self.assertAlmostEqual(m.total_area(), 1.0, places=12)
            with tempfile.TemporaryDirectory() as tmp:
                write_mesh(m, Path(tmp) / "m.json")
                back = read_mesh(Path(tmp) / "m.json")
            np.testing.assert_array_equal(back.vertices, m.vertices)
            self.assertEqual(back.edge_markers, m.edge_markers)

    def test_moves_only_interior_vertices_within_bound(self):
        m = self.mesh(3)
        lattice = np.rint(m.vertices * self.n) / self.n
        shift = np.abs(m.vertices - lattice).max(axis=1)
        on_hull = np.any((lattice == 0) | (lattice == 1), axis=1)
        self.assertTrue(np.all(shift[on_hull] == 0))
        self.assertTrue(np.all(shift[~on_hull] <= 0.2 / self.n))
        self.assertTrue(np.all(shift[~on_hull] > 0))


class CertificateTest(unittest.TestCase):
    def test_detects_broken_equilibration(self):
        doc = preset_config("test2-pos", n=8, eps=0.25)
        doc["reference"] = None
        specs = cfg.specs_from_config(doc)
        results = run.run_sweep(specs)
        problems = flux_problems(results, specs)
        self.assertEqual(len(problems), 2)  # simplified domain and the bump
        failures, _ = certificate(problems)
        self.assertEqual(failures, [])
        fl = problems[1][1]
        fl.coefficients[len(fl.coefficients) // 2] += 1e-3
        failures, _ = certificate(problems)
        self.assertTrue(any("feature" in f for f in failures))


class SpeedProbeTest(unittest.TestCase):
    def test_samples_during_work_and_excludes_own_time(self):
        with speed.SpeedProbe() as probe:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                sum(range(1000))
            wall = time.perf_counter() - t0
        self.assertGreaterEqual(len(probe.samples), 5)
        own = sum(probe.samples)
        self.assertAlmostEqual(probe.nominal(wall),
                               (wall - own) * speed.speed_factor(probe.samples))


class TracerTest(unittest.TestCase):
    def test_wraps_by_value_imports_and_restores(self):
        import eqflux.flux
        import eqflux.mesh

        originals = (run.uniform_refine, run.clip_curve_to_mesh, eqflux.flux.vertex_patches,
                     eqflux.mesh.Mesh.__init__)
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(run.uniform_refine, originals[0])
            self.assertIsNot(run.clip_curve_to_mesh, originals[1])
            self.assertIsNot(eqflux.flux.vertex_patches, originals[2])
            self.assertIs(run.uniform_refine, eqflux.mesh.uniform_refine)
            t.op = 0
            with t.span(tracer.ROOT):
                run.run_sweep(cfg.specs_from_config(preset_config("test3", n=4)))
        finally:
            t.uninstall()
        self.assertEqual((run.uniform_refine, run.clip_curve_to_mesh,
                          eqflux.flux.vertex_patches, eqflux.mesh.Mesh.__init__), originals)
        m = t.op_metrics(0)
        self.assertEqual(m["flux.patches"], 25)
        self.assertEqual(m["linalg.dense_calls"], 25)
        self.assertGreater(m["geometry.curve_nodes"], 0)
        self.assertGreater(m["flux.reconstruct_s"],
                           m["flux.assemble_s"] + m["mesh.patches_s"])
        self.assertLess(m["trace.gap_frac"], 0.05)

    def test_metric_names_match_benchmark_json(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(bench.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         bench.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
