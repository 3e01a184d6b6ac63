"""The eqflux names that the benchmark harness reads still resolve.

``perfbench/run.py --trace 1`` wraps the functions listed in
``tracer.TARGETS`` and runs the checks of ``checks.py`` on each operation, so
a rename in ``src/`` would break the traced benchmark run.  This test imports
both modules from ``perfbench/`` unchanged and drives them on a small run.
"""

import pathlib

import pytest

import eqflux
import eqflux.config
from eqflux import presets, run

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import tracer

    return tracer, checks


def test_tracer_targets_and_checks_resolve(bench):
    tracer, checks = bench
    specs = eqflux.config.specs_from_config(presets.preset_config("test3", n=4))
    t = tracer.Tracer()
    t.install()
    try:
        results = run.run_sweep(specs)
    finally:
        t.uninstall()
    assert t.counts[None]["mesh.located_points"] > 0
    assert not hasattr(eqflux.mesh.Mesh.locate_points, "__wrapped__")
    assert not hasattr(run.run_single, "__wrapped__")
    problems = checks.flux_problems(results, specs)
    assert 0.0 < checks.signature_share(problems) <= 1.0
    assert checks.certificate(problems)[0] == []


def test_traced_spd_calls_count_every_poisson_solve(bench):
    # A refined reference is solved by solve_spd too, so the traced count matches.
    tracer, _ = bench
    doc = presets.preset_config("test2-both", n=8)
    doc["reference"] = {"n": 8, "levels": 1}
    specs = eqflux.config.specs_from_config(doc)
    t = tracer.Tracer()
    t.install()
    try:
        run.run_sweep(specs)
    finally:
        t.uninstall()
    solves = sum(span[0] == "fem.solve_s" for span in t.spans)
    assert solves >= 2 and t.counts[None]["linalg.spd_calls"] == solves
