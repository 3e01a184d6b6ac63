"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expensive solves are
shared through module-scoped fixtures.  Criteria are asserted exactly at
their stated tolerances.
"""

import time

import numpy as np
import pytest

from eqflux import config as cfg
from eqflux import fem, flux
from eqflux.geometry import (
    NEGATIVE_INTERNAL,
    DomainSpec,
    FeatureSpec,
    rect_polygon,
    regular_polygon,
)
from eqflux.mesh import generate_unit_square
from eqflux.presets import TEST3_FEATURES, preset_config
from eqflux.run import ReferenceSpec, RunSpec, run_single, run_sweep


def _line(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    return ok


def _sinsin_domain():
    return DomainSpec(
        f=lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    )


def _norm_of(fn, mesh):
    pts = fem.quad_points(mesh)
    vals = np.array([[fn(p[0], p[1]) for p in row] for row in pts])
    return float(np.sqrt(np.einsum("t,q,tq,tq->", mesh.areas, fem.TRI_QW, vals, vals)))


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def test3_reports():
    out = {}
    for n in (16, 32, 64):
        doc = preset_config("test3", n=n)
        (res,) = run_sweep(cfg.specs_from_config(doc))
        out[n] = res.report
    return out


def _analog_spec(n, side, ref_n, run_id, levels=2):
    half = side / 2
    feat = FeatureSpec(
        id=1,
        kind=NEGATIVE_INTERNAL,
        polygon=rect_polygon(0.5 - half, 0.5 + half, 0.5 - half, 0.5 + half),
    )
    dom = DomainSpec(f=lambda x, y: x, dirichlet=None, features=[feat])
    return RunSpec(
        domain=dom,
        include=[False],
        n=n,
        reference=ReferenceSpec(levels=levels, n=ref_n),
        eps=[side],
        run_id=run_id,
    )


@pytest.fixture(scope="module")
def analog_sweep():
    """h x eps sweep of the square-hole analog of the first study."""
    rows = [
        (8, 0.25, None, 2),
        (16, 0.25, None, 2),
        (32, 0.25, None, 2),
        (64, 0.25, None, 2),
        (16, 0.125, None, 2),
        (32, 0.125, None, 2),
        (64, 0.125, None, 2),
        (32, 0.0625, None, 2),
        (64, 0.0625, None, 2),
        (8, 0.015625, 128, 1),
        (16, 0.015625, 128, 1),
    ]
    specs = [
        _analog_spec(n, s, rn, f"analog-{k:03d}", levels)
        for k, (n, s, rn, levels) in enumerate(rows)
    ]
    results = run_sweep(specs)
    return [(rows[k][0], rows[k][1], r.report) for k, r in enumerate(results)]


# ---------------------------------------------------------------- criteria


def test_01_equilibration_suite():
    t0 = time.monotonic()
    problems = [("sinsin", None)]
    problems += [(name, None) for name in ("test1", "test2-neg", "test2-pos", "test3")]
    worst_div, worst_neu, worst_jump = 0.0, 0.0, 0.0
    for name, _ in problems:
        for n in (8, 16, 32):
            if name == "sinsin":
                spec = RunSpec(domain=_sinsin_domain(), include=[], n=n)
            else:
                doc = preset_config(name, n=n)
                doc["reference"] = None
                (spec,) = cfg.specs_from_config(doc)
            mesh = generate_unit_square(n, spec.domain.dirichlet)
            data = fem.project_data(spec.domain, mesh, include=spec.include)
            u0 = fem.solve_poisson(mesh, data)
            fl = flux.reconstruct_flux(u0, data)
            fnorm = _norm_of(spec.domain.f, mesh) if callable(spec.domain.f) else abs(
                spec.domain.f or 0.0
            )
            gnorm = float(np.abs(data.gn_proj).max()) if len(data.gn_proj) else 0.0
            assert flux.flux_divergence_defect(fl, data).max() <= 1e-9 * (1 + fnorm)
            assert flux.neumann_trace_defect(fl, data) <= 1e-9 * (1 + gnorm)
            assert flux.interior_jump(fl) <= 1e-10
            worst_div = max(worst_div, flux.flux_divergence_defect(fl, data).max())
            worst_neu = max(worst_neu, flux.neumann_trace_defect(fl, data))
            worst_jump = max(worst_jump, flux.interior_jump(fl))
            if name == "test2-pos":
                feat = spec.domain.features[0]
                from eqflux.geometry import feature_mesh

                fm = feature_mesh(feat, n, spec.domain)
                fdata = fem.feature_problem_data(feat, u0, fm, forcing=spec.domain.f)
                ut = fem.solve_poisson(fm, fdata)
                flt = flux.reconstruct_flux(ut, fdata)
                assert flux.flux_divergence_defect(flt, fdata).max() <= 1e-9 * 2
                assert flux.neumann_trace_defect(flt, fdata) <= 1e-9
                assert flux.interior_jump(flt) <= 1e-10
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    _line(
        1,
        ok,
        f"equilibration: div<={worst_div:.1e}, neumann<={worst_neu:.1e}, "
        f"jump<={worst_jump:.1e}, runtime {elapsed:.1f}s < 60s",
    )
    assert ok


def test_02_eta0_sharpness():
    effs = []
    for n in (16, 32, 64):
        spec = RunSpec(
            domain=_sinsin_domain(),
            include=[],
            n=n,
            reference=ReferenceSpec(levels=2, per_row=True),
            run_id=f"sharp-{n}",
        )
        res = run_single(spec)
        effs.append(res.report.effectivity)
    ok = all(0.98 <= e <= 1.2 for e in effs)
    _line(2, ok, f"eta_0 sharpness: effectivities {[round(e, 4) for e in effs]} in [0.98, 1.2]")
    assert ok


def test_03_eta0_converges_linearly():
    doc = preset_config("test1")
    hs, etas = [], []
    for n in (8, 16, 32, 64):
        doc["mesh"]["builtin"] = n
        (spec,) = cfg.specs_from_config(doc)
        res = run_single(spec)
        hs.append(res.report.h)
        etas.append(res.report.eta_0)
    slope = float(np.polyfit(np.log(hs), np.log(etas), 1)[0])
    ok = 0.9 <= slope <= 1.1
    _line(3, ok, f"eta_0 = O(h): least-squares slope {slope:.3f} in [0.9, 1.1]")
    assert ok


def test_04_eta_gamma_mesh_independence(test3_reports):
    variations = {}
    for fid in range(1, 6):
        vals = [test3_reports[n].per_feature[fid].eta_gamma for n in (16, 32, 64)]
        variations[fid] = max(vals) / min(vals) - 1.0
    detail = ", ".join(f"F{f}: {100 * v:.1f}%" for f, v in variations.items())
    ok = all(v <= 0.02 for v in variations.values())
    _line(4, ok, f"eta_gamma variation across n in (16, 32, 64): {detail} (<= 2%)")
    assert ok


def test_05_multi_feature_reference_values(test3_reports):
    expected = {1: 0.147, 2: 0.050, 3: 0.008, 4: 0.026, 5: 0.036}
    rep = test3_reports[64]
    vals = {fid: rep.per_feature[fid].eta_gamma for fid in expected}
    within = {fid: abs(vals[fid] / expected[fid] - 1.0) <= 0.15 for fid in expected}
    gamma_ok = abs(rep.eta_gamma / 0.162 - 1.0) <= 0.15
    order = sorted(vals, key=vals.get, reverse=True)
    ranking_ok = order == [1, 2, 5, 4, 3]
    detail = ", ".join(
        f"F{f}={vals[f]:.4f}/{expected[f]:.3f}{'' if within[f] else ' !'}"
        for f in expected
    )
    ok = all(within.values()) and gamma_ok and ranking_ok
    _line(
        5,
        ok,
        f"reference values +-15%: {detail}; combined {rep.eta_gamma:.4f}/0.162"
        f"{'' if gamma_ok else ' !'}; ranking {'ok' if ranking_ok else 'broken'}",
    )
    assert ranking_ok, "feature relevance ranking must hold exactly"
    assert gamma_ok, "combined defeaturing estimator outside +-15%"
    assert all(within.values()), f"per-feature values outside +-15%: {detail}"


def test_06_effectivity_regimes(analog_sweep):
    effs = [rep.effectivity for (_, _, rep) in analog_sweep]
    in_band = all(1.0 <= e <= 4.0 for e in effs)
    dominated = [
        rep
        for (_, _, rep) in analog_sweep
        if rep.eta_0 >= 10.0 * rep.eta_gamma
    ]
    dominated_ok = all(rep.effectivity <= 1.3 for rep in dominated)
    ok = in_band and dominated_ok and len(dominated) >= 1
    _line(
        6,
        ok,
        f"effectivity in [{min(effs):.2f}, {max(effs):.2f}] (band [1.0, 4.0]); "
        f"{len(dominated)} numerics-dominated rows, all <= 1.3: {dominated_ok}",
    )
    assert in_band
    assert len(dominated) >= 1, "sweep must contain a numerics-dominated row"
    assert dominated_ok


def test_07_plateau_behavior(analog_sweep):
    col = {n: rep for (n, s, rep) in analog_sweep if s == 0.25}
    fine, coarse = col[64], col[32]
    assert fine.eta_gamma >= 5.0 * fine.eta_0, "defeaturing must dominate"
    err_drop = 1.0 - fine.error_energy / coarse.error_energy
    eta0_drop = 1.0 - fine.eta_0 / coarse.eta_0
    ok = err_drop <= 0.10 and eta0_drop >= 0.35
    _line(
        7,
        ok,
        f"plateau: error drop {100 * err_drop:.1f}% <= 10%, "
        f"eta_0 drop {100 * eta0_drop:.1f}% >= 35%",
    )
    assert ok


def _test3_analog_spec(n, include_f1, run_id):
    feats = [
        FeatureSpec(
            id=1, kind=NEGATIVE_INTERNAL, polygon=rect_polygon(3 / 32, 4 / 32, 3 / 32, 4 / 32)
        )
    ]
    for k, (c, r) in enumerate(TEST3_FEATURES[1:], start=2):
        feats.append(
            FeatureSpec(id=k, kind=NEGATIVE_INTERNAL, polygon=regular_polygon(c, r, 16))
        )
    dom = DomainSpec(
        f=0.0,
        dirichlet=lambda x, y: abs(x) < 1e-12 or abs(y) < 1e-12,
        g_dirichlet=lambda x, y: np.exp(-8 * (x + y)),
        features=feats,
    )
    return RunSpec(
        domain=dom, include=[include_f1] + [False] * 4, n=n, run_id=run_id
    )


def test_08_feature_inclusion_beats_refinement():
    totals = {}
    for n in (32, 64):
        for inc in (False, True):
            res = run_single(_test3_analog_spec(n, inc, f"incl-{n}-{inc}"))
            totals[(n, inc)] = res.report.eta_total
    base = totals[(32, False)]
    refine_drop = 1.0 - totals[(64, False)] / base
    include_drop = 1.0 - totals[(64, True)] / base
    ok = refine_drop <= 0.25 and include_drop >= 0.45
    _line(
        8,
        ok,
        f"refinement alone drops eta_tot by {100 * refine_drop:.1f}% (<= 25%); "
        f"including the dominant feature drops it by {100 * include_drop:.1f}% (>= 45%)",
    )
    assert ok


def test_09_positive_feature_bound():
    rows = [(10, 0.2), (20, 0.2), (40, 0.2), (80, 0.2), (40, 0.05), (80, 0.05)]
    specs = []
    for k, (n, eps) in enumerate(rows):
        doc = preset_config("test2-pos", n=n, eps=eps)
        (spec,) = cfg.specs_from_config(doc)
        spec.run_id = f"pos-{k:03d}"
        specs.append(spec)
    results = run_sweep(specs)
    effs = [r.report.effectivity for r in results]
    ok = all(1.0 <= e <= 3.0 for e in effs)
    _line(
        9,
        ok,
        f"positive-feature effectivities {[round(e, 3) for e in effs]} in [1.0, 3.0]",
    )
    assert ok


def test_10_linear_exactness_degenerate():
    worst = {"eta_0": 0.0, "eta_gamma": 0.0}
    for n in (5, 9):
        hole = FeatureSpec(
            id=1,
            kind=NEGATIVE_INTERNAL,
            polygon=regular_polygon((0.55, 0.45), 0.13, 16),
            neumann_g=lambda x, y, nx, ny: 2 * nx + 3 * ny,
        )
        dom = DomainSpec(
            f=0.0,
            dirichlet=None,
            g_dirichlet=lambda x, y: 1 + 2 * x + 3 * y,
            features=[hole],
        )
        res = run_single(RunSpec(domain=dom, include=[False], n=n, run_id=f"lin-{n}"))
        worst["eta_0"] = max(worst["eta_0"], res.report.eta_0)
        worst["eta_gamma"] = max(worst["eta_gamma"], res.report.eta_gamma)
    ok = worst["eta_0"] <= 1e-10 and worst["eta_gamma"] <= 1e-10
    _line(
        10,
        ok,
        f"linear exactness: eta_0 <= {worst['eta_0']:.1e}, "
        f"eta_gamma <= {worst['eta_gamma']:.1e} (both <= 1e-10)",
    )
    assert ok
