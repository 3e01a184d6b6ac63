"""Integration tests of the run orchestration layer."""

import copy
from unittest import mock

import numpy as np
import pytest

from eqflux import config as cfg
from eqflux import fem, flux, geometry, run
from eqflux.flux import EquilibrationError
from eqflux.geometry import (
    NEGATIVE_BOUNDARY,
    NEGATIVE_INTERNAL,
    DomainSpec,
    FeatureSpec,
    partition_feature_boundary,
    rect_polygon,
)
from eqflux.mesh import Mesh, generate_unit_square, write_mesh
from eqflux.presets import preset_config
from eqflux.run import ReferenceSpec, RunSpec, emit_vtk, report_csv_row, run_single, run_sweep


def dirichlet_x01(x, y):
    return abs(x) < 1e-12 or abs(x - 1) < 1e-12


class TestRunSingle:
    def test_notch_defeaturing_dominated_effectivity(self):
        # top notch, eps = 0.2, n = 40, reference two levels finer
        doc = preset_config("test2-neg", n=40)
        (spec,) = cfg.specs_from_config(doc)
        res = run_single(spec)
        rep = res.report
        assert rep.eta_gamma > rep.eta_0  # defeaturing dominates
        assert 1.0 <= rep.effectivity <= 3.0

    def test_mixed_features_combined_estimator(self):
        doc = preset_config("test2-both", n=20)
        (spec,) = cfg.specs_from_config(doc)
        res = run_single(spec)
        rep = res.report
        neg = rep.per_feature[1]
        pos = rep.per_feature[2]
        expect_gamma = np.hypot(neg.eta_gamma, pos.eta_gamma0)
        assert rep.eta_gamma == pytest.approx(expect_gamma, rel=1e-12)
        expect_total = expect_gamma + np.hypot(rep.eta_0, rep.eta_0_tilde)
        assert rep.eta_total == pytest.approx(expect_total, rel=1e-12)
        assert 1.0 <= rep.effectivity <= 3.0

    def test_gamma0_footprint_datum_enters_defeatured_solve(self):
        notch = FeatureSpec(
            1,
            NEGATIVE_BOUNDARY,
            rect_polygon(0.4, 0.6, 0.8, 1.0),
            neumann_g0=0.75,
        )
        dom = DomainSpec(f=0.0, dirichlet=dirichlet_x01, features=[notch])
        m = generate_unit_square(10, dirichlet_x01)
        data = fem.project_data(dom, m, include=[False])
        for k, e in enumerate(data.neumann_edges):
            i, j = m.edge_vertices[e]
            mid = 0.5 * (m.vertices[i] + m.vertices[j])
            on_footprint = abs(mid[1] - 1.0) < 1e-12 and 0.4 < mid[0] < 0.6
            expect = 0.75 if on_footprint else 0.0
            assert data.gn_proj[k] == pytest.approx([expect, expect], abs=1e-13)

    def test_eta0_bounds_numerical_error(self):
        # forcing already piecewise linear: eta_0 is an upper error bound
        feat_free = DomainSpec(f=lambda x, y: x, dirichlet=None)
        spec = RunSpec(
            domain=feat_free,
            include=[],
            n=8,
            reference=ReferenceSpec(levels=3, per_row=True),
            run_id="bound",
        )
        res = run_single(spec)
        assert res.report.eta_0 + 1e-8 >= res.report.error_energy

    def test_builtin_reference_rejects_external_mesh_off_the_square(self):
        # On this 2 x 1 rectangle a unit-square reference gave effectivity 0.53 < 1.
        lat = generate_unit_square(8)
        markers = {tuple(map(int, lat.edge_vertices[e])): lat.edge_markers[e]
                   for e in lat.boundary_edge_ids}
        m = Mesh(lat.vertices * [2.0, 1.0], lat.triangles, edge_markers=markers)
        spec = RunSpec(domain=DomainSpec(base=m, f=1.0), include=[], mesh=m,
                       reference=ReferenceSpec(n=8, levels=1))
        with pytest.raises(ValueError, match="reference.mesh and reference.field"):
            run_single(spec)

    @pytest.mark.parametrize("include", [False, True])
    def test_builtin_reference_accepts_external_mesh_on_square_and_features(self, include):
        # Excluded, the bump leaves the unit square; included, its sides are boundary.
        doc = preset_config("test2-pos", n=10)
        doc["features"][0]["include"] = include
        (spec,) = cfg.specs_from_config(doc)
        spec.mesh = run.build_computational_mesh(spec)
        spec.reference = ReferenceSpec(n=10, levels=1)
        exact = run.build_exact_mesh(spec)
        assert exact.total_area() == pytest.approx(1.0 + 0.2 * 0.2)

    def test_each_excluded_feature_partitioned_once(self):
        # run_single hands its partitions to project_data and feature_mesh.
        (spec,) = cfg.specs_from_config(preset_config("test2-both", n=16))
        calls = []

        def counted(feature, domain):
            calls.append(feature.id)
            return partition_feature_boundary(feature, domain)

        with mock.patch.object(run, "partition_feature_boundary", counted), \
                mock.patch.object(fem, "partition_feature_boundary", counted), \
                mock.patch.object(geometry, "partition_feature_boundary", counted):
            res = run_single(spec)
        assert sorted(calls) == sorted(res.report.per_feature) == [1, 2]


class TestCertificate:
    """run_single certifies every flux it builds."""

    @pytest.mark.parametrize("which", [0, 1])
    def test_perturbed_coefficient_raises(self, monkeypatch, which):
        # test2-pos builds the simplified-domain flux first, then a feature flux;
        # one of them gets 1e-6 x its scale added to an interior edge moment.
        (spec,) = cfg.specs_from_config(preset_config("test2-pos", n=16))
        built, reconstruct = [], flux.reconstruct_flux

        def mutated(*args, **kwargs):
            fl = reconstruct(*args, **kwargs)
            if len(built) == which:
                mesh = fl.space.mesh
                e = int(np.flatnonzero(mesh.edge_tris.min(axis=1) >= 0)[0])
                fl.coefficients[2 * e] += 1e-6 * np.linalg.norm(fl.cell_means(), axis=1).max()
            built.append(fl)
            return fl

        monkeypatch.setattr(flux, "reconstruct_flux", mutated)
        with pytest.raises(EquilibrationError, match="divergence defect") as exc:
            run_single(spec)
        assert len(built) == which + 1
        # the message names the flux that failed: the simplified domain's or feature 1's
        assert str(exc.value).startswith(("simplified domain: ", "feature 1: ")[which])

    @pytest.mark.parametrize("g", ["1", "1000"])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_constant_solution_certified(self, n, g):
        # u_h = g_D everywhere and the exact flux is zero: the compatibility residuals and the
        # divergence defect are round-off of max|u_h|, above 1e-9 of the flux's round-off scale.
        doc = {"mesh": {"builtin": n}, "dirichlet": "all", "f": "0", "g_dirichlet": g}
        (res,) = run_sweep(cfg.specs_from_config(doc))
        assert res.report.eta_total < 1e-9 * float(g)

    def test_perturbed_constant_solution_raises(self):
        # Above the round-off floor a Galerkin defect and a flux defect still raise.
        doc = {"mesh": {"builtin": 8}, "dirichlet": "all", "f": "0", "g_dirichlet": "1000"}
        (spec,) = cfg.specs_from_config(doc)
        mesh = run.build_computational_mesh(spec)
        data = fem.project_data(spec.domain, mesh)
        u = fem.solve_poisson(mesh, data)
        bad = fem.ScalarField(mesh, u.nodal_values + 1e-6 * np.sin(np.arange(mesh.n_vertices)))
        with pytest.raises(flux.OrthogonalityError, match="^patch 10: compatibility residual"):
            flux.reconstruct_flux(bad, data)
        fl = flux.reconstruct_flux(u, data)
        fl.coefficients[2 * int(np.flatnonzero(~mesh.on_boundary)[0])] += 1e-9 * 1000 / mesh.h
        with pytest.raises(EquilibrationError, match="^perturbed: divergence defect"):
            flux.certify(fl, data, "perturbed", u)


class TestExtensionEqualToFeature:
    @pytest.mark.parametrize("g, n", [(0.0, 16), ("x*x + 0.3", 16), ("nx - 0.5*ny + x*y", 24)])
    def test_matches_run_without_extension(self, g, n):
        # An extension with the bump's own shape leaves gammaR empty, as no
        # extension does: its eta_gammaR is 0, the run without an extension
        # sets none, and the estimator and CSV row are the same.
        doc = preset_config("test2-pos", n=n, eps=0.25)
        doc["reference"] = None
        doc["features"][0]["g"] = g
        extended = copy.deepcopy(doc)
        extended["features"][0]["extension"] = {"shape": dict(doc["features"][0]["shape"])}
        plain = run_single(cfg.specs_from_config(doc)[0]).report
        ext = run_single(cfg.specs_from_config(extended)[0]).report
        assert ext.per_feature[1].has_extension and ext.per_feature[1].eta_gammaR == 0.0
        assert plain.per_feature[1].eta_gammaR is None
        assert ext.eta_total == plain.eta_total
        assert report_csv_row(ext, [1]) == report_csv_row(plain, [1])
        assert (ext.per_feature[1].gamma_contribution()
                == plain.per_feature[1].gamma_contribution())


class TestCurveNormals:
    """Which normal each curve datum sees, on test2-both at n = 16: the notch
    spans y in [0.75, 1] at the top, the bump sits on y = 0."""

    def _report(self, kind, **data):
        doc = preset_config("test2-both", n=16)
        assert doc["eps"] == 0.25
        doc["reference"] = None
        for feat in doc["features"]:
            if feat["kind"] == kind:
                feat.update(data)
        (spec,) = cfg.specs_from_config(doc)
        return run_single(spec).report

    def test_gamma0_datum_sees_simplified_domain_normal(self):
        # the simplified domain's outward normal on y = 0 is (0, -1)
        eta = lambda g0: self._report("positive", g0=g0).per_feature[2].eta_gamma0
        assert eta("ny") == eta(-1.0)
        assert eta("ny") != eta(1.0)

    def test_gamma_datum_sees_exact_domain_normal(self):
        # the exact domain's outward normal is (0, 1) on the notch bottom and
        # horizontal on its sides
        eta = lambda g: self._report("negative_boundary", g=g).per_feature[1].eta_gamma
        assert eta("ny") == eta("1.0 * near(y, 0.75)")
        assert eta("ny") != eta("-1.0 * near(y, 0.75)")


class TestRunSweep:
    def test_eta_gamma_stable_in_published_range(self):
        # internal feature, meshes inside the resolution range of the
        # original study: the defeaturing column moves by well under 2%
        doc = preset_config("test1")
        doc["study"] = {"type": "h_sweep", "n": [32, 64]}
        specs = cfg.specs_from_config(doc)
        res = run_sweep(specs)
        vals = [r.report.eta_gamma for r in res]
        assert max(vals) / min(vals) - 1.0 <= 0.02

    def test_eps_sweep_plateau(self):
        # with the feature strength far below the numerical error both the
        # error and the total estimator stagnate between the last two sizes
        def spec_for(side, ref_n, k):
            half = side / 2
            feat = FeatureSpec(
                1,
                NEGATIVE_INTERNAL,
                rect_polygon(0.5 - half, 0.5 + half, 0.5 - half, 0.5 + half),
            )
            dom = DomainSpec(f=lambda x, y: x, dirichlet=None, features=[feat])
            return RunSpec(
                domain=dom,
                include=[False],
                n=8,
                reference=ReferenceSpec(levels=1, n=ref_n),
                eps=[side],
                run_id=f"eps-{k}",
            )

        rows = [(0.015625, 128), (0.0078125, 256)]
        res = run_sweep([spec_for(s, rn, k) for k, (s, rn) in enumerate(rows)])
        tot = [r.report.eta_total for r in res]
        err = [r.report.error_energy for r in res]
        assert abs(tot[1] / tot[0] - 1.0) <= 0.05
        assert abs(err[1] / err[0] - 1.0) <= 0.05

    def test_reference_reused_across_h_sweep(self):
        doc = preset_config("test2-neg", n=10)
        doc["study"] = {"type": "h_sweep", "n": [5, 10]}
        specs = cfg.specs_from_config(doc)
        res = run_sweep(specs)
        assert all(r.report.error_energy is not None for r in res)
        # finer mesh must not be less accurate
        assert res[1].report.error_energy <= res[0].report.error_energy

    def test_external_reference_read_once_per_sweep(self, tmp_path, monkeypatch):
        doc = preset_config("test2-both", n=10)
        built = run.build_reference(cfg.specs_from_config(doc)[0])
        write_mesh(built.mesh, tmp_path / "ref.json")
        fem.field_to_csv(built, tmp_path / "ref.csv")
        doc["reference"] = {"mesh": str(tmp_path / "ref.json"),
                            "field": str(tmp_path / "ref.csv")}
        doc["study"] = {"type": "h_sweep", "n": [5, 10, 15]}
        specs = cfg.specs_from_config(doc)
        want = [run_single(spec).report.error_energy for spec in specs]
        calls = []
        build = run.build_reference
        monkeypatch.setattr(run, "build_reference", lambda spec: calls.append(spec) or build(spec))
        assert [r.report.error_energy for r in run_sweep(specs)] == want
        assert len(calls) == 1

    def test_external_reference_value_not_finite_raises(self, tmp_path):
        doc = preset_config("test2-neg", n=8)
        built = run.build_reference(cfg.specs_from_config(doc)[0])
        write_mesh(built.mesh, tmp_path / "ref.json")
        vals = built.nodal_values.copy()
        vals[17] = np.nan
        fem.field_to_csv(fem.ScalarField(built.mesh, vals), tmp_path / "ref.csv")
        doc["reference"] = {"mesh": str(tmp_path / "ref.json"),
                            "field": str(tmp_path / "ref.csv")}
        (spec,) = cfg.specs_from_config(doc)
        with pytest.raises(ValueError, match=r"ref\.csv: the value of vertex 17 is not finite \(nan\)$"):
            run_single(spec)

    def test_vtk_emission(self, tmp_path):
        doc = preset_config("test2-pos", n=10)
        (spec,) = cfg.specs_from_config(doc)
        res = run_single(spec)
        emit_vtk(res, str(tmp_path / "out"))
        assert (tmp_path / "out_u0.vtk").exists()
        assert (tmp_path / "out_feature1.vtk").exists()
