import math

import numpy as np
import pytest
from conftest import eta_zero_quadrature, unstructured_mesh
from hypothesis import given, settings
from hypothesis import strategies as st

from eqflux.estimator import (
    ZETA,
    DefectSamples,
    EstimatorConstants,
    EstimatorReport,
    FeatureEstimate,
    aggregate_total,
    c_omega,
    defect_on_gamma,
    effectivity,
    eta_curve,
    eta_curve_parts,
    eta_zero,
)
from eqflux.fem import project_data, solve_poisson
from eqflux.flux import FluxField, reconstruct_flux
from eqflux.geometry import DomainSpec, clip_curve_to_mesh
from eqflux.mesh import generate_unit_square


def unit_segment_quadrature(n=8, order=4):
    m = generate_unit_square(n)
    return clip_curve_to_mesh(np.array([[0.0, 0.0], [1.0, 0.0]]), m, order)


class TestCOmega:
    def test_zeta_against_lambertw(self):
        from scipy.special import lambertw

        assert ZETA == pytest.approx(float(lambertw(1.0).real), abs=1e-15)
        assert ZETA == pytest.approx(-math.log(ZETA), abs=1e-15)

    def test_unit_measure(self):
        assert c_omega(1.0) == pytest.approx(math.sqrt(ZETA), abs=1e-15)
        assert c_omega(1.0) == pytest.approx(0.753089, abs=1e-6)

    def test_exp_minus_one(self):
        assert c_omega(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_small_measure_uses_log(self):
        L = 0.01
        assert c_omega(L) == pytest.approx(math.sqrt(-math.log(L)), abs=1e-15)

    def test_nonpositive_measure(self):
        with pytest.raises(ValueError):
            c_omega(0.0)


class TestEtaCurve:
    def test_constant_defect_half_length(self):
        m = generate_unit_square(8)
        q = clip_curve_to_mesh(np.array([[0.0, 0.0], [0.5, 0.0]]), m, 4)
        ds = DefectSamples(q, np.full(len(q.weights), 2.0))
        # mean term only: c_{0.5} * 0.5 * 2
        assert eta_curve(ds) == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-12)
        assert eta_curve(ds) == pytest.approx(0.832555, abs=1e-6)

    def test_linear_defect_unit_segment(self):
        q = unit_segment_quadrature()
        ds = DefectSamples(q, q.nodes[:, 0])
        # analytic: fluct^2 = 1/12, mean = 1/2, c_1^2 = zeta
        expect = math.sqrt(1.0 / 12.0 + ZETA / 4.0)
        assert eta_curve(ds) == pytest.approx(expect, abs=1e-12)
        assert eta_curve(ds) == pytest.approx(0.474467, abs=1e-6)

    def test_zero_defect(self):
        q = unit_segment_quadrature()
        assert eta_curve(DefectSamples(q, np.zeros(len(q.weights)))) == 0.0

    def test_parts_decomposition(self):
        q = unit_segment_quadrature()
        ds = DefectSamples(q, 0.3 + np.sin(5 * q.nodes[:, 0]))
        pf, pm = eta_curve_parts(ds)
        assert pf >= 0 and pm >= 0
        assert eta_curve(ds) == pytest.approx(math.hypot(pf, pm), abs=1e-14)

    @given(st.floats(min_value=-50, max_value=50).filter(lambda t: abs(t) > 1e-8))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, t):
        q = unit_segment_quadrature(4)
        base = 0.25 + q.nodes[:, 0] ** 2
        a = eta_curve(DefectSamples(q, t * base))
        b = abs(t) * eta_curve(DefectSamples(q, base))
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_iff_all_zero(self):
        q = unit_segment_quadrature(4)
        vals = np.zeros(len(q.weights))
        assert eta_curve(DefectSamples(q, vals)) == 0.0
        vals[3] = 1e-6
        assert eta_curve(DefectSamples(q, vals)) > 0.0


class TestDefectOnGamma:
    def _flux(self, n=6):
        m = generate_unit_square(n)
        dom = DomainSpec(f=0.0, g_dirichlet=lambda x, y: 2 * x + 3 * y)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        return reconstruct_flux(u, data), m

    def test_negative_convention(self):
        # sigma·n + g, with n the curve normals
        fl, m = self._flux()
        q = clip_curve_to_mesh(np.array([[0.2, 0.35], [0.8, 0.35]]), m, 4)
        tr = fl.normal_trace(q.nodes, q.node_tris, q.normals)
        ds = defect_on_gamma(fl, q, np.full(len(q.weights), 0.1))
        assert np.array_equal(ds.values, tr + 0.1)

    def test_positive_gamma0_exact_match_gives_zero(self):
        # a gamma0 datum sees the opposite normal and enters as -g0: g0 = sigma·n
        # is matched exactly
        fl, m = self._flux()
        q = clip_curve_to_mesh(np.array([[0.2, 0.35], [0.8, 0.35]]), m, 4)
        g0 = fl.normal_trace(q.nodes, q.node_tris, q.normals)
        ds = defect_on_gamma(fl, q, -1.0 * g0)
        assert np.abs(ds.values).max() < 1e-14
        assert eta_curve(ds) < 1e-13

    def test_consistent_data_zero_defect(self):
        # g chosen equal to -sigma.n along the curve: eta vanishes
        fl, m = self._flux()
        q = clip_curve_to_mesh(np.array([[0.15, 0.6], [0.85, 0.6]]), m, 4)
        g = -fl.normal_trace(q.nodes, q.node_tris, q.normals)
        ds = defect_on_gamma(fl, q, g)
        assert eta_curve(ds) < 1e-12

    def test_datum_shape_checked(self):
        fl, m = self._flux()
        q = clip_curve_to_mesh(np.array([[0.2, 0.35], [0.8, 0.35]]), m, 4)
        with pytest.raises(ValueError, match="must match the quadrature nodes"):
            defect_on_gamma(fl, q, np.zeros(len(q.weights) + 1))


class TestEtaZero:
    def test_exact_flux_gives_zero(self):
        m = generate_unit_square(4)
        dom = DomainSpec(f=0.0, g_dirichlet=lambda x, y: 1 + 2 * x + 3 * y)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        assert eta_zero(fl, u) < 1e-12

    def test_constant_shift_gives_its_norm(self):
        from test_flux import interpolate_constant

        m = generate_unit_square(4)
        dom = DomainSpec(f=0.0, g_dirichlet=lambda x, y: 1 + 2 * x + 3 * y)
        data = project_data(dom, m)
        u = solve_poisson(m, data)
        fl = reconstruct_flux(u, data)
        c = 0.37
        shifted = FluxField(fl.space, fl.coefficients + interpolate_constant(fl.space, (c, 0.0)))
        assert eta_zero(shifted, u) == pytest.approx(c, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), case=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_pointwise_quadrature_on_unstructured_meshes(self, n, case, seed):
        from test_flux import _mixed_problem

        rng = np.random.default_rng(seed)
        _, data, u = _mixed_problem(lambda d: unstructured_mesh(n, rng, d), case, rng)
        fl = reconstruct_flux(u, data)
        assert eta_zero(fl, u) == pytest.approx(eta_zero_quadrature(fl, u), rel=1e-13)
        rough = FluxField(fl.space, rng.standard_normal(fl.space.total_dofs))
        assert eta_zero(rough, u) == pytest.approx(eta_zero_quadrature(rough, u), rel=1e-13)

    def test_matches_pointwise_quadrature_on_positive_feature_flux(self):
        from eqflux import config as cfg
        from eqflux.fem import feature_problem_data
        from eqflux.geometry import feature_mesh
        from eqflux.presets import preset_config
        from eqflux.run import build_computational_mesh

        doc = preset_config("test2-pos", n=8)
        doc["reference"] = None
        (spec,) = cfg.specs_from_config(doc)
        mesh = build_computational_mesh(spec)
        u0 = solve_poisson(mesh, project_data(spec.domain, mesh, include=spec.include))
        feat = spec.domain.features[0]
        fmesh = feature_mesh(feat, 8, spec.domain)
        fdata = feature_problem_data(feat, u0, fmesh, forcing=spec.domain.f)
        ut = solve_poisson(fmesh, fdata)
        fl = reconstruct_flux(ut, fdata)
        value = eta_zero(fl, ut)
        assert value > 0.0
        assert value == pytest.approx(eta_zero_quadrature(fl, ut), rel=1e-13)

    def test_scale_matches_published_multi_feature_study(self):
        # resolution chosen to match the published DOF count (~1240)
        from eqflux import config as cfg
        from eqflux.presets import preset_config
        from eqflux.run import run_sweep

        doc = preset_config("test3", n=34)
        (res,) = run_sweep(cfg.specs_from_config(doc))
        assert res.report.n_dof == 1225
        assert res.report.eta_0 == pytest.approx(0.101, rel=0.15)


class TestAggregate:
    def test_single_negative(self):
        total, gamma, tilde = aggregate_total(
            [FeatureEstimate(1, "negative_internal", eta_gamma=0.162)], 0.101
        )
        assert total == pytest.approx(0.263, abs=1e-12)
        assert gamma == pytest.approx(0.162)
        assert tilde == 0.0

    def test_degenerate_positive(self):
        total, _, _ = aggregate_total(
            [
                FeatureEstimate(
                    1, "positive", eta_gamma0=0.0, eta_gammaR=0.0, eta_0_tilde=0.0
                )
            ],
            0.7,
        )
        assert total == pytest.approx(0.7)

    def test_five_negative_root_sum_square(self):
        vals = (0.146, 0.050, 0.008, 0.025, 0.036)
        comps = [
            FeatureEstimate(k + 1, "negative_internal", eta_gamma=v)
            for k, v in enumerate(vals)
        ]
        total, gamma, _ = aggregate_total(comps, 0.0)
        assert gamma == pytest.approx(math.sqrt(sum(v * v for v in vals)), abs=1e-15)
        assert 0.160 <= gamma <= 0.162

    def test_mixed_configuration_formula(self):
        comps = [
            FeatureEstimate(1, "negative_boundary", eta_gamma=0.3),
            FeatureEstimate(2, "positive", eta_gamma0=0.4, eta_0_tilde=0.05),
        ]
        consts = EstimatorConstants(C_D_tilde=2.0)
        total, gamma, tilde = aggregate_total(comps, 0.12, consts)
        assert gamma == pytest.approx(0.5)
        assert tilde == pytest.approx(0.05)
        assert total == pytest.approx(2.0 * 0.5 + math.hypot(0.12, 0.05))

    def test_extension_includes_gamma_r(self):
        comp = FeatureEstimate(
            1, "positive", eta_gamma0=0.3, eta_gammaR=0.4, eta_0_tilde=0.0,
            has_extension=True,
        )
        total, gamma, _ = aggregate_total([comp], 0.0)
        assert gamma == pytest.approx(0.5)

    def test_component_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_total(
                [FeatureEstimate(1, "negative_internal", eta_gamma0=0.1)], 0.0
            )
        with pytest.raises(ValueError):
            aggregate_total([FeatureEstimate(1, "positive", eta_gamma0=0.1)], 0.0)

    def test_monotone_in_components(self):
        base = [FeatureEstimate(1, "negative_internal", eta_gamma=0.1)]
        bigger = [FeatureEstimate(1, "negative_internal", eta_gamma=0.2)]
        assert aggregate_total(bigger, 0.05)[0] >= aggregate_total(base, 0.05)[0]
        assert aggregate_total(base, 0.06)[0] >= aggregate_total(base, 0.05)[0]

    @pytest.mark.parametrize("eta_0", [0.0, 5e-324, 0.1, 1 / 3, 1e300])
    def test_no_feature_is_eta_0_exactly(self, eta_0):
        total, gamma, tilde = aggregate_total([], eta_0, EstimatorConstants(C_D=7.0))
        assert (total, gamma, tilde) == (eta_0, 0.0, 0.0)


class TestEffectivity:
    def test_published_rows(self):
        assert effectivity(0.214, 0.079) == pytest.approx(2.71, abs=0.01)
        assert effectivity(0.115, 0.052) == pytest.approx(2.21, abs=0.01)

    def test_equal_inputs(self):
        assert effectivity(0.5, 0.5) == 1.0

    def test_zero_error(self):
        with pytest.raises(ZeroDivisionError):
            effectivity(1.0, 0.0)


class TestReport:
    def test_json_round_trip(self):
        rep = EstimatorReport(
            per_feature={
                1: FeatureEstimate(1, "negative_internal", eta_gamma=0.1),
                2: FeatureEstimate(
                    2, "positive", eta_gamma0=0.2, eta_gammaR=1e-12, eta_0_tilde=0.05
                ),
            },
            eta_gamma=0.2236,
            eta_0=0.08,
            eta_0_tilde=0.05,
            eta_total=0.32,
            error_energy=0.11,
            effectivity=2.9,
            h=0.05,
            n_dof=441,
            eps=[0.2],
            run_id="t-007",
        )
        back = EstimatorReport.from_json(rep.to_json())
        assert back.to_dict() == rep.to_dict()
        assert back.per_feature[2].feature_id == 2

    def test_dict_keys_pinned(self):
        # A new report or feature field must not reach the default JSON unnoticed.
        d = EstimatorReport(per_feature={3: FeatureEstimate(3, "positive")}).to_dict()
        assert sorted(d) == sorted([
            "run_id", "h", "n_dof", "eps", "constants", "per_feature", "eta_gamma", "eta_0",
            "eta_0_tilde", "eta_total", "error_energy", "effectivity"])
        assert sorted(d["constants"]) == ["C_D", "C_D_tilde", "alpha_D"]
        assert list(d["per_feature"]) == ["3"]
        assert sorted(d["per_feature"]["3"]) == sorted([
            "kind", "eta_gamma", "eta_gamma0", "eta_gammaR", "eta_0_tilde", "has_extension"])

    def test_from_dict_ignores_unknown_keys(self):
        d = EstimatorReport(per_feature={1: FeatureEstimate(1, "negative_internal", 0.1)},
                            eta_gamma=0.1, eps=[0.2]).to_dict()
        extra = {**d, "diagnostics": {}, "constants": {**d["constants"], "beta": 2.0},
                 "per_feature": {"1": {**d["per_feature"]["1"], "note": "x"}}}
        assert EstimatorReport.from_dict(extra).to_dict() == d
        assert EstimatorReport.from_dict({}).to_dict() == EstimatorReport().to_dict()

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            EstimatorConstants(C_D=0.0)
