"""Run orchestration: single estimator runs, h/ε sweeps and output emission."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimator as est
from . import fem, flux
from .geometry import (
    POSITIVE,
    DomainSpec,
    clip_curve_to_mesh,
    feature_mesh,
    partition_feature_boundary,
)
from .mesh import (
    Mesh,
    generate_unit_square,
    generate_with_rect_features,
    read_mesh,
    uniform_refine,
)

CSV_EOL = "\r\n"


@dataclass
class ReferenceSpec:
    """How to obtain the reference solution for error/effectivity columns."""

    levels: int = 2  # uniform refinements of the exact-geometry mesh
    per_row: bool = False  # refine each row's mesh instead of the finest one
    n: int | None = None  # base resolution of the exact mesh (default: row n)
    mesh_path: str | None = None  # external reference mesh (JSON)
    field_path: str | None = None  # external nodal values (CSV from field_to_csv)


@dataclass
class RunSpec:
    """Everything needed to run the estimator once (or per sweep point)."""

    domain: DomainSpec
    include: list
    n: int | None = None
    mesh: Mesh | None = None  # external computational mesh
    feature_n: int | None = None
    constants: est.EstimatorConstants = field(default_factory=est.EstimatorConstants)
    reference: ReferenceSpec | None = None
    gauss_order: int = 4
    solver_tol: float = 1e-12
    eps: list = field(default_factory=list)
    run_id: str = "run-000"


@dataclass
class RunResult:
    report: est.EstimatorReport
    u0: fem.ScalarField
    flux0: flux.FluxField
    feature_fields: dict  # id -> ScalarField
    feature_fluxes: dict  # id -> FluxField
    mesh: Mesh


def build_computational_mesh(spec: RunSpec) -> Mesh:
    if spec.mesh is not None:
        return spec.mesh
    if spec.n is None:
        raise ValueError("RunSpec needs a builtin resolution n or an external mesh")
    if any(spec.include):
        return generate_with_rect_features(
            spec.n, spec.domain.features, spec.include, spec.domain.dirichlet
        )
    return generate_unit_square(spec.n, spec.domain.dirichlet)


def build_exact_mesh(spec: RunSpec) -> Mesh:
    """Mesh of the exact geometry (all features included)."""
    ref = spec.reference or ReferenceSpec()
    n = ref.n or spec.n
    if not spec.domain.features:
        return build_computational_mesh(spec) if n == spec.n else generate_unit_square(
            n, spec.domain.dirichlet
        )
    if n is None:
        raise ValueError("built-in reference meshing needs a builtin resolution")
    return generate_with_rect_features(
        n,
        spec.domain.features,
        [True] * len(spec.domain.features),
        spec.domain.dirichlet,
    )


def build_reference(spec: RunSpec) -> fem.ScalarField:
    """Reference solution on the exact geometry, refined per the settings."""
    ref = spec.reference or ReferenceSpec()
    if ref.mesh_path is not None:
        mesh = read_mesh(ref.mesh_path)
        vals = np.loadtxt(ref.field_path, delimiter=",", skiprows=1, usecols=3)
        return fem.ScalarField(mesh, vals)
    mesh = build_exact_mesh(spec)
    for _ in range(ref.levels):
        mesh = uniform_refine(mesh)
    data = fem.project_data(
        spec.domain, mesh, include=[True] * len(spec.domain.features)
    )
    # Reference accuracy is O(h); the estimator-grade residual is not needed.
    return fem.solve_poisson(mesh, data, tol=max(spec.solver_tol, 1e-10))


def run_single(spec: RunSpec, reference: fem.ScalarField | None = None) -> RunResult:
    """Solve, reconstruct the flux and evaluate every estimator component.

    Excluded negative features contribute a curve estimator from the
    simplified-domain flux; excluded positive features get their own feature
    solve/flux and contribute interface and feature-side components.
    """
    domain = spec.domain
    include = list(spec.include)
    if len(include) != len(domain.features):
        raise ValueError("one include flag per feature is required")
    mesh = build_computational_mesh(spec)
    data = fem.project_data(domain, mesh, include=include)
    u0 = fem.solve_poisson(mesh, data, tol=spec.solver_tol)
    flux0 = flux.reconstruct_flux(u0, data)
    eta0 = est.eta_zero(flux0, u0)

    components = []
    per_feature = {}
    feature_fields, feature_fluxes = {}, {}
    coarse_pieces = [u0]
    for feat, inc in zip(domain.features, include):
        if inc:
            continue
        parts = partition_feature_boundary(feat, domain)
        if feat.kind != POSITIVE:
            gamma_rev = [line[::-1] for line in reversed(parts["gamma"])]
            q = clip_curve_to_mesh(gamma_rev, mesh, spec.gauss_order)
            ds = est.defect_on_gamma(
                flux0, q, fem.eval_data(feat.neumann_g, q.nodes, q.normals), "negative"
            )
            comp = est.FeatureEstimate(feat.id, feat.kind, eta_gamma=est.eta_curve(ds))
        else:
            fn = spec.feature_n or spec.n
            if fn is None:
                raise ValueError("positive feature meshing needs a resolution")
            fmesh = feature_mesh(feat, fn, domain)
            fdata = fem.feature_problem_data(feat, u0, fmesh, forcing=domain.f)
            ut = fem.solve_poisson(fmesh, fdata, tol=spec.solver_tol)
            fluxt = flux.reconstruct_flux(ut, fdata)
            q0 = clip_curve_to_mesh(parts["gamma0"], fmesh, spec.gauss_order)
            # the shared-boundary datum is directed along the simplified
            # domain's outward normal, opposite to the curve normals here
            ds0 = est.defect_on_gamma(
                fluxt,
                q0,
                fem.eval_data(feat.neumann_g0, q0.nodes, -q0.normals),
                "positive_gamma0",
            )
            comp = est.FeatureEstimate(
                feat.id,
                feat.kind,
                eta_gamma0=est.eta_curve(ds0),
                eta_0_tilde=est.eta_zero(fluxt, ut),
                has_extension=feat.extension is not None,
            )
            if parts["gammaR"]:
                qr = clip_curve_to_mesh(parts["gammaR"], fmesh, spec.gauss_order)
                dsr = est.defect_on_gamma(
                    fluxt,
                    qr,
                    fem.eval_data(feat.neumann_g, qr.nodes, qr.normals),
                    "positive_gammaR",
                )
                comp.eta_gammaR = est.eta_curve(dsr)
            feature_fields[feat.id] = ut
            feature_fluxes[feat.id] = fluxt
            coarse_pieces.append(ut)
        components.append(comp)
        per_feature[feat.id] = comp

    if components:
        eta_total, eta_gamma_c, eta0_tilde_c = est.aggregate_total(
            components, eta0, spec.constants
        )
    else:
        eta_total, eta_gamma_c, eta0_tilde_c = eta0, 0.0, 0.0

    report = est.EstimatorReport(
        per_feature=per_feature,
        eta_gamma_combined=eta_gamma_c,
        eta_0=eta0,
        eta_0_tilde=eta0_tilde_c,
        eta_total=eta_total,
        h=mesh.h,
        n_dof=mesh.n_vertices,
        eps=list(spec.eps),
        constants=spec.constants,
        run_id=spec.run_id,
    )
    if spec.reference is not None or reference is not None:
        uref = reference if reference is not None else build_reference(spec)
        err = fem.energy_error_cross_mesh(fem.CompositeField(coarse_pieces), uref)
        report.error_energy = err
        report.effectivity = est.effectivity(eta_total, err)
    return RunResult(report, u0, flux0, feature_fields, feature_fluxes, mesh)


def _geometry_signature(spec: RunSpec):
    parts = [tuple(bool(i) for i in spec.include)]
    for f in spec.domain.features:
        parts.append((f.id, f.kind, f.polygon.tobytes()))
    return tuple(parts)


def run_sweep(specs: list[RunSpec]) -> list[RunResult]:
    """Run a list of sweep points; reference solves are shared per geometry.

    When the reference is not per-row it is built once per distinct geometry
    from the finest sweep resolution.
    """
    refs = {}
    for spec in specs:
        if spec.reference is None or spec.reference.per_row:
            continue
        if spec.reference.mesh_path is not None:
            continue
        sig = _geometry_signature(spec)
        n_eff = spec.reference.n or spec.n or 0
        best = refs.get(sig)
        if best is None or n_eff > (best.reference.n or best.n or 0):
            refs[sig] = spec
    cache = {sig: build_reference(s) for sig, s in refs.items()}
    results = []
    for spec in specs:
        ref = None
        if spec.reference is not None and not spec.reference.per_row:
            ref = cache.get(_geometry_signature(spec))
        results.append(run_single(spec, reference=ref))
    return results


# -- emission -----------------------------------------------------------------


def csv_header(n_features: int) -> str:
    cols = ["run_id", "h", "n_dof", "eps", "err_energy"]
    cols += [f"eta_gamma_{k + 1}" for k in range(n_features)]
    cols += ["eta_gamma", "eta_0", "eta_0_tilde", "eta_tot", "effectivity"]
    return ",".join(cols)


def _fmt(x) -> str:
    return "" if x is None else f"{x:.16e}"


def report_csv_row(report: est.EstimatorReport, feature_ids: list) -> str:
    cells = [
        report.run_id,
        _fmt(report.h),
        str(report.n_dof if report.n_dof is not None else ""),
        _fmt(report.eps[0]) if report.eps else "",
        _fmt(report.error_energy),
    ]
    for fid in feature_ids:
        comp = report.per_feature.get(fid)
        cells.append(_fmt(comp.gamma_contribution()) if comp is not None else "")
    cells += [
        _fmt(report.eta_gamma_combined),
        _fmt(report.eta_0),
        _fmt(report.eta_0_tilde) if report.eta_0_tilde else "",
        _fmt(report.eta_total),
        f"{report.effectivity:.3g}" if report.effectivity is not None else "",
    ]
    return ",".join(cells)


def emit_csv(reports: list, feature_ids: list, path=None) -> str:
    lines = [csv_header(len(feature_ids))]
    lines += [report_csv_row(r, feature_ids) for r in reports]
    text = CSV_EOL.join(lines) + CSV_EOL
    if path is not None:
        with open(path, "w", newline="") as f:
            f.write(text)
    return text


def emit_vtk(result: RunResult, prefix: str):
    fem.write_vtk(
        f"{prefix}_u0.vtk",
        result.mesh,
        point_data={"u": result.u0.nodal_values},
        cell_vectors={"flux": result.flux0.cell_means()},
    )
    for fid, fld in result.feature_fields.items():
        fem.write_vtk(
            f"{prefix}_feature{fid}.vtk",
            fld.mesh,
            point_data={"u": fld.nodal_values},
            cell_vectors={"flux": result.feature_fluxes[fid].cell_means()},
        )
