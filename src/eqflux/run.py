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
    _SQUARE_SIDES,
    Mesh,
    _on_segments,
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
    return generate_with_rect_features(spec.n, spec.domain.features, spec.include,
                                       spec.domain.dirichlet)


def build_exact_mesh(spec: RunSpec) -> Mesh:
    """Mesh of the exact geometry (all features included)."""
    ref = spec.reference or ReferenceSpec()
    n = ref.n or spec.n
    if not spec.domain.features and n == spec.n:
        return build_computational_mesh(spec)
    if n is None:
        raise ValueError("built-in reference meshing needs a builtin resolution")
    if spec.mesh is not None:
        # The built-in mesher meshes the square and the features: each boundary
        # edge's ends and midpoint must lie on one of their sides.
        m, b = spec.mesh, spec.mesh.boundary_edge_ids
        pts = np.vstack([m.vertices[m.edge_vertices[b].ravel()], m.edge_midpoints(b)])
        polys = [_SQUARE_SIDES[0]] + [f.polygon for f in spec.domain.features]
        sides = np.concatenate(polys), np.concatenate([np.roll(p, -1, axis=0) for p in polys])
        if not _on_segments(pts, *sides).any(axis=1).all():
            raise ValueError("built-in reference meshing covers the unit square and its features, "
                             "which the external mesh does not; give reference.mesh and reference.field")
    features = spec.domain.features
    return generate_with_rect_features(n, features, [True] * len(features), spec.domain.dirichlet)


def build_reference(spec: RunSpec) -> fem.ScalarField:
    """Reference solution on the exact geometry, refined per the settings."""
    ref = spec.reference or ReferenceSpec()
    if ref.mesh_path is not None:
        mesh = read_mesh(ref.mesh_path)
        vals = np.loadtxt(ref.field_path, delimiter=",", skiprows=1, usecols=3)
        if not np.isfinite(vals).all():
            i = int(np.argmin(np.isfinite(vals)))
            raise ValueError(f"{ref.field_path}: the value of vertex {i} is not finite ({vals[i]})")
        return fem.ScalarField(mesh, vals)
    mesh = build_exact_mesh(spec)
    for _ in range(ref.levels):
        mesh = uniform_refine(mesh)
    data = fem.project_data(
        spec.domain, mesh, include=[True] * len(spec.domain.features)
    )
    return fem.solve_poisson(mesh, data, tol=spec.solver_tol)


def run_single(spec: RunSpec, reference: fem.ScalarField | None = None) -> RunResult:
    """Solve, reconstruct and certify the flux and evaluate every estimator component.

    Excluded negative features contribute a curve estimator from the
    simplified-domain flux; excluded positive features get their own feature
    solve/flux and contribute interface and feature-side components.
    """
    domain = spec.domain
    include = list(spec.include)
    if len(include) != len(domain.features):
        raise ValueError("one include flag per feature is required")
    mesh = build_computational_mesh(spec)
    # Each excluded feature is partitioned once, here, for all the stages.
    partitions = [None if inc else partition_feature_boundary(feat, domain)
                  for feat, inc in zip(domain.features, include)]

    def solve(m, d, name):
        # The P1 solution, its certified equilibrated flux and their eta_0.
        u = fem.solve_poisson(m, d, tol=spec.solver_tol)
        fl = flux.reconstruct_flux(u, d)
        flux.certify(fl, d, name)
        return u, fl, est.eta_zero(fl, u)

    data = fem.project_data(domain, mesh, include=include, parts=partitions)
    u0, flux0, eta0 = solve(mesh, data, "simplified domain")

    def eta_on(curve, m, fl, g, s=1.0):
        # Defect sigma·n + s·g(x, s·n) on the curve: s = -1 on gamma0, whose
        # datum sees the simplified domain's normal, opposite to the curve's.
        q = clip_curve_to_mesh(curve, m, spec.gauss_order)
        gv = fem.eval_data(g, q.nodes, s * q.normals)
        return est.eta_curve(est.defect_on_gamma(fl, q, s * gv))

    per_feature = {}
    feature_fields, feature_fluxes = {}, {}
    coarse_pieces = [u0]
    for feat, inc, parts in zip(domain.features, include, partitions):
        if inc:
            continue
        if feat.kind != POSITIVE:
            gamma_rev = [line[::-1] for line in reversed(parts["gamma"])]
            comp = est.FeatureEstimate(feat.id, feat.kind,
                                       eta_gamma=eta_on(gamma_rev, mesh, flux0, feat.neumann_g))
        else:
            if spec.n is None:
                raise ValueError("positive feature meshing needs a resolution")
            fmesh = feature_mesh(feat, spec.n, domain, parts)
            fdata = fem.feature_problem_data(feat, u0, fmesh, forcing=domain.f)
            ut, fluxt, eta0t = solve(fmesh, fdata, f"feature {feat.id}")
            comp = est.FeatureEstimate(
                feat.id,
                feat.kind,
                eta_gamma0=eta_on(parts["gamma0"], fmesh, fluxt, feat.neumann_g0, -1.0),
                eta_0_tilde=eta0t,
                has_extension=feat.extension is not None,
            )
            if comp.has_extension:  # gammaR is empty for an extension of the feature's shape
                comp.eta_gammaR = (eta_on(parts["gammaR"], fmesh, fluxt, feat.neumann_g)
                                   if parts["gammaR"] else 0.0)
            feature_fields[feat.id] = ut
            feature_fluxes[feat.id] = fluxt
            coarse_pieces.append(ut)
        per_feature[feat.id] = comp

    # With no excluded feature this is exactly (eta0, 0.0, 0.0): hypot(x, 0) = |x|.
    eta_total, eta_gamma, eta0_tilde = est.aggregate_total(
        list(per_feature.values()), eta0, spec.constants)

    report = est.EstimatorReport(
        per_feature=per_feature,
        eta_gamma=eta_gamma,
        eta_0=eta0,
        eta_0_tilde=eta0_tilde,
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


def _reference_key(spec: RunSpec):
    """Cache key of a shared reference: its files, or the geometry; None per row."""
    ref = spec.reference
    if ref is None or ref.per_row:
        return None
    return _geometry_signature(spec) if ref.mesh_path is None else (ref.mesh_path, ref.field_path)


def run_sweep(specs: list[RunSpec]) -> list[RunResult]:
    """Run a list of sweep points; reference solves are shared per geometry.

    When the reference is not per-row it is built once per distinct geometry
    from the finest sweep resolution, or read once per external file pair.
    """
    refs = {}
    for spec in specs:
        key = _reference_key(spec)
        if key is None:
            continue
        n_eff = spec.reference.n or spec.n or 0
        best = refs.get(key)
        if best is None or n_eff > (best.reference.n or best.n or 0):
            refs[key] = spec
    cache = {key: build_reference(s) for key, s in refs.items()}
    return [run_single(spec, reference=cache.get(_reference_key(spec))) for spec in specs]


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
        _fmt(report.eta_gamma),
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
    outputs = {"u0": (result.u0, result.flux0)} | {
        f"feature{fid}": (u, result.feature_fluxes[fid]) for fid, u in result.feature_fields.items()}
    for name, (u, fl) in outputs.items():
        fem.write_vtk(f"{prefix}_{name}.vtk", u.mesh, point_data={"u": u.nodal_values},
                      cell_vectors={"flux": fl.cell_means()})
