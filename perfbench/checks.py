"""Untimed checks run on an operation's results: the equilibration certificate
and the workload properties that optimisations depend on."""

from __future__ import annotations

from collections import Counter

import numpy as np

# An identity defect passes when it is at most CERT_RTOL times the largest
# mean flux magnitude of its field. The three defects all carry flux units
# (the divergence defect is an element L2 norm of a flux/length quantity).
# Measured maxima at the workloads' default inputs are below 1e-12 of that
# scale, so the bound leaves three orders of magnitude for round-off.
CERT_RTOL = 1e-9


def flux_problems(results, specs):
    """(name, flux, data) for every flux of an operation, feature fluxes too.

    The problem data are projected again from the inputs; the projection is
    deterministic, so they equal the data the fluxes were built from.
    """
    from eqflux import fem

    out = []
    for res, spec in zip(results, specs):
        rid = res.report.run_id
        data = fem.project_data(spec.domain, res.mesh, include=list(spec.include))
        out.append((f"{rid}/omega0", res.flux0, data))
        feats = {f.id: f for f in spec.domain.features}
        for fid, fl in sorted(res.feature_fluxes.items()):
            fdata = fem.feature_problem_data(
                feats[fid], res.u0, fl.space.mesh, forcing=spec.domain.f
            )
            out.append((f"{rid}/feature{fid}", fl, fdata))
    return out


def certificate(problems) -> tuple[list, dict]:
    """Check div sigma = Pi f, single-valued normal traces and sigma.n = -Pi g.

    Returns (failures, worst relative defect per identity).
    """
    from eqflux import flux

    failures = []
    worst = {"divergence": 0.0, "jump": 0.0, "neumann": 0.0}
    for name, fl, data in problems:
        scale = float(np.linalg.norm(fl.cell_means(), axis=1).max())
        if not np.isfinite(scale) or scale == 0.0:
            failures.append(f"{name}: flux scale {scale!r}")
            continue
        defects = {
            "divergence": float(flux.flux_divergence_defect(fl, data).max()),
            "jump": flux.interior_jump(fl),
            "neumann": flux.neumann_trace_defect(fl, data),
        }
        for kind, value in defects.items():
            rel = value / scale
            worst[kind] = max(worst[kind], rel)
            if not rel <= CERT_RTOL:
                failures.append(f"{name}: {kind} defect {value:.3e} = {rel:.3e} x flux scale")
    return failures, worst


def signature_share(problems) -> float:
    """Share of patches in the largest (triangles, interior, Neumann, Dirichlet)
    group, over every flux reconstruction of the operation."""
    from eqflux.mesh import vertex_patches

    groups = Counter()
    for _, fl, data in problems:
        neumann = data.neumann_map()
        for p in vertex_patches(fl.space.mesh):
            n_neu = sum(int(e) in neumann for e in p.boundary_edges_psi)
            n_dir = len(p.boundary_edges_psi) - n_neu
            groups[(len(p.triangles), p.is_interior, n_neu, n_dir)] += 1
    return max(groups.values()) / sum(groups.values())
