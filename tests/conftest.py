"""Shared independent oracles for the test suite.

The quadrature oracles deliberately avoid the library's own quadrature and
assembly paths: the Duffy rule below integrates over triangles through a
collapsed tensor-Gauss rule and is used to cross-check projections, norms
and estimator values.  The field helpers and the edge-by-edge certificate
loops after them are reference implementations for tests only.
"""

import numpy as np


def duffy_quad(tri_pts, f, m=16):
    """High-order integral of f(x, y) over a triangle (tensor Gauss-Legendre
    on the collapsed square)."""
    x, w = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    a, b, c = (np.asarray(p, dtype=float) for p in tri_pts)
    total = 0.0
    for u, wu in zip(x, w):
        for v, wv in zip(x, w):
            lam1, lam2 = u, v * (1.0 - u)
            p = a + lam1 * (b - a) + lam2 * (c - a)
            total += wu * wv * (1.0 - u) * f(p[0], p[1])
    d1, d2 = b - a, c - a
    area2 = abs(d1[0] * d2[1] - d1[1] * d2[0])
    return total * area2


def mesh_integral(mesh, f, m=8):
    """Duffy-rule integral of f over a whole mesh."""
    return sum(
        duffy_quad(mesh.vertices[mesh.triangles[t]], f, m)
        for t in range(mesh.n_triangles)
    )


def segment_integral(a, b, f, m=24):
    """High-order line integral of f(x, y) along segment a-b."""
    x, w = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    a, b = np.asarray(a, float), np.asarray(b, float)
    L = np.linalg.norm(b - a)
    pts = a[None, :] + x[:, None] * (b - a)[None, :]
    return L * float(np.sum(w * np.array([f(p[0], p[1]) for p in pts])))


def galerkin_residual(field, data):
    """Residual of the discrete weak form against every hat function."""
    from eqflux.fem import assemble_load, assemble_stiffness

    A = assemble_stiffness(field.mesh)
    return assemble_load(field.mesh, data) - A @ field.nodal_values


def energy_norm(field):
    """Energy (H1 seminorm) of a P1 field from its elementwise gradients."""
    g = field.gradients()
    return float(np.sqrt(np.sum(field.mesh.areas * np.einsum("td,td->t", g, g))))


def prolong_uniform(field, fine):
    """Inject a P1 field into ``uniform_refine(field.mesh)``: coarse vertices
    keep their values, edge midpoints (numbered after them in coarse edge
    order) take the mean of their endpoints."""
    from eqflux.fem import ScalarField

    coarse = field.mesh
    ev = coarse.edge_vertices
    mids = 0.5 * (coarse.vertices[ev[:, 0]] + coarse.vertices[ev[:, 1]])
    if not np.array_equal(fine.vertices, np.vstack([coarse.vertices, mids])):
        raise ValueError("fine mesh is not the uniform refinement of the field's mesh")
    vals = np.concatenate(
        [field.nodal_values, 0.5 * (field.nodal_values[ev[:, 0]] + field.nodal_values[ev[:, 1]])]
    )
    return ScalarField(fine, vals)


def _edge_gauss_points(mesh, e):
    x, _ = np.polynomial.legendre.leggauss(4)
    x = 0.5 * (x + 1.0)
    i, j = mesh.edge_vertices[e]
    a, b = mesh.vertices[i], mesh.vertices[j]
    return x, a[None, :] + x[:, None] * (b - a)[None, :]


def neumann_trace_defect_loop(flux, data):
    """Edge-by-edge max |sigma·n_out + gN_proj| over the Neumann edges."""
    mesh = flux.space.mesh
    worst = 0.0
    for k, e in enumerate(data.neumann_edges):
        e = int(e)
        x, pts = _edge_gauss_points(mesh, e)
        t = mesh.boundary_edge_triangle(e)
        n_out = mesh.edge_outward_sign[e] * mesh.edge_normals[e]
        tr = flux.normal_trace(pts, np.full(len(pts), t), np.tile(n_out, (len(pts), 1)))
        gn = data.gn_proj[k, 0] * (1.0 - x) + data.gn_proj[k, 1] * x
        worst = max(worst, float(np.abs(tr + gn).max()))
    return worst


def interior_jump_loop(flux):
    """Edge-by-edge max normal-trace jump across interior edges."""
    mesh = flux.space.mesh
    worst = 0.0
    for e in range(mesh.n_edges):
        t0, t1 = mesh.edge_tris[e]
        if t0 < 0 or t1 < 0:
            continue
        _, pts = _edge_gauss_points(mesh, e)
        nrm = np.tile(mesh.edge_normals[e], (len(pts), 1))
        tr0 = flux.normal_trace(pts, np.full(len(pts), t0), nrm)
        tr1 = flux.normal_trace(pts, np.full(len(pts), t1), nrm)
        worst = max(worst, float(np.abs(tr0 - tr1).max()))
    return worst
