"""P1 Lagrange discretization of the Poisson problems.

Covers data projection onto the discrete spaces, stiffness/load assembly,
the simplified-domain solve, the feature/extension solve with trace
coupling, and cross-mesh energy norms against reference solutions.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import linalg
from .geometry import (
    NEGATIVE_INTERNAL,
    DomainSpec,
    FeatureSpec,
    first_group_on,
    gauss_legendre,
    partition_feature_boundary,
)
from .mesh import Mesh

# Degree-4 triangle rule (6 points, barycentric), weights normalized to 1.
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
TRI_QP = np.array(
    [
        [1 - 2 * _A1, _A1, _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [_A1, _A1, 1 - 2 * _A1],
        [1 - 2 * _A2, _A2, _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [_A2, _A2, 1 - 2 * _A2],
    ]
)
TRI_QW = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

# P1 mass on a triangle is area/12 * (1 + identity).
_M3 = (np.ones((3, 3)) + np.eye(3)) / 12.0
_M3_INV = 0.25 * (4.0 * np.eye(3) - np.ones((3, 3))) * 12.0
_GL4_X, _GL4_W = gauss_legendre(4)


class CouplingError(RuntimeError):
    """Feature mesh does not match the trace-source mesh on gamma0."""


class CoverageError(RuntimeError):
    """A quadrature point could not be located in the coarse field."""


@dataclass
class ScalarField:
    """P1 nodal field on a mesh (immutable once built)."""

    mesh: Mesh
    nodal_values: np.ndarray

    def __post_init__(self):
        self.nodal_values = np.asarray(self.nodal_values, dtype=float)
        if len(self.nodal_values) != self.mesh.n_vertices:
            raise ValueError("nodal value count does not match the mesh")
        self._grad = None

    def gradients(self) -> np.ndarray:
        """Elementwise constant gradient, shape (T, 2)."""
        if self._grad is None:
            vals = self.nodal_values[self.mesh.triangles]  # (T, 3)
            self._grad = np.einsum("tq,tqd->td", vals, self.mesh.lam_grads)
        return self._grad

    def eval(self, points, tris=None, bary=None):
        if tris is None:
            tris, bary = self.mesh.locate_points(points)
            if (tris < 0).any():
                raise CoverageError("point outside the field's mesh")
        vals = self.nodal_values[self.mesh.triangles[tris]]
        return np.einsum("nq,nq->n", vals, bary)


@dataclass
class CompositeField:
    """Piecewise field over several meshes (simplified domain + features)."""

    pieces: list

    def gradient_at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full((len(pts), 2), np.nan)
        todo = np.arange(len(pts))
        for piece in self.pieces:
            if len(todo) == 0:
                break
            tris, _ = piece.mesh.locate_points(pts[todo])
            hit = tris >= 0
            if hit.any():
                g = piece.gradients()
                out[todo[hit]] = g[tris[hit]]
            todo = todo[~hit]
        if len(todo):
            raise CoverageError(
                f"{len(todo)} quadrature points not covered by the coarse field "
                f"(first: {pts[todo[0]]})"
            )
        return out


def eval_data(fn, pts, normals=None) -> np.ndarray:
    """Scalar data at points, shape (N,).

    ``fn`` is a number or a callable evaluated once on coordinate arrays:
    ``fn(x, y)``, or ``fn(x, y, nx, ny)`` when it takes four arguments and
    ``normals`` are given.  A scalar result is broadcast to every point;
    errors propagate.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    n = len(pts)
    if np.isscalar(fn):
        return np.full(n, float(fn))
    try:
        nargs = len(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        nargs = 2
    if nargs >= 4 and normals is not None:
        nrm = np.asarray(normals, dtype=float).reshape(-1, 2)
        out = fn(pts[:, 0], pts[:, 1], nrm[:, 0], nrm[:, 1])
    else:
        out = fn(pts[:, 0], pts[:, 1])
    out = np.asarray(out, dtype=float)
    if out.ndim == 0:
        return np.full(n, float(out))
    if out.shape != (n,):
        raise ValueError(f"data returned shape {out.shape} for {n} points")
    return out


@dataclass
class ProblemData:
    """Projected problem data tied to one mesh.

    f_proj holds the per-triangle P1 projection of the forcing in the
    barycentric basis; gn_proj the per-Neumann-edge P1 projection of the
    Neumann datum as endpoint values with respect to the global edge
    orientation.
    """

    mesh: Mesh
    f_proj: np.ndarray  # (T, 3)
    dirichlet_vertices: np.ndarray
    dirichlet_values: np.ndarray
    neumann_edges: np.ndarray
    gn_proj: np.ndarray  # (len(neumann_edges), 2)
    dirichlet_edges: np.ndarray = field(default_factory=lambda: np.zeros(0, int))

    def neumann_map(self) -> dict:
        if not hasattr(self, "_neumann_map"):
            self._neumann_map = {int(e): k for k, e in enumerate(self.neumann_edges)}
        return self._neumann_map


def quad_points(mesh: Mesh) -> np.ndarray:
    """Physical degree-4 quadrature points per triangle, shape (T, 6, 2)."""
    v = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    return np.einsum("qk,tkd->tqd", TRI_QP, v)


def project_forcing(f, mesh: Mesh) -> np.ndarray:
    """Elementwise L2 projection of the forcing onto P1, degree-4 quadrature."""
    pts = quad_points(mesh)
    fx = eval_data(f, pts.reshape(-1, 2)).reshape(mesh.n_triangles, len(TRI_QW))
    # moments m_q = area * sum_w w f(x_w) lam_q(x_w)
    m = np.einsum("tw,w,wq->tq", fx, TRI_QW, TRI_QP) * mesh.areas[:, None]
    return np.einsum("qk,tk->tq", _M3_INV, m) / mesh.areas[:, None]


def _project_edge_data(mesh: Mesh, edges, datums) -> np.ndarray:
    """P1 projection of each boundary edge's datum, shape (len(edges), 2).

    Rows are endpoint values (s=0, s=1) in the global edge orientation; the
    data see the outward normal.  Each distinct datum is evaluated once.
    """
    edges = np.asarray(edges, dtype=np.int64)
    out = np.zeros((len(edges), 2))
    for g in {id(g): g for g in datums}.values():
        sel = np.array([d is g for d in datums])
        e = edges[sel]
        a = mesh.vertices[mesh.edge_vertices[e, 0]]
        b = mesh.vertices[mesh.edge_vertices[e, 1]]
        n_out = mesh.edge_outward_sign[e, None] * mesh.edge_normals[e]
        pts = a[:, None, :] + _GL4_X[None, :, None] * (b - a)[:, None, :]
        nrm = np.repeat(n_out, len(_GL4_X), axis=0)
        gv = eval_data(g, pts.reshape(-1, 2), nrm).reshape(len(e), len(_GL4_X))
        m0 = np.sum(_GL4_W * gv * (1.0 - _GL4_X), axis=1)
        m1 = np.sum(_GL4_W * gv * _GL4_X, axis=1)
        out[sel] = np.stack([4.0 * m0 - 2.0 * m1, -2.0 * m0 + 4.0 * m1], axis=1)
    return out


def _gamma0_footprints(domain: DomainSpec, include=None):
    """gamma0 polylines of excluded boundary/positive features with their g0."""
    include = include if include is not None else [False] * len(domain.features)
    # The partition of a boundary or positive feature has a gamma0 or raises.
    return [(feat, partition_feature_boundary(feat, domain)["gamma0"])
            for feat, inc in zip(domain.features, include)
            if not inc and feat.kind != NEGATIVE_INTERNAL]


def project_data(domain: DomainSpec, mesh: Mesh, include=None) -> ProblemData:
    """Project forcing and boundary data for the (partially) defeatured solve.

    Boundary edges route to data by marker: Dirichlet edges take g_D,
    outer Neumann edges take g (or a feature's g0 on the gamma0 footprint of
    an excluded feature), and feature-marked edges take that feature's datum.
    """
    f_proj = project_forcing(domain.f, mesh)
    feat_by_id = {f.id: f for f in domain.features}
    footprints = _gamma0_footprints(domain, include)
    # An outer Neumann edge takes the g0 of the first excluded feature whose
    # gamma0 footprint holds its midpoint, else g: one test of all midpoints.
    outer_g = [feat.neumann_g0 for feat, _ in footprints] + [domain.g_neumann]
    bnd = mesh.boundary_edge_ids
    first = first_group_on(mesh.edge_midpoints()[bnd], [lines for _, lines in footprints])
    dir_edges, neu_edges, datums = [], [], []
    for e, k in zip(bnd.tolist(), first.tolist()):
        m = mesh.edge_markers[e]
        if m is None:
            raise ValueError(f"unmarked boundary edge {e}")
        if m.kind == "dirichlet":
            dir_edges.append(e)
            continue
        if m.kind == "neumann":
            g = outer_g[k]
        elif m.feature_id not in feat_by_id:
            raise ValueError(f"boundary edge {e} is marked for unknown feature {m.feature_id!r}")
        else:
            feat = feat_by_id[m.feature_id]
            g = feat.neumann_g0 if m.part == "gamma0" else feat.neumann_g
        neu_edges.append(e)
        datums.append(g)

    dir_edges = np.asarray(dir_edges, dtype=np.int64)
    dv = np.unique(mesh.edge_vertices[dir_edges])
    return ProblemData(
        mesh=mesh,
        f_proj=f_proj,
        dirichlet_vertices=dv,
        dirichlet_values=eval_data(domain.g_dirichlet, mesh.vertices[dv]),
        neumann_edges=np.asarray(neu_edges, dtype=np.int64),
        gn_proj=_project_edge_data(mesh, neu_edges, datums),
        dirichlet_edges=dir_edges,
    )


def feature_problem_data(
    feature: FeatureSpec, trace_source: ScalarField, feature_mesh: Mesh, forcing=0.0
) -> ProblemData:
    """Problem data for the feature (extension) solve.

    gamma0 edges are Dirichlet with the trace of the simplified-domain
    solution (vertices must coincide within 1e-12); gammaS and gamma carry
    the feature's Neumann datum, gammaTilde the extension's.
    """
    mesh = feature_mesh
    f_proj = project_forcing(forcing, mesh)
    dir_edges, neu_edges, datums = [], [], []
    for e in mesh.boundary_edge_ids:
        e = int(e)
        m = mesh.edge_markers[e]
        if m is None or m.kind != "feature":
            raise ValueError(f"feature mesh boundary edge {e} lacks a feature marker")
        if m.part == "gamma0":
            dir_edges.append(e)
            continue
        if m.part == "gammaTilde":
            g = feature.extension.neumann_g_tilde
        else:  # gamma, gammaS, gammaR
            g = feature.neumann_g
        neu_edges.append(e)
        datums.append(g)

    src = trace_source.mesh
    dir_vertices = np.unique(mesh.edge_vertices[np.asarray(dir_edges, dtype=np.int64)])
    pts = mesh.vertices[dir_vertices]
    tri, _ = src.locate_points(pts)
    if (tri < 0).any():
        p = pts[np.argmax(tri < 0)]
        raise CouplingError(f"gamma0 vertex {p} outside the trace-source mesh")
    corners = src.triangles[tri]  # (N, 3)
    d = np.linalg.norm(src.vertices[corners] - pts[:, None, :], axis=2)
    k, near = d.argmin(axis=1), d.min(axis=1)
    if (near > 1e-12).any():
        j = np.argmax(near > 1e-12)
        raise CouplingError(
            f"gamma0 vertex {pts[j]} does not coincide with a trace-source vertex "
            f"(nearest at distance {near[j]:.3e})"
        )
    vals = trace_source.nodal_values[corners[np.arange(len(pts)), k]]
    return ProblemData(
        mesh=mesh,
        f_proj=f_proj,
        dirichlet_vertices=dir_vertices,
        dirichlet_values=vals,
        neumann_edges=np.asarray(neu_edges, dtype=np.int64),
        gn_proj=_project_edge_data(mesh, neu_edges, datums),
        dirichlet_edges=np.asarray(dir_edges, dtype=np.int64),
    )


def assemble_stiffness(mesh: Mesh) -> scipy.sparse.csr_matrix:
    """Galerkin stiffness matrix (CSR) with exact elementwise integration."""
    g = mesh.lam_grads  # (T, 3, 2)
    local = np.einsum("tid,tjd,t->tij", g, g, mesh.areas)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).reshape(-1)
    cols = np.tile(tri, (1, 3)).reshape(-1)
    n = mesh.n_vertices
    coo = scipy.sparse.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n))
    return coo.tocsr()


def assemble_load(mesh: Mesh, data: ProblemData) -> np.ndarray:
    """Load vector from projected forcing and Neumann data (exact P1×P1)."""
    b = np.zeros(mesh.n_vertices)
    loc = np.einsum("tq,qk->tk", data.f_proj, _M3) * mesh.areas[:, None]
    np.add.at(b, mesh.triangles.reshape(-1), loc.reshape(-1))
    # Edge by edge, endpoint i then j: the order of the sums of a loop.
    L = mesh.edge_lengths[data.neumann_edges]
    c0, c1 = data.gn_proj.T
    ends = np.stack([L * (c0 / 3.0 + c1 / 6.0), L * (c0 / 6.0 + c1 / 3.0)], axis=1)
    np.add.at(b, mesh.edge_vertices[data.neumann_edges].ravel(), ends.ravel())
    return b


def solve_poisson(
    mesh: Mesh, data: ProblemData, tol: float = 1e-12, gauge: str | None = None
) -> ScalarField:
    """Solve the discrete Poisson problem with symmetric Dirichlet condensation.

    Pure-Neumann problems need ``gauge='mean_zero'`` and compatible data.
    """
    A = assemble_stiffness(mesh)
    b = assemble_load(mesh, data)
    u = np.zeros(mesh.n_vertices)
    fixed = np.zeros(mesh.n_vertices, dtype=bool)
    if len(data.dirichlet_vertices):
        fixed[data.dirichlet_vertices] = True
        u[data.dirichlet_vertices] = data.dirichlet_values
    elif gauge is None:
        raise linalg.SolverError(
            "pure Neumann problem: pass gauge='mean_zero' for a gauged solve"
        )
    elif gauge == "mean_zero":
        fixed[0] = True
    else:
        raise ValueError(f"unknown gauge {gauge!r}")

    free = np.where(~fixed)[0]
    rows = A[free]
    bf = b[free] - rows[:, fixed] @ u[fixed]
    u[free] = linalg.solve_spd(rows[:, free], bf, tol=tol)

    res = b - A @ u
    scale = np.linalg.norm(b) or 1.0
    if np.linalg.norm(res[free]) > 1e-10 * scale:
        raise linalg.SolverError(
            "Galerkin residual above tolerance",
            residual=float(np.linalg.norm(res[free]) / scale),
        )
    if not len(data.dirichlet_vertices):
        # Incompatible pure-Neumann data shows up in the pinned row.
        if abs(res[0]) > 1e-8 * scale:
            raise linalg.SolverError(
                "pure Neumann data incompatible", residual=float(abs(res[0]) / scale)
            )
        w = np.zeros(mesh.n_vertices)
        np.add.at(w, mesh.triangles.reshape(-1), np.repeat(mesh.areas / 3.0, 3))
        u -= np.dot(w, u) / w.sum()
    return ScalarField(mesh, u)


def solve_feature_problem(
    feature: FeatureSpec,
    trace_source: ScalarField,
    feature_mesh: Mesh,
    forcing=0.0,
    tol: float = 1e-12,
) -> ScalarField:
    """Solve the feature (extension) problem coupled through the gamma0 trace."""
    data = feature_problem_data(feature, trace_source, feature_mesh, forcing)
    return solve_poisson(feature_mesh, data, tol=tol)


def energy_error_cross_mesh(coarse, reference: ScalarField) -> float:
    """Energy norm of (reference − coarse) by quadrature on the fine mesh.

    ``coarse`` is a ScalarField or a CompositeField covering the fine mesh's
    domain; its gradient is looked up per quadrature point by point location.
    """
    if isinstance(coarse, ScalarField):
        coarse = CompositeField([coarse])
    fine = reference.mesh
    pts = quad_points(fine)  # (T, 6, 2)
    gc = coarse.gradient_at(pts.reshape(-1, 2)).reshape(fine.n_triangles, len(TRI_QW), 2)
    diff = reference.gradients()[:, None, :] - gc
    err2 = np.einsum("t,q,tqd,tqd->", fine.areas, TRI_QW, diff, diff)
    return float(np.sqrt(err2))


# -- export ------------------------------------------------------------------


def field_to_csv(field: ScalarField, path):
    with open(path, "w", newline="") as f:
        f.write("vertex_id,x,y,value\r\n")
        for k, (x, y) in enumerate(field.mesh.vertices):
            f.write(f"{k},{x:.17g},{y:.17g},{field.nodal_values[k]:.17g}\r\n")


def write_vtk(path, mesh: Mesh, point_data=None, cell_vectors=None, title="eqflux"):
    """Legacy ASCII VTK unstructured grid with optional point/cell data."""
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g} 0\n")
        T = mesh.n_triangles
        f.write(f"CELLS {T} {4 * T}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {T}\n")
        f.write("5\n" * T)
        if point_data:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, values in point_data.items():
                f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
                for v in values:
                    f.write(f"{v:.17g}\n")
        if cell_vectors:
            f.write(f"CELL_DATA {T}\n")
            for name, vecs in cell_vectors.items():
                f.write(f"VECTORS {name} double\n")
                for vx, vy in vecs:
                    f.write(f"{vx:.17g} {vy:.17g} 0\n")
