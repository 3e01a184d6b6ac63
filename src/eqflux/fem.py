"""P1 Lagrange discretization of the Poisson problems.

Covers data projection onto the discrete spaces, stiffness/load assembly,
the simplified-domain solve, the feature/extension solve with trace
coupling, and cross-mesh energy norms against reference solutions.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class CompositeField:
    """Piecewise field over several meshes (simplified domain + features)."""

    pieces: list

    def gradient_at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out, todo = _held_gradients(self, pts[None, :, 0], pts[None, :, 1])
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
    errors propagate, and a value that is not finite raises, naming its point.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    n = len(pts)
    if np.isscalar(fn):
        out = np.asarray(float(fn))
    else:
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
        out = np.full(n, float(out))
    elif out.shape != (n,):
        raise ValueError(f"data returned shape {out.shape} for {n} points")
    if len(bad := np.flatnonzero(~np.isfinite(out))):
        (x, y), v = pts[bad[0]], out[bad[0]]
        raise ValueError(f"data value {v} at point ({x}, {y}) is not finite")
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


def quad_points(mesh: Mesh, tris=slice(None)) -> np.ndarray:
    """Physical degree-4 quadrature points of triangles ``tris``, shape (n, 6, 2)."""
    t = mesh.triangles[tris].T  # on vertex rows, term by term: bitwise einsum("qk,tkd->tqd")
    return np.stack([(TRI_QP[:, :1] * c[0] + TRI_QP[:, 1:2] * c[1] + TRI_QP[:, 2:] * c[2]).T
                     for c in (mesh.vertices[:, 0][t], mesh.vertices[:, 1][t])], axis=2)


def project_forcing(f, mesh: Mesh) -> np.ndarray:
    """Elementwise L2 projection of the forcing onto P1, degree-4 quadrature."""
    fx = (np.full((1, len(TRI_QW)), float(f)) if np.isscalar(f)  # one row, broadcast by areas
          else eval_data(f, quad_points(mesh).reshape(-1, 2)).reshape(-1, len(TRI_QW)))
    fw = fx * TRI_QW
    # moments m_q = area * sum_w (f(x_w) w) lam_q(x_w), summed from 0 in w order as by einsum
    m = np.stack([sum(fw[:, w] * TRI_QP[w, q] for w in range(len(TRI_QW))) for q in range(3)], 1)
    return np.einsum("qk,tk->tq", _M3_INV, m * mesh.areas[:, None]) / mesh.areas[:, None]


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


def _gamma0_footprints(domain: DomainSpec, include=None, parts=None):
    """gamma0 polylines of excluded boundary/positive features with their g0."""
    include = include if include is not None else [False] * len(domain.features)
    # The partition of a boundary or positive feature has a gamma0 or raises.
    return [(feat, (p or partition_feature_boundary(feat, domain))["gamma0"])
            for feat, inc, p in zip(domain.features, include, parts or [None] * len(include))
            if not inc and feat.kind != NEGATIVE_INTERNAL]


def project_data(domain: DomainSpec, mesh: Mesh, include=None, parts=None) -> ProblemData:
    """Project forcing and boundary data for the (partially) defeatured solve.

    Boundary edges route to data by marker: Dirichlet edges take g_D,
    outer Neumann edges take g (or a feature's g0 on the gamma0 footprint of
    an excluded feature), and feature-marked edges take that feature's datum.
    ``parts`` holds the partitions of the features already partitioned (else None).
    """
    f_proj = project_forcing(domain.f, mesh)
    feat_by_id = {f.id: f for f in domain.features}
    footprints = _gamma0_footprints(domain, include, parts)
    # An outer Neumann edge takes the g0 of the first excluded feature whose
    # gamma0 footprint holds its midpoint, else g: one test of all midpoints.
    outer_g = [feat.neumann_g0 for feat, _ in footprints] + [domain.g_neumann]
    bnd = mesh.boundary_edge_ids
    first = first_group_on(mesh.edge_midpoints(bnd), [lines for _, lines in footprints])
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
    for e in mesh.boundary_edge_ids.tolist():
        m = mesh.edge_markers[e]
        if m is None or m.kind != "feature":
            raise ValueError(f"feature mesh boundary edge {e} lacks a feature marker")
        if m.part == "gamma0":
            dir_edges.append(e)
            continue
        neu_edges.append(e)  # gammaTilde takes the extension's datum; gamma, gammaS, gammaR g
        datums.append(feature.extension.neumann_g_tilde if m.part == "gammaTilde"
                      else feature.neumann_g)

    src = trace_source.mesh
    dir_vertices = np.unique(mesh.edge_vertices[np.asarray(dir_edges, dtype=np.int64)])
    pts = mesh.vertices[dir_vertices]
    tri = src.locate_points(pts)
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


def assemble_stiffness(mesh: Mesh):
    """Galerkin stiffness matrix (scipy.sparse CSR), exact: the diagonal summed per vertex,
    g_i·g_j·a per edge, in triangle order; an edge coupling exactly 0.0 (a lattice diagonal)
    leaves the pattern."""
    import scipy.sparse

    g, a, n = mesh.lam_grads, mesh.areas[:, None], mesh.n_vertices
    h = g[:, [1, 2, 0]]  # local edge l joins local vertices l and l + 1
    diag = np.bincount(mesh.triangles.ravel(), (g[..., 0] ** 2 * a + g[..., 1] ** 2 * a).ravel(), n)
    c = np.bincount(mesh.triangle_edges.ravel(),
                    (g[..., 0] * h[..., 0] * a + g[..., 1] * h[..., 1] * a).ravel(), mesh.n_edges)
    e = np.flatnonzero(c)
    (i, j), v = mesh.edge_vertices[e].T, np.arange(n)
    return scipy.sparse.csr_matrix((np.concatenate([diag, c[e], c[e]]), (  # bitwise symmetric
        np.concatenate([v, i, j]), np.concatenate([v, j, i]))), shape=(n, n))


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


def _prolongations(mesh: Mesh, free):
    """The P1 prolongation onto each level of a refined mesh from the one below, finest first,
    on free rows and columns, down to the coarsest level or the last above one with no free
    vertex: a parent vertex takes itself, the midpoint of an edge half of each end."""
    import scipy.sparse

    out = []
    for tri, mids in mesh.coarser_levels():
        V = mids.min()  # the midpoint of parent edge e is vertex V + e
        if not free[:V].any():
            break
        ends = np.repeat(np.arange(len(free))[:, None], 2, axis=1)  # a parent vertex: itself
        ends[mids] = np.stack([tri, np.roll(tri, -1, axis=1)], axis=2)
        P = scipy.sparse.csr_matrix((np.full(ends.size, 0.5), (np.arange(ends.size) // 2,
                                     ends.ravel())), shape=(len(free), V))  # sums duplicates
        out.append(P[free][:, free[:V]])
        free = free[:V]
    return out


def solve_poisson(mesh: Mesh, data: ProblemData, tol: float = 1e-12) -> ScalarField:
    """Solve the discrete Poisson problem with symmetric Dirichlet condensation, the free block
    by :func:`linalg.solve_spd` on the mesh's own refinement hierarchy (none on a mesh without
    ancestry, which is then solved by the LU of its free block)."""
    if not len(data.dirichlet_vertices):
        raise linalg.SolverError("pure Neumann problem: no Dirichlet vertex fixes the solution")
    A = assemble_stiffness(mesh)
    b = assemble_load(mesh, data)
    u = np.zeros(mesh.n_vertices)
    u[data.dirichlet_vertices] = data.dirichlet_values
    fixed = np.zeros(mesh.n_vertices, dtype=bool)
    fixed[data.dirichlet_vertices] = True

    free = np.where(~fixed)[0]
    rows = A[free]
    bf = b[free] - rows[:, fixed] @ u[fixed]
    u[free] = linalg.solve_spd(rows[:, free], bf, _prolongations(mesh, ~fixed), tol=tol)

    res = b - A @ u
    scale = linalg.norm(b) or 1.0
    if linalg.norm(res[free]) > 1e-10 * scale:
        raise linalg.SolverError("Galerkin residual above tolerance",
                                 residual=linalg.norm(res[free]) / scale)
    return ScalarField(mesh, u)


def _held_gradients(coarse: CompositeField, x, y):
    """The coarse gradient (n, 2) of each point set ``(x[:, i], y[:, i])``, coordinate rows
    (K, n), that the coarse triangle of its centroid holds (NaN for the others), and the
    positions of the others in piece order.  Centroids are located piece by piece, each
    piece trying those no earlier piece holds; a located point (K = 1) is held."""
    centroids = np.stack([sum(x[1:], x[0]), sum(y[1:], y[0])], axis=1) / len(x)  # rows in order
    grad = np.full((len(centroids), 2), np.nan)
    todo, rest = np.arange(len(centroids)), []  # centroids no piece has held yet
    for piece in coarse.pieces:
        found = piece.mesh.locate_points(centroids[todo])
        k, c = todo[found >= 0], found[found >= 0]
        held = piece.mesh.holds(c, x[:, k], y[:, k])
        grad[k[held]] = piece.gradients()[c[held]]
        rest.append(k[~held])
        todo = todo[found < 0]
    return grad, np.concatenate(rest + [todo])


def cross_mesh_gradients(coarse: CompositeField, fine: Mesh):
    """The coarse gradient at the fine mesh's quadrature points as ``(grad, rest,
    rest_grad)``: triangle ``t`` has ``grad[t]`` at all six points, but the rest
    have ``rest_grad`` (R, 6, 2) (and NaN ``grad``); expanded, this is
    ``coarse.gradient_at`` on ``quad_points(fine)`` bit for bit.  A triangle held
    by the coarse triangle ``c`` of its centroid (all three vertices, by
    ``Mesh.holds``) lies in ``c`` up to ``LOCATE_TOL``; its quadrature points are then
    inside ``c`` by a margin far above that tolerance, where no other triangle of
    that conforming mesh or earlier piece holds them, as the pieces meet only on
    their boundaries: ``locate_points`` would return ``c``.  The walk goes down the
    refinement levels from the coarsest: a triangle held by ``c`` contains its
    descendants, which so take ``c``'s gradient, and the children of the others are
    tried on the next level, in triangle order as on the flat mesh.  What the fine
    mesh leaves (across coarse edges or in no piece) takes the per-point path, in the
    order of the pieces.
    """
    grad = np.full((fine.n_triangles, 2), np.nan)
    levels = [tri for tri, _ in fine.coarser_levels()][::-1] + [fine.triangles]
    todo = np.arange(len(levels[0]))
    for tri in levels:
        held, rest = _held_gradients(coarse, *(fine.vertices[:, d][tri[todo].T] for d in (0, 1)))
        grad.reshape(len(tri), -1)[todo] = np.tile(held, len(grad) // len(tri))  # descendants
        rest = todo[rest]
        todo = (4 * np.sort(rest)[:, None] + np.arange(4)).ravel()
        if not len(todo):
            break
    pts = quad_points(fine, rest).reshape(-1, 2)
    return grad, rest, coarse.gradient_at(pts).reshape(len(rest), len(TRI_QW), 2)


def energy_error_cross_mesh(coarse, reference: ScalarField) -> float:
    """Energy norm of (reference − coarse): ``err² = sum_t area_t sum_q w_q
    (dx² + dy²)_tq`` over the gradient differences at the fine mesh's quadrature
    points, the q-sum term by term from 0 and the t-sum by np.sum.  ``coarse``, a
    ScalarField or CompositeField covering the fine mesh, has its gradients from
    :func:`cross_mesh_gradients`: a held fine triangle has one difference, six times.
    """
    if isinstance(coarse, ScalarField):
        coarse = CompositeField([coarse])
    fine = reference.mesh
    grad, rest, rest_grad = cross_mesh_gradients(coarse, fine)
    gref = reference.gradients()
    d = gref - grad
    sq = np.repeat((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])[None], len(TRI_QW), axis=0)
    d = gref[rest, None, :] - rest_grad
    sq[:, rest] = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).T  # (6, T) rows
    return float(np.sqrt(np.sum(fine.areas * sum(w * row for w, row in zip(TRI_QW, sq)))))


# -- export ------------------------------------------------------------------


def field_to_csv(field: ScalarField, path):
    ids = np.arange(field.mesh.n_vertices)  # exact in the float table below 2**53
    with open(path, "w", newline="") as f:
        np.savetxt(f, np.column_stack([ids, field.mesh.vertices, field.nodal_values]),
                   fmt="%d,%.17g,%.17g,%.17g", newline="\r\n", header="vertex_id,x,y,value",
                   comments="")


def write_vtk(path, mesh: Mesh, point_data=None, cell_vectors=None):
    """Legacy ASCII VTK unstructured grid with optional point/cell data."""
    T = mesh.n_triangles
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\neqflux\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        np.savetxt(f, mesh.vertices, fmt="%.17g %.17g 0")
        f.write(f"CELLS {T} {4 * T}\n")
        np.savetxt(f, mesh.triangles, fmt="3 %d %d %d")
        f.write(f"CELL_TYPES {T}\n")
        f.write("5\n" * T)
        if point_data:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, values in point_data.items():
                f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
                np.savetxt(f, values, fmt="%.17g")
        if cell_vectors:
            f.write(f"CELL_DATA {T}\n")
            for name, vecs in cell_vectors.items():
                f.write(f"VECTORS {name} double\n")
                np.savetxt(f, vecs, fmt="%.17g %.17g 0")
