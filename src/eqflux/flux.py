"""Equilibrated flux reconstruction in the degree-1 Raviart-Thomas space.

Per-vertex patch saddle-point problems minimise the distance between the
hat-weighted numerical flux and an H(div)-conforming field subject to the
elementwise divergence condition; the global flux is the patch sum.  The
reconstruction satisfies the projected divergence and Neumann-trace
identities that the error estimators rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .fem import TRI_QP, TRI_QW, ProblemData, ScalarField, _M3
from .geometry import CurveQuadrature, GeometryError, gauss_legendre
from .mesh import Mesh, VertexPatch, vertex_patches

_GLX, _GLW = gauss_legendre(4)

# Triple products  ∫ lam_i lam_j lam_k = area * _TRIPLE[i,j,k].
_TRIPLE = np.empty((3, 3, 3))
for _i in range(3):
    for _j in range(3):
        for _k in range(3):
            _TRIPLE[_i, _j, _k] = (1 / 10, 1 / 30, 1 / 60)[len({_i, _j, _k}) - 1]


class EquilibrationError(RuntimeError):
    """A patch mixed system could not be solved."""


class OrthogonalityError(RuntimeError):
    """Patch compatibility failed: the input is not a Galerkin solution."""


def _monomials(xi, eta):
    """Vector monomials spanning [P1]^2 + x~P1 in local coordinates.

    Returns an array of shape xi.shape + (8, 2).
    """
    z = np.zeros_like(xi)
    o = np.ones_like(xi)
    mx = np.stack([o, xi, eta, z, z, z, xi * xi, xi * eta], axis=-1)
    my = np.stack([z, z, z, o, xi, eta, xi * eta, eta * eta], axis=-1)
    return np.stack([mx, my], axis=-1)


def _div_monomials(xi, eta, scale):
    """Physical divergence of the local monomials, shape xi.shape + (8,)."""
    z = np.zeros_like(xi)
    o = np.ones_like(xi)
    d = np.stack([z, o, z, z, z, o, 3.0 * xi, 3.0 * eta], axis=-1)
    return d / np.asarray(scale)[..., None]


@dataclass
class RTSpace:
    """Degree-1 Raviart-Thomas space on a triangle mesh.

    Two DOFs per edge (normal-trace moments against {1, s} in the global
    edge orientation) and two per triangle (moments against the constant
    vector fields).  The per-triangle dual basis and the element matrices
    used by the patch problems are precomputed.
    """

    mesh: Mesh
    centers: np.ndarray  # (T, 2)
    scales: np.ndarray  # (T,)
    coeff: np.ndarray  # (T, 8, 8): monomial coefficients, column j = basis j
    mass: np.ndarray  # (T, 8, 8)
    divmom: np.ndarray  # (T, 3, 8): (div phi_j, lam_m)_K
    vecmom: np.ndarray  # (T, 3, 8, 2): (lam_m phi_j)_K
    tri_dofs: np.ndarray  # (T, 8) global DOF ids

    @property
    def total_dofs(self) -> int:
        return 2 * self.mesh.n_edges + 2 * self.mesh.n_triangles

    def local_coords(self, tris, points):
        d = (points - self.centers[tris]) / self.scales[tris][:, None]
        return d[:, 0], d[:, 1]

    def basis_at(self, tris, points):
        """Basis values at physical points in given triangles: (N, 8, 2)."""
        xi, eta = self.local_coords(tris, points)
        mono = _monomials(xi, eta)  # (N, 8, 2)
        return np.einsum("nkc,nkj->njc", mono, self.coeff[tris])


def build_rt_space(mesh: Mesh) -> RTSpace:
    """Construct the RT space with dual basis and element matrices."""
    T = mesh.n_triangles
    verts = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    centers = verts.mean(axis=1)
    scales = mesh.diameters.copy()

    # Edge geometry in triangle-local ordering: local edge l joins local
    # vertices (l, l+1), which is global edge triangle_edges[t, l].
    e_ids = mesh.triangle_edges  # (T, 3)
    ev = mesh.edge_vertices[e_ids]  # (T, 3, 2)
    A_pts = mesh.vertices[ev[..., 0]]  # (T, 3, 2)
    B_pts = mesh.vertices[ev[..., 1]]
    lengths = mesh.edge_lengths[e_ids]  # (T, 3)
    normals = mesh.edge_normals[e_ids]  # (T, 3, 2)

    # Gauss points along each edge (global orientation).  (T, 3, G, 2)
    G = len(_GLX)
    epts = A_pts[:, :, None, :] + _GLX[None, None, :, None] * (
        B_pts - A_pts
    )[:, :, None, :]
    xi = (epts[..., 0] - centers[:, None, None, 0]) / scales[:, None, None]
    eta = (epts[..., 1] - centers[:, None, None, 1]) / scales[:, None, None]
    mono_e = _monomials(xi, eta)  # (T, 3, G, 8, 2)
    tr = np.einsum("tlgkc,tlc->tlgk", mono_e, normals)  # (T, 3, G, 8)

    N = np.empty((T, 8, 8))
    for ell in range(3):
        N[:, 2 * ell, :] = lengths[:, ell, None] * np.einsum(
            "g,tgk->tk", _GLW, tr[:, ell]
        )
        N[:, 2 * ell + 1, :] = lengths[:, ell, None] * np.einsum(
            "g,g,tgk->tk", _GLW, _GLX, tr[:, ell]
        )
    qp = np.einsum("qk,tkd->tqd", TRI_QP, verts)  # (T, 6, 2)
    xiq = (qp[..., 0] - centers[:, None, 0]) / scales[:, None]
    etq = (qp[..., 1] - centers[:, None, 1]) / scales[:, None]
    mono_q = _monomials(xiq, etq)  # (T, 6, 8, 2)
    for c in range(2):
        N[:, 6 + c, :] = mesh.areas[:, None] * np.einsum(
            "q,tqk->tk", TRI_QW, mono_q[..., c]
        )
    try:
        coeff = np.linalg.inv(N)  # coeff[t, k, j]: monomial k of basis j
    except np.linalg.LinAlgError as exc:
        raise EquilibrationError(f"degenerate RT element: {exc}") from exc

    basis_q = np.einsum("tqkc,tkj->tqjc", mono_q, coeff)  # (T, 6, 8, 2)
    mass = np.einsum("t,q,tqic,tqjc->tij", mesh.areas, TRI_QW, basis_q, basis_q)
    div_q = np.einsum(
        "tqk,tkj->tqj", _div_monomials(xiq, etq, scales[:, None]), coeff
    )
    divmom = np.einsum("t,q,qm,tqj->tmj", mesh.areas, TRI_QW, TRI_QP, div_q)
    vecmom = np.einsum("t,q,qm,tqjc->tmjc", mesh.areas, TRI_QW, TRI_QP, basis_q)

    tri_dofs = np.empty((T, 8), dtype=np.int64)
    for ell in range(3):
        tri_dofs[:, 2 * ell] = 2 * e_ids[:, ell]
        tri_dofs[:, 2 * ell + 1] = 2 * e_ids[:, ell] + 1
    base = 2 * mesh.n_edges
    tri_dofs[:, 6] = base + 2 * np.arange(T)
    tri_dofs[:, 7] = base + 2 * np.arange(T) + 1
    return RTSpace(mesh, centers, scales, coeff, mass, divmom, vecmom, tri_dofs)


@dataclass
class FluxField:
    """Global RT coefficient vector over an RTSpace."""

    space: RTSpace
    coefficients: np.ndarray

    def eval_at(self, points, tris) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tris = np.asarray(tris, dtype=np.int64)
        basis = self.space.basis_at(tris, pts)  # (N, 8, 2)
        dofs = self.coefficients[self.space.tri_dofs[tris]]  # (N, 8)
        return np.einsum("nj,njc->nc", dofs, basis)

    def normal_trace(self, points, tris, normals) -> np.ndarray:
        vals = self.eval_at(points, tris)
        return np.einsum("nc,nc->n", vals, np.atleast_2d(normals))

    def divergence_vertex_values(self) -> np.ndarray:
        """Elementwise divergence (a P1 polynomial) at triangle vertices."""
        sp = self.space
        verts = sp.mesh.vertices[sp.mesh.triangles]  # (T, 3, 2)
        xi = (verts[..., 0] - sp.centers[:, None, 0]) / sp.scales[:, None]
        eta = (verts[..., 1] - sp.centers[:, None, 1]) / sp.scales[:, None]
        div_b = np.einsum(
            "tvk,tkj->tvj", _div_monomials(xi, eta, sp.scales[:, None]), sp.coeff
        )
        dofs = self.coefficients[sp.tri_dofs]  # (T, 8)
        return np.einsum("tj,tvj->tv", dofs, div_b)

    def cell_means(self) -> np.ndarray:
        """Mean flux vector per triangle (from the interior moments)."""
        sp = self.space
        interior = self.coefficients[sp.tri_dofs[:, 6:]]
        return interior / sp.mesh.areas[:, None]


@dataclass
class PatchMixedSystem:
    """Assembled saddle-point system of one patch problem."""

    flux_dofs: np.ndarray  # free global flux DOFs (solved for)
    prescribed: dict  # global DOF -> value (eliminated)
    matrix: np.ndarray
    rhs: np.ndarray
    mean_constraint: bool


def _prescribed_edge_dofs(space, e, vertex, gn, sign):
    """Moments of the trace -psi_a * gN on a Neumann edge, in global DOFs."""
    mesh = space.mesh
    i, j = mesh.edge_vertices[e]
    L = mesh.edge_lengths[e]
    psi = (1.0 - _GLX) if vertex == int(i) else _GLX
    gvals = gn[0] * (1.0 - _GLX) + gn[1] * _GLX
    tr = -sign * psi * gvals  # trace w.r.t. the global edge normal
    return (
        L * float(np.sum(_GLW * tr)),
        L * float(np.sum(_GLW * _GLX * tr)),
    )


def assemble_patch_system(
    space: RTSpace, patch: VertexPatch, u_h: ScalarField, data: ProblemData
) -> PatchMixedSystem:
    """Build the mixed system of one local flux reconstruction."""
    mesh = space.mesh
    a = patch.vertex
    tris = patch.triangles
    neumann = data.neumann_map()
    dirichlet_edges = data.dirichlet_edge_set()

    prescribed = {}
    for e in patch.boundary_edges_zero:
        prescribed[2 * int(e)] = 0.0
        prescribed[2 * int(e) + 1] = 0.0
    mean_constraint = patch.is_interior
    if not patch.is_interior:
        all_neumann = True
        for e in patch.boundary_edges_psi:
            e = int(e)
            k = neumann.get(e)
            if k is not None:
                sign = int(mesh.edge_outward_sign[e])
                d0, d1 = _prescribed_edge_dofs(space, e, a, data.gn_proj[k], sign)
                prescribed[2 * e] = d0
                prescribed[2 * e + 1] = d1
            else:
                all_neumann = False
                if e not in dirichlet_edges:
                    raise EquilibrationError(
                        f"patch {a}: boundary edge {e} is neither Neumann nor Dirichlet"
                    )
        mean_constraint = all_neumann

    local_dofs = np.unique(space.tri_dofs[tris].reshape(-1))
    free = np.array(
        [d for d in local_dofs if int(d) not in prescribed], dtype=np.int64
    )
    fmap = {int(d): k for k, d in enumerate(free)}
    nf = len(free)
    nlam = 3 * len(tris)
    n = nf + nlam + (1 if mean_constraint else 0)
    A = np.zeros((n, n))
    rhs = np.zeros(n)

    grads = u_h.gradients()
    patch_area = float(mesh.areas[tris].sum())
    for kk, t in enumerate(tris):
        t = int(t)
        dofs = space.tri_dofs[t]
        lidx = np.array([fmap.get(int(d), -1) for d in dofs])
        pvals = np.array([prescribed.get(int(d), 0.0) for d in dofs])
        is_free = lidx >= 0
        loc_a = int(np.where(mesh.triangles[t] == a)[0][0])
        M8 = space.mass[t]
        D38 = space.divmom[t]
        gu = grads[t]

        rows = lidx[is_free]
        # flux-flux block and its right-hand side
        A[rows[:, None], rows[None, :]] += M8[is_free][:, is_free]
        r1 = -space.vecmom[t][loc_a] @ gu  # (8,)
        r1 -= M8[:, ~is_free] @ pvals[~is_free]
        rhs[rows] += r1[is_free]
        # multiplier coupling
        lam_rows = nf + 3 * kk + np.arange(3)
        Df = D38[:, is_free]
        A[rows[:, None], lam_rows[None, :]] -= Df.T
        A[lam_rows[:, None], rows[None, :]] += Df
        r2 = (
            mesh.areas[t] * (_TRIPLE[loc_a] @ data.f_proj[t])
            - float(mesh.lam_grads[t, loc_a] @ gu) * mesh.areas[t] / 3.0
        )
        r2 -= D38[:, ~is_free] @ pvals[~is_free]
        rhs[lam_rows] += r2
        if mean_constraint:
            c = (mesh.areas[t] / 3.0) / patch_area
            A[lam_rows, n - 1] += c
            A[n - 1, lam_rows] += c
    return PatchMixedSystem(
        flux_dofs=free,
        prescribed=prescribed,
        matrix=A,
        rhs=rhs,
        mean_constraint=mean_constraint,
    )


def _compatibility_residual(space, patch, u_h, data):
    """Residual of the patch compatibility (Galerkin orthogonality) test."""
    mesh = space.mesh
    a = patch.vertex
    grads = u_h.gradients()
    neumann = data.neumann_map()
    total = 0.0
    scale = 0.0
    bscale = 0.0
    for t in patch.triangles:
        t = int(t)
        loc_a = int(np.where(mesh.triangles[t] == a)[0][0])
        fK = data.f_proj[t]
        total += mesh.areas[t] * float(_M3[loc_a] @ fK)
        total -= float(mesh.lam_grads[t, loc_a] @ grads[t]) * mesh.areas[t]
        lam_a = TRI_QP[:, loc_a]
        fq = TRI_QP @ fK
        scale += mesh.areas[t] * float(np.sum(TRI_QW * (lam_a * fq) ** 2))
        scale += mesh.areas[t] * float(mesh.lam_grads[t, loc_a] @ grads[t]) ** 2
    for e in patch.boundary_edges_psi:
        k = neumann.get(int(e))
        if k is None:
            continue
        L = mesh.edge_lengths[int(e)]
        i, _ = mesh.edge_vertices[int(e)]
        psi = (1.0 - _GLX) if a == int(i) else _GLX
        gn = data.gn_proj[k]
        gv = gn[0] * (1.0 - _GLX) + gn[1] * _GLX
        flux = -L * float(np.sum(_GLW * psi * gv))
        total -= flux
        bscale += abs(flux)
    return abs(total), np.sqrt(scale) + bscale


def patch_flux(
    space: RTSpace, patch: VertexPatch, u_h: ScalarField, data: ProblemData
):
    """Solve one patch problem; returns (global DOF ids, DOF values)."""
    system = assemble_patch_system(space, patch, u_h, data)
    if system.mean_constraint:
        resid, scale = _compatibility_residual(space, patch, u_h, data)
        if resid > 1e-9 * scale + 1e-13:
            raise OrthogonalityError(
                f"patch {patch.vertex}: compatibility residual {resid:.3e} "
                f"exceeds 1e-9 * {scale:.3e}; the field is not a Galerkin "
                "solution for the supplied data"
            )
    try:
        sol = linalg.dense_lu_solve(system.matrix, system.rhs)
    except linalg.SingularSystemError as exc:
        raise EquilibrationError(
            f"singular patch system at vertex {patch.vertex}: {exc}"
        ) from exc
    nf = len(system.flux_dofs)
    dofs = list(int(d) for d in system.flux_dofs)
    vals = list(sol[:nf])
    for d, v in system.prescribed.items():
        if v != 0.0:
            dofs.append(d)
            vals.append(v)
    return np.asarray(dofs, dtype=np.int64), np.asarray(vals, dtype=float)


def reconstruct_flux(u_h: ScalarField, data: ProblemData, space: RTSpace | None = None) -> FluxField:
    """Equilibrated flux: the sum of all patch reconstructions."""
    mesh = u_h.mesh
    if data.mesh is not mesh:
        raise ValueError("field and data live on different meshes")
    if space is None:
        space = build_rt_space(mesh)
    coef = np.zeros(space.total_dofs)
    for patch in vertex_patches(mesh):
        dofs, vals = patch_flux(space, patch, u_h, data)
        np.add.at(coef, dofs, vals)
    return FluxField(space, coef)


def flux_divergence_defect(flux: FluxField, data: ProblemData) -> np.ndarray:
    """Per-element L2 norm of (div sigma_h − f_proj)."""
    diff = flux.divergence_vertex_values() - data.f_proj
    mesh = flux.space.mesh
    q = np.einsum("tq,qk,tk->t", diff, _M3, diff) * mesh.areas
    return np.sqrt(np.maximum(q, 0.0))


def flux_normal_trace(flux: FluxField, q: CurveQuadrature) -> np.ndarray:
    """Normal trace of the flux at the quadrature nodes of a clipped curve."""
    if (q.node_tris < 0).any():
        raise GeometryError("curve node without an owning triangle")
    return flux.normal_trace(q.nodes, q.node_tris, q.normals)


def _edge_traces(flux: FluxField, edges, tris, normals) -> np.ndarray:
    """Normal traces at the degree-4 nodes of edges, seen from the triangles
    ``tris``; shape (len(edges), 4)."""
    mesh = flux.space.mesh
    G = len(_GLX)
    a = mesh.vertices[mesh.edge_vertices[edges, 0]]
    b = mesh.vertices[mesh.edge_vertices[edges, 1]]
    pts = a[:, None, :] + _GLX[None, :, None] * (b - a)[:, None, :]
    tr = flux.normal_trace(
        pts.reshape(-1, 2), np.repeat(tris, G), np.repeat(normals, G, axis=0)
    )
    return tr.reshape(-1, G)


def neumann_trace_defect(flux: FluxField, data: ProblemData) -> float:
    """max |sigma·n_out + gN_proj| over degree-4 nodes of all Neumann edges."""
    mesh = flux.space.mesh
    e = np.asarray(data.neumann_edges, dtype=np.int64)
    tris = mesh.edge_tris[e].max(axis=1)  # the outside neighbour is -1
    n_out = mesh.edge_outward_sign[e, None] * mesh.edge_normals[e]
    gn = data.gn_proj[:, :1] * (1.0 - _GLX) + data.gn_proj[:, 1:] * _GLX
    return float(np.abs(_edge_traces(flux, e, tris, n_out) + gn).max(initial=0.0))


def interior_jump(flux: FluxField) -> float:
    """max normal-trace jump across interior edges at degree-4 edge nodes."""
    mesh = flux.space.mesh
    e = np.where(mesh.edge_tris.min(axis=1) >= 0)[0]
    t0, t1 = mesh.edge_tris[e].T
    nrm = mesh.edge_normals[e]
    jump = _edge_traces(flux, e, t0, nrm) - _edge_traces(flux, e, t1, nrm)
    return float(np.abs(jump).max(initial=0.0))
