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
from .mesh import Mesh, patch_edge_split

_GLX, _GLW = gauss_legendre(4)

# Triple products  ∫ lam_i lam_j lam_k = area * _TRIPLE[i,j,k].
_TRIPLE = np.array([(1 / 10, 1 / 30, 1 / 60)[len({i, j, k}) - 1]
                    for i in range(3) for j in range(3) for k in range(3)]).reshape(3, 3, 3)


class EquilibrationError(RuntimeError):
    """A patch mixed system could not be solved, or a flux fails its certificate."""


class OrthogonalityError(RuntimeError):
    """Patch compatibility failed: the input is not a Galerkin solution."""


# Reference RT1 basis on the triangle (0, 0), (1, 0), (0, 1): column k holds
# the coefficients of basis k on the monomials (1, 0), (x, 0), (y, 0), (0, 1),
# (0, x), (0, y), x(x, y), y(x, y).  It is dual to the reference DOFs: the
# moments of phi·nu against {1, s} along local edge l, run from vertex l to
# l + 1 with parameter s in [0, 1] and nu the edge vector turned clockwise
# (unnormalised), then the moments against the constant fields (1, 0), (0, 1).
_RT_REF = np.array([
    [0, 0, 0, 0, 2, -6, 0, 0],
    [6, -10, -4, 2, -2, 14, 16, 8],
    [0, 0, 0, 0, -6, 12, 0, 0],
    [-4, 6, 0, 0, 0, 0, 0, 0],
    [6, -12, 0, 0, 0, 0, 0, 0],
    [12, -14, -2, -2, -4, 10, 8, 16],
    [-8, 16, 8, -8, 0, -8, -16, -8],
    [-8, 8, 0, 8, 8, -16, -8, -16],
], dtype=float)


def _rt_field(c, x, y):
    """The RT1 field with monomial coefficients ``c[0..7]`` (broadcast
    against x and y) at the points (x, y), components on a last axis."""
    q = x * c[6] + y * c[7]
    return np.stack([c[0] + x * (c[1] + q) + y * c[2], c[3] + x * c[4] + y * (c[5] + q)], axis=-1)


def _reference_tensors():
    """Integrals over the reference triangle, of its basis phî_j and
    barycentrics lam_m, by the degree-4 rule (the integrands have degree at
    most 4): ``R[a, b, i, j] = ∫ phî_i,a phî_j,b``, ``R_D[m, j] = ∫ div phî_j
    lam_m`` and ``R_V[m, j, a] = ∫ lam_m phî_j,a``; also ``R_Dv[v, j]``, the
    divergence of phî_j at vertex v."""
    w = 0.5 * TRI_QW
    B = _rt_field(_RT_REF[:, None, :], TRI_QP[:, 1, None], TRI_QP[:, 2, None])  # (6, 8, 2)
    R = np.einsum("q,qia,qjb->abij", w, B, B)
    R_V = np.einsum("q,qm,qja->mja", w, TRI_QP, B)
    # div phî = c1 + c5 + 3 (x c6 + y c7) is P1: its values at the vertices.
    R_Dv = _RT_REF[1] + _RT_REF[5] + 3.0 * np.stack([np.zeros(8), _RT_REF[6], _RT_REF[7]])
    return R, 0.5 * _M3 @ R_Dv, R_V, R_Dv


_R, _R_D, _R_V, _R_DV = _reference_tensors()


def _unique_rows(a):
    """The distinct rows of the C-contiguous 2-d array ``a`` by their bytes, numbered by first
    occurrence: (the first row of each, the number of each row)."""
    _, first, inv = np.unique(a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel(),
                              return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inv]


def _jacobians(v) -> np.ndarray:
    """Jacobians ``J = [v1 − v0, v2 − v0]`` of the affine maps from the
    reference triangle onto the triangles with vertices v (n, 3, 2), shape
    (n, 2, 2); ``det J = 2 |K|``."""
    return np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)


@dataclass
class RTSpace:
    """Degree-1 Raviart-Thomas space on a triangle mesh.

    Two DOFs per edge (normal-trace moments against {1, s} in the global
    edge orientation) and two per triangle (moments against the constant
    vector fields).  The basis of triangle K is the contravariant Piola image
    ``J phî / det J`` of the reference basis, re-expressed in the global DOFs:
    ``transform[shape[K]]`` maps K's global DOFs to reference DOFs.  It and the
    element matrices are computed once per shape (:func:`build_rt_space`).
    """

    mesh: Mesh
    transform: np.ndarray  # (S, 8, 8): reference DOFs = transform @ global DOFs
    mass: np.ndarray  # (S, 8, 8)
    divmom: np.ndarray  # (S, 3, 8): (div phi_j, lam_m)_K
    vecmom: np.ndarray  # (S, 3, 8, 2): (lam_m phi_j)_K
    tri_dofs: np.ndarray  # (T, 8) global DOF ids
    shape: np.ndarray  # (T,) shape of each triangle, numbered by first triangle

    @property
    def total_dofs(self) -> int:
        return 2 * self.mesh.n_edges + 2 * self.mesh.n_triangles


def build_rt_space(mesh: Mesh) -> RTSpace:
    """Construct the RT space: the DOF transforms and element matrices.

    Under ``phi = J phî / det J`` an edge moment against {1, s} with the
    clockwise-turned edge vector does not change (``Jᵀ R J = det J · R`` for
    the rotation R), and interior moments map by J.  The global edge runs
    from its lower to its higher vertex (``Mesh``); where the local edge
    runs the other way its normal and parameter flip, so its block of the
    transform is ``[[-1, 0], [-1, 1]]`` instead of the identity.  Both edge
    blocks are involutions and the interior block is ``J⁻¹``.  These depend on the
    bytes of ``J`` and the edge signs alone (``mesh.areas`` and ``mesh.lam_grads``
    are functions of J's columns), so they are built once per shape.
    """
    T, tri = mesh.n_triangles, mesh.triangles
    J = _jacobians(mesh.vertices[tri])
    s = np.where(tri < np.roll(tri, -1, axis=1), 1.0, -1.0)  # (T, 3): +1 where local = global
    first, shape = _unique_rows(np.hstack([J.reshape(T, 4), s]))
    S, J, s = len(first), J[first], s[first]
    D = np.zeros((S, 8, 8))
    e = 2 * np.arange(3)
    D[:, e, e] = s
    D[:, e + 1, e] = 0.5 * (s - 1.0)
    D[:, e + 1, e + 1] = 1.0
    D[:, 6:, 6:] = mesh.lam_grads[first, 1:]  # grad lam_1, grad lam_2 are the rows of J⁻¹
    G = np.einsum("tca,tcb->tab", J, J) / (2.0 * mesh.areas[first])[:, None, None]
    mass = (G.reshape(S, 4) @ _R.reshape(4, 64)).reshape(S, 8, 8)
    mass = D.transpose(0, 2, 1) @ mass @ D
    divmom = _R_D @ D
    vecmom = (J[:, None] @ (_R_V.transpose(0, 2, 1).reshape(6, 8) @ D).reshape(S, 3, 2, 8)
              ).transpose(0, 1, 3, 2)

    tri_dofs = np.hstack([(2 * mesh.triangle_edges[:, :, None] + np.arange(2)).reshape(T, 6),
                          2 * mesh.n_edges + 2 * np.arange(T)[:, None] + np.arange(2)])
    return RTSpace(mesh, D, mass, divmom, vecmom, tri_dofs, shape)


@dataclass
class FluxField:
    """Global RT coefficient vector over an RTSpace."""

    space: RTSpace
    coefficients: np.ndarray

    def reference_dofs(self, tris=slice(None)) -> np.ndarray:
        """The reference DOFs of the field on triangles ``tris`` (default: all), one row each."""
        sp = self.space
        return np.einsum("tkj,tj->tk", sp.transform[sp.shape[tris]],
                         self.coefficients[sp.tri_dofs[tris]])

    def eval_at(self, points, tris) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tris = np.asarray(tris, dtype=np.int64)
        mesh = self.space.mesh
        v = mesh.vertices[mesh.triangles[tris]]  # (N, 3, 2)
        # The reference coordinates lam_1, lam_2 as J⁻¹ (x − v0): differences
        # first, so that no cancellation of the absolute coordinates enters.
        ref = np.einsum("nab,nb->na", mesh.lam_grads[tris, 1:], pts - v[:, 0])
        # Per distinct triangle, in 4096-row blocks: OpenBLAS keeps those on one thread (no stalls).
        u, inv = np.unique(tris, return_inverse=True)
        d = self.reference_dofs(u)
        c = np.vstack([d[s:s + 4096] @ _RT_REF.T for s in range(0, max(len(u), 1), 4096)]).T[:, inv]
        phi = _rt_field(c, ref[:, 0], ref[:, 1])
        return np.einsum("nca,na->nc", _jacobians(v), phi) / (2.0 * mesh.areas[tris, None])

    def normal_trace(self, points, tris, normals) -> np.ndarray:
        vals = self.eval_at(points, tris)
        return np.einsum("nc,nc->n", vals, np.atleast_2d(normals))

    def divergence_vertex_values(self) -> np.ndarray:
        """Elementwise divergence (a P1 polynomial) at triangle vertices:
        ``div sigma = div phî / det J`` under the Piola map."""
        return self.reference_dofs() @ _R_DV.T / (2.0 * self.space.mesh.areas[:, None])

    def cell_means(self) -> np.ndarray:
        """Mean flux vector per triangle (from the interior moments)."""
        sp = self.space
        interior = self.coefficients[sp.tri_dofs[:, 6:]]
        return interior / sp.mesh.areas[:, None]


# Patch systems are solved in stacks of at most this many entries of the
# (nf + 3t)² saddle-point layout (4 MB of float64), which bounds the memory of
# one condensed solve's M, W and S.
_STACK_ENTRIES = 1 << 19


@dataclass
class PatchBatch:
    """A stack of patch mixed systems of one layout: ``nf`` free flux DOFs,
    the same number of triangles per patch and one mean-value choice.

    Incidence ``i`` is triangle ``tris[i]`` of batch patch ``patch[i]``;
    incidences run patch by patch in slot order, so the three multiplier rows
    of a patch's slot ``s`` are ``3s .. 3s + 2`` of its ``B`` and ``g``.
    """

    vertices: np.ndarray  # (P,) patch vertex
    mean: bool  # the systems carry the mean-value constraint
    nf: int  # free flux DOFs of each system
    dofs: np.ndarray  # (P, nf) global DOF of each free row
    patch: np.ndarray  # (I,)
    tris: np.ndarray  # (I,)
    loc: np.ndarray  # (I,) local index of the patch vertex in the triangle
    rows: np.ndarray  # (I, 8) free row of each triangle DOF, -1 where prescribed
    prescribed: np.ndarray  # (I, 8) prescribed DOF values, 0 on free DOFs
    system: np.ndarray  # (P,) system among the layout's distinct ones, numbered by first patch
    new: np.ndarray | None  # first patches of the systems new in this stack; None: solve directly


def patch_batches(space: RTSpace, data: ProblemData, vertices=None) -> list[PatchBatch]:
    """Lay out the mixed systems of the patches of ``vertices`` (vertex ids;
    default: all, in order) in batches of one layout (free rows, triangles,
    mean-value constraint) of at most ``_STACK_ENTRIES`` entries of
    ``(nf + 3t)²`` each.  A patch is its vertex's slice of
    :meth:`Mesh.vertex_to_triangles`, split by :func:`mesh.patch_edge_split`.
    Both moments of a zero edge are prescribed 0; those of a Neumann psi edge
    are the moments of the trace -psi_a * gN.  A patch without a Dirichlet
    psi edge (every interior patch) carries the mean-value constraint.
    """
    mesh = space.mesh
    offsets, v2t = mesh.vertex_to_triangles()
    vertices = np.arange(mesh.n_vertices) if vertices is None else np.asarray(vertices, np.int64)
    nt, P = offsets[vertices + 1] - offsets[vertices], len(vertices)
    patch = np.repeat(np.arange(P), nt)
    owner = vertices[patch]
    first = np.cumsum(nt) - nt  # first incidence of each patch
    tris = v2t[np.arange(len(patch)) + (offsets[vertices] - first)[patch]]
    loc, zero, psi = patch_edge_split(mesh, tris, owner)
    edges = mesh.triangle_edges[tris]  # (I, 3)
    neu = np.full(mesh.n_edges, -1)
    neu[data.neumann_edges] = np.arange(len(data.neumann_edges))
    neu = neu[edges]
    neumann = psi & (neu >= 0)
    dirichlet = psi & ~neumann & np.isin(edges, data.dirichlet_edges)
    bad = np.argwhere(psi & ~neumann & ~dirichlet)
    if len(bad):
        i, k = bad[0]
        raise EquilibrationError(f"patch {owner[i]}: boundary edge {edges[i, k]} "
                                 "is neither Neumann nor Dirichlet")

    e = edges[neumann]
    at_a = mesh.edge_vertices[e, 0] == np.broadcast_to(owner[:, None], edges.shape)[neumann]
    gn = data.gn_proj[neu[neumann]]
    tr = (-mesh.edge_outward_sign[e, None] * np.where(at_a[:, None], 1.0 - _GLX, _GLX)
          * (gn[:, :1] * (1.0 - _GLX) + gn[:, 1:] * _GLX))
    moments = np.zeros(edges.shape + (2,))
    moments[neumann] = mesh.edge_lengths[e, None] * np.stack(
        [np.sum(_GLW * tr, axis=1), np.sum(_GLW * _GLX * tr, axis=1)], axis=1)
    prescribed = np.pad(moments.reshape(-1, 6), ((0, 0), (0, 2)))

    free = np.pad(np.repeat(~(zero | neumann), 2, axis=1), ((0, 0), (0, 2)),
                  constant_values=True)
    free_patch = np.broadcast_to(patch[:, None], free.shape)[free]
    D = space.total_dofs
    uniq, rank = np.unique(free_patch * D + space.tri_dofs[tris][free], return_inverse=True)
    nf = np.bincount(uniq // D, minlength=P)
    start = np.cumsum(nf) - nf  # first free DOF of each patch in uniq
    rows = np.full(free.shape, -1)
    rows[free] = rank - start[free_patch]
    mean = np.bincount(patch, dirichlet.sum(axis=1), minlength=P) == 0

    # Patches sorted stably by layout, and their incidences and free DOFs in
    # that order: every stack is a run of slices.
    layout = (nf * (int(nt.max(initial=0)) + 1) + nt) * 2 + mean
    order = np.argsort(layout, kind="stable")
    nt, nf, vertices, layout = nt[order], nf[order], vertices[order], layout[order]
    i0, f0 = np.cumsum(nt) - nt, np.cumsum(nf) - nf
    inc = np.arange(len(patch)) + np.repeat(first[order] - i0, nt)
    dofs = uniq[np.arange(len(uniq)) + np.repeat(start[order] - f0, nf)] % D
    tris, loc, rows, prescribed = tris[inc], loc[inc], rows[inc], prescribed[inc]
    batches = []
    starts = np.flatnonzero(np.diff(layout, prepend=-1))
    for a, b in zip(starts, np.append(starts[1:], P)):
        f, t = int(nf[a]), int(nt[a])
        # A system's key is, slot by slot, the free rows and the shape of its triangles, whose
        # element matrices M, B and c sum in slot order: equal keys, bitwise-equal systems.
        j = slice(i0[a], i0[a] + (b - a) * t)
        key = np.hstack([rows[j], space.shape[tris[j], None]]).reshape(b - a, -1)
        heads, system = _unique_rows(key)
        grouped = len(heads) * (f + 3 * t) <= b - a  # R (nf + 3t) <= P
        per = max(1, _STACK_ENTRIES // (f + 3 * t) ** 2)
        for s, n in ((s, min(per, b - s)) for s in range(a, b, per)):
            i = slice(i0[s], i0[s] + n * t)
            new = heads[(heads >= s - a) & (heads < s - a + n)] - (s - a)
            batches.append(PatchBatch(
                vertices[s:s + n], bool(layout[a] % 2), f, dofs[f0[s]:f0[s] + n * f].reshape(n, f),
                np.repeat(np.arange(n), t), tris[i], loc[i], rows[i], prescribed[i],
                system[s - a:s - a + n], new if grouped else None))
    return batches


def assemble_patch_system(space: RTSpace, batch: PatchBatch, u_h: ScalarField,
                          data: ProblemData):
    """The blocks ``(M, B, f, g, c)`` of a batch's mixed systems, as
    :func:`linalg.saddle_solve` reads them: the right-hand sides f (P, nf) and
    g (P, 3t) of every patch, and the flux block M (R, nf, nf), the divergence
    block B (R, 3t, nf) and the hat-weight border c (R, 3t) of the mean-value
    constraint, or None without it, of the R patches ``batch.new`` (of every
    patch where that is None).  Prescribed DOFs enter only the right-hand sides."""
    mesh, shape = space.mesh, space.shape
    P, nf = len(batch.vertices), batch.nf
    t, loc, pv, rows = batch.tris, batch.loc, batch.prescribed, batch.rows
    area = mesh.areas[t]
    grad = u_h.gradients()[t]
    free = rows >= 0
    row = batch.patch[:, None] * nf + rows  # (I, 8) row among the stack's P * nf
    r1 = -np.einsum("ijc,ic->ij", space.vecmom[shape[t], loc], grad)
    r2 = (area[:, None] * np.einsum("imk,ik->im", _TRIPLE[loc], data.f_proj[t])
          - (np.einsum("ic,ic->i", mesh.lam_grads[t, loc], grad) * area / 3.0)[:, None])
    p = np.flatnonzero(pv.any(axis=1))  # incidences with a nonzero prescribed value
    r1[p] -= np.einsum("ijk,ik->ij", space.mass[shape[t[p]]], pv[p])
    r2[p] -= np.einsum("imj,ij->im", space.divmom[shape[t[p]]], pv[p])
    f = np.bincount(row[free], r1[free], minlength=P * nf).reshape(P, nf)

    nt, R = len(t) // P, P if batch.new is None else len(batch.new)
    sub = slice(None) if batch.new is None else (batch.new[:, None] * nt + np.arange(nt)).ravel()
    rows, area, s = rows[sub], area[sub], shape[t[sub]]
    free, own = rows >= 0, np.repeat(np.arange(R), nt)
    row = own[:, None] * nf + rows
    # An edge DOF shared by two patch triangles sums two flux-block entries.
    pairs = free[:, :, None] & free[:, None, :]
    M = np.bincount((row[:, :, None] * nf + rows[:, None, :])[pairs], space.mass[s][pairs],
                    minlength=R * nf * nf)
    i, k = np.nonzero(free)
    B = np.zeros((len(rows), 3, nf))
    B[i, :, rows[i, k]] = space.divmom[s[i], :, k]
    c = None
    if batch.mean:
        hat = area / 3.0 / np.bincount(own, area, minlength=R)[own]
        c = np.repeat(hat, 3).reshape(R, 3 * nt)
    return M.reshape(R, nf, nf), B.reshape(R, 3 * nt, nf), f, r2.reshape(P, -1), c


def _compatibility_residual(space, batch, g, u_h, data):
    """Per-patch residual and scale of the compatibility (Galerkin
    orthogonality) test: the sum of the multiplier right-hand sides ``g`` is
    the hat-weighted residual of the forcing, the flux and the Neumann data."""
    mesh = space.mesh
    t, loc, P = batch.tris, batch.loc, len(batch.vertices)
    fq = data.f_proj[t] @ TRI_QP.T * TRI_QP.T[loc]  # psi_a f at the quadrature points
    ga = np.einsum("ic,ic->i", mesh.lam_grads[t, loc], u_h.gradients()[t])
    sq = mesh.areas[t] * (fq**2 @ TRI_QW + ga**2)
    bnd = np.abs(batch.prescribed[:, 0:6:2]).sum(axis=1)  # |Neumann flux| per psi edge
    scale = np.sqrt(np.bincount(batch.patch, sq, minlength=P))
    return np.abs(g.sum(axis=1)), scale + np.bincount(batch.patch, bnd, minlength=P)


def patch_flux(space: RTSpace, batch: PatchBatch, u_h: ScalarField, data: ProblemData,
               operators: dict):
    """Solve a batch of patch problems by static condensation: directly, or by the operators
    of its layout's systems, kept in ``operators`` once ``batch.new`` factors them (the unit
    columns as right-hand sides); returns (global DOF ids, DOF values) to add up."""
    M, B, f, g, c = assemble_patch_system(space, batch, u_h, data)
    resid, scale = _compatibility_residual(space, batch, g, u_h, data)
    bad = resid > 1e-9 * scale + 1e-13
    if batch.mean and bad.any():
        k = int(np.argmax(bad))
        raise OrthogonalityError(
            f"patch {batch.vertices[k]}: compatibility residual {resid[k]:.3e} "
            f"exceeds 1e-9 * {scale[k]:.3e}; the field is not a Galerkin "
            "solution for the supplied data"
        )
    nf, k = batch.nf, f.shape[1] + g.shape[1]
    try:
        if batch.new is None:
            sol = linalg.saddle_solve(M, B, f[..., None], g[..., None], c)[..., 0]
        else:
            Z = operators.setdefault((nf, k, batch.mean), [])  # the layout's operators so far
            if len(batch.new):
                unit = np.broadcast_to(np.eye(k), (len(batch.new), k, k))
                Z.append(linalg.saddle_solve(M, B, unit[:, :nf], unit[:, nf:], c))
            sol = (np.concatenate(Z)[batch.system] @ np.hstack([f, g])[..., None])[..., 0]
    except linalg.SingularSystemError as exc:
        p = exc.index if batch.new is None else batch.new[exc.index]  # its stack position
        raise EquilibrationError(
            f"singular patch system at vertex {batch.vertices[p]}: {exc}"
        ) from exc
    fixed = batch.rows < 0
    return (np.concatenate([batch.dofs.ravel(), space.tri_dofs[batch.tris][fixed]]),
            np.concatenate([sol.ravel(), batch.prescribed[fixed]]))


def reconstruct_flux(u_h: ScalarField, data: ProblemData, space: RTSpace | None = None) -> FluxField:
    """Equilibrated flux: the sum of all patch reconstructions."""
    mesh = u_h.mesh
    if data.mesh is not mesh:
        raise ValueError("field and data live on different meshes")
    if space is None:
        space = build_rt_space(mesh)
    coef, operators = np.zeros(space.total_dofs), {}
    for batch in patch_batches(space, data):
        dofs, vals = patch_flux(space, batch, u_h, data, operators)
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


def certify(flux: FluxField, data: ProblemData, name: str) -> None:
    """Raise :class:`EquilibrationError`, naming the flux by ``name``, unless ``div sigma = Pi f``
    (per element in L2) and ``sigma·n = -Pi g`` (at the Neumann nodes) hold to 1e-9 times the
    largest cell-mean flux."""
    scale = np.sqrt((flux.cell_means() ** 2).sum(axis=1).max(initial=0.0))
    for kind, defect in (("divergence", flux_divergence_defect(flux, data).max(initial=0.0)),
                         ("Neumann trace", neumann_trace_defect(flux, data))):
        if not defect <= 1e-9 * scale:
            raise EquilibrationError(f"{name}: {kind} defect {defect:.3e} > 1e-9 * flux scale "
                                     f"{scale:.3e}")


def interior_jump(flux: FluxField) -> float:
    """max normal-trace jump across interior edges at degree-4 edge nodes."""
    mesh = flux.space.mesh
    e = np.where(mesh.edge_tris.min(axis=1) >= 0)[0]
    t0, t1 = mesh.edge_tris[e].T
    nrm = mesh.edge_normals[e]
    jump = _edge_traces(flux, e, t0, nrm) - _edge_traces(flux, e, t1, nrm)
    return float(np.abs(jump).max(initial=0.0))
