"""Equilibrated flux reconstruction in the degree-1 Raviart-Thomas space.

Each vertex patch flux minimises the distance to the hat-weighted numerical
flux among the RT1 fields on the patch with the elementwise divergence
condition and the patch boundary traces; the global flux is the patch sum.
The minimiser is split as in Braess, Pillwein and Schöberl (CMAME 198, 2009):
a particular flux, swept around the vertex's fan of triangles as in Braess and
Schöberl (Math. Comp. 77, 2008), plus the curl of a continuous P2 function
that minimises the distance, one small SPD system per patch.  The
reconstruction satisfies the projected divergence and Neumann-trace
identities that the error estimators rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .fem import TRI_QP, TRI_QW, ProblemData, ScalarField, _GL4_W, _GL4_X, _M3
from .mesh import Mesh

# Triple products  ∫ lam_i lam_j lam_k = area * _TRIPLE[i,j,k].
_TRIPLE = np.array([(1 / 10, 1 / 30, 1 / 60)[len({i, j, k}) - 1]
                    for i in range(3) for j in range(3) for k in range(3)]).reshape(3, 3, 3)


# Round-off floor of the checks per max|u_h|: at n = 4 … 64 and g_D ≤ 1000, Galerkin solutions
# left compatibility residuals below 11 eps max|u_h| and divergence defects below
# 18 eps max|u_h| / h.
ROUNDOFF = 256 * np.finfo(float).eps


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
# Reference DOFs of the constant fields (2, 0) and (0, 2): edge moments ν̂_l·{2, 1} with
# ν̂ = (0, -1), (1, 1), (-1, 0), and interior moments the field over 2.
_CONST_REF = np.array([[0, 0, 2, 1, -2, -1, 1, 0], [-2, -1, 2, 1, 0, 0, 0, 1]], dtype=float)


def _rt_field(c, x, y):
    """The RT1 field with monomial coefficients ``c[0..7]`` (broadcast
    against x and y) at the points (x, y), components on a last axis."""
    q = x * c[6] + y * c[7]
    return np.stack([c[0] + x * (c[1] + q) + y * c[2], c[3] + x * c[4] + y * (c[5] + q)], axis=-1)


def _reference_tensors():
    """Integrals over the reference triangle, of its basis phî_j and
    barycentrics lam_m, by the degree-4 rule (the integrands have degree at
    most 4): ``R[p, i, j]``, ``∫ phî_i,a phî_j,b`` for ``(a, b) = (0, 0)``,
    ``(1, 1)`` and their sum over ``(0, 1)`` and ``(1, 0)``, which
    :attr:`RTSpace.metric` weights; ``R_D[m, j] = ∫ div phî_j lam_m`` and
    ``R_V[m, j, a] = ∫ lam_m phî_j,a``; also ``R_Dv[v, j]``, the divergence of
    phî_j at vertex v."""
    w = 0.5 * TRI_QW
    B = _rt_field(_RT_REF[:, None, :], TRI_QP[:, 1, None], TRI_QP[:, 2, None])  # (6, 8, 2)
    R = np.einsum("q,qia,qjb->abij", w, B, B)
    R_V = np.einsum("q,qm,qja->mja", w, TRI_QP, B)
    # div phî = c1 + c5 + 3 (x c6 + y c7) is P1: its values at the vertices.
    R_Dv = _RT_REF[1] + _RT_REF[5] + 3.0 * np.stack([np.zeros(8), _RT_REF[6], _RT_REF[7]])
    return np.stack([R[0, 0], R[0, 1] + R[1, 0], R[1, 1]]), 0.5 * _M3 @ R_Dv, R_V, R_Dv


_R, _R_D, _R_V, _R_DV = _reference_tensors()


def _map_dofs(d, s, A):
    """``d`` ``(n, 8)`` with each edge block mapped by ``[[s, 0], [(s − 1)/2, 1]]``, ``s`` ``(n,
    3)`` the edge signs, and the interior block by ``A`` ``(n, 2, 2)``, row by row."""
    out = np.empty_like(d)
    out[:, 0:6:2] = s * d[:, 0:6:2]
    out[:, 1:6:2] = d[:, 1:6:2] + 0.5 * (s - 1.0) * d[:, 0:6:2]
    out[:, 6:] = A[:, :, 0] * d[:, 6, None] + A[:, :, 1] * d[:, 7, None]
    return out


@dataclass
class RTSpace:
    """Degree-1 Raviart-Thomas space on a triangle mesh.

    Two DOFs per edge (normal-trace moments against {1, s} in the global
    edge orientation) and two per triangle (moments against the constant
    vector fields).  The basis of triangle K is the contravariant Piola image
    ``J phî / det J`` of the reference basis, re-expressed in the global DOFs:
    the reference DOFs are ``D`` times the global ones (:meth:`to_reference`).
    Every element operator is a fixed reference tensor weighted by
    ``G = JᵀJ / det J`` (``metric``), by J or by nothing: the mass matrix in
    reference DOFs is ``Σ_p metric[K, p] _R[p]``.
    """

    mesh: Mesh
    tri_dofs: np.ndarray  # (T, 8) global DOF ids
    metric: np.ndarray  # (T, 3): G_00, G_01, G_11 of G = JᵀJ / det J

    @property
    def total_dofs(self) -> int:
        return 2 * self.mesh.n_edges + 2 * self.mesh.n_triangles

    def to_reference(self, g, tris=slice(None)) -> np.ndarray:
        """The reference DOFs ``D g`` of the global DOFs ``g`` ``(n, 8)`` on triangles ``tris``."""
        return _map_dofs(g, self.mesh.triangle_edge_signs[tris], self.mesh.lam_grads[tris, 1:])

    def to_global(self, d) -> np.ndarray:
        """The global DOFs ``D⁻¹ d`` of reference DOFs ``d`` ``(T, 8)``, one row per triangle."""
        return _map_dofs(d, self.mesh.triangle_edge_signs, self.mesh.jacobians)


def build_rt_space(mesh: Mesh) -> RTSpace:
    """Construct the RT space: the DOF numbering and the metric of each triangle.

    Under ``phi = J phî / det J`` an edge moment against {1, s} with the
    clockwise-turned edge vector does not change (``Jᵀ R J = det J · R`` for
    the rotation R), and interior moments map by J.  The global edge runs
    from its lower to its higher vertex; where the local edge runs the other
    way (``mesh.triangle_edge_signs`` −1) its normal and parameter flip, so its
    block of ``D`` is ``[[-1, 0], [-1, 1]]`` instead of the identity.  Both
    edge blocks are involutions and the interior block is ``J⁻¹``, whose rows
    are ``mesh.lam_grads[:, 1:]``.
    """
    T, J = mesh.n_triangles, mesh.jacobians.reshape(-1, 4)  # J_00, J_01, J_10, J_11
    JtJ = J[:, [0, 0, 1]] * J[:, [0, 1, 1]] + J[:, [2, 2, 3]] * J[:, [2, 3, 3]]
    tri_dofs = np.hstack([(2 * mesh.triangle_edges[:, :, None] + np.arange(2)).reshape(T, 6),
                          2 * mesh.n_edges + 2 * np.arange(T)[:, None] + np.arange(2)])
    return RTSpace(mesh, tri_dofs, JtJ / (2.0 * mesh.areas)[:, None])


@dataclass
class FluxField:
    """Global RT coefficient vector over an RTSpace."""

    space: RTSpace
    coefficients: np.ndarray

    def reference_dofs(self, tris=slice(None)) -> np.ndarray:
        """The reference DOFs of the field on triangles ``tris`` (default: all), one row each."""
        sp = self.space
        return sp.to_reference(self.coefficients[sp.tri_dofs[tris]], tris)

    def eval_at(self, points, tris) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tris = np.asarray(tris, dtype=np.int64)
        mesh = self.space.mesh
        # The reference coordinates lam_1, lam_2 as J⁻¹ (x − v0): differences
        # first, so that no cancellation of the absolute coordinates enters.
        v0 = mesh.vertices[mesh.triangles[tris, 0]]
        ref = np.einsum("nab,nb->na", mesh.lam_grads[tris, 1:], pts - v0)
        # Per distinct triangle, in 4096-row blocks: OpenBLAS keeps those on one thread (no stalls).
        u, inv = np.unique(tris, return_inverse=True)
        d = self.reference_dofs(u)
        c = np.vstack([d[s:s + 4096] @ _RT_REF.T for s in range(0, max(len(u), 1), 4096)]).T[:, inv]
        phi = _rt_field(c, ref[:, 0], ref[:, 1])
        J = mesh.jacobians[tris]
        return np.einsum("nca,na->nc", J, phi) / (2.0 * mesh.areas[tris, None])

    def divergence_vertex_values(self) -> np.ndarray:
        """Elementwise divergence (a P1 polynomial) at triangle vertices:
        ``div sigma = div phî / det J`` under the Piola map."""
        return self.reference_dofs() @ _R_DV.T / (2.0 * self.space.mesh.areas[:, None])

    def cell_means(self) -> np.ndarray:
        """Mean flux vector per triangle (from the interior moments)."""
        sp = self.space
        interior = self.coefficients[sp.tri_dofs[:, 6:]]
        return interior / sp.mesh.areas[:, None]


def _curl_reference():
    """Reference DOFs ``(3, 8, 3)`` of the curls ``(∂_y phi, −∂_x phi)`` of the P2 functions of
    the corner at local vertex m: 1 at the vertex, at the midpoint of its in-edge (local edge m)
    and at that of its out-edge (local edge m + 2), 0 at the triangle's other nodes.  Along an
    edge from p to q the normal moments of curl phi are ``phi(q) − phi(p)`` and ``phi(q) − mean
    phi`` (Simpson), and the interior moments are ``−Σ_l mean_l phi (v_{l+1} − v_l)``."""
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    C = np.zeros((3, 8, 3))
    for m in range(3):
        i, o = 2 * m, 2 * ((m + 2) % 3)
        C[m, i:i + 2, 0] = -1.0, -1.0 / 6.0  # the vertex starts the in-edge
        C[m, o:o + 2, 0] = 1.0, 5.0 / 6.0  # and ends the out-edge
        C[m, i + 1, 1] = C[m, o + 1, 2] = -2.0 / 3.0
        a, b, c = v[m], v[(m + 1) % 3], v[(m + 2) % 3]
        C[m, 6:] = np.stack([(c - b) / 6.0, 2.0 / 3.0 * (a - b), 2.0 / 3.0 * (c - a)], axis=1)
    return C


_CURL_REF = _curl_reference()

# The curl system of corner m, Ĉ_m = _CURL_REF[m], on rows ending in m: ``_K[k, (l, m), p] =
# (Ĉ_mᵀ _R[p] Ĉ_m)[k, l]`` (the P2 stiffness, as |curl phi| = |grad phi|), ``_V[(k, m)] = (_R_V[m]ᵀ
# Ĉ_m)[:, k]`` against ``Jᵀ grad u_h``, ``_RC[(p, k, m), (m, i)] = (_R[p] Ĉ_m)[i, k]`` (0 off its
# blocks) against the particular flux; ``_CURL_ROWS`` maps a triangle's corner P2 values to curl.
_K = np.einsum("mik,pij,mjl->klmp", _CURL_REF, _R, _CURL_REF).reshape(3, 9, 3)
_V = np.einsum("mic,mik->kmc", _R_V, _CURL_REF).reshape(9, 2)
_RC = np.einsum("pij,mjk,mn->pkmni", _R, _CURL_REF, np.eye(3)).reshape(27, 24)
_CURL_ROWS = _CURL_REF.transpose(0, 2, 1).reshape(9, 8)


@dataclass
class Fans:
    """Every vertex patch as one fan of triangle corners: corner ``c = 3K + m`` is triangle K in
    the patch of vertex ``tri[K, m]``, with in-edge K's local edge m and out-edge its local edge
    m + 2, the next corner's in-edge counterclockwise around the vertex.  An open fan runs from
    the psi edge that is its first corner's in-edge to the one that is its last's out-edge."""

    order: np.ndarray  # (V, tmax) corners of each fan in order, -1 past its end
    size: np.ndarray  # (V,) triangles of each patch
    closed: np.ndarray  # (V,) the fan closes: an interior vertex
    psi: np.ndarray  # (V, 2) first and last psi edge, -1 on a closed fan
    neumann: np.ndarray  # (V, 2) that psi edge is Neumann
    moments: np.ndarray  # (V, 2, 2) global moments of the trace -psi_a gN on a Neumann psi edge
    outflux: np.ndarray  # (V, 2) its flux out of the patch, 0 off Neumann edges


def patch_fans(mesh: Mesh, data: ProblemData) -> Fans:
    """Walk the fan of every vertex through ``mesh.edge_tris``, one array step per fan position.
    A patch that is not one fan around its vertex (two boundary starts, or corners the walk never
    reaches), and a psi edge that is neither Neumann nor Dirichlet, raise
    :class:`EquilibrationError` naming the vertex."""
    tri, V, n = mesh.triangles, mesh.n_vertices, 3 * mesh.n_triangles
    owner, K = tri.ravel(), np.arange(n) // 3
    e_in, e_out = mesh.triangle_edges.ravel(), mesh.triangle_edges[:, [2, 0, 1]].ravel()
    other = mesh.edge_tris[e_out].sum(axis=1) - K  # across the out-edge, -1 off the domain
    nxt = np.where(other >= 0, 3 * other + np.argmax(tri[other] == owner[:, None], axis=1), -1)
    opens = mesh.on_boundary[e_in]
    size, starts = np.bincount(owner, minlength=V), np.bincount(owner[opens], minlength=V)
    cur = np.full(V, n)
    np.minimum.at(cur, owner, np.arange(n))  # a closed fan starts at its vertex's first corner
    cur[owner[opens]] = np.flatnonzero(opens)
    order = np.full((V, size.max(initial=0)), -1)
    for k in range(order.shape[1]):
        live = k < size
        order[live, k] = cur[live]
        cur = np.where(cur >= 0, nxt[cur], -1)
    seen = np.bincount(order[order >= 0], minlength=n)
    bad = np.flatnonzero((starts > 1) | (np.bincount(owner[seen != 1], minlength=V) > 0))
    if len(bad):
        raise EquilibrationError(f"patch {bad[0]}: its triangles are not one fan around the vertex")

    closed = starts == 0
    ends = np.stack([e_in[order[:, 0]], e_out[order[np.arange(V), size - 1]]], axis=1)
    psi = np.where(closed[:, None], -1, ends)
    neu = np.full(mesh.n_edges + 1, -1)  # psi -1 reads the last entry
    neu[data.neumann_edges] = np.arange(len(data.neumann_edges))
    neumann = neu[psi] >= 0
    bad = np.argwhere((psi >= 0) & ~neumann & ~np.isin(psi, data.dirichlet_edges))
    if len(bad):
        v, j = bad[0]
        raise EquilibrationError(f"patch {v}: boundary edge {psi[v, j]} "
                                 "is neither Neumann nor Dirichlet")
    v, j = np.nonzero(neumann)
    e = psi[v, j]
    gn = data.gn_proj[neu[e]]
    tr = (-mesh.edge_outward_sign[e, None]
          * np.where(mesh.edge_vertices[e, :1] == v[:, None], 1.0 - _GL4_X, _GL4_X)
          * (gn[:, :1] * (1.0 - _GL4_X) + gn[:, 1:] * _GL4_X))
    moments = np.zeros((V, 2, 2))
    moments[v, j] = mesh.edge_lengths[e, None] * np.stack(
        [np.sum(_GL4_W * tr, axis=1), np.sum(_GL4_W * _GL4_X * tr, axis=1)], axis=1)
    return Fans(order, size, closed, psi, neumann, moments,
                mesh.edge_outward_sign[psi] * moments[..., 0])


def divergence_moments(mesh: Mesh, fans: Fans, u_h: ScalarField, data: ProblemData):
    """The divergence moments ``r[K, m, i] = (psi_a f − grad psi_a · grad u_h, lam_i)_K`` of
    each corner ``(T, 3, 3)``, ``a = tri[K, m]``, and of each patch the compatibility (Galerkin
    orthogonality) residual, its net divergence less its prescribed Neumann outflow, and the
    residual's scale."""
    tri, area, T, V = mesh.triangles, mesh.areas, mesh.n_triangles, mesh.n_vertices
    ga = (mesh.lam_grads @ u_h.gradients()[:, :, None])[..., 0]  # grad psi_a · grad u_h
    r = area[:, None, None] * ((data.f_proj @ _TRIPLE.reshape(9, 3).T).reshape(T, 3, 3)
                               - ga[..., None] / 3.0)
    fq = (data.f_proj @ TRI_QP.T)[:, None, :] * TRI_QP.T  # psi_a f at the quadrature points
    owner = tri.ravel()
    sq = area[:, None] * (fq**2 @ TRI_QW + ga**2)
    scale = np.sqrt(np.bincount(owner, sq.ravel(), V)) + np.abs(fans.outflux).sum(axis=1)
    return r, np.bincount(owner, r.sum(axis=2).ravel(), V) - fans.outflux.sum(axis=1), scale


def particular_flux(space: RTSpace, fans: Fans, u_h: ScalarField, data: ProblemData):
    """Per corner, the reference DOFs ``(T, 3, 8)`` on its triangle of a patch flux with the
    moments of :func:`divergence_moments` (less ``μ |K| / 3`` each on a mean-value patch, ``μ``
    its compatibility residual over its area), no trace on zero edges and the prescribed one on
    Neumann psi edges.  Each out-edge carries the fan's running net divergence; spoke linear
    moments are 0 but on Neumann edges; the interior DOFs meet the divergence moments against
    lam_1, lam_2 through the fixed reference block ``_R_D[1:, 6:]``, which is ``−I``: by parts,
    ``(div phî_j, lam_m) = −(phî_j, grad lam_m)`` for an interior basis function.  An
    incompatible patch raises :class:`OrthogonalityError`."""
    mesh = space.mesh
    tri, area, T, V = mesh.triangles, mesh.areas, mesh.n_triangles, mesh.n_vertices
    r, resid, scale = divergence_moments(mesh, fans, u_h, data)
    mean = fans.closed | fans.neumann.all(axis=1)  # no Dirichlet psi edge
    floor = ROUNDOFF * np.abs(u_h.nodal_values).max(initial=0.0)
    bad = np.flatnonzero(mean & (np.abs(resid) > 1e-9 * scale + floor))
    if len(bad):
        k = bad[0]
        raise OrthogonalityError(f"patch {k}: compatibility residual {abs(resid[k]):.3e} exceeds "
                                 f"1e-9 * {scale[k]:.3e} + {floor:.3e}; the field is not a "
                                 "Galerkin solution for the supplied data")
    mu = np.where(mean, resid, 0.0) / np.bincount(tri.ravel(), np.repeat(area, 3), V)
    r -= (mu[tri] * area[:, None] / 3.0)[..., None]

    order, live, last = fans.order, fans.order >= 0, (np.arange(V), fans.size - 1)
    run = np.cumsum(np.where(live, r.sum(axis=2).ravel()[order], 0.0), axis=1)
    outflux, neumann = fans.outflux, fans.neumann
    start = np.where(neumann[:, 0], outflux[:, 0],
                     np.where(neumann[:, 1], run[last] - outflux[:, 1], 0.0))
    out = run - start[:, None]  # outward flux through each corner's out-edge
    out[last] = np.where(fans.closed, -start, np.where(neumann[:, 1], outflux[:, 1], out[last]))
    flux = np.zeros((2, 3 * T))  # outward through the in-edge, the out-edge
    flux[0, order[live]] = np.hstack([start[:, None], -out[:, :-1]])[live]
    flux[1, order[live]] = out[live]

    # The reference constant moment of an edge is its outward flux; its linear moment is that
    # flux where the local edge runs against the global one (D's edge block), plus the global
    # linear moment, 0 but on Neumann edges.
    back = mesh.triangle_edge_signs < 0
    f_in, f_out = flux.reshape(2, T, 3)
    m, o = np.arange(3), np.array([2, 0, 1])  # a corner's in-edge and out-edge
    sigma = np.zeros((T, 3, 8))
    sigma[:, m, 2 * m] = f_in
    sigma[:, m, 2 * m + 1] = back * f_in
    sigma[:, m, 2 * o] = f_out
    sigma[:, m, 2 * o + 1] = back[:, o] * f_out
    v, j = np.nonzero(fans.neumann)
    c = order[v, np.where(j == 0, 0, fans.size[v] - 1)]
    sigma.reshape(-1, 8)[c, 2 * ((c + 2 * j) % 3) + 1] += fans.moments[v, j, 1]
    # _R_D[1:] sigma = r[1:]; the interior DOFs, still 0, add nothing to the product.
    sigma[..., 6:] = (sigma.reshape(-1, 8) @ _R_D[1:].T).reshape(T, 3, 2) - r[..., 1:]
    return sigma


@dataclass
class PatchStack:
    """The P2 curl systems of all patches, one batch on the last axis.  The unknowns are the P2
    nodal values at the patch vertex (0) and at its spoke midpoints in fan order (1, 2, ...),
    padded to n = tmax + 2; a fixed or padding unknown has a unit row and a zero right-hand side."""

    vertices: np.ndarray  # (P,) the vertex of each batch position
    corners: np.ndarray  # (tmax, P) in fan order, -1 past the fan's end
    nodes: np.ndarray  # (tmax, 3, P) unknown of each corner's vertex, in- and out-edge midpoint
    A: np.ndarray  # (n, n, P)
    b: np.ndarray  # (n, P)


def assemble_patch_system(space: RTSpace, fans: Fans, sigma, u_h: ScalarField) -> PatchStack:
    """The systems of each patch's correction ``curl phi``, ``phi`` continuous P2 on the patch
    and 0 on its zero edges and Neumann psi edges, that minimises ``‖sigma_a + curl phi + psi_a
    grad u_h‖``, ``sigma_a`` the reference DOFs of :func:`particular_flux`: per corner
    ``A = Ĉᵀ M̂ Ĉ`` and ``b = −Ĉᵀ (M̂ sigma_a + (psi_a grad u_h, phî))``, ``M̂`` the mass matrix
    in reference DOFs, the D of the Piola map cancelling.  ``Jᵀ grad u_h`` is the difference of
    u_h along the triangle's sides from vertex 0.  The corner terms (corner 3K + m in column
    mT + K) are summed into one :class:`PatchStack`, ``A`` one corner-matrix row at a time."""
    mesh, T, G = space.mesh, space.mesh.n_triangles, space.metric.T
    corners, t = fans.order.T, fans.size
    (tmax, V), n, k = corners.shape, corners.shape[0] + 2, np.arange(corners.shape[0])[:, None]
    nodes = np.stack(np.broadcast_arrays(0, 1 + k, np.where(fans.closed & (k == t - 1), 1, 2 + k)),
                     axis=1)
    at = np.empty((3, 3 * T + 1), np.int64)  # each corner's unknowns; corner -1 the spare last
    at[:, np.append(np.arange(3 * T).reshape(3, T).T, -1)[corners]] = nodes.transpose(1, 0, 2)
    row = at[:, :-1] * V + mesh.triangles.T.ravel()  # (unknown, patch) flat in (n, V)
    u = u_h.nodal_values[mesh.triangles.T]
    Ms = (G[:, None] * (_RC @ sigma.reshape(T, 24).T).reshape(3, 9, T)).sum(axis=0)
    b = np.bincount(row.ravel(), (-(_V @ (u[1:] - u[:1])) - Ms).ravel(), n * V).reshape(n, V)
    A = np.zeros((n, n, V))
    for i in range(3):
        np.add.at(A.reshape(-1), (at[i, :-1] * (n * V) + row).ravel(), (_K[i] @ G).ravel())
    free = np.arange(n)[:, None] <= t
    free[[0, 1]] = ~fans.neumann.any(axis=1), ~fans.neumann[:, 0]
    free[t + 1, np.arange(V)] = ~fans.closed & ~fans.neumann[:, 1]
    k, p = np.nonzero(~free & (np.diagonal(A).T != 0))  # fixed and in use: a used diagonal is > 0
    A[k, :, p] = A[:, k, p] = 0.0
    A[np.arange(n), np.arange(n)] += ~free
    return PatchStack(np.arange(V), corners, nodes, A, b * free)


def patch_flux(stack: PatchStack, phi) -> None:
    """Solve the batch, factoring ``stack.A`` in place, into ``phi`` ``(3T + 1, 3)``: row c the
    nodal values of corner c's vertex and in- and out-edge midpoint, the spare last row written
    past each fan's end.  A singular system raises :class:`EquilibrationError` naming its vertex."""
    try:
        x = linalg.cholesky_solve(stack.A, stack.b)
    except linalg.SingularSystemError as exc:
        raise EquilibrationError(
            f"singular patch system at vertex {stack.vertices[exc.index]}: {exc}"
        ) from exc
    P = x.shape[1]
    phi[stack.corners] = x.ravel()[stack.nodes * P + np.arange(P)].transpose(0, 2, 1)


def corner_fluxes(u_h: ScalarField, data: ProblemData, space: RTSpace):
    """Each patch flux ``sigma_a``, a fan-swept particular flux plus its P2 curl correction, per
    corner: the particular flux's reference DOFs ``(T, 3, 8)`` on the corner's triangle, and the
    P2 nodal values ``(T, 3, 3)`` whose curls (:func:`_curl_reference`) correct it."""
    fans = patch_fans(space.mesh, data)
    sigma = particular_flux(space, fans, u_h, data)
    phi = np.empty((3 * space.mesh.n_triangles + 1, 3))
    patch_flux(assemble_patch_system(space, fans, sigma, u_h), phi)
    return sigma, phi[:-1].reshape(-1, 3, 3)


def reconstruct_flux(u_h: ScalarField, data: ProblemData, space: RTSpace | None = None) -> FluxField:
    """Equilibrated flux: the sum of the patch fluxes, per triangle over its three corners, taken
    in reference DOFs and mapped to global DOFs once."""
    mesh = u_h.mesh
    if data.mesh is not mesh:
        raise ValueError("field and data live on different meshes")
    if space is None:
        space = build_rt_space(mesh)
    sigma, phi = corner_fluxes(u_h, data, space)
    ref = sigma.sum(axis=1) + phi.reshape(-1, 9) @ _CURL_ROWS
    coef = np.bincount(space.tri_dofs.ravel(), space.to_global(ref).ravel(), space.total_dofs)
    # Both triangles of an interior edge give its DOFs, equal up to round-off: their mean.
    coef[:2 * mesh.n_edges] /= np.repeat(2 - mesh.on_boundary, 2)
    return FluxField(space, coef)


def flux_divergence_defect(flux: FluxField, data: ProblemData) -> np.ndarray:
    """Per-element L2 norm of (div sigma_h − f_proj)."""
    diff = flux.divergence_vertex_values() - data.f_proj
    mesh = flux.space.mesh
    q = np.einsum("tq,qk,tk->t", diff, _M3, diff) * mesh.areas
    return np.sqrt(np.maximum(q, 0.0))


def _edge_traces(flux: FluxField, edges, tris, normals) -> np.ndarray:
    """Normal traces at the degree-4 nodes of edges, seen from the triangles
    ``tris``; shape (len(edges), 4)."""
    mesh = flux.space.mesh
    G = len(_GL4_X)
    a = mesh.vertices[mesh.edge_vertices[edges, 0]]
    b = mesh.vertices[mesh.edge_vertices[edges, 1]]
    pts = a[:, None, :] + _GL4_X[None, :, None] * (b - a)[:, None, :]
    vals = flux.eval_at(pts.reshape(-1, 2), np.repeat(tris, G))
    return np.einsum("nc,nc->n", vals, np.repeat(normals, G, axis=0)).reshape(-1, G)


def neumann_trace_defect(flux: FluxField, data: ProblemData) -> float:
    """max |sigma·n_out + gN_proj| over degree-4 nodes of all Neumann edges."""
    mesh = flux.space.mesh
    e = np.asarray(data.neumann_edges, dtype=np.int64)
    tris = mesh.edge_tris[e].max(axis=1)  # the outside neighbour is -1
    n_out = mesh.edge_outward_sign[e, None] * mesh.edge_normals[e]
    gn = data.gn_proj[:, :1] * (1.0 - _GL4_X) + data.gn_proj[:, 1:] * _GL4_X
    return float(np.abs(_edge_traces(flux, e, tris, n_out) + gn).max(initial=0.0))


def certify(flux: FluxField, data: ProblemData, name: str, u_h: ScalarField) -> None:
    """Raise :class:`EquilibrationError`, naming the flux by ``name``, unless ``div sigma = Pi f``
    (per element in L2) and ``sigma·n = -Pi g`` (at the Neumann nodes) hold to 1e-9 times the
    largest cell-mean flux, or to the round-off floor ``ROUNDOFF max|u_h| / h`` if larger."""
    scale = np.sqrt((flux.cell_means() ** 2).sum(axis=1).max(initial=0.0))
    tol = max(1e-9 * scale, ROUNDOFF * np.abs(u_h.nodal_values).max(initial=0.0) / u_h.mesh.h)
    for kind, defect in (("divergence", flux_divergence_defect(flux, data).max(initial=0.0)),
                         ("Neumann trace", neumann_trace_defect(flux, data))):
        if not defect <= tol:
            raise EquilibrationError(f"{name}: {kind} defect {defect:.3e} > {tol:.3e}, the larger "
                                     f"of 1e-9 * flux scale {scale:.3e} and the round-off floor")


def interior_jump(flux: FluxField) -> float:
    """max normal-trace jump across interior edges at degree-4 edge nodes."""
    mesh = flux.space.mesh
    e = np.flatnonzero(~mesh.on_boundary)
    t0, t1 = mesh.edge_tris[e].T
    nrm = mesh.edge_normals[e]
    jump = _edge_traces(flux, e, t0, nrm) - _edge_traces(flux, e, t1, nrm)
    return float(np.abs(jump).max(initial=0.0))
