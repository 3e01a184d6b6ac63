"""Triangular meshes with edge topology, boundary markers and point location.

The mesh is the single geometric substrate shared by the FEM solver, the
flux reconstruction and the boundary estimators.  Structured generators
cover the built-in study geometries (unit square, axis-aligned rectangular
features); arbitrary conforming meshes are accepted through the JSON format
documented in the README.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MARKER_KINDS = ("dirichlet", "neumann", "feature")
FEATURE_PARTS = ("gamma", "gamma0", "gammaS", "gammaR", "gammaTilde")


class MeshError(ValueError):
    """Mesh validation or file parsing failure."""


@dataclass(frozen=True)
class EdgeMarker:
    kind: str  # "dirichlet" | "neumann" | "feature"
    feature_id: int | None = None
    part: str | None = None  # one of FEATURE_PARTS for kind "feature"

    def __post_init__(self):
        if self.kind not in MARKER_KINDS:
            raise MeshError(f"unknown marker kind {self.kind!r}")
        if self.kind == "feature":
            if self.part not in FEATURE_PARTS:
                raise MeshError(f"unknown feature part {self.part!r}")
            if self.feature_id is None:
                raise MeshError("feature marker needs a feature id")


DIRICHLET = EdgeMarker("dirichlet")
NEUMANN_OUTER = EdgeMarker("neumann")

# Triangles of holds per array step, bounding its temporaries (in cache).
_HOLD_BLOCK = 2**13
# A point lies in a triangle when all its barycentrics are >= -LOCATE_TOL.
LOCATE_TOL = 1e-12


def first_occurrence(a):
    """Number the distinct values of the 1-d array ``a`` in the order they first occur.  Returns
    ``(first, number)``: the index of each value's first occurrence and the number of each
    entry of ``a``."""
    _, first, inverse = np.unique(a, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


@dataclass
class VertexPatch:
    """Triangles around one vertex plus the split of the patch boundary.

    ``boundary_edges_zero`` are the patch boundary edges where the hat
    function of the vertex vanishes; ``boundary_edges_psi`` are the (at most
    two, for manifold boundaries) domain-boundary edges incident to the
    vertex.
    """

    vertex: int
    triangles: np.ndarray
    boundary_edges_zero: np.ndarray
    boundary_edges_psi: np.ndarray
    is_interior: bool


class Mesh:
    """Immutable 2D triangle mesh with oriented edges and boundary markers.

    Triangles are counterclockwise.  Edge ``(i, j)`` is stored with
    ``i < j``; its global unit normal is the ``i → j`` direction rotated by
    −90°.  ``edge_tris[e] = (plus, minus)`` where ``plus`` traverses the edge
    ``i → j`` in its own CCW order (−1 on the boundary side).
    """

    def __init__(self, vertices, triangles, edge_markers=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        tri = np.asarray(triangles)  # of integers, or of floats with integer values
        if not (tri.dtype.kind in "iu" or tri.dtype.kind == "f"
                and np.all(np.isfinite(tri) & (tri == np.trunc(tri)))):
            raise MeshError("triangles must hold integer vertex indices")
        self.triangles = np.ascontiguousarray(tri, dtype=np.int64)
        self._keys = self._grid = None  # edge_ids sorts the edge keys on first use
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (V, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be a (T, 3) array")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise MeshError("triangle vertex index out of range")

        self._build_geometry()
        self._build_edges()
        uses = np.bincount(self.triangles.ravel(), minlength=len(self.vertices))
        if not uses.all():
            raise MeshError(f"vertex {np.argmin(uses)} belongs to no triangle")
        self.edge_markers: list[EdgeMarker | None] = [None] * self.n_edges
        if edge_markers:
            self.set_markers(*zip(*edge_markers), edge_markers.values())
        if edge_markers is not None:
            self.validate_markers()
        self.levels = 0  # ancestry, set by uniform_refine

    # -- construction ---------------------------------------------------

    def _build_geometry(self):
        # Coordinate rows x[q], y[q] of corner q, (3, T), written straight into the outputs.
        x, y = (c[self.triangles.T] for c in self.vertices.T)
        T = self.n_triangles
        # Jacobians J = [v1 − v0, v2 − v0] of the maps from the reference triangle, det 2|K|.
        self.jacobians = np.empty((T, 2, 2))
        (d1x, d2x), (d1y, d2y) = jac = self.jacobians.transpose(1, 2, 0)  # jac[i, c] is J_ic
        np.subtract(x[1:], x[0], out=jac[0])
        np.subtract(y[1:], y[0], out=jac[1])
        self.areas = signed = 0.5 * (d1x * d2y - d1y * d2x)
        bad = np.flatnonzero(signed <= 0)
        if len(bad):
            raise MeshError(f"triangle {bad[0]} has non-positive area {signed[bad[0]]:.3e}")
        # Barycentric gradients (T, 3, 2): grad lam_q = (y_q+1 − y_q−1, x_q−1 − x_q+1) / 2A.
        inv2a = 1.0 / (2.0 * signed)
        self.lam_grads = np.empty((T, 3, 2))
        gx, gy = self.lam_grads.transpose(2, 1, 0)
        np.multiply(y[[1, 2, 0]] - y[[2, 0, 1]], inv2a, out=gx)
        np.multiply(x[[2, 0, 1]] - x[[1, 2, 0]], inv2a, out=gy)

    def _edge_key(self, i, j):
        return np.minimum(i, j) * self.n_vertices + np.maximum(i, j)

    def _build_edges(self, edge_vertices=None, corner_edge=None):
        # Corner 3t + l runs along local edge l of triangle t, from vertex triangles[t, l]
        # to triangles[t, l + 1], as edge ``corner_edge``: unless uniform_refine gives the
        # edges, they are numbered here in the order of their first corner, and checked.
        tail = self.triangles.ravel()
        head = np.roll(self.triangles, -1, axis=1).ravel()
        forward = tail < head  # the corner runs its edge low → high (no tail == head: areas > 0)
        checked = corner_edge is None
        if checked:
            first, corner_edge = first_occurrence(self._edge_key(tail, head))
            edge_vertices = np.stack([np.minimum(tail, head), np.maximum(tail, head)], axis=1)[first]
        slot = 2 * corner_edge + ~forward  # side 0 traverses i → j
        if checked and len(slot) and np.bincount(slot).max() > 1:
            by_slot = np.argsort(slot, kind="stable")
            repeat = by_slot[1:][slot[by_slot[1:]] == slot[by_slot[:-1]]]
            c = int(repeat.min())  # the first corner that reuses a side
            t0 = int(np.argmax(slot == slot[c])) // 3
            key = (int(min(tail[c], head[c])), int(max(tail[c], head[c])))
            raise MeshError(
                f"edge {key} traversed twice in the same direction "
                f"(triangles {t0} and {c // 3})"
            )
        self.n_edges, self.edge_vertices = len(edge_vertices), edge_vertices
        edge_tris = np.full(2 * self.n_edges, -1, dtype=np.int64)
        edge_tris[slot] = np.arange(len(slot)) // 3
        self.edge_tris = edge_tris.reshape(-1, 2)
        self.triangle_edges = corner_edge.reshape(-1, 3)
        # +1 where local edge l runs as its global edge, low → high vertex, else −1.
        self.triangle_edge_signs = np.where(forward, 1.0, -1.0).reshape(-1, 3)
        self.on_boundary = (self.edge_tris < 0).any(axis=1)  # (E,) the edge has one triangle
        self.boundary_edge_ids = np.flatnonzero(self.on_boundary)
        (x0, x1), (y0, y1) = (c[self.edge_vertices.T] for c in self.vertices.T)
        dx, dy = x1 - x0, y1 - y0
        self.edge_lengths = length = np.sqrt(dx * dx + dy * dy)  # bitwise np.linalg.norm
        # Global normal: i→j tangent rotated by −90°.
        self.edge_normals = normal = np.empty((self.n_edges, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dy, length, out=normal[:, 0])
            np.negative(dx / length, out=normal[:, 1])
        # +1 when the global normal points out of the domain on a boundary edge.
        self.edge_outward_sign = np.where(self.edge_tris[:, 0] >= 0, 1, -1)

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def h(self) -> float:
        """Mesh parameter: the maximum element diameter, its longest edge."""
        return float(self.edge_lengths.max())

    def edge_midpoints(self, edges=slice(None)) -> np.ndarray:
        ev = self.edge_vertices[edges]
        return 0.5 * (self.vertices[ev[:, 0]] + self.vertices[ev[:, 1]])

    def edge_ids(self, i, j) -> np.ndarray:
        """Edge numbers of the vertex pairs ``(i[k], j[k])``, by one search of
        the sorted edge keys; the first pair that is no edge raises."""
        i, j = np.atleast_1d(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64))
        if self._keys is None:
            keys = self._edge_key(*self.edge_vertices.T)
            self._key_edges = np.argsort(keys)
            self._keys = keys[self._key_edges]
        key = self._edge_key(i, j)
        k = np.searchsorted(self._keys, key)
        found = (np.minimum(i, j) >= 0) & (np.maximum(i, j) < self.n_vertices) & (k < self.n_edges)
        found[found] = self._keys[k[found]] == key[found]
        if not found.all():
            f = int(np.argmin(found))
            raise MeshError(f"no edge between vertices {i[f]} and {j[f]}")
        return self._key_edges[k]

    def set_markers(self, i, j, markers):
        """Put ``markers[k]`` on edge ``(i[k], j[k])`` by one edge search; a later pair wins."""
        for e, marker in zip(self.edge_ids(i, j).tolist(), markers):
            self.edge_markers[e] = marker

    def validate_markers(self) -> np.ndarray:
        """Boundary edges need exactly one marker; interior edges may only
        carry a feature interface (gamma0) marker.  The first offending edge
        raises.  Returns the ascending ids of the marked edges."""
        markers = np.fromiter(self.edge_markers, dtype=object, count=self.n_edges)
        marked = np.not_equal(markers, None)  # one pass over the markers
        ids = np.flatnonzero(marked)
        interface = marked.copy()
        interface[ids] = [(m.kind, m.part) == ("feature", "gamma0") for m in markers[ids]]
        bad = np.flatnonzero(np.where(self.on_boundary, ~marked, marked & ~interface))
        if not len(bad):
            return ids
        e = int(bad[0])
        if self.on_boundary[e]:
            i, j = self.edge_vertices[e]
            raise MeshError(f"unmarked boundary edge ({i}, {j})")
        raise MeshError(
            f"interior edge {e} carries marker {self.edge_markers[e]}; only feature "
            "interface (gamma0) markers are allowed there"
        )

    def vertex_to_triangles(self):
        """Triangles around each vertex as ``(offsets, tris)``: those of vertex
        ``a`` are ``tris[offsets[a]:offsets[a + 1]]``, in increasing order."""
        corners = np.argsort(self.triangles.ravel(), kind="stable")
        counts = np.bincount(self.triangles.ravel(), minlength=self.n_vertices)
        return np.concatenate([[0], np.cumsum(counts)]), corners // 3

    def total_area(self) -> float:
        return float(self.areas.sum())

    def coarser_levels(self):
        """The ``levels`` meshes that uniform_refine refined into this one, finest parent first,
        each as ``(triangles, midpoints)`` in this mesh's vertex ids.  Parent triangle t has
        children 4t … 4t + 3: its corner k is the first corner of child 4t + k (k < 3), and the
        midpoint of its local edge (l, l + 1), vertex V + e for parent edge e of a V-vertex
        parent, is corner l of child 4t + 3.  Edges follow the parent's in closed form: the
        half of parent edge e at its vertex ``edge_vertices[e, c]`` is edge 2e + c, and the
        inner edge of child k < 3 of parent triangle t (of E edges) is edge 2E + 3t + k."""
        tri = self.triangles
        for _ in range(self.levels):
            tri, mids = tri[:, 0].reshape(-1, 4)[:, :3], tri[3::4]
            yield tri, mids

    # -- point location ---------------------------------------------------

    def _bucket_grid(self):
        """Uniform grid over the vertex bounding box in CSR form, and the margin
        ``m`` = 1e-9 of the span: the triangles whose bounding box, shrunk by
        ``m / 2``, overlaps cell ``c = ix * ncell + iy`` (or holds its low corner)
        are ``tris[offsets[c]:offsets[c + 1]]``, ascending; one cell each on a lattice."""
        if self._grid is None:
            lo = self.vertices.min(axis=0)
            span = np.maximum(self.vertices.max(axis=0) - lo, 1e-300)
            ncell = max(1, int(np.ceil(np.sqrt(max(self.n_triangles, 1) / 2.0))))
            cell = span / ncell
            v = self.vertices[self.triangles]
            m = 1e-9 * span
            i0 = np.clip(np.floor((v.min(axis=1) - lo + m / 2) / cell).astype(int), 0, ncell - 1)
            i1 = np.clip(np.ceil((v.max(axis=1) - lo - m / 2) / cell).astype(int) - 1, i0, ncell - 1)
            tris, cells = _box_cells(i0, i1, ncell)
            offsets = np.concatenate(
                [[0], np.cumsum(np.bincount(cells, minlength=ncell * ncell))]
            )
            self._grid = (lo, cell, ncell, m, offsets, tris[np.argsort(cells, kind="stable")])
        return self._grid

    def edges_near(self, lo, hi):
        """Pairs ``(s, e)``, sorted and unique: the edges of the triangles listed in the grid
        cells within one cell of box ``lo[s]``–``hi[s]``, a superset of the edges it meets."""
        g0, cell, ncell, _, offsets, cell_tris = self._bucket_grid()
        i0 = np.clip(((lo - g0) / cell).astype(int) - 1, 0, ncell - 1)
        i1 = np.clip(((hi - g0) / cell).astype(int) + 1, i0, ncell - 1)
        s, c = _box_cells(i0, i1, ncell)
        size = offsets[c + 1] - offsets[c]
        k = np.arange(size.sum()) + np.repeat(offsets[c] - np.cumsum(size) + size, size)
        key = np.repeat(s, size)[:, None] * self.n_edges + self.triangle_edges[cell_tris[k]]
        return np.divmod(np.unique(key), self.n_edges)

    def holds(self, tris, x, y):
        """Whether triangle ``tris[i]`` holds all the points ``(x[k, i], y[k, i])``
        on coordinate rows ``x, y`` of shape (K, n): every barycentric of every
        point is >= -LOCATE_TOL.  This is the one containment rule.  ``lam_1, lam_2``
        are ``grad lam_q · (p − v0)`` and ``lam_0 = 1 − lam_1 − lam_2``: differences
        first, as the constant term of an absolute-coordinate barycentric has a round-off
        of about eps/area, which let small triangles miss their own corners."""
        g = self.lam_grads.reshape(-1, 6).T[2:, tris]  # x, y of grad lam_1; x, y of grad lam_2
        v0 = self.vertices[self.triangles[tris, 0]].T
        held = np.ones(len(tris), dtype=bool)
        for s in range(0, len(tris), _HOLD_BLOCK):
            c, o, h = g[:, s:s + _HOLD_BLOCK], v0[:, s:s + _HOLD_BLOCK], held[s:s + _HOLD_BLOCK]
            for xk, yk in zip(x[:, s:s + _HOLD_BLOCK], y[:, s:s + _HOLD_BLOCK]):
                dx, dy = xk - o[0], yk - o[1]
                b1, b2 = c[0] * dx + c[1] * dy, c[2] * dx + c[3] * dy
                h &= np.minimum(np.minimum(1.0 - b1 - b2, b1), b2) >= -LOCATE_TOL
        return held

    def locate_points(self, points):
        """Vectorized point location: ``tris[k]`` is the lowest-index triangle
        holding ``points[k]`` by :meth:`holds` (−1 if none).  That triangle lies
        within about 1e-12 of the span of the point, far inside the grid margin
        ``m``, so a cell met by the point's box of ±``m`` (one, or up to four
        near a cell line) lists it.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n, T = len(pts), self.n_triangles
        if n == 0 or T == 0:
            return np.full(n, -1, dtype=np.int64)
        lo, cell, ncell, m, offsets, cell_tris = self._bucket_grid()

        def first_hit(key, p):
            # First triangle of cell key[i] holding p[i] (T if none).
            start, size = offsets[key], offsets[key + 1] - offsets[key]
            hit, todo, k = np.full(len(key), T), np.flatnonzero(size > 0), 0
            while len(todo):
                c = cell_tris[start[todo] + k]
                inside = self.holds(c, p[None, todo, 0], p[None, todo, 1])
                hit[todo[inside]] = c[inside]
                k += 1
                todo = todo[~inside & (size[todo] > k)]
            return hit

        # Low and high cells of the box pts ± m per axis, on 1-D columns: (N, 2)
        # arithmetic against a (2,) row runs several times slower.
        ix, iy = ([np.clip(((pts[:, j] - lo[j] + e) / cell[j]).astype(int), 0, ncell - 1)
                   for e in (-m[j], m[j])] for j in (0, 1))
        key = ix[0] * ncell + iy[0]
        hit = first_hit(key, pts)
        nx, ny = ix[1] > ix[0], iy[1] > iy[0]  # also query the next cell in x, y, both
        for i, d in zip(map(np.flatnonzero, (nx, ny, nx & ny)), (ncell, 1, ncell + 1)):
            hit[i] = np.minimum(hit[i], first_hit(key[i] + d, pts[i]))
        return np.where(hit < T, hit, -1)


def vertex_patches(mesh: Mesh) -> list[VertexPatch]:
    """One patch per vertex: its incident triangles and the patch boundary split.  The edge
    opposite the vertex is a zero edge, and the two edges through the vertex are psi edges
    exactly when they lie on the domain boundary: an interior edge through the vertex has both
    its triangles in the patch, the opposite edge one, since no two triangles of a conforming
    mesh share a vertex triple."""
    V = mesh.n_vertices
    offsets, tris = mesh.vertex_to_triangles()
    owner = np.repeat(np.arange(V), np.diff(offsets))  # patch vertex per incidence
    edges = mesh.triangle_edges[tris]  # (I, 3)
    loc = np.argmax(mesh.triangles[tris] == owner[:, None], axis=1)
    zero_mask = (np.arange(3) - loc[:, None]) % 3 == 1  # local edge l joins vertices l, l + 1
    psi_mask = ~zero_mask & mesh.on_boundary[edges]

    def per_vertex(mask):
        v, e = np.broadcast_to(owner[:, None], mask.shape)[mask], edges[mask]
        order = np.lexsort((e, v))
        return e[order], np.searchsorted(v[order], np.arange(V + 1)).tolist()

    zero, zo = per_vertex(zero_mask)
    psi, po = per_vertex(psi_mask)
    to = offsets.tolist()
    interior = np.ones(V, dtype=bool)
    interior[mesh.edge_vertices[mesh.boundary_edge_ids]] = False
    return [
        VertexPatch(a, tris[to[a]:to[a + 1]], zero[zo[a]:zo[a + 1]],
                    psi[po[a]:po[a + 1]], i)
        for a, i in enumerate(interior.tolist())
    ]


# -- structured generators ----------------------------------------------

_CELL_CORNERS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])


def _classify_square_boundary(mesh: Mesh, dirichlet_predicate):
    """Mark the unmarked hull edges Dirichlet where the predicate holds at
    their midpoint (everywhere when it is omitted), otherwise Neumann."""
    bnd = mesh.boundary_edge_ids
    for e, mid in zip(bnd.tolist(), mesh.edge_midpoints(bnd)):
        if mesh.edge_markers[e] is None:
            dirichlet = dirichlet_predicate is None or dirichlet_predicate(*mid)
            mesh.edge_markers[e] = DIRICHLET if dirichlet else NEUMANN_OUTER


def _box_cells(i0, i1, ncell):
    """Cells ``ix * ncell + iy`` of boxes of cells ``i0``–``i1``: box ``owner[k]`` has ``cell[k]``."""
    ny = i1[:, 1] - i0[:, 1] + 1
    count = (i1[:, 0] - i0[:, 0] + 1) * ny
    owner = np.repeat(np.arange(len(i0)), count)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    return owner, (i0[owner, 0] + k // ny[owner]) * ncell + i0[owner, 1] + k % ny[owner]


def _cell_block(i0, i1, j0, j1):
    """Lattice cells ``(i, j)`` of ``[i0, i1) × [j0, j1)`` in row-major order."""
    j, i = np.mgrid[j0:j1, i0:i1].reshape(2, -1)
    return np.column_stack([i, j])


def _lattice_mesh(cells, n, square_first=False):
    """Triangulate lattice cells ``(C, 2)`` of spacing 1/n, each split along
    the low-left→up-right diagonal.

    Vertices are the cell corners in row-major order; with ``square_first``
    the corners on the unit square's lattice come first.
    """
    corners = (cells[:, None, :] + _CELL_CORNERS).reshape(-1, 2)
    outside = ((corners < 0) | (corners > n)).any(axis=1) & square_first
    i0, j0 = lo = corners.min(axis=0, initial=0)  # any lower bound keeps the key order
    w, h = corners.max(axis=0, initial=0) - lo + 1
    key = (outside * h + corners[:, 1] - j0) * w + corners[:, 0] - i0  # sorts as (outside, j, i)
    ids, inverse = np.unique(key, return_inverse=True)
    a, b, c, d = inverse.reshape(-1, 4).T
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return Mesh(np.column_stack([ids % w + i0, ids // w % h + j0]) / n, triangles)


def generate_unit_square(n: int, dirichlet_predicate=None) -> Mesh:
    """Uniform n×n grid of the unit square, each cell split along the
    low-left→up-right diagonal.  Boundary edges are classified Dirichlet by
    the predicate (all Dirichlet when it is omitted), otherwise Neumann."""
    return generate_with_rect_features(n, [], [], dirichlet_predicate)


def _rect_from_polygon(polygon):
    """Extract (x0, x1, y0, y1) from an axis-aligned 4-vertex CCW loop."""
    p = np.asarray(polygon, dtype=float)
    if p.shape != (4, 2):
        raise MeshError("built-in meshing supports 4-vertex rectangles only")
    xs, ys = sorted(set(np.round(p[:, 0], 12))), sorted(set(np.round(p[:, 1], 12)))
    if len(xs) != 2 or len(ys) != 2:
        raise MeshError("feature polygon is not an axis-aligned rectangle")
    return xs[0], xs[1], ys[0], ys[1]


def _on_segments(points, a, b, tol=1e-12):
    """(N, S) mask: point n lies on segment a[s]→b[s].

    The one on-segment rule of every boundary classification: with L the
    segment length, the projection parameter lies in [−tol/L, 1 + tol/L] and
    the distance to the projection is at most tol·max(1, L); a segment
    shorter than tol holds the points within tol of its start.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 1, 2)
    ab = b - a
    L = np.sqrt(np.vecdot(ab, ab))
    ap = p - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.vecdot(ap, ab) / (L * L)
        off = p - (a + t[..., None] * ab)
        on = ((-tol / L <= t) & (t <= 1 + tol / L)
              & (np.sqrt(np.vecdot(off, off)) <= tol * np.maximum(1.0, L)))
    return np.where(L < tol, np.sqrt(np.vecdot(ap, ap)) <= tol, on)


# The unit square's hull as four sides (starts, ends), counterclockwise.
_SQUARE_SIDES = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                 np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


def _grid_index(value, n, what):
    g = value * n
    k = round(g)
    if abs(g - k) > 1e-9:
        raise MeshError(f"{what} = {value} does not lie on the 1/{n} grid")
    return int(k)


def _grid_rect(polygon, n):
    """``(x0, x1, y0, y1)`` of a rectangle polygon and its lattice indices
    ``(i0, i1, j0, j1)`` on the 1/n grid."""
    rect = _rect_from_polygon(polygon)
    return rect, tuple(_grid_index(v, n, f"feature {k}")
                       for v, k in zip(rect, ("x0", "x1", "y0", "y1")))


def generate_with_rect_features(
    n: int, features, include, dirichlet_predicate=None
) -> Mesh:
    """Unit-square mesh with included axis-aligned rectangular features.

    Included negative features remove the lattice cells inside their
    rectangle; included positive features append the cells of the bump
    outside the square.  Excluded features leave the mesh untouched (no
    markers).  Feature rectangles must be grid-aligned and pairwise disjoint.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    rects = []  # (feature, rectangle, cell index ranges) of included features
    for f, inc in zip(features, include):
        if not inc:
            continue
        rect, (i0, i1, j0, j1) = _grid_rect(f.polygon, n)
        if i1 <= i0 or j1 <= j0:
            raise MeshError("degenerate feature rectangle")
        for _, _, (a0, a1, b0, b1) in rects:
            if max(i0, a0) < min(i1, a1) and max(j0, b0) < min(j1, b1):
                raise MeshError("overlapping features")
        inside = 0 <= i0 and i1 <= n and 0 <= j0 and j1 <= n
        if f.kind == "positive" and inside:
            raise MeshError(f"positive feature {f.id} must lie outside the square")
        if f.kind != "positive" and not inside:
            raise MeshError(f"negative feature {f.id} must lie inside the square")
        rects.append((f, rect, (i0, i1, j0, j1)))
    # Negative features come first: a bump's markers win on a shared edge.
    rects.sort(key=lambda r: r[0].kind == "positive")

    keep = np.ones((n, n), dtype=bool)  # [j, i]
    bumps = []
    for f, _, (i0, i1, j0, j1) in rects:
        if f.kind == "positive":
            bumps.append(_cell_block(i0, i1, j0, j1))
        else:
            keep[j0:j1, i0:i1] = False
    cells = np.concatenate([_cell_block(0, n, 0, n)[keep.ravel()]] + bumps)
    if not len(cells):
        raise MeshError(f"features {[f.id for f, *_ in rects]} remove every cell at n = {n}")
    # Vertices of the square's lattice first, then bump vertices, each row-major.
    mesh = _lattice_mesh(cells, n, square_first=True)

    # Feature markers.  New hole boundary edges are gamma (or gamma0 when
    # they fall on the square hull); bump boundary edges are gamma except the
    # shared interface, which keeps a gamma0 tag although now interior.
    mids = mesh.edge_midpoints() if rects else None
    for f, (x0, x1, y0, y1), _ in rects:
        inside = np.flatnonzero((x0 - 1e-12 <= mids[:, 0]) & (mids[:, 0] <= x1 + 1e-12)
                                & (y0 - 1e-12 <= mids[:, 1]) & (mids[:, 1] <= y1 + 1e-12))
        on_hull = _on_segments(mids[inside], *_SQUARE_SIDES).any(axis=1)
        bnd = mesh.on_boundary[inside]
        if f.kind == "positive":
            gamma0, gamma = ~bnd & on_hull, bnd
            if not gamma0.any():  # say, a bump standing on an included notch
                raise MeshError(f"positive feature {f.id} shares no interface edge with the square")
        else:
            gamma0, gamma = bnd & on_hull, bnd & ~on_hull
        for part, mask in (("gamma0", gamma0), ("gamma", gamma)):
            marker = EdgeMarker("feature", f.id, part)
            for e in inside[mask].tolist():
                mesh.edge_markers[e] = marker
    _classify_square_boundary(mesh, dirichlet_predicate)
    mesh.validate_markers()
    return mesh


def uniform_refine(mesh: Mesh) -> Mesh:
    """Split each triangle t into 4 by edge midpoints, as triangles 4t … 4t + 3;
    markers are inherited.  A parent with any marker is validated: a valid parent has
    a valid child.  The child counts its ``levels``, which Mesh.coarser_levels reads
    back from its arrays.  Its edges are numbered in closed form: half c of parent edge e,
    at the parent's vertex ``edge_vertices[e, c]``, is edge 2e + c with e's marker, and the
    inner edge of child k < 3 of parent triangle t is edge 2E + 3t + k."""
    if any(m is not None for m in mesh.edge_markers):
        mesh.validate_markers()
    V, E, T = mesh.n_vertices, mesh.n_edges, mesh.n_triangles
    corners = np.hstack([mesh.triangles, V + mesh.triangle_edges])  # v0 v1 v2 m01 m12 m20
    fine = Mesh.__new__(Mesh)
    fine.vertices = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    fine.triangles = corners[:, [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 3)
    fine._build_geometry()
    # Child k < 3 of t runs along the tail half of local edge k, inner edge k (its corners
    # 1, 2) and the head half (tail ^ 1) of local edge k − 1; child 3 along inners 1, 2, 0.
    tail = 2 * mesh.triangle_edges + (mesh.triangle_edge_signs < 0)
    inner = 2 * E + np.arange(3 * T).reshape(T, 3)
    edges = np.stack([tail, inner, np.roll(tail ^ 1, 1, axis=1)], axis=2).reshape(T, 9)
    halves = np.column_stack([mesh.edge_vertices.ravel(), np.repeat(np.arange(V, V + E), 2)])
    ends = np.sort(fine.triangles.reshape(T, 4, 3)[:, :3, 1:].reshape(-1, 2), axis=1)
    fine._build_edges(np.vstack([halves, ends]), np.hstack([edges, inner[:, [1, 2, 0]]]).ravel())
    fine._keys = fine._grid = None
    fine.edge_markers = [m for m in mesh.edge_markers for _ in (0, 1)] + [None] * (3 * T)
    fine.levels = mesh.levels + 1
    return fine


# -- JSON I/O -------------------------------------------------------------


def write_mesh(mesh: Mesh, path):
    """Write the mesh in the JSON format documented in the README."""
    marked = [[*mesh.edge_vertices[e].tolist(), m.kind, m.feature_id, m.part]
              for e, m in enumerate(mesh.edge_markers) if m is not None]
    doc = {
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary_edges": marked,
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def read_mesh(path) -> Mesh:
    """Read and validate a mesh from the JSON format."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise MeshError(f"malformed mesh file {path}: {exc}") from exc
    for key in ("vertices", "triangles", "boundary_edges"):
        if key not in doc:
            raise MeshError(f"mesh file missing '{key}'")
    try:
        mesh = Mesh(np.asarray(doc["vertices"], float), doc["triangles"])
    except MeshError:
        raise
    except (ValueError, TypeError) as exc:
        raise MeshError(f"invalid mesh arrays: {exc}") from exc
    rows = doc["boundary_edges"]
    if bad := [row for row in rows if not isinstance(row, list) or len(row) != 5]:
        raise MeshError(f"boundary edge row {bad[0]!r} must have 5 entries")
    integral = lambda v: type(v) is int or type(v) is float and v.is_integer()
    if bad := [row for row in rows if not (integral(row[0]) and integral(row[1]))]:
        raise MeshError(f"boundary edge row {bad[0]!r} must start with two integer vertex indices")
    if bad := [row for row in rows
               if row[2] == "feature" and row[3] is not None and not integral(row[3])]:
        raise MeshError(f"boundary edge row {bad[0]!r} must give an integer feature id")
    markers = [EdgeMarker(kind, fid, part) for _, _, kind, fid, part in rows]
    mesh.set_markers([int(r[0]) for r in rows], [int(r[1]) for r in rows], markers)
    mesh.validate_markers()
    return mesh
