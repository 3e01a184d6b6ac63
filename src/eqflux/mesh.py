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

    def __init__(self, vertices, triangles, edge_markers=None, validate=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (V, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be a (T, 3) array")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise MeshError("triangle vertex index out of range")

        self._build_geometry(validate)
        self._build_edges()
        self.edge_markers: list[EdgeMarker | None] = [None] * self.n_edges
        if edge_markers:
            for (i, j), marker in edge_markers.items():
                self.set_marker(i, j, marker)
        if validate and edge_markers is not None:
            self.validate_markers()
        self._grid = None

    # -- construction ---------------------------------------------------

    def _build_geometry(self, validate):
        v = self.vertices[self.triangles]  # (T, 3, 2)
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if validate and len(signed):
            bad = np.where(signed <= 0)[0]
            if len(bad):
                raise MeshError(
                    f"triangle {bad[0]} has non-positive area {signed[bad[0]]:.3e}"
                )
        self.areas = signed
        # Barycentric/affine coefficients: lam_q(x,y) = c0 + c1 x + c2 y.
        x, y = v[..., 0], v[..., 1]
        bq = np.stack([x[:, 1] * y[:, 2] - x[:, 2] * y[:, 1],
                       x[:, 2] * y[:, 0] - x[:, 0] * y[:, 2],
                       x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]], axis=1)
        cy = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        cx = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv2a = 1.0 / (2.0 * self.areas)[:, None]
        self.lam_coeffs = np.stack([bq * inv2a, cy * inv2a, cx * inv2a], axis=2)
        # Gradient of lam_q is (cy, cx)/(2A), constant per triangle.
        self.lam_grads = np.stack([cy, cx], axis=2) * inv2a[..., None]
        e = np.linalg.norm
        self.diameters = np.maximum(
            np.maximum(e(v[:, 1] - v[:, 0], axis=1), e(v[:, 2] - v[:, 1], axis=1)),
            e(v[:, 0] - v[:, 2], axis=1),
        )

    def _build_edges(self):
        T = len(self.triangles)
        pairs = {}
        tri_edges = np.empty((T, 3), dtype=np.int64)
        edge_list = []
        edge_tris = []
        for t in range(T):
            tri = self.triangles[t]
            for loc in range(3):
                a, b = int(tri[loc]), int(tri[(loc + 1) % 3])
                key = (a, b) if a < b else (b, a)
                e = pairs.get(key)
                if e is None:
                    e = len(edge_list)
                    pairs[key] = e
                    edge_list.append(key)
                    edge_tris.append([-1, -1])
                side = 0 if a < b else 1
                if edge_tris[e][side] != -1:
                    raise MeshError(
                        f"edge {key} traversed twice in the same direction "
                        f"(triangles {edge_tris[e][side]} and {t})"
                    )
                edge_tris[e][side] = t
                tri_edges[t, loc] = e
        self.edge_vertices = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
        self.edge_tris = np.asarray(edge_tris, dtype=np.int64).reshape(-1, 2)
        self.triangle_edges = tri_edges
        self.n_edges = len(edge_list)
        self._edge_index = pairs
        counts = (self.edge_tris >= 0).sum(axis=1)
        if self.n_edges and counts.min() < 1:
            raise MeshError("orphan edge")
        self.boundary_edge_ids = np.where(counts == 1)[0]
        self._boundary_set = set(int(e) for e in self.boundary_edge_ids)
        ev = self.vertices[self.edge_vertices]
        d = ev[:, 1] - ev[:, 0]
        self.edge_lengths = np.linalg.norm(d, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = d / self.edge_lengths[:, None]
        # Global normal: i→j tangent rotated by −90°.
        self.edge_normals = np.stack([t[:, 1], -t[:, 0]], axis=1)
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
        """Mesh parameter: the maximum element diameter."""
        return float(self.diameters.max())

    def is_boundary_edge(self, e: int) -> bool:
        return int(e) in self._boundary_set

    def boundary_edge_triangle(self, e: int) -> int:
        a, b = self.edge_tris[e]
        return int(a) if a >= 0 else int(b)

    def set_marker(self, i, j, marker: EdgeMarker):
        key = (int(i), int(j)) if i < j else (int(j), int(i))
        e = self._edge_index.get(key)
        if e is None:
            raise MeshError(f"no edge between vertices {i} and {j}")
        self.edge_markers[e] = marker

    def validate_markers(self):
        """Boundary edges need exactly one marker; interior edges may only
        carry a feature interface (gamma0) marker."""
        for e in range(self.n_edges):
            m = self.edge_markers[e]
            if self.is_boundary_edge(e):
                if m is None:
                    i, j = self.edge_vertices[e]
                    raise MeshError(f"unmarked boundary edge ({i}, {j})")
            elif m is not None:
                if not (m.kind == "feature" and m.part == "gamma0"):
                    raise MeshError(
                        f"interior edge {e} carries marker {m}; only feature "
                        "interface (gamma0) markers are allowed there"
                    )

    def marked_edges(self, kind=None, part=None, feature_id=None) -> np.ndarray:
        out = []
        for e, m in enumerate(self.edge_markers):
            if m is None:
                continue
            if kind is not None and m.kind != kind:
                continue
            if part is not None and m.part != part:
                continue
            if feature_id is not None and m.feature_id != feature_id:
                continue
            out.append(e)
        return np.asarray(out, dtype=np.int64)

    def vertex_to_triangles(self):
        """Triangles around each vertex as ``(offsets, tris)``: those of vertex
        ``a`` are ``tris[offsets[a]:offsets[a + 1]]``, in increasing order."""
        corners = np.argsort(self.triangles.ravel(), kind="stable")
        counts = np.bincount(self.triangles.ravel(), minlength=self.n_vertices)
        return np.concatenate([[0], np.cumsum(counts)]), corners // 3

    def total_area(self) -> float:
        return float(self.areas.sum())

    # -- point location ---------------------------------------------------

    def _bucket_grid(self):
        if self._grid is None:
            lo = self.vertices.min(axis=0)
            hi = self.vertices.max(axis=0)
            span = np.maximum(hi - lo, 1e-300)
            ncell = max(1, int(np.ceil(np.sqrt(max(self.n_triangles, 1) / 2.0))))
            cell = span / ncell
            buckets = {}
            v = self.vertices[self.triangles]
            bmin = v.min(axis=1)
            bmax = v.max(axis=1)
            eps = 1e-9 * span
            i0 = np.clip(((bmin - lo - eps) / cell).astype(int), 0, ncell - 1)
            i1 = np.clip(((bmax - lo + eps) / cell).astype(int), 0, ncell - 1)
            for t in range(self.n_triangles):
                for ix in range(i0[t, 0], i1[t, 0] + 1):
                    for iy in range(i0[t, 1], i1[t, 1] + 1):
                        buckets.setdefault((ix, iy), []).append(t)
            buckets = {
                k: np.asarray(sorted(v), dtype=np.int64) for k, v in buckets.items()
            }
            self._grid = (lo, cell, ncell, buckets)
        return self._grid

    def locate_points(self, points, tol: float = 1e-12):
        """Vectorized point location.

        Returns ``(tris, bary)`` where ``tris[k]`` is the owning triangle of
        ``points[k]`` (−1 if outside the mesh) and ``bary[k]`` its barycentric
        coordinates there.  Points on shared edges resolve to the lowest
        incident triangle index.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(pts)
        tris = np.full(n, -1, dtype=np.int64)
        bary = np.zeros((n, 3))
        if n == 0 or self.n_triangles == 0:
            return tris, bary
        lo, cell, ncell, buckets = self._bucket_grid()
        idx = np.clip(((pts - lo) / cell).astype(int), 0, ncell - 1)
        keys = idx[:, 0] * ncell + idx[:, 1]
        order = np.argsort(keys, kind="stable")
        start = 0
        lam = self.lam_coeffs
        while start < n:
            key = keys[order[start]]
            stop = start
            while stop < n and keys[order[stop]] == key:
                stop += 1
            sel = order[start:stop]
            start = stop
            ix, iy = int(key // ncell), int(key % ncell)
            cand = buckets.get((ix, iy))
            sub = pts[sel]
            found = np.zeros(len(sel), dtype=bool)
            for expand in (False, True):
                if expand:
                    ids = []
                    for jx in range(max(ix - 1, 0), min(ix + 2, ncell)):
                        for jy in range(max(iy - 1, 0), min(iy + 2, ncell)):
                            b = buckets.get((jx, jy))
                            if b is not None:
                                ids.append(b)
                    cand = np.unique(np.concatenate(ids)) if ids else None
                if cand is None or len(cand) == 0:
                    continue
                # lam values: (ncand, npts, 3)
                lv = (
                    lam[cand, :, 0][:, None, :]
                    + lam[cand, :, 1][:, None, :] * sub[None, :, 0, None]
                    + lam[cand, :, 2][:, None, :] * sub[None, :, 1, None]
                )
                ok = (lv >= -tol).all(axis=2)
                for kk in np.where(~found)[0]:
                    hits = np.where(ok[:, kk])[0]
                    if len(hits):
                        c = int(cand[hits[0]])  # candidates sorted: lowest index
                        tris[sel[kk]] = c
                        bary[sel[kk]] = lv[hits[0], kk]
                        found[kk] = True
                if found.all():
                    break
        return tris, bary

    def locate_point(self, p, tol: float = 1e-12):
        """Locate one point; returns ``(triangle, bary)`` or ``None`` outside."""
        tris, bary = self.locate_points(np.asarray(p, dtype=float)[None, :], tol)
        if tris[0] < 0:
            return None
        return int(tris[0]), bary[0]


def vertex_patches(mesh: Mesh) -> list[VertexPatch]:
    """One patch per vertex: incident triangles and the patch boundary split.

    A patch boundary edge has exactly one of its triangles in the patch; it
    is a psi edge when it contains the vertex and a zero edge otherwise.
    """
    V = mesh.n_vertices
    offsets, tris = mesh.vertex_to_triangles()
    owner = np.repeat(np.arange(V), np.diff(offsets))  # patch vertex per incidence
    edges = mesh.triangle_edges[tris]  # (I, 3)
    nbr = mesh.edge_tris[edges]  # (I, 3, 2)
    in_patch = (nbr >= 0) & (mesh.triangles[nbr] == owner[:, None, None, None]).any(-1)
    on_boundary = in_patch.sum(-1) == 1
    has_vertex = (mesh.edge_vertices[edges] == owner[:, None, None]).any(-1)

    def per_vertex(mask):
        v, e = np.broadcast_to(owner[:, None], mask.shape)[mask], edges[mask]
        order = np.lexsort((e, v))
        return e[order], np.searchsorted(v[order], np.arange(V + 1)).tolist()

    zero, zo = per_vertex(on_boundary & ~has_vertex)
    psi, po = per_vertex(on_boundary & has_vertex)
    to = offsets.tolist()
    interior = np.ones(V, dtype=bool)
    interior[mesh.edge_vertices[mesh.boundary_edge_ids]] = False
    return [
        VertexPatch(a, tris[to[a]:to[a + 1]], zero[zo[a]:zo[a + 1]],
                    psi[po[a]:po[a + 1]], i)
        for a, i in enumerate(interior.tolist())
    ]


# -- structured generators ----------------------------------------------


def _classify_square_boundary(mesh: Mesh, dirichlet_predicate, skip=None):
    """Mark hull edges via the Dirichlet predicate evaluated at midpoints."""
    for e in mesh.boundary_edge_ids:
        e = int(e)
        if skip is not None and e in skip:
            continue
        if mesh.edge_markers[e] is not None:
            continue
        i, j = mesh.edge_vertices[e]
        mid = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
        if dirichlet_predicate is None or dirichlet_predicate(mid[0], mid[1]):
            mesh.edge_markers[e] = DIRICHLET
        else:
            mesh.edge_markers[e] = NEUMANN_OUTER


def _lattice_mesh(cells, vertex_ids, coords):
    """Triangulate the given unit cells with the low-left→up-right diagonal."""
    triangles = []
    for (i, j) in cells:
        a = vertex_ids[(i, j)]
        b = vertex_ids[(i + 1, j)]
        c = vertex_ids[(i + 1, j + 1)]
        d = vertex_ids[(i, j + 1)]
        triangles.append((a, b, c))
        triangles.append((a, c, d))
    return Mesh(np.asarray(coords, dtype=float), np.asarray(triangles, dtype=np.int64))


def generate_unit_square(n: int, dirichlet_predicate=None) -> Mesh:
    """Uniform n×n grid of the unit square, each cell split along the
    low-left→up-right diagonal.  Boundary edges are classified Dirichlet by
    the predicate (all Dirichlet when it is omitted), otherwise Neumann."""
    if n < 1:
        raise MeshError("n must be >= 1")
    ids = {}
    coords = []
    for j in range(n + 1):
        for i in range(n + 1):
            ids[(i, j)] = len(coords)
            coords.append((i / n, j / n))
    cells = [(i, j) for j in range(n) for i in range(n)]
    mesh = _lattice_mesh(cells, ids, coords)
    _classify_square_boundary(mesh, dirichlet_predicate)
    mesh.validate_markers()
    return mesh


def _rect_from_polygon(polygon):
    """Extract (x0, x1, y0, y1) from an axis-aligned 4-vertex CCW loop."""
    p = np.asarray(polygon, dtype=float)
    if p.shape != (4, 2):
        raise MeshError("built-in meshing supports 4-vertex rectangles only")
    xs, ys = sorted(set(np.round(p[:, 0], 12))), sorted(set(np.round(p[:, 1], 12)))
    if len(xs) != 2 or len(ys) != 2:
        raise MeshError("feature polygon is not an axis-aligned rectangle")
    return xs[0], xs[1], ys[0], ys[1]


def _on_unit_square_boundary(p, tol=1e-12):
    x, y = p
    inx = -tol <= x <= 1 + tol
    iny = -tol <= y <= 1 + tol
    return (inx and (abs(y) <= tol or abs(y - 1) <= tol)) or (
        iny and (abs(x) <= tol or abs(x - 1) <= tol)
    )


def _grid_index(value, n, what):
    g = value * n
    k = round(g)
    if abs(g - k) > 1e-9:
        raise MeshError(f"{what} = {value} does not lie on the 1/{n} grid")
    return int(k)


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
    removed = set()
    bumps = []  # (feature, cell index ranges)
    occupied = []
    for f, inc in zip(features, include):
        if not inc:
            continue
        x0, x1, y0, y1 = _rect_from_polygon(f.polygon)
        i0, i1 = _grid_index(x0, n, "feature x0"), _grid_index(x1, n, "feature x1")
        j0, j1 = _grid_index(y0, n, "feature y0"), _grid_index(y1, n, "feature y1")
        if i1 <= i0 or j1 <= j0:
            raise MeshError("degenerate feature rectangle")
        cells = {(i, j) for i in range(i0, i1) for j in range(j0, j1)}
        for other in occupied:
            if cells & other:
                raise MeshError("overlapping features")
        occupied.append(cells)
        if f.kind == "positive":
            inside = 0 <= i0 and i1 <= n and 0 <= j0 and j1 <= n
            if inside:
                raise MeshError(f"positive feature {f.id} must lie outside the square")
            bumps.append((f, (i0, i1, j0, j1)))
        else:
            if not (0 <= i0 and i1 <= n and 0 <= j0 and j1 <= n):
                raise MeshError(f"negative feature {f.id} must lie inside the square")
            removed |= cells

    cells = []
    for j in range(n):
        for i in range(n):
            if (i, j) in removed:
                continue
            cells.append((i, j))
    for _, (i0, i1, j0, j1) in bumps:
        for j in range(j0, j1):
            for i in range(i0, i1):
                cells.append((i, j))

    used = set()
    for (i, j) in cells:
        for (di, dj) in ((0, 0), (1, 0), (1, 1), (0, 1)):
            used.add((i + di, j + dj))
    # Lattice vertices in generate_unit_square order first (so the un-featured
    # mesh is bit-identical to it), then bump vertices row-major.
    ids = {}
    coords = []
    for j in range(n + 1):
        for i in range(n + 1):
            if (i, j) in used:
                ids[(i, j)] = len(coords)
                coords.append((i / n, j / n))
    for (i, j) in sorted(used - set(ids), key=lambda p: (p[1], p[0])):
        ids[(i, j)] = len(coords)
        coords.append((i / n, j / n))
    mesh = _lattice_mesh(cells, ids, coords)

    # Feature markers.  New hole boundary edges are gamma (or gamma0 when
    # they fall on the square hull); bump boundary edges are gamma except the
    # shared interface, which keeps a gamma0 tag although now interior.
    skip = set()
    for f, inc in zip(features, include):
        if not inc or f.kind == "positive":
            continue
        x0, x1, y0, y1 = _rect_from_polygon(f.polygon)
        for e in mesh.boundary_edge_ids:
            e = int(e)
            i, j = mesh.edge_vertices[e]
            mid = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
            if not (x0 - 1e-12 <= mid[0] <= x1 + 1e-12 and y0 - 1e-12 <= mid[1] <= y1 + 1e-12):
                continue
            part = "gamma0" if _on_unit_square_boundary(mid) else "gamma"
            mesh.edge_markers[e] = EdgeMarker("feature", f.id, part)
            skip.add(e)
    for f, _rng in bumps:
        x0, x1, y0, y1 = _rect_from_polygon(f.polygon)
        for e in range(mesh.n_edges):
            i, j = mesh.edge_vertices[e]
            mid = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
            if not (x0 - 1e-12 <= mid[0] <= x1 + 1e-12 and y0 - 1e-12 <= mid[1] <= y1 + 1e-12):
                continue
            if mesh.is_boundary_edge(e):
                mesh.edge_markers[e] = EdgeMarker("feature", f.id, "gamma")
                skip.add(e)
            elif _on_unit_square_boundary(mid):
                mesh.edge_markers[e] = EdgeMarker("feature", f.id, "gamma0")
    _classify_square_boundary(mesh, dirichlet_predicate, skip=skip)
    mesh.validate_markers()
    return mesh


def uniform_refine(mesh: Mesh) -> Mesh:
    """Split each triangle into 4 by edge midpoints; markers are inherited."""
    V = mesh.n_vertices
    coords = np.vstack(
        [mesh.vertices, 0.5 * (mesh.vertices[mesh.edge_vertices[:, 0]]
                               + mesh.vertices[mesh.edge_vertices[:, 1]])]
    )
    v0, v1, v2 = mesh.triangles.T
    m01, m12, m20 = (V + mesh.triangle_edges).T  # midpoint of local edge (l, l+1)
    tris = np.stack([v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], axis=1)
    fine = Mesh(coords, tris.reshape(-1, 3))
    for e in range(mesh.n_edges):
        marker = mesh.edge_markers[e]
        if marker is None:
            continue
        i, j = (int(v) for v in mesh.edge_vertices[e])
        mid = V + e
        fine.set_marker(i, mid, marker)
        fine.set_marker(mid, j, marker)
    fine.validate_markers()
    return fine


# -- JSON I/O -------------------------------------------------------------


def write_mesh(mesh: Mesh, path):
    """Write the mesh in the JSON format documented in the README."""
    marked = []
    for e in range(mesh.n_edges):
        m = mesh.edge_markers[e]
        if m is None:
            continue
        i, j = (int(v) for v in mesh.edge_vertices[e])
        marked.append([i, j, m.kind, m.feature_id, m.part])
    doc = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "triangles": [[int(a), int(b), int(c)] for a, b, c in mesh.triangles],
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
        mesh = Mesh(np.asarray(doc["vertices"], float), np.asarray(doc["triangles"]))
    except (ValueError, TypeError) as exc:
        raise MeshError(f"invalid mesh arrays: {exc}") from exc
    for row in doc["boundary_edges"]:
        if len(row) != 5:
            raise MeshError(f"boundary edge row {row} must have 5 entries")
        i, j, kind, fid, part = row
        mesh.set_marker(int(i), int(j), EdgeMarker(kind, fid, part))
    mesh.validate_markers()
    return mesh
