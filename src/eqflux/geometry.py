"""Feature geometry: boundary partitions, curve measures and quadrature.

Features are simple polygons.  Their boundary splits into the free part
(gamma), the part shared with the simplified domain boundary (gamma0) and,
for extended positive features, the shared/remaining/extension parts
(gammaS, gammaR, gammaTilde).  Estimator curves are clipped against a mesh
that need not conform to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    EdgeMarker,
    Mesh,
    _cell_block,
    _grid_index,
    _lattice_mesh,
    _on_unit_square_boundary,
)

NEGATIVE_INTERNAL = "negative_internal"
NEGATIVE_BOUNDARY = "negative_boundary"
POSITIVE = "positive"
FEATURE_KINDS = (NEGATIVE_INTERNAL, NEGATIVE_BOUNDARY, POSITIVE)

_TOL = 1e-12


class GeometryError(ValueError):
    """Inconsistent feature/domain geometry."""


@dataclass
class ExtensionSpec:
    """Simple extension of a positive feature (the feature is a subset)."""

    polygon: np.ndarray
    neumann_g_tilde: object = 0.0

    def __post_init__(self):
        self.polygon = np.asarray(self.polygon, dtype=float)


@dataclass
class FeatureSpec:
    """One polygonal feature with its Neumann data.

    ``neumann_g`` lives on the free boundary (units of the normal flux) and
    may take either ``(x, y)`` or ``(x, y, nx, ny)``; ``neumann_g0`` is the
    datum chosen on the shared boundary part (defaults to zero).
    """

    id: int
    kind: str
    polygon: np.ndarray
    neumann_g: object = 0.0
    neumann_g0: object = 0.0
    extension: ExtensionSpec | None = None

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise GeometryError(f"unknown feature kind {self.kind!r}")
        self.polygon = np.asarray(self.polygon, dtype=float)
        if self.polygon.ndim != 2 or len(self.polygon) < 3:
            raise GeometryError("feature polygon needs at least 3 vertices")
        if _polygon_area(self.polygon) <= 0:
            raise GeometryError("feature polygon must be counterclockwise")
        if self.extension is not None and self.kind != POSITIVE:
            raise GeometryError("extensions only apply to positive features")


@dataclass
class DomainSpec:
    """Problem data of the original problem plus the feature list."""

    base: object = "unit_square"  # "unit_square" or a Mesh
    features: list = field(default_factory=list)
    dirichlet: object = None  # predicate (x, y) -> bool; None = everywhere
    f: object = 0.0
    g_dirichlet: object = 0.0
    g_neumann: object = 0.0  # outer Neumann datum


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def regular_polygon(center, radius, sides=16, phase=0.0) -> np.ndarray:
    """CCW regular polygon inscribed in the circle of the given radius."""
    ang = phase + 2.0 * np.pi * np.arange(sides) / sides
    return np.column_stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)]
    )


def rect_polygon(x0, x1, y0, y1) -> np.ndarray:
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def closed_loop(polygon) -> np.ndarray:
    p = np.asarray(polygon, dtype=float)
    return np.vstack([p, p[:1]])


def curve_length(polylines) -> float:
    """Total length of one polyline or a list of polylines."""
    if isinstance(polylines, np.ndarray) and polylines.ndim == 2:
        polylines = [polylines]
    total = 0.0
    for line in polylines:
        p = np.asarray(line, dtype=float)
        total += float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum())
    return total


def gauss_legendre(order: int):
    """Gauss–Legendre nodes/weights on [0, 1]; exact to degree 2·order − 1."""
    if not (1 <= order <= 10):
        raise GeometryError(f"unsupported Gauss-Legendre order {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# -- point-on-boundary predicates ------------------------------------------


def _point_on_segment(p, a, b, tol=_TOL):
    ab = b - a
    L = np.linalg.norm(ab)
    if L < tol:
        return np.linalg.norm(p - a) <= tol
    t = np.dot(p - a, ab) / (L * L)
    if t < -tol / L or t > 1 + tol / L:
        return False
    proj = a + t * ab
    return np.linalg.norm(p - proj) <= tol * max(1.0, L)


def _point_on_polygon_boundary(p, polygon, tol=_TOL):
    loop = closed_loop(polygon)
    return any(
        _point_on_segment(p, loop[k], loop[k + 1], tol) for k in range(len(loop) - 1)
    )


def _on_base_boundary(p, base):
    if isinstance(base, str):
        if base != "unit_square":
            raise GeometryError(f"unknown base {base!r}")
        return _on_unit_square_boundary(p)
    if isinstance(base, Mesh):
        for e in base.boundary_edge_ids:
            i, j = base.edge_vertices[e]
            if _point_on_segment(p, base.vertices[i], base.vertices[j]):
                return True
        return False
    raise GeometryError("base must be 'unit_square' or a Mesh")


def _edge_on(a, b, test):
    return test(a) and test(b) and test(0.5 * (a + b))


def _chain(segments):
    """Merge consecutive segments into polylines (preserving orientation)."""
    lines = []
    cur = None
    for a, b in segments:
        if cur is not None and np.allclose(cur[-1], a, atol=_TOL):
            cur.append(b)
        else:
            if cur is not None:
                lines.append(np.asarray(cur))
            cur = [a, b]
    if cur is not None:
        lines.append(np.asarray(cur))
    # A closed loop may have been cut at the polygon start; rejoin ends.
    if len(lines) > 1 and np.allclose(lines[-1][-1], lines[0][0], atol=_TOL):
        lines[0] = np.vstack([lines[-1], lines[0][1:]])
        lines.pop()
    return lines


def _subtract_overlaps(a, b, others, tol=_TOL):
    """Parts of segment a→b not covered by collinear segments in others."""
    ab = b - a
    L = np.linalg.norm(ab)
    d = ab / L
    intervals = []
    for (c0, c1) in others:
        if not (_point_on_segment(c0, a, b, tol) and _point_on_segment(c1, a, b, tol)):
            continue
        t0 = np.dot(c0 - a, d) / L
        t1 = np.dot(c1 - a, d) / L
        t0, t1 = min(t0, t1), max(t0, t1)
        intervals.append((max(t0, 0.0), min(t1, 1.0)))
    intervals.sort()
    out = []
    cursor = 0.0
    for (t0, t1) in intervals:
        if t0 > cursor + tol:
            out.append((a + cursor * ab, a + t0 * ab))
        cursor = max(cursor, t1)
    if cursor < 1.0 - tol:
        out.append((a + cursor * ab, a + 1.0 * ab))
    return out


def partition_feature_boundary(feature: FeatureSpec, domain: DomainSpec) -> dict:
    """Split the feature boundary into gamma/gamma0 (and gammaS/gammaR/
    gammaTilde when an extension is present).

    All pieces are returned as CCW-oriented polylines with respect to the
    feature polygon.  Features are rejected if their shared boundary part
    touches the Dirichlet boundary.
    """
    base = domain.base
    loop = closed_loop(feature.polygon)
    on_b = lambda p: _on_base_boundary(p, base)
    segs_gamma0, segs_gamma = [], []
    for k in range(len(loop) - 1):
        a, b = loop[k], loop[k + 1]
        if _edge_on(a, b, on_b):
            segs_gamma0.append((a, b))
        else:
            segs_gamma.append((a, b))

    if feature.kind == NEGATIVE_INTERNAL:
        if segs_gamma0:
            raise GeometryError(
                f"internal feature {feature.id} touches the domain boundary"
            )
    elif not segs_gamma0:
        raise GeometryError(
            f"boundary feature {feature.id} shares no edge with the domain boundary"
        )

    if domain.dirichlet is not None:
        for a, b in segs_gamma0:
            mid = 0.5 * (a + b)
            if domain.dirichlet(mid[0], mid[1]):
                raise GeometryError(
                    f"feature {feature.id} touches the Dirichlet boundary"
                )

    out = {
        "gamma": _chain(segs_gamma),
        "gamma0": _chain(segs_gamma0),
        "gammaS": [],
        "gammaR": [],
        "gammaTilde": [],
    }
    if feature.kind != POSITIVE:
        return out

    if feature.extension is None:
        # F~ = F convention: the whole free boundary acts as gammaR.
        out["gammaR"] = out["gamma"]
        return out

    ext_poly = feature.extension.polygon
    on_ext = lambda p: _point_on_polygon_boundary(p, ext_poly)
    segs_s, segs_r = [], []
    for (a, b) in segs_gamma:
        if _edge_on(a, b, on_ext):
            segs_s.append((a, b))
        else:
            segs_r.append((a, b))
    for (a, b) in segs_gamma0:
        if not _edge_on(a, b, on_ext):
            raise GeometryError(
                f"feature {feature.id}: gamma0 must lie on the extension boundary"
            )
    covered = segs_s + segs_gamma0
    ext_loop = closed_loop(ext_poly)
    segs_tilde = []
    for k in range(len(ext_loop) - 1):
        segs_tilde.extend(_subtract_overlaps(ext_loop[k], ext_loop[k + 1], covered))
    out["gammaS"] = _chain(segs_s)
    out["gammaR"] = _chain(segs_r)
    out["gammaTilde"] = _chain(segs_tilde)
    return out


# -- curve quadrature -------------------------------------------------------


@dataclass
class CurveQuadrature:
    """Quadrature on a polyline clipped against a mesh.

    Each sub-segment lies inside one triangle (or along a mesh edge); node
    weights carry the physical arclength measure and each node inherits the
    sub-segment normal (the tangent rotated by −90°).
    """

    seg_tris: np.ndarray  # (S,)
    nodes: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,)
    normals: np.ndarray  # (N, 2)
    node_tris: np.ndarray  # (N,)

    @property
    def length(self) -> float:
        return float(self.weights.sum())


def _segment_cut_params(P, Q, ends, box_lo, box_hi, tol=_TOL):
    """Parameters in (0,1) where segment PQ crosses the mesh edges ``ends``.

    Only edges whose bounding box meets the segment's, padded by the
    collinearity tolerance, are tested.
    """
    d = Q - P
    L = np.linalg.norm(d)
    pad = 1e-9 * max(L, 1.0)
    near = ((box_lo <= np.maximum(P, Q) + pad) & (box_hi >= np.minimum(P, Q) - pad)).all(1)
    A, B = ends[near, 0], ends[near, 1]
    r = B - A
    w = A - P
    denom = d[0] * r[:, 1] - d[1] * r[:, 0]
    parallel = np.abs(denom) <= tol * max(L, 1.0) * np.maximum(np.sqrt(np.vecdot(r, r)), 1.0)
    # A collinear overlap splits at the edge endpoints.
    collinear = parallel & (np.abs(w[:, 0] * d[1] - w[:, 1] * d[0]) / L <= pad)
    t_end = np.vecdot(np.concatenate([A[collinear], B[collinear]]) - P, d) / (L * L)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ = (w[:, 0] * r[:, 1] - w[:, 1] * r[:, 0]) / denom
        u = (w[:, 0] * d[1] - w[:, 1] * d[0]) / denom
    t_ = t_[~parallel & (-tol <= u) & (u <= 1 + tol)]
    t = np.concatenate([t_end, t_])
    return t[(tol < t) & (t < 1 - tol)]


def clip_curve_to_mesh(polylines, mesh: Mesh, gauss_order: int = 4) -> CurveQuadrature:
    """Clip polylines against the mesh and build Gauss quadrature on them.

    Every polyline segment is subdivided at each crossing with a mesh edge;
    each sub-segment is assigned the triangle located at its midpoint
    (curves leaving the mesh raise :class:`GeometryError`).
    """
    if isinstance(polylines, np.ndarray) and polylines.ndim == 2:
        polylines = [polylines]
    gx, gw = gauss_legendre(gauss_order)
    ends = mesh.vertices[mesh.edge_vertices]  # (E, 2, 2)
    box_lo, box_hi = ends.min(axis=1), ends.max(axis=1)
    starts, steps, lengths, t0, t1 = [], [], [], [], []
    for line in polylines:
        line = np.asarray(line, dtype=float)
        for P, Q in zip(line[:-1], line[1:]):
            d = Q - P
            L = np.linalg.norm(d)
            if L <= _TOL:
                continue
            cuts = _segment_cut_params(P, Q, ends, box_lo, box_hi)
            ts = np.unique(np.concatenate([[0.0, 1.0], cuts]))
            merged = [ts[0]]
            for t in ts[1:]:
                if t - merged[-1] > _TOL:
                    merged.append(t)
            starts += [P] * (len(merged) - 1)
            steps += [d] * (len(merged) - 1)
            lengths += [L] * (len(merged) - 1)
            t0 += merged[:-1]
            t1 += merged[1:]
    P = np.reshape(starts, (-1, 2))
    d = np.reshape(steps, (-1, 2))
    L = np.asarray(lengths, dtype=float)
    t0, t1 = np.asarray(t0, dtype=float)[:, None], np.asarray(t1, dtype=float)[:, None]
    mid = P + 0.5 * (t0 + t1) * d
    seg_tris, _ = mesh.locate_points(mid)
    if (seg_tris < 0).any():
        raise GeometryError(f"curve point {mid[np.argmax(seg_tris < 0)]} lies outside the mesh")
    a, b = P + t0 * d, P + t1 * d
    tangent = d / L[:, None]
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    return CurveQuadrature(
        seg_tris=seg_tris,
        nodes=(a[:, None] + gx[:, None] * (b - a)[:, None]).reshape(-1, 2),
        weights=((t1 - t0) * L[:, None] * gw).ravel(),
        normals=np.repeat(normal, gauss_order, axis=0),
        node_tris=np.repeat(seg_tris, gauss_order),
    )


# -- built-in feature meshes -----------------------------------------------


def feature_mesh(feature: FeatureSpec, n: int, domain: DomainSpec | None = None) -> Mesh:
    """Structured mesh of a rectangular positive feature (or its extension).

    The lattice spacing 1/n is aligned with the global unit-square lattice so
    that vertices on gamma0 coincide with the simplified-domain mesh.
    Boundary edges are marked gamma0/gammaS/gammaTilde (extension case) or
    gamma0/gamma (no extension).
    """
    if feature.kind != POSITIVE:
        raise GeometryError("feature meshes are built for positive features")
    domain = domain if domain is not None else DomainSpec(features=[feature])
    parts = partition_feature_boundary(feature, domain)
    poly = feature.extension.polygon if feature.extension else feature.polygon
    p = np.asarray(poly, dtype=float)
    xs = sorted(set(np.round(p[:, 0], 12)))
    ys = sorted(set(np.round(p[:, 1], 12)))
    if len(xs) != 2 or len(ys) != 2:
        raise GeometryError("built-in feature meshing needs an axis-aligned rectangle")
    i0, i1 = _grid_index(xs[0], n, "feature x0"), _grid_index(xs[1], n, "feature x1")
    j0, j1 = _grid_index(ys[0], n, "feature y0"), _grid_index(ys[1], n, "feature y1")
    m = _lattice_mesh(_cell_block(i0, i1, j0, j1), n)

    def classify(mid):
        pm = np.asarray(mid)
        for part in ("gamma0", "gammaS", "gammaTilde", "gamma"):
            for line in parts[part]:
                loop = np.asarray(line)
                for k in range(len(loop) - 1):
                    if _point_on_segment(pm, loop[k], loop[k + 1]):
                        return part
        return None

    mids = m.edge_midpoints()
    for e in m.boundary_edge_ids.tolist():
        mid = mids[e]
        part = classify(mid)
        if part is None:
            raise GeometryError(
                f"feature mesh boundary edge at {mid} matches no boundary part"
            )
        m.edge_markers[e] = EdgeMarker("feature", feature.id, part)
    m.validate_markers()
    return m
