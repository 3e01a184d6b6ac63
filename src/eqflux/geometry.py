"""Feature geometry: boundary partitions, curve measures and quadrature.

Features are simple polygons.  Their boundary splits into the free part
(gamma), the part shared with the simplified domain boundary (gamma0) and,
for extended positive features, the shared/remaining/extension parts
(gammaS, gammaR, gammaTilde).  Estimator curves are clipped against a mesh
that need not conform to them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    _SQUARE_SIDES,
    EdgeMarker,
    Mesh,
    _cell_block,
    _grid_rect,
    _lattice_mesh,
    _on_segments,
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
        if not np.isfinite(self.polygon).all():
            raise GeometryError(f"feature {self.id} polygon has a non-finite coordinate")
        if _polygon_area(self.polygon) <= 0:
            raise GeometryError("feature polygon must be counterclockwise")
        if self.extension is not None and self.kind != POSITIVE:
            raise GeometryError("extensions only apply to positive features")
        # An extension is checked by its feature, so that the error names it.
        if self.extension is not None and not np.isfinite(self.extension.polygon).all():
            raise GeometryError(f"feature {self.id} extension polygon has a non-finite coordinate")


@dataclass
class DomainSpec:
    """Problem data of the original problem plus the feature list."""

    base: object = "unit_square"  # "unit_square" or a Mesh
    features: list = field(default_factory=list)
    dirichlet: object = None  # built-in mesher's predicate (x, y) -> Dirichlet; None = everywhere
    f: object = 0.0
    g_dirichlet: object = 0.0
    g_neumann: object = 0.0  # outer Neumann datum


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def regular_polygon(center, radius, sides=16) -> np.ndarray:
    """CCW regular polygon inscribed in the circle of the given radius."""
    ang = 2.0 * np.pi * np.arange(sides) / sides
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


@functools.cache
def gauss_legendre(order: int):
    """Gauss–Legendre nodes/weights on [0, 1], exact to degree 2·order − 1 (cached, read-only)."""
    if not (1 <= order <= 10):
        raise GeometryError(f"unsupported Gauss-Legendre order {order}")
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


# -- point-on-boundary predicates ------------------------------------------


def _segments(polylines):
    """Segment ends ``(a, b)``, each (S, 2), of the polylines in order."""
    lines = [np.asarray(line, dtype=float) for line in polylines]
    empty = [np.zeros((0, 2))]
    return (np.concatenate([line[:-1] for line in lines] + empty),
            np.concatenate([line[1:] for line in lines] + empty))


def groups_on(points, groups) -> np.ndarray:
    """(N, G) mask: group g of polylines has a segment holding point n (by ``_on_segments``)."""
    owner = np.repeat(np.arange(len(groups)),
                      [sum(len(line) - 1 for line in lines) for lines in groups])
    hit = _on_segments(points, *_segments([line for lines in groups for line in lines]))
    return hit @ (owner[:, None] == np.arange(len(groups)))


def _on_base_boundary(points, base):
    """Whether each point lies on the boundary of the base domain."""
    if isinstance(base, str):
        if base != "unit_square":
            raise GeometryError(f"unknown base {base!r}")
        return _on_segments(points, *_SQUARE_SIDES).any(axis=1)
    if isinstance(base, Mesh):
        a, b = base.vertices[base.edge_vertices[base.boundary_edge_ids]].transpose(1, 0, 2)
        return _on_segments(points, a, b).any(axis=1)
    raise GeometryError("base must be 'unit_square' or a Mesh")


def _sides_on(loop, on):
    """Mask of the sides of a closed loop whose ends and midpoint all pass
    the array test ``on``, applied once to all vertices and midpoints."""
    a, b = loop[:-1], loop[1:]
    hit = on(np.concatenate([a, 0.5 * (a + b)]))
    vertex, mid = hit[:len(a)], hit[len(a):]
    return vertex & np.concatenate([vertex[1:], vertex[:1]]) & mid


def _chain(a, b):
    """Merge consecutive segments a[k]→b[k] into polylines (preserving
    orientation): a segment continues the line when it starts where the
    previous one ends."""
    if not len(a):
        return []
    # joined[k]: segment k + 1 (the first one after the last) starts at b[k],
    # within the absolute tolerance of every other boundary test.
    nxt = np.concatenate([a[1:], a[:1]])
    joined = (np.abs(b - nxt) <= _TOL).all(axis=1)
    cut = np.flatnonzero(~joined[:-1]) + 1
    lines = [np.vstack([a[i:i + 1], b[i:j]]) for i, j in zip([0, *cut], [*cut, len(a)])]
    # A closed loop may have been cut at the polygon start; rejoin ends.
    if len(lines) > 1 and joined[-1]:
        lines[0] = np.vstack([lines[-1], lines[0][1:]])
        lines.pop()
    return lines


def _subtract_overlaps(a, b, c0, c1):
    """Pieces ``(starts, ends)`` of the segments a→b not covered by those
    segments c0→c1 whose ends lie on them, in segment order."""
    ab = b - a
    L = np.sqrt(np.vecdot(ab, ab))[:, None]
    d = ab / L
    on = (_on_segments(c0, a, b) & _on_segments(c1, a, b)).T  # (S, M)
    t0 = np.vecdot(c0 - a[:, None], d[:, None]) / L
    t1 = np.vecdot(c1 - a[:, None], d[:, None]) / L
    # Covered intervals in ascending order along each segment; the others
    # sort first as (-inf, -inf) and never open a gap or move the cursor.
    lo = np.where(on, np.maximum(np.minimum(t0, t1), 0.0), -np.inf)
    hi = np.where(on, np.minimum(np.maximum(t0, t1), 1.0), -np.inf)
    k = np.lexsort((hi, lo), axis=1)
    lo, hi = np.take_along_axis(lo, k, axis=1), np.take_along_axis(hi, k, axis=1)
    # The cursor before each interval, and after the last, is the running
    # maximum of the interval ends so far.
    cursor = np.maximum.accumulate(np.column_stack([np.zeros(len(a)), hi]), axis=1)
    stop = np.column_stack([lo, np.ones(len(a))])
    gap = np.column_stack([lo > cursor[:, :-1] + _TOL, cursor[:, -1] < 1.0 - _TOL])
    s = np.nonzero(gap)[0]
    return a[s] + cursor[gap][:, None] * ab[s], a[s] + stop[gap][:, None] * ab[s]


def partition_feature_boundary(feature: FeatureSpec, domain: DomainSpec) -> dict:
    """Split the feature boundary into gamma/gamma0 (and gammaS/gammaR/
    gammaTilde when an extension is present).

    All pieces are returned as CCW-oriented polylines with respect to the
    feature polygon.  Negative features are rejected if their defect curve
    gamma is empty (every side lies on the domain boundary).  The partition
    does not read the Dirichlet predicate: that an excluded feature's gamma0 is
    Neumann is checked by ``fem.project_data`` on the mesh's markers.
    """
    loop = closed_loop(feature.polygon)
    a, b = loop[:-1], loop[1:]
    pieces = lambda mask: _chain(a[mask], b[mask])
    on0 = _sides_on(loop, lambda p: _on_base_boundary(p, domain.base))

    if feature.kind == NEGATIVE_INTERNAL:
        if on0.any():
            raise GeometryError(
                f"internal feature {feature.id} touches the domain boundary"
            )
    elif not on0.any():
        raise GeometryError(
            f"boundary feature {feature.id} shares no edge with the domain boundary"
        )

    if feature.kind != POSITIVE and on0.all():
        raise GeometryError(f"feature {feature.id}: its curve gamma has zero length")

    out = {
        "gamma": pieces(~on0),
        "gamma0": pieces(on0),
        "gammaS": [],
        "gammaR": [],
        "gammaTilde": [],
    }
    if feature.kind != POSITIVE or feature.extension is None:
        return out

    ext = closed_loop(feature.extension.polygon)
    ea, eb = ext[:-1], ext[1:]
    on_ext = _sides_on(loop, lambda p: _on_segments(p, ea, eb).any(axis=1))
    if (on0 & ~on_ext).any():
        raise GeometryError(
            f"feature {feature.id}: gamma0 must lie on the extension boundary"
        )
    out["gammaS"] = pieces(~on0 & on_ext)
    out["gammaR"] = pieces(~on0 & ~on_ext)
    out["gammaTilde"] = _chain(*_subtract_overlaps(ea, eb, a[on_ext], b[on_ext]))
    return out


# -- curve quadrature -------------------------------------------------------


@dataclass
class CurveQuadrature:
    """Quadrature on a polyline clipped against a mesh.

    Each sub-segment lies inside one triangle (or along a mesh edge); node
    weights carry the physical arclength measure and each node inherits the
    sub-segment normal (the tangent rotated by −90°).
    """

    nodes: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,)
    normals: np.ndarray  # (N, 2)
    node_tris: np.ndarray  # (N,)

    @property
    def length(self) -> float:
        return float(self.weights.sum())


def clip_curve_to_mesh(polylines, mesh: Mesh, gauss_order: int = 4) -> CurveQuadrature:
    """Clip polylines against the mesh and build Gauss quadrature on them.

    Every polyline segment is subdivided at each crossing with a mesh edge,
    and at the ends of the edges it runs along; cuts within ``_TOL`` of the
    one before them on the same segment are dropped.  Each sub-segment is
    assigned the triangle located at its midpoint (a curve leaving the mesh, or
    with a vertex that is not finite, raises :class:`GeometryError`).  One array
    pass tests each segment against the edges :meth:`Mesh.edges_near` lists for
    its box, a superset of those it meets.
    """
    if isinstance(polylines, np.ndarray) and polylines.ndim == 2:
        polylines = [polylines]
    gx, gw = gauss_legendre(gauss_order)
    P, Q = _segments(polylines)
    if not np.isfinite(ends := np.concatenate([P, Q])).all():
        raise GeometryError(f"curve vertex {ends[~np.isfinite(ends).all(axis=1)][0]} is not finite")
    d = Q - P
    L = np.sqrt(np.vecdot(d, d))
    long = L > _TOL
    P, Q, d, L = P[long], Q[long], d[long], L[long]
    pad = 1e-9 * np.maximum(L, 1.0)
    s, e = mesh.edges_near(np.minimum(P, Q), np.maximum(P, Q))

    A, B = mesh.vertices[mesh.edge_vertices[e]].transpose(1, 0, 2)
    r, w, ds = B - A, A - P[s], d[s]
    denom = ds[:, 0] * r[:, 1] - ds[:, 1] * r[:, 0]
    parallel = np.abs(denom) <= _TOL * np.maximum(L[s], 1.0) * np.maximum(
        np.sqrt(np.vecdot(r, r)), 1.0)
    wd = w[:, 0] * ds[:, 1] - w[:, 1] * ds[:, 0]
    # A collinear overlap splits at the edge endpoints.
    c = np.flatnonzero(parallel & (np.abs(wd) / L[s] <= pad[s]))
    sc = np.concatenate([s[c], s[c]])
    t_end = np.vecdot(np.concatenate([A[c], B[c]]) - P[sc], d[sc]) / (L[sc] * L[sc])
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ = (w[:, 0] * r[:, 1] - w[:, 1] * r[:, 0]) / denom
        u = wd / denom
    cross = ~parallel & (-_TOL <= u) & (u <= 1 + _TOL)
    seg, t = np.concatenate([sc, s[cross]]), np.concatenate([t_end, t_[cross]])
    inner = (_TOL < t) & (t < 1 - _TOL)
    ids = np.arange(len(P))
    seg = np.concatenate([ids, ids, seg[inner]])
    t = np.concatenate([np.zeros(len(P)), np.ones(len(P)), t[inner]])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    keep = (np.diff(seg, prepend=-1) != 0) | (np.diff(t, prepend=0.0) > _TOL)
    seg, t = seg[keep], t[keep]

    # Sub-segments join consecutive kept cuts of one segment.
    piece = seg[:-1] == seg[1:]
    i = seg[:-1][piece]
    P, d, L = P[i], d[i], L[i]
    t0, t1 = t[:-1][piece][:, None], t[1:][piece][:, None]
    mid = P + 0.5 * (t0 + t1) * d
    tris = mesh.locate_points(mid)
    if (tris < 0).any():
        raise GeometryError(f"curve point {mid[np.argmax(tris < 0)]} lies outside the mesh")
    a, b = P + t0 * d, P + t1 * d
    tangent = d / L[:, None]
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    return CurveQuadrature(
        nodes=(a[:, None] + gx[:, None] * (b - a)[:, None]).reshape(-1, 2),
        weights=((t1 - t0) * L[:, None] * gw).ravel(),
        normals=np.repeat(normal, gauss_order, axis=0),
        node_tris=np.repeat(tris, gauss_order),
    )


# -- built-in feature meshes -----------------------------------------------


def feature_mesh(feature: FeatureSpec, n: int, domain: DomainSpec | None = None,
                 parts: dict | None = None) -> Mesh:
    """Structured mesh of a rectangular positive feature (or its extension).

    The lattice spacing 1/n is aligned with the global unit-square lattice so
    that vertices on gamma0 coincide with the simplified-domain mesh.
    Boundary edges are marked gamma0/gammaS/gammaTilde (extension case) or
    gamma0/gamma (no extension) by ``parts``, its partition (made if omitted).
    """
    if feature.kind != POSITIVE:
        raise GeometryError("feature meshes are built for positive features")
    domain = domain if domain is not None else DomainSpec(features=[feature])
    parts = parts or partition_feature_boundary(feature, domain)
    poly = feature.extension.polygon if feature.extension else feature.polygon
    _, (i0, i1, j0, j1) = _grid_rect(poly, n)
    m = _lattice_mesh(_cell_block(i0, i1, j0, j1), n)

    order = ("gamma0", "gammaS", "gammaTilde", "gamma")
    bnd = m.boundary_edge_ids
    mids = m.edge_midpoints()[bnd]
    on = groups_on(mids, [parts[part] for part in order])
    if not on.any(axis=1).all():
        raise GeometryError(
            f"feature mesh boundary edge at {mids[np.argmin(on.any(axis=1))]} "
            "matches no boundary part"
        )
    markers = np.array(m.edge_markers, dtype=object)
    labels = [EdgeMarker("feature", feature.id, part) for part in order]
    markers[bnd] = np.array(labels, dtype=object)[on.argmax(axis=1)]  # the first part holding it
    m.edge_markers = markers.tolist()
    m.validate_markers()
    return m
