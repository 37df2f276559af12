"""Axis-aligned box geometry, plane sections, and small quadrature rules.

Everything in this module works in reference coordinates, where boxes are
axis aligned and dimensions run from 1 to 3. Rotated domains are handled by
the field classes, which map physical points into reference coordinates
before calling in here. Planar measures follow the codimension-one
convention: a point in 1-d counts with measure 1, a segment in 2-d with its
length, a polygon in 3-d with its area.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, DomainError

# Degenerate geometry below this size is discarded.
MEASURE_EPS = 1e-12


def _as_point(p, dim):
    a = np.asarray(p, dtype=float).reshape(-1)
    if a.size != dim:
        raise DimensionMismatchError(f"expected a point in R^{dim}, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box, lo and hi stored as float tuples."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi) or not 1 <= len(lo) <= 3:
            raise DimensionMismatchError("box corners must share a dimension in {1, 2, 3}")
        if any(h <= l for l, h in zip(lo, hi)):
            raise DomainError(f"empty box: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return len(self.lo)

    @property
    def widths(self):
        return np.array(self.hi) - np.array(self.lo)

    @property
    def volume(self):
        return float(np.prod(self.widths))

    @property
    def center(self):
        return 0.5 * (np.array(self.lo) + np.array(self.hi))

    def contains(self, y, tol=1e-12):
        y = _as_point(y, self.dim)
        return bool(np.all(y >= np.array(self.lo) - tol) and np.all(y <= np.array(self.hi) + tol))

    def shrink(self, margin):
        if 2.0 * margin >= float(np.min(self.widths)):
            raise DomainError(f"margin {margin} collapses box of widths {self.widths}")
        return Box(tuple(l + margin for l in self.lo), tuple(h - margin for h in self.hi))

    def split(self, axis, t):
        if not self.lo[axis] < t < self.hi[axis]:
            raise DomainError(f"split value {t} outside axis {axis} range")
        lo, hi = list(self.lo), list(self.hi)
        hi_a, lo_b = hi.copy(), lo.copy()
        hi_a[axis] = t
        lo_b[axis] = t
        return Box(tuple(lo), tuple(hi_a)), Box(tuple(lo_b), tuple(hi))

    def vertices(self):
        corners = itertools.product(*zip(self.lo, self.hi))
        return np.array(list(corners), dtype=float)


def unit_cube(dim):
    """Centered unit cube (-1/2, 1/2)^dim used by the cell problems."""
    return Box((-0.5,) * dim, (0.5,) * dim)


def corner_cube(dim):
    """Unit box (0, 1)^dim used by the worked staircase examples."""
    return Box((0.0,) * dim, (1.0,) * dim)


@lru_cache(maxsize=32)
def gauss_rule(order):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def interval_quadrature(a, b, order=4):
    x, w = gauss_rule(order)
    return a + (b - a) * x, (b - a) * w


def tensor_gauss(box, order=4):
    """Tensor-product Gauss points/weights over a box."""
    pts_1d, wts_1d = [], []
    for l, h in zip(box.lo, box.hi):
        x, w = interval_quadrature(l, h, order)
        pts_1d.append(x)
        wts_1d.append(w)
    grids = np.meshgrid(*pts_1d, indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weights = wts_1d[0]
    for w in wts_1d[1:]:
        weights = np.multiply.outer(weights, w)
    return points, weights.reshape(-1)


def plane_range(box, mu):
    """Range of y . mu over the box (min, max)."""
    mu = _as_point(mu, box.dim)
    lo, hi = np.array(box.lo), np.array(box.hi)
    m_lo = float(np.sum(np.minimum(mu * lo, mu * hi)))
    m_hi = float(np.sum(np.maximum(mu * lo, mu * hi)))
    return m_lo, m_hi


def orthonormal_tangents(mu):
    """Deterministic orthonormal basis of the plane orthogonal to unit mu."""
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    k = int(np.argmin(np.abs(mu)))
    t1 = np.eye(n)[k] - mu[k] * mu
    t1 /= np.linalg.norm(t1)
    if n == 2:
        return (t1,)
    t2 = np.cross(mu, t1)
    t2 /= np.linalg.norm(t2)
    return (t1, t2)


# ---------------------------------------------------------------------------
# Convex polygons in batches. N polygons share one padded (N, V, d) array
# with a vertex count per row: row i uses its first counts[i] vertices, in
# order, and the rest is padding. The one-polygon helpers below are one-row
# calls into these.

def _successors(counts, width):
    """Index of each vertex's successor around its polygon, (N, width)."""
    k = np.arange(width)
    return np.where(k + 1 < counts[:, None], k + 1, 0)


def clip_polygons(verts, counts, normals, offsets):
    """Sutherland-Hodgman clip of N padded convex polygons in one pass.

    Row i keeps the side normals[i] . v <= offsets[i]; a single (d,) normal
    is shared by every row, and an infinite offset keeps a row whole.
    Returns the clipped (verts, counts) in the same padded layout.
    """
    verts = np.asarray(verts, dtype=float)
    counts = np.asarray(counts)
    n_rows, width, d = verts.shape
    rows = np.arange(n_rows)[:, None]
    succ = _successors(counts, width)
    live = np.arange(width) < counts[:, None]
    normals = np.asarray(normals, dtype=float).reshape(-1, 1, d)
    dist = (verts * normals).sum(axis=2) - np.asarray(offsets, dtype=float).reshape(-1, 1)
    dist_next = dist[rows, succ]
    keep = live & (dist <= MEASURE_EPS)
    cross = live & (((dist < -MEASURE_EPS) & (dist_next > MEASURE_EPS))
                    | ((dist > MEASURE_EPS) & (dist_next < -MEASURE_EPS)))
    t = np.zeros(dist.shape)
    t[cross] = dist[cross] / (dist[cross] - dist_next[cross])
    # Each vertex emits itself when kept, then its edge's crossing point.
    cand = np.empty((n_rows, width, 2, d))
    cand[:, :, 0] = verts
    cand[:, :, 1] = verts + t[:, :, None] * (verts[rows, succ] - verts)
    mask = np.empty((n_rows, width, 2), dtype=bool)
    mask[:, :, 0] = keep
    mask[:, :, 1] = cross
    mask = mask.reshape(n_rows, 2 * width)
    new_counts = mask.sum(axis=1)
    out = np.zeros((n_rows, int(new_counts.max(initial=0)), d))
    r, slot = np.nonzero(mask)
    out[r, (np.cumsum(mask, axis=1) - 1)[r, slot]] = cand.reshape(n_rows, 2 * width, d)[r, slot]
    return out, new_counts


def polygon_areas2(verts, counts):
    """Shoelace areas of N padded 2-d polygons."""
    verts = np.asarray(verts, dtype=float)
    counts = np.asarray(counts)
    succ = _successors(counts, verts.shape[1])
    rows = np.arange(len(counts))[:, None]
    x, y = verts[..., 0], verts[..., 1]
    terms = x * y[rows, succ] - y * x[rows, succ]
    live = np.arange(verts.shape[1]) < counts[:, None]
    return 0.5 * np.abs(np.where(live, terms, 0.0).sum(axis=1))


def planar_polygon_areas(verts, counts):
    """Areas of N padded planar polygons embedded in R^3 (fan cross sums)."""
    verts = np.asarray(verts, dtype=float)
    counts = np.asarray(counts)
    e1 = verts[:, 1:-1] - verts[:, :1]
    e2 = verts[:, 2:] - verts[:, :1]
    in_fan = np.arange(2, verts.shape[1]) < counts[:, None]
    total = np.zeros((len(counts), 3))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        cross_k = e1[..., i] * e2[..., j] - e1[..., j] * e2[..., i]
        total[:, k] = np.where(in_fan, cross_k, 0.0).sum(axis=1)
    return 0.5 * np.sqrt((total * total).sum(axis=1))


# Degree-2 triangle rule: midpoints of edges, equal weights. Exact for all
# polynomials of degree <= 2, in particular for affine jump integrands.
_TRI_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def fan_quadrature2(verts, counts):
    """Degree-2 quadrature over N padded convex 2-d polygons at once.

    Each polygon is fanned from its first vertex, and every fan triangle of
    area above MEASURE_EPS gets the _TRI_BARY rule. Returns (nodes (M, 2),
    weights (M,), owner (M,)), owner being the row each node belongs to;
    nodes come row by row, triangle by triangle.
    """
    verts = np.asarray(verts, dtype=float)
    counts = np.asarray(counts)
    v0 = np.broadcast_to(verts[:, :1], verts[:, 1:-1].shape)
    e1 = verts[:, 1:-1] - v0
    e2 = verts[:, 2:] - v0
    area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    in_fan = (np.arange(2, verts.shape[1]) < counts[:, None]) & (area > MEASURE_EPS)
    rows, tris = np.nonzero(in_fan)
    corners = np.stack([v0[rows, tris], verts[rows, tris + 1], verts[rows, tris + 2]],
                       axis=1)
    nodes = (_TRI_BARY @ corners).reshape(-1, 2)
    return nodes, np.repeat(area[rows, tris] / 3.0, 3), np.repeat(rows, 3)


def clip_polygon_halfspace(verts, normal, offset):
    """Sutherland-Hodgman clip keeping the side normal . v <= offset."""
    if len(verts) == 0:
        return verts
    out, counts = clip_polygons(np.asarray(verts, dtype=float)[None], [len(verts)],
                                normal, offset)
    return out[0, :counts[0]]


def planar_polygon_area(verts):
    """Area of a planar polygon embedded in R^3 (vertices in order)."""
    if len(verts) < 3:
        return 0.0
    return float(planar_polygon_areas(np.asarray(verts, dtype=float)[None],
                                      [len(verts)])[0])


def plane_sections(box, mu, cs):
    """Sections of a box by the parallel planes {y . mu = c}, c in cs, at once.

    Returns (measures, verts, counts): row k holds the counts[k] corners of
    the k-th section, in reference coordinates and the padded layout of
    clip_polygons, or measure 0.0 and count 0 when that plane misses the
    box interior. In 2-d the sections are closed-form segments; in 3-d one
    large square per plane is clipped against the six faces of the box, all
    planes in one batch. mu must be a unit vector.
    """
    mu = _as_point(mu, box.dim)
    dim = box.dim
    cs = np.asarray(cs, dtype=float).reshape(-1)
    m_lo, m_hi = plane_range(box, mu)
    hit = (m_lo + MEASURE_EPS < cs) & (cs < m_hi - MEASURE_EPS)

    if dim == 1:
        measures = np.ones(cs.size)
        verts = (cs / mu[0]).reshape(-1, 1, 1)
        counts = np.ones(cs.size, dtype=int)
    elif dim == 2:
        t = np.array([-mu[1], mu[0]])
        p0 = cs[:, None] * mu
        s_lo = np.full(cs.size, -np.inf)
        s_hi = np.full(cs.size, np.inf)
        for k in range(2):
            if abs(t[k]) < 1e-15:
                continue
            a = (box.lo[k] - p0[:, k]) / t[k]
            b = (box.hi[k] - p0[:, k]) / t[k]
            s_lo = np.maximum(s_lo, np.minimum(a, b))
            s_hi = np.minimum(s_hi, np.maximum(a, b))
        measures = s_hi - s_lo
        verts = np.stack([p0 + s_lo[:, None] * t, p0 + s_hi[:, None] * t], axis=1)
        counts = np.full(cs.size, 2)
    else:
        t1, t2 = orthonormal_tangents(mu)
        q0 = box.center + (cs - float(box.center @ mu))[:, None] * mu
        rad = 2.0 * float(np.linalg.norm(box.widths))
        verts = np.stack([
            q0 - rad * t1 - rad * t2,
            q0 + rad * t1 - rad * t2,
            q0 + rad * t1 + rad * t2,
            q0 - rad * t1 + rad * t2,
        ], axis=1)
        counts = np.full(cs.size, 4)
        eye = np.eye(3)
        for k in range(3):
            verts, counts = clip_polygons(verts, counts, eye[k], box.hi[k])
            verts, counts = clip_polygons(verts, counts, -eye[k], -box.lo[k])
            counts = np.where(counts < 3, 0, counts)
        measures = planar_polygon_areas(verts, counts)
    hit &= measures > MEASURE_EPS
    return np.where(hit, measures, 0.0), verts, np.where(hit, counts, 0)


def plane_section(box, mu, c):
    """Intersection of the plane {y . mu = c} with a box.

    Returns (measure, vertices) where vertices is an (m, dim) array of the
    section's corners in reference coordinates, or (0.0, None) when the
    plane misses the box interior. mu must be a unit vector.
    """
    measures, verts, counts = plane_sections(box, mu, [c])
    if counts[0] == 0:
        return 0.0, None
    return float(measures[0]), verts[0, :counts[0]]


# ---------------------------------------------------------------------------
# 2-d polygon helpers, used for facet subdivision in face coordinates.

def polygon_area2(verts):
    if len(verts) < 3:
        return 0.0
    return float(polygon_areas2(np.asarray(verts, dtype=float)[None], [len(verts)])[0])


def split_polygon_by_line(verts, g, b, tol=1e-14):
    """Split a convex 2-d polygon by the line {g . w = b}.

    Returns (below, above) vertex arrays; either may be empty.
    """
    if len(verts) == 0:
        return verts, verts
    g = np.asarray(g, dtype=float)
    out, counts = clip_polygons(np.repeat(np.asarray(verts, dtype=float)[None], 2, axis=0),
                                [len(verts)] * 2, [g, -g], [b + tol, -(b - tol)])
    return out[0, :counts[0]], out[1, :counts[1]]


def polygon_quadrature2(verts):
    """Quadrature points/weights over a convex 2-d polygon (fan triangulation)."""
    verts = np.asarray(verts, dtype=float).reshape(-1, 2)
    nodes, weights, _ = fan_quadrature2(verts[None], [len(verts)])
    return nodes, weights


def subdivide_interval(a, b, cuts, tol=1e-14):
    """Sorted subintervals of (a, b) split at interior cut points."""
    interior = sorted(c for c in cuts if a + tol < c < b - tol)
    knots = [a] + interior + [b]
    return [(knots[i], knots[i + 1]) for i in range(len(knots) - 1)]


def rotation_from_last_axis(nu):
    """Orthogonal matrix whose last column is the unit vector nu.

    Completes nu to an orthonormal basis deterministically; used to set up
    rotated-cube domains whose last reference axis is the jump direction.
    """
    nu = np.asarray(nu, dtype=float)
    n = nu.size
    if n == 1:
        return np.array([[nu[0]]])
    cols = list(orthonormal_tangents(nu)) + [nu]
    return np.column_stack(cols)
