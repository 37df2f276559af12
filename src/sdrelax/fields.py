"""Piecewise-affine vector fields with explicit jump sets on boxes in R^n.

Two concrete representations cover everything the package needs:

* GridField: an axis-aligned mesh with one affine map per cell. Jump facets
  are derived, not stored: every interior mesh face where the two adjacent
  affine maps disagree beyond 1e-10 carries a facet whose jump is the
  (affine) difference of the traces.
* StepField: a global affine base plus families of parallel plane jumps,
  optionally wrapped in a boundary clamp layer on which the field equals an
  exact affine datum. This represents staircase approximations whose jump
  planes are not aligned with any mesh.

Fields on rotated cube domains keep their geometry in axis-aligned
reference coordinates and store the rotation; facet normals are reported in
physical coordinates. Facet integrals are exact for piecewise-affine jump
data: faces are subdivided along every crossing jump plane and along the
zero line of the normal jump, and a degree-2 rule integrates each affine
piece exactly. Facets are built as arrays: all pieces of a face are clipped,
integrated and split in batches (geometry's padded polygon layout), the
jump is evaluated once per face on all piece centroids, and all plane
sections of a jump family come from one batched call.
"""

import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product

import numpy as np

from . import geometry as geo
from .core import (Frame, as_matrix, as_unit_vector, decompose_by_frame,
                   identity_frame)
from .errors import (DimensionMismatchError, DomainError, MeshMismatchError,
                     NonUnitNormalError)
from .geometry import Box

JUMP_TOL = 1e-10       # adjacent affine maps closer than this share a facet-free face
COINCIDENCE_TOL = 1e-12


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridMesh:
    """Axis-aligned tensor mesh, optionally sitting in a rotated domain.

    resolution is one cell count per axis. When rotation is set the physical
    domain is the image of the (origin-centered) reference box under it.
    """

    box: Box
    resolution: tuple
    rotation: np.ndarray = None

    def __post_init__(self):
        res = self.resolution
        if np.isscalar(res):
            res = (int(res),) * self.box.dim
        res = tuple(int(r) for r in res)
        if len(res) != self.box.dim or any(r < 1 for r in res):
            raise DimensionMismatchError(f"bad resolution {res} for dim {self.box.dim}")
        object.__setattr__(self, "resolution", res)
        if self.rotation is not None:
            R = _readonly(self.rotation)
            if R.shape != (self.box.dim, self.box.dim):
                raise DimensionMismatchError("rotation shape mismatch")
            if np.max(np.abs(R.T @ R - np.eye(self.box.dim))) > 1e-12:
                raise NonUnitNormalError("rotation must be orthogonal within 1e-12")
            if np.max(np.abs(self.box.center)) > 1e-12:
                raise DomainError("rotated meshes need an origin-centered box")
            object.__setattr__(self, "rotation", R)

    @property
    def dim(self):
        return self.box.dim

    @property
    def n_cells(self):
        return int(np.prod(self.resolution))

    @property
    def cell_widths(self):
        return self.box.widths / np.array(self.resolution)

    @property
    def cell_volume(self):
        return float(np.prod(self.cell_widths))

    def to_physical(self, Y):
        return Y if self.rotation is None else Y @ self.rotation.T

    def to_reference(self, X):
        return X if self.rotation is None else X @ self.rotation

    def face_normal(self, axis):
        if self.rotation is None:
            return np.eye(self.dim)[axis]
        return self.rotation[:, axis].copy()

    def cell_box(self, multi):
        lo = np.array(self.box.lo) + np.array(multi) * self.cell_widths
        return Box(tuple(lo), tuple(lo + self.cell_widths))

    def multi_indices(self):
        return list(np.ndindex(*self.resolution))

    def flat_index(self, multi):
        return int(np.ravel_multi_index(multi, self.resolution))

    def locate_many(self, Y):
        """Flat cell indices of reference points; boundary points go upward."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        rel = (Y - np.array(self.box.lo)) / self.cell_widths
        idx = np.clip(np.floor(rel).astype(int), 0, np.array(self.resolution) - 1)
        return np.ravel_multi_index(tuple(idx.T), self.resolution)

    def centers(self):
        axes = [np.array(self.box.lo[k]) + (np.arange(r) + 0.5) * self.cell_widths[k]
                for k, r in enumerate(self.resolution)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)

    def interior_faces(self):
        """Yield (axis, fixed_value, flat_lo, flat_hi, free_axes, free_bounds)."""
        for axis in range(self.dim):
            h = self.cell_widths[axis]
            free_axes = [k for k in range(self.dim) if k != axis]
            perp_res = [self.resolution[k] for k in free_axes]
            for layer in range(1, self.resolution[axis]):
                fixed = self.box.lo[axis] + layer * h
                for perp in np.ndindex(*perp_res) if perp_res else [()]:
                    lo_multi = [0] * self.dim
                    hi_multi = [0] * self.dim
                    for k, p in zip(free_axes, perp):
                        lo_multi[k] = p
                        hi_multi[k] = p
                    lo_multi[axis] = layer - 1
                    hi_multi[axis] = layer
                    bounds = [(self.box.lo[k] + perp[i] * self.cell_widths[k],
                               self.box.lo[k] + (perp[i] + 1) * self.cell_widths[k])
                              for i, k in enumerate(free_axes)]
                    yield (axis, float(fixed), self.flat_index(tuple(lo_multi)),
                           self.flat_index(tuple(hi_multi)), free_axes, bounds)


@dataclass(frozen=True)
class Facet:
    """One piece of a field's jump set with exact quadrature data.

    normal is the physical unit normal; the jump is trace(+side) minus
    trace(-side), the + side being the one the normal points into.
    quad_weights sum to the facet area. constant_jump is set when the jump
    does not vary over the facet.
    """

    normal: np.ndarray
    area: float
    quad_points: np.ndarray   # (m, dim) physical
    quad_weights: np.ndarray  # (m,)
    quad_jumps: np.ndarray    # (m, codim)
    constant_jump: np.ndarray = None
    plane_axis: int = None    # mesh axis for grid facets
    plane_offset: float = 0.0  # reference-coordinate plane constant


# ---------------------------------------------------------------------------
# Facet quadrature over one planar face with piecewise-affine jump data.

def _face_pieces(dim, free_bounds, cut_families):
    """Subdivide a face into convex pieces along every crossing jump plane.

    cut_families lists (g, cs) pairs, one per family of parallel cut lines
    {g . w = c} in free coordinates. Pieces come back in the padded layout
    of geo.clip_polygons, as (verts, counts): intervals (2 vertices) for
    2-d domains, convex polygons for 3-d domains, one vertex-free piece
    for 1-d.
    """
    if dim == 1:
        return np.zeros((1, 1, 0)), np.ones(1, dtype=int)
    if dim == 2:
        (a, b), = free_bounds
        cuts = [cs / g[0] for g, cs in cut_families if abs(g[0]) > 1e-13]
        knots = np.array([a, b], dtype=float)
        if cuts:
            cuts = np.sort(np.concatenate(cuts))
            knots = np.concatenate(([a], cuts[(a + 1e-14 < cuts) & (cuts < b - 1e-14)], [b]))
        return np.array([knots[:-1], knots[1:]]).T[:, :, None], np.full(len(knots) - 1, 2)
    (a0, b0), (a1, b1) = free_bounds
    verts = np.array([[[a0, a1], [b0, a1], [b0, b1], [a0, b1]]], dtype=float)
    counts = np.array([4])
    for g, cs in cut_families:
        verts, counts = _cut_by_family(verts, counts, g, cs)
    return verts, counts


def _cut_by_family(verts, counts, g, cs):
    """Cut convex polygons along the lines {g . w = c}, c in increasing cs.

    A line cuts a polygon when the polygon reaches 1e-13 past it on both
    sides. A polygon cut by m lines becomes its m + 1 slabs, in order, each
    clipped by its bounding lines with a 1e-14 overlap; all slabs of all
    polygons are clipped in one batch, and slivers of area at most
    MEASURE_EPS are dropped.
    """
    live = np.arange(verts.shape[1]) < counts[:, None]
    proj = verts @ g
    lo = np.where(live, proj, np.inf).min(axis=1)
    hi = np.where(live, proj, -np.inf).max(axis=1)
    cuts = (lo[:, None] - cs <= -1e-13) & (hi[:, None] - cs >= 1e-13)
    m = cuts.sum(axis=1)
    if not m.any():
        return verts, counts
    rows = np.repeat(np.arange(len(counts)), m + 1)
    slab = np.arange(rows.size) - np.repeat(np.cumsum(m + 1) - (m + 1), m + 1)
    line = cuts.argmax(axis=1)[rows] + slab  # the line bounding each slab above
    bounds = np.append(cs, np.inf)
    floor = np.where(slab > 0, bounds[line - 1] - 1e-14, -np.inf)
    ceiling = np.where(slab < m[rows], bounds[line] + 1e-14, np.inf)
    verts, counts = geo.clip_polygons(verts[rows], counts[rows], -g, -floor)
    verts, counts = geo.clip_polygons(verts, counts, g, ceiling)
    keep = (counts >= 3) & (geo.polygon_areas2(verts, counts) > geo.MEASURE_EPS)
    return verts[keep], counts[keep]


def _piece_rule(dim, verts, counts):
    """Degree-2 (nodes, weights, owner) over face pieces, nodes in free
    coordinates and owner the piece each node belongs to."""
    if dim == 1:
        return np.zeros((len(counts), 0)), np.ones(len(counts)), np.arange(len(counts))
    if dim == 2:
        x, w = geo.gauss_rule(4)
        a = verts[:, 0]
        h = verts[:, 1] - a
        return ((a + h * x).reshape(-1, 1), (h * w).reshape(-1),
                np.arange(len(counts)).repeat(len(x)))
    return geo.fan_quadrature2(verts, counts)


def _halves(dim, verts, counts, g, rhs):
    """Halves of the pieces that their own line {g . w = rhs[p]} crosses.

    Returns (split, verts, counts, owner): split marks the crossed pieces;
    the halves come as all below halves, then all above halves, each in
    piece order, and owner names the piece of each half.
    """
    if dim == 2:
        a, b = verts[:, 0, 0], verts[:, 1, 0]
        root = rhs / g[0]
        split = (a + 1e-13 < root) & (root < b - 1e-13)
        a, b, root = a[split], b[split], root[split]
        halves = np.stack([np.concatenate([a, root]), np.concatenate([root, b])], axis=1)
        h_verts, h_counts = halves[:, :, None], np.full(len(halves), 2)
    else:
        live = np.arange(verts.shape[1]) < counts[:, None]
        vals = verts @ g - rhs[:, None]
        split = ((np.where(live, vals, np.inf).min(axis=1) < -1e-13)
                 & (np.where(live, vals, -np.inf).max(axis=1) > 1e-13))
        v, n, r = verts[split], counts[split], rhs[split]
        h_verts, h_counts = geo.clip_polygons(
            np.concatenate([v, v]), np.concatenate([n, n]),
            np.repeat([g, -g], len(n), axis=0), np.concatenate([r + 1e-14, -(r - 1e-14)]))
    owner = np.flatnonzero(split)
    return split, h_verts, h_counts, np.concatenate([owner, owner])


def _lift(free_w, axis, fixed, dim):
    """Insert the fixed coordinate to map face coordinates into R^dim."""
    out = np.empty((len(free_w), dim))
    free_axes = [k for k in range(dim) if k != axis]
    out[:, axis] = fixed
    for i, k in enumerate(free_axes):
        out[:, k] = free_w[:, i]
    return out


def _facet_from_face(dim, axis, fixed, free_bounds, cut_families, normal_phys,
                     jump_centroid, jump_grad_free, rotation, plane_offset,
                     keep_all=False):
    """Exact facet quadrature for a face whose jump is affine per piece.

    cut_families lists the (g, cs) families of jump lines crossing the face
    in free coordinates; jump_centroid maps reference points (m, dim) to
    jumps (m, codim); jump_grad_free is the (codim, dim-1) in-face jump
    gradient, constant over the face. The face is cut into pieces family by
    family, each family in one batch of clips, and one batched quadrature
    covers every piece: its weights give each piece's measure and centroid,
    and jump_centroid is called once per face, on all piece centroids. Every
    node jump follows from its piece's centroid jump and jump_grad_free. The
    pieces on which the normal jump changes sign are split along their zero
    lines in one more batch, so one-sign densities integrate exactly; only
    those halves get a quadrature of their own, again in one call. A field
    whose codim differs from dim has no normal jump, so its pieces are not
    split. keep_all retains faces whose jump vanishes (their quadrature
    geometry is still wanted when another field jumps across the same face).
    """
    verts, counts = _face_pieces(dim, free_bounds, cut_families)
    nodes, wts, owner = _piece_rule(dim, verts, counts)
    measure = np.bincount(owner, wts, minlength=len(counts))
    kept = measure > geo.MEASURE_EPS
    if not kept.all():
        if not kept.any():
            return None
        on = kept[owner]
        verts, counts, measure = verts[kept], counts[kept], measure[kept]
        nodes, wts, owner = nodes[on], wts[on], (np.cumsum(kept) - 1)[owner[on]]
    sums = np.array([np.bincount(owner, wts * x, minlength=len(counts)) for x in nodes.T])
    w_c = sums.T.reshape(len(counts), dim - 1) / measure[:, None]
    j_c = jump_centroid(_lift(w_c, axis, fixed, dim))

    total_area = float(measure.sum())
    normal_jump = dim > 1 and jump_grad_free.shape[0] == dim
    s_grad = jump_grad_free.T @ normal_phys if normal_jump else np.zeros(0)
    if float(s_grad @ s_grad) > 1e-26:  # |s_grad| > 1e-13
        # The normal jump normal . j_c + s_grad . (w - w_c) vanishes on the
        # line s_grad . w = rhs.
        rhs = w_c @ s_grad - j_c @ normal_phys
        split, h_verts, h_counts, h_owner = _halves(dim, verts, counts, s_grad, rhs)
        if split.any():
            h_nodes, h_wts, h_idx = _piece_rule(dim, h_verts, h_counts)
            h_measure = np.bincount(h_idx, h_wts, minlength=len(h_counts))
            on = h_measure[h_idx] > geo.MEASURE_EPS
            total_area = (float(measure[~split].sum())
                          + float(h_measure[h_measure > geo.MEASURE_EPS].sum()))
            # Back into piece order, each piece's below half before its above.
            whole = ~split[owner]
            owner = np.concatenate([owner[whole], h_owner[h_idx[on]]])
            order = np.argsort(owner, kind="stable")
            owner = owner[order]
            nodes = np.concatenate([nodes[whole], h_nodes[on]])[order]
            wts = np.concatenate([wts[whole], h_wts[on]])[order]
    if not len(wts):
        return None
    jumps = j_c[owner] + (nodes - w_c[owner]) @ jump_grad_free.T
    pts = _lift(nodes, axis, fixed, dim)
    if rotation is not None:
        pts = pts @ rotation.T
    spread = float(np.max(np.abs(jumps - jumps[0])))
    const = _readonly(jumps[0]) if spread <= 1e-13 else None
    if (not keep_all and const is not None
            and float(np.max(np.abs(const))) <= JUMP_TOL):
        return None
    return Facet(normal=_readonly(normal_phys), area=total_area,
                 quad_points=_readonly(pts), quad_weights=_readonly(wts),
                 quad_jumps=_readonly(jumps), constant_jump=const,
                 plane_axis=axis, plane_offset=plane_offset)


def grid_face_facet(u, face, keep_all=False):
    """Facet of a grid field across one interior mesh face, or None.

    face is one entry of u.mesh.interior_faces(); the jump is the affine
    difference of the two cells' maps. Unless keep_all is set, the face is
    dropped before any quadrature when that jump is within JUMP_TOL at every
    face corner (and at the free-coordinate origin), which bounds an affine
    jump over the face.
    """
    axis, fixed, flo, fhi, free_axes, bounds = face
    R = u.mesh.rotation
    dA = u.gradients[fhi] - u.gradients[flo]
    dA_ref = dA if R is None else dA @ R
    # Jump in reference coordinates: dA_ref y + (offset difference).
    grad_free = dA_ref[:, free_axes]
    const_part = dA_ref[:, axis] * fixed + (u.offsets[fhi] - u.offsets[flo])
    if not keep_all:
        corners = np.array(list(product(*bounds)), dtype=float)
        corner_vals = const_part + corners @ grad_free.T
        if max(float(np.max(np.abs(const_part))),
               float(np.max(np.abs(corner_vals)))) <= JUMP_TOL:
            return None

    def jump_centroid(pts_ref):
        return const_part[None, :] + pts_ref[:, free_axes] @ grad_free.T

    return _facet_from_face(u.dim, axis, fixed, bounds, [], u.mesh.face_normal(axis),
                            jump_centroid, grad_free, R, fixed, keep_all=keep_all)


def _family_facets(fam, box, rotation):
    """Constant-jump facets of one family's planes inside a box.

    All plane sections of the family come from one geo.plane_sections call;
    each facet carries one node, the mean of its section's corners.
    """
    measures, verts, counts = geo.plane_sections(box, fam.normal_ref, fam.offsets)
    live = np.arange(verts.shape[1]) < counts[:, None]
    centroids = (verts * live[..., None]).sum(axis=1) / np.maximum(counts, 1)[:, None]
    normal = fam.normal_ref
    if rotation is not None:
        normal = rotation @ normal
        centroids = centroids @ rotation.T
    normal = _readonly(normal)
    jumping = np.max(np.abs(fam.jumps), axis=1) > JUMP_TOL
    return [Facet(normal=normal, area=float(measures[k]),
                  quad_points=_readonly(centroids[k:k + 1]),
                  quad_weights=_readonly(measures[k:k + 1]),
                  quad_jumps=_readonly(fam.jumps[k:k + 1]),
                  constant_jump=_readonly(fam.jumps[k]),
                  plane_axis=None, plane_offset=float(fam.offsets[k]))
            for k in np.flatnonzero(jumping & (counts > 0))]


# ---------------------------------------------------------------------------
# Field classes.

@dataclass(frozen=True)
class GridField:
    """One affine map per mesh cell; jumps live on interior mesh faces."""

    mesh: GridMesh
    gradients: np.ndarray  # (n_cells, codim, dim)
    offsets: np.ndarray    # (n_cells, codim)

    def __post_init__(self):
        grads = _readonly(self.gradients)
        offs = _readonly(self.offsets)
        C = self.mesh.n_cells
        if grads.ndim != 3 or grads.shape[0] != C or grads.shape[2] != self.mesh.dim:
            raise DimensionMismatchError(f"gradients shape {grads.shape} does not fit mesh")
        if offs.shape != (C, grads.shape[1]):
            raise DimensionMismatchError(f"offsets shape {offs.shape} does not fit gradients")
        if not (np.all(np.isfinite(grads)) and np.all(np.isfinite(offs))):
            raise ValueError("field data must be finite")
        object.__setattr__(self, "gradients", grads)
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def affine(cls, box, gradient, offset=None, resolution=1, rotation=None):
        """Field equal to a single affine map on the whole box."""
        g = as_matrix(gradient, dim=box.dim)
        o = np.zeros(g.shape[0]) if offset is None else np.asarray(offset, dtype=float)
        mesh = GridMesh(box, resolution, rotation)
        C = mesh.n_cells
        return cls(mesh, np.broadcast_to(g, (C, *g.shape)).copy(),
                   np.broadcast_to(o, (C, o.size)).copy())

    @property
    def dim(self):
        return self.mesh.dim

    @property
    def codim(self):
        return self.gradients.shape[1]

    @property
    def domain(self):
        return self.mesh.box

    @property
    def rotation(self):
        return self.mesh.rotation

    def values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        idx = self.mesh.locate_many(self.mesh.to_reference(X))
        return np.einsum("mdn,mn->md", self.gradients[idx], X) + self.offsets[idx]

    def value(self, x):
        return self.values(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def bulk_pieces(self):
        vol = self.mesh.cell_volume
        return [(vol, self.gradients[i]) for i in range(self.mesh.n_cells)]

    def piecewise_constant(self):
        return bool(np.max(np.abs(self.gradients)) < 1e-14)

    @cached_property
    def _facets(self):
        facets = (grid_face_facet(self, face) for face in self.mesh.interior_faces())
        return tuple(f for f in facets if f is not None)

    def facets(self):
        return self._facets


@dataclass(frozen=True)
class StepFamily:
    """Parallel jump planes {y . normal_ref = offset} with one jump each."""

    normal_ref: np.ndarray   # unit, reference coordinates
    offsets: np.ndarray      # (k,), increasing
    jumps: np.ndarray        # (k, codim)

    def __post_init__(self):
        nu = as_unit_vector(self.normal_ref)
        offs = _readonly(self.offsets)
        jumps = _readonly(np.atleast_2d(self.jumps))
        if offs.ndim != 1 or jumps.shape[0] != offs.size:
            raise DimensionMismatchError("offsets and jumps must align")
        if offs.size > 1 and np.any(np.diff(offs) <= 0):
            raise ValueError("family offsets must be strictly increasing")
        object.__setattr__(self, "normal_ref", _readonly(nu))
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "jumps", jumps)


@dataclass(frozen=True)
class Clamp:
    """Boundary layer on which the field equals an exact affine datum."""

    outer_gradient: np.ndarray  # (codim, dim)
    margin: float


@dataclass(frozen=True)
class StepField:
    """Affine base plus full-plane jump families, optionally clamped.

    With a clamp, the field equals outer_gradient . x on the layer of the
    given margin along the boundary and the base-plus-steps form inside;
    the interface facets carry the resulting piecewise-affine jumps. A
    rotation confines itself to piecewise-constant fields (zero base
    gradient), which is all the rotated-cube cell problems need.
    """

    domain: Box
    base_gradient: np.ndarray
    base_offset: np.ndarray
    families: tuple
    clamp: Clamp = None
    rotation: np.ndarray = None

    def __post_init__(self):
        B = _readonly(as_matrix(self.base_gradient, dim=self.domain.dim))
        o = _readonly(np.asarray(self.base_offset, dtype=float).reshape(-1))
        if o.size != B.shape[0]:
            raise DimensionMismatchError("base offset length must match codim")
        fams = tuple(self.families)
        for fam in fams:
            if fam.normal_ref.size != self.domain.dim:
                raise DimensionMismatchError("family normal dimension mismatch")
            if fam.jumps.shape[1] != B.shape[0]:
                raise DimensionMismatchError("family jump codim mismatch")
        if self.rotation is not None:
            R = _readonly(np.asarray(self.rotation, dtype=float))
            if np.max(np.abs(R.T @ R - np.eye(self.domain.dim))) > 1e-12:
                raise NonUnitNormalError("rotation must be orthogonal within 1e-12")
            if float(np.max(np.abs(B))) > 0.0 or self.clamp is not None:
                raise DimensionMismatchError(
                    "rotated step fields must be piecewise constant and unclamped")
            if np.max(np.abs(self.domain.center)) > 1e-12:
                raise DomainError("rotated step fields need an origin-centered box")
            object.__setattr__(self, "rotation", R)
        if self.clamp is not None:
            outer = _readonly(as_matrix(self.clamp.outer_gradient, dim=self.domain.dim))
            object.__setattr__(self, "clamp", Clamp(outer, float(self.clamp.margin)))
        object.__setattr__(self, "base_gradient", B)
        object.__setattr__(self, "base_offset", o)
        object.__setattr__(self, "families", fams)

    @property
    def dim(self):
        return self.domain.dim

    @property
    def codim(self):
        return self.base_gradient.shape[0]

    @property
    def inner_box(self):
        return self.domain if self.clamp is None else self.domain.shrink(self.clamp.margin)

    def to_reference(self, X):
        return X if self.rotation is None else X @ self.rotation

    def _steps(self, Y, face_limit=None):
        """Sum of step contributions at reference points.

        face_limit, when given, is the inward direction used to resolve
        points lying exactly on a jump plane by taking the limit from that
        side; quadrature on clamp faces needs it because whole jump planes
        can coincide with the face. A point gets the sum of the jumps of the
        planes at or below it, read from prefix sums at the count of
        offsets below it (the offsets increase); planes within
        COINCIDENCE_TOL of a point count as below it when the limit is
        taken from above, and as above it otherwise (a plane at that
        distance exactly is placed by rounding).
        """
        total = np.zeros((len(Y), self.codim))
        for fam in self.families:
            t = Y @ fam.normal_ref
            if face_limit is None:
                below = np.searchsorted(fam.offsets, t, side="right")
            elif float(face_limit @ fam.normal_ref) > 0.0:
                below = np.searchsorted(fam.offsets, t + COINCIDENCE_TOL, side="left")
            else:
                below = np.searchsorted(fam.offsets, t - COINCIDENCE_TOL, side="right")
            prefix = np.concatenate([np.zeros((1, self.codim)),
                                     np.cumsum(fam.jumps, axis=0)])
            total += prefix[below]
        return total

    def _inner_values(self, X, face_limit=None):
        Y = self.to_reference(np.atleast_2d(np.asarray(X, dtype=float)))
        base = np.atleast_2d(np.asarray(X, dtype=float)) @ self.base_gradient.T + self.base_offset
        return base + self._steps(Y, face_limit)

    def values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        vals = self._inner_values(X)
        if self.clamp is not None:
            inner = self.inner_box
            lo = np.array(inner.lo)
            hi = np.array(inner.hi)
            inside = np.all((X >= lo) & (X <= hi), axis=1)
            outer_vals = X @ self.clamp.outer_gradient.T
            vals = np.where(inside[:, None], vals, outer_vals)
        return vals

    def value(self, x):
        return self.values(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def bulk_pieces(self):
        if self.clamp is None:
            return [(self.domain.volume, self.base_gradient)]
        v_in = self.inner_box.volume
        return [(v_in, self.base_gradient),
                (self.domain.volume - v_in, self.clamp.outer_gradient)]

    def piecewise_constant(self):
        no_base = float(np.max(np.abs(self.base_gradient))) < 1e-14
        no_outer = self.clamp is None or float(np.max(np.abs(self.clamp.outer_gradient))) < 1e-14
        return no_base and no_outer

    def with_domain(self, box):
        """Same analytic field restricted to another axis-aligned box."""
        if self.clamp is not None or self.rotation is not None:
            raise DomainError("restriction supports plain unrotated step fields only")
        return StepField(box, self.base_gradient, self.base_offset, self.families)

    @cached_property
    def _facets(self):
        out = []
        for fam in self.families:
            out.extend(_family_facets(fam, self.inner_box, self.rotation))
        if self.clamp is not None:
            out.extend(self._clamp_facets())
        return tuple(out)

    def facets(self):
        return self._facets

    def _clamp_facets(self):
        """Interface facets between the clamp layer and the staircase core."""
        inner = self.inner_box
        dim = self.dim
        grad_gap = self.clamp.outer_gradient - self.base_gradient  # (codim, dim)
        out = []
        for axis in range(dim):
            free_axes = [k for k in range(dim) if k != axis]
            bounds = [(inner.lo[k], inner.hi[k]) for k in free_axes]
            for side, fixed in ((-1.0, inner.lo[axis]), (1.0, inner.hi[axis])):
                # Outward normal of the inner box; + side of the facet is the
                # clamp layer, so jump = outer datum - inner trace.
                normal = side * np.eye(dim)[axis]
                inward = -normal
                # Planes parallel to the face do not cut it.
                cuts = [(fam.normal_ref[free_axes],
                         fam.offsets - fam.normal_ref[axis] * fixed)
                        for fam in (self.families if free_axes else ())
                        if float(np.max(np.abs(fam.normal_ref[free_axes]))) >= 1e-13]

                def jump_centroid(pts_ref, _in=inward):
                    tr = self._inner_values(pts_ref, face_limit=_in)
                    return pts_ref @ self.clamp.outer_gradient.T - tr

                f = _facet_from_face(dim, axis, float(fixed), bounds, cuts, normal,
                                     jump_centroid, grad_gap[:, free_axes], None,
                                     float(fixed))
                if f is not None:
                    out.append(f)
        return out


# ---------------------------------------------------------------------------
# Measurements.

def evaluate(u, x):
    """Value of the field at a physical point; raises outside the domain."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != u.dim:
        raise DimensionMismatchError(f"point dim {x.size} vs field dim {u.dim}")
    y = x if u.rotation is None else u.rotation.T @ x
    box = u.domain if isinstance(u, StepField) else u.mesh.box
    if not box.contains(y):
        raise DomainError(f"point {x.tolist()} outside the field domain")
    return u.value(x)


def average_gradient(u):
    """Volume average of the absolutely continuous gradient."""
    total = 0.0
    acc = np.zeros((u.codim, u.dim))
    for vol, grad in u.bulk_pieces():
        acc += vol * grad
        total += vol
    return acc / total


def price_rows(psi, jumps, normals):
    """psi(jump, normal) for each row of jumps (m, c) and normals (m, n).

    The one row-by-row pricing: densities without a batched form, and plain
    callables, are priced through it.
    """
    return np.array([float(psi(j, n)) for j, n in zip(jumps, normals)])


def jump_measure(u, psi):
    """Integral of psi(jump, normal) over the field's jump set.

    A density's price method (SurfaceDensity.price) is called once for all
    constant-jump facets together and once per quadrature facet; a plain
    callable psi is priced row by row.
    """
    price = getattr(psi, "price", None) or partial(price_rows, psi)
    facets = u.facets()
    const = [f for f in facets if f.constant_jump is not None]
    total = 0.0
    if const:
        areas = np.array([f.area for f in const])
        total += float(areas @ price(np.array([f.constant_jump for f in const]),
                                     np.array([f.normal for f in const])))
    for f in facets:
        if f.constant_jump is None:
            normals = np.broadcast_to(f.normal, f.quad_points.shape)
            total += float(f.quad_weights @ price(f.quad_jumps, normals))
    return total


def singular_total_variation(u):
    """Total variation carried by the jump set (Euclidean jump size)."""
    return float(sum(f.quad_weights @ np.linalg.norm(f.quad_jumps, axis=1)
                     for f in u.facets()))


def total_derivative(u):
    """(bulk part, jump part) of the distributional derivative over the domain.

    For a field whose boundary trace is the affine map A x the two parts
    sum to A times the domain volume; the identity is exact for the facet
    quadrature used here.
    """
    bulk = np.zeros((u.codim, u.dim))
    for vol, grad in u.bulk_pieces():
        bulk += vol * grad
    jump = np.zeros((u.codim, u.dim))
    for f in u.facets():
        jump += np.einsum("m,md,n->dn", f.quad_weights, f.quad_jumps, f.normal)
    return bulk, jump


def _axis_breaks(u, axis):
    breaks = set()
    if isinstance(u, GridField):
        if u.mesh.rotation is None:
            lo = u.mesh.box.lo[axis]
            h = u.mesh.cell_widths[axis]
            breaks.update(lo + j * h for j in range(1, u.mesh.resolution[axis]))
    else:
        if u.rotation is None:
            e = np.eye(u.dim)[axis]
            for fam in u.families:
                sgn = float(fam.normal_ref @ e)
                if abs(abs(sgn) - 1.0) < 1e-12:
                    breaks.update(float(c) * sgn for c in fam.offsets)
            if u.clamp is not None:
                breaks.add(u.inner_box.lo[axis])
                breaks.add(u.inner_box.hi[axis])
    return breaks


def _common_domain(u, v):
    bu = u.domain if isinstance(u, StepField) else u.mesh.box
    bv = v.domain if isinstance(v, StepField) else v.mesh.box
    if bu.lo != bv.lo or bu.hi != bv.hi:
        raise MeshMismatchError("fields live on different boxes")
    ru = u.rotation
    rv = v.rotation
    same = (ru is None and rv is None) or (
        ru is not None and rv is not None and np.max(np.abs(ru - rv)) < 1e-12)
    if not same:
        raise MeshMismatchError("fields live in different rotated domains")
    return bu


def l1_distance(u, v, order=4, refine=1):
    """Integral of |u - v| over the shared domain.

    One-dimensional scalar fields are integrated exactly by splitting at
    every breakpoint and at the sign change of the affine difference. In
    higher dimensions the integration grid refines along every axis-aligned
    breakpoint of both fields and applies a tensor Gauss rule of the given
    order per cell (exact whenever the difference is affine with a single
    sign per cell, e.g. for axis-aligned staircases); all cells' nodes go
    through one values call per field.
    """
    box = _common_domain(u, v)
    dim = box.dim
    if dim == 1 and u.codim == 1 and v.codim == 1:
        pieces = geo.subdivide_interval(box.lo[0], box.hi[0],
                                        sorted(_axis_breaks(u, 0) | _axis_breaks(v, 0)))
        total = 0.0
        for a, b in pieces:
            t1 = a + (b - a) / 3.0
            t2 = b - (b - a) / 3.0
            f1 = float(u.values([[t1]])[0, 0] - v.values([[t1]])[0, 0])
            f2 = float(u.values([[t2]])[0, 0] - v.values([[t2]])[0, 0])
            slope = (f2 - f1) / (t2 - t1)
            fa = f1 + slope * (a - t1)
            fb = f1 + slope * (b - t1)
            if fa * fb < 0.0:
                root = a - fa / slope if slope != 0.0 else a
                total += 0.5 * abs(fa) * (root - a) + 0.5 * abs(fb) * (b - root)
            else:
                total += 0.5 * (abs(fa) + abs(fb)) * (b - a)
        return total

    # The refined cells form a tensor grid, so one composite Gauss rule per
    # axis, tensored over the axes, covers all of them at once.
    x, w = geo.gauss_rule(order)
    axis_pts, axis_wts = [], []
    for axis in range(dim):
        cuts = sorted(_axis_breaks(u, axis) | _axis_breaks(v, axis))
        pieces = geo.subdivide_interval(box.lo[axis], box.hi[axis], cuts)
        knots = [box.lo[axis]]
        for a, b in pieces:
            knots.extend(a + (b - a) * k / refine for k in range(1, refine + 1))
        lo, hi = np.array(knots[:-1]), np.array(knots[1:])
        axis_pts.append((lo[:, None] + (hi - lo)[:, None] * x).reshape(-1))
        axis_wts.append(((hi - lo)[:, None] * w).reshape(-1))
    grids = np.meshgrid(*axis_pts, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wts = axis_wts[0]
    for aw in axis_wts[1:]:
        wts = np.multiply.outer(wts, aw)
    if u.rotation is not None:
        pts = pts @ u.rotation.T
    diff = u.values(pts) - v.values(pts)
    return float(wts.reshape(-1) @ np.linalg.norm(diff, axis=1))


# ---------------------------------------------------------------------------
# Constructions.

def staircase_sequence(A, B, frame, n, domain=None, clamp=True):
    """n-th staircase competitor realizing gradient B with boundary datum A x.

    The disarrangement A - B is split into rank-one parts over the frame;
    each part becomes a family of parallel jump planes spaced 1/n with jump
    amplitude/n, anchored at the lowest plane position over the domain, so
    the gradient is exactly B between planes. With clamp=True the field
    equals A x on a boundary layer of thickness 1/n (capped at a quarter of
    the narrowest side so the interior stays nonempty); the layer costs
    O(1/n) extra interface energy and shifts the mean gradient away from B
    by O(1/n), vanishing along the sequence.
    """
    A = as_matrix(A)
    B = as_matrix(B, dim=A.shape[1])
    if A.shape != B.shape:
        raise DimensionMismatchError(f"gradient shapes differ: {A.shape} vs {B.shape}")
    if frame.dim != A.shape[1]:
        raise DimensionMismatchError("frame dimension must match the gradients")
    if n < 1:
        raise ValueError("n must be a positive integer")
    domain = domain or geo.unit_cube(A.shape[1])

    clamp_obj = None
    if clamp:
        margin = min(1.0 / n, float(np.min(domain.widths)) / 4.0)
        clamp_obj = Clamp(A, margin)

    dec = decompose_by_frame(A - B, frame)
    families = []
    offset = np.zeros(A.shape[0])
    for amp, nu in dec.terms:
        if float(np.linalg.norm(amp)) < 1e-14:
            continue
        m_lo, m_hi = geo.plane_range(domain, nu)
        count = int(np.floor((m_hi - m_lo) * n - 1e-9))
        if count < 1:
            offset = offset + amp * m_lo
            continue
        offs = m_lo + np.arange(1, count + 1) / n
        jumps = np.tile(amp / n, (count, 1))
        families.append(StepFamily(nu, offs, jumps))
        offset = offset + amp * m_lo
    return StepField(domain, B, offset, tuple(families), clamp=clamp_obj)


def broken_ramp(n):
    """n-th staircase approximating the doubled ramp on (0, 1)."""
    return staircase_sequence([[2.0]], [[1.0]], Frame((), 1), n,
                              domain=geo.corner_cube(1), clamp=False)


def deck_of_cards(n):
    """n-th sliding-deck approximation on (0, 1)^3: layers shift along x1."""
    A = np.eye(3)
    A[0, 2] = 1.0
    return staircase_sequence(A, np.eye(3), identity_frame(3), n,
                              domain=geo.corner_cube(3), clamp=False)


def jump_competitor(jump, normal, splits=((1.0, 0.0),), domain=None):
    """Piecewise-constant competitor for the surface cell problem.

    splits is a sequence of (fraction, offset) pairs: each plane
    {x . normal = offset} carries fraction * jump. Fractions must sum to 1
    so the boundary trace is the two-valued datum (0 below, jump above);
    offsets must be interior to the rotated unit cube. Geometry lives in
    reference coordinates where every plane section has unit area.
    """
    lam = np.asarray(jump, dtype=float).reshape(-1)
    nu = as_unit_vector(normal)
    dim = nu.size
    fractions = np.array([s[0] for s in splits], dtype=float)
    offsets = np.array([s[1] for s in splits], dtype=float)
    if abs(float(fractions.sum()) - 1.0) > 1e-12:
        raise ValueError("split fractions must sum to 1")
    if np.any(np.abs(offsets) >= 0.5):
        raise DomainError("split offsets must lie strictly inside (-1/2, 1/2)")
    if len(set(np.round(offsets, 12))) != offsets.size:
        raise ValueError("split offsets must be distinct")
    domain = domain or geo.unit_cube(dim)
    order = np.argsort(offsets)
    R = geo.rotation_from_last_axis(nu)
    if np.max(np.abs(R - np.eye(dim))) < 1e-14:
        R = None
    fam = StepFamily(np.eye(dim)[dim - 1], offsets[order],
                     np.outer(fractions[order], lam))
    return StepField(domain, np.zeros((lam.size, dim)), np.zeros(lam.size),
                     (fam,), rotation=R)


def two_valued_datum(jump, normal):
    """Boundary datum of the surface cell problem as a callable on points."""
    lam = np.asarray(jump, dtype=float).reshape(-1)
    nu = as_unit_vector(normal)

    def datum(x):
        return lam * (float(np.asarray(x) @ nu) >= 0.0)

    return datum


# ---------------------------------------------------------------------------
# Structured deformations (macroscopic pair) and their reports.

@dataclass(frozen=True)
class StructuredDeformation:
    """Pair of a piecewise-affine macroscopic field and a cellwise tensor.

    g is the geometry (a GridField); G assigns to every mesh cell the part
    of the gradient done without disarrangements. The difference of the
    cell gradient of g and G is the cellwise disarrangement tensor.
    """

    g: GridField
    G: np.ndarray  # (n_cells, codim, dim)

    def __post_init__(self):
        G = _readonly(self.G)
        if G.shape != self.g.gradients.shape:
            raise DimensionMismatchError(
                f"G shape {G.shape} must match the field's gradients {self.g.gradients.shape}")
        object.__setattr__(self, "G", G)

    @property
    def dim(self):
        return self.g.dim

    @property
    def codim(self):
        return self.g.codim

    def disarrangements(self):
        return self.g.gradients - self.G


def broken_ramp_deformation():
    """Doubled ramp on (0, 1) with half the stretch done by slips."""
    g = GridField.affine(geo.corner_cube(1), [[2.0]])
    return StructuredDeformation(g, np.ones((1, 1, 1)))


def deck_of_cards_deformation():
    """Sheared cube on (0, 1)^3 whose shear is carried entirely by slips."""
    A = np.eye(3)
    A[0, 2] = 1.0
    g = GridField.affine(geo.corner_cube(3), A)
    return StructuredDeformation(g, np.eye(3).reshape(1, 3, 3))


def random_structured_deformation(seed, dim=2, resolution=4, scale=1.0,
                                  continuous=True):
    """Seeded piecewise-affine pair with a continuous macroscopic field.

    Continuity across a face orthogonal to axis k forces the gradient gap
    to be rank one of the form m (x) e_k; the generator accumulates such
    rank-one increments per axis layer and chains the offsets accordingly.
    G is drawn independently per cell.
    """
    rng = np.random.default_rng(seed)
    box = geo.corner_cube(dim)
    mesh = GridMesh(box, resolution)
    res = mesh.resolution
    A0 = scale * rng.normal(size=(dim, dim))
    o0 = scale * rng.normal(size=dim)
    layer_vecs = {(k, j): scale * rng.normal(size=dim)
                  for k in range(dim) for j in range(1, res[k])}
    grads = np.zeros((mesh.n_cells, dim, dim))
    offs = np.zeros((mesh.n_cells, dim))
    eye = np.eye(dim)
    for multi in mesh.multi_indices():
        A = A0.copy()
        o = o0.copy()
        for k in range(dim):
            for j in range(1, multi[k] + 1):
                t = box.lo[k] + j * mesh.cell_widths[k]
                m = layer_vecs[(k, j)]
                A += np.outer(m, eye[k])
                o -= m * t
        if not continuous:
            o += 0.1 * scale * rng.normal(size=dim)
        i = mesh.flat_index(multi)
        grads[i] = A
        offs[i] = o
    g = GridField(mesh, grads, offs)
    G = scale * rng.normal(size=(mesh.n_cells, dim, dim))
    return StructuredDeformation(g, G)


@dataclass(frozen=True)
class AccommodationReport:
    """Cellwise check of the determinant accommodation inequality."""

    threshold: float
    det_G: np.ndarray
    det_grad: np.ndarray
    offenders: tuple

    @property
    def passed(self):
        return len(self.offenders) == 0


def validate_accommodation(sd, threshold):
    """Check threshold < det G <= det grad(g) cell by cell."""
    if sd.codim != sd.dim:
        raise DimensionMismatchError("accommodation needs a square gradient")
    det_G = np.linalg.det(sd.G)
    det_grad = np.linalg.det(sd.g.gradients)
    offenders = tuple(int(i) for i in range(det_G.size)
                      if not (threshold < det_G[i] <= det_grad[i] + 1e-12))
    return AccommodationReport(float(threshold), _readonly(det_G),
                               _readonly(det_grad), offenders)


@dataclass(frozen=True)
class SequenceReport:
    """Diagnostics of one staircase approximation step."""

    n: int
    l1_error: float
    avg_gradient_gap: float
    singular_tv: float
    energy: float


def sequence_report(sd, frame, n_values, ds):
    """Staircase approximation diagnostics for a piecewise-affine pair.

    Builds, for every n, one unclamped staircase per mesh cell (gradient G
    with boundary datum grad(g) x) and aggregates the distance to g, the
    worst cellwise mean-gradient gap, the singular total variation, and the
    energy under the given densities.
    """
    from .energy import energy as _energy
    mesh = sd.g.mesh
    if mesh.rotation is not None:
        raise MeshMismatchError("sequence reports need an unrotated mesh")
    reports = []
    for n in n_values:
        l1 = tv = en = 0.0
        gap = 0.0
        for multi in mesh.multi_indices():
            i = mesh.flat_index(multi)
            cell_box = mesh.cell_box(multi)
            A = sd.g.gradients[i]
            u_n = staircase_sequence(A, sd.G[i], frame, n, domain=cell_box, clamp=False)
            target = GridField.affine(cell_box, A, sd.g.offsets[i])
            l1 += l1_distance(u_n, target)
            gap = max(gap, float(np.linalg.norm(average_gradient(u_n) - sd.G[i])))
            tv += singular_total_variation(u_n)
            en += _energy(u_n, ds)
        reports.append(SequenceReport(int(n), l1, gap, tv, en))
    return reports


# ---------------------------------------------------------------------------
# Serialization.

SCHEMA_NAME = "sdrelax-field"
SCHEMA_VERSION = 1


def field_to_dict(u):
    """JSON-ready description of a field, including derived facet summaries.

    The facet list is informational (reconstructed on load, not parsed):
    plane normal and offset, area-mean jump, area, and the vertex polygon
    when one is cheaply available (null otherwise).
    """
    facets = [{
        "normal": f.normal.tolist(),
        "offset_c": f.plane_offset,
        "polygon": None,
        "jump": (f.quad_weights @ f.quad_jumps / f.area).tolist(),
        "area": f.area,
    } for f in u.facets()]
    if isinstance(u, GridField):
        return {
            "format": SCHEMA_NAME, "version": SCHEMA_VERSION, "kind": "grid",
            "dim": u.dim, "codim": u.codim,
            "domain": {"lo": list(u.mesh.box.lo), "hi": list(u.mesh.box.hi)},
            "resolution": list(u.mesh.resolution),
            "rotation": None if u.mesh.rotation is None else u.mesh.rotation.tolist(),
            "cells": [{"gradient": u.gradients[i].tolist(),
                       "offset": u.offsets[i].tolist()}
                      for i in range(u.mesh.n_cells)],
            "facets": facets,
        }
    if isinstance(u, StepField):
        return {
            "format": SCHEMA_NAME, "version": SCHEMA_VERSION, "kind": "step",
            "dim": u.dim, "codim": u.codim,
            "domain": {"lo": list(u.domain.lo), "hi": list(u.domain.hi)},
            "rotation": None if u.rotation is None else u.rotation.tolist(),
            "base_gradient": u.base_gradient.tolist(),
            "base_offset": u.base_offset.tolist(),
            "families": [{"normal_ref": fam.normal_ref.tolist(),
                          "offsets": fam.offsets.tolist(),
                          "jumps": fam.jumps.tolist()} for fam in u.families],
            "clamp": None if u.clamp is None else {
                "outer_gradient": u.clamp.outer_gradient.tolist(),
                "margin": u.clamp.margin},
            "facets": facets,
        }
    raise TypeError(f"cannot serialize {type(u).__name__}")


def field_from_dict(data):
    if data.get("format") != SCHEMA_NAME:
        raise ValueError("not a serialized field")
    if data.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported field version {data.get('version')!r}")
    box = Box(tuple(data["domain"]["lo"]), tuple(data["domain"]["hi"]))
    rot = None if data.get("rotation") is None else np.array(data["rotation"])
    if data["kind"] == "grid":
        mesh = GridMesh(box, tuple(data["resolution"]), rot)
        grads = np.array([c["gradient"] for c in data["cells"]], dtype=float)
        offs = np.array([c["offset"] for c in data["cells"]], dtype=float)
        return GridField(mesh, grads, offs)
    if data["kind"] == "step":
        fams = tuple(StepFamily(np.array(f["normal_ref"]), np.array(f["offsets"]),
                                np.array(f["jumps"])) for f in data["families"])
        clamp = data.get("clamp")
        clamp_obj = None if clamp is None else Clamp(np.array(clamp["outer_gradient"]),
                                                     float(clamp["margin"]))
        return StepField(box, np.array(data["base_gradient"]),
                         np.array(data["base_offset"]), fams,
                         clamp=clamp_obj, rotation=rot)
    raise ValueError(f"unknown field kind {data['kind']!r}")


def save_field(u, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field_to_dict(u), fh, indent=1)


def load_field(path):
    with open(path, encoding="utf-8") as fh:
        return field_from_dict(json.load(fh))
