"""Piecewise fields: worked examples, staircases, measures, serialization."""

import json
import os
import warnings

import numpy as np
import pytest

from sdrelax import fields, geometry
from sdrelax.core import Frame, identity_frame
from sdrelax.energy import (
    DENSITY_KINDS,
    DensitySet,
    bulk_density,
    energy,
    interface_density,
    surface_density,
)
from sdrelax.errors import DomainError
from sdrelax.fields import (
    GridField,
    GridMesh,
    _facet_from_face,
    _piece_rule,
    average_gradient,
    broken_ramp,
    broken_ramp_deformation,
    deck_of_cards,
    deck_of_cards_deformation,
    evaluate,
    grid_face_facet,
    jump_competitor,
    jump_measure,
    l1_distance,
    load_field,
    random_structured_deformation,
    save_field,
    sequence_report,
    singular_total_variation,
    staircase_sequence,
    total_derivative,
    two_valued_datum,
    validate_accommodation,
)
from sdrelax.geometry import Box, unit_cube
from sdrelax.optdesign import (
    DesignDensityTables,
    PhaseField,
    design_energy,
    relaxed_design_energy,
)

PSI_ABS = surface_density("abs_normal_jump")
DS_ABS = DensitySet.simple(bulk_density("zero"), PSI_ABS)


def _ramp_oracle(n, x):
    # Slope-one ramp lifted by 1/n at each plane x = k/n.
    return x + np.floor(n * x) / n


def test_zero_area_face_piece_is_measured_without_dividing():
    # A collinear polygon piece has no area: the batched rule gives it no
    # nodes, and callers skip pieces at or below the measure tolerance, so
    # no centroid needs computing.
    collinear = [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.0, 0.0]]
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes, wts, owner = _piece_rule(3, np.array([collinear, square]),
                                        np.array([3, 4]))
    assert set(owner.tolist()) == {1}
    measure = float(wts.sum())
    assert measure == pytest.approx(1.0)
    assert (wts @ nodes) / measure == pytest.approx([0.5, 0.5])


# Reference: the facet construction as it was before face pieces were
# built in batches, with its one-polygon geometry copied here so that it
# shares no code with the program's batched route. It cuts a face one line
# at a time, measures every piece and part by a quadrature of its own,
# quadratures each part once more for its nodes, and evaluates the jump at
# the centroid of the piece and again at the centroid of each part. Family
# planes are sectioned one at a time.
_ORACLE_EPS = 1e-12
_ORACLE_TRI = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def _oracle_clip(verts, normal, offset):
    if len(verts) == 0:
        return verts
    out = []
    n = len(verts)
    dist = verts @ normal - offset
    for i in range(n):
        j = (i + 1) % n
        di, dj = dist[i], dist[j]
        if di <= _ORACLE_EPS:
            out.append(verts[i])
            if dj > _ORACLE_EPS and di < -_ORACLE_EPS:
                t = di / (di - dj)
                out.append(verts[i] + t * (verts[j] - verts[i]))
        elif dj < -_ORACLE_EPS:
            t = di / (di - dj)
            out.append(verts[i] + t * (verts[j] - verts[i]))
    return np.array(out) if out else np.empty((0, verts.shape[1]))


def _oracle_area2(verts):
    if len(verts) < 3:
        return 0.0
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _oracle_split(verts, g, b, tol=1e-14):
    g = np.asarray(g, dtype=float)
    return _oracle_clip(verts, g, b + tol), _oracle_clip(verts, -g, -(b - tol))


def _oracle_polygon_quadrature(verts):
    pts, wts = [], []
    for i in range(1, len(verts) - 1):
        tri = np.array([verts[0], verts[i], verts[i + 1]])
        area = _oracle_area2(tri)
        if area <= _ORACLE_EPS:
            continue
        pts.append(_ORACLE_TRI @ tri)
        wts.append(np.full(3, area / 3.0))
    if not pts:
        return np.empty((0, 2)), np.empty(0)
    return np.vstack(pts), np.concatenate(wts)


def _oracle_face_pieces(dim, free_bounds, cut_lines):
    if dim == 1:
        return [()]
    if dim == 2:
        (a, b), = free_bounds
        cuts = sorted(c / g[0] for g, c in cut_lines if abs(g[0]) > 1e-13)
        knots = [a] + [c for c in cuts if a + 1e-14 < c < b - 1e-14] + [b]
        return [(knots[i], knots[i + 1]) for i in range(len(knots) - 1)]
    (a0, b0), (a1, b1) = free_bounds
    polys = [np.array([[a0, a1], [b0, a1], [b0, b1], [a0, b1]])]
    for g, c in cut_lines:
        nxt = []
        for poly in polys:
            vals = poly @ g - c
            if vals.min() > -1e-13 or vals.max() < 1e-13:
                nxt.append(poly)
                continue
            for part in _oracle_split(poly, g, c):
                if len(part) >= 3 and _oracle_area2(part) > _ORACLE_EPS:
                    nxt.append(part)
        polys = nxt
    return polys


def _oracle_piece_quadrature(dim, piece):
    if dim == 1:
        return np.zeros((1, 0)), np.ones(1)
    if dim == 2:
        a, b = piece
        x, w = np.polynomial.legendre.leggauss(4)
        return (a + (b - a) * 0.5 * (x + 1.0)).reshape(-1, 1), (b - a) * 0.5 * w
    return _oracle_polygon_quadrature(piece)


def _oracle_piece_geometry(dim, piece):
    if dim == 1:
        return np.zeros(0), 1.0
    if dim == 2:
        a, b = piece
        return np.array([0.5 * (a + b)]), b - a
    pts, wts = _oracle_polygon_quadrature(piece)
    area = float(wts.sum())
    if area <= _ORACLE_EPS:
        return np.zeros(2), area
    return (wts @ pts) / area, area


def _oracle_lift(free_w, axis, fixed, dim):
    out = np.empty((len(free_w), dim))
    out[:, axis] = fixed
    out[:, [k for k in range(dim) if k != axis]] = free_w
    return out


def _oracle_facet_from_face(dim, axis, fixed, free_bounds, cut_families,
                            normal_phys, jump_centroid, jump_grad_free,
                            rotation, plane_offset, keep_all=False):
    cut_lines = [(g, float(c)) for g, cs in cut_families for c in cs]
    pieces = _oracle_face_pieces(dim, free_bounds, cut_lines)
    s_grad = jump_grad_free.T @ normal_phys if dim > 1 else np.zeros(0)
    all_pts, all_wts, all_jumps = [], [], []
    total_area = 0.0
    for piece in pieces:
        w_c, measure = _oracle_piece_geometry(dim, piece)
        if measure <= _ORACLE_EPS:
            continue
        j_c = jump_centroid(_oracle_lift(w_c.reshape(1, -1), axis, fixed, dim))[0]
        sub = [piece]
        if dim > 1 and float(np.linalg.norm(s_grad)) > 1e-13:
            s_c = float(normal_phys @ j_c)
            rhs = float(s_grad @ w_c) - s_c
            if dim == 2:
                a, b = piece
                root = rhs / s_grad[0]
                if a + 1e-13 < root < b - 1e-13:
                    sub = [(a, root), (root, b)]
            else:
                vals = piece @ s_grad - rhs
                if vals.min() < -1e-13 < 1e-13 < vals.max():
                    sub = [p for p in _oracle_split(piece, s_grad, rhs)
                           if len(p) >= 3 and _oracle_area2(p) > _ORACLE_EPS]
        for part in sub:
            w_part, part_measure = _oracle_piece_geometry(dim, part)
            if part_measure <= _ORACLE_EPS:
                continue
            nodes, wts = _oracle_piece_quadrature(dim, part)
            j_part = jump_centroid(_oracle_lift(w_part.reshape(1, -1), axis, fixed, dim))[0]
            jumps = j_part[None, :] + (nodes - w_part) @ jump_grad_free.T
            pts_ref = _oracle_lift(nodes, axis, fixed, dim)
            pts = pts_ref if rotation is None else pts_ref @ rotation.T
            all_pts.append(pts)
            all_wts.append(wts)
            all_jumps.append(jumps)
            total_area += part_measure
    if not all_pts:
        return None
    pts = np.vstack(all_pts)
    wts = np.concatenate(all_wts)
    jumps = np.vstack(all_jumps)
    spread = float(np.max(np.abs(jumps - jumps[0]))) if len(jumps) else 0.0
    const = jumps[0] if spread <= 1e-13 else None
    if (not keep_all and const is not None
            and float(np.max(np.abs(const))) <= fields.JUMP_TOL):
        return None
    return fields.Facet(normal=normal_phys, area=total_area, quad_points=pts,
                        quad_weights=wts, quad_jumps=jumps,
                        constant_jump=const, plane_axis=axis,
                        plane_offset=plane_offset)


def _oracle_plane_section(box, mu, c):
    lo, hi = np.array(box.lo), np.array(box.hi)
    m_lo = float(np.sum(np.minimum(mu * lo, mu * hi)))
    m_hi = float(np.sum(np.maximum(mu * lo, mu * hi)))
    if not m_lo + _ORACLE_EPS < c < m_hi - _ORACLE_EPS:
        return 0.0, None
    dim = box.dim
    if dim == 1:
        return 1.0, np.array([[c / mu[0]]])
    if dim == 2:
        t = np.array([-mu[1], mu[0]])
        p0 = c * mu
        s_lo, s_hi = -np.inf, np.inf
        for k in range(2):
            if abs(t[k]) < 1e-15:
                continue
            a = (lo[k] - p0[k]) / t[k]
            b = (hi[k] - p0[k]) / t[k]
            s_lo = max(s_lo, min(a, b))
            s_hi = min(s_hi, max(a, b))
        if s_hi - s_lo <= _ORACLE_EPS:
            return 0.0, None
        return float(s_hi - s_lo), np.array([p0 + s_lo * t, p0 + s_hi * t])
    t1, t2 = np.linalg.svd(mu.reshape(1, 3))[2][1:]  # orthonormal, orthogonal to mu
    center = 0.5 * (lo + hi)
    q0 = center + (c - float(center @ mu)) * mu
    rad = 2.0 * float(np.linalg.norm(hi - lo))
    verts = np.array([q0 - rad * t1 - rad * t2, q0 + rad * t1 - rad * t2,
                      q0 + rad * t1 + rad * t2, q0 - rad * t1 + rad * t2])
    for k in range(3):
        verts = _oracle_clip(verts, np.eye(3)[k], hi[k])
        verts = _oracle_clip(verts, -np.eye(3)[k], -lo[k])
        if len(verts) < 3:
            return 0.0, None
    cross_sum = sum(np.cross(verts[i] - verts[0], verts[i + 1] - verts[0])
                    for i in range(1, len(verts) - 1))
    area = 0.5 * float(np.linalg.norm(cross_sum))
    if area <= _ORACLE_EPS:
        return 0.0, None
    return area, verts


def _oracle_family_facets(fam, box, rotation):
    out = []
    normal_phys = fam.normal_ref if rotation is None else rotation @ fam.normal_ref
    for c, jump in zip(fam.offsets, fam.jumps):
        if float(np.max(np.abs(jump))) <= fields.JUMP_TOL:
            continue
        measure, verts = _oracle_plane_section(box, fam.normal_ref, float(c))
        if measure <= 0.0:
            continue
        centroid = verts.mean(axis=0)
        pt = centroid if rotation is None else rotation @ centroid
        out.append(fields.Facet(normal=normal_phys, area=measure,
                                quad_points=pt.reshape(1, -1),
                                quad_weights=np.array([measure]),
                                quad_jumps=jump.reshape(1, -1),
                                constant_jump=jump, plane_axis=None,
                                plane_offset=float(c)))
    return out


def _use_oracle(m):
    m.setattr(fields, "_facet_from_face", _oracle_facet_from_face)
    m.setattr(fields, "_family_facets", _oracle_family_facets)


SURFACE_DENSITIES = [surface_density(name) for name in DENSITY_KINDS["surface"]]


def _facet_summary(u):
    """Per facet (area, weight sum, integral of the jump), plus jump_measure
    under every registry surface density."""
    rows = [(f.area, float(f.quad_weights.sum()), f.quad_weights @ f.quad_jumps)
            for f in u.facets()]
    return rows, [jump_measure(u, psi) for psi in SURFACE_DENSITIES]


def _assert_matches_oracle(monkeypatch, build):
    """build() must return a fresh field: facets are cached per field."""
    got = _facet_summary(build())
    with monkeypatch.context() as m:
        _use_oracle(m)
        want = _facet_summary(build())
    assert len(got[0]) == len(want[0])
    for (area, wsum, integral), (area0, wsum0, integral0) in zip(got[0], want[0]):
        assert area == pytest.approx(area0, abs=1e-12)
        assert wsum == pytest.approx(wsum0, abs=1e-12)
        assert integral == pytest.approx(integral0, abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)
    return got


@pytest.mark.parametrize("dim,n_values", [(2, (1, 3, 4, 7)), (3, (2, 3, 5))])
def test_clamped_staircase_facets_match_the_kept_construction(monkeypatch, dim,
                                                              n_values):
    rng = np.random.default_rng(50 + dim)
    for n in n_values:
        for _ in range(2):
            A = rng.normal(size=(dim, dim))
            B = rng.normal(size=(dim, dim))
            frame = Frame(tuple(rng.uniform(0.0, np.pi, size=dim * (dim - 1) // 2)),
                          dim)
            rows, _ = _assert_matches_oracle(
                monkeypatch, lambda: staircase_sequence(A, B, frame, n))
            assert rows


def test_fine_3d_staircase_facets_match_the_kept_construction(monkeypatch):
    # The finest 3-D refinements that certified estimates use, where every
    # face is cut by dozens of lines from three families.
    rng = np.random.default_rng(60)
    for n in (8, 12):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3))
        frame = Frame(tuple(rng.uniform(0.0, np.pi, size=3)), 3)
        rows, _ = _assert_matches_oracle(
            monkeypatch, lambda: staircase_sequence(A, B, frame, n))
        assert len(rows) > 3 * n


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_identity_frame_staircase_facets_match_the_kept_construction(monkeypatch,
                                                                      dim):
    # Axis-aligned planes meet the clamp faces along their edges and lie on
    # the faces themselves, where the jump is taken from inside (face_limit).
    rng = np.random.default_rng(70 + dim)
    for n in (2, 3, 4, 8):
        A = rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim))
        rows, _ = _assert_matches_oracle(
            monkeypatch, lambda: staircase_sequence(A, B, identity_frame(dim), n))
        assert rows
    if dim == 1:
        # A vector-valued field on an interval: no normal jump to split at,
        # and the registry densities do not apply, so compare jump integrals.
        A, B = rng.normal(size=(2, 1)), rng.normal(size=(2, 1))
        u = staircase_sequence(A, B, identity_frame(1), 3)
        with monkeypatch.context() as m:
            _use_oracle(m)
            want = [f.quad_weights @ f.quad_jumps
                    for f in staircase_sequence(A, B, identity_frame(1), 3).facets()]
        got = [f.quad_weights @ f.quad_jumps for f in u.facets()]
        assert len(got) == len(want) == 4
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        bulk, jump = total_derivative(u)
        assert np.allclose(bulk + jump, A, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_family_facets_match_the_kept_construction(monkeypatch, dim):
    rng = np.random.default_rng(80 + dim)
    for n in (1, 4, 9):
        A = rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim))
        frame = Frame(tuple(rng.uniform(0.0, np.pi, size=dim * (dim - 1) // 2)), dim)
        rows, _ = _assert_matches_oracle(
            monkeypatch, lambda: staircase_sequence(A, B, frame, n, clamp=False))
        assert n == 1 or rows
    for _ in range(3):
        lam = rng.normal(size=dim)
        nu = rng.normal(size=dim)
        nu /= np.linalg.norm(nu)
        for splits in (((1.0, 0.0),), ((0.3, -0.45), (0.5, 0.05), (0.2, 0.3))):
            rows, _ = _assert_matches_oracle(
                monkeypatch, lambda: jump_competitor(lam, nu, splits=splits))
            assert len(rows) == len(splits)
    if dim == 3:
        for n in (2, 5, 17, 48):
            rows, _ = _assert_matches_oracle(monkeypatch, lambda: deck_of_cards(n))
            assert len(rows) == n - 1


def _rotated_grid_field(seed, dim, resolution):
    rng = np.random.default_rng(seed)
    R, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    mesh = GridMesh(unit_cube(dim), resolution, R)
    return GridField(mesh, rng.normal(size=(mesh.n_cells, dim, dim)),
                     rng.normal(size=(mesh.n_cells, dim)))


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_field_facets_match_the_kept_construction(monkeypatch, dim):
    for seed, continuous in ((5, True), (6, False)):
        def build():
            return random_structured_deformation(seed, dim=dim, resolution=3,
                                                 continuous=continuous).g
        rows, _ = _assert_matches_oracle(monkeypatch, build)
        assert bool(rows) != continuous  # continuous fields carry no facets
    rows, _ = _assert_matches_oracle(monkeypatch,
                                     lambda: _rotated_grid_field(7, dim, 2))
    assert rows


def test_design_energies_match_the_kept_construction(monkeypatch):
    ds = DensitySet.design(bulk_density("zero"), bulk_density("zero"),
                           PSI_ABS, surface_density("jump_magnitude"),
                           interface_density("phase_gap_normal_jump"))
    tables = DesignDensityTables(
        bulk=lambda i, Ag, Bg: abs(float(np.trace(Ag - Bg))),
        interface=lambda a, b, c, d, nu: (abs(a - b)
                                          + abs(float((c - d) @ nu))))
    rng = np.random.default_rng(57)
    cases = [random_structured_deformation(seed, dim=dim, resolution=3,
                                           continuous=continuous)
             for seed, dim, continuous in ((8, 2, True), (9, 2, False),
                                           (10, 3, False))]
    for sd in cases:
        chi = PhaseField(sd.g.mesh, rng.integers(0, 2, size=sd.g.mesh.n_cells))

        def values():
            return (design_energy(chi, sd.g, ds),
                    relaxed_design_energy(chi, sd, tables))

        got = values()
        with monkeypatch.context() as m:
            _use_oracle(m)
            want = values()
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("normal_jump_at_origin,quadratures", [(1.0, 1), (-0.25, 3)])
def test_one_quadrature_per_unsplit_face_piece(monkeypatch, normal_jump_at_origin,
                                               quadratures):
    # One unit-square piece of the face x3 = 0.5. The normal jump
    # c + w1 / 2 keeps its sign for c = 1 and changes it at w1 = 1/2 for
    # c = -1/4, where the piece splits in two halves. The batched route
    # evaluates the jump once per face and quadratures the piece once, and
    # then only the two halves of a split piece; quadratures counts the
    # polygons passed through the batched rule.
    grad_free = np.array([[0.3, -0.2], [0.1, 0.4], [0.5, 0.0]])
    const = np.array([0.2, -0.1, normal_jump_at_origin])
    jump_calls = []

    def jump_at(pts_ref):
        jump_calls.append(len(pts_ref))
        return const[None, :] + pts_ref[:, :2] @ grad_free.T

    args = (3, 2, 0.5, [(0.0, 1.0), (0.0, 1.0)], [], np.eye(3)[2], jump_at,
            grad_free, None, 0.5)
    polygons, single = [], []
    batched, one_row = geometry.fan_quadrature2, geometry.polygon_quadrature2

    def counted(verts, counts):
        polygons.append(len(counts))
        return batched(verts, counts)

    def counted_one_row(verts):
        single.append(len(verts))
        return one_row(verts)

    with monkeypatch.context() as m:
        m.setattr(geometry, "fan_quadrature2", counted)
        m.setattr(geometry, "polygon_quadrature2", counted_one_row)
        facet = _facet_from_face(*args)
    assert sum(polygons) == quadratures
    assert single == []
    assert jump_calls == [1]
    oracle = _oracle_facet_from_face(*args)
    assert facet.area == pytest.approx(oracle.area, abs=1e-15)
    assert facet.quad_weights.sum() == pytest.approx(oracle.quad_weights.sum(),
                                                     abs=1e-15)
    assert facet.quad_weights @ facet.quad_jumps == pytest.approx(
        oracle.quad_weights @ oracle.quad_jumps, abs=1e-15)
    # The halves overlap by the split tolerance, so areas hold to 1e-12.
    assert facet.area == pytest.approx(1.0, abs=1e-12)
    exact = 1.25 if normal_jump_at_origin > 0 else 0.125  # integral of |c + w1/2|
    assert facet.quad_weights @ np.abs(facet.quad_jumps[:, 2]) == pytest.approx(
        exact, abs=1e-12)


def test_one_jump_evaluation_per_clamp_face(monkeypatch):
    u = staircase_sequence(np.diag([1.0, 2.0, 0.5]), np.eye(3) * 0.3,
                           Frame((0.3, 1.1, 2.0), 3), 8)
    calls = []
    real = fields.StepField._inner_values

    def counted(self, X, face_limit=None):
        calls.append(len(X))
        return real(self, X, face_limit)

    monkeypatch.setattr(fields.StepField, "_inner_values", counted)
    facets = u.facets()
    assert len(calls) == 6  # one call per clamp face, on all its pieces
    assert max(calls) > 20
    assert sum(f.plane_axis is not None for f in facets) == 6


def test_grid_fields_keep_the_corner_quick_reject():
    # Cells whose maps differ by 1e-11 in slope: the jump is not constant
    # but stays below JUMP_TOL on the whole face.
    mesh = GridMesh(Box((0.0, 0.0), (1.0, 1.0)), (2, 1))
    grads = np.stack([np.eye(2), np.eye(2) + 1e-11 * np.outer([1.0, 0.0], [0.0, 1.0])])
    u = GridField(mesh, grads, np.zeros((2, 2)))
    face, = mesh.interior_faces()
    assert u.facets() == ()
    assert grid_face_facet(u, face, quick_reject=True) is None
    facet = grid_face_facet(u, face)
    assert facet is not None and facet.constant_jump is None
    assert facet.area == pytest.approx(1.0)


def test_grid_field_facets_when_codim_differs_from_dim():
    # No normal jump exists, so the faces are not split; the facets still
    # carry the jumps, and densities reading the jump alone integrate them.
    mesh = GridMesh(Box((0.0, 0.0), (1.0, 1.0)), (2, 1))
    scalar = GridField(mesh, np.zeros((2, 1, 2)), [[0.0], [1.0]])
    (facet,) = scalar.facets()
    assert facet.area == 1.0
    assert np.array_equal(facet.constant_jump, [1.0])
    magnitude = surface_density("jump_magnitude")
    assert jump_measure(scalar, magnitude) == pytest.approx(1.0, abs=1e-14)
    sloped = GridField(mesh, np.array([[[0.0, 0.0]], [[0.0, 1.0]]]), [[0.0], [-0.3]])
    (facet,) = sloped.facets()
    assert facet.constant_jump is None
    assert float(facet.quad_weights @ facet.quad_jumps[:, 0]) == pytest.approx(0.2, abs=1e-14)
    cube = GridMesh(unit_cube(3), (2, 1, 1))
    pair = GridField(cube, np.zeros((2, 2, 3)), [[0.0, 0.0], [1.0, 2.0]])
    assert jump_measure(pair, magnitude) == pytest.approx(np.sqrt(5.0), abs=1e-14)


def test_broken_ramp_pointwise_values():
    f2 = broken_ramp(2)
    assert evaluate(f2, [0.25]) == pytest.approx([0.25])
    rng = np.random.default_rng(31)
    for n in (1, 2, 4, 8):
        fn = broken_ramp(n)
        for x in rng.uniform(0.01, 0.99, size=20):
            assert evaluate(fn, [x])[0] == pytest.approx(_ramp_oracle(n, x),
                                                         abs=1e-12)


def test_broken_ramp_measures():
    sd = broken_ramp_deformation()
    for n in (1, 2, 4, 8, 16, 32):
        fn = broken_ramp(n)
        assert l1_distance(fn, sd.g) == pytest.approx(1.0 / (2 * n), abs=1e-10)
        assert singular_total_variation(fn) == pytest.approx((n - 1) / n,
                                                             abs=1e-12)
        assert jump_measure(fn, PSI_ABS) == pytest.approx((n - 1) / n,
                                                          abs=1e-12)
        assert average_gradient(fn) == pytest.approx(np.array([[1.0]]))
        bulk, jump = total_derivative(fn)
        assert bulk[0, 0] == pytest.approx(1.0)
        assert jump[0, 0] == pytest.approx((n - 1) / n, abs=1e-12)


def test_broken_ramp_limit_pair():
    sd = broken_ramp_deformation()
    assert np.array_equal(sd.g.gradients.reshape(1, 1), [[2.0]])
    assert np.array_equal(np.asarray(sd.G).reshape(1, 1), [[1.0]])
    assert np.array_equal(sd.disarrangements().reshape(1, 1), [[1.0]])


def test_deck_of_cards_slides_but_carries_no_normal_jump():
    e1 = np.array([1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    for n in (2, 4, 8):
        card = deck_of_cards(n)
        # Every interface is horizontal and slips sideways by 1/n.
        for facet in card.facets():
            assert np.allclose(facet.normal, e3)
            assert np.allclose(facet.constant_jump, e1 / n)
        assert singular_total_variation(card) == pytest.approx((n - 1) / n)
        assert jump_measure(card, PSI_ABS) == 0.0
        bulk, jump = total_derivative(card)
        assert np.allclose(bulk, np.eye(3))
        assert np.allclose(jump, (n - 1) / n * np.outer(e1, e3), atol=1e-12)


def test_deck_of_cards_limit_pair():
    sd = deck_of_cards_deformation()
    M = sd.disarrangements()
    expected = np.outer([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert np.allclose(np.asarray(M).reshape(3, 3), expected)
    x = np.array([0.2, 0.3, 0.4])
    assert evaluate(sd.g, x) == pytest.approx([0.6, 0.3, 0.4])


def test_staircase_gradient_is_the_inner_matrix_everywhere():
    rng = np.random.default_rng(32)
    for dim, frame in ((1, Frame((), 1)), (2, Frame((0.7,), 2)),
                       (3, Frame((0.4, 1.1, 2.0), 3))):
        A = rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim))
        u = staircase_sequence(A, B, frame, 8)
        volumes = {}
        for volume, gradient in u.bulk_pieces():
            if np.allclose(gradient, B):
                volumes["inner"] = volume
            elif np.allclose(gradient, A):
                volumes["clamp"] = volume
        assert set(volumes) == {"inner", "clamp"}
        assert volumes["inner"] + volumes["clamp"] == pytest.approx(1.0)


def test_staircase_clamp_layer_matches_boundary_datum():
    rng = np.random.default_rng(33)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    u = staircase_sequence(A, B, Frame((0.7,), 2), 8)
    for x in ([0.5, 0.31], [-0.5, -0.24], [0.11, 0.5], [0.47, -0.47]):
        x = np.asarray(x)
        assert evaluate(u, x) == pytest.approx(A @ x, abs=1e-12)


def test_staircase_total_derivative_recovers_boundary_gradient():
    # With the boundary layer in place the jumps restore exactly what the
    # bulk gradient gave up, in every dimension.
    rng = np.random.default_rng(34)
    for dim, frame in ((1, Frame((), 1)), (2, Frame((1.2,), 2)),
                       (3, Frame((0.3, 0.9, 1.7), 3))):
        A = rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim))
        u = staircase_sequence(A, B, frame, 5)
        bulk, jump = total_derivative(u)
        assert np.abs(bulk + jump - A).max() < 1e-12


def test_unclamped_staircase_underfills_by_one_layer():
    # Without the boundary layer the interior planes carry only (n-1)/n of
    # the gap, so the defect of the restoration identity is (A - B)/n.
    A = np.array([[2.0]])
    B = np.array([[1.0]])
    for n in (2, 5, 8):
        u = staircase_sequence(A, B, Frame((), 1), n, clamp=False)
        bulk, jump = total_derivative(u)
        assert (bulk + jump)[0, 0] == pytest.approx(2.0 - 1.0 / n,
                                                    abs=1e-12)


def test_staircase_mean_gradient_approaches_inner_matrix():
    rng = np.random.default_rng(35)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    gaps = []
    for n in (8, 16, 32, 64):
        u = staircase_sequence(A, B, Frame((0.7,), 2), n)
        gaps.append(np.abs(average_gradient(u) - B).max())
    for coarse, fine in zip(gaps, gaps[1:]):
        assert fine < 0.65 * coarse
    assert gaps[-1] < 0.2


def test_staircase_jump_spacing_and_amplitude():
    n = 8
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    B = np.zeros((2, 2))
    u = staircase_sequence(A, B, identity_frame(2), n, clamp=False)
    by_normal = {}
    for facet in u.facets():
        key = int(np.argmax(np.abs(facet.normal)))
        by_normal.setdefault(key, []).append(facet)
    for axis, facets in by_normal.items():
        offsets = sorted(f.plane_offset for f in facets)
        assert np.allclose(np.diff(offsets), 1.0 / n, atol=1e-12)
        for facet in facets:
            assert np.allclose(np.abs(facet.constant_jump).max(), 1.0 / n)


def test_unclamped_staircase_converges_to_affine_limit():
    rng = np.random.default_rng(36)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    limit = staircase_sequence(A, A, identity_frame(2), 1, clamp=False)
    dists = [l1_distance(staircase_sequence(A, B, identity_frame(2), n,
                                            clamp=False), limit)
             for n in (4, 8, 16)]
    for coarse, fine in zip(dists, dists[1:]):
        assert fine < 0.6 * coarse


def _per_cell_l1(u, v, order=4, refine=1):
    # Reference: l1_distance in dim >= 2 as it was, one tensor Gauss rule
    # and two values calls per refined cell.
    box = u.domain if isinstance(u, fields.StepField) else u.mesh.box
    knots = []
    for axis in range(box.dim):
        cuts = sorted(fields._axis_breaks(u, axis) | fields._axis_breaks(v, axis))
        inner = [c for c in cuts if box.lo[axis] + 1e-14 < c < box.hi[axis] - 1e-14]
        ends = [box.lo[axis]] + inner + [box.hi[axis]]
        axis_knots = [box.lo[axis]]
        for a, b in zip(ends, ends[1:]):
            axis_knots.extend(a + (b - a) * k / refine for k in range(1, refine + 1))
        knots.append(np.array(axis_knots))
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    total = 0.0
    for cell in np.ndindex(*(len(k) - 1 for k in knots)):
        lo = [knots[a][i] for a, i in enumerate(cell)]
        hi = [knots[a][i + 1] for a, i in enumerate(cell)]
        grids = np.meshgrid(*[l + (h - l) * x for l, h in zip(lo, hi)], indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
        wts = (hi[0] - lo[0]) * w
        for l, h in zip(lo[1:], hi[1:]):
            wts = np.multiply.outer(wts, (h - l) * w)
        if u.rotation is not None:
            pts = pts @ u.rotation.T
        diff = u.values(pts) - v.values(pts)
        total += float(wts.reshape(-1) @ np.linalg.norm(diff, axis=1))
    return total


def test_l1_distance_matches_the_per_cell_loop():
    rng = np.random.default_rng(38)
    pairs = [(deck_of_cards(n), deck_of_cards_deformation().g) for n in (3, 11)]
    for dim in (2, 3):
        A = rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim))
        target = GridField.affine(unit_cube(dim), A, rng.normal(size=dim), resolution=2)
        for frame in (identity_frame(dim),
                      Frame(tuple(rng.uniform(0.0, np.pi, size=dim * (dim - 1) // 2)), dim)):
            pairs.append((staircase_sequence(A, B, frame, 5), target))
            pairs.append((staircase_sequence(A, B, frame, 3, clamp=False), target))
        lam = rng.normal(size=dim)
        nu = rng.normal(size=dim)
        nu /= np.linalg.norm(nu)
        u = jump_competitor(lam, nu, splits=((0.4, -0.1), (0.6, 0.2)))
        mesh = GridMesh(unit_cube(dim), 2, u.rotation)
        pairs.append((u, GridField(mesh, rng.normal(size=(mesh.n_cells, dim, dim)),
                                   rng.normal(size=(mesh.n_cells, dim)))))
    pairs.append((random_structured_deformation(40, dim=2, resolution=3).g,
                  random_structured_deformation(41, dim=2, resolution=2,
                                                continuous=False).g))
    for u, v in pairs:
        for order, refine in ((4, 1), (3, 2)):
            assert l1_distance(u, v, order, refine) == pytest.approx(
                _per_cell_l1(u, v, order, refine), abs=1e-12)


def _indicator_steps(u, Y, face_limit=None):
    # Kept construction: a (points x planes) indicator per family.
    total = np.zeros((len(Y), u.codim))
    for fam in u.families:
        t = Y @ fam.normal_ref
        H = t[:, None] >= fam.offsets[None, :]
        if face_limit is not None:
            on = np.abs(t[:, None] - fam.offsets[None, :]) < fields.COINCIDENCE_TOL
            if np.any(on):
                side = float(face_limit @ fam.normal_ref) > 0.0
                H = H.copy()
                H[on] = side
        total += H.astype(float) @ fam.jumps
    return total


def test_steps_match_the_indicator_construction():
    rng = np.random.default_rng(39)
    tol = fields.COINCIDENCE_TOL
    crowded = fields.StepField(
        unit_cube(2), np.zeros((2, 2)), np.zeros(2),
        (fields.StepFamily(np.array([0.6, 0.8]),
                           np.array([0.1, 0.5, 0.5 + 0.4 * tol, 0.5 + 0.8 * tol, 0.9]),
                           rng.normal(size=(5, 2))),
         fields.StepFamily(np.array([1.0, 0.0]), np.array([0.25]), np.ones((1, 2)))))
    cases = [crowded, deck_of_cards(7), broken_ramp(5)]
    for dim in (2, 3):
        A = rng.normal(size=(dim, dim))
        B = rng.normal(size=(dim, dim))
        frame = Frame(tuple(rng.uniform(0.0, np.pi, size=dim * (dim - 1) // 2)), dim)
        cases.append(staircase_sequence(A, B, frame, 6))
        cases.append(staircase_sequence(A, B, identity_frame(dim), 4, clamp=False))
    for u in cases:
        Y = rng.uniform(-0.2, 1.2, size=(200, u.dim))
        on_planes = []
        for fam in u.families:
            # The band's edge |t - o| = tol itself is decided by rounding.
            for shift in (0.0, 1e-16, 0.5 * tol, -0.5 * tol, 1.5 * tol, -2 * tol):
                o = rng.choice(fam.offsets, size=20)
                Z = rng.uniform(0.0, 1.0, size=(20, u.dim))
                on_planes.append(Z + (o + shift - Z @ fam.normal_ref)[:, None]
                                 * fam.normal_ref)
        Y = np.concatenate([Y] + on_planes)
        limits = [None] + [s * e for e in np.eye(u.dim) for s in (1.0, -1.0)]
        for limit in limits:
            np.testing.assert_allclose(u._steps(Y, limit), _indicator_steps(u, Y, limit),
                                       rtol=0.0, atol=1e-12)


def test_energy_is_additive_over_domain_splits():
    rng = np.random.default_rng(37)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    u = staircase_sequence(A, B, identity_frame(2), 6, clamp=False)
    ds = DensitySet.simple(bulk_density("frobenius_power"), PSI_ABS)
    whole = energy(u, ds)
    left = energy(u.with_domain(Box((-0.5, -0.5), (0.1, 0.5))), ds)
    right = energy(u.with_domain(Box((0.1, -0.5), (0.5, 0.5))), ds)
    assert whole == pytest.approx(left + right, abs=1e-12)


def test_restriction_refuses_clamped_fields():
    u = staircase_sequence(np.eye(2), np.zeros((2, 2)), identity_frame(2), 4)
    with pytest.raises(DomainError):
        u.with_domain(Box((-0.5, -0.5), (0.0, 0.5)))


def test_jump_competitor_measures_and_splits():
    lam = np.array([0.3, -0.2])
    nu = np.array([0.0, 1.0])
    single = jump_competitor(lam, nu)
    assert singular_total_variation(single) == pytest.approx(
        np.linalg.norm(lam))
    double = jump_competitor(lam, nu, splits=((0.5, -0.2), (0.5, 0.2)))
    assert singular_total_variation(double) == pytest.approx(
        np.linalg.norm(lam))
    bulk, jump = total_derivative(double)
    assert np.abs(bulk).max() == 0.0
    assert np.allclose(jump, np.outer(lam, nu))


def test_jump_competitor_matches_two_valued_datum():
    rng = np.random.default_rng(38)
    for _ in range(10):
        lam = rng.normal(size=2)
        nu = rng.normal(size=2)
        nu /= np.linalg.norm(nu)
        u = jump_competitor(lam, nu, splits=((0.25, -0.1), (0.75, 0.3)))
        datum = two_valued_datum(lam, nu)
        for _ in range(10):
            # Sample in the rotated cube, clear of the interior planes.
            y = rng.uniform(-0.49, 0.49, size=2)
            if abs(y[-1]) < 0.35:
                continue
            x = u.rotation @ y if u.rotation is not None else y
            assert evaluate(u, x) == pytest.approx(datum(x), abs=1e-12)


def test_jump_competitor_validates_splits():
    lam = np.array([1.0, 0.0])
    nu = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        jump_competitor(lam, nu, splits=((0.5, 0.0),))
    with pytest.raises(DomainError):
        jump_competitor(lam, nu, splits=((0.6, -0.7), (0.4, 0.0)))


def test_sequence_report_broken_ramp():
    sd = broken_ramp_deformation()
    rows = sequence_report(sd, Frame((), 1), (1, 2, 4, 8), DS_ABS)
    for row in rows:
        assert row.l1_error == pytest.approx(1.0 / (2 * row.n), abs=1e-10)
        assert row.singular_tv == pytest.approx((row.n - 1) / row.n,
                                                abs=1e-12)
        assert row.energy == pytest.approx((row.n - 1) / row.n, abs=1e-12)
        assert row.avg_gradient_gap < 1e-12


def test_sequence_report_deck_of_cards_is_energy_free():
    sd = deck_of_cards_deformation()
    rows = sequence_report(sd, identity_frame(3), (1, 2, 4), DS_ABS)
    for row in rows:
        assert row.energy == 0.0
        assert row.singular_tv == pytest.approx((row.n - 1) / row.n,
                                                abs=1e-12)


def test_validate_accommodation_on_the_card_deck():
    sd = deck_of_cards_deformation()
    # det G = det grad g = 1, so any threshold below 1 accommodates.
    assert validate_accommodation(sd, 0.5).passed
    assert validate_accommodation(sd, 0.99).passed
    report = validate_accommodation(sd, 1.0)
    assert not report.passed
    assert len(report.offenders) > 0


def test_validate_accommodation_flags_excess_submacroscopic_volume():
    sd = random_structured_deformation(3, dim=2, resolution=4)
    report = validate_accommodation(sd, threshold=-100.0)
    # Independently drawn G violates det G <= det grad g in some cells.
    recomputed = sum(1 for dg, dG in zip(report.det_grad, report.det_G)
                     if not (-100.0 < dG <= dg))
    assert len(report.offenders) == recomputed > 0
    assert not report.passed


def test_random_structured_deformation_is_continuous_and_seeded():
    sd = random_structured_deformation(7, dim=2, resolution=3)
    again = random_structured_deformation(7, dim=2, resolution=3)
    rng = np.random.default_rng(39)
    for _ in range(20):
        x = rng.uniform(0.02, 0.98, size=2)
        assert evaluate(sd.g, x) == pytest.approx(evaluate(again.g, x))
    # Continuity probe across interior mesh faces.
    for t in np.linspace(0.05, 0.95, 7):
        below = evaluate(sd.g, [1.0 / 3.0 - 1e-9, t])
        above = evaluate(sd.g, [1.0 / 3.0 + 1e-9, t])
        assert np.abs(below - above).max() < 1e-6


def test_field_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(40)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    u = staircase_sequence(A, B, Frame((0.7,), 2), 8)
    path = os.path.join(tmp_path, "stairs.json")
    save_field(u, path)
    with open(path) as fh:
        raw = json.load(fh)
    assert raw["format"] == "sdrelax-field"
    assert raw["version"] == 1
    assert raw["kind"] == "step"
    v = load_field(path)
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=2)
        assert evaluate(v, x) == pytest.approx(evaluate(u, x), abs=1e-12)
    assert singular_total_variation(v) == pytest.approx(
        singular_total_variation(u), abs=1e-12)
    bulk_u, jump_u = total_derivative(u)
    bulk_v, jump_v = total_derivative(v)
    assert np.allclose(bulk_u, bulk_v, atol=1e-12)
    assert np.allclose(jump_u, jump_v, atol=1e-12)


def test_grid_field_serialization_roundtrip(tmp_path):
    sd = random_structured_deformation(11, dim=2, resolution=3)
    path = os.path.join(tmp_path, "grid.json")
    save_field(sd.g, path)
    v = load_field(path)
    rng = np.random.default_rng(41)
    for _ in range(30):
        x = rng.uniform(0.01, 0.99, size=2)
        assert evaluate(v, x) == pytest.approx(evaluate(sd.g, x), abs=1e-12)


def test_load_field_rejects_unknown_payloads(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        json.dump({"format": "something-else", "version": 1}, fh)
    with pytest.raises(Exception):
        load_field(path)
