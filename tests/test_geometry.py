"""Boxes, plane sections, polygon clipping, and quadrature rules."""

import numpy as np
import pytest

from sdrelax.errors import DimensionMismatchError, DomainError
from sdrelax.geometry import (
    Box,
    clip_polygon_halfspace,
    clip_polygons,
    corner_cube,
    fan_quadrature2,
    interval_quadrature,
    orthonormal_tangents,
    planar_polygon_area,
    plane_range,
    plane_section,
    plane_sections,
    polygon_area2,
    polygon_areas2,
    polygon_quadrature2,
    rotation_from_last_axis,
    split_polygon_by_line,
    subdivide_interval,
    tensor_gauss,
    unit_cube,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _sliced_volume(box, mu, n_slices=4000):
    # Cavalieri oracle: integrating the section measure over the offset
    # range must recover the box volume, whatever the normal direction.
    m_lo, m_hi = plane_range(box, mu)
    cs = m_lo + (np.arange(n_slices) + 0.5) * (m_hi - m_lo) / n_slices
    measures, _, _ = plane_sections(box, mu, cs)
    return float(measures.sum()) * (m_hi - m_lo) / n_slices


def test_box_basic_properties():
    b = Box((0.0, -1.0), (2.0, 1.0))
    assert b.dim == 2
    assert b.volume == pytest.approx(4.0)
    assert np.array_equal(b.center, [1.0, 0.0])
    assert b.contains([0.5, 0.0])
    assert not b.contains([2.5, 0.0])


def test_box_rejects_empty_and_mismatched():
    with pytest.raises(DomainError):
        Box((0.0,), (0.0,))
    with pytest.raises(DimensionMismatchError):
        Box((0.0, 0.0), (1.0,))


def test_box_shrink_and_split():
    b = corner_cube(2)
    s = b.shrink(0.25)
    assert s.lo == (0.25, 0.25) and s.hi == (0.75, 0.75)
    with pytest.raises(DomainError):
        b.shrink(0.5)
    left, right = b.split(0, 0.3)
    assert left.volume + right.volume == pytest.approx(b.volume)
    assert left.hi[0] == right.lo[0] == 0.3


def test_plane_range_diagonal():
    lo, hi = plane_range(unit_cube(3), np.ones(3) / np.sqrt(3.0))
    assert lo == pytest.approx(-np.sqrt(3.0) / 2.0)
    assert hi == pytest.approx(np.sqrt(3.0) / 2.0)


def test_plane_section_axis_aligned_measures():
    measure, verts = plane_section(unit_cube(3), np.array([0.0, 0.0, 1.0]), 0.0)
    assert measure == pytest.approx(1.0)
    assert np.allclose(verts[:, 2], 0.0)
    measure2, verts2 = plane_section(unit_cube(2), np.array([1.0, 0.0]), 0.25)
    assert measure2 == pytest.approx(1.0)
    assert np.allclose(verts2[:, 0], 0.25)
    measure1, verts1 = plane_section(unit_cube(1), np.array([1.0]), 0.1)
    assert measure1 == 1.0
    assert verts1[0, 0] == pytest.approx(0.1)


def test_plane_section_diagonal_measures():
    # Full diagonal of the unit square has length sqrt(2).
    nu2 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    measure, _ = plane_section(unit_cube(2), nu2, 0.0)
    assert measure == pytest.approx(np.sqrt(2.0))
    # The central section of the cube orthogonal to the main diagonal is a
    # regular hexagon whose corners are edge midpoints: side sqrt(2)/2,
    # area (3 sqrt(3) / 2) * s^2 = 3 sqrt(3) / 4.
    nu3 = np.ones(3) / np.sqrt(3.0)
    measure3, verts3 = plane_section(unit_cube(3), nu3, 0.0)
    assert len(verts3) == 6
    assert measure3 == pytest.approx(3.0 * np.sqrt(3.0) / 4.0, abs=1e-12)


def test_plane_section_outside_returns_nothing():
    measure, verts = plane_section(unit_cube(3), np.array([0.0, 0.0, 1.0]), 0.5)
    assert measure == 0.0 and verts is None
    measure, verts = plane_section(unit_cube(2), np.array([1.0, 0.0]), 2.0)
    assert measure == 0.0 and verts is None


def test_plane_sections_integrate_to_volume():
    rng = np.random.default_rng(21)
    for dim in (2, 3):
        box = Box((0.0,) * dim, tuple(1.0 + k * 0.5 for k in range(dim)))
        for _ in range(3):
            mu = rng.normal(size=dim)
            mu /= np.linalg.norm(mu)
            assert _sliced_volume(box, mu) == pytest.approx(box.volume,
                                                            rel=1e-3)


def test_clip_polygon_halfspace_areas():
    half = clip_polygon_halfspace(UNIT_SQUARE, np.array([1.0, 0.0]), 0.5)
    assert polygon_area2(half) == pytest.approx(0.5)
    all_of_it = clip_polygon_halfspace(UNIT_SQUARE, np.array([1.0, 0.0]), 2.0)
    assert polygon_area2(all_of_it) == pytest.approx(1.0)
    nothing = clip_polygon_halfspace(UNIT_SQUARE, np.array([1.0, 0.0]), -1.0)
    assert len(nothing) == 0


def test_split_polygon_by_line_partitions_area():
    rng = np.random.default_rng(22)
    for _ in range(25):
        g = rng.normal(size=2)
        b = float(rng.uniform(-0.5, 1.5))
        below, above = split_polygon_by_line(UNIT_SQUARE, g, b)
        total = polygon_area2(below) + polygon_area2(above)
        assert total == pytest.approx(1.0, abs=1e-10)


def _random_convex_polygon(rng):
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=rng.integers(3, 8)))
    return rng.uniform(0.5, 2.0) * np.c_[np.cos(angles), np.sin(angles)]


def test_batched_polygon_rows_do_not_interact():
    # Rows of different vertex counts share one padded array; each row must
    # come out as it does alone, and an infinite offset keeps a row whole.
    rng = np.random.default_rng(25)
    polys = [_random_convex_polygon(rng) for _ in range(40)]
    counts = np.array([len(p) for p in polys])
    verts = np.full((len(polys), counts.max(), 2), 7.0)  # padding is ignored
    for i, p in enumerate(polys):
        verts[i, :len(p)] = p
    normals = rng.normal(size=(len(polys), 2))
    offsets = rng.normal(scale=0.5, size=len(polys))
    offsets[::5] = np.inf
    out, out_counts = clip_polygons(verts, counts, normals, offsets)
    nodes, weights, owner = fan_quadrature2(out, out_counts)
    areas = polygon_areas2(out, out_counts)
    for i, p in enumerate(polys):
        alone = clip_polygon_halfspace(p, normals[i], offsets[i])
        assert np.array_equal(out[i, :out_counts[i]], alone)
        if np.isinf(offsets[i]):
            assert np.array_equal(alone, p)
        assert areas[i] == pytest.approx(polygon_area2(alone), abs=1e-15)
        pts, wts = polygon_quadrature2(alone)
        assert np.array_equal(nodes[owner == i], pts)
        assert np.array_equal(weights[owner == i], wts)
    assert np.all(np.diff(owner) >= 0)


def test_plane_sections_match_one_plane_at_a_time():
    rng = np.random.default_rng(26)
    for dim in (1, 2, 3):
        box = Box((0.0,) * dim, tuple(1.0 + k * 0.5 for k in range(dim)))
        mu = rng.normal(size=dim)
        mu /= np.linalg.norm(mu)
        lo, hi = plane_range(box, mu)
        cs = np.r_[lo - 0.1, lo, np.linspace(lo, hi, 9)[1:-1], hi, hi + 0.1]
        measures, verts, counts = plane_sections(box, mu, cs)
        assert list(counts[:2]) == [0, 0] and list(counts[-2:]) == [0, 0]
        for k, c in enumerate(cs):
            measure, alone = plane_section(box, mu, c)
            assert measures[k] == measure
            if alone is None:
                assert counts[k] == 0
            else:
                assert np.array_equal(verts[k, :counts[k]], alone)


def test_planar_polygon_area_tilted_rectangle():
    t1 = np.array([1.0, 0.0, 0.0])
    t2 = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    verts = np.array([np.zeros(3), 2.0 * t1, 2.0 * t1 + 3.0 * t2, 3.0 * t2])
    assert planar_polygon_area(verts) == pytest.approx(6.0)


def test_interval_quadrature_polynomial_exactness():
    # Order-n Gauss is exact through degree 2n - 1.
    x, w = interval_quadrature(0.0, 1.0, order=4)
    for k in range(8):
        assert float(w @ x**k) == pytest.approx(1.0 / (k + 1), abs=1e-14)


def test_tensor_gauss_separable_exactness():
    pts, wts = tensor_gauss(corner_cube(2), order=4)
    integral = float(wts @ (pts[:, 0] ** 7 * pts[:, 1] ** 7))
    assert integral == pytest.approx(1.0 / 64.0, abs=1e-14)
    pts3, wts3 = tensor_gauss(corner_cube(3), order=2)
    assert wts3.sum() == pytest.approx(1.0)
    assert float(wts3 @ pts3[:, 2]) == pytest.approx(0.5, abs=1e-14)


def test_polygon_quadrature_quadratic_exactness():
    pts, wts = polygon_quadrature2(UNIT_SQUARE)
    assert wts.sum() == pytest.approx(1.0)
    assert float(wts @ (pts[:, 0] * pts[:, 1])) == pytest.approx(0.25,
                                                                 abs=1e-14)
    assert float(wts @ pts[:, 0] ** 2) == pytest.approx(1.0 / 3.0, abs=1e-14)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tpts, twts = polygon_quadrature2(tri)
    assert twts.sum() == pytest.approx(0.5)
    assert float(twts @ tpts[:, 0] ** 2) == pytest.approx(1.0 / 12.0,
                                                          abs=1e-14)


def test_subdivide_interval_keeps_interior_cuts_sorted():
    pieces = subdivide_interval(0.0, 1.0, [0.7, -0.2, 0.3, 1.4])
    assert pieces == [(0.0, 0.3), (0.3, 0.7), (0.7, 1.0)]
    assert subdivide_interval(0.0, 1.0, []) == [(0.0, 1.0)]


def test_orthonormal_tangents_span_orthogonal_plane():
    rng = np.random.default_rng(23)
    for dim in (2, 3):
        for _ in range(40):
            mu = rng.normal(size=dim)
            mu /= np.linalg.norm(mu)
            tangents = orthonormal_tangents(mu)
            assert len(tangents) == dim - 1
            for t in tangents:
                assert float(t @ mu) == pytest.approx(0.0, abs=1e-12)
                assert float(t @ t) == pytest.approx(1.0, abs=1e-12)
            if dim == 3:
                t1, t2 = tangents
                assert float(t1 @ t2) == pytest.approx(0.0, abs=1e-12)


def test_rotation_from_last_axis_maps_reference_normal():
    rng = np.random.default_rng(24)
    for dim in (1, 2, 3):
        for _ in range(20):
            nu = rng.normal(size=dim)
            nu /= np.linalg.norm(nu)
            R = rotation_from_last_axis(nu)
            assert np.allclose(R.T @ R, np.eye(dim), atol=1e-12)
            assert np.allclose(R[:, -1], nu, atol=1e-12)
