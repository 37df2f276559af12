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
    _face_pieces,
    _facet_from_face,
    _lift,
    _piece_quadrature,
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
    # A collinear polygon piece has no area; callers skip pieces at or
    # below the measure tolerance, so no centroid needs computing.
    collinear = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes, wts = _piece_quadrature(3, collinear)
    assert float(wts.sum()) == 0.0
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    nodes, wts = _piece_quadrature(3, square)
    measure = float(wts.sum())
    assert measure == pytest.approx(1.0)
    assert (wts @ nodes) / measure == pytest.approx([0.5, 0.5])


# Reference: the facet construction as it was before each face piece got
# a single quadrature. It measures every piece and part by a quadrature of
# its own, quadratures each part once more for its nodes, and evaluates the
# jump at the centroid of the piece and again at the centroid of each part.
def _oracle_piece_geometry(dim, piece):
    if dim == 1:
        return np.zeros(0), 1.0
    if dim == 2:
        a, b = piece
        return np.array([0.5 * (a + b)]), b - a
    pts, wts = geometry.polygon_quadrature2(piece)
    area = float(wts.sum())
    if area <= geometry.MEASURE_EPS:
        return np.zeros(2), area
    return (wts @ pts) / area, area


def _oracle_facet_from_face(dim, axis, fixed, free_bounds, cut_lines,
                            normal_phys, jump_centroid, jump_grad_free,
                            rotation, plane_offset, keep_all=False):
    pieces = _face_pieces(dim, free_bounds, cut_lines)
    s_grad = jump_grad_free.T @ normal_phys if dim > 1 else np.zeros(0)
    all_pts, all_wts, all_jumps = [], [], []
    total_area = 0.0
    for piece in pieces:
        w_c, measure = _oracle_piece_geometry(dim, piece)
        if measure <= geometry.MEASURE_EPS:
            continue
        j_c = jump_centroid(_lift(w_c.reshape(1, -1), axis, fixed, dim))[0]
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
                    lo_p, hi_p = geometry.split_polygon_by_line(piece, s_grad, rhs)
                    sub = [p for p in (lo_p, hi_p)
                           if len(p) >= 3
                           and geometry.polygon_area2(p) > geometry.MEASURE_EPS]
        for part in sub:
            w_part, part_measure = _oracle_piece_geometry(dim, part)
            if part_measure <= geometry.MEASURE_EPS:
                continue
            nodes, wts = _piece_quadrature(dim, part)
            j_part = jump_centroid(_lift(w_part.reshape(1, -1), axis, fixed, dim))[0]
            jumps = j_part[None, :] + (nodes - w_part) @ jump_grad_free.T
            pts_ref = _lift(nodes, axis, fixed, dim)
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
        m.setattr(fields, "_facet_from_face", _oracle_facet_from_face)
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
            m.setattr(fields, "_facet_from_face", _oracle_facet_from_face)
            want = values()
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("normal_jump_at_origin,quadratures", [(1.0, 1), (-0.25, 3)])
def test_one_quadrature_per_unsplit_face_piece(monkeypatch, normal_jump_at_origin,
                                               quadratures):
    # One unit-square piece of the face x3 = 0.5. The normal jump
    # c + w1 / 2 keeps its sign for c = 1 and changes it at w1 = 1/2 for
    # c = -1/4, where the piece splits in two halves.
    grad_free = np.array([[0.3, -0.2], [0.1, 0.4], [0.5, 0.0]])
    const = np.array([0.2, -0.1, normal_jump_at_origin])

    def jump_at(pts_ref):
        return const[None, :] + pts_ref[:, :2] @ grad_free.T

    args = (3, 2, 0.5, [(0.0, 1.0), (0.0, 1.0)], [], np.eye(3)[2], jump_at,
            grad_free, None, 0.5)
    calls = []
    real = geometry.polygon_quadrature2

    def counted(verts):
        calls.append(len(verts))
        return real(verts)

    with monkeypatch.context() as m:
        m.setattr(geometry, "polygon_quadrature2", counted)
        facet = _facet_from_face(*args)
    assert len(calls) == quadratures
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
