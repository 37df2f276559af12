"""Batched surface pricing: SurfaceDensity.price and the jump integrals."""

import dataclasses

import numpy as np
import pytest

from sdrelax.cell import frame_grid_minimum
from sdrelax.core import Frame, identity_frame
from sdrelax.energy import (
    DENSITY_KINDS,
    DensitySet,
    SurfaceDensity,
    bulk_density,
    interface_density,
    surface_density,
)
from sdrelax.errors import DensityError
from sdrelax.fields import (
    GridField,
    GridMesh,
    broken_ramp,
    deck_of_cards,
    grid_face_facet,
    jump_competitor,
    jump_measure,
    random_structured_deformation,
    staircase_sequence,
)
from sdrelax.geometry import unit_cube
from sdrelax.optdesign import PhaseField, design_energy
from sdrelax.relaxed import exact_pair


# Reference: jump_measure as it was before batched pricing, one psi call per
# constant-jump facet and per quadrature node.
def _per_node_jump_measure(u, psi):
    total = 0.0
    for f in u.facets():
        if f.constant_jump is not None:
            total += f.area * float(psi(f.constant_jump, f.normal))
        else:
            total += float(sum(w * psi(j, f.normal)
                               for w, j in zip(f.quad_weights, f.quad_jumps)))
    return total


# Densities that read only the size of the jump, and so apply to fields
# whose jump has another length than the normal.
_JUMP_SIZE_ONLY = ("jump_magnitude", "squared_jump_magnitude")


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


USER_DENSITY = SurfaceDensity(
    "normal_and_shear",
    lambda lam, nu: abs(float(lam @ nu)) + 0.5 * float(np.linalg.norm(lam - (lam @ nu) * nu)))

DENSITIES = ([surface_density(name) for name in DENSITY_KINDS["surface"]]
             + [USER_DENSITY, exact_pair("abs").surface,
                lambda lam, nu: float(lam @ nu) ** 2 + abs(float(lam[0]))])


def _random_frame(rng, dim):
    return Frame(tuple(rng.uniform(0.0, np.pi, size=dim * (dim - 1) // 2)), dim)


def _fields():
    rng = np.random.default_rng(91)
    out = []
    for dim, n_values in ((2, (1, 3, 7)), (3, (2, 5))):
        for n in n_values:
            A, B = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim))
            frame = _random_frame(rng, dim)
            out.append(staircase_sequence(A, B, frame, n))
            out.append(staircase_sequence(A, B, frame, n, clamp=False))
            out.append(staircase_sequence(A, B, identity_frame(dim), n))
    lam, nu = rng.normal(size=3), rng.normal(size=3)
    out.append(jump_competitor(lam, nu / np.linalg.norm(nu),
                               splits=((0.3, -0.45), (0.5, 0.05), (0.2, 0.3))))
    out += [broken_ramp(5), deck_of_cards(7)]
    for seed, dim in ((5, 2), (6, 3)):
        out.append(random_structured_deformation(seed, dim=dim, resolution=3,
                                                 continuous=False).g)
        # Random cell maps on a rotated mesh: affine jumps across every face.
        R, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        mesh = GridMesh(unit_cube(dim), 2, R)
        out.append(GridField(mesh, rng.normal(size=(mesh.n_cells, dim, dim)),
                             rng.normal(size=(mesh.n_cells, dim))))
    # A scalar field on a square: its jump has another size than the normal.
    mesh = GridMesh(unit_cube(2), (2, 1))
    out.append(GridField(mesh, rng.normal(size=(2, 1, 2)), rng.normal(size=(2, 1))))
    return out


FIELDS = _fields()


@pytest.mark.parametrize("psi", DENSITIES, ids=lambda p: getattr(p, "name", "callable"))
def test_jump_measure_matches_the_per_node_loop(psi):
    for u in FIELDS:
        if u.codim != u.dim and getattr(psi, "name", "") not in _JUMP_SIZE_ONLY:
            continue
        got, want = jump_measure(u, psi), _per_node_jump_measure(u, psi)
        assert _close(got, want), (u, got, want)


def _counting(density):
    calls = []

    def fn(lam, nu):
        calls.append(1)
        return density.fn(lam, nu)

    return dataclasses.replace(density, fn=fn), calls


def test_jump_measure_calls_fn_only_without_a_normal_form():
    for name in DENSITY_KINDS["surface"] + ("user",):
        base = USER_DENSITY if name == "user" else surface_density(name)
        psi, calls = _counting(base)
        for u in FIELDS:
            if u.codim != u.dim:
                continue
            calls.clear()
            jump_measure(u, psi)
            got = len(calls)
            calls.clear()
            _per_node_jump_measure(u, psi)
            assert got == (0 if base.normal_form is not None else len(calls)), name
            assert len(calls) > 0


def test_design_energy_calls_fn_only_without_a_normal_form():
    rng = np.random.default_rng(93)
    W = bulk_density("zero")
    for name in ("abs_normal_jump", "pos_normal_jump", "jump_magnitude", "user"):
        base = USER_DENSITY if name == "user" else surface_density(name)
        psi, calls = _counting(base)
        ds = DensitySet.design(W, W, psi, psi, interface_density("phase_gap_normal_jump"))
        for u in FIELDS:
            if not isinstance(u, GridField) or u.codim != u.dim:
                continue
            chi = PhaseField(u.mesh, rng.integers(0, 2, size=u.mesh.n_cells))
            nodes = 0
            for face in u.mesh.interior_faces():
                facet = grid_face_facet(u, face)
                if facet is not None and chi.cell_value[face[2]] == chi.cell_value[face[3]]:
                    nodes += len(facet.quad_weights)
            assert nodes > 0
            calls.clear()
            design_energy(chi, u, ds)
            assert len(calls) == (0 if base.normal_form is not None else nodes), name


@pytest.mark.parametrize("dim", [2, 3])
def test_price_rows_equal_the_scalar_calls(dim):
    rng = np.random.default_rng(95 + dim)
    jumps = 3.0 * rng.normal(size=(40, dim))
    normals = rng.normal(size=(40, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    jumps[0] = 0.0
    jumps[1] -= (jumps[1] @ normals[1]) * normals[1]  # tangential jump
    for psi in [surface_density(name) for name in DENSITY_KINDS["surface"]] + [USER_DENSITY]:
        rows = psi.price(jumps, normals)
        assert rows.shape == (40,)
        want = np.array([psi(j, n) for j, n in zip(jumps, normals)])
        if psi.normal_form is None:
            assert np.array_equal(rows, want), psi.name
        else:
            assert np.allclose(rows, want, rtol=1e-14, atol=1e-14), psi.name
        assert psi.price(jumps[:0], normals[:0]).shape == (0,)


# Profiles that check_surface_axioms fails on its array call: one works only
# on scalars (max of an array is ambiguous), one sums an array to a number.
SCALAR_ONLY = SurfaceDensity("scalar_only_pos_normal_jump",
                             lambda lam, nu: max(0.0, float(lam @ nu)),
                             normal_form=lambda q: max(q, 0.0))
SUMMING = SurfaceDensity("summing_abs_normal_jump",
                         lambda lam, nu: abs(float(lam @ nu)),
                         normal_form=lambda q: float(np.sum(np.abs(q))))


@pytest.mark.parametrize("psi", [SCALAR_ONLY, SUMMING], ids=lambda p: p.name)
def test_a_profile_failing_on_arrays_raises_a_density_error(psi):
    rng = np.random.default_rng(97)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    with pytest.raises(DensityError, match=psi.name):
        jump_measure(staircase_sequence(A, B, _random_frame(rng, 3), 4), psi)
    u = random_structured_deformation(5, dim=2, resolution=3, continuous=False).g
    chi = PhaseField(u.mesh, np.zeros(u.mesh.n_cells, dtype=int))
    W = bulk_density("zero")
    ds = DensitySet.design(W, W, psi, psi, interface_density("phase_gap_normal_jump"))
    with pytest.raises(DensityError, match=psi.name):
        design_energy(chi, u, ds)
    for M in (np.diag([1.0, -2.0, 0.5]), np.diag([1.0, -2.0])):
        with pytest.raises(DensityError, match=psi.name):
            frame_grid_minimum(M, psi)
