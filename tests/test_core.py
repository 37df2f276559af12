"""Tensor algebra, frames, rank-one decompositions, exact relaxed formulas."""

import numpy as np
import pytest

from sdrelax import (
    Frame,
    as_matrix,
    decompose_by_frame,
    disarrangement_tensor,
    frame_angles_from_matrix,
    frame_cost,
    frame_matrix,
    identity_frame,
    relaxed_bulk_abs,
    relaxed_bulk_minus,
    relaxed_bulk_plus,
    relaxed_surface_abs,
    relaxed_surface_minus,
    relaxed_surface_plus,
    surface_density,
    trace_of_decomposition,
)
from sdrelax.energy import DENSITY_KINDS
from sdrelax.errors import DimensionMismatchError, NonUnitNormalError

PSI_ABS = surface_density("abs_normal_jump")


def _random_frame(rng, dim):
    n_angles = {1: 0, 2: 1, 3: 3}[dim]
    return Frame(tuple(rng.uniform(0.0, np.pi, size=n_angles)), dim)


def _deck_gradient():
    # g(x) = (x1 + x3, x2, x3) has constant gradient I + e1 (x) e3.
    A = np.eye(3)
    A[0, 2] = 1.0
    return A


def test_disarrangement_tensor_vanishes_for_classical_deformation():
    assert np.array_equal(disarrangement_tensor(np.eye(2), np.eye(2)),
                          np.zeros((2, 2)))


def test_disarrangement_tensor_sliding_deck():
    M = disarrangement_tensor(_deck_gradient(), np.eye(3))
    expected = np.outer([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert np.array_equal(M, expected)


def test_disarrangement_tensor_doubled_ramp():
    assert np.array_equal(disarrangement_tensor([[2.0]], [[1.0]]), [[1.0]])


def test_disarrangement_tensor_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        disarrangement_tensor(np.eye(2), np.eye(3))


def test_frame_matrix_closed_forms():
    assert np.array_equal(frame_matrix(Frame((), 1)), np.eye(1))
    assert np.allclose(frame_matrix(Frame((0.0,), 2)), np.eye(2))
    quarter = frame_matrix(Frame((np.pi / 2,), 2))
    assert np.allclose(quarter, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def _givens(n, i, j, theta):
    g = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def test_frame_matrix_is_the_givens_product():
    rng = np.random.default_rng(15)
    for _ in range(50):
        t1, t2, t3 = rng.uniform(-7.0, 7.0, size=3)
        product = _givens(3, 0, 1, t1) @ _givens(3, 0, 2, t2) @ _givens(3, 1, 2, t3)
        assert np.max(np.abs(frame_matrix(Frame((t1, t2, t3), 3)) - product)) <= 1e-15
        assert np.max(np.abs(frame_matrix(Frame((t1,), 2)) - _givens(2, 0, 1, t1))) <= 1e-15


def test_frame_matrix_is_special_orthogonal():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        for _ in range(50):
            R = frame_matrix(_random_frame(rng, dim))
            assert np.allclose(R.T @ R, np.eye(dim), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_frame_angle_recovery_roundtrip():
    rng = np.random.default_rng(12)
    for dim in (2, 3):
        for _ in range(50):
            R = frame_matrix(_random_frame(rng, dim))
            again = frame_matrix(frame_angles_from_matrix(R))
            assert np.allclose(again, R, atol=1e-10)


def test_decompose_reconstructs_and_conserves_trace():
    rng = np.random.default_rng(13)
    for dim in (1, 2, 3):
        for _ in range(40):
            M = rng.normal(size=(dim, dim))
            dec = decompose_by_frame(M, _random_frame(rng, dim))
            recon = sum(np.outer(a, nu) for a, nu in dec.terms)
            assert np.allclose(recon, M, atol=1e-10)
            assert trace_of_decomposition(dec) == pytest.approx(np.trace(M),
                                                                abs=1e-10)


def test_decompose_zero_matrix_gives_zero_amplitudes():
    dec = decompose_by_frame(np.zeros((3, 3)), identity_frame(3))
    for a, _ in dec.terms:
        assert np.array_equal(a, np.zeros(3))


def test_decompose_sliding_deck_in_identity_frame():
    M = np.outer([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    dec = decompose_by_frame(M, identity_frame(3))
    amps = [a for a, _ in dec.terms]
    assert np.array_equal(amps[0], np.zeros(3))
    assert np.array_equal(amps[1], np.zeros(3))
    assert np.array_equal(amps[2], np.array([1.0, 0.0, 0.0]))


def test_decompose_traceless_diagonal_at_equalizing_angle():
    # Oracle: the normal component nu^T M nu equals cos(2 theta) for
    # M = diag(1, -1), so theta = pi/4 zeroes both terms.
    M = np.diag([1.0, -1.0])
    dec = decompose_by_frame(M, Frame((np.pi / 4,), 2))
    for a, nu in dec.terms:
        assert float(a @ nu) == pytest.approx(0.0, abs=1e-12)


def test_frame_cost_closed_forms():
    assert frame_cost(np.zeros((2, 2)), Frame((0.3,), 2), PSI_ABS) == 0.0
    traceless = frame_cost(np.diag([1.0, -1.0]), Frame((np.pi / 4,), 2), PSI_ABS)
    assert traceless == pytest.approx(0.0, abs=1e-15)
    ramp = frame_cost(np.array([[2.0]]) - np.array([[1.0]]), Frame((), 1), PSI_ABS)
    assert ramp == pytest.approx(1.0)


def test_frame_cost_dominates_trace_for_all_frames():
    rng = np.random.default_rng(14)
    for dim in (2, 3):
        for _ in range(60):
            M = rng.normal(size=(dim, dim))
            cost = frame_cost(M, _random_frame(rng, dim), PSI_ABS)
            assert cost >= abs(np.trace(M)) - 1e-10


def test_frame_cost_matches_the_decomposition_route():
    # Normal-form densities price square M from the diagonal of R^T M R;
    # every density must agree with psi summed over the rank-one terms, and
    # where psi cannot take the terms (a normal jump of a non-square M) the
    # error must be the same.
    rng = np.random.default_rng(16)
    for name in DENSITY_KINDS["surface"]:
        psi = surface_density(name)
        for dim in (1, 2, 3):
            for rows in sorted({dim, 1, 3}):
                for _ in range(10):
                    M = rng.normal(size=(rows, dim))
                    frame = _random_frame(rng, dim)
                    terms = decompose_by_frame(M, frame).terms
                    try:
                        expected = sum(psi(a, nu) for a, nu in terms)
                    except ValueError:
                        with pytest.raises(ValueError):
                            frame_cost(M, frame, psi)
                        continue
                    assert frame_cost(M, frame, psi) == pytest.approx(expected, abs=1e-12)


def test_frame_cost_raises_what_decompose_raises():
    frame = Frame((0.3, 1.1, -0.4), 3)
    huge = 1e9 * np.random.default_rng(17).normal(size=(3, 3))
    for psi in (PSI_ABS, surface_density("jump_magnitude")):
        for M, error in ((huge, ValueError),
                         (np.eye(2), DimensionMismatchError),
                         ([[np.nan, 0.0, 0.0]], ValueError)):
            with pytest.raises(error):
                decompose_by_frame(M, frame)
            with pytest.raises(error):
                frame_cost(M, frame, psi)


def test_exact_relaxed_bulk_formulas():
    A = np.array([[1.0, 3.0], [0.5, -2.0]])
    assert relaxed_bulk_abs(A, A) == 0.0
    assert relaxed_bulk_abs(_deck_gradient(), np.eye(3)) == pytest.approx(0.0)
    assert relaxed_bulk_abs([[2.0]], [[1.0]]) == pytest.approx(1.0)
    rng = np.random.default_rng(15)
    for _ in range(40):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        plus = relaxed_bulk_plus(A, B)
        minus = relaxed_bulk_minus(A, B)
        assert plus - minus == pytest.approx(np.trace(A - B), abs=1e-12)
        assert plus + minus == pytest.approx(relaxed_bulk_abs(A, B), abs=1e-12)
        assert min(plus, minus) == 0.0


def test_exact_relaxed_surface_formulas():
    e1 = np.array([1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    assert relaxed_surface_abs(np.zeros(3), e3) == 0.0
    assert relaxed_surface_abs(e1, e3) == 0.0
    assert relaxed_surface_abs(2.0 * e3, e3) == pytest.approx(2.0)
    rng = np.random.default_rng(16)
    for _ in range(40):
        lam = rng.normal(size=3)
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        plus = relaxed_surface_plus(lam, nu)
        minus = relaxed_surface_minus(lam, nu)
        assert plus - minus == pytest.approx(float(lam @ nu), abs=1e-12)
        assert plus + minus == pytest.approx(relaxed_surface_abs(lam, nu),
                                             abs=1e-12)


def test_exact_relaxed_surface_rejects_non_unit_normal():
    with pytest.raises(NonUnitNormalError):
        relaxed_surface_abs(np.ones(2), np.array([1.0, 1.0]))


def test_frame_angle_count_is_validated():
    with pytest.raises(ValueError):
        Frame((0.1, 0.2), 2)


def test_as_matrix_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
