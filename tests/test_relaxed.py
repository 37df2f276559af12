"""Relaxed energies of deformations, sandwich checks, signed-split identity."""

import numpy as np
import pytest

from sdrelax.errors import ConfigError, SandwichViolationError
from sdrelax.fields import (
    broken_ramp_deformation,
    deck_of_cards_deformation,
    random_structured_deformation,
)
from sdrelax.relaxed import (
    disarrangement_trace_integral,
    estimated_pair,
    exact_pair,
    jump_trace_integral,
    relaxed_energy,
    verify_plus_minus_identity,
    verify_trace_sandwich,
)


def test_exact_pairs_evaluate_the_trace_formulas():
    A = np.array([[1.2, 0.4], [0.3, -0.7]])
    B = np.array([[0.1, 0.2], [-0.3, 0.6]])
    tr = np.trace(A - B)
    abs_pair = exact_pair("abs")
    plus_pair = exact_pair("plus")
    minus_pair = exact_pair("minus")
    assert abs_pair.bulk(A, B) == pytest.approx(abs(tr))
    assert plus_pair.bulk(A, B) == pytest.approx(max(tr, 0.0))
    assert minus_pair.bulk(A, B) == pytest.approx(max(-tr, 0.0))
    nu = np.array([0.0, 1.0])
    lam = np.array([0.5, -0.8])
    assert abs_pair.surface(lam, nu) == pytest.approx(0.8)
    assert plus_pair.surface(lam, nu) == 0.0
    assert minus_pair.surface(lam, nu) == pytest.approx(0.8)


def test_relaxed_energy_of_the_worked_examples():
    abs_pair = exact_pair("abs")
    assert relaxed_energy(broken_ramp_deformation(), abs_pair) == pytest.approx(1.0)
    assert relaxed_energy(deck_of_cards_deformation(), abs_pair) == 0.0
    assert disarrangement_trace_integral(deck_of_cards_deformation()) == pytest.approx(
        0.0, abs=1e-12)
    assert disarrangement_trace_integral(broken_ramp_deformation()) == pytest.approx(
        1.0, abs=1e-12)


def test_estimated_pair_agrees_with_the_exact_one():
    ex = exact_pair("abs")
    est = estimated_pair("abs")
    assert ex.exact and not est.exact
    rng = np.random.default_rng(71)
    for _ in range(4):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        assert est.bulk(A, B) == pytest.approx(ex.bulk(A, B), abs=1e-8)
    lam = rng.normal(size=2)
    nu = rng.normal(size=2)
    nu /= np.linalg.norm(nu)
    assert est.surface(lam, nu) == pytest.approx(ex.surface(lam, nu),
                                                 abs=1e-9)


def test_sandwich_holds_for_seeded_pairs():
    rng = np.random.default_rng(72)
    for _ in range(3):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        report = verify_trace_sandwich(A, B)
        assert report.passed
        for kind in ("abs", "plus", "minus"):
            entry = report.entry(kind)
            # Closed form is a floor for both numerical routes.
            assert entry.grid_value >= entry.lower - 1e-10
            assert entry.estimate >= entry.lower - entry.tolerance
            assert abs(entry.route_gap) <= 5e-3


def test_sandwich_is_tight_when_both_matrices_coincide():
    A = np.array([[0.7, -0.2], [0.4, 1.1]])
    report = verify_trace_sandwich(A, A)
    for entry in report.entries:
        assert entry.lower == 0.0
        assert entry.grid_value == pytest.approx(0.0, abs=1e-12)
        assert entry.estimate == pytest.approx(0.0, abs=1e-9)


def test_sandwich_violation_raises_with_evidence():
    rng = np.random.default_rng(73)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    # An impossible (negative) tolerance turns exact attainment into a
    # reported floor violation; the error must carry the evidence.
    with pytest.raises(SandwichViolationError) as err:
        verify_trace_sandwich(A, B, kinds=("abs",), tolerance=-1e-3)
    assert "violations" in err.value.payload
    report = verify_trace_sandwich(A, B, kinds=("abs",), tolerance=-1e-3,
                                   raise_on_violation=False)
    assert not report.passed
    names = {v[1] for v in report.violations}
    assert names <= {"grid_below_lower", "estimate_below_lower"}
    assert len(report.violations) > 0


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf")])
def test_sandwich_tolerance_must_be_finite(tolerance):
    # A NaN tolerance would make every floor comparison False and pass silently.
    with pytest.raises(ConfigError):
        verify_trace_sandwich(np.eye(2), np.zeros((2, 2)), tolerance=tolerance)


def test_plus_minus_identity_on_the_worked_examples():
    pm_dc = verify_plus_minus_identity(deck_of_cards_deformation())
    assert pm_dc.passed
    assert pm_dc.value_abs == 0.0
    assert pm_dc.trace_volume_term + pm_dc.trace_jump_term == 0.0
    pm_br = verify_plus_minus_identity(broken_ramp_deformation())
    assert pm_br.passed
    assert pm_br.value_abs == pytest.approx(1.0)
    assert pm_br.value_plus == pytest.approx(1.0)
    assert pm_br.value_minus == pytest.approx(0.0, abs=1e-12)
    assert pm_br.trace_volume_term + pm_br.trace_jump_term == pytest.approx(1.0)


def test_plus_minus_identity_on_seeded_deformations():
    # The signed relaxed energies are half the absolute one shifted by half
    # the disarrangement trace, and they always sum back to the absolute one.
    for seed in range(8):
        sd = random_structured_deformation(seed, dim=2, resolution=4)
        pm = verify_plus_minus_identity(sd)
        assert pm.passed
        trace_term = pm.trace_volume_term + pm.trace_jump_term
        assert pm.value_plus == pytest.approx(
            0.5 * pm.value_abs + 0.5 * trace_term, rel=1e-9, abs=1e-12)
        assert pm.value_minus == pytest.approx(
            0.5 * pm.value_abs - 0.5 * trace_term, rel=1e-9, abs=1e-12)
        assert pm.value_plus + pm.value_minus == pytest.approx(
            pm.value_abs, abs=1e-12)


def test_jump_trace_integral_matches_the_jump_part():
    from sdrelax.fields import broken_ramp, total_derivative
    u = broken_ramp(4)
    _, jump = total_derivative(u)
    assert jump_trace_integral(u) == pytest.approx(float(np.trace(jump)),
                                                   abs=1e-12)
