"""Density registries, axiom checkers, and energy evaluation."""

import numpy as np
import pytest

from sdrelax import (
    DensitySet,
    bulk_density,
    check_bulk_growth,
    check_interface_axioms,
    check_surface_axioms,
    energy,
    interface_density,
    surface_density,
)
from sdrelax.energy import (
    DENSITY_KINDS,
    BulkDensity,
    InterfacePairDensity,
    SurfaceDensity,
)
from sdrelax.errors import DensityError
from sdrelax.fields import broken_ramp, deck_of_cards, staircase_sequence
from sdrelax.core import identity_frame

PSI_ABS = surface_density("abs_normal_jump")
PSI_PLUS = surface_density("pos_normal_jump")
PSI_MINUS = surface_density("neg_normal_jump")


def _status(report, name):
    for check in report.checks:
        if check.name == name:
            return check.status
    raise AssertionError(f"no check named {name}")


def test_registries_expose_the_documented_names():
    assert set(DENSITY_KINDS) == {"bulk", "surface", "interface"}
    assert "zero" in DENSITY_KINDS["bulk"]
    assert "abs_normal_jump" in DENSITY_KINDS["surface"]
    assert "phase_gap_normal_jump" in DENSITY_KINDS["interface"]
    with pytest.raises(DensityError):
        surface_density("no_such_density")


def test_surface_density_pointwise_values():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    lam = np.array([3.0, -4.0])
    assert PSI_ABS(lam, e2) == pytest.approx(4.0)
    assert PSI_PLUS(lam, e2) == 0.0
    assert PSI_MINUS(lam, e2) == pytest.approx(4.0)
    assert PSI_ABS(lam, e1) == pytest.approx(3.0)
    assert surface_density("jump_magnitude")(lam, e2) == pytest.approx(5.0)
    assert surface_density("squared_jump_magnitude")(lam, e2) == pytest.approx(25.0)


def test_signed_surface_densities_split_the_absolute_one():
    rng = np.random.default_rng(51)
    for _ in range(200):
        lam = rng.normal(size=3)
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        plus = PSI_PLUS(lam, nu)
        minus = PSI_MINUS(lam, nu)
        assert plus + minus == pytest.approx(PSI_ABS(lam, nu), abs=1e-12)
        assert plus - minus == pytest.approx(float(lam @ nu), abs=1e-12)
        assert plus >= 0.0 and minus >= 0.0


def test_energy_of_the_worked_examples():
    ds = DensitySet.simple(bulk_density("zero"), PSI_ABS)
    for n in (1, 2, 4, 8):
        assert energy(broken_ramp(n), ds) == pytest.approx((n - 1) / n,
                                                           abs=1e-12)
        assert energy(deck_of_cards(n), ds) == 0.0


def test_energy_includes_the_bulk_term():
    # Gradient B on the whole unit-volume cube, so the bulk term is just
    # the squared Frobenius norm of B; facets supply the rest.
    A = 2.0 * np.eye(2)
    B = np.eye(2)
    u = staircase_sequence(A, B, identity_frame(2), 4, clamp=False)
    ds = DensitySet.simple(bulk_density("frobenius_power"), PSI_ABS)
    expected_bulk = float(np.linalg.norm(B)) ** 2
    expected_jump = 0.0
    for facet in u.facets():
        expected_jump += facet.area * PSI_ABS(facet.constant_jump,
                                              facet.normal)
    assert energy(u, ds) == pytest.approx(expected_bulk + expected_jump,
                                          abs=1e-12)


def test_bulk_growth_check_accepts_honest_declarations():
    assert check_bulk_growth(bulk_density("zero"), dim=2).passed
    assert check_bulk_growth(bulk_density("frobenius_power"), dim=3).passed
    assert check_bulk_growth(bulk_density("quadratic_identity"), dim=2).passed


def test_bulk_growth_check_rejects_superpolynomial_growth():
    exp_density = BulkDensity("exp_frobenius",
                              lambda A: float(np.exp(np.linalg.norm(A))),
                              growth_p=2.0, lipschitz_C=1.0)
    report = check_bulk_growth(exp_density, dim=2, radius=10.0)
    assert not report.passed
    assert _status(report, "lipschitz_growth") == "fail"


def test_surface_axioms_for_the_exact_kernels():
    for name in ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump"):
        report = check_surface_axioms(surface_density(name), dim=3)
        assert report.passed
        assert _status(report, "one_homogeneity") == "pass"
        assert _status(report, "subadditivity") == "pass"
        assert _status(report, "upper_bound") == "pass"
        # These kernels vanish on tangential jumps, so the coercive lower
        # bound can only be advisory.
        assert _status(report, "lower_bound") == "warn"


def test_surface_axioms_reject_the_quadratic_kernel():
    report = check_surface_axioms(surface_density("squared_jump_magnitude"),
                                  dim=2)
    assert not report.passed
    assert _status(report, "one_homogeneity") == "fail"
    assert _status(report, "subadditivity") == "fail"


def test_norm_kernel_passes_with_coercivity():
    report = check_surface_axioms(surface_density("jump_magnitude"), dim=3)
    assert report.passed
    assert _status(report, "lower_bound") == "pass"


def test_surface_axioms_certify_the_sign():
    for name in DENSITY_KINDS["surface"]:
        report = check_surface_axioms(surface_density(name), dim=3,
                                      sample_count=2000)
        assert _status(report, "nonnegative") == "pass"
    signed = SurfaceDensity("signed_demo", lambda lam, nu: float(lam @ nu))
    report = check_surface_axioms(signed, dim=3, sample_count=2000)
    assert not report.passed
    assert _status(report, "nonnegative") == "fail"
    assert report.check("nonnegative").worst > 0.0


def test_surface_axioms_certify_the_declared_normal_form():
    for name in DENSITY_KINDS["surface"]:
        density = surface_density(name)
        report = check_surface_axioms(density, dim=3, sample_count=2000)
        assert _status(report, "normal_form") == "pass", name
        if density.normal_form is None:
            assert report.check("normal_form").worst == 0.0
    # fn charges |lam . nu| but the declared profile charges only the
    # positive part, so every sample with a negative normal jump disagrees.
    mislabeled = SurfaceDensity("mislabeled_abs",
                                lambda lam, nu: abs(float(lam @ nu)),
                                normal_form=lambda q: np.maximum(q, 0.0))
    report = check_surface_axioms(mislabeled, dim=3, sample_count=2000)
    assert not report.passed
    assert _status(report, "normal_form") == "fail"
    check = report.check("normal_form")
    lam = np.array(check.witness["jump"])
    nu = np.array(check.witness["normal"])
    assert float(lam @ nu) < 0.0
    assert check.worst > 1e-9
    # A profile that agrees up to rounding still passes.
    rounded = SurfaceDensity("rounded_abs",
                             lambda lam, nu: abs(float(lam @ nu)),
                             normal_form=lambda q: np.abs(q) * (1.0 + 1e-15))
    report = check_surface_axioms(rounded, dim=3, sample_count=2000)
    assert _status(report, "normal_form") == "pass"


def test_surface_axioms_call_the_declared_normal_form_on_arrays():
    # Every scalar sample agrees, but price calls the profile on an array of
    # normal jumps, where max(q, 0.0) raises.
    scalar_only = SurfaceDensity("scalar_only_pos",
                                 lambda lam, nu: max(0.0, float(lam @ nu)),
                                 normal_form=lambda q: max(q, 0.0))
    report = check_surface_axioms(scalar_only, dim=3, sample_count=2000)
    assert [c.name for c in report.checks if c.status == "fail"] == ["normal_form"]
    check = report.check("normal_form")
    assert check.worst == np.inf
    assert "ValueError" in check.witness["array_call"]
    # A profile that answers arrays with one number has the wrong shape.
    flat = SurfaceDensity("flat_zero", lambda lam, nu: 0.0,
                          normal_form=lambda q: 0.0)
    report = check_surface_axioms(flat, dim=2, sample_count=200)
    assert _status(report, "normal_form") == "fail"
    assert "shape" in report.check("normal_form").witness["array_call"]
    # One that computes something else on arrays fails at a sample where
    # the two disagree.
    split = SurfaceDensity(
        "split_abs", lambda lam, nu: abs(float(lam @ nu)),
        normal_form=lambda q: np.abs(q) if np.ndim(q) == 0 else np.maximum(q, 0.0))
    report = check_surface_axioms(split, dim=3, sample_count=2000)
    check = report.check("normal_form")
    assert check.status == "fail" and np.isfinite(check.worst)
    lam, nu = np.array(check.witness["jump"]), np.array(check.witness["normal"])
    assert float(lam @ nu) < 0.0 and check.witness["array_call"] == 0.0


def test_interface_axioms_call_the_declared_normal_form_on_arrays():
    scalar_only = InterfacePairDensity(
        "scalar_only_gap",
        lambda a, b, c, d, nu: abs(a - b) * abs(float((c - d) @ nu)),
        normal_form=lambda a, b, q: abs(a - b) * max(q, -q))
    report = check_interface_axioms(scalar_only, dim=3, sample_count=2000)
    assert [c.name for c in report.checks if c.status == "fail"] == ["normal_form"]
    check = report.check("normal_form")
    assert check.worst == np.inf
    assert "ValueError" in check.witness["array_call"]


def test_interface_axioms_for_the_phase_gap_kernel():
    report = check_interface_axioms(interface_density("phase_gap_normal_jump"),
                                    dim=2)
    assert report.passed
    for check in report.checks:
        assert check.status == "pass"
    assert {c.name for c in report.checks} == {
        "nonnegative", "growth_bound", "swap_symmetry", "trace_lipschitz",
        "diagonal_vanishing", "one_homogeneity", "normal_form"}


def test_registry_interface_profiles_pass_every_check():
    for name in DENSITY_KINDS["interface"]:
        density = interface_density(name)
        assert density.normal_form is not None, name
        for dim in (2, 3):
            report = check_interface_axioms(density, dim=dim, sample_count=2000)
            assert all(c.status == "pass" for c in report.checks), (name, dim)
    # A density without a profile passes the profile check.
    bare = InterfacePairDensity(
        "bare_gap", lambda a, b, c, d, nu: abs(a - b) * abs(float((c - d) @ nu)))
    report = check_interface_axioms(bare, dim=2, sample_count=2000)
    assert report.passed
    assert report.check("normal_form").worst == 0.0


def test_interface_axioms_fail_a_profile_that_disagrees_with_fn():
    # fn charges |q| but the profile only the positive part of q.
    mislabeled = InterfacePairDensity(
        "mislabeled_gap",
        lambda a, b, c, d, nu: abs(a - b) * abs(float((c - d) @ nu)),
        normal_form=lambda a, b, q: abs(a - b) * np.maximum(q, 0.0))
    report = check_interface_axioms(mislabeled, dim=3, sample_count=2000)
    assert not report.passed
    assert _status(report, "normal_form") == "fail"
    assert _status(report, "one_homogeneity") == "pass"
    wit = report.check("normal_form").witness
    q = float((np.array(wit["c"]) - np.array(wit["d"])) @ np.array(wit["normal"]))
    assert wit["a"] != wit["b"] and q < 0.0


def test_interface_axioms_fail_a_profile_that_is_not_one_homogeneous():
    squared = InterfacePairDensity(
        "squared_gap",
        lambda a, b, c, d, nu: abs(a - b) * float((c - d) @ nu) ** 2,
        bound_C=1e3, lipschitz_C=1e3,
        normal_form=lambda a, b, q: abs(a - b) * q ** 2)
    report = check_interface_axioms(squared, dim=3, sample_count=2000)
    assert not report.passed
    assert _status(report, "one_homogeneity") == "fail"
    assert _status(report, "normal_form") == "pass"
    assert report.check("one_homogeneity").witness["t"] != 1.0


def test_interface_axioms_flag_a_signed_kernel():
    signed = InterfacePairDensity(
        "signed_demo", lambda a, b, c, d, nu: float((a - b) * ((c - d) @ nu)))
    report = check_interface_axioms(signed, dim=2)
    assert not report.passed
    assert _status(report, "nonnegative") == "fail"


def test_interface_density_pointwise_values():
    kernel = interface_density("phase_gap_normal_jump")
    nu = np.array([0.0, 1.0])
    c = np.array([0.3, 0.7])
    d = np.array([0.3, -0.3])
    assert kernel(1.0, 0.0, c, d, nu) == pytest.approx(1.0)
    assert kernel(0.5, 0.5, c, d, nu) == 0.0
    assert kernel(1.0, 0.0, c, c, nu) == 0.0


def test_density_set_routes_simple_and_design_payloads():
    W = bulk_density("zero")
    ds = DensitySet.simple(W, PSI_ABS)
    w, psi = ds.require_simple()
    assert w is W and psi is PSI_ABS
    with pytest.raises(DensityError):
        ds.require_design()
    design = DensitySet.design(W, bulk_density("frobenius_power"),
                               PSI_ABS, PSI_PLUS, interface_density("zero"))
    w0, p0 = design.phase(0)
    w1, p1 = design.phase(1)
    assert w0 is W and p0 is PSI_ABS and p1 is PSI_PLUS
    with pytest.raises(DensityError):
        design.require_simple()
