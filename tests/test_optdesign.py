"""Two-phase design energies, phase fields, and interface cell problems."""

import dataclasses
from itertools import combinations, product

import numpy as np
import pytest
from scipy import optimize

from sdrelax import optdesign
from sdrelax.energy import (
    DENSITY_KINDS,
    DensitySet,
    InterfacePairDensity,
    SurfaceDensity,
    bulk_density,
    energy,
    interface_density,
    surface_density,
)
from sdrelax.errors import DimensionMismatchError, MeshMismatchError
from sdrelax.fields import GridField, GridMesh, random_structured_deformation
from sdrelax.geometry import Box
from sdrelax.optdesign import (
    DesignBoundaryData,
    DesignDensityTables,
    PhaseField,
    design_energy,
    estimate_interface_cell,
    estimate_phase_relaxed_bulk,
    perimeter,
    relaxed_design_energy,
)
from sdrelax.cell import OptimizerBudget, estimate_relaxed_bulk

PSI_ABS = surface_density("abs_normal_jump")
DS_DESIGN = DensitySet.design(bulk_density("zero"), bulk_density("zero"),
                              PSI_ABS, PSI_ABS,
                              interface_density("phase_gap_normal_jump"))


def _square_mesh(resolution):
    return GridMesh(Box((0.0, 0.0), (1.0, 1.0)), resolution)


def test_phase_field_validation():
    mesh = _square_mesh((2, 2))
    with pytest.raises(DimensionMismatchError):
        PhaseField(mesh, np.ones(3))
    with pytest.raises(ValueError):
        PhaseField(mesh, np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        PhaseField(mesh, np.array([0.0, 0.5, 1.0, 0.0]))
    chi = PhaseField.constant(mesh, 1)
    assert chi.cell_value.tolist() == [1, 1, 1, 1]
    assert chi.consistent()


def test_perimeter_oracles():
    mesh = _square_mesh((2, 2))
    assert perimeter(PhaseField.constant(mesh, 0)) == 0.0
    left = PhaseField.from_indicator(mesh, lambda x: x[0] < 0.5)
    assert perimeter(left) == pytest.approx(1.0)
    checker = PhaseField.from_indicator(mesh,
                                        lambda x: (x[0] < 0.5) ^ (x[1] < 0.5))
    assert perimeter(checker) == pytest.approx(2.0)
    fine = _square_mesh((4, 4))
    stripes = PhaseField.from_indicator(fine,
                                        lambda x: int(4 * x[0]) % 2 == 0)
    assert perimeter(stripes) == pytest.approx(3.0)


def test_constant_phase_design_energy_reduces_to_plain_energy():
    ds = DensitySet.design(bulk_density("frobenius_power"),
                           bulk_density("zero"),
                           surface_density("jump_magnitude"), PSI_ABS,
                           interface_density("phase_gap_normal_jump"))
    for seed in range(6):
        sd = random_structured_deformation(seed, dim=2, resolution=3)
        u = sd.g
        for phase, plain_ds in ((0, DensitySet.simple(
                bulk_density("frobenius_power"),
                surface_density("jump_magnitude"))),
                (1, DensitySet.simple(bulk_density("zero"), PSI_ABS))):
            chi = PhaseField.constant(u.mesh, phase)
            assert design_energy(chi, u, ds) == pytest.approx(
                energy(u, plain_ds), abs=1e-12)


def test_design_energy_two_cell_hand_oracle():
    mesh = GridMesh(Box((0.0, 0.0), (1.0, 1.0)), (2, 1))
    A = np.array([[0.2, 0.0], [0.0, 0.3]])
    lam = np.array([0.6, -0.4])
    gradients = np.stack([A, A])
    offsets = np.stack([np.zeros(2), lam])  # constant jump lam across x=1/2
    u = GridField(mesh, gradients, offsets)
    chi = PhaseField(mesh, np.array([0, 1]))
    ds = DensitySet.design(bulk_density("frobenius_power"),
                           bulk_density("frobenius_power"),
                           PSI_ABS, PSI_ABS,
                           interface_density("phase_gap_normal_jump"))
    # Each half contributes its bulk integral; the single interior face
    # carries perimeter 1 and the phase-gap kernel |a-b| |lam . e1|.
    expected = (0.5 * float(np.linalg.norm(A)) ** 2 * 2
                + 1.0 + abs(lam[0]))
    assert design_energy(chi, u, ds) == pytest.approx(expected, abs=1e-12)
    # Without the phase flip the same face costs only the phase-0 kernel.
    chi0 = PhaseField.constant(mesh, 0)
    expected0 = float(np.linalg.norm(A)) ** 2 + abs(lam[0])
    assert design_energy(chi0, u, ds) == pytest.approx(expected0, abs=1e-12)


def test_design_energy_validates_meshes_and_field_kind():
    mesh = _square_mesh((2, 2))
    other = _square_mesh((3, 3))
    sd = random_structured_deformation(0, dim=2, resolution=2)
    chi_wrong = PhaseField.constant(other, 1)
    with pytest.raises(MeshMismatchError):
        design_energy(chi_wrong, sd.g, DS_DESIGN)
    from sdrelax.fields import broken_ramp
    chi1 = PhaseField.constant(GridMesh(Box((0.0,), (1.0,)), (4,)), 1)
    with pytest.raises(MeshMismatchError):
        design_energy(chi1, broken_ramp(4), DS_DESIGN)


def test_interface_cell_boundary_data_validation():
    nu = np.array([0.0, 1.0])
    c = np.array([0.3, 0.4])
    with pytest.raises(ValueError):
        DesignBoundaryData(2, 0, c, c, nu)
    with pytest.raises(DimensionMismatchError):
        DesignBoundaryData(1, 0, c, np.zeros(3), nu)
    data = DesignBoundaryData(1, 0, c, np.zeros(2), nu)
    assert np.allclose(data.jump, c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_interface_cell_rejects_non_finite_values(bad):
    nu = np.array([1.0, 0.0])
    for c, d in (([bad, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, bad])):
        with pytest.raises(ValueError, match="finite"):
            DesignBoundaryData(1, 1, c, d, nu)


def test_interface_cell_vanishes_without_any_jump():
    nu = np.array([0.0, 1.0])
    c = np.array([0.3, 0.4])
    for phase in (0, 1):
        sol = estimate_interface_cell(
            DesignBoundaryData(phase, phase, c, c, nu), DS_DESIGN)
        assert sol.value == 0.0
        assert sol.competitor["phase_jump_slots"] == []
        assert sol.competitor["deformation_jump_slots"] == []


def test_interface_cell_pure_phase_jump_costs_the_perimeter():
    nu = np.array([0.0, 1.0])
    c = np.array([0.3, 0.4])
    sol = estimate_interface_cell(DesignBoundaryData(1, 0, c, c, nu),
                                  DS_DESIGN)
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert len(sol.competitor["phase_jump_slots"]) == 1


def test_interface_cell_pure_deformation_jump_skips_the_perimeter():
    nu = np.array([0.0, 1.0])
    c = np.array([0.3, 0.9])
    d = np.array([0.3, 0.4])
    sol = estimate_interface_cell(DesignBoundaryData(1, 1, c, d, nu),
                                  DS_DESIGN)
    assert sol.value == pytest.approx(abs(float((c - d) @ nu)), abs=1e-9)
    assert sol.competitor["phase_jump_slots"] == []


def test_interface_cell_prefers_coincident_planes_when_pairing_is_free():
    # With a vanishing pair kernel, stacking both jumps on one plane costs
    # just the perimeter; any separated layout also pays the deformation
    # kernel. The enumeration must find the coincident layout.
    ds_free = DensitySet.design(bulk_density("zero"), bulk_density("zero"),
                                PSI_ABS, PSI_ABS, interface_density("zero"))
    nu = np.array([0.0, 1.0])
    c = np.array([0.0, 0.8])
    d = np.zeros(2)
    sol = estimate_interface_cell(DesignBoundaryData(1, 0, c, d, nu), ds_free)
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert (sol.competitor["phase_jump_slots"]
            == sol.competitor["deformation_jump_slots"])
    # The phase-gap kernel makes pairing cost |lam . nu| either way.
    sol2 = estimate_interface_cell(DesignBoundaryData(1, 0, c, d, nu),
                                   DS_DESIGN)
    assert sol2.value == pytest.approx(1.0 + 0.8, abs=1e-9)


def test_phase_bulk_estimate_selects_the_phase_densities():
    A = np.array([[1.1, 0.2], [0.0, 0.4]])
    B = np.array([[0.3, -0.1], [0.2, 0.6]])
    ds = DensitySet.design(bulk_density("zero"), bulk_density("frobenius_power"),
                           PSI_ABS, PSI_ABS,
                           interface_density("phase_gap_normal_jump"))
    sol0 = estimate_phase_relaxed_bulk(0, A, B, ds)
    plain0 = estimate_relaxed_bulk(A, B, DensitySet.simple(
        bulk_density("zero"), PSI_ABS))
    assert sol0.value == pytest.approx(plain0.value, abs=1e-12)
    assert sol0.meta["phase"] == 0
    sol1 = estimate_phase_relaxed_bulk(1, A, B, ds)
    assert sol1.value > sol0.value  # phase 1 pays the bulk well too
    with pytest.raises(ValueError):
        estimate_phase_relaxed_bulk(2, A, B, ds)


def test_relaxed_design_energy_with_closed_form_tables():
    # Plumbing check against hand-computed totals: exact trace-abs bulk
    # table, interface table charging perimeter plus normal jump.
    mesh = GridMesh(Box((0.0, 0.0), (1.0, 1.0)), (2, 1))
    A = np.array([[0.5, 0.0], [0.0, 0.1]])
    u = GridField(mesh, np.stack([A, A]), np.zeros((2, 2)))
    G = np.stack([A - np.diag([0.4, 0.0]), A - np.diag([0.0, -0.7])])

    class SD:
        pass

    sd = SD()
    sd.g = u
    sd.G = G
    tables = DesignDensityTables(
        bulk=lambda i, Ag, Bg: abs(float(np.trace(Ag - Bg))),
        interface=lambda a, b, c, d, nu: (abs(a - b)
                                          + abs(float((np.asarray(c)
                                                       - np.asarray(d)) @ nu))))
    chi_const = PhaseField.constant(mesh, 1)
    # Continuous deformation, no phase flip: bulk terms only.
    assert relaxed_design_energy(chi_const, sd, tables) == pytest.approx(
        0.5 * 0.4 + 0.5 * 0.7, abs=1e-12)
    # A phase flip adds the unit-area interface with coinciding traces.
    chi_split = PhaseField(mesh, np.array([0, 1]))
    assert relaxed_design_energy(chi_split, sd, tables) == pytest.approx(
        0.5 * 0.4 + 0.5 * 0.7 + 1.0, abs=1e-12)


def test_relaxed_design_energy_from_numerical_tables_in_one_dimension():
    mesh = GridMesh(Box((0.0,), (1.0,)), (2,))
    u = GridField(mesh, np.full((2, 1, 1), 2.0), np.zeros((2, 1)))
    sd_g = u

    class SD:
        pass

    sd = SD()
    sd.g = sd_g
    sd.G = np.full((2, 1, 1), 1.0)
    tables = DesignDensityTables.from_estimators(DS_DESIGN)
    chi_split = PhaseField(mesh, np.array([0, 1]))
    # Both cells give the scalar cell value |2 - 1| = 1; the phase flip
    # adds an interface cell worth exactly the perimeter.
    value = relaxed_design_energy(chi_split, sd, tables)
    assert value == pytest.approx(0.5 + 0.5 + 1.0, abs=1e-9)
    # Memoization returns identical numbers on repeat evaluation.
    assert relaxed_design_energy(chi_split, sd, tables) == value


# Reference: the full enumeration of layered competitors, with no pruning,
# no deduplication, and the layers rebuilt on every evaluation.

def _reference_layers(start, end, pattern, middle):
    layers = []
    for layer in range(len(optdesign._SLOTS) + 1):
        taken = sum(1 for s in pattern if s < layer)
        if taken == len(pattern):
            layers.append(end)
        elif taken == 0:
            layers.append(start)
        else:
            layers.append(middle)
    return layers


def _reference_cost(data, ds, chi_pat, u_pat, w):
    other = 1 - data.a if data.a == data.b else None
    chi_layers = _reference_layers(data.b, data.a, chi_pat, other)
    u_layers = _reference_layers(data.d, data.c, u_pat, w)
    nu = data.normal
    cost = 0.0
    for s in range(len(optdesign._SLOTS)):
        chi_l, chi_r = chi_layers[s], chi_layers[s + 1]
        u_l, u_r = np.asarray(u_layers[s]), np.asarray(u_layers[s + 1])
        u_jumps = float(np.linalg.norm(u_r - u_l)) > 0.0
        if chi_l != chi_r:
            cost += 1.0
            if u_jumps:
                cost += float(ds.Psi2(chi_r, chi_l, u_r, u_l, nu))
        elif u_jumps:
            psi1 = ds.Psi1_1 if chi_l == 1 else ds.Psi1_0
            cost += float(psi1(u_r - u_l, nu))
    return cost


def _reference_patterns(data, two_planes=True):
    """Phase and deformation patterns in enumeration order."""
    idx = range(len(optdesign._SLOTS))
    if data.a == data.b:
        chi_patterns = [()] + list(combinations(idx, 2))
    else:
        chi_patterns = [(i,) for i in idx]
    u_patterns = [()] if float(np.linalg.norm(data.c - data.d)) == 0.0 else []
    u_patterns += [(i,) for i in idx]
    if two_planes:
        u_patterns += list(combinations(idx, 2))
    return chi_patterns, u_patterns


def _reference_interface_cell(data, ds):
    budget = OptimizerBudget()
    chi_patterns, u_patterns = _reference_patterns(data)
    best = None
    for chi_pat in chi_patterns:
        for u_pat in u_patterns:
            value, w_best = _reference_pattern_value(data, ds, chi_pat, u_pat,
                                                     budget)
            if best is None or value < best[0] - 1e-12:
                best = (float(value), chi_pat, u_pat, w_best)
    return best


def _reference_pattern_value(data, ds, chi_pat, u_pat, budget):
    """Cost of one pattern, searched from three starts if it has two planes."""
    if len(u_pat) < 2:
        return _reference_cost(data, ds, chi_pat, u_pat, None), None
    options = {"maxiter": budget.max_iterations,
               "xatol": budget.simplex_tolerance,
               "fatol": budget.simplex_tolerance}
    value, w_best = np.inf, None
    for w0 in (0.5 * (data.c + data.d), data.d.copy(), data.c.copy()):
        res = optimize.minimize(
            lambda w: _reference_cost(data, ds, chi_pat, u_pat, w),
            w0, method="Nelder-Mead", options=options)
        if res.fun < value - 1e-15:
            value = float(res.fun)
            w_best = tuple(float(x) for x in res.x)
    return value, w_best


DS_FREE_PAIRS = DensitySet.design(bulk_density("zero"), bulk_density("zero"),
                                  PSI_ABS, PSI_ABS, interface_density("zero"))


@pytest.mark.parametrize("ds", [DS_DESIGN, DS_FREE_PAIRS],
                         ids=["phase_gap_normal_jump", "zero"])
@pytest.mark.parametrize("gap", ["equal", "one_ulp", "generic"])
@pytest.mark.parametrize("dim", [2, 3])
def test_interface_cell_matches_the_full_enumeration(dim, gap, ds):
    rng = np.random.default_rng(dim)
    c = rng.uniform(-0.9, 0.9, size=dim)
    d = {"equal": c.copy(), "one_ulp": c + 1e-16,
         "generic": rng.uniform(-0.9, 0.9, size=dim)}[gap]
    assert np.array_equal(c, d) == (gap == "equal")
    nu = rng.normal(size=dim)
    nu /= np.linalg.norm(nu)
    for a in (0, 1):
        for b in (0, 1):
            data = DesignBoundaryData(a, b, c, d, nu)
            value, chi_pat, u_pat, w_best = _reference_interface_cell(data, ds)
            sol = estimate_interface_cell(data, ds)
            assert sol.value == value
            assert sol.meta["chi_slots"] == chi_pat
            assert sol.meta["u_slots"] == u_pat
            assert sol.meta["intermediate"] == w_best


@pytest.fixture
def minimize_calls(monkeypatch):
    """res.success of every scipy.optimize.minimize call, in call order."""
    calls = []
    real = optimize.minimize

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(bool(res.success))
        return res

    monkeypatch.setattr(optimize, "minimize", counted)
    return calls


# The same densities with the pair profile withheld: not every density
# declares a profile, so the interface cell runs its two-plane searches.
DS_SEARCH = dataclasses.replace(
    DS_DESIGN, Psi2=dataclasses.replace(DS_DESIGN.Psi2, normal_form=None))


def test_interface_cell_skips_searches_that_cannot_win(minimize_calls):
    nu = np.array([0.6, 0.8])
    c = np.array([0.3, 0.4])
    near = c + 4e-16
    assert not np.array_equal(c, near)
    # A single plane already costs the perimeter bound (plus at most an
    # ulp-sized kernel), so no two-plane search runs.
    for a, b, d in ((0, 1, c), (1, 1, c), (0, 1, near)):
        minimize_calls.clear()
        estimate_interface_cell(DesignBoundaryData(a, b, c, d, nu), DS_SEARCH)
        assert len(minimize_calls) == 0, (a, b, d)
    d = np.array([-0.5, 1.1])
    # a != b: five distinct two-plane event sequences, three starts each.
    minimize_calls.clear()
    estimate_interface_cell(DesignBoundaryData(0, 1, c, d, nu), DS_SEARCH)
    assert 0 < len(minimize_calls) <= 15
    # a = b below the two-plane perimeter: one deformation pair sequence.
    minimize_calls.clear()
    sol = estimate_interface_cell(DesignBoundaryData(1, 1, c, d, nu),
                                  DS_SEARCH)
    assert sol.value < 2.0
    assert 0 < len(minimize_calls) <= 3


@pytest.mark.parametrize("budget", [None, OptimizerBudget(max_iterations=3)],
                         ids=["default", "three-iterations"])
def test_interface_cell_counts_its_searches(minimize_calls, budget):
    rng = np.random.default_rng(91)
    c = np.array([0.3, 0.4])
    for a, b, d in ((0, 1, c), (1, 1, c), (0, 1, np.array([-0.5, 1.1])),
                    (1, 1, np.array([-0.5, 1.1])), (0, 0, rng.normal(size=2)),
                    (1, 0, rng.normal(size=2))):
        minimize_calls.clear()
        sol = estimate_interface_cell(DesignBoundaryData(a, b, c, d, np.array([0.6, 0.8])),
                                      DS_SEARCH, budget)
        assert sol.meta["searches"] == len(minimize_calls)
        assert sol.meta["unconverged"] == minimize_calls.count(False)
        if budget is not None:
            # Three iterations leave every search unconverged.
            assert sol.meta["unconverged"] == sol.meta["searches"]
    assert sol.meta["searches"] > 0


def test_interface_cell_route_needs_all_three_profiles():
    nu = np.array([0.6, 0.8])
    data = DesignBoundaryData(0, 1, np.array([0.3, 0.4]),
                              np.array([-0.5, 1.1]), nu)
    assert estimate_interface_cell(data, DS_DESIGN).meta["route"] == "single-plane"
    assert estimate_interface_cell(data, DS_FREE_PAIRS).meta["route"] == "single-plane"
    assert estimate_interface_cell(data, DS_SEARCH).meta["route"] == "search"
    magnitude = dataclasses.replace(DS_DESIGN,
                                    Psi1_1=surface_density("jump_magnitude"))
    assert estimate_interface_cell(data, magnitude).meta["route"] == "search"


def test_interface_cell_search_beats_single_planes_without_profiles(minimize_calls):
    # None of these densities reads the jump through its normal component
    # alone, and a two-plane layout undercuts every one-plane layout: the
    # first gap (1, 0) pays 1 in phase 0, the second (0, 1) pays 1 in
    # phase 1, and the phase plane pays its unit perimeter with no pair
    # term. Any single deformation plane pays at least 3 for (1, 1).
    psi1_0 = SurfaceDensity("l1_wide", lambda lam, nu: abs(lam[0]) + 2 * abs(lam[1]))
    psi1_1 = SurfaceDensity("l1_tall", lambda lam, nu: 2 * abs(lam[0]) + abs(lam[1]))
    psi2 = InterfacePairDensity(
        "phase_gap_l1", lambda a, b, c, d, nu: 3 * abs(a - b) * float(np.abs(c - d).sum()))
    ds = DensitySet.design(bulk_density("zero"), bulk_density("zero"),
                           psi1_0, psi1_1, psi2)
    data = DesignBoundaryData(0, 1, np.array([1.0, 1.0]), np.zeros(2),
                              np.array([1.0, 0.0]))
    budget = OptimizerBudget()
    chi_patterns, u_patterns = _reference_patterns(data, two_planes=False)
    single = min(_reference_pattern_value(data, ds, chi_pat, u_pat, budget)[0]
                 for chi_pat in chi_patterns for u_pat in u_patterns)
    assert single == 4.0
    minimize_calls.clear()
    sol = estimate_interface_cell(data, ds)
    assert sol.meta["route"] == "search"
    assert sol.value == pytest.approx(3.0, abs=1e-9)
    assert sol.meta["u_slots"] == (0, 2)
    assert sol.meta["searches"] == len(minimize_calls) == 15
    value, chi_pat, u_pat, w_best = _reference_interface_cell(data, ds)
    assert (sol.value, sol.meta["chi_slots"], sol.meta["u_slots"],
            sol.meta["intermediate"]) == (value, chi_pat, u_pat, w_best)


def test_interface_cell_single_plane_route_matches_the_full_enumeration(minimize_calls):
    # Every combination of dimension, phases, one-sided or two-sided
    # surface profiles per phase and registry pair density, with c = d in
    # one case in ten; the oracle still searches every two-plane pattern.
    surfaces = [surface_density(name) for name in
                ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump")]
    pairs = [interface_density(name) for name in DENSITY_KINDS["interface"]]
    combos = list(product((2, 3), ((0, 0), (0, 1), (1, 0), (1, 1)),
                          surfaces, surfaces, pairs))
    rng = np.random.default_rng(2024)
    zero = bulk_density("zero")
    for k in range(200):
        dim, (a, b), psi1_0, psi1_1, psi2 = combos[k % len(combos)]
        ds = DensitySet.design(zero, zero, psi1_0, psi1_1, psi2)
        c = rng.uniform(-0.9, 0.9, size=dim)
        d = c.copy() if k % 10 == 0 else rng.uniform(-0.9, 0.9, size=dim)
        nu = rng.normal(size=dim)
        data = DesignBoundaryData(a, b, c, d, nu / np.linalg.norm(nu))
        minimize_calls.clear()
        sol = estimate_interface_cell(data, ds)
        assert len(minimize_calls) == 0
        assert sol.meta["route"] == "single-plane"
        assert sol.meta["searches"] == 0
        expected = _reference_interface_cell(data, ds)
        assert (sol.value, sol.meta["chi_slots"], sol.meta["u_slots"],
                sol.meta["intermediate"]) == expected, k


def _reference_pattern_counts(data, ds, two_planes):
    """(scored, skipped) of the pruned, deduplicated enumeration.

    Two patterns are duplicates when the runs of equal (phase, deformation)
    layers across the cube coincide.
    """
    budget = OptimizerBudget()
    chi_patterns, u_patterns = _reference_patterns(data, two_planes)
    other = 1 - data.a if data.a == data.b else None
    best, seen, skipped = None, set(), 0
    for chi_pat in chi_patterns:
        for u_pat in u_patterns:
            if best is not None and len(chi_pat) >= best - 1e-12:
                skipped += 1
                continue
            layers = list(zip(_reference_layers(data.b, data.a, chi_pat, other),
                              _reference_layers("d", "c", u_pat, "w")))
            runs = tuple(x for i, x in enumerate(layers)
                         if i == 0 or x != layers[i - 1])
            if runs in seen:
                skipped += 1
                continue
            seen.add(runs)
            value, _ = _reference_pattern_value(data, ds, chi_pat, u_pat, budget)
            if best is None or value < best - 1e-12:
                best = value
    return len(seen), skipped


@pytest.mark.parametrize("ds", [DS_DESIGN, DS_FREE_PAIRS, DS_SEARCH],
                         ids=["phase_gap_normal_jump", "zero", "search"])
def test_interface_cell_counts_the_patterns_it_scores_and_skips(ds):
    rng = np.random.default_rng(17)
    two_planes = ds is DS_SEARCH
    for k in range(16 if two_planes else 48):
        dim = 2 + k % 2
        a, b = (k // 2) % 2, (k // 4) % 2
        c = rng.uniform(-0.9, 0.9, size=dim)
        d = c.copy() if k % 8 == 0 else rng.uniform(-0.9, 0.9, size=dim)
        nu = rng.normal(size=dim)
        data = DesignBoundaryData(a, b, c, d, nu / np.linalg.norm(nu))
        sol = estimate_interface_cell(data, ds)
        scored, skipped = _reference_pattern_counts(data, ds, two_planes)
        chi_patterns, u_patterns = _reference_patterns(data, two_planes)
        assert scored + skipped == len(chi_patterns) * len(u_patterns)
        assert (sol.meta["patterns_scored"], sol.meta["patterns_skipped"]) == (
            scored, skipped), k
