"""Cell problems: frame search, refinement estimates, competitors."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy import optimize

from sdrelax import cell, geometry as geo
from sdrelax import (
    estimate_relaxed_bulk,
    estimate_relaxed_surface,
    frame_grid_minimum,
    identity_frame,
    relaxed_bulk_abs,
    relaxed_surface_abs,
)
from sdrelax.cell import (
    DEFAULT_GRID_RESOLUTION,
    CellSolution,
    OptimizerBudget,
    _canonical_angles,
    realize_bulk_competitor,
    realize_surface_competitor,
)
from sdrelax.core import Frame, frame_cost
from sdrelax.energy import (DENSITY_KINDS, BulkDensity, DensitySet, SurfaceDensity,
                            bulk_density, check_surface_axioms, surface_density)
from sdrelax.errors import ConfigError, NumericalFailureError

PSI_ABS = surface_density("abs_normal_jump")
DS_ABS = DensitySet.simple(bulk_density("zero"), PSI_ABS)

# |jump . normal| over the leading components both vectors have: it
# declares normal_form, and np.trace(A - B) exists, for non-square pairs too.
PSI_LEADING = SurfaceDensity(
    "leading_abs_normal_jump",
    lambda lam, nu: abs(float(lam[:nu.size] @ nu[:lam.size])),
    normal_form=np.abs)
DS_LEADING = DensitySet.simple(bulk_density("zero"), PSI_LEADING)


def _rank_one_double_well():
    C = np.outer([1.0, 0.0], [1.0, 0.0])

    def dw(A):
        return float(min(np.linalg.norm(A - C) ** 2,
                         np.linalg.norm(A + C) ** 2))

    return BulkDensity("rank_one_double_well", dw, growth_p=2.0,
                       lipschitz_C=4.0)


def test_one_dimensional_bulk_estimate_is_exact():
    sol = estimate_relaxed_bulk(np.array([[2.0]]), np.array([[1.0]]), DS_ABS)
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert sol.kind == "bulk"
    assert sol.bound_kind == "upper"
    assert sol.competitor["family"] == "clamped-staircase"


def test_bulk_estimate_matches_trace_formula_in_two_dimensions():
    rng = np.random.default_rng(61)
    for _ in range(6):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        sol = estimate_relaxed_bulk(A, B, DS_ABS)
        assert sol.value == pytest.approx(relaxed_bulk_abs(A, B), abs=1e-9)


def test_bulk_estimate_is_deterministic():
    A = np.array([[0.4, -1.1], [0.7, 0.2]])
    B = np.array([[-0.3, 0.5], [0.1, 0.9]])
    first = estimate_relaxed_bulk(A, B, DS_ABS)
    second = estimate_relaxed_bulk(A, B, DS_ABS)
    assert first.value == second.value
    assert first.frame.angles == second.frame.angles


def test_frame_grid_finds_the_equalizing_frame():
    value, frame = frame_grid_minimum(np.diag([1.0, -1.0]), PSI_ABS)
    assert value == pytest.approx(0.0, abs=1e-6)
    assert frame.angles[0] == pytest.approx(np.pi / 4, abs=np.pi / 720)


def test_frame_grid_never_beats_the_trace_floor():
    rng = np.random.default_rng(62)
    for _ in range(25):
        M = rng.normal(size=(2, 2))
        value, _ = frame_grid_minimum(M, PSI_ABS)
        assert value >= abs(np.trace(M)) - 1e-10


def test_frame_grid_in_three_dimensions():
    rng = np.random.default_rng(63)
    M = rng.normal(size=(3, 3))
    value, frame = frame_grid_minimum(M, PSI_ABS, resolution=24)
    assert len(frame.angles) == 3
    assert value >= abs(np.trace(M)) - 1e-10


@functools.lru_cache(maxsize=4)
def _grid_rotations(dim, resolution):
    """Stack of frame matrices for every grid angle combination."""
    th = np.arange(resolution) * np.pi / resolution
    c, s = np.cos(th), np.sin(th)
    if dim == 2:
        R = np.zeros((resolution, 2, 2))
        R[:, 0, 0] = c
        R[:, 1, 1] = c
        R[:, 0, 1] = -s
        R[:, 1, 0] = s
        R.setflags(write=False)
        return R

    def givens_stack(i, j):
        G = np.zeros((resolution, 3, 3))
        G[:, 0, 0] = G[:, 1, 1] = G[:, 2, 2] = 1.0
        G[:, i, i] = c
        G[:, j, j] = c
        G[:, i, j] = -s
        G[:, j, i] = s
        return G

    R = np.einsum("aij,bjk,ckl->abcil", givens_stack(0, 1), givens_stack(0, 2),
                  givens_stack(1, 2)).reshape(-1, 3, 3)
    R.setflags(write=False)
    return R


def _stack_grid_costs(M, psi, resolution):
    """Grid costs from the full rotation stack, as the grid was first built."""
    R = _grid_rotations(M.shape[1], resolution)
    if psi.normal_form is not None and M.shape[0] == M.shape[1]:
        return np.sum(psi.normal_form(np.einsum("rji,jk,rki->ri", R, M, R)), axis=1)
    return np.array([sum(float(psi(a, nu)) for a, nu in zip((M @ Rr).T, Rr.T))
                     for Rr in R])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("resolution", [6, 24, None])
def test_staged_grid_matches_the_rotation_stack(dim, resolution):
    rng = np.random.default_rng(67)
    n = resolution or DEFAULT_GRID_RESOLUTION[dim]
    for name in ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump"):
        psi = surface_density(name)
        for _ in range(3):
            M = rng.normal(size=(dim, dim))
            value, frame = frame_grid_minimum(M, psi, resolution)
            assert value == pytest.approx(np.min(_stack_grid_costs(M, psi, n)), abs=1e-12)
            # Tied grid points may resolve to another frame; it must attain the value.
            assert frame_cost(M, frame, psi) == pytest.approx(value, abs=1e-12)


def test_grid_without_normal_form_prices_every_rotation():
    # frame_cost at every grid frame equals psi over the kept rotation-stack reference.
    magnitude = surface_density("jump_magnitude")
    rng = np.random.default_rng(69)
    for psi, shape, resolution in ((magnitude, (2, 2), 6), (magnitude, (2, 2), None),
                                   (magnitude, (3, 3), 6), (magnitude, (3, 3), 20),
                                   (PSI_LEADING, (3, 2), None), (PSI_LEADING, (2, 3), 12)):
        dim = shape[1]
        n = resolution or DEFAULT_GRID_RESOLUTION[dim]
        for _ in range(2):
            M = rng.normal(size=shape)
            costs = _stack_grid_costs(M, psi, n)
            value, frame = frame_grid_minimum(M, psi, resolution)
            best = int(np.argmin(costs))
            assert value == costs[best]
            multi = np.unravel_index(best, (n,) * (1 if dim == 2 else 3))
            assert frame.angles == tuple(k * np.pi / n for k in multi)
            assert frame_cost(M, frame, psi) == value


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_one_dimensional_grid_and_estimate_price_the_identity(rows):
    # The single frame is the identity: the value is psi at the one column
    # with the unit normal.
    rng = np.random.default_rng(70 + rows)
    for name in DENSITY_KINDS["surface"]:
        psi = surface_density(name)
        ds = DensitySet.simple(bulk_density("zero"), psi)
        for _ in range(4):
            A, B = rng.normal(size=(2, rows, 1))
            M = A - B
            try:
                expected = float(psi(M[:, 0], np.ones(1)))
            except ValueError:
                with pytest.raises(ValueError):
                    frame_grid_minimum(M, psi)
                continue
            value, frame = frame_grid_minimum(M, psi)
            assert (value, frame) == (expected, identity_frame(1))
            sol = estimate_relaxed_bulk(A, B, ds)
            assert sol.value == expected and sol.meta["surface_term"] == expected
            assert sol.meta["route"] == "single-frame"


@pytest.mark.parametrize("resolution", [0, -3, 2.5, "x", True])
def test_grid_resolution_must_be_a_positive_integer(resolution):
    for M in (np.eye(2), np.eye(3), np.eye(1)):
        with pytest.raises(ConfigError):
            frame_grid_minimum(M, PSI_ABS, resolution)
    M = np.diag([1.0, -0.5])
    assert frame_grid_minimum(M, PSI_ABS, np.int64(6)) == frame_grid_minimum(M, PSI_ABS, 6)


def test_canonical_angles_price_like_the_raw_angles():
    rng = np.random.default_rng(70)
    for name in ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump",
                 "jump_magnitude"):
        psi = surface_density(name)
        for dim in (2, 3):
            for _ in range(40):
                M = rng.normal(size=(dim, dim))
                raw = tuple(rng.uniform(-10.0, 10.0, size=1 if dim == 2 else 3))
                canonical = _canonical_angles(raw)
                assert all(0.0 <= a < np.pi for a in canonical)
                assert frame_cost(M, Frame(canonical, dim), psi) == pytest.approx(
                    frame_cost(M, Frame(raw, dim), psi), abs=1e-12)


def test_more_optimizer_restarts_never_hurt():
    A = np.array([[1.3, -0.4], [0.8, -0.9]])
    B = np.array([[0.2, 0.6], [-0.5, 0.1]])
    lean = estimate_relaxed_bulk(A, B, DS_ABS, OptimizerBudget(restarts=2))
    rich = estimate_relaxed_bulk(A, B, DS_ABS, OptimizerBudget(restarts=12))
    assert rich.value <= lean.value + 1e-12


def test_certified_estimate_reports_realized_energies():
    sol = estimate_relaxed_bulk(np.array([[2.0]]), np.array([[1.0]]), DS_ABS,
                                OptimizerBudget(certify=True))
    realized = dict(sol.meta["realized"])
    for n, observed in realized.items():
        u, energy_n = realize_bulk_competitor(np.array([[2.0]]),
                                              np.array([[1.0]]),
                                              identity_frame(1), n,
                                              densities=DS_ABS)
        assert observed == pytest.approx(energy_n, abs=1e-12)
        # The boundary layer displaces one plane on each side, so the
        # finite-n energy is (n - 2)/n and the gap to the limit is 2/n.
        assert energy_n == pytest.approx((n - 2) / n, abs=1e-12)
    ns = sorted(realized)
    for coarse, fine in zip(ns, ns[1:]):
        gap_ratio = (sol.value - realized[coarse]) / (sol.value - realized[fine])
        assert gap_ratio == pytest.approx(2.0, abs=1e-9)


def test_realized_energies_approach_the_reported_value():
    rng = np.random.default_rng(64)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    sol = estimate_relaxed_bulk(A, B, DS_ABS)
    gaps = []
    for n in (8, 16, 32, 64):
        _, energy_n = realize_bulk_competitor(A, B, sol.frame, n,
                                              densities=DS_ABS)
        gaps.append(abs(energy_n - sol.value))
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 0.2 * max(gaps[0], 1e-9) + 0.05


def test_laminate_closes_a_double_well_gap():
    ds = DensitySet.simple(_rank_one_double_well(), PSI_ABS)
    B = np.zeros((2, 2))
    sol = estimate_relaxed_bulk(B, B, ds)
    assert sol.value == pytest.approx(0.0, abs=1e-8)
    assert sol.meta["laminate_gain"] == pytest.approx(1.0, abs=1e-8)
    laminate = sol.competitor["laminate"]
    outer = np.outer(laminate["amplitude"], laminate["direction"])
    assert np.allclose(np.abs(outer), np.outer([1, 0], [1, 0]), atol=1e-6)


def test_laminate_never_fires_for_convex_wells():
    ds = DensitySet.simple(bulk_density("frobenius_power"), PSI_ABS)
    B = np.array([[0.3, 0.1], [0.0, -0.2]])
    sol = estimate_relaxed_bulk(B, B, ds)
    assert sol.value == pytest.approx(float(np.linalg.norm(B)) ** 2,
                                      abs=1e-9)
    assert sol.meta.get("laminate_gain") is None


def test_surface_estimate_matches_normal_jump():
    rng = np.random.default_rng(65)
    for dim in (2, 3):
        for _ in range(10):
            lam = rng.normal(size=dim)
            nu = rng.normal(size=dim)
            nu /= np.linalg.norm(nu)
            sol = estimate_relaxed_surface(lam, nu, PSI_ABS)
            assert sol.value == pytest.approx(relaxed_surface_abs(lam, nu),
                                              abs=1e-9)
            assert sol.kind == "surface"


def test_surface_estimate_normal_form_route_matches_psi_route():
    rng = np.random.default_rng(71)
    for name in ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump"):
        psi = surface_density(name)
        plain = dataclasses.replace(psi, normal_form=None)
        for dim in (2, 3):
            for _ in range(4):
                lam = rng.normal(size=dim)
                nu = rng.normal(size=dim)
                nu /= np.linalg.norm(nu)
                fast = estimate_relaxed_surface(lam, nu, psi)
                slow = estimate_relaxed_surface(lam, nu, plain)
                assert fast.value == pytest.approx(slow.value, abs=1e-12)
                assert fast.meta["family"] == slow.meta["family"]
                # Only the psi route searches tents: two closed-form starts
                # and two lattice starts.
                assert (fast.meta["searches"], slow.meta["searches"]) == (0, 4)


# Kept copy of the surface estimator that also searched stacks of two to
# four parallel planes and priced normal-form splits and tents from lam . nu.

def _oracle_kronecker_alphas(count):
    g = 1.5
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (count + 1))
    return (1.0 / g) ** np.arange(1, count + 1)


def _oracle_simplex_fractions(x):
    q = np.square(x)
    total = q.sum()
    if total <= 1e-300:
        return np.full(x.size, 1.0 / x.size)
    return q / total


def _oracle_split_offsets(k):
    return tuple((j - 0.5 * (k - 1)) * 0.8 / k for j in range(k))


def _oracle_tent_value(lam, nu, psi, t, beta, tangents):
    h = 0.49 * np.tanh(t)
    if tangents.shape[1] == 1:
        tau = tangents[:, 0]
    else:
        tau = np.cos(beta) * tangents[:, 0] + np.sin(beta) * tangents[:, 1]
    scale = np.sqrt(1.0 + 4.0 * h * h)
    mu_up = (nu - 2.0 * h * tau) / scale
    mu_dn = (nu + 2.0 * h * tau) / scale
    return 0.5 * scale * (float(psi(lam, mu_up)) + float(psi(lam, mu_dn)))


def _oracle_tent_normal_value(q, lam_t, profile, t, beta):
    h = 0.49 * math.tanh(t)
    if len(lam_t) == 1:
        slope = lam_t[0]
    else:
        slope = math.cos(beta) * lam_t[0] + math.sin(beta) * lam_t[1]
    scale = math.sqrt(1.0 + 4.0 * h * h)
    return 0.5 * scale * (float(profile((q - 2.0 * h * slope) / scale))
                          + float(profile((q + 2.0 * h * slope) / scale)))


def _oracle_surface_estimate(lam, nu, psi, budget=OptimizerBudget()):
    """(value, splits, competitor, meta) of the split-family search."""
    dim = nu.size
    best_value = float(psi(lam, nu))
    best_splits = ((1.0, 0.0),)
    best_label = "midplane"
    best_extra = {}
    nm_options = {"maxiter": budget.max_iterations,
                  "xatol": budget.simplex_tolerance,
                  "fatol": budget.simplex_tolerance}
    profile = psi.normal_form
    if profile is not None:
        q = float(lam @ nu)

        def split_cost(x):
            return float(profile(_oracle_simplex_fractions(x) * q).sum())
    else:
        def split_cost(x):
            return sum(float(psi(f * lam, nu)) for f in _oracle_simplex_fractions(x))

    for k in range(2, 5):
        offsets = _oracle_split_offsets(k)
        starts = [np.ones(k)]
        alphas = _oracle_kronecker_alphas(k)
        starts.extend(1.0 + 0.75 * (((r + 1) * alphas) % 1.0)
                      for r in range(min(2, budget.restarts - 1)))
        for x0 in starts:
            res = optimize.minimize(split_cost, x0, method="Nelder-Mead",
                                    options=nm_options)
            val = float(split_cost(res.x))
            if val < best_value - 1e-12:
                fr = _oracle_simplex_fractions(res.x)
                best_value = val
                best_splits = tuple((float(f), o) for f, o in zip(fr, offsets))
                best_label = f"parallel-{k}"
                best_extra = {}

    if dim >= 2:
        tangents = np.column_stack(geo.orthonormal_tangents(nu))
        if profile is not None:
            lam_t = [float(v) for v in lam @ tangents]

        def tent_cost(x):
            beta = x[1] if x.size > 1 else 0.0
            if profile is not None:
                return _oracle_tent_normal_value(q, lam_t, profile, x[0], beta)
            return _oracle_tent_value(lam, nu, psi, x[0], beta, tangents)

        tent_starts = [np.array([0.2, 0.0][:dim - 1]),
                       np.array([0.9, 1.3][:dim - 1])]
        alphas = _oracle_kronecker_alphas(dim - 1)
        tent_starts.extend(np.asarray((((r + 1) * alphas) % 1.0) * 1.5)
                           for r in range(min(2, budget.restarts - 1)))
        for x0 in tent_starts:
            res = optimize.minimize(tent_cost, np.atleast_1d(x0), method="Nelder-Mead",
                                    options=nm_options)
            val = float(tent_cost(np.atleast_1d(res.x)))
            if val < best_value - 1e-12:
                best_value = val
                best_splits = None
                best_label = "tent"
                best_extra = {"ridge_height": float(0.49 * np.tanh(float(res.x[0])))}

    competitor = {"family": best_label, "jump": lam.tolist(), "normal": nu.tolist()}
    if best_splits is not None:
        competitor["splits"] = [[float(f), float(o)] for f, o in best_splits]
    competitor.update(best_extra)
    return best_value, best_splits, competitor, {"family": best_label}


def _one_homogeneous_densities():
    for name in ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump"):
        psi = surface_density(name)
        yield psi
        yield dataclasses.replace(psi, name=f"{name}(psi route)", normal_form=None)
    yield surface_density("jump_magnitude")


def _homogeneity_status(psi, dim):
    report = check_surface_axioms(psi, dim=dim, sample_count=200)
    return next(c.status for c in report.checks if c.name == "one_homogeneity")


def _random_cell_data(rng, dim):
    lam = 10.0 ** rng.uniform(-3.0, 1.0) * rng.normal(size=dim)
    nu = rng.normal(size=dim)
    return lam, nu / np.linalg.norm(nu)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_surface_estimate_equals_the_split_family_oracle(dim):
    rng = np.random.default_rng(72 + dim)
    for psi in _one_homogeneous_densities():
        assert _homogeneity_status(psi, dim) == "pass"
        for _ in range(5):
            lam, nu = _random_cell_data(rng, dim)
            sol = estimate_relaxed_surface(lam, nu, psi)
            value, splits, competitor, meta = _oracle_surface_estimate(lam, nu, psi)
            assert sol.value == value, psi.name
            assert sol.meta["family"] == meta["family"], psi.name
            assert sol.splits == splits and sol.competitor == competitor, psi.name
            # The midplane is the competitor; it realizes the value.
            _, realized = realize_surface_competitor(lam, nu, sol.splits, psi)
            assert realized == pytest.approx(sol.value, rel=1e-12, abs=1e-15)


def _count_minimize_calls(monkeypatch):
    """Record res.success of every cell.optimize.minimize call."""
    outcomes = []
    inner = cell.optimize.minimize

    def counting(*args, **kwargs):
        res = inner(*args, **kwargs)
        outcomes.append(bool(res.success))
        return res

    monkeypatch.setattr(cell.optimize, "minimize", counting)
    return outcomes


def test_surface_search_runs_only_where_a_tent_can_win(monkeypatch):
    calls = _count_minimize_calls(monkeypatch)
    rng = np.random.default_rng(75)
    for dim in (1, 2, 3):
        lam, nu = _random_cell_data(rng, dim)
        for name in ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump"):
            calls.clear()
            estimate_relaxed_surface(lam, nu, surface_density(name))
            assert len(calls) == 0, (name, dim)
        calls.clear()
        estimate_relaxed_surface(lam, nu, surface_density("jump_magnitude"))
        # Two closed-form tent starts and two lattice starts; none in 1-D.
        assert len(calls) == (0 if dim == 1 else 4), dim


def _anisotropic_density():
    def fn(lam, nu):
        return float(np.linalg.norm(lam)) * (0.2 + float(nu[-1]) ** 2)

    return SurfaceDensity("anisotropic_magnitude", fn, lower_c1=0.2, upper_C1=1.2)


@pytest.mark.parametrize("dim", [2, 3])
def test_tent_wins_for_an_anisotropic_density(dim):
    psi = _anisotropic_density()
    assert _homogeneity_status(psi, dim) == "pass"
    lam = np.linspace(0.5, 1.0, dim)
    nu = np.eye(dim)[-1]
    sol = estimate_relaxed_surface(lam, nu, psi)
    assert sol.meta["family"] == sol.competitor["family"] == "tent"
    assert sol.splits is None
    assert sol.value < psi(lam, nu) - 0.1
    # Both tilted planes have normal component 1 / s on e_last, where
    # s = sqrt(1 + 4 h^2) is the tent's area factor, so the tent costs
    # |lam| (0.2 s + 1 / s) at its reported ridge height h.
    h = sol.competitor["ridge_height"]
    s = math.sqrt(1.0 + 4.0 * h * h)
    assert sol.value == pytest.approx(np.linalg.norm(lam) * (0.2 * s + 1.0 / s),
                                      rel=1e-12)
    # The cost falls with h on the family's range h < 0.49.
    assert h == pytest.approx(0.49, abs=1e-4)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_squared_magnitude_is_bounded_by_its_midplane(dim):
    psi = surface_density("squared_jump_magnitude")
    assert _homogeneity_status(psi, dim) == "fail"
    rng = np.random.default_rng(76 + dim)
    for _ in range(3):
        lam, nu = _random_cell_data(rng, dim)
        sol = estimate_relaxed_surface(lam, nu, psi)
        # Not one-homogeneous, so n planes carrying lam / n would cost
        # psi / n; no parallel stack is searched and the midplane stands.
        assert sol.meta["family"] == "midplane"
        assert sol.splits == ((1.0, 0.0),)
        assert sol.value == psi(lam, nu)


def test_splitting_the_jump_never_helps_the_abs_kernel():
    rng = np.random.default_rng(66)
    for _ in range(10):
        lam = rng.normal(size=2)
        nu = rng.normal(size=2)
        nu /= np.linalg.norm(nu)
        single = abs(float(lam @ nu))
        for splits in (((0.5, -0.2), (0.5, 0.2)),
                       ((0.25, -0.3), (0.5, 0.0), (0.25, 0.3))):
            _, split_energy = realize_surface_competitor(lam, nu,
                                                         splits=splits,
                                                         psi=PSI_ABS)
            assert split_energy >= single - 1e-9


def test_realized_surface_competitor_energy_is_fraction_weighted():
    lam = np.array([0.4, 0.3])
    nu = np.array([0.0, 1.0])
    splits = ((0.3, -0.25), (0.7, 0.15))
    _, total = realize_surface_competitor(lam, nu, splits=splits, psi=PSI_ABS)
    expected = sum(frac * PSI_ABS(frac * lam, nu) / frac for frac, _ in splits)
    assert total == pytest.approx(expected, abs=1e-12)
    assert total == pytest.approx(abs(float(lam @ nu)), abs=1e-12)


def test_cell_solution_rejects_non_finite_values():
    with pytest.raises(NumericalFailureError) as err:
        CellSolution(value=float("nan"), kind="bulk")
    assert "competitor" in err.value.payload


def test_bulk_estimate_surfaces_density_failures():
    bad = BulkDensity("nan_density", lambda A: float("nan"))
    with pytest.raises(NumericalFailureError) as err:
        estimate_relaxed_bulk(np.eye(2), np.zeros((2, 2)),
                              DensitySet.simple(bad, PSI_ABS))
    assert "competitor" in err.value.payload


# Kept copy of the bulk frame search that ran Nelder-Mead from every start,
# whatever the density. It shares the starts (cell._frame_starts) and the
# angle folding with the estimator.

def _oracle_frame_search(M, psi, budget=OptimizerBudget()):
    """(value, angles) of the multistart simplex search over frames."""
    dim = M.shape[1]
    nm_options = {"maxiter": budget.max_iterations,
                  "xatol": budget.simplex_tolerance,
                  "fatol": budget.simplex_tolerance}

    def objective(theta):
        return frame_cost(M, Frame(tuple(theta), dim), psi)

    results = []
    for start in cell._frame_starts(M, budget):
        res = optimize.minimize(objective, np.asarray(start), method="Nelder-Mead",
                                options=nm_options)
        angles = _canonical_angles(res.x)
        results.append((float(objective(angles)), angles))
    results.sort(key=lambda t: (round(t[0], 10), t[1]))
    return results[0]


def _normal_jump_densities():
    for name in ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump"):
        yield surface_density(name)


def _scaled_pair(rng, shape):
    scale = 10.0 ** rng.uniform(-3.0, 1.0)
    return scale * rng.normal(size=shape), scale * rng.normal(size=shape)




@pytest.mark.parametrize("dim", [2, 3])
def test_trace_floor_matches_the_multistart_oracle(dim, monkeypatch):
    rng = np.random.default_rng(80 + dim)
    outcomes = _count_minimize_calls(monkeypatch)
    for psi in _normal_jump_densities():
        plain = dataclasses.replace(psi, normal_form=None)
        ds, ds_plain = (DensitySet.simple(bulk_density("zero"), p) for p in (psi, plain))
        for scale in (1e-3, 1e-1, 1.0, 10.0):
            A, B = scale * rng.normal(size=(2, dim, dim))
            M = A - B
            floor = float(psi.normal_form(np.trace(M)))
            outcomes.clear()
            sol = estimate_relaxed_bulk(A, B, ds)
            assert outcomes == [] and sol.meta["route"] == "trace-floor", psi.name
            assert (sol.meta["searches"], sol.meta["unconverged"]) == (0, 0)
            oracle_value, _ = _oracle_frame_search(M, psi)
            assert abs(sol.value - oracle_value) <= 1e-12 * max(1.0, abs(floor)), psi.name
            assert abs(sol.value - floor) <= 1e-12 * max(1.0, abs(floor)), psi.name
            assert frame_cost(M, sol.frame, psi) == sol.value
            assert all(0.0 <= a < np.pi for a in sol.frame.angles)
            # Without normal_form the search runs as before, from every start.
            outcomes.clear()
            slow = estimate_relaxed_bulk(A, B, ds_plain)
            assert len(outcomes) == OptimizerBudget().restarts
            assert slow.meta["route"] == "search"
            assert (slow.value, slow.frame.angles) == _oracle_frame_search(M, plain)


def test_search_runs_when_no_start_reaches_the_floor(monkeypatch):
    # The identity frame costs 1 + 1e-4, within 1e-3 of the floor |tr M|,
    # and is the only start: the search must still run from it.
    monkeypatch.setattr(cell, "_frame_starts", lambda M, budget: [(0.0,)])
    outcomes = _count_minimize_calls(monkeypatch)
    A = np.diag([1.0, -1e-4])
    sol = estimate_relaxed_bulk(A, np.zeros((2, 2)), DS_ABS)
    assert len(outcomes) == 1 and sol.meta["route"] == "search"
    assert sol.value == pytest.approx(1.0 - 1e-4, abs=1e-9)
    assert (sol.value, sol.frame.angles) == _oracle_frame_search(A, PSI_ABS)


def test_search_counters_match_the_minimize_calls(monkeypatch):
    outcomes = _count_minimize_calls(monkeypatch)
    rng = np.random.default_rng(84)
    magnitude = DensitySet.simple(bulk_density("zero"), surface_density("jump_magnitude"))
    well = DensitySet.simple(_rank_one_double_well(), PSI_ABS)
    short = OptimizerBudget(max_iterations=3)
    cases = [
        # (A, B, densities, budget, Nelder-Mead runs expected)
        (*rng.normal(size=(2, 2, 2)), DS_ABS, None, 0),
        (*rng.normal(size=(2, 3, 3)), DS_ABS, None, 0),
        (*rng.normal(size=(2, 2, 2)), magnitude, None, 8),
        (*rng.normal(size=(2, 3, 3)), magnitude, short, 8),
        (*rng.normal(size=(2, 2, 3)), DS_LEADING, None, 8),    # non-square M
        (*rng.normal(size=(2, 3, 2)), DS_LEADING, short, 8),
        (np.zeros((2, 2)), np.zeros((2, 2)), well, None, 8),   # laminate only
        (*rng.normal(size=(2, 1, 1)), DS_ABS, None, 0),
    ]
    for A, B, ds, budget, expected in cases:
        outcomes.clear()
        sol = estimate_relaxed_bulk(A, B, ds, budget)
        assert len(outcomes) == expected
        assert sol.meta["searches"] == len(outcomes)
        assert sol.meta["unconverged"] == outcomes.count(False)
        # Three iterations leave every search unconverged.
        assert budget is not short or sol.meta["unconverged"] == expected
    for dim in (1, 2, 3):
        lam, nu = _random_cell_data(rng, dim)
        for psi, budget in ((PSI_ABS, None), (surface_density("jump_magnitude"), None),
                            (surface_density("jump_magnitude"), short)):
            outcomes.clear()
            sol = estimate_relaxed_surface(lam, nu, psi, budget)
            assert sol.meta["searches"] == len(outcomes)
            assert sol.meta["unconverged"] == outcomes.count(False)
            assert budget is not short or sol.meta["unconverged"] == (dim > 1) * 4


def test_unsquare_pairs_keep_the_multistart_search():
    rng = np.random.default_rng(85)
    for shape in ((2, 3), (3, 2), (1, 2), (1, 3)):
        A, B = _scaled_pair(rng, shape)
        sol = estimate_relaxed_bulk(A, B, DS_LEADING)
        assert sol.meta["route"] == "search"
        assert (sol.value, sol.frame.angles) == _oracle_frame_search(A - B, PSI_LEADING)


RATE_CONSTANT = 8.0


def _certified_staircase_problems(A, B, sol, schedule):
    """Envelope n * gap_n <= 8 |A - B|_F at every n, and n * gap_n settling
    within 8 |A - B|_F / n1 between the last two refinements n1 < n2."""
    scale = float(np.linalg.norm(A - B))
    ns = [n for n, _ in sol.meta["realized"]]
    assert ns == list(schedule)
    scaled = [n * abs(sol.value - e) for n, e in sol.meta["realized"]]
    problems = [(n, s) for n, s in zip(ns, scaled)
                if s > RATE_CONSTANT * scale + 1e-12]
    if abs(scaled[-1] - scaled[-2]) > RATE_CONSTANT * scale / ns[-2] + 1e-12:
        problems.append(("settling", scaled[-2], scaled[-1]))
    return problems


def _seeded_pairs_2d():
    # Pair 3 of the eight drawn from seed (1102, 16) failed the settling
    # rule with the frame the multistart search used to return.
    rng = np.random.default_rng(np.random.SeedSequence([1102, 16]))
    pairs = [(rng.normal(size=(2, 2)), rng.normal(size=(2, 2))) for _ in range(8)]
    yield pairs[3]
    rng = np.random.default_rng(86)
    for _ in range(10):
        yield rng.normal(size=(2, 2)), rng.normal(size=(2, 2))


def test_certified_staircases_settle_at_rate_one_over_n():
    schedule = (4, 8, 16, 32)
    budget = OptimizerBudget(certify=True, n_schedule=schedule)
    for A, B in _seeded_pairs_2d():
        sol = estimate_relaxed_bulk(A, B, DS_ABS, budget)
        floor = abs(np.trace(A - B))
        assert abs(sol.value - floor) <= 1e-8 * max(1.0, floor)
        assert _certified_staircase_problems(A, B, sol, schedule) == []


def test_budget_errors_are_config_errors():
    for bad in ({"restarts": 0}, {"max_iterations": 2.0}, {"simplex_tolerance": math.nan},
                {"n_schedule": ()}, {"n_schedule": (4, -8)}):
        with pytest.raises(ConfigError):
            OptimizerBudget(**bad)
    assert issubclass(ConfigError, ValueError)
    assert OptimizerBudget(n_schedule=[np.int64(4), 8]).n_schedule == (4, 8)
