"""Numerical cell problems for relaxed bulk and interfacial densities.

The bulk problem asks for the cheapest way to realize a mean gradient B
inside the unit cube while the boundary carries the affine datum A x; the
surface problem asks for the cheapest jump set realizing a two-valued
boundary datum on a rotated unit cube. Both are attacked with explicit
competitor families whose energies have closed forms:

* bulk: clamped staircases built on a rank-one frame decomposition of
  A - B, whose energy tends to the frame cost as the staircase refines.
  The estimate minimizes the limiting frame cost over frames. For a square
  A - B under a declared normal_form f, no frame costs less than the trace
  floor f(tr(A - B)): f is nonnegative and one-homogeneous, hence convex
  and subadditive, and the diagonal of R^T (A - B) R sums to the trace. So
  the closed-form and lattice starts are priced first, and when one of them
  costs the floor it is returned with no search; otherwise, and for every
  other density, a multistart Nelder-Mead search runs from those starts.
  One start makes that diagonal constant, tr(A - B) / n, in closed form
  (one Givens angle in 2-D, two rotations of an eigenbasis in 3-D); it
  costs n f(tr(A - B) / n) = f(tr(A - B)), so up to rounding the floor is
  reached for every square A - B, traceless ones included.
  A dense frame-grid oracle provides an independent upper-bound check.
* surface: a single midplane (cost exactly Psi(jump, normal)) and
  two-plane tent profiles. The surface densities of the relaxation setting
  are positively one-homogeneous in the jump, so a stack of parallel
  planes sharing the jump costs what the midplane costs and is not
  searched; a declared normal_form f is moreover nonnegative, hence convex,
  so no tent beats the midplane either and that density is not searched
  at all.

Estimates are deterministic: restarts come from closed-form seeds and a
low-discrepancy lattice, never from a random source.

Every frame is priced by core.frame_cost, which calls Psi once per frame
column. The one exception is the frame grid of a square M under a density
declaring a normal_form profile f (Psi(jump, normal) = f(jump . normal)):
it reads f off the diagonal of R^T M R, built in stages from closed forms,
and in 3-D prices one last angle per row of the grid (see
frame_grid_minimum).
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import optimize

from . import geometry as geo
from .core import (ANGLE_COUNT, Frame, as_matrix, as_unit_vector,
                   decompose_by_frame, frame_angles_from_matrix, frame_cost,
                   frame_matrix, identity_frame)
from .energy import DensitySet, bulk_density, energy as total_energy
from .errors import ConfigError, DimensionMismatchError, NumericalFailureError
from .fields import jump_competitor, jump_measure, staircase_sequence

DEFAULT_GRID_RESOLUTION = {1: 1, 2: 720, 3: 60}


@dataclass(frozen=True)
class OptimizerBudget:
    """Effort knobs for the cell-problem searches.

    restarts, max_iterations and simplex_tolerance steer each Nelder-Mead
    search. The bulk frame search of a square A - B under a density
    declaring normal_form runs none when one of its closed-form starts
    already costs the trace floor f(tr(A - B)), which the equalizing start
    does up to rounding, so there restarts only matters when rounding
    leaves every start above the floor. n_schedule lists the staircase
    refinements used when a competitor is realized; certify=True realizes
    them eagerly and stores the energies in the solution metadata.

    restarts and max_iterations are integers >= 1, simplex_tolerance is
    finite and > 0, n_schedule is a nonempty sequence of integers >= 1 and
    certify is a bool; anything else raises ConfigError.
    """

    restarts: int = 8
    max_iterations: int = 200
    simplex_tolerance: float = 1e-9
    n_schedule: tuple = (4, 8, 16, 32)
    certify: bool = False

    def __post_init__(self):
        for name in ("restarts", "max_iterations"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ConfigError(f"OptimizerBudget.{name} must be an integer >= 1,"
                                  f" not {value!r}")
        tol = self.simplex_tolerance
        if not ((_is_integer(tol) or isinstance(tol, (float, np.floating)))
                and math.isfinite(tol) and tol > 0):
            raise ConfigError("OptimizerBudget.simplex_tolerance must be finite"
                              f" and > 0, not {tol!r}")
        schedule = tuple(self.n_schedule) if np.iterable(self.n_schedule) else ()
        if not (schedule and all(_is_integer(n) and n >= 1 for n in schedule)):
            raise ConfigError("OptimizerBudget.n_schedule must be a nonempty list"
                              f" of integers >= 1, not {self.n_schedule!r}")
        if not isinstance(self.certify, (bool, np.bool_)):
            raise ConfigError(f"OptimizerBudget.certify must be true or false,"
                              f" not {self.certify!r}")
        object.__setattr__(self, "n_schedule", tuple(int(n) for n in schedule))


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def nelder_mead(fun, x0, budget, effort):
    """One simplex search under the budget, counted in the effort dict."""
    res = optimize.minimize(fun, np.asarray(x0, dtype=float), method="Nelder-Mead",
                            options={"maxiter": budget.max_iterations,
                                     "xatol": budget.simplex_tolerance,
                                     "fatol": budget.simplex_tolerance})
    effort["searches"] += 1
    effort["unconverged"] += int(not res.success)
    return res


@dataclass(frozen=True)
class CellSolution:
    """Outcome of one cell-problem estimate.

    Every solution is an upper bound witnessed by an explicit competitor;
    competitor holds a plain-data description of it and refinement_n the
    finest staircase refinement used to realize it (None for competitors
    that need no refining).
    """

    value: float
    kind: str                      # "bulk", "surface" or "interface"
    frame: Frame = None            # bulk: minimizing frame
    splits: tuple = None           # surface: ((fraction, offset), ...) if planar
    refinement_n: int = None
    competitor: dict = None
    bound_kind: str = "upper"
    method: str = ""
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise NumericalFailureError(
                f"cell estimate produced a non-finite value {self.value!r}",
                payload={"competitor": self.competitor, "method": self.method})


def _kronecker_alphas(count):
    """Irrational step vector of the rank-count lattice sequence."""
    g = 1.5
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (count + 1))
    return (1.0 / g) ** np.arange(1, count + 1)


def _lattice_angles(count, index):
    alphas = _kronecker_alphas(count)
    return tuple(np.pi * ((0.5 + (index + 1) * alphas) % 1.0))


def _fold_angle(a):
    """a reduced into [0, pi) and the parity of the multiple of pi removed.

    Within 1e-12 below pi the angle wraps to 0 and counts one more shift;
    a remainder a hair below 0, left when a / pi rounds up, counts as 0.
    """
    k = math.floor(a / math.pi)
    r = a - k * math.pi
    if r < 0.0:
        r = 0.0
    elif r > math.pi - 1e-12:
        r, k = 0.0, k + 1
    return r, k % 2 == 1


def _canonical_angles(angles):
    """Frame angles in [0, pi) pricing the same as the given ones.

    Shifting an angle by pi negates some frame columns, which leaves every
    density even under (jump, normal) -> (-jump, -normal) unchanged. In 3-D
    only t3 carries that shift alone: (t1 + pi, t2, t3) prices like
    (t1, -t2, -t3) and (t1, t2 + pi, t3) like (t1, t2, -t3), so t1 and then
    t2 are folded with those sign flips before t3.
    """
    angles = [float(a) for a in angles]
    if len(angles) == 3:
        angles[0], odd = _fold_angle(angles[0])
        if odd:
            angles[1], angles[2] = -angles[1], -angles[2]
        angles[1], odd = _fold_angle(angles[1])
        if odd:
            angles[2] = -angles[2]
    return tuple(_fold_angle(a)[0] for a in angles)


def _special_orthogonal(V):
    V = np.array(V, dtype=float)
    if np.linalg.det(V) < 0.0:
        V[:, -1] = -V[:, -1]
    return V


def _equalizing_angles_2d(M):
    """Closed-form frames giving the rotated matrix a constant diagonal."""
    D = M[0, 0] - M[1, 1]
    S = 0.5 * (M[0, 1] + M[1, 0])
    phi = np.arctan2(S, 0.5 * D)
    return [((phi + 0.5 * np.pi) / 2.0,), ((phi - 0.5 * np.pi) / 2.0,)]


def _givens(theta, i, j):
    """3x3 rotation G by theta in the (i, j) plane: R @ G turns R's column i to j."""
    G = np.eye(3)
    G[i, i] = G[j, j] = math.cos(theta)
    G[j, i] = math.sin(theta)
    G[i, j] = -G[j, i]
    return G


def _equalizing_frame_3d(M, w, V):
    """Rotation R whose R^T M R has the constant diagonal tr M / 3.

    w (ascending) and V (det +1) are the eigenvalues and eigenvectors of
    sym(M), which has the diagonal of M in every frame. Turning column 0 of
    V towards column 2 by s^2 = (t - w0) / (w2 - w0) sets diagonal entry 0
    to t = tr M / 3, which lies in [w0, w2]; the other two columns then hold
    a block of trace 2 t, which the 2-D closed form equalizes. For w0 = w2,
    sym(M) = t I and V already does.
    """
    t = (w[0] + w[1] + w[2]) / 3.0
    R = V
    if w[2] > w[0]:
        s2 = min(1.0, max(0.0, (t - w[0]) / (w[2] - w[0])))
        R = R @ _givens(math.asin(math.sqrt(s2)), 0, 2)
    block = R[:, 1:].T @ M @ R[:, 1:]
    (theta,), _ = _equalizing_angles_2d(block)
    return R @ _givens(theta, 1, 2)


def _frame_starts(M, budget):
    """Deterministic initial frames for the bulk search.

    The identity, then for a square M the eigenvectors of sym(M), the right
    singular vectors of M and the frames equalizing the diagonal of
    R^T M R (two closed forms in 2-D, one in 3-D), which one
    eigendecomposition of sym(M) serves; then lattice frames up to
    budget.restarts.
    """
    dim = M.shape[1]
    n_angles = ANGLE_COUNT[dim]
    starts = [tuple(0.0 for _ in range(n_angles))]
    if M.shape[0] == dim:
        w, V = np.linalg.eigh(0.5 * (M + M.T))
        V = _special_orthogonal(V)
        starts.append(frame_angles_from_matrix(V).angles)
        _, _, Vt = np.linalg.svd(M)
        starts.append(frame_angles_from_matrix(_special_orthogonal(Vt.T)).angles)
        if dim == 2:
            starts.extend(_equalizing_angles_2d(M))
        elif dim == 3:
            starts.append(frame_angles_from_matrix(_equalizing_frame_3d(M, w, V)).angles)
    while len(starts) < budget.restarts:
        starts.append(_lattice_angles(n_angles, len(starts)))
    return starts


def _rotated_diagonal(a, sym, b, c, s):
    """Diagonal of G^T [[a, .], [., b]] G for the Givens rotation (c, s).

    sym is the sum of the two off-diagonal entries; the arguments broadcast.
    """
    cc, cs, ss = c * c, c * s, s * s
    return cc * a + cs * sym + ss * b, ss * a - cs * sym + cc * b


def _normal_form_grid_costs(M, psi, resolution):
    """Grid frame costs sum_i f(r_i . M r_i) of a square M, as (costs, last).

    In 2-D the diagonal of R^T M R is one closed form over the angles, costs
    holds every grid frame and last is None. In 3-D, R = P G12(t3) with
    P = G01(t1) G02(t2): column 0 of R is p0, and columns 1 and 2 rotate p1,
    p2 by t3, so the diagonal comes from the resolution^2 quadratic forms
    p_i . M p_j and one closed form along t3, m +- x(t3) with
    x(t3) = h cos 2t3 + g sin 2t3. costs holds one cost per (t1, t2) row, in
    row order, at the row's grid t3 of smallest |x| (frame_grid_minimum
    says why that t3 is a cheapest one), ties to the lowest index, and last
    that t3's grid index. Only the grid points on either side of the two
    zeros of x, and index 0 for an x that vanishes identically, are compared.
    """
    f = psi.profile_values
    th = np.arange(resolution) * np.pi / resolution
    c, s = np.cos(th), np.sin(th)
    if M.shape[1] == 2:
        d0, d1 = _rotated_diagonal(M[0, 0], M[0, 1] + M[1, 0], M[1, 1], c, s)
        return f(d0) + f(d1), None
    c1, s1 = c[:, None], s[:, None]
    c2, s2 = (np.broadcast_to(v, (resolution, resolution)) for v in (c, s))
    p0 = np.stack([c1 * c2, s1 * c2, s2], axis=-1)
    p1 = np.stack([-s, c, np.zeros(resolution)], axis=-1)[:, None, :]
    p2 = np.stack([-c1 * s2, -s1 * s2, c2], axis=-1)

    def form(u, A, v):
        return np.einsum("...j,jk,...k->...", u, A, v)

    d0 = form(p0, M, p0)
    a, sym, b = form(p1, M, p1), form(p1, M + M.T, p2), form(p2, M, p2)
    h, g = 0.5 * (a - b), 0.5 * sym
    # x = r cos(2 t3 - phi) vanishes at t3 = phi / 2 + pi / 4 (mod pi / 2);
    # zero is that t3 in grid steps.
    zero = (np.arctan2(g, h) / np.pi + 0.5) * (0.5 * resolution)
    first, second = np.floor(zero), np.floor(zero + 0.5 * resolution)
    candidates = np.stack([np.zeros_like(first), first, first + 1.0,
                           second, second + 1.0]).astype(np.intp)
    # Sorted, so that argmin takes the lowest index among ties.
    candidates = np.sort(candidates % resolution, axis=0)
    x = np.abs(h * np.cos(2.0 * th)[candidates] + g * np.sin(2.0 * th)[candidates])
    last = np.take_along_axis(candidates, x.argmin(axis=0)[None], axis=0)[0]
    d1, d2 = _rotated_diagonal(a, sym, b, c[last], s[last])
    return (f(d0) + f(d1) + f(d2)).reshape(-1), last.reshape(-1)


def frame_grid_minimum(M, psi, resolution=None):
    """Cheapest grid frame for M and the value there, as (value, frame).

    Grid angles run through multiples of pi/resolution per Givens angle,
    the grid order running fastest in the last angle, and ties resolve to
    the first frame in that order; resolution is None (the dimension's
    default) or an integer >= 1. Any density without normal_form, or a
    non-square M, is priced by frame_cost at every grid frame,
    resolution^3 of them in 3-D.

    For a square M and a density declaring normal_form f the costs
    sum_i f(r_i . M r_i) come from closed forms for the diagonal of
    R^T M R, built in stages. In 3-D each (t1, t2) row is priced at one
    last angle t3 only: along t3 the two rotated diagonal entries are
    m + x(t3) and m - x(t3), with m fixed and x(t3) = r cos(2 t3 - phi). A
    declared f is certified nonnegative and one-homogeneous, so it is
    convex, and f(m + x) + f(m - x) is even and convex in x, hence
    nondecreasing in |x|. The grid t3 of smallest |x| (ties to the lowest
    index) is thus a cheapest one of its row; it is one of the grid points
    on either side of the zeros of x, which are all that is compared. The
    first minimal row gives the frame. This uses only the certified
    properties of f, never a closed form of the relaxed density, and the
    value is a grid cost, so it stays within rounding of the full grid's
    minimum; among frames tied up to rounding another one may be returned.
    """
    M = as_matrix(M)
    dim = M.shape[1]
    if resolution is not None and not (_is_integer(resolution) and resolution >= 1):
        raise ConfigError(f"grid resolution must be an integer >= 1, not {resolution!r}")
    if dim == 1:
        frame = identity_frame(1)
        return frame_cost(M, frame, psi), frame
    resolution = resolution or DEFAULT_GRID_RESOLUTION[dim]
    last = None
    if getattr(psi, "normal_form", None) is not None and M.shape[0] == dim:
        costs, last = _normal_form_grid_costs(M, psi, resolution)
    else:
        th = np.arange(resolution) * np.pi / resolution
        costs = np.array([frame_cost(M, Frame(angles, dim), psi)
                          for angles in itertools.product(th, repeat=ANGLE_COUNT[dim])])
    best = int(np.argmin(costs))
    if last is None:
        indices = np.unravel_index(best, (resolution,) * ANGLE_COUNT[dim])
    else:
        indices = (*divmod(best, resolution), int(last[best]))
    angles = tuple(k * np.pi / resolution for k in indices)
    return float(costs[best]), Frame(_canonical_angles(angles), dim)


def realize_bulk_competitor(A, B, frame, n, densities=None, domain=None):
    """Clamped staircase at refinement n together with its realized energy.

    With densities=None only the field comes back (energy None); otherwise
    the energy is evaluated under the given plain density set.
    """
    u = staircase_sequence(A, B, frame, n, domain=domain, clamp=True)
    if densities is None:
        return u, None
    return u, total_energy(u, densities)


def _laminate_minimum(W, B, budget, effort):
    """Best averaged bulk value of two-gradient laminates around B.

    The laminate alternates gradients B + p (x) q and B - p (x) q in equal
    slabs, averaging to B while staying continuous across the interfaces
    (the difference is rank-one), so its limiting bulk cost is the mean of
    W at the two gradients and no surface term appears. Convex W never
    gains; a nonconvex W can. Returns (value, params) with params None when
    the plain gradient B wins.
    """
    codim, dim = B.shape
    k = codim + dim

    def objective(z):
        X = np.outer(z[:codim], z[codim:])
        return 0.5 * (float(W(B + X)) + float(W(B - X)))

    base = float(W(B))
    best, best_z = base, None
    alphas = _kronecker_alphas(k)
    starts = [0.25 * np.ones(k), -0.5 * np.ones(k)]
    starts.extend(2.0 * (((r + 1) * alphas) % 1.0) - 1.0
                  for r in range(max(1, budget.restarts - 2)))
    for z0 in starts:
        res = nelder_mead(objective, z0, budget, effort)
        val = float(objective(res.x))
        if not np.isfinite(val):
            raise NumericalFailureError(
                "laminate search hit a non-finite bulk value",
                payload={"competitor": {"family": "two-gradient-laminate",
                                        "parameters": np.asarray(res.x).tolist()}})
        if val < best - 1e-12:
            best = val
            best_z = np.asarray(res.x, dtype=float)
    if best_z is None:
        return base, None
    return best, {"amplitude": best_z[:codim].tolist(),
                  "direction": best_z[codim:].tolist()}


def estimate_relaxed_bulk(A, B, densities, budget=None):
    """Upper cell-problem estimate via the clamped staircase family.

    densities bundles the bulk and surface densities of the plain scenario.
    The value is the staircase family's limiting energy: the bulk term at
    the target gradient B (routed through a two-gradient laminate around B
    whenever that is cheaper) plus the frame cost of A - B at the best
    frame found. Staircases at the budget's n_schedule realize the
    competitor sequence; their energies converge to the value at rate 1/n,
    and certify=True evaluates and stores them.

    The frames come from deterministic starts (closed forms, then a
    lattice). For a square M = A - B and a density declaring normal_form f,
    every frame costs at least the trace floor f(tr M): f is certified
    nonnegative and one-homogeneous, hence convex and subadditive, and the
    diagonal of R^T M R sums to tr M. When some start costs the floor to
    within 1e-12 max(1, |f(tr M)|), the best such start is returned and no
    simplex search runs (route "trace-floor"); otherwise a Nelder-Mead
    search runs from every start (route "search"). In 1-D the identity is
    the only frame (route "single-frame"). The floor never enters
    the value, which is always the frame cost at the returned frame. Ties
    within 1e-10 resolve, among the frames examined, to the
    lexicographically smallest angle tuple modulo pi. meta records the
    route, the Nelder-Mead runs (searches, laminate included) and those
    ending unconverged.
    """
    budget = budget or OptimizerBudget()
    A = as_matrix(A)
    B = as_matrix(B, dim=A.shape[1])
    if A.shape != B.shape:
        raise DimensionMismatchError(f"gradient shapes differ: {A.shape} vs {B.shape}")
    W, psi = densities.require_simple()
    M = A - B
    dim = A.shape[1]
    effort = {"searches": 0, "unconverged": 0}

    laminate = None
    if getattr(W, "is_zero", False):
        bulk_part = 0.0
    else:
        bulk_part, laminate = _laminate_minimum(W, B, budget, effort)

    if dim == 1:
        frame = identity_frame(1)
        surface_part = frame_cost(M, frame, psi)
        meta = {"starts": 1, "n_schedule": budget.n_schedule,
                "family": "clamped-staircase", "spread": 0.0,
                "route": "single-frame"}
        method = "staircase-limit"
    else:
        def priced(angles):
            val = frame_cost(M, Frame(angles, dim), psi)
            if not np.isfinite(val):
                raise NumericalFailureError(
                    "frame search hit a non-finite surface cost",
                    payload={"competitor": {"family": "clamped-staircase",
                                            "frame_angles": list(angles)}})
            return val, angles

        starts = _frame_starts(M, budget)
        results = []
        profile = getattr(psi, "normal_form", None)
        if profile is not None and M.shape[0] == dim:
            floor = float(profile(np.trace(M)))
            ceiling = floor + 1e-12 * max(1.0, abs(floor))
            results = [r for r in (priced(_canonical_angles(s)) for s in starts)
                       if r[0] <= ceiling]
        if results:
            route, method = "trace-floor", "staircase-limit+trace-floor"
        else:
            route, method = "search", "staircase-limit+nelder-mead"

            def objective(theta):
                return frame_cost(M, Frame(tuple(theta), dim), psi)

            for start in starts:
                res = nelder_mead(objective, start, budget, effort)
                results.append(priced(_canonical_angles(res.x)))
        results.sort(key=lambda t: (round(t[0], 10), t[1]))
        surface_part, best_angles = results[0]
        frame = Frame(best_angles, dim)
        meta = {"starts": len(starts), "n_schedule": budget.n_schedule,
                "family": "clamped-staircase",
                "spread": float(results[-1][0] - results[0][0]),
                "route": route}
    meta.update(effort)

    R, MR = decompose_by_frame(M, frame)
    n_star = int(max(budget.n_schedule))
    competitor = {"family": "clamped-staircase",
                  "frame_angles": list(frame.angles),
                  "amplitudes": MR.T.tolist(),
                  "normals": R.T.tolist(),
                  "refinement": n_star}
    if laminate is not None:
        competitor["laminate"] = laminate
        meta["laminate_gain"] = float(W(B)) - bulk_part
    meta["bulk_term"] = float(bulk_part)
    meta["surface_term"] = float(surface_part)
    if budget.certify:
        realized = []
        for n in budget.n_schedule:
            _, e_n = realize_bulk_competitor(A, B, frame, n, densities=densities)
            realized.append((int(n), float(e_n)))
        meta["realized"] = tuple(realized)
    return CellSolution(value=bulk_part + surface_part, kind="bulk", frame=frame,
                        refinement_n=n_star, competitor=competitor,
                        method=method, meta=meta)


# ---------------------------------------------------------------------------
# Surface cell problem.

def _tent_value(lam, nu, psi, t, beta, tangents):
    """Cost of the two-plane tent with ridge height parameter t."""
    h = 0.49 * np.tanh(t)
    if tangents.shape[1] == 1:
        tau = tangents[:, 0]
    else:
        tau = np.cos(beta) * tangents[:, 0] + np.sin(beta) * tangents[:, 1]
    scale = np.sqrt(1.0 + 4.0 * h * h)
    mu_up = (nu - 2.0 * h * tau) / scale
    mu_dn = (nu + 2.0 * h * tau) / scale
    return 0.5 * scale * (float(psi(lam, mu_up)) + float(psi(lam, mu_dn)))


def estimate_relaxed_surface(jump, normal, psi, budget=None):
    """Upper estimate of the surface cell problem on the rotated unit cube.

    The flat midplane costs exactly psi(jump, normal) and wins ties. A
    density declaring normal_form f gets it with no search: f is taken as
    nonnegative and one-homogeneous (check_surface_axioms certifies both),
    so f(q) = f(1) q+ + f(-1) q- is convex and, by Jensen, a tent of area
    factor s with tilted normal components q_up, q_dn averaging q / s costs
    (s / 2) (f(q_up) + f(q_dn)) >= s f(q / s) = f(q). Any other density in
    two or more dimensions is searched over two-plane tent profiles that
    trade extra area for tilted normals, each priced by calling psi; meta
    records those Nelder-Mead runs (searches) and the ones ending
    unconverged. Stacks of parallel planes are not searched: for a
    one-homogeneous density, fractions t_i of the jump cost
    sum_i t_i psi(jump, normal), the midplane's cost.
    """
    budget = budget or OptimizerBudget()
    lam = np.asarray(jump, dtype=float).reshape(-1)
    nu = as_unit_vector(normal)
    dim = nu.size

    best_value = float(psi(lam, nu))
    best_splits = ((1.0, 0.0),)
    best_label = "midplane"
    best_extra = {}
    effort = {"searches": 0, "unconverged": 0}

    if getattr(psi, "normal_form", None) is None and dim >= 2:
        tangents = np.column_stack(geo.orthonormal_tangents(nu))

        def tent_cost(x):
            beta = x[1] if x.size > 1 else 0.0
            return _tent_value(lam, nu, psi, x[0], beta, tangents)

        tent_starts = [np.array([0.2, 0.0][:dim - 1]),
                       np.array([0.9, 1.3][:dim - 1])]
        alphas = _kronecker_alphas(dim - 1)
        tent_starts.extend(np.asarray((((r + 1) * alphas) % 1.0) * 1.5)
                           for r in range(min(2, budget.restarts - 1)))
        for x0 in tent_starts:
            res = nelder_mead(tent_cost, x0, budget, effort)
            val = float(tent_cost(res.x))
            if not np.isfinite(val):
                raise NumericalFailureError(
                    "tent search hit a non-finite cost",
                    payload={"competitor": {"family": "tent",
                                            "parameters": res.x.tolist()}})
            if val < best_value - 1e-12:
                h = 0.49 * np.tanh(float(res.x[0]))
                best_value = val
                best_splits = None
                best_label = "tent"
                best_extra = {"ridge_height": float(h)}

    competitor = {"family": best_label,
                  "jump": lam.tolist(), "normal": nu.tolist()}
    if best_splits is not None:
        competitor["splits"] = [[float(f), float(o)] for f, o in best_splits]
    competitor.update(best_extra)
    meta = {"family": best_label, **effort}
    return CellSolution(value=best_value, kind="surface", splits=best_splits,
                        competitor=competitor, method="competitor-families",
                        meta=meta)


def realize_surface_competitor(jump, normal, splits=((1.0, 0.0),), psi=None):
    """Planar competitor field and, when psi is given, its realized cost."""
    u = jump_competitor(jump, normal, splits)
    if psi is None:
        return u, None
    return u, jump_measure(u, psi)
