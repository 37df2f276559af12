"""Two-phase optimal design on fractured media.

A phase field chi marks each mesh cell as material 0 or 1. The design
energy selects the bulk and surface densities by phase, charges a pair
density on facets where the deformation and the phase jump together, and
adds the perimeter of the phase interface. The relaxed counterparts are
estimated with the same competitor philosophy as the plain cell problems:

* bulk: the phase-i cell problem simply delegates to the staircase
  estimate with the phase-i densities;
* interface: layered competitors, piecewise constant in the direction of
  the interface normal with at most two jump planes per field. Only the
  ordering and coincidence of the planes matter (every plane section of
  the rotated unit cube has unit area), so the search is an exact
  enumeration over plane patterns plus a one-dimensional optimization of
  the free intermediate value. Three exact shortcuts keep it small without
  changing its result: a pattern's cost is fixed by its sequence of
  (phase jumps?, deformation jumps?) events over the occupied slots, so
  each sequence is scored once; with nonnegative densities a pattern
  costs at least its number of phase planes, so a pattern whose perimeter
  cannot beat the best value found is skipped with all its searches; and
  when Psi1_0, Psi1_1 and Psi2 all declare a normal_form profile, no
  two-deformation-plane pattern can beat the one-plane pattern it
  contains, so those patterns and their intermediate-value searches are
  left out (route "single-plane"). Without all three profiles the
  searches still run (route "search"), and there they can win.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .cell import CellSolution, OptimizerBudget, estimate_relaxed_bulk, nelder_mead
from .core import as_unit_vector, as_vector
from .energy import DensitySet
from .errors import DimensionMismatchError, MeshMismatchError
from .fields import GridField, GridMesh, grid_face_facet

_SLOTS = (-0.25, 0.0, 0.25)


@dataclass(frozen=True)
class PhaseField:
    """Cellwise material indicator on a grid mesh; values are exactly 0 or 1."""

    mesh: GridMesh
    cell_value: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.cell_value)
        if vals.shape != (self.mesh.n_cells,):
            raise DimensionMismatchError(
                f"cell_value shape {vals.shape} does not fit the mesh")
        as_int = vals.astype(int)
        if np.any(as_int != vals) or not np.all((as_int == 0) | (as_int == 1)):
            raise ValueError("phase values must be exactly 0 or 1")
        frozen = as_int.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "cell_value", frozen)

    @classmethod
    def constant(cls, mesh, value):
        return cls(mesh, np.full(mesh.n_cells, int(value)))

    @classmethod
    def from_indicator(cls, mesh, indicator):
        """Sample a point predicate at cell centers."""
        centers = mesh.to_physical(mesh.centers())
        return cls(mesh, np.array([1 if indicator(x) else 0 for x in centers]))

    @cached_property
    def phase_facets(self):
        """Interfaces between cells of different phase: (area, normal, face key)."""
        out = []
        for axis, fixed, flo, fhi, free_axes, bounds in self.mesh.interior_faces():
            if self.cell_value[flo] == self.cell_value[fhi]:
                continue
            area = float(np.prod([b - a for a, b in bounds])) if bounds else 1.0
            out.append((area, self.mesh.face_normal(axis), (axis, fixed, flo, fhi)))
        return tuple(out)

    def consistent(self):
        """Recompute the interface list and compare against cell values."""
        recomputed = {key for _, _, key in self.phase_facets}
        fresh = set()
        for axis, fixed, flo, fhi, _, _ in self.mesh.interior_faces():
            if self.cell_value[flo] != self.cell_value[fhi]:
                fresh.add((axis, fixed, flo, fhi))
        return recomputed == fresh


@dataclass(frozen=True)
class DesignBoundaryData:
    """Boundary datum of the interface cell problem on the rotated cube.

    The + side of the cube (x . normal > 0) carries phase a and value c,
    the - side phase b and value d. Non-finite entries of c or d raise
    ValueError.
    """

    a: int
    b: int
    c: np.ndarray
    d: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            v = getattr(self, name)
            if v not in (0, 1):
                raise ValueError(f"phase {name} must be 0 or 1, got {v!r}")
            object.__setattr__(self, name, int(v))
        c = as_vector(self.c)
        d = as_vector(self.d)
        if c.shape != d.shape:
            raise DimensionMismatchError("boundary values c and d must match in size")
        nu = as_unit_vector(self.normal)
        for name, v in (("c", c), ("d", d), ("normal", nu)):
            v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def jump(self):
        return self.c - self.d


def perimeter(chi):
    """Total area of the phase interface."""
    return float(sum(area for area, _, _ in chi.phase_facets))


def _require_same_mesh(mesh_a, mesh_b):
    same = (mesh_a is mesh_b) or (
        mesh_a.box == mesh_b.box and mesh_a.resolution == mesh_b.resolution
        and ((mesh_a.rotation is None and mesh_b.rotation is None)
             or (mesh_a.rotation is not None and mesh_b.rotation is not None
                 and np.max(np.abs(mesh_a.rotation - mesh_b.rotation)) < 1e-12)))
    if not same:
        raise MeshMismatchError("phase field and deformation must share a mesh")


def _traces_at(u, flo, fhi, points):
    """One-sided values of a grid field at physical facet points."""
    lower = points @ u.gradients[flo].T + u.offsets[flo]
    upper = points @ u.gradients[fhi].T + u.offsets[fhi]
    return upper, lower  # + side first: the face normal points into the upper cell


def design_energy(chi, u, ds):
    """Two-phase energy of (chi, u): phase-selected bulk and surface terms,
    a pair term where the deformation jumps across the phase interface, and
    the perimeter of that interface.
    """
    ds.require_design()
    if not isinstance(u, GridField):
        raise MeshMismatchError("design energies need a grid field")
    _require_same_mesh(chi.mesh, u.mesh)

    vol = u.mesh.cell_volume
    total = 0.0
    for i in range(u.mesh.n_cells):
        W = ds.W1 if chi.cell_value[i] == 1 else ds.W0
        if not W.is_zero:
            total += vol * float(W(u.gradients[i]))

    for face in u.mesh.interior_faces():
        _, _, flo, fhi, _, bounds = face
        phase_lo = int(chi.cell_value[flo])
        phase_hi = int(chi.cell_value[fhi])
        phase_jumps = phase_lo != phase_hi
        facet = grid_face_facet(u, face)
        if not phase_jumps:
            if facet is not None:
                psi1 = ds.Psi1_1 if phase_lo == 1 else ds.Psi1_0
                total += float(sum(w * psi1(j, facet.normal)
                                   for w, j in zip(facet.quad_weights,
                                                   facet.quad_jumps)))
            continue
        area = float(np.prod([b - a for a, b in bounds])) if bounds else 1.0
        total += area  # perimeter of the phase interface
        if facet is not None:
            up, lo = _traces_at(u, flo, fhi, facet.quad_points)
            total += float(sum(w * ds.Psi2(phase_hi, phase_lo, cu, cl, facet.normal)
                               for w, cu, cl in zip(facet.quad_weights, up, lo)))
    return total


def estimate_phase_relaxed_bulk(phase, A, B, ds, budget=None):
    """Bulk cell problem with the densities of the given phase."""
    ds.require_design()
    if phase not in (0, 1):
        raise ValueError(f"phase must be 0 or 1, got {phase!r}")
    W, psi1 = ds.phase(phase)
    sol = estimate_relaxed_bulk(A, B, DensitySet.simple(W, psi1), budget)
    meta = dict(sol.meta)
    meta["phase"] = int(phase)
    return CellSolution(value=sol.value, kind=sol.kind, frame=sol.frame,
                        decomposition=sol.decomposition, splits=sol.splits,
                        refinement_n=sol.refinement_n, competitor=sol.competitor,
                        method=sol.method, meta=meta)


def _chi_patterns(a, b):
    """Slot subsets where the phase flips, ordered simplest first."""
    idx = range(len(_SLOTS))
    if a == b:
        return [()] + [p for p in combinations(idx, 2)]
    return [(i,) for i in idx]


def _u_patterns(c, d, two_planes):
    """Slot subsets where the deformation jumps, ordered simplest first."""
    idx = range(len(_SLOTS))
    out = []
    if float(np.linalg.norm(c - d)) == 0.0:
        out.append(())
    out.extend((i,) for i in idx)
    if two_planes:
        out.extend(p for p in combinations(idx, 2))
    return out


def _events(chi_pat, u_pat):
    """(phase jumps?, deformation jumps?) at each occupied slot, in slot order.

    Plane positions only matter through order and coincidence, so patterns
    with the same events have the same cost.
    """
    return tuple((s in chi_pat, s in u_pat)
                 for s in sorted(set(chi_pat) | set(u_pat)))


def _plane_term(ds, nu, chi_l, chi_r, u_l, u_r):
    """Density term of one deformation plane as a function of w.

    None in u_l or u_r stands for the free intermediate value w. The term
    vanishes when the two sides coincide, as no plane is there.
    """
    if chi_l != chi_r:
        def density(right, left, gap):
            return ds.Psi2(chi_r, chi_l, right, left, nu)
    else:
        psi1 = ds.Psi1_1 if chi_l == 1 else ds.Psi1_0

        def density(right, left, gap):
            return psi1(gap, nu)

    def term(w):
        right = w if u_r is None else u_r
        left = w if u_l is None else u_l
        gap = right - left
        # gap @ gap > 0 exactly when np.linalg.norm(gap) > 0.
        return float(density(right, left, gap)) if gap @ gap > 0.0 else 0.0

    return term


def _compile_cost(data, ds, events):
    """Energy of the layered competitor with these events, as a function of w.

    The phase runs b, (1 - a,) a and the deformation d, (w,) c across the
    events. Each event adds its unit perimeter, then its density term, in
    slot order; terms free of w are evaluated once here.
    """
    n_u = sum(u_jumps for _, u_jumps in events)
    phases = (data.b, data.a) if data.a != data.b else (data.b, 1 - data.a, data.a)
    values = (data.d, data.c) if n_u < 2 else (data.d, None, data.c)
    nu = data.normal
    steps = []
    i_chi = i_u = 0
    for phase_jumps, u_jumps in events:
        chi_l, u_l = phases[i_chi], values[i_u]
        i_chi += phase_jumps
        i_u += u_jumps
        chi_r, u_r = phases[i_chi], values[i_u]
        if phase_jumps:
            steps.append(1.0)  # perimeter: unit plane section
        if u_jumps:
            term = _plane_term(ds, nu, chi_l, chi_r, u_l, u_r)
            steps.append(term if u_r is None or u_l is None else term(None))

    steps = tuple(steps)

    def cost(w):
        total = 0.0
        for step in steps:
            total += step if isinstance(step, float) else step(w)
        return total

    return cost


def estimate_interface_cell(data, ds, budget=None):
    """Upper estimate of the two-field interface cell problem.

    Minimizes over layered competitors: both fields piecewise constant
    between planes normal to the boundary datum's direction, with at most
    two jump planes each on three candidate slots. Plane positions only
    matter through coincidence, so patterns are enumerated exactly; the
    free intermediate deformation value of two-plane profiles is optimized
    by Nelder-Mead from deterministic starts; meta records those runs
    (searches) and the ones ending unconverged.

    When Psi1_0, Psi1_1 and Psi2 all declare normal_form, the two-plane
    deformation patterns are left out and no search runs (meta route
    "single-plane"). This is exact for the certified profile properties:
    a two-plane cost is then convex and piecewise linear in w . nu with
    kinks at d . nu and c . nu, so it is least at w = d or w = c, where it
    equals the cost of a one-plane pattern scored before it, which wins
    ties. Otherwise every two-plane pattern is searched (route "search").
    Pattern costs are priced through the densities' fn on both routes.

    Assumes Psi1_0, Psi1_1 and Psi2 are nonnegative (checked by the
    "nonnegative" entries of check_surface_axioms and
    check_interface_axioms): a pattern then costs at least its number of
    phase planes, and patterns that cannot beat the best value by the
    replacement margin are skipped. meta counts the patterns scored and
    those skipped, by this bound or because an earlier pattern had the
    same events.
    """
    ds.require_design()
    budget = budget or OptimizerBudget()
    single_plane = all(p.normal_form is not None for p in (ds.Psi1_0, ds.Psi1_1, ds.Psi2))
    best = None
    scored = set()
    effort = {"searches": 0, "unconverged": 0}
    skipped = 0
    for chi_pat in _chi_patterns(data.a, data.b):
        for u_pat in _u_patterns(data.c, data.d, two_planes=not single_plane):
            if best is not None and len(chi_pat) >= best[0] - 1e-12:
                skipped += 1  # its perimeter alone cannot beat the best value
                continue
            events = _events(chi_pat, u_pat)
            if events in scored:
                skipped += 1  # same cost as an earlier pattern, which wins ties
                continue
            scored.add(events)
            cost_of = _compile_cost(data, ds, events)
            if len(u_pat) < 2:
                value = cost_of(None)
                w_best = None
            else:
                value = np.inf
                w_best = None
                for w0 in (0.5 * (data.c + data.d), data.d.copy(), data.c.copy()):
                    res = nelder_mead(cost_of, w0, budget, effort)
                    if res.fun < value - 1e-15:
                        value = float(res.fun)
                        w_best = np.asarray(res.x, dtype=float)
            if best is None or value < best[0] - 1e-12:
                best = (float(value), chi_pat, u_pat, w_best)
    value, chi_pat, u_pat, w_best = best
    intermediate = None if w_best is None else tuple(float(x) for x in w_best)
    meta = {"slots": _SLOTS, "chi_slots": chi_pat, "u_slots": u_pat,
            "intermediate": intermediate,
            "route": "single-plane" if single_plane else "search",
            "patterns_scored": len(scored), "patterns_skipped": skipped, **effort}
    competitor = {"family": "layered-planes",
                  "phase_jump_slots": [_SLOTS[i] for i in chi_pat],
                  "deformation_jump_slots": [_SLOTS[i] for i in u_pat],
                  "intermediate_value": None if intermediate is None
                  else list(intermediate)}
    return CellSolution(value=value, kind="interface", competitor=competitor,
                        method="layered-enumeration", meta=meta)


@dataclass(frozen=True)
class DesignDensityTables:
    """Relaxed design densities as callables: bulk(i, A, B), interface(a, b, c, d, nu)."""

    bulk: object
    interface: object

    @classmethod
    def from_estimators(cls, ds, budget=None):
        """Memoized numerical tables built from the two design estimators."""
        ds.require_design()
        budget = budget or OptimizerBudget()
        bulk_memo = {}
        iface_memo = {}

        def bulk(i, A, B):
            A = np.asarray(A, dtype=float)
            B = np.asarray(B, dtype=float)
            key = (int(i), A.tobytes(), B.tobytes(), A.shape)
            if key not in bulk_memo:
                bulk_memo[key] = estimate_phase_relaxed_bulk(i, A, B, ds, budget).value
            return bulk_memo[key]

        def interface(a, b, c, d, nu):
            c = np.asarray(c, dtype=float).reshape(-1)
            d = np.asarray(d, dtype=float).reshape(-1)
            nu = np.asarray(nu, dtype=float).reshape(-1)
            key = (int(a), int(b), c.tobytes(), d.tobytes(), nu.tobytes())
            if key not in iface_memo:
                data = DesignBoundaryData(a, b, c, d, nu)
                iface_memo[key] = estimate_interface_cell(data, ds, budget).value
            return iface_memo[key]

        return cls(bulk=bulk, interface=interface)


def relaxed_design_energy(chi, sd, tables):
    """Relaxed two-phase functional of (chi, structured deformation).

    The bulk term selects the phase of each cell; the surface term runs
    over the union of the phase interface and the deformation's jump set,
    feeding one-sided traces of both fields to the interface density. On
    facets where only one field jumps the other's traces coincide.
    """
    g = sd.g
    _require_same_mesh(chi.mesh, g.mesh)
    vol = g.mesh.cell_volume
    total = 0.0
    for i in range(g.mesh.n_cells):
        total += vol * float(tables.bulk(int(chi.cell_value[i]),
                                         g.gradients[i], sd.G[i]))

    for face in g.mesh.interior_faces():
        _, _, flo, fhi, _, _ = face
        phase_lo = int(chi.cell_value[flo])
        phase_hi = int(chi.cell_value[fhi])
        facet = grid_face_facet(g, face, keep_all=phase_lo != phase_hi)
        if facet is None:
            continue  # neither field jumps across this face
        up, lo = _traces_at(g, flo, fhi, facet.quad_points)
        total += float(sum(w * tables.interface(phase_hi, phase_lo, cu, cl,
                                                facet.normal)
                           for w, cu, cl in zip(facet.quad_weights, up, lo)))
    return total
