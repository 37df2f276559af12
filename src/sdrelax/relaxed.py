"""Relaxed energy densities: closed forms, estimates, and cross-checks.

For the unit-cost interfacial density (Euclidean jump size against the
identity bulk response) the relaxed bulk and surface densities have closed
forms driven by the trace of the disarrangement tensor and the normal
component of the jump. This module packages those closed forms next to the
numerical cell-problem estimates so each route can audit the other, and
carries the two verification reports built on them:

* the trace sandwich: the closed form is a floor under both the dense
  frame-grid value and the continuous-frame estimate, and the two numerical
  routes must agree with each other within stated tolerances;
* the plus/minus split: the one-sided relaxed energies reconstruct from
  the absolute one and the signed disarrangement volume and jump terms.
"""

from dataclasses import dataclass

import numpy as np

from .cell import (OptimizerBudget, estimate_relaxed_bulk,
                   estimate_relaxed_surface, frame_grid_minimum)
from .core import (as_matrix, relaxed_bulk_abs, relaxed_bulk_minus,
                   relaxed_bulk_plus, relaxed_surface_abs,
                   relaxed_surface_minus, relaxed_surface_plus)
from .energy import DensitySet, bulk_density, surface_density
from .errors import DensityError, SandwichViolationError
from .fields import jump_measure

EXACT_KINDS = ("abs", "plus", "minus")

_EXACT_BULK = {"abs": relaxed_bulk_abs, "plus": relaxed_bulk_plus,
               "minus": relaxed_bulk_minus}
_EXACT_SURFACE = {"abs": relaxed_surface_abs, "plus": relaxed_surface_plus,
                  "minus": relaxed_surface_minus}
UNRELAXED_SURFACE = {"abs": "abs_normal_jump", "plus": "pos_normal_jump",
                     "minus": "neg_normal_jump"}


@dataclass(frozen=True)
class RelaxedDensityPair:
    """Bulk density of (grad, G) and surface density of (jump, normal)."""

    name: str
    bulk: object
    surface: object
    exact: bool


def exact_pair(kind):
    """Closed-form relaxed pair for the given trace flavor."""
    if kind not in EXACT_KINDS:
        raise DensityError(f"unknown exact relaxed pair {kind!r}; "
                           f"choose one of {EXACT_KINDS}")
    return RelaxedDensityPair(name=f"trace-{kind}", bulk=_EXACT_BULK[kind],
                              surface=_EXACT_SURFACE[kind], exact=True)


def estimated_pair(kind="abs", budget=None):
    """Numerically relaxed pair for the unrelaxed density of the given flavor.

    Both members run the cell-problem estimators and memoize per argument,
    so sweeping a mesh with repeated cell data stays cheap.
    """
    if kind not in EXACT_KINDS:
        raise DensityError(f"unknown estimated pair flavor {kind!r}")
    psi = surface_density(UNRELAXED_SURFACE[kind])
    ds = DensitySet.simple(bulk_density("zero"), psi)
    budget = budget or OptimizerBudget()
    bulk_memo = {}
    surface_memo = {}

    def bulk(grad, G):
        A = as_matrix(grad)
        B = as_matrix(G, dim=A.shape[1])
        key = (A.tobytes(), B.tobytes(), A.shape)
        if key not in bulk_memo:
            bulk_memo[key] = estimate_relaxed_bulk(A, B, ds, budget).value
        return bulk_memo[key]

    def surface(jump, normal):
        lam = np.asarray(jump, dtype=float).reshape(-1)
        nu = np.asarray(normal, dtype=float).reshape(-1)
        key = (lam.tobytes(), nu.tobytes())
        if key not in surface_memo:
            surface_memo[key] = estimate_relaxed_surface(lam, nu, psi, budget).value
        return surface_memo[key]

    return RelaxedDensityPair(name=f"estimated-{kind}", bulk=bulk,
                              surface=surface, exact=False)


def relaxed_energy(sd, pair):
    """Relaxed functional of a piecewise-affine pair under the given densities.

    Sums the bulk density of (cell gradient, cell G) over cells and
    integrates the surface density over the jump set of the macroscopic
    field.
    """
    vol = sd.g.mesh.cell_volume
    bulk = vol * sum(float(pair.bulk(sd.g.gradients[i], sd.G[i]))
                     for i in range(sd.g.mesh.n_cells))
    return bulk + jump_measure(sd.g, pair.surface)


def disarrangement_trace_integral(sd):
    """Volume integral of the trace of the disarrangement tensor."""
    if sd.codim != sd.dim:
        raise DensityError("the disarrangement trace needs a square gradient")
    vol = sd.g.mesh.cell_volume
    return vol * float(np.trace(sd.disarrangements(), axis1=1, axis2=2).sum())


def jump_trace_integral(u):
    """Integral of jump . normal over the field's jump set."""
    return jump_measure(u, lambda lam, nu: float(lam @ nu))


@dataclass(frozen=True)
class SandwichEntry:
    """One trace flavor's floor check: closed form under both estimates."""

    kind: str
    lower: float
    grid_value: float
    estimate: float
    estimate_frame: object
    grid_frame: object
    tolerance: float

    @property
    def grid_gap(self):
        return self.grid_value - self.lower

    @property
    def estimate_gap(self):
        return self.estimate - self.lower

    @property
    def route_gap(self):
        return self.estimate - self.grid_value

    @property
    def violations(self):
        out = []
        if self.grid_value < self.lower - self.tolerance:
            out.append(("grid_below_lower", self.lower - self.grid_value))
        if self.estimate < self.lower - self.tolerance:
            out.append(("estimate_below_lower", self.lower - self.estimate))
        return tuple(out)

    @property
    def passed(self):
        return not self.violations


@dataclass(frozen=True)
class SandwichReport:
    """Floor checks for the requested trace flavors of one pair (A, B)."""

    entries: tuple

    def entry(self, kind):
        for e in self.entries:
            if e.kind == kind:
                return e
        raise KeyError(f"no sandwich entry of kind {kind!r}")

    @property
    def violations(self):
        return tuple((e.kind,) + v for e in self.entries for v in e.violations)

    @property
    def passed(self):
        return not self.violations


def verify_trace_sandwich(A, B, kinds=EXACT_KINDS, budget=None,
                          grid_resolution=None, tolerance=1e-6,
                          raise_on_violation=True):
    """Check the closed-form relaxed bulk density under both estimates.

    Every frame cost of A - B dominates the closed form, so both the dense
    frame-grid value and the continuous-frame estimate must sit above it
    (within tolerance); their gaps against the floor are reported per trace
    flavor, absolute and one-sided alike. A floor violation indicates an
    optimizer or construction bug, hence the exception by default.
    """
    if isinstance(kinds, str):
        kinds = (kinds,)
    for kind in kinds:
        if kind not in EXACT_KINDS:
            raise DensityError(f"unknown sandwich flavor {kind!r}")
    A = as_matrix(A)
    B = as_matrix(B, dim=A.shape[1])
    entries = []
    for kind in kinds:
        lower = float(_EXACT_BULK[kind](A, B))
        psi = surface_density(UNRELAXED_SURFACE[kind])
        ds = DensitySet.simple(bulk_density("zero"), psi)
        est = estimate_relaxed_bulk(A, B, ds, budget)
        grid_value, grid_frame = frame_grid_minimum(A - B, psi,
                                                    resolution=grid_resolution)
        entries.append(SandwichEntry(kind=kind, lower=lower,
                                     grid_value=grid_value, estimate=est.value,
                                     estimate_frame=est.frame,
                                     grid_frame=grid_frame,
                                     tolerance=tolerance))
    report = SandwichReport(entries=tuple(entries))
    if raise_on_violation and not report.passed:
        raise SandwichViolationError(
            f"sandwich floor violated: {report.violations}",
            payload={"violations": report.violations,
                     "entries": [{"kind": e.kind, "lower": e.lower,
                                  "grid_value": e.grid_value,
                                  "estimate": e.estimate}
                                 for e in report.entries]})
    return report


@dataclass(frozen=True)
class PlusMinusReport:
    """Reconstruction of one-sided relaxed energies from the absolute one.

    The one-sided densities are pointwise half the absolute one plus or
    minus half the signed term, so the relaxed energies obey the same
    algebra with the signed volume and jump integrals on the right side.
    """

    value_abs: float
    value_plus: float
    value_minus: float
    trace_volume_term: float
    trace_jump_term: float
    relative_tolerance: float
    sum_tolerance: float

    @property
    def signed_term(self):
        return self.trace_volume_term + self.trace_jump_term

    @property
    def residual_plus(self):
        return self.value_plus - (0.5 * self.value_abs + 0.5 * self.signed_term)

    @property
    def residual_minus(self):
        return self.value_minus - (0.5 * self.value_abs - 0.5 * self.signed_term)

    @property
    def residual_sum(self):
        return (self.value_plus + self.value_minus) - self.value_abs

    @property
    def passed(self):
        scale = max(1.0, abs(self.value_abs))
        ok_plus = abs(self.residual_plus) <= self.relative_tolerance * scale
        ok_minus = abs(self.residual_minus) <= self.relative_tolerance * scale
        ok_sum = abs(self.residual_sum) <= self.sum_tolerance * scale
        return ok_plus and ok_minus and ok_sum


def verify_plus_minus_identity(sd, relative_tolerance=1e-9, sum_tolerance=1e-12):
    """Check the one-sided split of the relaxed energy on a concrete pair.

    All three relaxed energies are evaluated with shared facet quadrature,
    so the identity holds to rounding error whenever the implementation is
    consistent; a visible residual is a genuine defect, not discretization.
    """
    v_abs = relaxed_energy(sd, exact_pair("abs"))
    v_plus = relaxed_energy(sd, exact_pair("plus"))
    v_minus = relaxed_energy(sd, exact_pair("minus"))
    return PlusMinusReport(value_abs=v_abs, value_plus=v_plus,
                           value_minus=v_minus,
                           trace_volume_term=disarrangement_trace_integral(sd),
                           trace_jump_term=jump_trace_integral(sd.g),
                           relative_tolerance=relative_tolerance,
                           sum_tolerance=sum_tolerance)
