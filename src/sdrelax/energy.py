"""Energy densities, their sampling-based validity checks, and total energy.

Densities are small frozen dataclasses wrapping a plain callable plus the
declared constants the checks certify against. A registry maps stable names
(used in experiment configs) to factories. The check_* functions are
sampling certificates, not proofs: they draw a seeded cloud of inputs from
a ball of radius 10 by default and report the worst violation found.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DensityError
from . import fields as _fields


@dataclass(frozen=True)
class BulkDensity:
    """Volumetric density W(gradient) with declared growth and Lipschitz data.

    lipschitz_C certifies |W(A)-W(B)| <= C |A-B| (1 + |A|^{p-1} + |B|^{p-1})
    on the sampling ball; is_zero marks the trivial density so optimizers
    can skip bulk terms.
    """

    name: str
    fn: Callable
    growth_p: float = 1.0
    lipschitz_C: float = 1.0
    is_zero: bool = False

    def __call__(self, A):
        return float(self.fn(np.asarray(A, dtype=float)))


@dataclass(frozen=True)
class SurfaceDensity:
    """Interfacial density Psi(jump, normal).

    normal_form, when present, is the scalar profile f with
    Psi(jump, normal) = f(jump . normal), applied elementwise to arrays.
    A declared f is taken as nonnegative and one-homogeneous, hence convex;
    check_surface_axioms certifies it against fn and certifies both
    properties (nonnegative, one_homogeneity). The staged frame grid of a
    square matrix prices with f alone, while frame_cost always calls fn;
    the bulk frame search of a square A - B stops without a simplex search
    once a start costs the trace floor f(tr(A - B)), which no frame
    undercuts since f is subadditive; and the surface cell returns the
    midplane f(jump . normal) without a search, since under these
    properties no stack of parallel planes and no tent costs less.

    price(jumps, normals) prices m rows at once and is what jump integrals
    call (fields.jump_measure, optdesign.design_energy): with a declared f
    it is one call f(q) on the array q of the m normal jumps, and fn is not
    called; without one it calls fn once per row.
    """

    name: str
    fn: Callable
    lower_c1: float = 1.0
    upper_C1: float = 1.0
    normal_form: Optional[Callable] = None

    def __call__(self, jump, normal):
        return float(self.fn(np.asarray(jump, dtype=float), np.asarray(normal, dtype=float)))

    def price(self, jumps, normals):
        """Psi of each row of jumps (m, c) and normals (m, n), shape (m,)."""
        if self.normal_form is None:
            return _fields.price_rows(self, jumps, normals)
        return self.normal_form(np.einsum("mc,mc->m", jumps, normals))


@dataclass(frozen=True)
class InterfacePairDensity:
    """Density on shared jump points of a phase field and a deformation.

    Evaluated as fn(phase_up, phase_down, trace_up, trace_down, normal).
    bound_C certifies 0 <= value <= C (1 + |a-b| + |c-d|), lipschitz_C the
    Lipschitz bound in the trace gap.

    normal_form, when present, is the profile g with
    Psi2(a, b, c, d, normal) = g(a, b, (c - d) . normal). A declared g is
    taken as nonnegative and one-homogeneous in its last argument, hence
    convex and piecewise linear in it; check_interface_axioms certifies it
    against fn and certifies both properties (nonnegative,
    one_homogeneity). When the two design surface densities declare their
    normal_form too, estimate_interface_cell leaves out its two-plane
    deformation patterns, which then cannot win.
    """

    name: str
    fn: Callable
    bound_C: float = 1.0
    lipschitz_C: float = 1.0
    normal_form: Optional[Callable] = None

    def __call__(self, a, b, c, d, normal):
        return float(self.fn(float(a), float(b),
                             np.asarray(c, dtype=float), np.asarray(d, dtype=float),
                             np.asarray(normal, dtype=float)))


@dataclass(frozen=True)
class DensitySet:
    """Densities for one energy: plain (W, Psi) or two-phase design.

    The design scenario carries per-phase bulk and surface densities plus
    the interface-pair density charged where both jump sets overlap.
    """

    W: Optional[BulkDensity] = None
    Psi: Optional[SurfaceDensity] = None
    W0: Optional[BulkDensity] = None
    W1: Optional[BulkDensity] = None
    Psi1_0: Optional[SurfaceDensity] = None
    Psi1_1: Optional[SurfaceDensity] = None
    Psi2: Optional[InterfacePairDensity] = None

    @classmethod
    def simple(cls, W, Psi):
        return cls(W=W, Psi=Psi)

    @classmethod
    def design(cls, W0, W1, Psi1_0, Psi1_1, Psi2):
        return cls(W0=W0, W1=W1, Psi1_0=Psi1_0, Psi1_1=Psi1_1, Psi2=Psi2)

    def require_simple(self):
        if self.W is None or self.Psi is None:
            raise DensityError("this use needs the plain (W, Psi) scenario")
        return self.W, self.Psi

    def require_design(self):
        members = (self.W0, self.W1, self.Psi1_0, self.Psi1_1, self.Psi2)
        if any(m is None for m in members):
            raise DensityError("this use needs all five design densities")
        return members

    def phase(self, i):
        """Plain (W, Psi) pair of one phase of the design scenario."""
        W0, W1, P0, P1, _ = self.require_design()
        if i not in (0, 1):
            raise DensityError(f"phase index must be 0 or 1, got {i}")
        return (W0, P0) if i == 0 else (W1, P1)


# ---------------------------------------------------------------------------
# Built-in densities.

def _frobenius(A):
    return float(np.linalg.norm(A))


def bulk_density(name, **params):
    """Factory for built-in bulk densities by registry name."""
    if name == "zero":
        return BulkDensity("zero", lambda A: 0.0, growth_p=1.0, lipschitz_C=0.0, is_zero=True)
    if name == "frobenius_power":
        p = float(params.get("p", 2.0))
        scale = float(params.get("scale", 1.0))
        if p < 1.0:
            raise DensityError("frobenius_power needs p >= 1")
        return BulkDensity(f"frobenius_power(p={p:g},scale={scale:g})",
                           lambda A: scale * _frobenius(A) ** p,
                           growth_p=p, lipschitz_C=scale * p)
    if name == "quadratic_identity":
        scale = float(params.get("scale", 0.5))
        dim_bound = float(params.get("dim", 3))

        def _w(A):
            eye = np.eye(A.shape[0], A.shape[1])
            return scale * _frobenius(A - eye) ** 2

        return BulkDensity(f"quadratic_identity(scale={scale:g})", _w,
                           growth_p=2.0,
                           lipschitz_C=scale * (1.0 + 2.0 * np.sqrt(dim_bound)))
    raise DensityError(f"unknown bulk density {name!r}")


def surface_density(name, **params):
    """Factory for built-in surface densities by registry name."""
    if name == "abs_normal_jump":
        return SurfaceDensity("abs_normal_jump",
                              lambda lam, nu: abs(float(lam @ nu)),
                              normal_form=np.abs)
    if name == "pos_normal_jump":
        return SurfaceDensity("pos_normal_jump",
                              lambda lam, nu: max(0.0, float(lam @ nu)),
                              normal_form=lambda q: np.maximum(q, 0.0))
    if name == "neg_normal_jump":
        return SurfaceDensity("neg_normal_jump",
                              lambda lam, nu: max(0.0, -float(lam @ nu)),
                              normal_form=lambda q: np.maximum(-q, 0.0))
    if name == "jump_magnitude":
        return SurfaceDensity("jump_magnitude",
                              lambda lam, nu: float(np.linalg.norm(lam)))
    if name == "squared_jump_magnitude":
        # Violates one-homogeneity by design; exists for the negative tests.
        return SurfaceDensity("squared_jump_magnitude",
                              lambda lam, nu: float(np.linalg.norm(lam)) ** 2)
    raise DensityError(f"unknown surface density {name!r}")


def interface_density(name, **params):
    """Factory for built-in interface-pair densities by registry name."""
    if name == "zero":
        return InterfacePairDensity("zero", lambda a, b, c, d, nu: 0.0,
                                    bound_C=1.0, lipschitz_C=0.0,
                                    normal_form=lambda a, b, q: 0.0 * np.abs(q))
    if name == "phase_gap_normal_jump":
        return InterfacePairDensity(
            "phase_gap_normal_jump",
            lambda a, b, c, d, nu: abs(a - b) * abs(float((c - d) @ nu)),
            bound_C=1.0, lipschitz_C=1.0,
            normal_form=lambda a, b, q: abs(a - b) * np.abs(q))
    raise DensityError(f"unknown interface density {name!r}")


DENSITY_KINDS = {
    "bulk": ("zero", "frobenius_power", "quadratic_identity"),
    "surface": ("abs_normal_jump", "pos_normal_jump", "neg_normal_jump",
                "jump_magnitude", "squared_jump_magnitude"),
    "interface": ("zero", "phase_gap_normal_jump"),
}


def energy(u, ds):
    """Total energy of a piecewise field: bulk over cells plus jump terms."""
    W, Psi = ds.require_simple()
    total = 0.0
    if not W.is_zero:
        for vol, grad in u.bulk_pieces():
            total += vol * W(grad)
    return total + _fields.jump_measure(u, Psi)


# ---------------------------------------------------------------------------
# Sampling certificates.

@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one sampled condition: pass, warn, or fail, with witness."""

    name: str
    status: str
    worst: float
    witness: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status != "fail"


@dataclass(frozen=True)
class DensityReport:
    density: str
    sample_count: int
    radius: float
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def warnings(self):
        return tuple(c for c in self.checks if c.status == "warn")

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary_lines(self):
        lines = [f"density {self.density}: {self.sample_count} samples, radius {self.radius:g}"]
        for c in self.checks:
            lines.append(f"  [{c.status:>4}] {c.name}: worst {c.worst:.3e}")
        return lines


def _ball_points(rng, count, dim, radius):
    pts = rng.normal(size=(count, dim))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return pts / np.maximum(norms, 1e-300) * radii


def _unit_vectors(rng, count, dim):
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def check_bulk_growth(W, dim=2, sample_count=10000, radius=10.0, seed=0):
    """Certify the declared Lipschitz-growth bound of a bulk density."""
    rng = np.random.default_rng(seed)
    A = _ball_points(rng, sample_count, dim * dim, radius).reshape(-1, dim, dim)
    B = _ball_points(rng, sample_count, dim * dim, radius).reshape(-1, dim, dim)
    worst, witness = 0.0, {}
    for a, b in zip(A, B):
        gap = float(np.linalg.norm(a - b))
        if gap < 1e-9:
            continue
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        bound = gap * (1.0 + na ** (W.growth_p - 1.0) + nb ** (W.growth_p - 1.0))
        ratio = abs(W(a) - W(b)) / bound
        if ratio > worst:
            worst, witness = ratio, {"A": a.tolist(), "B": b.tolist()}
    status = "pass" if worst <= W.lipschitz_C * (1.0 + 1e-9) else "fail"
    checks = (ConditionCheck("lipschitz_growth", status, worst, witness),)
    return DensityReport(W.name, sample_count, radius, checks)


def check_surface_axioms(Psi, dim=3, sample_count=10000, radius=10.0, seed=0,
                         rel_tol=1e-9):
    """Certify sign, bounds, one-homogeneity, subadditivity and the normal form.

    Any negative sample fails: the interface cell search skips patterns by
    their perimeter, which bounds their cost only for nonnegative densities.
    A declared normal_form f fails when |Psi(jump, normal) - f(jump . normal)|
    exceeds rel_tol * max(1, |Psi(jump, normal)|) on any sample, or when one
    call of f on the array of all samples' normal jumps raises or differs
    from the scalar calls by more than that (price makes this call); a
    density without one passes that check.
    The lower bound c1 |jump| <= Psi genuinely fails for normal-jump
    densities (a tangential jump costs nothing), so a lower-bound violation
    is reported as a warning rather than a failure.
    """
    rng = np.random.default_rng(seed)
    lam = _ball_points(rng, sample_count, dim, radius)
    lam2 = _ball_points(rng, sample_count, dim, radius)
    nu = _unit_vectors(rng, sample_count, dim)
    t = rng.uniform(0.1, 10.0, size=sample_count)

    neg_worst, neg_wit = 0.0, {}
    lower_worst, lower_wit = 0.0, {}
    upper_worst, upper_wit = 0.0, {}
    hom_worst, hom_wit = 0.0, {}
    sub_worst, sub_wit = 0.0, {}
    form_worst, form_wit = 0.0, {}
    q, f_q = np.zeros(sample_count), np.zeros(sample_count)
    for i in range(sample_count):
        l, l2, n = lam[i], lam2[i], nu[i]
        v = Psi(l, n)
        if -v > neg_worst:
            neg_worst, neg_wit = -v, {"jump": l.tolist(), "normal": n.tolist()}
        if Psi.normal_form is not None:
            q[i] = float(l @ n)
            f_q[i] = float(Psi.normal_form(q[i]))
            form = abs(v - f_q[i]) / max(1.0, abs(v))
            if form > form_worst:
                form_worst, form_wit = form, {"jump": l.tolist(), "normal": n.tolist()}
        mag = float(np.linalg.norm(l))
        if mag > 1e-9:
            short = Psi.lower_c1 * mag - v
            if short > lower_worst:
                lower_worst, lower_wit = short, {"jump": l.tolist(), "normal": n.tolist()}
            over = v - Psi.upper_C1 * mag
            if over > upper_worst:
                upper_worst, upper_wit = over, {"jump": l.tolist(), "normal": n.tolist()}
        scale = max(1.0, abs(v))
        hom = abs(Psi(t[i] * l, n) - t[i] * v) / (t[i] * scale)
        if hom > hom_worst:
            hom_worst, hom_wit = hom, {"jump": l.tolist(), "normal": n.tolist(), "t": float(t[i])}
        sub = (Psi(l + l2, n) - v - Psi(l2, n)) / max(1.0, v + Psi(l2, n))
        if sub > sub_worst:
            sub_worst, sub_wit = sub, {"jump": l.tolist(), "jump2": l2.tolist(),
                                       "normal": n.tolist()}
    if Psi.normal_form is not None:
        gap, i, got = _array_call_gap(Psi.normal_form, (q,), f_q)
        if not gap <= form_worst:
            form_worst = gap
            form_wit = {"jump": lam[i].tolist(), "normal": nu[i].tolist(), "array_call": got}
    checks = (
        ConditionCheck("nonnegative", "pass" if neg_worst <= 0.0 else "fail",
                       neg_worst, neg_wit),
        ConditionCheck("lower_bound", "pass" if lower_worst <= rel_tol else "warn",
                       lower_worst, lower_wit),
        ConditionCheck("upper_bound", "pass" if upper_worst <= rel_tol else "fail",
                       upper_worst, upper_wit),
        ConditionCheck("one_homogeneity", "pass" if hom_worst <= rel_tol else "fail",
                       hom_worst, hom_wit),
        ConditionCheck("subadditivity", "pass" if sub_worst <= rel_tol else "fail",
                       sub_worst, sub_wit),
        ConditionCheck("normal_form", "pass" if form_worst <= rel_tol else "fail",
                       form_worst, form_wit),
    )
    return DensityReport(Psi.name, sample_count, radius, checks)


def _array_call_gap(profile, args, scalar_values):
    """Worst relative gap between one array call of a profile and its scalar calls.

    Returns (gap, sample index, what the array call gave at it). A call that
    raises or returns another shape gives an infinite gap at sample 0.
    """
    try:
        got = np.asarray(profile(*args), dtype=float)
    except Exception as exc:  # a user profile may fail in any way on arrays
        return np.inf, 0, repr(exc)
    if got.shape != scalar_values.shape:
        return np.inf, 0, f"shape {got.shape}, expected {scalar_values.shape}"
    gaps = np.abs(got - scalar_values) / np.maximum(1.0, np.abs(scalar_values))
    i = int(np.argmax(gaps))
    return float(gaps[i]), i, float(got[i])


def _pair_sample(a, b, c, d, nu, i):
    return {"a": float(a[i]), "b": float(b[i]), "c": c[i].tolist(),
            "d": d[i].tolist(), "normal": nu[i].tolist()}


def check_interface_axioms(Psi2, dim=3, sample_count=10000, radius=10.0, seed=0,
                           rel_tol=1e-9, exact_tol=1e-12):
    """Certify the interface-pair density conditions by sampling.

    Checks: two-sided growth bound, exact swap symmetry under flipping the
    normal and both trace pairs, Lipschitz continuity in the trace gap,
    exact vanishing on the two diagonals (equal phases with no deformation
    jump contribution, and equal traces with no phase jump contribution),
    one-homogeneity in the trace gap (c - d scaled by t in [0.1, 10], d
    held), and the declared normal_form g, which fails when
    |Psi2(a, b, c, d, normal) - g(a, b, (c - d) . normal)| exceeds
    rel_tol * max(1, |Psi2(a, b, c, d, normal)|) on any sample, or when one
    call of g on the arrays of all samples raises or differs from the
    scalar calls by more than that; a density without one passes that
    check. Any negative sample fails, as in
    check_surface_axioms.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=sample_count).astype(float)
    b = rng.integers(0, 2, size=sample_count).astype(float)
    c = _ball_points(rng, sample_count, dim, radius)
    d = _ball_points(rng, sample_count, dim, radius)
    c2 = _ball_points(rng, sample_count, dim, radius)
    d2 = _ball_points(rng, sample_count, dim, radius)
    nu = _unit_vectors(rng, sample_count, dim)
    t = rng.uniform(0.1, 10.0, size=sample_count)

    bound_worst, bound_wit = 0.0, {}
    neg_worst = 0.0
    swap_worst, swap_wit = 0.0, {}
    lip_worst, lip_wit = 0.0, {}
    diag_worst, diag_wit = 0.0, {}
    hom_worst, hom_wit = 0.0, {}
    form_worst, form_wit = 0.0, {}
    q, g_q = np.zeros(sample_count), np.zeros(sample_count)
    for i in range(sample_count):
        v = Psi2(a[i], b[i], c[i], d[i], nu[i])
        neg_worst = max(neg_worst, -v)
        if Psi2.normal_form is not None:
            q[i] = float((c[i] - d[i]) @ nu[i])
            g_q[i] = float(Psi2.normal_form(a[i], b[i], q[i]))
            form = abs(v - g_q[i]) / max(1.0, abs(v))
            if form > form_worst:
                form_worst, form_wit = form, _pair_sample(a, b, c, d, nu, i)
        scaled = Psi2(a[i], b[i], d[i] + t[i] * (c[i] - d[i]), d[i], nu[i])
        hom = abs(scaled - t[i] * v) / (t[i] * max(1.0, abs(v)))
        if hom > hom_worst:
            hom_worst, hom_wit = hom, {**_pair_sample(a, b, c, d, nu, i), "t": float(t[i])}
        cap = Psi2.bound_C * (1.0 + abs(a[i] - b[i]) + float(np.linalg.norm(c[i] - d[i])))
        if v - cap > bound_worst:
            bound_worst, bound_wit = v - cap, {"a": float(a[i]), "b": float(b[i])}
        swapped = Psi2(b[i], a[i], d[i], c[i], -nu[i])
        gap = abs(v - swapped) / max(1.0, abs(v))
        if gap > swap_worst:
            swap_worst, swap_wit = gap, _pair_sample(a, b, c, d, nu, i)
        v2 = Psi2(a[i], b[i], c2[i], d2[i], nu[i])
        denom = float(np.linalg.norm((c[i] - d[i]) - (c2[i] - d2[i])))
        if denom > 1e-9:
            lip = (abs(v - v2) / denom - Psi2.lipschitz_C)
            if lip > lip_worst:
                lip_worst, lip_wit = lip, {"a": float(a[i]), "b": float(b[i])}
        same_phase = abs(Psi2(a[i], a[i], c[i], d[i], nu[i]))
        same_trace = abs(Psi2(a[i], b[i], c[i], c[i], nu[i]))
        if max(same_phase, same_trace) > diag_worst:
            diag_worst = max(same_phase, same_trace)
            diag_wit = {"a": float(a[i]), "b": float(b[i])}
    if Psi2.normal_form is not None:
        gap, i, got = _array_call_gap(Psi2.normal_form, (a, b, q), g_q)
        if not gap <= form_worst:
            form_worst = gap
            form_wit = {**_pair_sample(a, b, c, d, nu, i), "array_call": got}
    checks = (
        ConditionCheck("nonnegative", "pass" if neg_worst <= 0.0 else "fail", neg_worst),
        ConditionCheck("growth_bound", "pass" if bound_worst <= rel_tol else "fail",
                       bound_worst, bound_wit),
        ConditionCheck("swap_symmetry", "pass" if swap_worst <= rel_tol else "fail",
                       swap_worst, swap_wit),
        ConditionCheck("trace_lipschitz", "pass" if lip_worst <= rel_tol else "fail",
                       lip_worst, lip_wit),
        ConditionCheck("diagonal_vanishing", "pass" if diag_worst <= exact_tol else "fail",
                       diag_worst, diag_wit),
        ConditionCheck("one_homogeneity", "pass" if hom_worst <= rel_tol else "fail",
                       hom_worst, hom_wit),
        ConditionCheck("normal_form", "pass" if form_worst <= rel_tol else "fail",
                       form_worst, form_wit),
    )
    return DensityReport(Psi2.name, sample_count, radius, checks)
