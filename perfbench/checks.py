"""Output checks computed apart from the program.

Each checker takes the program's output together with the inputs the
benchmark generated and returns a list of problems (empty when the output
is right). The reference values come from numpy directly: traces of
A - B, the normal jump lam . nu, closed-form staircase energies, and a
perimeter counted on the benchmark's own phase array.
"""

import csv
import io

import numpy as np

SANDWICH_TOL = 1e-6    # the floor tolerance verify-expl itself applies
SURFACE_TOL = 1e-9
CERTIFY_TOL = 1e-8
EXACT_TOL = 1e-12
DESIGN_TOL = 1e-9
RATE_CONSTANT = 8.0    # n * gap_n <= RATE_CONSTANT * |A - B|_F at every n


def _close(value, expected, tol):
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def trace_floors(A, B):
    """Closed-form relaxed bulk densities |tr|, tr+ and tr- of A - B."""
    tr = float(np.trace(np.asarray(A, dtype=float) - np.asarray(B, dtype=float)))
    return {"abs": abs(tr), "plus": max(tr, 0.0), "minus": max(-tr, 0.0)}


def parse_csv(text):
    """Data rows of an sdrelax CSV table as dicts (comment lines skipped)."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def check_sandwich_rows(A, B, rows, tol=SANDWICH_TOL):
    """verify-expl rows of one pair against the benchmark's own trace floors."""
    floors = trace_floors(A, B)
    problems = []
    kinds = sorted(row["kind"] for row in rows)
    if kinds != sorted(floors):
        problems.append(f"sandwich kinds {kinds}, expected {sorted(floors)}")
    for row in rows:
        kind = row["kind"]
        if kind not in floors:
            continue
        lower = floors[kind]
        closed = float(row["closed_form"])
        grid = float(row["grid_value"])
        est = float(row["estimate"])
        if not _close(closed, lower, EXACT_TOL):
            problems.append(f"{kind}: closed_form {closed!r} != trace {lower!r}")
        if grid < lower - tol:
            problems.append(f"{kind}: grid_value {grid!r} below trace {lower!r}")
        if est < lower - tol:
            problems.append(f"{kind}: estimate {est!r} below trace {lower!r}")
        if abs(est - lower) > tol:
            problems.append(f"{kind}: estimate {est!r} misses trace {lower!r}")
    return problems


def check_surface(lam, nu, value):
    """Surface estimate equals |lam . nu| and never exceeds Psi(lam, nu)."""
    direct = abs(float(np.dot(lam, nu)))
    problems = []
    if abs(value - direct) > SURFACE_TOL:
        problems.append(f"surface estimate {value!r} != |lam.nu| {direct!r}")
    if value > direct + EXACT_TOL:
        problems.append(f"surface estimate {value!r} exceeds Psi {direct!r}")
    return problems


def check_certified(A, B, value, realized, schedule):
    """Zero-bulk certified estimate: value |tr(A - B)|, realized gaps O(1/n).

    With gap_n = |value - E_n| the checks are the envelope
    n * gap_n <= RATE_CONSTANT * |A - B|_F at every n, and, for the last two
    refinements n1 < n2, |n2 * gap_n2 - n1 * gap_n1| <= RATE_CONSTANT *
    |A - B|_F / n1: n * gap_n settles, so the gap roughly halves as n
    doubles.
    """
    floor = trace_floors(A, B)["abs"]
    scale = float(np.linalg.norm(np.asarray(A, dtype=float) - np.asarray(B, dtype=float)))
    problems = []
    if not _close(value, floor, CERTIFY_TOL):
        problems.append(f"certified value {value!r} != |tr(A-B)| {floor!r}")
    ns = [n for n, _ in realized]
    if ns != list(schedule):
        problems.append(f"realized refinements {ns}, expected {list(schedule)}")
        return problems
    scaled = [n * abs(value - e) for n, e in realized]
    for n, s in zip(ns, scaled):
        if s > RATE_CONSTANT * scale + EXACT_TOL:
            problems.append(f"n={n}: n*gap {s!r} above {RATE_CONSTANT} |A-B| = "
                            f"{RATE_CONSTANT * scale!r}")
    if len(ns) >= 2 and abs(scaled[-1] - scaled[-2]) > RATE_CONSTANT * scale / ns[-2] + EXACT_TOL:
        problems.append(f"n*gap moved from {scaled[-2]!r} to {scaled[-1]!r} between "
                        f"n={ns[-2]} and n={ns[-1]}: not a 1/n rate")
    return problems


def check_broken_ramp(reports, ns):
    """Broken ramp under |jump . normal|: energy 1 - 1/n."""
    problems = [] if [r.n for r in reports] == list(ns) else [f"ramp n list {[r.n for r in reports]}"]
    for r in reports:
        if abs(r.energy - (1.0 - 1.0 / r.n)) > EXACT_TOL:
            problems.append(f"ramp n={r.n}: energy {r.energy!r} != 1 - 1/n")
    return problems


def check_deck_of_cards(reports, ns):
    """Deck of cards: energy 0, l1 error 1/(2n), singular variation 1 - 1/n."""
    problems = [] if [r.n for r in reports] == list(ns) else [f"deck n list {[r.n for r in reports]}"]
    for r in reports:
        if abs(r.energy) > EXACT_TOL:
            problems.append(f"deck n={r.n}: energy {r.energy!r} != 0")
        if abs(r.l1_error - 0.5 / r.n) > EXACT_TOL:
            problems.append(f"deck n={r.n}: l1_error {r.l1_error!r} != 1/(2n)")
        if abs(r.singular_tv - (1.0 - 1.0 / r.n)) > EXACT_TOL:
            problems.append(f"deck n={r.n}: singular_tv {r.singular_tv!r} != 1 - 1/n")
    return problems


def trace_bulk(gradients, G, cell_volume):
    """Sum over cells of vol * |tr(grad g - G)|."""
    d = np.asarray(gradients, dtype=float) - np.asarray(G, dtype=float)
    return cell_volume * float(np.abs(np.trace(d, axis1=1, axis2=2)).sum())


def grid_perimeter(layout):
    """Length of the phase interface of a square phase array on the unit square."""
    layout = np.asarray(layout)
    faces = np.count_nonzero(layout[1:, :] != layout[:-1, :]) + \
        np.count_nonzero(layout[:, 1:] != layout[:, :-1])
    return faces / layout.shape[0]


def check_design(value, bulk, perimeter, continuous, design_energy=None):
    """Relaxed design energy against the trace bulk and the counted perimeter.

    Continuous deformation: value = bulk + perimeter. Discontinuous one:
    bulk + perimeter <= value <= bulk + design_energy (the unrelaxed energy,
    which already contains the perimeter).
    """
    low = bulk + perimeter
    if continuous:
        if abs(value - low) > DESIGN_TOL:
            return [f"design energy {value!r} != bulk + perimeter {low!r}"]
        return []
    problems = []
    if value < low - DESIGN_TOL:
        problems.append(f"design energy {value!r} below bulk + perimeter {low!r}")
    if value > bulk + design_energy + DESIGN_TOL:
        problems.append(f"design energy {value!r} above bulk + design_energy "
                        f"{bulk + design_energy!r}")
    return problems
