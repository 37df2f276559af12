"""Tests of the benchmark itself: checkers, timing correction, tracing.

    python3 -m pytest perfbench
"""

import dataclasses
import io
import contextlib
import json

import numpy as np
import pytest

import checks
import run
from meter import NOMINAL_REF_S, Meter
from tracing import Tracer
from workloads import WORKLOADS

M = run.load_program()
PSI = M.energy.surface_density("abs_normal_jump")
DS = M.energy.DensitySet.simple(M.energy.bulk_density("zero"), PSI)
RNG = np.random.default_rng(2024)
A2, B2 = RNG.normal(size=(2, 2)), RNG.normal(size=(2, 2))


def perturbed_rows(rows, kind, column, delta):
    out = [dict(r) for r in rows]
    for r in out:
        if r["kind"] == kind:
            r[column] = repr(float(r[column]) + delta)
    return out


# -- checkers ------------------------------------------------------------

def test_sandwich_checker_rejects_perturbed_rows():
    buf = io.StringIO()
    config = {"command": "verify-expl", "dim": 2,
              "pairs": [{"A": A2.tolist(), "B": B2.tolist()}]}
    with contextlib.redirect_stdout(buf):
        M.cli.run(config, jobs=1)
    rows = checks.parse_csv(buf.getvalue())
    assert checks.check_sandwich_rows(A2, B2, rows) == []
    assert checks.check_sandwich_rows(A2, B2, perturbed_rows(rows, "abs", "closed_form", 1e-9))
    assert checks.check_sandwich_rows(A2, B2, perturbed_rows(rows, "plus", "grid_value", -1e-3))
    assert checks.check_sandwich_rows(A2, B2, perturbed_rows(rows, "minus", "estimate", -1e-3))
    assert checks.check_sandwich_rows(A2, B2, perturbed_rows(rows, "abs", "estimate", 1e-3))
    assert checks.check_sandwich_rows(A2, B2, rows[:2])


def test_surface_checker_rejects_perturbed_values():
    lam = np.array([0.3, -1.2, 0.8])
    nu = np.array([0.2, 0.5, -0.7]) / np.linalg.norm([0.2, 0.5, -0.7])
    value = M.cell.estimate_relaxed_surface(lam, nu, PSI).value
    assert checks.check_surface(lam, nu, value) == []
    assert checks.check_surface(lam, nu, value + 1e-8)
    assert checks.check_surface(lam, nu, value - 1e-8)


def test_certified_checker_rejects_perturbed_values():
    schedule = (4, 8, 16, 32)
    budget = M.cell.OptimizerBudget(certify=True, n_schedule=schedule)
    sol = M.cell.estimate_relaxed_bulk(A2, B2, DS, budget)
    realized = sol.meta["realized"]
    scale = float(np.linalg.norm(A2 - B2))
    assert checks.check_certified(A2, B2, sol.value, realized, schedule) == []
    assert checks.check_certified(A2, B2, sol.value + 1e-6, realized, schedule)
    assert checks.check_certified(A2, B2, sol.value, realized, (4, 8, 16, 64))
    last = realized[:-1] + ((32, realized[-1][1] + scale / 32.0),)
    assert checks.check_certified(A2, B2, sol.value, last, schedule)
    first = ((4, sol.value - 3.0 * scale),) + realized[1:]
    assert checks.check_certified(A2, B2, sol.value, first, schedule)


def test_sequence_checkers_reject_perturbed_reports():
    ns = [3, 8, 21]
    ramp = M.fields.sequence_report(M.fields.broken_ramp_deformation(),
                                    M.core.identity_frame(1), ns, DS)
    deck = M.fields.sequence_report(M.fields.deck_of_cards_deformation(),
                                    M.core.identity_frame(3), ns, DS)
    assert checks.check_broken_ramp(ramp, ns) == []
    assert checks.check_deck_of_cards(deck, ns) == []
    bump = dataclasses.replace
    assert checks.check_broken_ramp([bump(ramp[0], energy=ramp[0].energy + 1e-9)] + ramp[1:], ns)
    assert checks.check_broken_ramp(ramp, [3, 8, 22])
    for field in ("energy", "l1_error", "singular_tv"):
        changed = bump(deck[1], **{field: getattr(deck[1], field) + 1e-9})
        assert checks.check_deck_of_cards([deck[0], changed, deck[2]], ns)


def test_perimeter_and_trace_bulk_oracles():
    assert checks.grid_perimeter(np.array([[0, 1], [1, 0]])) == 2.0
    assert checks.grid_perimeter(np.array([[1, 1], [0, 0]])) == 1.0
    assert checks.grid_perimeter(np.ones((3, 3), dtype=int)) == 0.0
    grads = np.array([np.diag([2.0, 1.0]), np.eye(2)])
    G = np.array([np.eye(2), np.diag([3.0, 1.0])])
    assert checks.trace_bulk(grads, G, 0.5) == pytest.approx(0.5 * (1.0 + 2.0))


def design_case(continuous, layout):
    e, od = M.energy, M.optdesign
    ds = e.DensitySet.design(e.bulk_density("zero"), e.bulk_density("zero"), PSI, PSI,
                             e.interface_density("phase_gap_normal_jump"))
    sd = M.fields.random_structured_deformation(np.random.SeedSequence(5), dim=2,
                                                resolution=2, continuous=continuous)
    mesh = sd.g.mesh
    chi = od.PhaseField(mesh, np.array([layout[m] for m in mesh.multi_indices()]))
    value = od.relaxed_design_energy(chi, sd, od.DesignDensityTables.from_estimators(ds))
    bulk = checks.trace_bulk(sd.g.gradients, sd.G, mesh.cell_volume)
    return value, bulk, checks.grid_perimeter(layout), od.design_energy(chi, sd.g, ds)


def test_design_checker_rejects_perturbed_values():
    value, bulk, per, _ = design_case(True, np.array([[0, 1], [1, 0]]))
    assert per == 2.0
    assert checks.check_design(value, bulk, per, True) == []
    assert checks.check_design(value + 1e-6, bulk, per, True)
    value, bulk, per, upper = design_case(False, np.array([[1, 1], [0, 0]]))
    assert checks.check_design(value, bulk, per, False, upper) == []
    assert checks.check_design(bulk + per - 1e-6, bulk, per, False, upper)
    assert checks.check_design(bulk + upper + 1e-6, bulk, per, False, upper)


# -- reference-loop correction ----------------------------------------------

class FakeClock:
    def __init__(self, steps):
        self.times = iter(np.cumsum(steps))

    def __call__(self):
        return float(next(self.times))


def test_every_timed_interval_is_corrected_by_the_reference_loop():
    refs = iter([4e-3, 3e-3, 5e-3, 6e-3, 1e-3])
    clock = FakeClock([0.0, 0.5, 0.0, 0.25, 0.0, 1.0])
    ages = iter([1.5, 99.0])
    meter = Meter(ref=lambda: next(refs), clock=clock, age=lambda: next(ages))
    meter.time_op("a", 0, lambda: "x")          # before 4e-3, after 3e-3
    meter.time_op("b", 0, lambda: "y")          # before shared 3e-3, after 5e-3
    meter.invalidate()
    with pytest.raises(ZeroDivisionError):
        meter.time_op("c", 1, lambda: 1 / 0)    # before 6e-3, after 1e-3
    expected = [(0.5, 4e-3, 3e-3, True), (0.25, 3e-3, 5e-3, True), (1.0, 6e-3, 1e-3, False)]
    assert len(meter.records) == 3
    for rec, (raw, before, after, ok) in zip(meter.records, expected):
        assert (rec.raw_s, rec.ref_before_s, rec.ref_after_s, rec.ok) == (raw, before, after, ok)
        assert rec.corrected_s == pytest.approx(raw * NOMINAL_REF_S / (0.5 * (before + after)))
    total = sum(raw * NOMINAL_REF_S / (0.5 * (b + a)) for raw, b, a, _ in expected)
    assert meter.ops_per_s() == pytest.approx(2 / total)
    assert meter.ops_per_s(corrected=False) == pytest.approx(2 / 1.75)
    assert meter.setup_raw_s == 1.5
    assert meter.setup_s == pytest.approx(1.5 * total / 1.75)


# -- tracing ------------------------------------------------------------

def test_self_time_subtracts_children_and_applies_the_op_factor():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 8.0, 16.0]))
    inner = tracer.span_wrapper("inner", lambda: None)
    outer = tracer.span_wrapper("outer", lambda: inner())
    tracer.run_op(0, "op", outer)   # op [0,31], outer [1,15], inner [3,7]
    selfs = tracer.self_seconds({0}, {0: 2.0})
    assert selfs["inner"] == pytest.approx(2.0 * 4.0)
    assert selfs["outer"] == pytest.approx(2.0 * (14.0 - 4.0))
    assert selfs["op:op"] == pytest.approx(2.0 * (31.0 - 14.0))
    assert tracer.counts_over({0}) == {"inner.calls": 1, "outer.calls": 1}
    assert tracer.counts_over({1}) == {}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = M.core.frame_cost
    tracer = Tracer()
    tracer.install()
    try:
        assert M.core.frame_cost is not original
        assert M.cell.frame_cost is M.core.frame_cost
        tracer.run_op(0, "grid", lambda: M.cell.estimate_relaxed_bulk(A2, B2, DS))
        counts = tracer.counts_over({0})
        assert counts["cell.estimate_relaxed_bulk.calls"] == 1
        assert counts["core.frame_cost.calls"] > 0
    finally:
        tracer.uninstall()
    assert M.core.frame_cost is original and M.cell.frame_cost is original


def test_per_layer_names_match_the_benchmark_file():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
