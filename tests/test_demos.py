"""Smoke tests that run the demo scripts end to end and read their output."""

import os
import runpy

import numpy as np
import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def test_optimal_design_demo_prints_the_limiting_cell_values(capsys):
    runpy.run_path(os.path.join(DEMOS, "06_optimal_design.py"),
                   run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("interface cell problem across a unit plane") + 2
    rows = {}
    for line in lines[start:start + 4]:
        name, numbers = line[:24].strip(), line[24:].split()
        rows[name] = (float(numbers[0]), int(numbers[1]), int(numbers[2]))
    expected = {
        "same phase, same value": (0.0, 0, 0),
        "phase flip only": (1.0, 1, 0),
        "value jump only": (0.8, 0, 1),
        "both jump": (1.8, 1, 1),
    }
    assert set(rows) == set(expected)
    for name, (value, phase_planes, value_planes) in expected.items():
        got = rows[name]
        assert got[0] == pytest.approx(value, abs=1e-6), name
        assert got[1:] == (phase_planes, value_planes), name


def test_cell_formulas_demo_closes_every_gap(capsys):
    runpy.run_path(os.path.join(DEMOS, "03_cell_formulas.py"),
                   run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("bulk cell problem, ten random 2x2 pairs") + 2
    rows = [line.split() for line in lines[start:start + 10]]
    assert [int(row[0]) for row in rows] == list(range(10))
    for row in rows:
        grid_gap, route_gap = float(row[4]), float(row[5])
        assert abs(grid_gap) <= 1e-9 and abs(route_gap) <= 1e-9, row
    traceless = next(line for line in lines if "A = diag(1, -1)" in line)
    angle = float(traceless.split("frame angle ")[1].split()[0])
    assert angle == pytest.approx(np.pi / 4, abs=1e-6)


def _table(capsys, script, title, rows):
    runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(title) + 2
    return [line.split() for line in lines[start:start + rows]]


def test_broken_ramp_demo_prints_the_closed_forms(capsys):
    rows = _table(capsys, "01_broken_ramp.py",
                  "doubled ramp: g(x) = 2x approximated with unit-slope staircases", 7)
    assert [int(row[0]) for row in rows] == [1, 2, 4, 8, 16, 32, 64]
    for row in rows:
        n = int(row[0])
        l1, tv, energy = float(row[1]), float(row[3]), float(row[4])
        assert l1 == pytest.approx(1.0 / (2 * n), abs=1e-10), row
        # Six printed decimals.
        assert tv == pytest.approx((n - 1) / n, abs=5e-7), row
        assert energy == pytest.approx((n - 1) / n, abs=5e-7), row


def test_deck_of_cards_demo_prints_zero_energy(capsys):
    rows = _table(capsys, "02_deck_of_cards.py",
                  "deck of cards: shear carried entirely by interlayer slips", 6)
    assert [int(row[0]) for row in rows] == [1, 2, 4, 8, 16, 32]
    for row in rows:
        n = int(row[0])
        assert float(row[1]) == pytest.approx((n - 1) / n, abs=5e-7), row
        assert float(row[2]) == 0.0, row


def test_plus_minus_demo_residuals_vanish(capsys):
    rows = _table(capsys, "05_plus_minus_identity.py",
                  "one-sided split of the relaxed energy", 8)
    assert [row[0] for row in rows[:2]] == ["ramp", "cards"]
    for row in rows:
        residuals = [float(v) for v in row[-3:]]
        assert max(abs(r) for r in residuals) <= 1e-12, row


def test_jump_cell_demo_keeps_the_single_plane(capsys):
    runpy.run_path(os.path.join(DEMOS, "04_jump_cell.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("surface cell problem, eight random data in three dimensions") + 2
    rows = [line.split() for line in lines[start:start + 8]]
    assert [int(row[0]) for row in rows] == list(range(8))
    for row in rows:
        direct, two, three = float(row[1]), float(row[3]), float(row[4])
        assert row[2] == row[1], row
        # Realized split energies, printed with eight decimals.
        assert two >= direct - 5e-9 and three >= direct - 5e-9, row
    tangential = next(line for line in lines if "lam = e1, nu = e3" in line)
    assert float(tangential.split("estimate ")[1]) == 0.0


def test_density_checks_demo_prints_the_expected_statuses(capsys):
    runpy.run_path(os.path.join(DEMOS, "07_density_checks.py"), run_name="__main__")
    reports, title = {}, None
    for line in capsys.readouterr().out.splitlines():
        if not line:
            title = None
        elif title is None:
            title = line.split(" (")[0]
            reports[title] = {}
        else:
            name, status = line.split()[:2]
            reports[title][name] = status
    surface = ("nonnegative", "lower_bound", "upper_bound", "one_homogeneity",
               "subadditivity", "normal_form")
    expected = {
        "normal-jump kernel |lam . nu|":
            dict(zip(surface, ("pass", "warn", "pass", "pass", "pass", "pass"))),
        "squared magnitude |lam|^2":
            dict(zip(surface, ("pass", "warn", "fail", "fail", "fail", "pass"))),
        "plain magnitude |lam|":
            dict(zip(surface, ("pass",) * 6)),
        "phase-gap pair kernel |a - b| |(c - d) . nu|":
            dict.fromkeys(("nonnegative", "growth_bound", "swap_symmetry",
                           "trace_lipschitz", "diagonal_vanishing",
                           "one_homogeneity", "normal_form"), "pass"),
        "bulk growth of the squared Frobenius norm":
            {"lipschitz_growth": "pass"},
        "exponential bulk density declared p = 2":
            {"lipschitz_growth": "fail"},
    }
    assert reports == expected
