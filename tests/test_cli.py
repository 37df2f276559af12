"""Command-line runner: configs, CSV output, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import sdrelax
from sdrelax.cli import main, run
from sdrelax.errors import ConfigError
from sdrelax.fields import evaluate, load_field


def _write_config(tmp_path, name, body):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(body, fh)
    return path


def _read_output(path):
    with open(path) as fh:
        return fh.read()


def _data_lines(text):
    # Everything except the timestamped comment, which legitimately varies.
    return [line for line in text.splitlines()
            if not line.startswith("# generated:")]


def test_missing_command_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {"seed": 0})
    assert main(["--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_unknown_command_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {"command": "no-such-thing"})
    assert main(["--config", cfg]) == 2
    assert "choose from" in json.loads(capsys.readouterr().err)["message"]


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "broken.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert main(["--config", path]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["--config", os.path.join(tmp_path, "nope.json")]) == 2
    capsys.readouterr()


def test_sequence_command_writes_the_known_table(tmp_path):
    out = os.path.join(tmp_path, "seq.csv")
    cfg = _write_config(tmp_path, "seq.json", {
        "command": "sequence", "example": "broken-ramp",
        "parameters": {"n": [1, 2, 4, 8]}, "output_path": out})
    assert main(["--config", cfg]) == 0
    text = _read_output(out)
    assert text.startswith("# sdrelax sequence broken-ramp")
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,l1_error,singular_tv,energy"
    for line in lines[1:]:
        n, l1, tv, en = line.split(",")
        n = int(n)
        assert float(l1) == pytest.approx(1.0 / (2 * n), abs=1e-12)
        assert float(tv) == pytest.approx((n - 1) / n, abs=1e-12)
        assert float(en) == pytest.approx((n - 1) / n, abs=1e-12)


def test_sequence_command_saves_loadable_fields(tmp_path):
    save_dir = os.path.join(tmp_path, "fields")
    cfg = _write_config(tmp_path, "seq.json", {
        "command": "sequence", "example": "broken-ramp",
        "parameters": {"n": [2, 4], "save_fields": save_dir},
        "output_path": os.path.join(tmp_path, "seq.csv")})
    assert main(["--config", cfg]) == 0
    for n in (2, 4):
        u = load_field(os.path.join(save_dir, f"broken-ramp-n{n}.json"))
        assert evaluate(u, [0.25])[0] == pytest.approx(0.25 + (n // 4) / n)


def test_cell_command_with_explicit_pairs(tmp_path):
    out = os.path.join(tmp_path, "cell.csv")
    cfg = _write_config(tmp_path, "cell.json", {
        "command": "cell", "dim": 1,
        "parameters": {"pairs": [{"A": [[2.0]], "B": [[1.0]]}]},
        "output_path": out})
    assert main(["--config", cfg]) == 0
    lines = [l for l in _read_output(out).splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    row = lines[1].split(",")
    record = dict(zip(header, row))
    assert float(record["closed_form"]) == pytest.approx(1.0)
    assert float(record["estimate"]) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(record["gap"])) < 1e-12
    assert record["frame_angles"] == "-"


def test_verify_command_respects_floors_on_seeded_pairs(tmp_path):
    out = os.path.join(tmp_path, "verify.csv")
    cfg = _write_config(tmp_path, "verify.json", {
        "command": "verify-expl", "dim": 2,
        "parameters": {"samples": 3}, "output_path": out})
    assert main(["--config", cfg]) == 0
    lines = [l for l in _read_output(out).splitlines()
             if not l.startswith("#")]
    assert lines[0].split(",")[:3] == ["index", "kind", "closed_form"]
    assert len(lines) == 1 + 3 * 3  # three kinds per sample
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[5]) >= -1e-10   # grid_gap
        assert float(parts[6]) >= -1e-6    # estimate_gap


def test_verify_command_reports_violations_with_exit_three(tmp_path, capsys):
    cfg = _write_config(tmp_path, "verify.json", {
        "command": "verify-expl", "dim": 2,
        "parameters": {"samples": 1, "tolerance": -1e-3},
        "output_path": os.path.join(tmp_path, "verify.csv")})
    assert main(["--config", cfg]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SandwichViolationError"
    assert "violations" in err["payload"]


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "seq.json", {
        "command": "sequence", "example": "broken-ramp",
        "parameters": {"n": [1]},
        "output_path": os.path.join(tmp_path, "no", "such", "dir", "x.csv")})
    assert main(["--config", cfg]) == 4
    capsys.readouterr()


def test_data_rows_are_deterministic_for_a_fixed_seed(tmp_path):
    texts = []
    for run in range(2):
        out = os.path.join(tmp_path, f"h{run}.csv")
        cfg = _write_config(tmp_path, f"h{run}.json", {
            "command": "h-cell", "dim": 2, "seed": 5,
            "parameters": {"samples": 6}, "output_path": out})
        assert main(["--config", cfg]) == 0
        texts.append(_read_output(out))
    assert _data_lines(texts[0]) == _data_lines(texts[1])


def test_worker_threads_do_not_change_the_output(tmp_path):
    texts = []
    for run, jobs in enumerate(("1", "4")):
        out = os.path.join(tmp_path, f"j{run}.csv")
        cfg = _write_config(tmp_path, f"j{run}.json", {
            "command": "verify-expl", "dim": 2, "seed": 3,
            "parameters": {"samples": 4}, "output_path": out})
        assert main(["--config", cfg, "--jobs", jobs]) == 0
        texts.append(_read_output(out))
    assert _data_lines(texts[0]) == _data_lines(texts[1])


def test_seed_override_changes_and_restores_the_rows(tmp_path):
    def rows_for(seed):
        out = os.path.join(tmp_path, f"s{seed}.csv")
        cfg = _write_config(tmp_path, f"s{seed}.json", {
            "command": "h-cell", "dim": 2,
            "parameters": {"samples": 5}, "output_path": out})
        assert main(["--config", cfg, "--seed", str(seed)]) == 0
        return _data_lines(_read_output(out))

    assert rows_for(1) != rows_for(2)
    assert rows_for(1) == rows_for(1)


def test_vpm_command_passes_on_examples_and_seeds(tmp_path):
    out = os.path.join(tmp_path, "vpm.csv")
    cfg = _write_config(tmp_path, "vpm.json", {
        "command": "vpm", "dim": 2,
        "parameters": {"samples": 4}, "output_path": out})
    assert main(["--config", cfg]) == 0
    lines = [l for l in _read_output(out).splitlines()
             if not l.startswith("#")]
    assert lines[0].split(",")[0] == "case"
    names = [l.split(",")[0] for l in lines[1:]]
    assert names[:2] == ["broken-ramp", "deck-of-cards"]
    assert all(l.split(",")[-1] == "true" for l in lines[1:])


def test_validate_densities_requires_disambiguation(tmp_path, capsys):
    cfg = _write_config(tmp_path, "v.json", {
        "command": "validate-densities", "density": "zero",
        "output_path": os.path.join(tmp_path, "v.csv")})
    assert main(["--config", cfg]) == 2
    assert "density_kind" in json.loads(capsys.readouterr().err)["message"]


def test_validate_densities_reports_statuses(tmp_path):
    out = os.path.join(tmp_path, "v.csv")
    cfg = _write_config(tmp_path, "v.json", {
        "command": "validate-densities", "density": "abs_normal_jump",
        "parameters": {"samples": 2000}, "output_path": out})
    assert main(["--config", cfg]) == 0
    lines = [l for l in _read_output(out).splitlines()
             if not l.startswith("#")]
    statuses = {parts[0]: parts[1]
                for parts in (l.split(",") for l in lines[1:])}
    assert statuses["one_homogeneity"] == "pass"
    assert statuses["subadditivity"] == "pass"
    assert statuses["lower_bound"] == "warn"


def test_console_script_round_trip(tmp_path):
    out = os.path.join(tmp_path, "seq.csv")
    cfg = _write_config(tmp_path, "seq.json", {
        "command": "sequence", "example": "deck-of-cards",
        "parameters": {"n": [1, 2, 4]}, "output_path": out})
    # The child imports the same sdrelax as this test, installed or not.
    src = os.path.dirname(os.path.dirname(sdrelax.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sdrelax.cli",
                           "--config", cfg], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in _read_output(out).splitlines()
             if not l.startswith("#")]
    for line in lines[1:]:
        n, _, tv, en = line.split(",")
        assert float(en) == 0.0
        assert float(tv) == pytest.approx((int(n) - 1) / int(n), abs=1e-12)


def test_stdout_is_used_when_no_output_path_is_given(tmp_path, capsys):
    cfg = _write_config(tmp_path, "seq.json", {
        "command": "sequence", "example": "broken-ramp",
        "parameters": {"n": [2]}})
    assert main(["--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# sdrelax sequence broken-ramp")
    assert "n,l1_error,singular_tv,energy" in out


@pytest.mark.parametrize("budget", [
    {"restarts": 0},
    {"restarts": 2.5},
    {"max_iterations": 0},
    {"max_iterations": 1.5},
    {"simplex_tolerance": -1},
    {"simplex_tolerance": 0},
    {"simplex_tolerance": float("inf")},
    {"n_schedule": []},
    {"n_schedule": [0, 4]},
    {"n_schedule": [4, 8.5]},
    {"n_schedule": 4},
    {"certify": "false"},
    {"certify": 1},
    {"no_such_field": 1},
])
def test_bad_budgets_are_config_errors(tmp_path, capsys, budget):
    config = {"command": "cell", "dim": 2,
              "parameters": {"samples": 1, "budget": budget},
              "output_path": os.path.join(tmp_path, "cell.csv")}
    with pytest.raises(ConfigError):
        run(config)
    cfg = _write_config(tmp_path, "cell.json", config)
    assert main(["--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_a_valid_budget_runs(tmp_path):
    out = os.path.join(tmp_path, "cell.csv")
    cfg = _write_config(tmp_path, "cell.json", {
        "command": "cell", "dim": 2,
        "parameters": {"samples": 1, "budget": {
            "restarts": 3, "max_iterations": 50, "simplex_tolerance": 1e-8,
            "n_schedule": [2, 4]}},
        "output_path": out})
    assert main(["--config", cfg]) == 0
    assert len([l for l in _read_output(out).splitlines()
                if not l.startswith("#")]) == 2


@pytest.mark.parametrize("command, name, value", [
    *((command, "scale", value)
      for command in ("cell", "h-cell", "verify-expl", "design")
      for value in (float("nan"), float("inf"), "x", True)),
    *(("verify-expl", "tolerance", value)
      for value in (float("nan"), float("-inf"), "x", None)),
    *(("verify-expl", "grid_resolution", value) for value in (0, -3, 2.5, "x")),
    ("verify-expl", "kinds", 5),
])
def test_bad_numbers_are_config_errors(tmp_path, capsys, command, name, value):
    config = {"command": command, "dim": 2,
              "parameters": {"samples": 1, name: value},
              "output_path": os.path.join(tmp_path, "out.csv")}
    with pytest.raises(ConfigError):
        run(config)
    cfg = _write_config(tmp_path, "bad.json", config)
    assert main(["--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not os.path.exists(config["output_path"])


@pytest.mark.parametrize("command, name", [
    ("h-cell", "samples"), ("vpm", "samples"), ("vpm", "resolution"),
    ("cell", "dim"), ("verify-expl", "grid_resolution"),
])
def test_booleans_are_not_integers(tmp_path, capsys, command, name):
    # bool is an int subclass; JSON true must not run as the integer 1.
    config = {"command": command, "dim": 2,
              "parameters": {"samples": 1, name: True},
              "output_path": os.path.join(tmp_path, "out.csv")}
    with pytest.raises(ConfigError, match=name):
        run(config)
    cfg = _write_config(tmp_path, "bad.json", config)
    assert main(["--config", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not os.path.exists(config["output_path"])


def test_integral_numbers_run(tmp_path):
    out = os.path.join(tmp_path, "verify.csv")
    run({"command": "verify-expl", "dim": 2,
         "parameters": {"samples": 1, "scale": 2, "tolerance": 1,
                        "grid_resolution": 12, "kinds": ["abs"]},
         "output_path": out})
    assert len([l for l in _read_output(out).splitlines()
                if not l.startswith("#")]) == 2
