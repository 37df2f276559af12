"""Command-line front end: reproducible experiments from JSON configs.

Each run loads one config file naming a command, its parameters, a seed,
and an output path, then writes a CSV table. Identical config and seed
give byte-identical data rows; the only varying line is the timestamped
comment in the header. --jobs runs sweeps on worker threads with results
reassembled in input order, so it never changes output. The searches hold
the GIL, so more jobs do not make a sweep faster (a 40-pair verify-expl
measured slower with 2 jobs than with 1).

Exit codes: 0 success, 2 config error, 3 numerical failure (a verification
report found a violation), 4 output I/O error. Failures print a one-line
JSON error report to stderr.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np

from .cell import (OptimizerBudget, _is_integer, estimate_relaxed_bulk,
                   estimate_relaxed_surface)
from .core import identity_frame
from .energy import (DENSITY_KINDS, DensitySet, bulk_density, check_bulk_growth,
                     check_interface_axioms, check_surface_axioms,
                     interface_density, surface_density)
from .errors import ConfigError, NumericalFailureError
from .fields import (broken_ramp, broken_ramp_deformation, deck_of_cards,
                     deck_of_cards_deformation, random_structured_deformation,
                     save_field, sequence_report)
from .optdesign import DesignBoundaryData, estimate_interface_cell
from .relaxed import (EXACT_KINDS, UNRELAXED_SURFACE, exact_pair,
                      verify_plus_minus_identity, verify_trace_sandwich)

_EXAMPLES = {
    "broken-ramp": (broken_ramp_deformation, 1, "jump_magnitude"),
    "deck-of-cards": (deck_of_cards_deformation, 3, "abs_normal_jump"),
}


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, title, column_docs, columns, rows):
    lines = [f"# sdrelax {title}"]
    lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    for doc in column_docs:
        lines.append(f"# {doc}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parallel(jobs, fn, items):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def _budget_from(params):
    spec = params.get("budget")
    if spec is None:
        return OptimizerBudget()
    if not isinstance(spec, dict):
        raise ConfigError("budget must be an object of OptimizerBudget fields")
    try:
        return OptimizerBudget(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad budget: {exc}") from exc


def _int_param(params, name, default, minimum=1):
    value = params.get(name, default)
    if not _is_integer(value) or value < minimum:
        raise ConfigError(f"parameter {name!r} must be an integer >= {minimum}")
    return int(value)


def _float_param(params, name, default):
    value = params.get(name, default)
    numeric = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not numeric or not math.isfinite(value):
        raise ConfigError(f"parameter {name!r} must be a finite number")
    return float(value)


def _dim_param(params, default):
    dim = _int_param(params, "dim", default)
    if dim not in (1, 2, 3):
        raise ConfigError("dim must be 1, 2, or 3")
    return dim


def _random_unit(rng, dim):
    while True:
        v = rng.normal(size=dim)
        norm = float(np.linalg.norm(v))
        if norm > 1e-8:
            return v / norm


def _cmd_sequence(params, seed, jobs):
    name = params.get("example", "broken-ramp")
    if name not in _EXAMPLES:
        raise ConfigError(f"unknown example {name!r}; choose from {sorted(_EXAMPLES)}")
    build, dim, default_psi = _EXAMPLES[name]
    ns = params.get("n", [1, 2, 4, 8, 16, 32])
    if not isinstance(ns, list) or not ns or any(
            not _is_integer(n) or n < 1 for n in ns):
        raise ConfigError("parameter 'n' must be a nonempty list of positive integers")
    W = bulk_density(params.get("bulk_density", "zero"))
    psi = surface_density(params.get("surface_density", default_psi))
    ds = DensitySet.simple(W, psi)
    sd = build()
    reports = sequence_report(sd, identity_frame(dim), [int(n) for n in ns], ds)
    save_dir = params.get("save_fields")
    if save_dir is not None:
        build_step = {"broken-ramp": broken_ramp, "deck-of-cards": deck_of_cards}[name]
        os.makedirs(save_dir, exist_ok=True)
        for n in ns:
            save_field(build_step(int(n)),
                       os.path.join(save_dir, f"{name}-n{int(n)}.json"))
    rows = [[r.n, r.l1_error, r.singular_tv, r.energy] for r in reports]
    docs = ["columns: n = staircase refinement;"
            " l1_error = integral of |u_n - g| over the domain;",
            "singular_tv = total variation carried by the jump set of u_n;"
            " energy = bulk plus interfacial energy of u_n"]
    return f"sequence {name}", docs, ["n", "l1_error", "singular_tv", "energy"], rows


def _matrix_param(entry, name, dim=None):
    try:
        M = np.asarray(entry, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pair entry {name!r} is not a numeric matrix") from exc
    if M.ndim != 2 or (dim is not None and M.shape != (dim, dim)):
        raise ConfigError(f"pair entry {name!r} has shape {M.shape}, "
                          f"expected a square matrix")
    return M


def _gradient_pairs(params, seed, default_samples, dim, scale):
    """Explicit {A, B} pairs from the config, or seeded random ones."""
    pairs = params.get("pairs")
    if pairs is not None:
        if not isinstance(pairs, list) or not pairs:
            raise ConfigError("parameter 'pairs' must be a nonempty list of"
                              " {A, B} objects")
        out = []
        for entry in pairs:
            if not isinstance(entry, dict) or "A" not in entry or "B" not in entry:
                raise ConfigError("each pair needs 'A' and 'B' matrices")
            A = _matrix_param(entry["A"], "A")
            out.append((A, _matrix_param(entry["B"], "B", dim=A.shape[0])))
        return out
    samples = _int_param(params, "samples", default_samples)
    children = np.random.SeedSequence(seed).spawn(samples)
    out = []
    for i in range(samples):
        rng = np.random.default_rng(children[i])
        out.append((scale * rng.normal(size=(dim, dim)),
                    scale * rng.normal(size=(dim, dim))))
    return out


def _angles_text(frame):
    return ";".join(repr(float(a)) for a in frame.angles) if frame.angles else "-"


def _cmd_cell(params, seed, jobs):
    dim = _dim_param(params, 2)
    kind = params.get("kind", "abs")
    if kind not in EXACT_KINDS:
        raise ConfigError(f"kind must be one of {EXACT_KINDS}")
    scale = _float_param(params, "scale", 1.0)
    budget = _budget_from(params)
    psi = surface_density(params.get("surface_density", UNRELAXED_SURFACE[kind]))
    W0 = bulk_density(params.get("bulk_density", "zero"))
    ds = DensitySet.simple(W0, psi)
    exact = exact_pair(kind).bulk
    cases = _gradient_pairs(params, seed, 10, dim, scale)

    def work(i):
        A, B = cases[i]
        sol = estimate_relaxed_bulk(A, B, ds, budget)
        lower = float(exact(A, B))
        return [i, lower, sol.value, sol.value - lower,
                _angles_text(sol.frame), sol.refinement_n]

    rows = _parallel(jobs, work, range(len(cases)))
    docs = ["columns: index = sample number; closed_form = trace formula for the"
            " relaxed bulk density;",
            "estimate = staircase-family cell estimate; gap = estimate - closed_form"
            " (nonnegative up to optimizer tolerance when the bulk density is zero);",
            "frame_angles = minimizing frame (semicolon-joined radians);"
            " refinement_n = finest staircase refinement of the certificate"]
    return (f"cell sweep dim={dim} kind={kind}", docs,
            ["index", "closed_form", "estimate", "gap", "frame_angles",
             "refinement_n"], rows)


def _cmd_h_cell(params, seed, jobs):
    dim = _dim_param(params, 3)
    samples = _int_param(params, "samples", 20)
    scale = _float_param(params, "scale", 1.0)
    budget = _budget_from(params)
    psi = surface_density(params.get("surface_density", "abs_normal_jump"))
    children = np.random.SeedSequence(seed).spawn(samples)

    def work(i):
        rng = np.random.default_rng(children[i])
        lam = scale * rng.normal(size=dim)
        nu = _random_unit(rng, dim)
        sol = estimate_relaxed_surface(lam, nu, psi, budget)
        direct = float(psi(lam, nu))
        return [i, direct, sol.value, direct - sol.value]

    rows = _parallel(jobs, work, range(samples))
    docs = ["columns: index = sample number; single_plane = direct cost of one"
            " flat interface;",
            "estimate = best competitor value; improvement = single_plane - estimate"]
    return (f"h-cell sweep dim={dim}", docs,
            ["index", "single_plane", "estimate", "improvement"], rows)


def _cmd_verify_expl(params, seed, jobs):
    dim = _dim_param(params, 2)
    kinds = params.get("kinds", list(EXACT_KINDS))
    if isinstance(kinds, str):
        kinds = [kinds]
    if not (isinstance(kinds, list) and kinds and all(k in EXACT_KINDS for k in kinds)):
        raise ConfigError(f"kinds must be drawn from {EXACT_KINDS}")
    scale = _float_param(params, "scale", 1.0)
    budget = _budget_from(params)
    grid_resolution = (None if params.get("grid_resolution") is None
                       else _int_param(params, "grid_resolution", None))
    tolerance = _float_param(params, "tolerance", 1e-6)
    cases = _gradient_pairs(params, seed, 100, dim, scale)

    def work(i):
        A, B = cases[i]
        rep = verify_trace_sandwich(A, B, kinds=tuple(kinds), budget=budget,
                                    grid_resolution=grid_resolution,
                                    tolerance=tolerance)
        out = []
        for e in rep.entries:
            out.append([i, e.kind, e.lower, e.grid_value, e.estimate,
                        e.grid_gap, e.estimate_gap,
                        _angles_text(e.estimate_frame)])
        return out

    rows = [row for block in _parallel(jobs, work, range(len(cases)))
            for row in block]
    docs = ["columns: index; kind = trace flavor (abs, plus, minus);"
            " closed_form = trace formula;",
            "grid_value = dense frame-grid value; estimate = continuous-frame"
            " staircase value;",
            "grid_gap = grid_value - closed_form; estimate_gap = estimate -"
            " closed_form (both floors are enforced during the run);",
            "frame_angles = estimate's minimizing frame (semicolon-joined radians)"]
    return (f"trace sandwich dim={dim}", docs,
            ["index", "kind", "closed_form", "grid_value", "estimate",
             "grid_gap", "estimate_gap", "frame_angles"], rows)


def _cmd_vpm(params, seed, jobs):
    samples = _int_param(params, "samples", 20, minimum=0)
    dim = _dim_param(params, 2)
    resolution = _int_param(params, "resolution", 4)
    include_examples = params.get("include_examples", True)
    if not isinstance(include_examples, bool):
        raise ConfigError("parameter 'include_examples' must be true or false")
    cases = []
    if include_examples:
        cases.append(("broken-ramp", broken_ramp_deformation()))
        cases.append(("deck-of-cards", deck_of_cards_deformation()))
    children = np.random.SeedSequence(seed).spawn(max(samples, 1))
    for i in range(samples):
        cases.append((f"seeded-{i}",
                      random_structured_deformation(children[i], dim=dim,
                                                    resolution=resolution)))

    def work(case):
        name, sd = case
        rep = verify_plus_minus_identity(sd)
        return [name, rep.value_abs, rep.value_plus, rep.value_minus,
                rep.trace_volume_term + rep.trace_jump_term,
                rep.residual_plus, rep.residual_minus, rep.residual_sum,
                rep.passed]

    rows = _parallel(jobs, work, cases)
    bad = [r for r in rows if r[-1] is False]
    if bad:
        raise NumericalFailureError(
            f"one-sided split identity failed on {len(bad)} case(s)",
            payload={"cases": [r[0] for r in bad]})
    docs = ["columns: case; value_abs/plus/minus = relaxed energies under the"
            " three trace flavors;",
            "trace_term = signed disarrangement trace integral plus the jump"
            " trace integral of the macroscopic field;",
            "residual_plus/minus = deviation from half the absolute energy plus"
            " or minus half trace_term; residual_sum = plus + minus - abs"]
    return ("one-sided split identity", docs,
            ["case", "value_abs", "value_plus", "value_minus", "trace_term",
             "residual_plus", "residual_minus", "residual_sum", "passed"], rows)


def _cmd_design(params, seed, jobs):
    dim = _dim_param(params, 3)
    samples = _int_param(params, "samples", 10)
    scale = _float_param(params, "scale", 1.0)
    budget = _budget_from(params)
    ds = DensitySet.design(
        bulk_density(params.get("bulk_density_0", "zero")),
        bulk_density(params.get("bulk_density_1", "zero")),
        surface_density(params.get("surface_density_0", "abs_normal_jump")),
        surface_density(params.get("surface_density_1", "abs_normal_jump")),
        interface_density(params.get("interface_density", "phase_gap_normal_jump")))
    children = np.random.SeedSequence(seed).spawn(samples)

    def work(i):
        rng = np.random.default_rng(children[i])
        a = int(rng.integers(0, 2))
        b = int(rng.integers(0, 2))
        c = scale * rng.normal(size=dim)
        d = scale * rng.normal(size=dim)
        nu = _random_unit(rng, dim)
        sol = estimate_interface_cell(DesignBoundaryData(a, b, c, d, nu), ds, budget)
        return [i, a, b, *c, *d, *nu, sol.value]

    rows = _parallel(jobs, work, range(samples))
    cols = (["index", "a", "b"] + [f"c{k + 1}" for k in range(dim)]
            + [f"d{k + 1}" for k in range(dim)]
            + [f"nu{k + 1}" for k in range(dim)] + ["value"])
    docs = ["columns: a/b = phases on the +/- side; c*/d* = deformation values"
            " on the +/- side; nu* = interface normal;",
            "value = layered-competitor estimate of the interface cell problem"]
    return f"design interface sweep dim={dim}", docs, cols, rows


def _cmd_validate_densities(params, seed, jobs):
    name = params.get("density")
    if not name:
        raise ConfigError("parameter 'density' is required")
    kinds_of = [k for k, names in DENSITY_KINDS.items() if name in names]
    kind = params.get("density_kind")
    if kind is None:
        if not kinds_of:
            raise ConfigError(f"unknown density {name!r}")
        if len(kinds_of) > 1:
            raise ConfigError(f"density {name!r} exists as {sorted(kinds_of)};"
                              " pass density_kind to disambiguate")
        kind = kinds_of[0]
    dparams = params.get("density_params", {})
    if not isinstance(dparams, dict):
        raise ConfigError("density_params must be an object")
    samples = _int_param(params, "samples", 10000)
    dim = _dim_param(params, 3)
    if kind == "bulk":
        report = check_bulk_growth(bulk_density(name, **dparams), dim=dim,
                                   sample_count=samples, seed=seed)
    elif kind == "surface":
        report = check_surface_axioms(surface_density(name, **dparams), dim=dim,
                                      sample_count=samples, seed=seed)
    elif kind == "interface":
        report = check_interface_axioms(interface_density(name, **dparams),
                                        dim=dim, sample_count=samples, seed=seed)
    else:
        raise ConfigError(f"unknown density kind {kind!r}")
    rows = [[c.name, c.status, c.worst] for c in report.checks]
    docs = ["columns: check = property name; status = pass/warn/fail;",
            "worst = largest violation ratio observed over the sample set"]
    return (f"density checks {name}", docs, ["check", "status", "worst"], rows)


COMMANDS = {
    "sequence": _cmd_sequence,
    "cell": _cmd_cell,
    "h-cell": _cmd_h_cell,
    "verify-expl": _cmd_verify_expl,
    "vpm": _cmd_vpm,
    "design": _cmd_design,
    "validate-densities": _cmd_validate_densities,
}


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def run(config, jobs=1, output=None, seed=None):
    """Execute one experiment config; returns the path written (or None)."""
    if "command" not in config:
        raise ConfigError("config needs a 'command' field")
    command = config["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from"
                          f" {sorted(COMMANDS)}")
    params = {k: v for k, v in config.items()
              if k not in ("command", "seed", "output_path", "parameters")}
    nested = config.get("parameters", {})
    if not isinstance(nested, dict):
        raise ConfigError("'parameters' must be an object")
    params.update(nested)
    run_seed = seed if seed is not None else config.get("seed", 0)
    if not _is_integer(run_seed) or run_seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    title, docs, columns, rows = COMMANDS[command](params, int(run_seed), jobs)
    path = output if output is not None else config.get("output_path")
    try:
        _write_csv(path, title, docs, columns, rows)
    except OSError as exc:
        exc.sdrelax_io_error = True
        raise
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sdrelax",
        description="Reproducible experiments on relaxed energies of"
                    " piecewise-affine fields with jumps.")
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for sweeps (default 1)")
    parser.add_argument("--output", default=None,
                        help="output path, overriding the config's output_path")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for randomized sweeps")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        _report_error("ConfigError", "--jobs must be at least 1")
        return 2
    try:
        config = load_config(args.config)
        run(config, jobs=args.jobs, output=args.output, seed=args.seed)
        return 0
    except ConfigError as exc:
        _report_error(type(exc).__name__, str(exc))
        return 2
    except NumericalFailureError as exc:
        _report_error(type(exc).__name__, str(exc), getattr(exc, "payload", None))
        return 3
    except OSError as exc:
        _report_error(type(exc).__name__, str(exc))
        return 4
    except (ValueError, TypeError) as exc:
        _report_error(type(exc).__name__, str(exc))
        return 2


def _report_error(kind, message, payload=None):
    body = {"error": kind, "message": message}
    if payload is not None:
        body["payload"] = _jsonable(payload)
    print(json.dumps(body), file=sys.stderr)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


if __name__ == "__main__":
    sys.exit(main())
