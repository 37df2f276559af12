"""Benchmark of sdrelax's three cell-problem paths.

    python3 perfbench/run.py --workload cell-sweep --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the program is imported from the
checkout's src/ directory and nowhere else. The run sets up the workload,
then runs whole rounds of seeded operations, one process and jobs=1, until
--seconds have passed, checks every output against values computed apart
from the program, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: ops_per_s and setup_s
in reference-speed seconds (see meter.py), and peak_rss_mb; the line
before the JSON gives the raw figures for reference. With --trace 1
the public functions are wrapped with spans and counters and the metrics
are the per-layer ones over the workload's first trace_rounds rounds; the
spans go to perfbench/out/trace-<workload>-seed<seed>.json.
"""

import argparse
import functools
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from meter import Meter
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

PER_LAYER = (
    # cell-sweep
    "cli.run.self_s",
    "relaxed.verify_trace_sandwich.self_s",
    "cell.estimate_relaxed_bulk.calls",
    "cell.estimate_relaxed_bulk.self_s",
    "cell.frame_grid_minimum.calls",
    "cell.frame_grid_minimum.self_s",
    "core.frame_cost.calls",
    "cell.estimate_relaxed_surface.calls",
    "cell.estimate_relaxed_surface.self_s",
    # staircase-certify
    "cell.realize_bulk_competitor.calls",
    "cell.realize_bulk_competitor.self_s",
    "fields.staircase_sequence.self_s",
    "energy.energy.calls",
    "energy.energy.self_s",
    "fields.jump_measure.self_s",
    "geometry.polygon_quadrature2.calls",
    "geometry.clip_polygon_halfspace.calls",
    "energy.surface_density.evals",
    # design-search
    "optdesign.relaxed_design_energy.self_s",
    "optdesign.estimate_interface_cell.calls",
    "optdesign.estimate_interface_cell.self_s",
    "optdesign.interface_lookups",
    "optdesign.interface_hit_ratio",
    "optdesign.interface_no_jump_share",
)


def load_program():
    """sdrelax modules from the checkout's src/, refusing any other copy."""
    package = SRC / "sdrelax"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sdrelax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sdrelax
    if Path(sdrelax.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported sdrelax from {sdrelax.__file__}, not {package}")
    names = ("cell", "cli", "core", "energy", "fields", "optdesign", "relaxed")
    return argparse.Namespace(**{n: importlib.import_module(f"sdrelax.{n}") for n in names})


def drive(workload, meter, tracer, seconds):
    """Run whole rounds until `seconds` have passed; returns (failed, problems)."""
    failed = 0
    problems = []
    start = time.perf_counter()
    r = 0
    while True:
        done = []
        rounds = workload.round(r)
        result = None
        while True:
            try:
                op = rounds.send(result)
            except StopIteration:
                break
            fn = op.fn
            if tracer is not None:
                fn = functools.partial(tracer.run_op, len(meter.records), op.name, op.fn)
            try:
                result = meter.time_op(op.name, r, fn)
            except Exception:
                failed += 1
                result = None
                traceback.print_exc()
                continue
            done.append((op, result))
        for op, out in done:
            problems.extend(f"round {r} {op.name}: {p}" for p in op.check(out))
        meter.invalidate()
        r += 1
        enough = tracer is None or r >= workload.trace_rounds
        if enough and time.perf_counter() - start >= seconds:
            return failed, problems


def per_layer_metrics(meter, tracer, rounds):
    ops = {i for i, rec in enumerate(meter.records) if rec.round < rounds}
    factors = {i: rec.factor for i, rec in enumerate(meter.records)}
    self_s = tracer.self_seconds(ops, factors)
    counts = tracer.counts_over(ops)
    lookups = counts["optdesign.interface_lookups"]
    cells = counts["optdesign.estimate_interface_cell.calls"]
    derived = {
        "optdesign.interface_hit_ratio": 1.0 - cells / lookups if lookups else 0.0,
        "optdesign.interface_no_jump_share":
            counts["optdesign.estimate_interface_cell.no_jump_calls"] / cells if cells else 0.0,
    }
    metrics = {}
    for name in PER_LAYER:
        if name in derived:
            metrics[name] = {"value": derived[name], "unit": "ratio"}
        elif name.endswith(".self_s"):
            metrics[name] = {"value": self_s[name[:-len(".self_s")]], "unit": "s"}
        else:
            metrics[name] = {"value": counts[name], "unit": "count"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meter = Meter()
    m = load_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, m, tracer)
    failed, problems = drive(workload, meter, tracer, args.seconds)

    for line in problems[:20]:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    rounds = meter.records[-1].round + 1
    round_s = [0.0] * rounds
    for rec in meter.records:
        round_s[rec.round] += rec.corrected_s
    summary = {"rounds": rounds, "ops": len(meter.records), "round_s": round_s,
               "ops_per_s": meter.ops_per_s(), "raw_ops_per_s": meter.ops_per_s(corrected=False),
               "setup_s": meter.setup_s, "raw_setup_s": meter.setup_raw_s}
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": summary["ops_per_s"], "unit": "ops/s"},
            "setup_s": {"value": summary["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        tracer.uninstall()
        metrics = per_layer_metrics(meter, tracer, workload.trace_rounds)
        OUT.mkdir(exist_ok=True)
        header = dict(summary, workload=args.workload, seed=args.seed,
                      trace_rounds=workload.trace_rounds,
                      operations=[[r.name, r.round, r.raw_s, r.factor, r.ok]
                                  for r in meter.records])
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", header)
    print(json.dumps({"reference": summary}))
    print(json.dumps({"correct": not problems, "attempted": len(meter.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
