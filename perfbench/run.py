"""Benchmark of the counterniche package.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--seed-base B] [--out FILE]

NAME is one of the workloads in `workloads.WORKLOADS`, or `all`.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics, measured untraced. With `--trace 1` the same untraced
passes run first and a traced pass follows; the last line then holds the
per-layer metrics. The lines before it give every metric by name and unit,
the runs attempted and failed, and the machine (nproc, Python and numpy
versions, load average), so that a noisy run can be told apart.

End-to-end times are reported in calibrated seconds (see
`workloads.Calibration`): each measured time is scaled by how fast a fixed
reference loop ran just before and just after it. The lines before the JSON
also give the measured wall time and the mean scale.

The engine seeds of a workload are `--seed-base + j`; its outcome (final
error, evaluations) is a deterministic function of them, and varies tens of
times over from seed to seed, so they are a separate argument: re-check a
claim on a held-out seed base with `--seed-base`. `--seed` draws the order
in which each pass executes its runs.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread per process on a small machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import counterniche as cn  # noqa: E402
import numpy as np  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPS = 7
SETUP_SAMPLES = 20

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ms_per_gen", "ms"),
    ("evals_per_gen", "count"),
    ("final_error_median", "error"),
)

PER_LAYER = (
    ("informed.sample_virgin.calls", "count"),
    ("informed.sample_virgin.s", "s"),
    ("informed.sample_virgin.incl_s", "s"),
    ("informed.virgin_evals", "count"),
    ("informed.replacements", "count"),
    ("informed.fallbacks", "count"),
    ("informed.accept_ratio", "ratio"),
    ("informed.informed_mutation.s", "s"),
    ("informed.detect_victims.s", "s"),
    ("informed.victims", "count"),
    ("informed.regular_ops.s", "s"),
    ("informed.regular_ops.incl_s", "s"),
    ("informed.regular_evals", "count"),
    ("niching.build_grid.s", "s"),
    ("niching.cells", "count"),
    ("niching.high_density_regions.s", "s"),
    ("niching.regions", "count"),
    ("benchmarks.evaluate.calls", "count"),
    ("benchmarks.evaluate.s", "s"),
    ("benchmarks.evaluate.us_per_call", "us"),
    ("benchmarks.evals_per_s", "1/s"),
    ("operators.binary_tournament.calls", "count"),
    ("operators.binary_tournament.s", "s"),
    ("operators.arithmetic_crossover.calls", "count"),
    ("operators.arithmetic_crossover.s", "s"),
    ("operators.gaussian_mutate.calls", "count"),
    ("operators.gaussian_mutate.s", "s"),
    ("operators.pow_sample.calls", "count"),
    ("operators.pow_sample.s", "s"),
    ("core.individuals_built", "count"),
    ("diversity.distance_to_average.s", "s"),
    ("engines.self.s", "s"),
    ("engines.cnea.ms_per_gen", "ms"),
    ("engines.sea.ms_per_gen", "ms"),
    ("engines.socea.ms_per_gen", "ms"),
    ("engines.cea.ms_per_gen", "ms"),
    ("engines.dgea.ms_per_gen", "ms"),
    ("harness.run_matrix.s", "s"),
    ("harness.write_trace_csv.s", "s"),
    ("harness.write_trace_csv.bytes", "bytes"),
    ("harness.worker_busy_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)


def setup_seconds(name: str, seed_base: int) -> tuple[list[float], float]:
    """Set-up time of the workload, measured in SETUP_REPS fresh
    interpreters, and the calibration scale from SETUP_SAMPLES reference
    samples taken on either side of each."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    cal = W.Calibration()
    times = []
    for _ in range(SETUP_REPS):
        for _ in range(SETUP_SAMPLES):
            cal.sample()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(probe), name, str(seed_base)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - t0)
    for _ in range(SETUP_SAMPLES):
        cal.sample()
    return times, cal.scale()


def environment() -> dict:
    return {
        "nproc": W.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }


def trace_direct(w, seed_base: int, order_seed: int) -> dict:
    """One traced pass over the workload's runs."""
    tracer = T.Tracer()
    fn = cn.make(w.function, w.dim)
    configs = w.configs(seed_base)
    random.Random(order_seed).shuffle(configs)
    traces = []
    T.instrument(tracer, cn)
    try:
        run = tracer.wrap(cn.run, "engines.run")
        t0 = time.perf_counter()
        for cfg in configs:
            traces.append((run(cfg, T.traced_objective(fn, tracer)), fn.optimum_value))
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return {"tracer": tracer, "wall_s": wall, "traces": traces}


def trace_sweep(w, seed_base: int) -> dict:
    """One traced, serial `run_matrix` over the sweep's cells."""
    tracer = T.Tracer()
    traces = []
    W.SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=W.SCRATCH) as out:
            T.instrument(tracer, cn)
            T.instrument_harness(tracer, cn, lambda trace, fn: traces.append((trace, fn.optimum_value)))
            try:
                cells = tracer.wrap(cn.run_matrix, "harness.run_matrix")(w.matrix(seed_base, out, 1))
            finally:
                tracer.restore()
            problems = [p for c in cells for p in W.cell_problems(c, cn.make(c.function, c.dim).optimum_value)]
    finally:
        W.remove_if_empty(W.SCRATCH)
    engine_s = sum(c.mean_wall_ms * c.runs for c in cells) / 1000
    return {"tracer": tracer, "wall_s": engine_s, "traces": traces, "cells": cells, "problems": problems}


def layer_metrics(traced: dict, res, untraced_wall: float) -> dict:
    tracer = traced["tracer"]
    times = tracer.layer_times()
    counts = tracer.counts
    records = [r for trace, _ in traced["traces"] for r in trace.records[1:]]
    virgin = tracer.evals_under["informed.sample_virgin"]
    replaced = sum(r.replacements for r in records)
    eval_calls, eval_s, _ = times.get("benchmarks.evaluate", (0, 0.0, 0.0))
    m = {
        "informed.virgin_evals": virgin,
        "informed.replacements": replaced,
        "informed.fallbacks": sum(r.fallbacks for r in records),
        "informed.accept_ratio": replaced / virgin if virgin else 0.0,
        "informed.victims": sum(r.victims for r in records),
        "informed.regular_evals": tracer.evals_under["informed.regular_ops"],
        "niching.cells": counts["niching.cells"],
        "niching.regions": counts["niching.regions"],
        "benchmarks.evaluate.us_per_call": 1e6 * eval_s / eval_calls if eval_calls else 0.0,
        "benchmarks.evals_per_s": res.evals / res.measured_s,
        "core.individuals_built": counts["core.individuals_built"],
        "engines.self.s": times.get("engines.run", (0, 0.0, 0.0))[1],
        "harness.write_trace_csv.bytes": counts["harness.write_trace_csv.bytes"],
        "harness.worker_busy_ratio": res.busy_ratio,
        "trace_overhead_ratio": traced["wall_s"] / untraced_wall,
    }
    for name, unit in PER_LAYER:
        if name in m:
            continue
        layer, _, what = name.rpartition(".")
        if what == "ms_per_gen":
            m[name] = res.algo_ms_per_gen.get(layer.split(".")[1], 0.0)
        else:
            calls, self_s, incl_s = times.get(layer, (0, 0.0, 0.0))
            m[name] = {"calls": calls, "s": self_s, "incl_s": incl_s}[what]
    return m


def run_workload(name: str, args) -> dict:
    w = W.WORKLOADS[name]
    sweep = isinstance(w, W.SweepWorkload)
    env = environment()
    setup, setup_scale = setup_seconds(name, args.seed_base) if not args.trace or args.out else ([], 1.0)
    if sweep:
        res = W.measure_sweep(w, args.seed_base, args.seconds)
    else:
        res = W.measure_direct(w, args.seed_base, args.seed, args.seconds)
    layers = {}
    if args.trace:
        traced = trace_sweep(w, args.seed_base) if sweep else trace_direct(w, args.seed_base, args.seed)
        traced_evals = sum(traced["tracer"].evals_under.values())
        if traced_evals != res.evals:
            res.failed += 1
            res.problems.append(f"traced pass made {traced_evals} evaluations, untraced {res.evals}")
        for trace, optimum in traced["traces"]:
            for p in W.run_problems(trace, optimum):
                res.failed += 1
                res.problems.append(f"traced run: {p}")
        if sweep:
            res.attempted += len(traced["cells"])
            res.failed += len(traced["problems"])
            res.problems.extend(traced["problems"])
            for cell, ref in zip(traced["cells"], res.cells):
                if cell.summary != ref.summary:
                    res.failed += 1
                    res.problems.append(f"{W.cell_label(cell)}: traced sweep differs from untraced")
        untraced_wall = res.engine_s if sweep else res.measured_s
        layers = layer_metrics(traced, res, untraced_wall)
    e2e = {
        "setup_s": setup_scale * statistics.median(setup) if setup else None,
        "wall_s": res.wall_s,
        "ms_per_gen": 1000 * res.wall_s / res.generations,
        "evals_per_gen": res.evals / res.generations,
        "final_error_median": statistics.median(res.final_errors) if res.final_errors else float("nan"),
    }
    env["loadavg_after"] = list(os.getloadavg())
    return {
        "workload": name,
        "seed": args.seed,
        "seed_base": args.seed_base,
        "seconds": args.seconds,
        "pass_walls_s": res.walls,
        "measured_wall_s": res.measured_s,
        "calibration": {"scale": res.scale, "samples": res.samples, "setup_scale": setup_scale},
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems,
        "env": env,
        "end_to_end": {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END if e2e[k] is not None},
        "per_layer": {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER} if layers else {},
        "setup_samples_s": setup,
        "missing_hooks": traced["tracer"].missing if args.trace else [],
    }


def report(result: dict) -> None:
    cal = result["calibration"]
    print(f"== {result['workload']}  passes={len(result['pass_walls_s'])}  "
          f"attempted={result['attempted']}  failed={result['failed']}  "
          f"measured wall_s={result['measured_wall_s']:.6g}  calibration scale={cal['scale']:.4f} "
          f"({cal['samples']} samples), set-up {cal['setup_scale']:.4f}")
    for section in ("end_to_end", "per_layer"):
        for k, v in result[section].items():
            print(f"  {k:40s} {v['value']:>16.6g} {v['unit']}")
    for p in result["problems"][:20]:
        print(f"  FAILED: {p}")
    if result["missing_hooks"]:
        print("  not traced (attribute gone): " + ", ".join(result["missing_hooks"]))
    print("  env " + json.dumps(result["env"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="draws the order of the runs in each pass")
    parser.add_argument("--seed-base", type=int, default=0, help="first engine seed of every workload")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results, both metric sets, as JSON")
    args = parser.parse_args(argv)

    if Path(cn.__file__).resolve().parent != SRC / "counterniche":
        print(f"imported counterniche from {cn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in W.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {', '.join(W.WORKLOADS)}, all")

    results = [run_workload(n, args) for n in names]
    for r in results:
        report(r)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    section = "per_layer" if args.trace else "end_to_end"
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): v
        for r in results
        for k, v in r[section].items()
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
