"""Command-line front end.

Thin adapter over the library: every number printed here is computed by the
benchmark, engine, harness, or stats modules; each read command takes a cell's
numbers from `harness`. Exit codes: 0 on success, 2 on usage errors (including
an engine configuration that fails validation), 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import benchmarks, harness, stats
from .engines import ALGORITHMS, algorithm_registry, default_config, engine_knobs, run

OUTPUT_DIR_ENV = "COUNTERNICHE_OUT"

# a --regions-dump line's JSON keys, after `generation`, and the `Regions` column each holds
_DUMP_COLUMNS = {"cell_key": "key", "density": "density", "fitness_mean": "mean", "fitness_std": "std"}


def _cell_ref(text: str) -> tuple[str, str, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected algo:function:dim, got {text!r}")
    try:
        dim = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"dim in {text!r} must be an integer")
    return parts[0], parts[1], dim


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="counterniche",
        description="Counter-niching evolutionary optimization and its benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show registered functions and algorithms")
    p_list.add_argument("--function", choices=benchmarks.FUNCTION_NAMES, help="show a single function entry")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")

    p_run = sub.add_parser("run", help="one engine run, trace written as CSV")
    p_run.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_run.add_argument("--function", required=True, choices=benchmarks.FUNCTION_NAMES)
    p_run.add_argument("--dim", required=True, type=int)
    p_run.add_argument("--generations", type=int, default=None,
                       help="budget; defaults to the stock schedule for the algo and dim")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-evaluations", type=int, default=None,
                       help="stop at the first generation whose evaluation count reaches this; "
                       "--generations still caps the run")
    p_run.add_argument("--out", default=None, help="trace CSV path")
    p_run.add_argument("--timing", action="store_true",
                       help="write measured per-generation wall_ms instead of 0")
    p_run.add_argument("--regions-dump", default=None,
                       help="JSONL path for per-generation dense-region dumps (cnea only)")
    for key, knob in engine_knobs().items():
        kind = type(knob.default)
        p_run.add_argument("--" + key.replace("_", "-"), dest=knob.name, type=kind,
                           metavar=kind.__name__.upper(),
                           help="engine knob read by " + ", ".join(knob.metadata["applies"]))
    p_run.add_argument("--schwefel-lower", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="run a whole experiment matrix from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="parallel cell workers; defaults to the config value")

    p_sum = sub.add_parser("summarize", help="rank-pick summary rows for every cell in a directory")
    p_sum.add_argument("--in", dest="in_dir", required=True)
    p_sum.add_argument("--json", action="store_true")

    p_tt = sub.add_parser("ttest", help="paired t-test of one cell against another, or against the rest")
    p_tt.add_argument("--in", dest="in_dir", required=True)
    p_tt.add_argument("--a", dest="cell_a", required=True, type=_cell_ref, metavar="ALGO:FUNCTION:DIM")
    p_tt.add_argument("--b", dest="cell_b", default=None, type=_cell_ref, metavar="ALGO:FUNCTION:DIM",
                      help="defaults to every other algo's cell of the same function and dim")
    p_tt.add_argument("--csv", default=None, help="also write the result as CSV, one row per pair")

    p_div = sub.add_parser("diversity-report", help="average diversity profiles per cell")
    p_div.add_argument("--in", dest="in_dir", required=True)
    p_div.add_argument("--burn-in", type=int, default=None,
                       help="generations ignored at the start; defaults to 5%% of each trace's last "
                       "generation, which is short of the budget for a run that stopped early")
    p_div.add_argument("--json", action="store_true")

    return parser


def _cmd_list(args) -> int:
    tables = {"functions": [f for f in benchmarks.registry() if args.function in (None, f["name"])]}
    if not args.function:
        tables["algorithms"] = algorithm_registry()
    text = "\n\n".join(f"{name}:\n{stats.render_rows_text(rows)}" for name, rows in tables.items())
    print(json.dumps(tables, indent=2, sort_keys=True) if args.json else text)
    return 0


def _cells(in_dir) -> dict:
    """`discover_cells` under a read command's `--in`, where no cell is a runtime error."""
    cells = harness.discover_cells(in_dir)
    if not cells:
        raise FileNotFoundError(f"no cell outputs under {in_dir}")
    return cells


def _print_rows(rows: list[dict], as_json: bool) -> None:
    print(json.dumps(rows, indent=2, sort_keys=True) if as_json else stats.render_rows_text(rows))


def _usage_error(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    overrides = {
        knob.name: getattr(args, knob.name)
        for knob in engine_knobs().values()
        if getattr(args, knob.name) is not None
    }
    try:
        fn = benchmarks.make(args.function, args.dim, schwefel_lower=args.schwefel_lower)
        cfg = default_config(
            args.algo, dim=args.dim, generations=args.generations, seed=args.seed,
            max_evaluations=args.max_evaluations, **overrides,
        )
        if args.regions_dump and args.algo != "cnea":
            raise ValueError(f"--regions-dump needs --algo cnea, which alone has dense regions, not {args.algo}")
    except ValueError as exc:
        return _usage_error(exc)

    if args.regions_dump:
        Path(args.regions_dump).parent.mkdir(parents=True, exist_ok=True)
    with open(args.regions_dump, "w") if args.regions_dump else contextlib.nullcontext() as dump:

        def on_regions(generation, regions):
            columns = (getattr(regions, name).tolist() for name in _DUMP_COLUMNS.values())
            for row in zip(*columns):
                dump.write(json.dumps({"generation": generation, **dict(zip(_DUMP_COLUMNS, row))}) + "\n")

        trace = run(cfg, fn, on_regions=on_regions if dump else None)

    out = args.out
    if out is None:
        root = os.environ.get(OUTPUT_DIR_ENV, ".")
        out = str(
            Path(root) / f"trace_{args.algo}_{args.function}_{args.dim}d_seed{args.seed}.csv"
        )
    harness.write_trace_csv(trace, out, include_timing=args.timing)
    err = stats.error_value(trace.records[-1].best_fitness, fn.optimum_value)
    print(f"final_error={err:.17g}")
    print(f"stopped_by={trace.stopped_by}")
    print(f"trace={out}")
    return 0


def _cmd_sweep(args) -> int:
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    updates = {}
    if env_out:
        updates["output_dir"] = env_out
    if args.workers is not None:
        updates["workers"] = args.workers
    try:
        matrix = replace(harness.load_matrix_config(args.config), **updates)
        if Path(args.config).resolve() == (Path(matrix.output_dir) / harness.SWEEP_FILE).resolve():
            raise ValueError(f"{args.config} is the {harness.SWEEP_FILE} the sweep writes into its output_dir; "
                             "copy it elsewhere or set another output_dir")
    except ValueError as exc:
        return _usage_error(exc)
    results = harness.run_matrix(matrix)
    failed = 0
    for cell in results:
        label = f"{cell.algo}:{cell.function}:{cell.dim}"
        if cell.error:
            failed += 1
            print(f"{label}  ERROR  {cell.error}")
        else:
            print(f"{label}  ok  mean_error={cell.summary.mean:.6g}  runs={cell.runs}")
    print(f"output_dir={matrix.output_dir}")
    if failed:
        print(f"{failed} of {len(results)} cells failed", file=sys.stderr)
        return 1
    return 0


def _cmd_summarize(args) -> int:
    cells = _cells(args.in_dir)
    # stalled runs are counted over the sweep's own stall window, which only its sweep file records
    sweep = Path(args.in_dir) / harness.SWEEP_FILE
    window = harness.load_matrix_config(sweep).stagnation_window if sweep.exists() else None
    rows = []
    for (algo, function, dim), paths in cells.items():
        traces = [harness.read_trace_csv(path) for path in paths]
        summary = stats.summarize(harness.collect_final_errors(traces, function, dim))
        stalled = None if window is None else len(harness.stall_generations(traces, window))
        rows.append({**harness.summary_row(algo, function, dim, summary), "stalled_runs": stalled})
    _print_rows(rows, args.json)
    return 0


def _cmd_ttest(args) -> int:
    cells = _cells(args.in_dir)

    def errors(ref):
        if ref not in cells:
            raise FileNotFoundError(f"no run traces under {harness.cell_dir(args.in_dir, *ref)}")
        return harness.collect_final_errors(map(harness.read_trace_csv, cells[ref]), ref[1], ref[2])

    algo_a, function_a, dim_a = args.cell_a
    errors_a = errors(args.cell_a)
    others = [args.cell_b] if args.cell_b else [r for r in cells if r[1:] == (function_a, dim_a) and r[0] != algo_a]
    if not others:
        raise FileNotFoundError(f"no other algo's {function_a}:{dim_a} cell under {args.in_dir}")
    rows = []
    for algo_b, function_b, dim_b in others:
        result = stats.paired_ttest(errors_a, errors((algo_b, function_b, dim_b)))
        rows.append(
            {
                "function": function_a if function_a == function_b else f"{function_a}/{function_b}",
                "dim": dim_a if dim_a == dim_b else f"{dim_a}/{dim_b}",
                "algo_a": algo_a,
                "algo_b": algo_b,
                "t": result.t_statistic,
                "df": result.degrees_of_freedom,
                "p": result.p_value,
            }
        )
    print(stats.render_rows_text(rows))
    if args.csv:
        harness.write_rows_csv(args.csv, rows)
    return 0


def _cmd_diversity_report(args) -> int:
    if args.burn_in is not None:
        try:
            harness.check_burn_in(args.burn_in)
        except ValueError as exc:
            return _usage_error(exc)
    rows = [
        {"algo": algo, "function": function, "dim": dim,
         **harness.diversity_row(map(harness.read_trace_csv, paths), args.burn_in)}
        for (algo, function, dim), paths in _cells(args.in_dir).items()
    ]
    _print_rows(rows, args.json)
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "summarize": _cmd_summarize,
    "ttest": _cmd_ttest,
    "diversity-report": _cmd_diversity_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
