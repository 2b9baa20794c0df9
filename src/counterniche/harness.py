"""Experiment orchestration: run matrices, stagnation detection, diversity
profiles, timing, and CSV persistence.

Outputs are deterministic by default. Per-generation and per-cell wall-clock
columns are written as 0 unless timing is explicitly enabled, so reruns with
the same seeds produce byte-identical files; measured timings always remain
available in memory.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import Field, dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import Sequence, get_type_hints

from . import benchmarks
from .core import RngStream, check_fields, check_value, config_field
from .engines import (
    EngineConfig,
    GenRecord,
    RunTrace,
    StagnationRule,
    default_config,
    engine_knobs,
    run,
)
from .stats import RunSummary, error_value, summarize

__all__ = [
    "TRACE_FIELDS",
    "SUMMARY_FIELDS",
    "DiversityProfile",
    "ExperimentMatrix",
    "CellResult",
    "detect_stagnation",
    "diversity_profile",
    "default_burn_in",
    "write_trace_csv",
    "read_trace_csv",
    "summary_row",
    "write_rows_csv",
    "write_summary_csv",
    "read_stalled_runs",
    "read_summary_csv",
    "cell_dir",
    "discover_cells",
    "collect_final_errors",
    "run_matrix",
    "matrix_keys",
    "load_matrix_config",
]

# a trace file's columns are GenRecord's fields, each parsed with its type
TRACE_FIELDS = tuple(f.name for f in fields(GenRecord))
_TRACE_TYPES = get_type_hints(GenRecord)
# traces written before `fallbacks` was a column still load, with its default
_TRACE_FIELDS_WITHOUT_FALLBACKS = tuple(f for f in TRACE_FIELDS if f != "fallbacks")

# the RunSummary statistics of a summary row, in column order
_SUMMARY_STATS = ("best", "p23", "median", "p73", "worst", "mean", "std")
SUMMARY_FIELDS = (
    "algo", "function", "dim", "runs", *_SUMMARY_STATS, "mean_wall_ms", "stagnation_gen_mean",
    "stalled_runs",
)


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any double exactly
    return f"{float(x):.17g}"


@dataclass
class DiversityProfile:
    average_diversity: float | None
    generations_counted: int
    burn_in: int


def detect_stagnation(trace: RunTrace | Sequence[float], rule: StagnationRule) -> int | None:
    """Smallest generation g with no strict best-fitness improvement anywhere
    in the window of generations ending at g. None if the trace never stalls
    that long."""
    if isinstance(trace, RunTrace):
        series = trace.best_fitness_series()
    else:
        series = [float(v) for v in trace]
    if not series:
        raise ValueError("empty trace")
    stalled = rule.stall_test()
    for g, best in enumerate(series):
        if stalled(best):
            return g
    return None


def default_burn_in(generations: int) -> int:
    """Stock burn-in: the first 5% of the generation budget is ignored."""
    return int(0.05 * generations)


def diversity_profile(trace: RunTrace, burn_in: int) -> DiversityProfile:
    """Average diversity over post-burn-in generations where mean fitness
    improved on the previous generation. None when no generation qualifies."""
    records = trace.records
    total = 0.0
    count = 0
    for g in range(1, len(records)):
        rec = records[g]
        if rec.generation <= burn_in:
            continue
        if rec.mean_fitness < records[g - 1].mean_fitness:
            total += rec.diversity
            count += 1
    if count == 0:
        return DiversityProfile(None, 0, burn_in)
    return DiversityProfile(total / count, count, burn_in)


def write_trace_csv(trace: RunTrace, path, include_timing: bool = False) -> None:
    """One row per record, one column per `GenRecord` field: floats with
    `_fmt`, and `wall_ms` as 0 unless `include_timing`."""
    columns = [(name, _fmt if _TRACE_TYPES[name] is float else str) for name in TRACE_FIELDS]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_FIELDS)
        for r in trace.records:
            r = r if include_timing else replace(r, wall_ms=0.0)
            w.writerow([fmt(getattr(r, name)) for name, fmt in columns])


def read_trace_csv(path) -> RunTrace:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        if header not in (TRACE_FIELDS, _TRACE_FIELDS_WITHOUT_FALLBACKS):
            raise ValueError(f"{path} does not look like a trace file")
        parse = [(name, _TRACE_TYPES[name]) for name in header]
        records = [GenRecord(**{name: kind(row[name]) for name, kind in parse}) for row in reader]
    if not records:
        raise ValueError(f"{path} holds no generations")
    return RunTrace(records, None)


def summary_row(algo: str, function: str, dim: int, summary: RunSummary) -> dict:
    """The SUMMARY_FIELDS values that a cell's run errors give, by name:
    every column but `mean_wall_ms`, `stagnation_gen_mean` and
    `stalled_runs`."""
    stats = {name: getattr(summary, name) for name in _SUMMARY_STATS}
    return {"algo": algo, "function": function, "dim": dim, "runs": summary.n, **stats}


def write_rows_csv(path, rows: Sequence[dict]) -> None:
    """A table of rows with the same keys: those keys as the header, one
    line per row, floats with `_fmt`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(rows[0])
        for row in rows:
            w.writerow(_fmt(v) if isinstance(v, float) else v for v in row.values())


def write_summary_csv(
    path,
    algo: str,
    function: str,
    dim: int,
    summary: RunSummary,
    mean_wall_ms: float,
    stagnation_gens: Sequence[int],
) -> None:
    """One cell's summary row. `stagnation_gens` holds the stall generation
    of each run that stalled, so `stagnation_gen_mean` averages those runs
    only, and `stalled_runs` counts them beside `runs`."""
    stag = sum(stagnation_gens) / len(stagnation_gens) if stagnation_gens else ""
    row = summary_row(algo, function, dim, summary)
    write_rows_csv(path, [{
        **row, "mean_wall_ms": float(mean_wall_ms), "stagnation_gen_mean": stag,
        "stalled_runs": len(stagnation_gens),
    }])


def read_stalled_runs(cell) -> int | None:
    """The `stalled_runs` of the summary.csv in a cell directory; None when
    the cell has no summary.csv or one written before that column."""
    path = Path(cell) / "summary.csv"
    if not path.exists():
        return None
    stalled = read_summary_csv(path).get("stalled_runs")
    return None if stalled is None else int(stalled)


def read_summary_csv(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if len(rows) != 1:
        raise ValueError(f"{path} should hold exactly one summary row")
    return rows[0]


def _names(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


_BOOL_VALUES = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}


def _on_off(value: str) -> bool:
    if value.lower() not in _BOOL_VALUES:
        raise ValueError(f"expected on/off, got {value!r}")
    return _BOOL_VALUES[value.lower()]


@dataclass
class ExperimentMatrix:
    algos: tuple[str, ...] = config_field(parse=_names)
    functions: tuple[str, ...] = config_field(parse=_names)
    dims: tuple[int, ...] = config_field(parse=lambda value: tuple(int(v) for v in _names(value)), ge=1)
    runs_per_cell: int = config_field(30, parse=int, key="runs", ge=1)
    budget: str = config_field("fixed", parse=str, choices=("fixed", "stagnation"))
    generations: int | None = config_field(None, parse=int, ge=0)  # the last generation of every run; stock when unset
    seed_base: int = config_field(0, parse=int, ge=0)
    output_dir: str = config_field("results", parse=str)
    stagnation_window: int = config_field(StagnationRule.window, parse=int, ge=1)
    workers: int = config_field(1, parse=int, ge=1)
    timing: bool = config_field(False, parse=_on_off)
    schwefel_lower: float | None = config_field(None, parse=float)
    engine_overrides: dict = field(default_factory=dict)
    stagnation_rule: StagnationRule = field(init=False, repr=False)

    def __post_init__(self):
        check_fields(self)
        if not self.algos or not self.functions or not self.dims:
            raise ValueError("matrix needs at least one algo, function, and dim")
        self.stagnation_rule = StagnationRule(self.stagnation_window)
        # a bad engine key, or a cnea key too long for a dim's cell codes, fails here, not in every cell
        for algo, dim in product(self.algos, self.dims):
            self.engine_config(algo, dim)
        for function in self.functions:  # so does a function that cannot take a dim
            for dim in self.dims:
                benchmarks.make(function, dim, schwefel_lower=self.schwefel_lower)

    def engine_config(self, algo: str, dim: int) -> EngineConfig:
        """The engine configuration every run of an (algo, dim) cell starts from."""
        return default_config(algo, dim=dim, generations=self.generations, **self.engine_overrides)


@dataclass
class CellResult:
    algo: str
    function: str
    dim: int
    runs: int
    error: str | None = None
    summary: RunSummary | None = None
    trace_paths: list[str] = field(default_factory=list)
    summary_path: str | None = None
    mean_wall_ms: float = 0.0
    stagnation_gens: list[int] = field(default_factory=list)


def cell_dir(base, algo: str, function: str, dim: int) -> Path:
    return Path(base) / algo / function / f"{dim}d"


def _run_cell(matrix: ExperimentMatrix, algo: str, function: str, dim: int) -> CellResult:
    result = CellResult(algo, function, dim, matrix.runs_per_cell)
    try:
        fn = benchmarks.make(function, dim, schwefel_lower=matrix.schwefel_lower)
        cfg = matrix.engine_config(algo, dim)
        out = cell_dir(matrix.output_dir, algo, function, dim)
        out.mkdir(parents=True, exist_ok=True)
        rule = matrix.stagnation_rule
        stop = rule if matrix.budget == "stagnation" else None

        errors: list[float] = []
        walls: list[float] = []
        for r in range(matrix.runs_per_cell):
            seed = matrix.seed_base + r
            cfg_r = replace(cfg, seed=seed)
            # persistence stays outside the timed span
            t0 = time.perf_counter()
            trace = run(cfg_r, fn, RngStream(seed), stop=stop)
            elapsed = (time.perf_counter() - t0) * 1000.0
            path = out / f"run{r}.csv"
            write_trace_csv(trace, path, include_timing=matrix.timing)
            result.trace_paths.append(str(path))
            errors.append(error_value(trace.records[-1].best_fitness, fn.optimum_value))
            walls.append(elapsed)
            stag = detect_stagnation(trace, rule)
            if stag is not None:
                result.stagnation_gens.append(stag)

        result.summary = summarize(errors)
        result.mean_wall_ms = sum(walls) / len(walls)
        spath = out / "summary.csv"
        write_summary_csv(
            spath,
            algo,
            function,
            dim,
            result.summary,
            result.mean_wall_ms if matrix.timing else 0.0,
            result.stagnation_gens,
        )
        result.summary_path = str(spath)
    except Exception as exc:  # cell isolation: one bad cell never kills the matrix
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def _cell_task(args) -> CellResult:
    return _run_cell(*args)


def run_matrix(matrix: ExperimentMatrix) -> list[CellResult]:
    """Execute every (algo, function, dim) cell: one trace file per run plus a
    per-cell summary. Failures surface per cell without stopping the rest."""
    cells = list(product(matrix.algos, matrix.functions, matrix.dims))
    tasks = [(matrix, algo, function, dim) for algo, function, dim in cells]
    if matrix.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=matrix.workers) as pool:
            return list(pool.map(_cell_task, tasks))
    return [_cell_task(t) for t in tasks]


def discover_cells(base) -> list[tuple[str, str, int, list[Path]]]:
    """Find every cell directory under `base` holding run traces.

    Returns (algo, function, dim, trace paths ordered by run index)."""
    base = Path(base)
    cells: dict[tuple[str, str, int], list[Path]] = {}
    for trace in base.glob("*/*/*d/run*.csv"):
        cell = trace.parent
        try:
            dim = int(cell.name[:-1])
            run_idx = int(trace.stem[3:])
        except ValueError:
            continue
        key = (cell.parent.parent.name, cell.parent.name, dim)
        cells.setdefault(key, []).append((run_idx, trace))
    out = []
    for (algo, function, dim), runs in sorted(cells.items()):
        out.append((algo, function, dim, [p for _, p in sorted(runs)]))
    return out


def collect_final_errors(trace_paths: Sequence[Path], function: str, dim: int) -> list[float]:
    """Final best-fitness error of each run, in run-index order."""
    fn = benchmarks.make(function, dim)
    errors = []
    for path in trace_paths:
        trace = read_trace_csv(path)
        errors.append(error_value(trace.records[-1].best_fitness, fn.optimum_value))
    return errors


def matrix_keys() -> dict[str, Field]:
    """Every sweep-file key of `ExperimentMatrix` by name, with its field; the
    field's `parse` reads the key's value. Engine knobs come from
    `engine_knobs()`."""
    return {f.metadata.get("key", f.name): f for f in fields(ExperimentMatrix) if "parse" in f.metadata}


def load_matrix_config(path) -> ExperimentMatrix:
    """Parse a flat key-value config file ("key = value" lines, # comments).

    Unknown keys are errors, and so are values that do not parse or break
    their field's rules (`core.check_value`); each names the file, line and
    key. Keys left out fall back to the stock experiment setup: 30 runs per
    cell, fixed budgets, seeds 0..runs-1.
    """
    path = Path(path)
    text = path.read_text()
    keys, knobs = matrix_keys(), engine_knobs()
    values: dict = {}
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in keys:
            target, f, parse = values, keys[key], keys[key].metadata["parse"]
        elif key in knobs:
            target, f, parse = overrides, knobs[key], type(knobs[key].default)
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            target[f.name] = parse(value)
            check_value(f, target[f.name])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    missing = [k for k in ("algos", "functions", "dims") if k not in values]
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    return ExperimentMatrix(engine_overrides=overrides, **values)
