"""Experiment orchestration: run matrices, stagnation detection, diversity
profiles, timing, and CSV persistence. A cell's report numbers, in `sweep`'s
`summary.csv` and in each read command alike, are computed here alone.

Outputs are deterministic by default. Per-generation and per-cell wall-clock
columns are written as 0 unless timing is explicitly enabled, so reruns with
the same seeds produce byte-identical files; measured timings always remain
available in memory.
"""

from __future__ import annotations

import csv
import re
from dataclasses import Field, dataclass, field, fields, replace
from itertools import product, repeat
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

from . import benchmarks
from .core import check_fields, check_value, config_field
from .engines import EngineConfig, GenRecord, RunTrace, default_config, engine_knobs, run, stall_test
from .stats import RunSummary, error_value, summarize

__all__ = [
    "TRACE_FIELDS",
    "SWEEP_FILE",
    "DiversityProfile",
    "ExperimentMatrix",
    "CellResult",
    "detect_stagnation",
    "stall_generations",
    "diversity_profile",
    "diversity_row",
    "check_burn_in",
    "default_burn_in",
    "write_trace_csv",
    "read_trace_csv",
    "summary_row",
    "write_rows_csv",
    "cell_dir",
    "discover_cells",
    "collect_final_errors",
    "run_matrix",
    "matrix_keys",
    "load_matrix_config",
    "write_matrix_config",
]

# a trace file's columns are GenRecord's fields in order, each parsed with its type
TRACE_FIELDS = tuple(f.name for f in fields(GenRecord))
_TRACE_TYPES = get_type_hints(GenRecord)

# the resolved matrix a sweep writes into its output_dir, for the commands that read the directory
SWEEP_FILE = "sweep.cfg"

# the RunSummary statistics of a summary row, in column order
_SUMMARY_STATS = ("best", "p23", "median", "p73", "worst", "mean", "std")


@dataclass
class DiversityProfile:
    average_diversity: float | None
    generations_counted: int


def detect_stagnation(trace: RunTrace | Sequence[float], window: int) -> int | None:
    """Smallest generation g with no strict best-fitness improvement anywhere
    in the `window` generations ending at g, by the test `run` stops on
    (`engines.stall_test`, which refuses a window below 1). None if the
    trace never stalls that long."""
    if isinstance(trace, RunTrace):
        series = trace.best_fitness_series()
    else:
        series = [float(v) for v in trace]
    if not series:
        raise ValueError("empty trace")
    stalled = stall_test(window)
    for g, best in enumerate(series):
        if stalled(best):
            return g
    return None


def stall_generations(traces: Iterable[RunTrace], window: int) -> list[int]:
    """The generation at which each run that stalls for `window`
    generations stalls (`detect_stagnation`), in run order: the stall rule
    of `summary.csv` and `summarize` alike."""
    stalls = (detect_stagnation(trace, window) for trace in traces)
    return [g for g in stalls if g is not None]


def default_burn_in(generations: int) -> int:
    """Stock burn-in: the first 5% of the generation budget is ignored."""
    return int(0.05 * generations)


def check_burn_in(burn_in: int) -> None:
    """Refuse a negative burn-in."""
    if burn_in < 0:
        raise ValueError(f"burn-in must be nonnegative, got {burn_in}")


def diversity_profile(trace: RunTrace, burn_in: int) -> DiversityProfile:
    """Average diversity over post-burn-in generations where mean fitness
    improved on the previous generation. None when no generation qualifies."""
    check_burn_in(burn_in)
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
        return DiversityProfile(None, 0)
    return DiversityProfile(total / count, count)


def diversity_row(traces: Iterable[RunTrace], burn_in: int | None) -> dict:
    """A cell's `diversity-report` values from its runs' `diversity_profile`s,
    their average diversities averaged in run order (None when no run has
    one). A `burn_in` of None takes each trace's `default_burn_in`."""
    profiles = [diversity_profile(t, default_burn_in(t.generations) if burn_in is None else burn_in) for t in traces]
    values = [p.average_diversity for p in profiles if p.average_diversity is not None]
    return {
        "runs_with_signal": len(values),
        "generations_counted": sum(p.generations_counted for p in profiles),
        "average_diversity": sum(values) / len(values) if values else None,
    }


def write_trace_csv(trace: RunTrace, path, include_timing: bool = False) -> None:
    """A trace through `write_rows_csv`: one row per record, its
    `GenRecord` fields in order as the columns, and `wall_ms` as 0 unless
    `include_timing`."""
    untimed = {} if include_timing else {"wall_ms": 0.0}
    write_rows_csv(path, [{**vars(r), **untimed} for r in trace.records])


def read_trace_csv(path) -> RunTrace:
    """A trace file's records; its header must be `TRACE_FIELDS`, in order,
    and a value that does not parse names its file, line and column. The
    file holds neither the best genome nor how its run ended, so the
    trace's `best` and `stopped_by` are None."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != TRACE_FIELDS:
            raise ValueError(f"{path} does not look like a trace file: its header is not {','.join(TRACE_FIELDS)}")
        records = []
        for row in reader:
            values = {}
            for name in TRACE_FIELDS:
                try:
                    values[name] = _TRACE_TYPES[name](row[name])
                except (TypeError, ValueError) as exc:  # a short row's missing values read as None
                    raise ValueError(f"{path}:{reader.line_num}: {name}: {exc}") from None
            records.append(GenRecord(**values))
    if not records:
        raise ValueError(f"{path} holds no generations")
    return RunTrace(records, None, stopped_by=None)


def summary_row(algo: str, function: str, dim: int, summary: RunSummary) -> dict:
    """The summary-row values that a cell's run errors give, by name: every
    column but `mean_wall_ms`, `stagnation_gen_mean` and `stalled_runs`."""
    stats = {name: getattr(summary, name) for name in _SUMMARY_STATS}
    return {"algo": algo, "function": function, "dim": dim, "runs": summary.n, **stats}


def write_rows_csv(path, rows: Sequence[dict]) -> None:
    """A table of rows with the same keys: those keys as the header, one
    line per row, floats with 17 significant digits, which round-trip any
    double exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(rows[0])
        for row in rows:
            w.writerow(f"{v:.17g}" if isinstance(v, float) else v for v in row.values())


def _names(value: str, element=str) -> tuple:
    """A matrix key's comma-separated values, each read by `element`."""
    return tuple(element(v.strip()) for v in value.split(",") if v.strip())


_BOOL_VALUES = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}


def _on_off(value: str) -> bool:
    if value.lower() not in _BOOL_VALUES:
        raise ValueError(f"expected on/off, got {value!r}")
    return _BOOL_VALUES[value.lower()]


@dataclass
class ExperimentMatrix:
    # a repeated value would run its cells twice, with two workers writing the same files
    algos: tuple[str, ...] = config_field(parse=_names, distinct=True)
    functions: tuple[str, ...] = config_field(parse=_names, distinct=True)
    dims: tuple[int, ...] = config_field(parse=lambda value: _names(value, int), ge=1, distinct=True)
    runs_per_cell: int = config_field(30, parse=int, key="runs", ge=1)
    budget: str = config_field("fixed", parse=str, choices=("fixed", "stagnation"))
    generations: int | None = config_field(None, parse=int, ge=0)  # the last generation of every run; stock when unset
    seed_base: int = config_field(0, parse=int, ge=0)
    output_dir: str = config_field("results", parse=str)
    # every run's stall window: its stop under budget = stagnation, and the test of stalled_runs
    stagnation_window: int = config_field(500, parse=int, ge=1)
    max_evaluations: int | None = config_field(None, parse=int, ge=1)  # every run's evaluation budget; unset: none
    workers: int = config_field(1, parse=int, ge=1)
    timing: bool = config_field(False, parse=_on_off)
    schwefel_lower: float | None = config_field(None, parse=float)
    engine_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        # a bare name would read as its letters, and a bare dim not at all
        for name, bare in (("algos", str), ("functions", str), ("dims", int)):
            if isinstance(getattr(self, name), bare):
                raise ValueError(f"{name} must be a sequence, got {getattr(self, name)!r}")
        # lists are read as tuples, so a list-built matrix is checked, compared and written as a loaded one
        self.algos, self.functions, self.dims = tuple(self.algos), tuple(self.functions), tuple(self.dims)
        check_fields(self)
        if not self.algos or not self.functions or not self.dims:
            raise ValueError("matrix needs at least one algo, function, and dim")
        # overrides are knobs only: the matrix sets `algo`, `generations`, the early stops and each run's `seed` itself
        knobs = {f.name for f in engine_knobs().values()}
        for key in self.engine_overrides:
            if key not in knobs:
                raise ValueError(f"engine_overrides: {key!r} is not an engine knob")
        # a bad knob value, or a cnea key too long for a dim's cell codes, fails here, not in every cell
        for algo, dim in product(self.algos, self.dims):
            self.engine_config(algo, dim)
        for function in self.functions:  # so does a function that cannot take a dim
            for dim in self.dims:
                benchmarks.make(function, dim, schwefel_lower=self.schwefel_lower)

    def engine_config(self, algo: str, dim: int) -> EngineConfig:
        """The engine configuration every run of an (algo, dim) cell starts
        from, with the matrix's early stops: the stall window under `budget =
        stagnation`, and the evaluation budget when set."""
        window = self.stagnation_window if self.budget == "stagnation" else None
        return default_config(
            algo, dim=dim, generations=self.generations, stagnation_window=window,
            max_evaluations=self.max_evaluations, **self.engine_overrides,
        )


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

        traces = []
        for r in range(matrix.runs_per_cell):
            trace = run(replace(cfg, seed=matrix.seed_base + r), fn)
            if cfg.max_evaluations is not None and trace.stopped_by == "budget":
                # cut by `generations`, the run did less work than the budget the sweep compares at
                raise ValueError(
                    f"run {r} ended at generation {trace.generations} after {trace.records[-1].evaluations}"
                    f" of max_evaluations = {cfg.max_evaluations} evaluations; raise generations"
                )
            path = out / f"run{r}.csv"
            write_trace_csv(trace, path, include_timing=matrix.timing)
            result.trace_paths.append(str(path))
            traces.append(trace)

        result.summary = summarize(collect_final_errors(traces, function, dim))
        result.mean_wall_ms = sum(sum(rec.wall_ms for rec in t.records) for t in traces) / len(traces)
        result.stagnation_gens = stalls = stall_generations(traces, matrix.stagnation_window)
        spath = out / "summary.csv"
        write_rows_csv(spath, [{
            **summary_row(algo, function, dim, result.summary),
            "mean_wall_ms": result.mean_wall_ms if matrix.timing else 0.0,
            "stagnation_gen_mean": sum(stalls) / len(stalls) if stalls else "",
            "stalled_runs": len(stalls),
        }])
        result.summary_path = str(spath)
    except Exception as exc:  # cell isolation: one bad cell never kills the matrix
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_matrix(matrix: ExperimentMatrix) -> list[CellResult]:
    """Execute every (algo, function, dim) cell: one trace file per run plus a
    per-cell summary, after the matrix itself as `output_dir/SWEEP_FILE`.
    Failures surface per cell without stopping the rest."""
    write_matrix_config(matrix, Path(matrix.output_dir) / SWEEP_FILE)
    cells = list(product(matrix.algos, matrix.functions, matrix.dims))
    if matrix.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=matrix.workers) as pool:
            return list(pool.map(_run_cell, repeat(matrix), *zip(*cells)))
    return [_run_cell(matrix, *cell) for cell in cells]


def discover_cells(base) -> dict[tuple[str, str, int], list[Path]]:
    """Every cell directory under `base` holding run traces: (algo,
    function, dim) -> its trace paths in run order, keys sorted."""
    cells: dict[tuple[str, str, int], list[tuple[int, Path]]] = {}
    for trace in Path(base).glob("*/*/*d/run*.csv"):
        cell = trace.parent
        try:
            dim = int(cell.name[:-1])
            run_idx = int(trace.stem[3:])
        except ValueError:
            continue
        cells.setdefault((cell.parent.parent.name, cell.parent.name, dim), []).append((run_idx, trace))
    return {key: [p for _, p in sorted(runs)] for key, runs in sorted(cells.items())}


def collect_final_errors(traces: Iterable[RunTrace], function: str, dim: int) -> list[float]:
    """Final best-fitness error of each run, in the traces' order."""
    fn = benchmarks.make(function, dim)
    return [error_value(trace.records[-1].best_fitness, fn.optimum_value) for trace in traces]


def matrix_keys() -> dict[str, Field]:
    """Every sweep-file key of `ExperimentMatrix` by name, with its field; the
    field's `parse` reads the key's value. Engine knobs come from
    `engine_knobs()`."""
    return {f.metadata.get("key", f.name): f for f in fields(ExperimentMatrix) if "parse" in f.metadata}


def load_matrix_config(path) -> ExperimentMatrix:
    """Parse a flat "key = value" config file; a # at a line's start or after whitespace starts a comment.

    Unknown keys are errors, and so are a key given twice and values that
    do not parse or break their field's rules (`core.check_value`); each
    names the file, line and key. Keys left out fall back to the stock
    experiment setup: 30 runs per cell, fixed budgets, seeds 0..runs-1.
    """
    path = Path(path)
    text = path.read_text()
    keys, knobs = matrix_keys(), engine_knobs()
    values: dict = {}
    overrides: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.sub(r"(^|\s)#.*", "", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: {key}: given twice (first on line {first_line[key]})")
        first_line[key] = lineno
        if key in keys:
            target, f, parse = values, keys[key], keys[key].metadata["parse"]
        elif key in knobs:
            target, f, parse = overrides, knobs[key], type(knobs[key].default)
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            target[f.name] = parse(value)
            check_value(f, target[f.name])
        except ValueError as exc:  # the key names the field here
            raise ValueError(f"{path}:{lineno}: {key}: {str(exc).removeprefix(f'{f.name}: ')}") from None
    missing = [k for k in ("algos", "functions", "dims") if k not in values]
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    return ExperimentMatrix(engine_overrides=overrides, **values)


def _config_text(value) -> str:
    """A value as its key's `parse` reads it back."""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


def write_matrix_config(matrix: ExperimentMatrix, path) -> None:
    """The matrix in `load_matrix_config`'s format: each set key but
    `output_dir`, the directory the file describes, then each engine
    override under its sweep key. It loads back equal to the matrix, but
    for `output_dir`."""
    values = {key: getattr(matrix, f.name) for key, f in matrix_keys().items() if key != "output_dir"}
    values |= {key: matrix.engine_overrides.get(knob.name) for key, knob in engine_knobs().items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{key} = {_config_text(v)}\n" for key, v in values.items() if v is not None))
