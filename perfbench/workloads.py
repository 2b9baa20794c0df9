"""Workload definitions and the untraced passes of the benchmark.

Everything here drives the package through its public API (`make`,
`default_config`, `run`, `load_matrix_config`, `run_matrix`), so the
end-to-end numbers keep measuring the same thing when the internals change.
Objective evaluations are counted by `CountingObjective`, a proxy handed to
`run` in place of the benchmark function; `measure_sweep` hands it out
through `benchmarks.make` instead. The same proxy drives `Calibration`,
which turns measured seconds into calibrated ones.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import statistics
import tempfile
import time
from multiprocessing import get_context
from pathlib import Path

import counterniche as cn
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = ROOT / "scripts" / "sweep_small.cfg"
SCRATCH = ROOT / ".bench_tmp"
REFERENCE_S = 0.0006      # time of one `reference_work` on the machine that calibrated seconds describe
CALIBRATE_EVERY = 2000    # objective evaluations between two reference samples inside a run


def reference_work() -> float:
    """A fixed mix of interpreter work and small-array numpy calls, like the
    engines' per-individual code but independent of the package."""
    total, seen = 0.0, {}
    for i in range(2000):
        total += (i * 0.5) % 7.0
        seen[i & 255] = total
    rng = np.random.default_rng(0)
    a = rng.random(10)
    for _ in range(40):
        b = a * 0.5 + rng.random(10)
        total += float(np.sum(b * b)) + float(np.abs(b - a).max())
    return total


class Calibration:
    """How fast the machine ran while measured work ran.

    The machines this benchmark runs on are small and shared: for seconds to
    minutes at a time the same code runs up to half again as slow, as other
    processes come and go. As an `on_rows` callback of `CountingObjective`,
    this times `reference_work` once every CALIBRATE_EVERY evaluations, so
    its samples are spread over the run like the slow spells that hit it.
    `calibrate` turns measured seconds into calibrated seconds: the time
    on a machine on which `reference_work` takes REFERENCE_S. A slow spell
    slows the samples and the workload alike and cancels out; a change to
    the package moves only the workload."""

    def __init__(self):
        self.rows = 0        # evaluations seen
        self.ref_s = 0.0     # time spent in reference samples
        self.ref_n = 0
        self._since = 0

    def __call__(self, n: int) -> float:
        """Count `n` evaluations; returns the time of the reference sample
        taken now, or 0."""
        self.rows += n
        self._since += n
        if self._since < CALIBRATE_EVERY:
            return 0.0
        self._since = 0
        return self.sample()

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        spent = time.perf_counter() - t0
        self.ref_s += spent
        self.ref_n += 1
        return spent

    def scale(self) -> float:
        return REFERENCE_S * self.ref_n / self.ref_s

    def calibrate(self, seconds: float) -> float:
        """Calibrated time of work that took `seconds`, samples excluded."""
        return seconds * self.scale()


def eval_rows(x) -> int:
    """Rows in one objective call: a 1-D input is one row, a 2-D input its rows."""
    ndim = getattr(x, "ndim", None)
    if ndim is None:
        ndim = np.ndim(x)
    return 1 if ndim < 2 else len(x)


class CountingObjective:
    """Stands in for a `BenchmarkFn` and reports the rows passed to every
    `evaluate*` method (and to `__call__`) to `on_rows(n)`, before the call,
    so a batched evaluator added to the package later is counted the same
    way as the per-row one. `wrap(method)`, if given, replaces each
    `evaluate*` method first (the traced pass times them this way). Without
    `on_rows` the rows add up in `self.rows`."""

    def __init__(self, fn, on_rows=None, wrap=None):
        self._fn = fn
        self._wrap = wrap
        self.rows = 0
        self._on_rows = on_rows if on_rows is not None else self._add

    def _add(self, n: int) -> None:
        self.rows += n

    def __getattr__(self, name):
        attr = getattr(self._fn, name)
        if name.startswith("evaluate") and callable(attr):
            attr = self._counted(attr if self._wrap is None else self._wrap(attr))
            # cache on the instance so later lookups skip __getattr__
            setattr(self, name, attr)
        return attr

    def _counted(self, method):
        on_rows = self._on_rows

        def counted(x, *args, **kwargs):
            on_rows(eval_rows(x))
            return method(x, *args, **kwargs)

        return counted

    def __call__(self, x, *args, **kwargs):
        return self.evaluate(x, *args, **kwargs)


@dataclasses.dataclass(frozen=True)
class DirectWorkload:
    """Engines run one after another in this process through `run`."""

    name: str
    function: str
    dim: int
    algos: tuple[str, ...]
    generations: int
    seeds_per_algo: int
    pop_size: int | None = None  # None keeps each engine's stock N
    min_passes: int = 3

    def configs(self, seed_base: int) -> list:
        overrides = {} if self.pop_size is None else {"N": self.pop_size}
        return [
            cn.default_config(algo, dim=self.dim, generations=self.generations,
                              seed=seed_base + j, **overrides)
            for algo in self.algos
            for j in range(self.seeds_per_algo)
        ]


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """`scripts/sweep_small.cfg` through `load_matrix_config` + `run_matrix`."""

    name: str
    min_passes: int = 2

    def matrix(self, seed_base: int, output_dir: str, workers: int):
        matrix = cn.harness.load_matrix_config(SWEEP_CONFIG)
        return dataclasses.replace(matrix, seed_base=seed_base, workers=workers,
                                   output_dir=output_dir)


WORKLOADS = {
    w.name: w
    for w in (
        # counter-niching fires every generation here, mostly falling back
        DirectWorkload("cnea-rastrigin-10d", "rastrigin", 10, ("cnea",), 200, 2, pop_size=100),
        # bypasses niching and informed: per-individual operators carry the load
        DirectWorkload("baselines-rastrigin-20d", "rastrigin", 20,
                       ("sea", "socea", "cea", "dgea"), 50, 1),
        # the only workload through the harness: process pool, cells, CSV writes
        SweepWorkload("sweep-small"),
    )
}


def nproc() -> int:
    """CPUs this process may run on, as `nproc` reports them."""
    return len(os.sched_getaffinity(0))


def workers_for(workload) -> int:
    return nproc() if isinstance(workload, SweepWorkload) else 1


def run_problems(trace, optimum: float) -> list[str]:
    """What is wrong with a finished run: a best-fitness series that rises,
    or a final error that is not finite or is negative."""
    problems = []
    series = trace.best_fitness_series()
    if any(b > a for a, b in zip(series, series[1:])):
        problems.append("best fitness rose")
    err = series[-1] - optimum
    if not (math.isfinite(err) and err >= 0):
        problems.append(f"final error {err!r}")
    return problems


@dataclasses.dataclass
class RunOutcome:
    algo: str
    seed: int
    wall_s: float = 0.0        # the whole run, generation 0 included, reference samples excluded
    gen0_s: float = 0.0        # a run of the same config that stops after generation 0
    calibrated_s: float = 0.0  # wall_s - gen0_s in calibrated seconds
    scale: float = math.nan    # calibrated over measured seconds
    samples: int = 0           # reference samples taken during the run
    generations: int = 0
    evals: int = 0
    final_error: float = math.nan
    problems: list[str] = dataclasses.field(default_factory=list)


def run_counted(cfg, fn) -> RunOutcome:
    """One engine run through `run` with a counting, calibrating objective,
    timed with the benchmark's own clock. Generation 0 is set-up
    (`setup_s`), so a run of the same config that ends after it is timed
    too, to be taken off."""
    out = RunOutcome(cfg.algo, cfg.seed)
    cal = Calibration()
    try:
        t0 = time.perf_counter()
        cn.run(dataclasses.replace(cfg, generations=0), CountingObjective(fn))
        t1 = time.perf_counter()
        trace = cn.run(cfg, CountingObjective(fn, cal))
        t2 = time.perf_counter()
    except Exception as exc:  # a raising run is a failed run, not a crash of the benchmark
        out.problems.append(f"raised {type(exc).__name__}: {exc}")
        return out
    out.gen0_s, out.wall_s = t1 - t0, t2 - t1 - cal.ref_s
    out.calibrated_s = cal.calibrate(out.wall_s - out.gen0_s)
    out.scale, out.samples = cal.scale(), cal.ref_n
    out.generations = trace.generations
    out.evals = cal.rows
    out.final_error = trace.records[-1].best_fitness - fn.optimum_value
    out.problems.extend(run_problems(trace, fn.optimum_value))
    if out.generations != cfg.generations:
        out.problems.append(f"ran {out.generations} of {cfg.generations} generations")
    return out


def run_seconds(outcomes: list[RunOutcome]) -> float:
    """Calibrated wall time of one run after generation 0: the median over
    its repeats."""
    return statistics.median(o.calibrated_s for o in outcomes)


@dataclasses.dataclass
class PassResult:
    """What the untraced passes of one workload measured."""

    wall_s: float                  # calibrated wall time of one pass (see measure_direct / measure_sweep)
    measured_s: float              # the same, in measured seconds
    scale: float                   # median calibrated over measured seconds
    samples: int                   # reference samples taken
    walls: list[float]             # measured wall time of each pass
    generations: int               # generations in one pass, over all runs
    evals: int                     # objective evaluations in one pass
    final_errors: list[float]      # one per run of a pass
    attempted: int
    failed: int
    algo_ms_per_gen: dict          # engine -> calibrated ms/gen
    busy_ratio: float = 0.0        # sweep only: engine time / (workers x wall), last sweep
    engine_s: float = 0.0          # sweep only: summed per-run engine time, last sweep
    problems: list[str] = dataclasses.field(default_factory=list)
    cells: list = dataclasses.field(default_factory=list)  # sweep only: last pass's CellResults


def keep_going(walls: list[float], start: float, seconds: float, min_passes: int) -> bool:
    """Another pass fits if the minimum is not reached yet, or if a typical
    pass still ends within `seconds` of the start."""
    if len(walls) < min_passes:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def measure_direct(w: DirectWorkload, seed_base: int, order_seed: int, seconds: float) -> PassResult:
    """Repeat the workload's runs in passes, each in an order drawn from
    `order_seed`. Every pass runs the same (engine, seed) pairs, so their
    results must repeat exactly. The wall time of one pass is the sum of
    `run_seconds` over its runs."""
    fn = cn.make(w.function, w.dim)
    configs = w.configs(seed_base)
    order = random.Random(order_seed)
    repeats: dict[tuple, list[RunOutcome]] = {(c.algo, c.seed): [] for c in configs}
    walls: list[float] = []
    failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while keep_going(walls, start, seconds, w.min_passes):
        todo = list(configs)
        order.shuffle(todo)
        t0 = time.perf_counter()
        for cfg in todo:
            out = run_counted(cfg, fn)
            earlier = repeats[(cfg.algo, cfg.seed)]
            got = (out.generations, out.evals, out.final_error)
            if earlier and not out.problems and got != (earlier[0].generations, earlier[0].evals, earlier[0].final_error):
                out.problems.append("differs from an earlier run with the same seed")
            if out.problems:
                failed += 1
                problems.extend(f"{cfg.algo} seed {cfg.seed}: {p}" for p in out.problems)
            earlier.append(out)
        walls.append(time.perf_counter() - t0)
    run_s = {key: run_seconds(outs) for key, outs in repeats.items()}
    gens_per_algo = w.generations * w.seeds_per_algo
    return PassResult(
        wall_s=sum(run_s.values()),
        measured_s=sum(statistics.median(o.wall_s - o.gen0_s for o in outs) for outs in repeats.values()),
        scale=statistics.median(o.scale for outs in repeats.values() for o in outs),
        samples=sum(o.samples for outs in repeats.values() for o in outs),
        walls=walls,
        generations=gens_per_algo * len(w.algos),
        evals=sum(outs[0].evals for outs in repeats.values()),
        final_errors=[outs[0].final_error for outs in repeats.values()],
        attempted=sum(len(outs) for outs in repeats.values()),
        failed=failed,
        algo_ms_per_gen={
            a: 1000 * sum(v for (algo, _), v in run_s.items() if algo == a) / gens_per_algo
            for a in w.algos
        },
        problems=problems,
    )


class SharedCounts:
    """Evaluations and reference samples per process, in shared memory made
    before the pool forks."""

    def __init__(self, slots: int = 256):
        ctx = get_context()
        self.rows = ctx.RawArray("q", slots)
        self.ref_s = ctx.RawArray("d", slots)
        self.ref_n = ctx.RawArray("q", slots)
        self._next = ctx.RawValue("i", 0)
        self._lock = ctx.Lock()
        self._mine: dict[int, int] = {}

    def slot(self) -> int:
        pid = os.getpid()
        if pid not in self._mine:
            with self._lock:
                if self._next.value >= len(self.rows):
                    raise RuntimeError("out of shared count slots")
                self._mine[pid] = self._next.value
                self._next.value += 1
        return self._mine[pid]

    def adder(self):
        """An `on_rows` callback that counts and calibrates (see
        `Calibration`) in the calling process and adds both to its slot."""
        rows, ref_s, ref_n, slot = self.rows, self.ref_s, self.ref_n, self.slot()
        cal = Calibration()

        def add(n: int) -> None:
            rows[slot] += n
            spent = cal(n)
            if spent:
                ref_s[slot] += spent
                ref_n[slot] += 1

        return add

    def totals(self) -> tuple[int, float, int]:
        return sum(self.rows), sum(self.ref_s), sum(self.ref_n)


def cell_label(cell) -> str:
    return f"{cell.algo}/{cell.function}/{cell.dim}d"


def cell_problems(cell, optimum: float) -> list[str]:
    """A sweep cell fails if it reports an error, wrote no summary.csv, or
    one of its run traces fails `run_problems`."""
    label = cell_label(cell)
    if cell.error is not None:
        return [f"{label}: {cell.error}"]
    if not (cell.summary_path and Path(cell.summary_path).is_file()):
        return [f"{label}: no summary.csv"]
    return [
        f"{label} {Path(p).name}: {problem}"
        for p in cell.trace_paths
        for problem in run_problems(cn.harness.read_trace_csv(p), optimum)
    ]


def measure_sweep(w: SweepWorkload, seed_base: int, seconds: float) -> PassResult:
    """Time `run_matrix` on the sweep, at least `min_passes` times, each into
    a fresh temporary output directory; the wall time of one pass is the
    median. The workers' objectives are also `Calibration`s, so each sweep is
    calibrated by the reference samples taken in its workers. Evaluations are counted in the sweep's own workers through
    `benchmarks.make`, which `run_matrix` looks up when it builds a cell and
    forked workers inherit. A sweep whose count does not arrive (workers
    that do not fork, or a harness that binds `make` otherwise) is a failed
    run."""
    workers = workers_for(w)
    SCRATCH.mkdir(exist_ok=True)
    walls: list[float] = []
    calibrated: list[float] = []
    scales: list[float] = []
    pass_evals: list[int] = []
    problems: list[str] = []
    attempted = failed = 0
    counts = SharedCounts()
    make = cn.benchmarks.make
    first = None
    start = time.perf_counter()
    try:
        while keep_going(walls, start, seconds, w.min_passes):
            with tempfile.TemporaryDirectory(dir=SCRATCH) as out:
                matrix = w.matrix(seed_base, out, workers)
                cn.benchmarks.make = lambda *a, **k: CountingObjective(make(*a, **k), counts.adder())
                try:
                    before = counts.totals()
                    t0 = time.perf_counter()
                    cells = cn.run_matrix(matrix)
                    wall = time.perf_counter() - t0
                    rows, ref_s, ref_n = (b - a for a, b in zip(before, counts.totals()))
                finally:
                    cn.benchmarks.make = make
                pass_evals.append(rows)
                # the workers sampled side by side: each lost about its share of ref_s
                walls.append(wall - ref_s / workers)
                scales.append(REFERENCE_S * ref_n / ref_s if ref_n else math.nan)
                calibrated.append(walls[-1] * scales[-1])
                for i, cell in enumerate(cells):
                    attempted += 1
                    found = cell_problems(cell, make(cell.function, cell.dim).optimum_value)
                    if first is not None and not found and cell.summary != first[i].summary:
                        found = [f"{cell_label(cell)}: differs from the first sweep"]
                    failed += bool(found)
                    problems.extend(found)
            if first is None:
                first = cells
    finally:
        remove_if_empty(SCRATCH)
    if 0 in pass_evals:
        failed += 1
        problems.append("no evaluations counted in the sweep's workers")
    elif len(set(pass_evals)) > 1:
        failed += 1
        problems.append(f"evaluations differ between sweeps: {pass_evals}")
    gens = matrix.generations
    # per-run engine time of the last sweep, its reference samples taken off
    engine_s = sum(c.mean_wall_ms * c.runs for c in cells) / 1000 - ref_s
    wall = statistics.median(walls)
    per_algo: dict[str, list[float]] = {}
    for c in cells:
        per_algo.setdefault(c.algo, []).append(statistics.median(scales) * c.mean_wall_ms / gens)
    return PassResult(
        wall_s=statistics.median(calibrated),
        measured_s=wall,
        scale=statistics.median(scales),
        samples=sum(counts.ref_n),
        walls=walls,
        generations=sum(c.runs for c in cells) * gens,
        evals=pass_evals[0],
        final_errors=[e for c in cells if c.summary for e in c.summary.sorted_errors],
        attempted=attempted,
        failed=failed,
        algo_ms_per_gen={a: statistics.mean(v) for a, v in per_algo.items()},
        busy_ratio=engine_s / (workers * walls[-1]),
        engine_s=engine_s,
        problems=problems,
        cells=cells,
    )


def remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass
