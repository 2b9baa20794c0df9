"""The five engines, their one generation loop, and the run driver.

Every engine is a generation function, which makes the next population from
the current one. `engine_steps` is the one loop around it: it initializes
the population and yields one trace record per generation (including
generation 0, the initialized population), and `run` consumes that stream
for a fixed budget or until a `StagnationRule` fires. All engines minimize,
all use one RngStream per run, and all keep the population size constant.
Each generation evaluates its new children in one batch once it has drawn
them all; no draw depends on a child's fitness, so the random stream is the
same as with evaluation child by child.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import Field, dataclass, fields, replace
from typing import Callable, Iterator

import numpy as np

from .benchmarks import evaluate_children, evaluate_rows
from .core import Individual, Population, RngStream, SearchSpace, check_fields, config_field
from .diversity import distance_to_average
from .informed import detect_victims, informed_mutation, regular_ops
from .niching import build_grid, check_key_length, choose_key_dims, high_density_regions
from .operators import Variation, pow_sample, sea_variance

__all__ = [
    "ALGORITHMS",
    "EngineConfig",
    "GenRecord",
    "RunTrace",
    "StagnationRule",
    "default_config",
    "check_dim",
    "default_generations",
    "engine_knobs",
    "engine_steps",
    "run",
    "dgea_mode",
    "torus_neighbors",
    "torus_shape",
    "algorithm_registry",
]

ALGORITHMS = ("cnea", "sea", "socea", "cea", "dgea")

_CNEA_BUDGETS = {20: 500, 50: 1000, 100: 2000}


def default_generations(algo: str, dim: int) -> int:
    """Stock generation budgets: the counter-niching engine gets the short
    schedule (500/1000/2000 at dims 20/50/100), baselines get 50 * dim."""
    if algo == "cnea":
        return _CNEA_BUDGETS.get(dim, max(500, 20 * dim))
    return 50 * dim


BASELINES = ALGORITHMS[1:]


def _knob(default, applies: tuple[str, ...], key: str | None = None, **rules):
    """An engine knob: `applies` names the engines that read it, `key` is its
    sweep key and `run` flag when that differs from the field name, and
    `rules` are its bounds or choices (`core.config_field`)."""
    return config_field(default, applies=applies, key=key, **rules)


@dataclass
class EngineConfig:
    algo: str
    N: int = _knob(300, ALGORITHMS, key="pop_size", ge=2)
    generations: int = config_field(500, ge=0)
    seed: int = config_field(0, ge=0)
    elitism_count: int = _knob(1, ("cnea", "sea", "socea", "dgea"), key="elitism", ge=0)
    p_r: float = _knob(0.9, ALGORITHMS, ge=0, le=1)
    p_m: float = _knob(0.01, ("cnea",), ge=0, le=1)          # per-gene rate (counter-niching regular ops)
    p_m_genome: float = _knob(0.75, BASELINES, ge=0, le=1)   # whole-genome rate (baselines)
    sigma_reg: float = _knob(0.1, ("cnea",), ge=0)
    grid_bins: int = _knob(4, ("cnea",), ge=2)
    tau_dense: float = _knob(0.05, ("cnea",), gt=0, le=1)
    eps_fit: float = _knob(0.01, ("cnea",), ge=0)
    rho_replace: float = _knob(0.5, ("cnea",), gt=0, lt=1)
    sample_budget: int = _knob(20, ("cnea",), ge=1)
    key_dim_limit: int = _knob(10, ("cnea",), ge=1)
    sea_variance_mode: str = _knob("printed", ("sea",), key="sea_variance", choices=("printed", "annealed"))
    pow_exponent: float = _knob(2.0, ("socea", "cea", "dgea"))
    pow_upper: float = _knob(1000.0, ("socea", "cea", "dgea"), gt=1)
    d_low: float = _knob(5e-6, ("dgea",))
    d_high: float = _knob(0.25, ("dgea",))

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}; known: {', '.join(ALGORITHMS)}")
        check_fields(self)
        # the checks that read two fields at once
        if self.elitism_count > self.N:
            raise ValueError(f"elitism_count {self.elitism_count} exceeds N {self.N}")
        if self.d_low >= self.d_high:
            raise ValueError("d_low must stay below d_high")


def engine_knobs() -> dict[str, Field]:
    """Every engine knob of `EngineConfig` by its sweep key, which is also its
    `counterniche run` flag with `-` for `_`. Values parse with the type of
    the field's default."""
    return {f.metadata["key"] or f.name: f for f in fields(EngineConfig) if "applies" in f.metadata}


def default_config(
    algo: str,
    dim: int | None = None,
    generations: int | None = None,
    seed: int = 0,
    **overrides,
) -> EngineConfig:
    """Stock configuration for an algorithm, with keyword overrides on top.
    Given `dim`, the run's dimension, the checks of `check_dim` run here."""
    if generations is None:
        if dim is None:
            raise ValueError("need either dim or generations to size the budget")
        generations = default_generations(algo, dim)
    n = 300 if algo == "cnea" else 400
    cfg = EngineConfig(algo=algo, N=n, generations=generations, seed=seed)
    cfg = replace(cfg, **overrides) if overrides else cfg
    if dim is not None:
        check_dim(cfg, dim)
    return cfg


def check_dim(cfg: EngineConfig, dim: int) -> None:
    """The check of a configuration that needs the run's dimension. A `cnea`
    run keys its grid cells on min(dim, key_dim_limit) dimensions, and its
    cell codes must fit int64."""
    if cfg.algo == "cnea":
        check_key_length(cfg.grid_bins, min(dim, cfg.key_dim_limit))


@dataclass
class GenRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    diversity: float
    mode: str = ""
    victims: int = 0
    replacements: int = 0
    fallbacks: int = 0
    wall_ms: float = 0.0


@dataclass
class RunTrace:
    records: list[GenRecord]
    best: Individual | None
    stopped_by: str = "budget"  # or "stagnation", at generation `generations`

    @property
    def generations(self) -> int:
        return self.records[-1].generation

    def best_fitness_series(self) -> list[float]:
        return [r.best_fitness for r in self.records]


def _init_population(cfg: EngineConfig, fn, rng: RngStream) -> Population:
    X = rng.uniform(*fn.space.draw_bounds(), size=(cfg.N, fn.space.dim))
    return Population(X, evaluate_rows(fn, X))


def _record(population: Population, space: SearchSpace, generation: int, **extra) -> GenRecord:
    return GenRecord(
        generation=generation,
        best_fitness=float(population.f.min()),
        mean_fitness=float(population.f.mean()),
        diversity=distance_to_average(population, space),
        **extra,
    )


def _elitist_merge(parents: Population, offspring: Population, count: int) -> Population:
    """Generational replacement with elitism: the best `count` parents, ranked
    by (fitness, index), displace the worst `count` offspring, the higher
    index first among equals (best elite into the worst slot)."""
    X, f = offspring.X.copy(), offspring.f.copy()
    elites = np.argsort(parents.f, kind="stable")[:count]
    worst = np.argsort(f, kind="stable")[::-1][:count]
    X[worst] = parents.X[elites]
    f[worst] = parents.f[elites]
    return Population(X, f)


def _elitist_union_survivors(
    parents: Population, offspring: Population, count: int, rng: RngStream, n: int
) -> Population:
    """Survivor selection over the union of parents and offspring: the best
    `count` members survive outright, the rest of the next generation is
    filled by binary tournament without replacement over the union minus
    those elites. Each pool member enters at most one tournament, so the
    survivors are distinct and the selection never collapses the population
    onto copies of a single individual. The union ranks by (fitness, index)."""
    X = np.concatenate([parents.X, offspring.X])
    f = np.concatenate([parents.f, offspring.f])
    order = np.argsort(f, kind="stable")
    pool = order[count:]
    # pool has 2n - count members; n - count pairings use 2(n - count) of them
    pairing = rng.permutation(len(pool))[: 2 * (n - count)]
    a, b = pool[pairing[0::2]], pool[pairing[1::2]]
    keep = np.concatenate([order[:count], np.where(f[b] < f[a], b, a)])
    return Population(X[keep], f[keep])


def _breed(pop: Population, draws: Variation, first, second, fn) -> Population:
    """The children `draws` makes from rows first[k] and second[k] of the
    population, with their fitness: the changed ones are evaluated, the
    others keep their first parent's."""
    children, fresh = draws.children(pop.X, first, second, fn.space)
    return Population(children, evaluate_children(fn, children, fresh, pop.f[first]))


def _pow_variances(alpha: float, cfg: EngineConfig, rng: RngStream) -> Callable[[int], np.ndarray]:
    """POW(alpha) mutation variances, `size` per call."""
    return lambda size: pow_sample(alpha, rng, cfg.pow_exponent, cfg.pow_upper, size=size)


def _sea_offspring(pop: Population, cfg: EngineConfig, fn, rng: RngStream, variance: float) -> Population:
    """Tournament parents, arithmetic crossover, and whole-genome Gaussian
    mutation of the given variance, drawn child by child."""
    draws = Variation(cfg.N, fn.space.dim, rng)
    for k in range(cfg.N):
        draws.tournaments(k)
        draws.crossover(k, cfg.p_r)
        if rng.random() < cfg.p_m_genome:
            draws.mutation(k, variance)
    return _breed(pop, draws, *draws.parents(pop.f), fn)


def _socea_offspring(pop: Population, cfg: EngineConfig, fn, rng: RngStream) -> Population:
    """Tournament parents, arithmetic crossover, and whole-genome POW(10)
    mutation, drawn as whole arrays."""
    draws = Variation(cfg.N, fn.space.dim, rng)
    draws.all_tournaments()
    draws.all_crossovers(cfg.p_r)
    draws.all_mutations(cfg.p_m_genome, _pow_variances(10.0, cfg, rng))
    return _breed(pop, draws, *draws.parents(pop.f), fn)


def torus_neighbors(row: int, col: int, rows: int, cols: int) -> list[tuple[int, int]]:
    """Von Neumann neighborhood on a wrapped grid: up, down, left, right."""
    return [
        ((row - 1) % rows, col),
        ((row + 1) % rows, col),
        (row, (col - 1) % cols),
        (row, (col + 1) % cols),
    ]


def torus_shape(n: int) -> tuple[int, int]:
    """(rows, cols) of the most nearly square torus holding n cells: rows is
    the largest divisor of n that is at most sqrt(n), so a prime n is a ring."""
    rows = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return rows, n // rows


def _cea_neighbors(n: int) -> np.ndarray:
    """Row-major cell index of each cell's four `torus_neighbors` on the
    `torus_shape(n)` torus, shape (n, 4)."""
    rows, cols = torus_shape(n)
    return np.array([
        [r * cols + c for r, c in torus_neighbors(*divmod(idx, cols), rows, cols)]
        for idx in range(n)
    ])


def _cea_offspring(
    pop: Population, cfg: EngineConfig, fn, rng: RngStream, neighbors: np.ndarray
) -> Population:
    """One child per cell, from the cell and a random neighbor: arithmetic
    crossover and whole-genome POW(10) mutation, drawn as whole arrays with
    the neighbor picks first. An untouched child has its cell's fitness."""
    n = cfg.N
    pick = rng.integers(0, 4, size=n)
    draws = Variation(n, fn.space.dim, rng)
    draws.all_crossovers(cfg.p_r)
    draws.all_mutations(cfg.p_m_genome, _pow_variances(10.0, cfg, rng))
    cells = np.arange(n)
    return _breed(pop, draws, cells, neighbors[cells, pick], fn)


def dgea_mode(previous: str, diversity: float, d_low: float, d_high: float) -> str:
    """Hysteresis switch: explore below d_low, exploit above d_high,
    otherwise keep the previous mode."""
    if diversity < d_low:
        return "explore"
    if diversity > d_high:
        return "exploit"
    return previous


def _dgea_offspring(pop: Population, mode: str, cfg: EngineConfig, fn, rng: RngStream) -> Population:
    """Exploitation applies selection and crossover only; exploration applies
    whole-genome POW(1) mutation only, to each member in place. Either draws
    its arrays whole."""
    draws = Variation(cfg.N, fn.space.dim, rng)
    if mode == "exploit":
        draws.all_tournaments()
        draws.all_crossovers(cfg.p_r)
        return _breed(pop, draws, *draws.parents(pop.f), fn)
    draws.all_mutations(cfg.p_m_genome, _pow_variances(1.0, cfg, rng))
    members = np.arange(cfg.N)
    return _breed(pop, draws, members, members, fn)


# An engine is a per-run factory, (cfg, fn, rng, on_regions) -> generation,
# that does the engine's one-time work before the first population is drawn.
# generation(pop, t, previous) makes generation t from pop, whose record is
# `previous`, and returns it with the extra fields of its record.
Generation = Callable[[Population, int, GenRecord], tuple[Population, dict]]


def _cnea(cfg: EngineConfig, fn, rng: RngStream, on_regions: Callable | None) -> Generation:
    """Counter-niching GA: informed mutation of the victims in dense regions,
    regular operators, then elitist survivor selection over the union."""
    space = fn.space
    key_dims = None
    if space.dim > cfg.key_dim_limit:
        # projection drawn once per run so cell keys stay comparable
        key_dims = choose_key_dims(space.dim, rng, cfg.key_dim_limit)

    def generation(pop: Population, t: int, _previous: GenRecord):
        grid = build_grid(pop, space, cfg.grid_bins, key_dims)
        regions = high_density_regions(grid, pop, cfg.tau_dense)
        if on_regions is not None:
            on_regions(t, regions)
        victims = detect_victims(regions, pop, cfg)
        pop_informed, counters = informed_mutation(pop, victims, space, grid, fn, rng, cfg)
        offspring = regular_ops(pop_informed, space, fn, rng, cfg)
        survivors = _elitist_union_survivors(pop_informed, offspring, cfg.elitism_count, rng, cfg.N)
        return survivors, dict(
            victims=counters.victims, replacements=counters.replaced, fallbacks=counters.fallbacks
        )

    return generation


def _sea(cfg: EngineConfig, fn, rng: RngStream, _on_regions) -> Generation:
    """Simple EA: generational replacement with elitism, Gaussian mutation
    of the variance `sea_variance_mode` gives generation t."""

    def generation(pop: Population, t: int, _previous: GenRecord):
        offspring = _sea_offspring(pop, cfg, fn, rng, sea_variance(t - 1, cfg.sea_variance_mode))
        return _elitist_merge(pop, offspring, cfg.elitism_count), {}

    return generation


def _socea(cfg: EngineConfig, fn, rng: RngStream, _on_regions) -> Generation:
    """Self-organized criticality EA: the simple EA with POW(10) mutation."""

    def generation(pop: Population, _t: int, _previous: GenRecord):
        return _elitist_merge(pop, _socea_offspring(pop, cfg, fn, rng), cfg.elitism_count), {}

    return generation


def _cea(cfg: EngineConfig, fn, rng: RngStream, _on_regions) -> Generation:
    """Cellular EA on the most nearly square torus holding N: every cell mates
    with a random von Neumann neighbor; the offspring takes the cell only if
    strictly better. Updates are synchronous, so each generation reads the
    previous grid only."""
    neighbors = _cea_neighbors(cfg.N)

    def generation(pop: Population, _t: int, _previous: GenRecord):
        children = _cea_offspring(pop, cfg, fn, rng, neighbors)
        # an untouched child equals its cell's member, so it never replaces it
        better = children.f < pop.f
        X = np.where(better[:, None], children.X, pop.X)
        return Population(X, np.where(better, children.f, pop.f)), {}

    return generation


def _dgea(cfg: EngineConfig, fn, rng: RngStream, _on_regions) -> Generation:
    """Diversity-guided EA: the mode of each generation follows the diversity
    of the population it starts from, as that population's record holds it."""

    def generation(pop: Population, _t: int, previous: GenRecord):
        mode = dgea_mode(previous.mode, previous.diversity, cfg.d_low, cfg.d_high)
        offspring = _dgea_offspring(pop, mode, cfg, fn, rng)
        return _elitist_merge(pop, offspring, cfg.elitism_count), {"mode": mode}

    return generation


# algo -> (its factory, the extra fields of its generation-0 record)
_ENGINES = {
    "cnea": (_cnea, {}),
    "sea": (_sea, {}),
    "socea": (_socea, {}),
    "cea": (_cea, {}),
    "dgea": (_dgea, {"mode": "exploit"}),
}


def engine_steps(
    cfg: EngineConfig, fn, rng: RngStream, on_regions: Callable | None = None
) -> Iterator[tuple[GenRecord, Individual]]:
    """The one generation loop, for any engine: yields (record, best so far)
    for generation 0, the initialized population, and then for every
    generation the engine's generation function makes. `on_regions(t,
    regions)` sees the dense regions of each cnea generation."""
    factory, first = _ENGINES[cfg.algo]
    generation = factory(cfg, fn, rng, on_regions)
    pop = _init_population(cfg, fn, rng)
    best = pop.best()
    rec = _record(pop, fn.space, 0, **first)
    yield rec, best
    for t in itertools.count(1):
        pop, extras = generation(pop, t, rec)
        if pop.f.min() < best.fitness:
            best = pop.best()
        rec = _record(pop, fn.space, t, **extras)
        yield rec, best


@dataclass
class StagnationRule:
    """Stop a run once its best fitness has not strictly improved for
    `window` generations; its `generations` still caps it."""

    window: int = config_field(500, ge=1)

    def __post_init__(self):
        check_fields(self)

    def stall_test(self) -> Callable[[float], bool]:
        """A fresh test to feed every generation's best fitness in order,
        starting at generation 0. It answers True at the first generation g
        with g - (last strict improvement) >= window, and at each after it."""
        generation = -1
        last_improvement = 0
        previous = math.inf

        def stalled(best: float) -> bool:
            nonlocal generation, last_improvement, previous
            generation += 1
            if best < previous:
                last_improvement = generation
            previous = best
            return generation - last_improvement >= self.window

        return stalled


def run(
    cfg: EngineConfig,
    fn,
    rng: RngStream | None = None,
    on_regions: Callable | None = None,
    stop: StagnationRule | None = None,
) -> RunTrace:
    """Run an engine to generation `cfg.generations` or, given a stop rule,
    until its best fitness stalls, if that comes first; the trace records
    which fired. A configuration that fails `check_dim` for the objective's
    dimension fails here, before any draw."""
    check_dim(cfg, fn.space.dim)
    if rng is None:
        rng = RngStream(cfg.seed)
    steps = engine_steps(cfg, fn, rng, on_regions)
    stalled = None if stop is None else stop.stall_test()
    records: list[GenRecord] = []
    while True:
        t0 = time.perf_counter()
        rec, best = next(steps)
        rec.wall_ms = (time.perf_counter() - t0) * 1000.0
        records.append(rec)
        if stalled is not None and stalled(rec.best_fitness):
            return RunTrace(records, best, "stagnation")
        if rec.generation >= cfg.generations:
            return RunTrace(records, best)


_NOTES = {
    "cnea": "grid pseudo-niching + informed mutation, union elitist selection",
    "sea": "simple EA, mutation variance 1 + sqrt(t + 1), or 1 / sqrt(t + 1) under sea_variance = annealed",
    "socea": "self-organized criticality EA, mutation variance POW(10)",
    "cea": "cellular EA on the most nearly square torus holding N, synchronous replace-if-better, POW(10)",
    "dgea": "diversity-guided EA, explore below d_low, exploit above d_high, POW(1) mutation",
}


def algorithm_registry() -> list[dict]:
    """Description of every engine, for listings and tooling: its stock
    population and the stock value of every knob it reads."""
    out = []
    for algo in ALGORITHMS:
        cfg = default_config(algo, generations=0)
        defaults = ", ".join(
            f"{key}={getattr(cfg, f.name)}"
            for key, f in engine_knobs().items()
            if algo in f.metadata["applies"]
        )
        out.append(
            {"name": algo, "population": cfg.N, "notes": _NOTES[algo], "defaults": defaults}
        )
    return out
