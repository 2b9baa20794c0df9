"""The five engines, their one generation loop, and the run driver.

Every engine is a generation function, which makes the next population from
the current one. `engine_steps` is the one loop around it: it initializes
the population and yields one trace record per generation (including
generation 0, the initialized population), and `run` consumes that stream
to its last generation, or to an early stop its config sets: a stall of the
best fitness, or an evaluation budget. All engines minimize, all use one
RngStream per run, and all keep the population size constant.
Each generation evaluates its new children in one batch once it has drawn
them all; no draw depends on a child's fitness, so the random stream is the
same as with evaluation child by child.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import Field, dataclass, fields
from typing import Callable, Iterator

import numpy as np

from .benchmarks import evaluate_children, evaluate_rows
from .core import Individual, Population, RngStream, SearchSpace, check_fields, config_field
from .diversity import distance_to_average
from .informed import detect_victims, informed_mutation
from .niching import build_grid, check_key_length, choose_key_dims, high_density_regions
from .operators import Variation, binary_tournament, pow_sample, sea_variance

__all__ = [
    "ALGORITHMS",
    "EngineConfig",
    "GenRecord",
    "RunTrace",
    "default_config",
    "check_dim",
    "default_generations",
    "engine_knobs",
    "engine_steps",
    "run",
    "stall_test",
    "dgea_mode",
    "torus_shape",
    "algorithm_registry",
    "regular_ops",
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


@dataclass
class EngineConfig:
    algo: str
    N: int = config_field(300, applies=ALGORITHMS, key="pop_size", ge=2)
    generations: int = config_field(500, ge=0)
    # the early stops `run` reads; unset, neither stops a run before `generations`
    stagnation_window: int | None = config_field(None, ge=1)
    max_evaluations: int | None = config_field(None, ge=1)
    seed: int = config_field(0, ge=0)
    elitism_count: int = config_field(1, applies=("cnea", "sea", "socea", "dgea"), key="elitism", ge=0)
    p_r: float = config_field(0.9, applies=ALGORITHMS, ge=0, le=1)
    p_m: float = config_field(0.01, applies=("cnea",), ge=0, le=1)  # per-gene rate (counter-niching regular ops)
    p_m_genome: float = config_field(0.75, applies=BASELINES, ge=0, le=1)  # whole-genome rate (baselines)
    sigma_reg: float = config_field(0.1, applies=("cnea",), ge=0)
    grid_bins: int = config_field(4, applies=("cnea",), ge=2)
    tau_dense: float = config_field(0.05, applies=("cnea",), gt=0, le=1)
    eps_fit: float = config_field(0.01, applies=("cnea",), ge=0)
    rho_replace: float = config_field(0.5, applies=("cnea",), gt=0, lt=1)
    sample_budget: int = config_field(20, applies=("cnea",), ge=1)
    key_dim_limit: int = config_field(10, applies=("cnea",), ge=1)
    sea_variance_mode: str = config_field(
        "printed", applies=("sea",), key="sea_variance", choices=("printed", "annealed")
    )
    d_low: float = config_field(5e-6, applies=("dgea",))
    d_high: float = config_field(0.25, applies=("dgea",))

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
    `counterniche run` flag with `-` for `_`. A knob is a field whose
    `applies` names the engines that read it; its key is its `key`, where
    given, else its name. Values parse with the type of its default."""
    return {f.metadata.get("key", f.name): f for f in fields(EngineConfig) if "applies" in f.metadata}


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
    stock = 300 if algo == "cnea" else 400
    cfg = EngineConfig(algo=algo, generations=generations, seed=seed, **{"N": stock, **overrides})
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
    evaluations: int = 0  # objective evaluations of the run up to this generation, its own included
    wall_ms: float = 0.0


@dataclass
class RunTrace:
    records: list[GenRecord]
    best: Individual | None
    # "budget" at generation `generations`, or the early stop of the config's
    # `stagnation_window` or `max_evaluations` ("stagnation", "evaluations"); None: read from CSV
    stopped_by: str | None = "budget"

    @property
    def generations(self) -> int:
        return self.records[-1].generation

    def best_fitness_series(self) -> list[float]:
        return [r.best_fitness for r in self.records]


def _init_population(cfg: EngineConfig, fn, rng: RngStream) -> Population:
    X = rng.uniform(*fn.space.draw_bounds(), size=(cfg.N, fn.space.dim))
    return Population(X, evaluate_rows(fn, X))


def _record(population: Population, best: Individual, space: SearchSpace, generation: int, **extra) -> GenRecord:
    """The record of `population`, generation `generation`. Its best fitness
    is the run's best so far, `best`: elitism keeps that in the population,
    but without elitism the population may have lost it."""
    return GenRecord(
        generation=generation,
        best_fitness=best.fitness,
        mean_fitness=float(np.add.reduce(population.f) / population.size),  # f.mean() to the bit
        diversity=distance_to_average(population, space),
        **extra,
    )


def _elitist_merge(parents: Population, offspring: Population, count: int) -> Population:
    """Generational replacement with elitism: the best `count` parents, ranked
    by (fitness, index), displace the worst `count` offspring, the higher
    index first among equals (best elite into the worst slot). The elites
    are written into the offspring's own arrays, which each generation makes
    afresh."""
    X, f = offspring.X, offspring.f
    elites = np.argsort(parents.f, kind="stable")[:count]
    worst = np.argsort(f, kind="stable")[::-1][:count]
    X[worst] = parents.X[elites]
    f[worst] = parents.f[elites]
    return offspring


def _elitist_union_survivors(parents: Population, offspring: Population, count: int, rng: RngStream) -> Population:
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
    # of n parents, pool has 2n - count members; n - count pairings use 2(n - count) of them
    pairing = rng.permutation(len(pool))[: 2 * (parents.size - count)]
    a, b = pool[pairing[0::2]], pool[pairing[1::2]]
    keep = np.concatenate([order[:count], binary_tournament(f, a, b)])
    return Population(X[keep], f[keep])


def _breed(pop: Population, draws: Variation, first, second, fn) -> Population:
    """The children `draws` makes from rows first[k] and second[k] of the
    population, with their fitness: a copy of either parent keeps that
    parent's, and the fresh ones are evaluated in one batch."""
    children, source = draws.children(pop.X, first, second, fn.space)
    return Population(children, evaluate_children(fn, children, source, pop.f))


def regular_ops(pop: Population, fn, rng: RngStream, cfg: EngineConfig) -> Population:
    """`cnea`'s regular operators: tournament parents, arithmetic crossover
    with probability p_r, per-gene Gaussian mutation at rate p_m with std
    sigma_reg * range. The draws come as whole arrays, in this order:
    tournaments (n, 4); crossover coins (n,), weight draws (n, dim),
    positions (n,), blends (n,); gene-mask uniforms (n, dim), standard
    normals (n, dim)."""
    low, high = fn.space.draw_bounds()  # two floats on a cube, which numpy broadcasts fastest
    std = cfg.sigma_reg * (high - low)
    draws = Variation(pop.size, fn.space.dim, rng)
    draws.all_tournaments()
    draws.all_crossovers(cfg.p_r)
    draws.all_gene_mutations(cfg.p_m, std * std)
    return _breed(pop, draws, *draws.parents(pop.f), fn)


def _pow_variances(alpha: float, rng: RngStream) -> Callable[[int], np.ndarray]:
    """POW(alpha) mutation variances, `size` per call."""
    return lambda size: pow_sample(alpha, rng, size=size)


def _sea_offspring(pop: Population, cfg: EngineConfig, fn, rng: RngStream, variance: float) -> Population:
    """Tournament parents, arithmetic crossover, and whole-genome Gaussian
    mutation of the given variance, drawn child by child."""
    draws = Variation(cfg.N, fn.space.dim, rng)
    draws.child_by_child(cfg.p_r, cfg.p_m_genome, variance)
    return _breed(pop, draws, *draws.parents(pop.f), fn)


def _socea_offspring(pop: Population, cfg: EngineConfig, fn, rng: RngStream) -> Population:
    """Tournament parents, arithmetic crossover, and whole-genome POW(10)
    mutation, drawn as whole arrays."""
    draws = Variation(cfg.N, fn.space.dim, rng)
    draws.all_tournaments()
    draws.all_crossovers(cfg.p_r)
    draws.all_mutations(cfg.p_m_genome, _pow_variances(10.0, rng))
    return _breed(pop, draws, *draws.parents(pop.f), fn)


def torus_shape(n: int) -> tuple[int, int]:
    """(rows, cols) of the most nearly square torus holding n cells: rows is
    the largest divisor of n that is at most sqrt(n), so a prime n is a ring."""
    rows = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return rows, n // rows


def _cea_neighbors(n: int) -> np.ndarray:
    """Row-major cell index of each cell's von Neumann neighbors on the
    wrapped `torus_shape(n)` grid, shape (n, 4): up, down, left, right."""
    grid = np.arange(n).reshape(torus_shape(n))
    # np.roll(grid, 1, 0)[r, c] is grid[r - 1, c], the cell above, wrapped
    up, down = np.roll(grid, 1, 0), np.roll(grid, -1, 0)
    left, right = np.roll(grid, 1, 1), np.roll(grid, -1, 1)
    return np.stack([up, down, left, right], axis=-1).reshape(n, 4)


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
    draws.all_mutations(cfg.p_m_genome, _pow_variances(10.0, rng))
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
    draws.all_mutations(cfg.p_m_genome, _pow_variances(1.0, rng))
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
        pop_informed, informed_fields = informed_mutation(pop, victims, grid, fn, rng, cfg)
        offspring = regular_ops(pop_informed, fn, rng, cfg)
        survivors = _elitist_union_survivors(pop_informed, offspring, cfg.elitism_count, rng)
        return survivors, informed_fields

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


class _Counted:
    """A run's objective as its engine sees it: it counts the rows it
    scores, the same whether the objective has `evaluate_batch` or only
    `evaluate`. `evaluate_rows` checks what it returns."""

    def __init__(self, fn):
        self.space, self.evaluations = fn.space, 0
        self._score = getattr(fn, "evaluate_batch", None) or (lambda x: evaluate_rows(fn, x))

    def evaluate_batch(self, x):
        self.evaluations += len(x)
        return self._score(x)


def engine_steps(
    cfg: EngineConfig, fn, rng: RngStream, on_regions: Callable | None = None
) -> Iterator[tuple[GenRecord, Individual]]:
    """The one generation loop, for any engine: yields (record, best so far)
    for generation 0, the initialized population, and then for every
    generation the engine's generation function makes. Each record holds
    the evaluations of `fn` so far, counted here, where the engine's every
    call goes. `on_regions(t, regions)` sees the dense regions of each cnea
    generation."""
    factory, first = _ENGINES[cfg.algo]
    objective = _Counted(fn)
    generation = factory(cfg, objective, rng, on_regions)
    pop = _init_population(cfg, objective, rng)
    best = pop.best()
    rec = _record(pop, best, fn.space, 0, evaluations=objective.evaluations, **first)
    yield rec, best
    for t in itertools.count(1):
        pop, extras = generation(pop, t, rec)
        if np.minimum.reduce(pop.f) < best.fitness:
            best = pop.best()
        rec = _record(pop, best, fn.space, t, evaluations=objective.evaluations, **extras)
        yield rec, best


def stall_test(window: int) -> Callable[[float], bool]:
    """A fresh stall test to feed every generation's best fitness in order,
    starting at generation 0. It answers True at the first generation g
    with g - (last strict improvement) >= window, and at each after it. A
    window below 1 is refused."""
    if window < 1:
        raise ValueError(f"stagnation_window must be >= 1, got {window}")
    generation = -1
    last_improvement = 0
    previous = math.inf

    def stalled(best: float) -> bool:
        nonlocal generation, last_improvement, previous
        generation += 1
        if best < previous:
            last_improvement = generation
        previous = best
        return generation - last_improvement >= window

    return stalled


def run(cfg: EngineConfig, fn, on_regions: Callable | None = None) -> RunTrace:
    """Run an engine on the stream `RngStream(cfg.seed)` to generation
    `cfg.generations`, or to an early stop of the config if one comes
    first: given `cfg.stagnation_window`, when its best fitness stalls that
    long (`stall_test`); given `cfg.max_evaluations`, at the first
    generation whose evaluation count reaches it. The trace records which
    fired, the stall first when both fire at one generation. Neither moves
    a draw. A configuration that fails `check_dim` for the objective's
    dimension fails here, before the stream is built."""
    check_dim(cfg, fn.space.dim)
    steps = engine_steps(cfg, fn, RngStream(cfg.seed), on_regions)
    stalled = None if cfg.stagnation_window is None else stall_test(cfg.stagnation_window)
    budget = math.inf if cfg.max_evaluations is None else cfg.max_evaluations
    records: list[GenRecord] = []
    while True:
        t0 = time.perf_counter()
        rec, best = next(steps)
        rec.wall_ms = (time.perf_counter() - t0) * 1000.0
        records.append(rec)
        if stalled is not None and stalled(rec.best_fitness):
            return RunTrace(records, best, "stagnation")
        if rec.evaluations >= budget:
            return RunTrace(records, best, "evaluations")
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
