"""Generation loops for the five engines plus the shared run plumbing.

Every engine is written as an infinite generator yielding one trace record per
generation (including generation 0, the initialized population), so fixed
budgets, stagnation-driven runs, and hard caps are all just different ways of
consuming the same stream. All engines minimize, all use one RngStream per
run, and all keep the population size constant. Each generation evaluates
its new children in one batch once its loop has drawn them all; no draw
depends on a child's fitness, so the random stream is the same as with
evaluation child by child.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .benchmarks import evaluate_offspring
from .core import Individual, Population, RngStream, SearchSpace
from .diversity import distance_to_average
from .informed import InformedOpConfig, detect_victims, informed_mutation, regular_ops
from .niching import MemoryArchive, build_grid, choose_key_dims, high_density_regions
from .operators import arithmetic_crossover, binary_tournament, gaussian_mutate, pow_sample, sea_variance

__all__ = [
    "ALGORITHMS",
    "EngineConfig",
    "GenRecord",
    "RunTrace",
    "default_config",
    "default_generations",
    "engine_steps",
    "run",
    "run_cnea",
    "run_sea",
    "run_socea",
    "run_cea",
    "run_dgea",
    "dgea_mode",
    "torus_neighbors",
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


@dataclass
class EngineConfig:
    algo: str
    N: int = 300
    generations: int = 500
    seed: int = 0
    elitism_count: int = 1
    p_r: float = 0.9
    p_m: float = 0.01            # per-gene rate (counter-niching regular ops)
    p_m_genome: float = 0.75     # whole-genome rate (baselines)
    sigma_reg: float = 0.1
    grid_bins: int = 4
    tau_dense: float = 0.05
    eps_fit: float = 0.01
    rho_replace: float = 0.5
    sample_budget: int = 20
    key_dim_limit: int = 10
    projected_dims: int = 10
    sea_variance_mode: str = "printed"
    pow_exponent: float = 2.0
    pow_upper: float = 1000.0
    d_low: float = 5e-6
    d_high: float = 0.25
    cea_rows: int = 20
    cea_cols: int = 20

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}; known: {', '.join(ALGORITHMS)}")
        if self.N < 2:
            raise ValueError("population size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        if not 0 <= self.elitism_count <= self.N:
            raise ValueError("elitism_count must lie in [0, N]")
        for name in ("p_r", "p_m", "p_m_genome"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.algo == "cea" and self.cea_rows * self.cea_cols != self.N:
            raise ValueError(
                f"cellular grid {self.cea_rows}x{self.cea_cols} does not hold N={self.N} members"
            )
        if self.d_low >= self.d_high:
            raise ValueError("d_low must stay below d_high")


def default_config(
    algo: str,
    dim: int | None = None,
    generations: int | None = None,
    seed: int = 0,
    **overrides,
) -> EngineConfig:
    """Stock configuration for an algorithm, with keyword overrides on top."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; known: {', '.join(ALGORITHMS)}")
    if generations is None:
        if dim is None:
            raise ValueError("need either dim or generations to size the budget")
        generations = default_generations(algo, dim)
    n = 300 if algo == "cnea" else 400
    cfg = EngineConfig(algo=algo, N=n, generations=generations, seed=seed)
    return replace(cfg, **overrides) if overrides else cfg


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
    stopped_by: str = "budget"
    stagnation_generation: int | None = None

    @property
    def generations(self) -> int:
        return self.records[-1].generation

    def best_fitness_series(self) -> list[float]:
        return [r.best_fitness for r in self.records]


def _init_population(cfg: EngineConfig, fn, rng: RngStream) -> Population:
    genomes = rng.uniform(fn.space.lower, fn.space.upper, size=(cfg.N, fn.space.dim))
    return Population(evaluate_offspring(list(genomes), fn), 0)


def _record(population: Population, space: SearchSpace, generation: int, **extra) -> GenRecord:
    f = population.fitness_values()
    return GenRecord(
        generation=generation,
        best_fitness=float(f.min()),
        mean_fitness=float(f.mean()),
        diversity=distance_to_average(population, space),
        **extra,
    )


def _elitist_merge(parents: Population, offspring: list[Individual], count: int, generation: int) -> Population:
    """Generational replacement with elitism: the best `count` parents displace
    the worst `count` offspring (best elite into the worst slot)."""
    if count == 0:
        return Population(list(offspring), generation)
    fitness = parents.fitness_values()
    elite_order = sorted(range(parents.size), key=lambda i: (fitness[i], i))
    elites = [parents.members[i] for i in elite_order[:count]]
    worst_slots = sorted(
        range(len(offspring)), key=lambda i: (-offspring[i].fitness, -i)
    )[:count]
    out = list(offspring)
    for slot, elite in zip(worst_slots, elites):
        out[slot] = elite
    return Population(out, generation)


def _elitist_union_survivors(
    parents: Population, offspring: Population, count: int, rng: RngStream, generation: int, n: int
) -> Population:
    """Survivor selection over the union of parents and offspring: the best
    `count` members survive outright, the rest of the next generation is
    filled by binary tournament without replacement over the union minus
    those elites. Each pool member enters at most one tournament, so the
    survivors are distinct and the selection never collapses the population
    onto copies of a single individual."""
    union = parents.members + offspring.members
    order = sorted(range(len(union)), key=lambda i: (union[i].fitness, i))
    elites = [union[i] for i in order[:count]]
    pool = [union[i] for i in order[count:]]
    # pool has 2n - count members; n - count pairings use 2(n - count) of them
    pairing = rng.permutation(len(pool))
    members = list(elites)
    for s in range(n - count):
        a, b = pool[pairing[2 * s]], pool[pairing[2 * s + 1]]
        members.append(b if b.fitness < a.fitness else a)
    return Population(members, generation)


def _track_best(best: Individual, population: Population) -> Individual:
    cand = population.best()
    return cand if cand.fitness < best.fitness else best


def _cnea_steps(
    cfg: EngineConfig, fn, rng: RngStream, on_regions: Callable | None = None
) -> Iterator[tuple[GenRecord, Individual]]:
    space = fn.space
    key_dims = None
    if space.dim > cfg.key_dim_limit:
        # projection drawn once per run so cell keys stay comparable
        key_dims = choose_key_dims(space.dim, rng, cfg.key_dim_limit, cfg.projected_dims)
    op_cfg = InformedOpConfig(
        eps_fit=cfg.eps_fit,
        rho_replace=cfg.rho_replace,
        sample_budget=cfg.sample_budget,
        p_r=cfg.p_r,
        p_m=cfg.p_m,
        sigma_reg=cfg.sigma_reg,
    )
    pop = _init_population(cfg, fn, rng)
    best = pop.best()
    yield _record(pop, space, 0), best
    t = 0
    while True:
        t += 1
        grid = build_grid(pop, space, cfg.grid_bins, rng, key_dims=key_dims,
                          key_dim_limit=cfg.key_dim_limit, projected_dims=cfg.projected_dims)
        regions = high_density_regions(grid, pop, cfg.tau_dense)
        if on_regions is not None:
            on_regions(t, regions)
        victims = detect_victims(regions, pop, op_cfg)
        archive = MemoryArchive()  # cleared every generation by construction
        pop_informed, counters = informed_mutation(
            pop, victims, space, grid, fn, archive, rng, op_cfg
        )
        offspring = regular_ops(pop_informed, space, fn, rng, op_cfg)
        pop = _elitist_union_survivors(pop_informed, offspring, cfg.elitism_count, rng, t, cfg.N)
        best = _track_best(best, pop)
        yield _record(
            pop, space, t,
            victims=counters.victims,
            replacements=counters.replaced,
            fallbacks=counters.fallbacks,
        ), best


def _sea_like_steps(
    cfg: EngineConfig, fn, rng: RngStream, variance_source: Callable[[int, RngStream], float]
) -> Iterator[tuple[GenRecord, Individual]]:
    """Generational EA core shared by the simple and self-organized variants:
    tournament parents, arithmetic crossover, whole-genome Gaussian mutation."""
    space = fn.space
    pop = _init_population(cfg, fn, rng)
    best = pop.best()
    yield _record(pop, space, 0), best
    t = 0
    while True:
        t += 1
        offspring: list = []
        for _ in range(cfg.N):
            p1 = binary_tournament(pop, rng)
            p2 = binary_tournament(pop, rng)
            crossed = rng.random() < cfg.p_r
            genome = arithmetic_crossover(p1, p2, rng) if crossed else p1.genome
            if rng.random() < cfg.p_m_genome:
                genome = gaussian_mutate(genome, variance_source(t - 1, rng), 1.0, space, rng)
            offspring.append(p1 if genome is p1.genome else genome)
        pop = _elitist_merge(pop, evaluate_offspring(offspring, fn), cfg.elitism_count, t)
        best = _track_best(best, pop)
        yield _record(pop, space, t), best


def _sea_steps(cfg: EngineConfig, fn, rng: RngStream):
    mode = cfg.sea_variance_mode
    return _sea_like_steps(cfg, fn, rng, lambda t, _rng: sea_variance(t, mode))


def _socea_steps(cfg: EngineConfig, fn, rng: RngStream):
    return _sea_like_steps(
        cfg, fn, rng,
        lambda _t, r: pow_sample(10.0, r, cfg.pow_exponent, cfg.pow_upper),
    )


def torus_neighbors(row: int, col: int, rows: int, cols: int) -> list[tuple[int, int]]:
    """Von Neumann neighborhood on a wrapped grid: up, down, left, right."""
    return [
        ((row - 1) % rows, col),
        ((row + 1) % rows, col),
        (row, (col - 1) % cols),
        (row, (col + 1) % cols),
    ]


def _cea_steps(cfg: EngineConfig, fn, rng: RngStream) -> Iterator[tuple[GenRecord, Individual]]:
    """Cellular EA on a torus: every cell mates with a random von Neumann
    neighbor; the offspring takes the cell only if strictly better. Updates
    are synchronous, so each generation reads the previous grid only."""
    space = fn.space
    rows, cols = cfg.cea_rows, cfg.cea_cols
    pop = _init_population(cfg, fn, rng)
    best = pop.best()
    yield _record(pop, space, 0), best
    t = 0
    while True:
        t += 1
        old = pop.members
        children: list = []
        for idx in range(cfg.N):
            r, c = divmod(idx, cols)
            nbr, nbc = torus_neighbors(r, c, rows, cols)[int(rng.integers(0, 4))]
            center = old[idx]
            mate = old[nbr * cols + nbc]
            crossed = rng.random() < cfg.p_r
            genome = arithmetic_crossover(center, mate, rng) if crossed else center.genome
            if rng.random() < cfg.p_m_genome:
                variance = pow_sample(10.0, rng, cfg.pow_exponent, cfg.pow_upper)
                genome = gaussian_mutate(genome, variance, 1.0, space, rng)
            children.append(center if genome is center.genome else genome)
        children = evaluate_offspring(children, fn)
        new_members = [
            child if child.fitness < center.fitness else center
            for child, center in zip(children, old)
        ]
        pop = Population(new_members, t)
        best = _track_best(best, pop)
        yield _record(pop, space, t), best


def dgea_mode(previous: str, diversity: float, d_low: float, d_high: float) -> str:
    """Hysteresis switch: explore below d_low, exploit above d_high,
    otherwise keep the previous mode."""
    if diversity < d_low:
        return "explore"
    if diversity > d_high:
        return "exploit"
    return previous


def _dgea_steps(cfg: EngineConfig, fn, rng: RngStream) -> Iterator[tuple[GenRecord, Individual]]:
    """Diversity-guided EA: exploitation applies selection and crossover only;
    exploration applies whole-genome Gaussian mutation only."""
    space = fn.space
    pop = _init_population(cfg, fn, rng)
    best = pop.best()
    mode = "exploit"
    yield _record(pop, space, 0, mode=mode), best
    t = 0
    while True:
        t += 1
        mode = dgea_mode(mode, distance_to_average(pop, space), cfg.d_low, cfg.d_high)
        offspring: list = []
        if mode == "exploit":
            for _ in range(cfg.N):
                p1 = binary_tournament(pop, rng)
                p2 = binary_tournament(pop, rng)
                if rng.random() < cfg.p_r:
                    offspring.append(arithmetic_crossover(p1, p2, rng))
                else:
                    offspring.append(p1)
        else:
            for member in pop.members:
                if rng.random() < cfg.p_m_genome:
                    variance = pow_sample(1.0, rng, cfg.pow_exponent, cfg.pow_upper)
                    genome = gaussian_mutate(member.genome, variance, 1.0, space, rng)
                    offspring.append(member if genome is member.genome else genome)
                else:
                    offspring.append(member)
        pop = _elitist_merge(pop, evaluate_offspring(offspring, fn), cfg.elitism_count, t)
        best = _track_best(best, pop)
        yield _record(pop, space, t, mode=mode), best


def engine_steps(
    cfg: EngineConfig, fn, rng: RngStream, on_regions: Callable | None = None
) -> Iterator[tuple[GenRecord, Individual]]:
    """The per-generation stream for any engine. Yields (record, best so far)."""
    if cfg.algo == "cnea":
        return _cnea_steps(cfg, fn, rng, on_regions)
    if cfg.algo == "sea":
        return _sea_steps(cfg, fn, rng)
    if cfg.algo == "socea":
        return _socea_steps(cfg, fn, rng)
    if cfg.algo == "cea":
        return _cea_steps(cfg, fn, rng)
    if cfg.algo == "dgea":
        return _dgea_steps(cfg, fn, rng)
    raise ValueError(f"unknown algorithm {cfg.algo!r}")


def run(
    cfg: EngineConfig, fn, rng: RngStream | None = None, on_regions: Callable | None = None
) -> RunTrace:
    """Run an engine for its configured generation budget."""
    if rng is None:
        rng = RngStream(cfg.seed)
    steps = engine_steps(cfg, fn, rng, on_regions)
    records: list[GenRecord] = []
    best: Individual | None = None
    for _ in range(cfg.generations + 1):
        t0 = time.perf_counter()
        rec, best = next(steps)
        rec.wall_ms = (time.perf_counter() - t0) * 1000.0
        records.append(rec)
    return RunTrace(records, best)


def _run_named(algo: str, cfg: EngineConfig, fn, rng, on_regions=None) -> RunTrace:
    if cfg.algo != algo:
        raise ValueError(f"config is for {cfg.algo!r}, expected {algo!r}")
    return run(cfg, fn, rng, on_regions)


def run_cnea(cfg: EngineConfig, fn, rng: RngStream | None = None, on_regions=None) -> RunTrace:
    return _run_named("cnea", cfg, fn, rng, on_regions)


def run_sea(cfg: EngineConfig, fn, rng: RngStream | None = None) -> RunTrace:
    return _run_named("sea", cfg, fn, rng)


def run_socea(cfg: EngineConfig, fn, rng: RngStream | None = None) -> RunTrace:
    return _run_named("socea", cfg, fn, rng)


def run_cea(cfg: EngineConfig, fn, rng: RngStream | None = None) -> RunTrace:
    return _run_named("cea", cfg, fn, rng)


def run_dgea(cfg: EngineConfig, fn, rng: RngStream | None = None) -> RunTrace:
    return _run_named("dgea", cfg, fn, rng)


def algorithm_registry() -> list[dict]:
    """Static description of every engine, for listings and tooling."""
    return [
        {
            "name": "cnea",
            "population": 300,
            "notes": "grid pseudo-niching + informed mutation, union elitist selection",
            "defaults": "p_m=0.01 per gene, p_r=0.9, grid_bins=4, tau_dense=0.05",
        },
        {
            "name": "sea",
            "population": 400,
            "notes": "simple EA, mutation variance 1 + sqrt(t + 1)",
            "defaults": "p_m_genome=0.75, p_r=0.9, elitism 1",
        },
        {
            "name": "socea",
            "population": 400,
            "notes": "self-organized criticality EA, mutation variance POW(10)",
            "defaults": "p_m_genome=0.75, p_r=0.9, elitism 1",
        },
        {
            "name": "cea",
            "population": 400,
            "notes": "cellular EA on a 20x20 torus, replace-if-better, POW(10) mutation",
            "defaults": "p_m_genome=0.75, p_r=0.9, synchronous updates",
        },
        {
            "name": "dgea",
            "population": 400,
            "notes": "diversity-guided EA, explore below 5e-06, exploit above 0.25, POW(1) mutation",
            "defaults": "p_m_genome=0.75, p_r=0.9, elitism 1",
        },
    ]
