"""Informed genetic operations.

Dense grid regions whose members have collapsed to near-identical fitness are
treated as redundant: their worst members get replaced by evaluated samples
drawn from unoccupied cells, preferring samples far from every region centroid
already handled this generation. `cnea`'s regular operators
(`engines.regular_ops`) then run on the whole population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .benchmarks import evaluate_rows
from .core import Population, RngStream
from .niching import GridIndex, Regions

if TYPE_CHECKING:
    from .engines import EngineConfig

__all__ = [
    "Victims",
    "VirginSamples",
    "detect_victims",
    "sample_virgin",
    "select_replacement",
    "informed_mutation",
]


@dataclass(frozen=True)
class Victims:
    """The victim regions in regions-table order, one row each. The archive
    at victim i, the centroids handled so far, is `centroid[:i + 1]`."""

    row: np.ndarray           # (v,) row of each victim in the regions table
    mean: np.ndarray          # (v,) its fitness mean, which a replacement must beat
    centroid: np.ndarray      # (v, dim) its centroid
    replace: list[list[int]]  # member indices to replace, worst first

    def __len__(self) -> int:
        return len(self.row)


def detect_victims(regions: Regions, population: Population, cfg: EngineConfig) -> Victims:
    """Flag regions whose fitness spread is negligible relative to their mean.

    A region is a victim iff std <= eps_fit * (1 + |mean|). Its worst
    floor(rho_replace * density) members are slated for replacement (fitness
    ties broken by lower index); regions where that count floors to zero are
    skipped entirely.

    The table is read once, row by row, as Python values (`tolist`): the
    count is `math.floor` of one float product and the test one Python
    comparison, the IEEE operations numpy makes on the whole columns. A NaN
    std never qualifies, and `eps_fit` 0 times a mean at +-inf is NaN, with
    no warning. A victim's members are its slice of `grid.members` from
    `regions.start`, in index order, so the stable sort keeps ties that way.
    """
    eps_fit, rho_replace = cfg.eps_fit, cfg.rho_replace
    members, f = regions.grid.members, population.f
    table = zip(regions.start.tolist(), regions.density.tolist(), regions.mean.tolist(), regions.std.tolist())
    rows, replace = [], []
    for r, (a, n, mean, std) in enumerate(table):
        k = math.floor(rho_replace * n)
        if k > 0 and std <= eps_fit * (1.0 + abs(mean)):
            cell = members[a : a + n]
            rows.append(r)
            replace.append(cell[np.argsort(-f[cell], kind="stable")[:k]].tolist())
    rows = np.array(rows, dtype=np.intp)
    return Victims(rows, regions.mean[rows], regions.centroid[rows], replace)


class VirginSamples(NamedTuple):
    """Evaluated samples from unoccupied cells, pool by pool in draw order."""

    genomes: np.ndarray  # (m, dim)
    fitness: np.ndarray  # (m,)
    pool: np.ndarray     # (m,) the pool each sample was drawn for


def sample_virgin(grid: GridIndex, fn, rng: RngStream, budget: int, pools: int = 1) -> VirginSamples:
    """Up to `budget` evaluated uniform samples in `grid.space` whose cell key
    is unoccupied, for each of `pools` pools of 10 * budget raw draws.

    Heavily occupied grids can therefore leave a pool with fewer samples, or
    none. The pools take consecutive stretches of the stream, as one draw per
    pool would, and all samples are evaluated in one batch. A pool keeps its
    first `budget` unoccupied rows, so only its first `budget` rows are drawn
    (as raw words, by `RngStream.uniform_heads`, handed the spare half from
    the one stream position the call reads) and looked up; the stream skips
    its other 9 * budget rows. If one of those first rows is occupied,
    the pool is short, and the call rewinds as `Variation.child_by_child`
    does: from the stream's position at the start of the call, one numpy
    `uniform` call draws every row of every pool. The stream ends where that
    call would leave it, short pool or not.
    """
    dim = grid.space.dim
    if budget <= 0 or pools <= 0:
        return VirginSamples(np.empty((0, dim)), np.empty(0), np.empty(0, dtype=int))
    draws, (low, high) = 10 * budget, grid.space.draw_bounds()
    start = rng.position()
    head = rng.uniform_heads(low, high, pools, budget, draws, dim, rng.spare(start))
    genomes = head.reshape(-1, dim)
    head_free = grid.unoccupied(genomes).reshape(pools, budget)
    short = (~head_free.all(axis=1)).nonzero()[0]
    if not short.size:
        return VirginSamples(genomes, evaluate_rows(fn, genomes), np.repeat(np.arange(pools), budget))
    rng.resume(start)  # a short pool is rare: numpy draws every row of every pool again
    raw = rng.uniform(low, high, size=(pools, draws, dim))
    free = np.zeros((pools, draws), dtype=bool)
    free[:, :budget] = head_free
    free[short, budget:] = grid.unoccupied(raw[short, budget:].reshape(-1, dim)).reshape(len(short), -1)
    free &= np.cumsum(free, axis=1) <= budget
    pool, row = np.nonzero(free)
    genomes = raw[pool, row]
    return VirginSamples(genomes, evaluate_rows(fn, genomes), pool)


def select_replacement(genomes: np.ndarray, fitness: np.ndarray, mean, archive: np.ndarray) -> int | None:
    """Index of the candidate row that strictly beats `mean` while sitting
    farthest, on average, from the archived centroids (the rows of `archive`,
    at least one).

    Distance ties fall back to better fitness, then to the lower index.
    Returns None when no candidate qualifies.
    """
    hopeful = (fitness < mean).nonzero()[0]
    if not hopeful.size:
        return None
    diffs = genomes[hopeful, None, :] - archive
    dist = np.sqrt(np.sum(diffs * diffs, axis=2)).mean(axis=1)
    # the sort is stable, so full ties keep the lower index
    return int(hopeful[np.lexsort((fitness[hopeful], -dist))[0]])


def informed_mutation(
    population: Population, victims: Victims, grid: GridIndex, fn, rng: RngStream, cfg: EngineConfig
) -> tuple[Population, dict]:
    """Replace slated members of each victim region with qualifying virgin samples.

    Population size never changes. Slots whose sampling finds no qualifying
    candidate keep their original member and count as fallbacks.
    Replacements carry their own evaluated fitness; nothing is re-evaluated.
    Every slot of every victim samples one pool, all in one call, in victim
    order; a pool's candidates are judged against its own victim's mean and
    the centroids handled up to that victim. Returns the new population and
    the generation record's `victims`, `replacements` and `fallbacks`. The
    input is never written: once a pool replaces a slot the population is
    copied, and when no sample beats its victim's mean the input population
    itself is returned, with no pool lookup.
    """
    slots = [member for replace in victims.replace for member in replace]
    if not slots:
        return population, dict(victims=len(victims), replacements=0, fallbacks=0)
    samples = sample_virgin(grid, fn, rng, cfg.sample_budget, len(slots))
    victim = np.repeat(np.arange(len(victims)), [len(replace) for replace in victims.replace])
    # only a pool with a sample below its victim's mean can replace its slot
    beats = samples.fitness < victims.mean[victim[samples.pool]]
    if not beats.any():
        return population, dict(victims=len(victims), replacements=0, fallbacks=len(slots))
    hopeful = np.unique(samples.pool[beats])
    fields = dict(victims=len(victims), replacements=len(hopeful), fallbacks=len(slots) - len(hopeful))
    X, f = population.X.copy(), population.f.copy()
    # samples come pool by pool: pool p holds rows bounds[p]:bounds[p + 1]
    bounds = np.searchsorted(samples.pool, np.arange(len(slots) + 1)).tolist()
    for pool, i in zip(hopeful.tolist(), victim[hopeful].tolist()):
        lo, hi = bounds[pool], bounds[pool + 1]
        mean, archive = victims.mean[i], victims.centroid[: i + 1]
        chosen = lo + select_replacement(samples.genomes[lo:hi], samples.fitness[lo:hi], mean, archive)
        X[slots[pool]] = samples.genomes[chosen]
        f[slots[pool]] = samples.fitness[chosen]
    return Population(X, f), fields
