"""The array niching layer against a dict-and-object reference.

The reference below indexes the grid as a dict from cell key (a tuple of bin
indices) to member lists, builds one object per dense region, sorts victim
members in Python and walks the replacement candidates one at a time, with
the archive a list of centroids. The array code must give the same keys,
order, densities and fitness statistics, centroids, replacement lists and
chosen candidates, to the bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import EngineConfig, Population, SearchSpace, build_grid, high_density_regions
from counterniche.informed import detect_victims, select_replacement
from counterniche.niching import bin_indices


@dataclass
class RefRegion:
    cell_key: tuple
    member_indices: list
    centroid: np.ndarray
    density: int
    fitness_mean: float
    fitness_std: float


def ref_cells(population, space, bins, key_dims):
    keys = bin_indices(population.X, space, bins, key_dims)
    cells = {}
    for i, row in enumerate(keys.tolist()):
        cells.setdefault(tuple(row), []).append(i)
    return cells


def ref_regions(cells, population, density_fraction):
    threshold = max(2, math.ceil(density_fraction * population.size))
    regions = []
    for key, idxs in cells.items():
        if len(idxs) < threshold:
            continue
        f = population.f[idxs]
        with np.errstate(invalid="ignore"):
            std = float(f.std())
        regions.append(
            RefRegion(key, list(idxs), population.X[idxs].mean(axis=0), len(idxs), float(f.mean()), std)
        )
    regions.sort(key=lambda r: (-r.density, r.fitness_mean, r.cell_key))
    return regions


def ref_victims(regions, population, cfg):
    """(position in `regions`, indices to replace) of each victim region."""
    fitness = population.f
    victims = []
    for pos, region in enumerate(regions):
        if not region.fitness_std <= cfg.eps_fit * (1.0 + abs(region.fitness_mean)):
            continue
        k = math.floor(cfg.rho_replace * region.density)
        if k == 0:
            continue
        victims.append((pos, sorted(region.member_indices, key=lambda i: (-fitness[i], i))[:k]))
    return victims


def ref_mean_distance(centroids, x):
    diffs = np.stack(centroids) - np.asarray(x, dtype=float)
    return float(np.mean(np.sqrt(np.sum(diffs * diffs, axis=1))))


def ref_select(genomes, fitness, mean, centroids):
    best, best_dist = None, -math.inf
    for k in np.flatnonzero(fitness < mean).tolist():
        dist = ref_mean_distance(centroids, genomes[k])
        if best is None or dist > best_dist or (dist == best_dist and fitness[k] < fitness[best]):
            best, best_dist = k, dist
    return best


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(2, 120),
    dim=st.integers(1, 12),
    bins=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    project=st.booleans(),
    clusters=st.integers(1, 4),
    spread=st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
    levels=st.integers(1, 5),
    infinite=st.integers(0, 2),
    tau=st.sampled_from([0.01, 0.05, 0.2]),
    eps_fit=st.sampled_from([0.0, 0.01, 1.0, 1e9]),
    rho=st.sampled_from([0.1, 0.5, 0.9]),
)
def test_array_niching_matches_the_reference(
    n, dim, bins, seed, project, clusters, spread, levels, infinite, tau, eps_fit, rho
):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-5.0, 0.0, dim)
    space = SearchSpace(dim, lower, lower + rng.uniform(0.5, 10.0, dim))
    # clustered members, so cells fill; few fitness levels, so fitness ties
    centres = rng.uniform(space.lower, space.upper, size=(clusters, dim))
    X = centres[rng.integers(0, clusters, n)] + spread * space.widths() * rng.normal(size=(n, dim))
    X = np.clip(X, space.lower, space.upper)
    f = rng.uniform(0.0, 100.0, levels)[rng.integers(0, levels, n)]
    f[rng.integers(0, n, infinite)] = np.inf
    pop = Population(X, f)
    key_dims = tuple(range(dim))
    if project and dim > 1:
        key_dims = tuple(sorted(rng.choice(dim, int(rng.integers(1, dim)), replace=False).tolist()))
    cfg = EngineConfig("cnea", eps_fit=eps_fit, rho_replace=rho)

    cells = ref_cells(pop, space, bins, key_dims)
    grid = build_grid(pop, space, bins, key_dims)
    keys = [tuple(k) for k in grid.keys(grid.cells).tolist()]
    assert keys == sorted(cells)
    assert grid.counts.tolist() == [len(cells[k]) for k in keys]
    cell_of = np.repeat(np.arange(len(keys)), grid.counts)[np.argsort(grid.members)]
    assert [keys[c] for c in cell_of.tolist()] == [
        tuple(k) for k in bin_indices(X, space, bins, key_dims).tolist()
    ]

    expected = ref_regions(cells, pop, tau)
    regions = high_density_regions(grid, pop, tau)
    assert len(regions) == len(expected)
    assert [tuple(k) for k in regions.key.tolist()] == [r.cell_key for r in expected]
    assert regions.density.tolist() == [r.density for r in expected]
    assert _bits(regions.mean) == _bits([r.fitness_mean for r in expected])
    assert np.array_equal(regions.std, [r.fitness_std for r in expected], equal_nan=True)
    assert _bits(regions.centroid) == _bits(np.reshape([r.centroid for r in expected], (-1, dim)))

    victims = detect_victims(regions, pop, cfg)
    reference = ref_victims(expected, pop, cfg)
    assert victims.row.tolist() == [pos for pos, _ in reference]
    assert victims.replace == [replace for _, replace in reference]

    # candidates for each victim in turn: duplicate rows tie on distance,
    # duplicate fitness values tie on fitness
    for i, (pos, _) in enumerate(reference):
        m = int(rng.integers(1, 30))
        genomes = rng.uniform(space.lower, space.upper, size=(m, dim))
        genomes[rng.integers(0, m, m // 3)] = genomes[0]
        mean = expected[pos].fitness_mean
        fitness = rng.choice([mean - 1.0, mean - 0.5, mean, mean + 1.0, 0.0, np.inf], m)
        centroids = [expected[p].centroid for p, _ in reference[: i + 1]]
        chosen = select_replacement(genomes, fitness, victims.mean[i], victims.centroid[: i + 1])
        assert chosen == ref_select(genomes, fitness, mean, centroids)
