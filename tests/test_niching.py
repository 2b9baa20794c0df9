import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import (
    MemoryArchive,
    Population,
    RngStream,
    SearchSpace,
    archive_mean_distance,
    archive_push,
    build_grid,
    high_density_regions,
)
from counterniche.niching import bin_indices, choose_key_dims, discretize_genomes


def _pop(rows, fitness=None):
    return Population(rows, fitness if fitness is not None else np.zeros(len(rows)))


def test_bin_indices_unit_square():
    space = SearchSpace.cube(2, 0.0, 1.0)
    pts = [[0.0, 0.0], [0.24, 0.26], [0.5, 0.51], [0.99, 0.75], [1.0, 1.0]]
    keys = bin_indices(pts, space, 4)
    assert keys.tolist() == [[0, 0], [0, 1], [2, 2], [3, 3], [3, 3]]


def test_bin_indices_upper_bound_folds_into_last_bin():
    space = SearchSpace.cube(1, -2.0, 2.0)
    assert bin_indices([[2.0]], space, 4).tolist() == [[3]]
    assert bin_indices([[-2.0]], space, 4).tolist() == [[0]]


def test_choose_key_dims_low_dim_identity():
    rng = RngStream(0)
    assert choose_key_dims(7, rng) == (0, 1, 2, 3, 4, 5, 6)


def test_choose_key_dims_projection_above_limit():
    rng = RngStream(0)
    dims = choose_key_dims(30, rng, limit=10, projected=10)
    assert len(dims) == 10
    assert len(set(dims)) == 10
    assert dims == tuple(sorted(dims))
    assert all(0 <= d < 30 for d in dims)


def test_build_grid_partitions_population():
    rng = RngStream(3)
    space = SearchSpace.cube(3, -1.0, 1.0)
    genomes = rng.uniform(space.lower, space.upper, size=(40, 3))
    pop = _pop(genomes)
    grid = build_grid(pop, space, bins=4)
    seen = sorted(i for idxs in grid.cells.values() for i in idxs)
    assert seen == list(range(40))
    for key, idxs in grid.cells.items():
        for i in idxs:
            assert grid.key_of(genomes[i]) == key


def test_build_grid_validates_bins():
    pop = _pop([[0.5]])
    with pytest.raises(ValueError):
        build_grid(pop, SearchSpace.cube(1, 0.0, 1.0), bins=1)


def test_build_grid_high_dim_needs_rng_or_key_dims():
    space = SearchSpace.cube(20, 0.0, 1.0)
    pop = _pop(np.full((3, 20), 0.5))
    with pytest.raises(ValueError):
        build_grid(pop, space, bins=4)
    grid = build_grid(pop, space, bins=4, rng=RngStream(1))
    assert len(grid.effective_dims) == 10
    # precomputed projection is used verbatim
    grid2 = build_grid(pop, space, bins=4, key_dims=(0, 1, 2))
    assert grid2.effective_dims == (0, 1, 2)
    assert len(next(iter(grid2.cells.keys()))) == 3


def test_is_occupied():
    space = SearchSpace.cube(2, 0.0, 1.0)
    grid = build_grid(_pop([[0.1, 0.1]]), space, bins=4)
    assert grid.is_occupied((0, 0))
    assert not grid.is_occupied((3, 3))


@pytest.mark.parametrize("dim,bins,key_dims", [(2, 4, None), (12, 3, (1, 4, 7)), (60, 4, None), (40, 7, None)])
def test_unoccupied_matches_key_lookup(dim, bins, key_dims):
    # 60 and 40 coordinates need more than one 62-bit block per key
    space = SearchSpace.cube(dim, -1.0, 1.0)
    rng = np.random.default_rng(dim)
    centres = rng.uniform(-1.0, 1.0, size=(3, dim))
    members = np.clip(centres[rng.integers(0, 3, 40)] + rng.normal(0, 0.05, (40, dim)), -1, 1)
    grid = build_grid(_pop(members), space, bins, key_dims=key_dims or tuple(range(dim)))
    near = np.clip(members + rng.normal(0, 0.02, members.shape), -1, 1)
    points = np.concatenate([members, near, rng.uniform(-1.0, 1.0, (40, dim))])
    free = grid.unoccupied(points)
    assert free.tolist() == [not grid.is_occupied(grid.key_of(p)) for p in points]
    assert not free[:40].any() and free[80:].any()


def test_high_density_regions_threshold():
    space = SearchSpace.cube(2, 0.0, 1.0)
    rows = [[0.1, 0.1]] * 5 + [[0.9, 0.9]] * 4
    rows += [[0.3 + 0.1 * i, 0.6] for i in range(4)]  # spread across cells
    fitness = list(range(len(rows)))
    pop = _pop(rows, fitness)
    grid = build_grid(pop, space, bins=4)
    regions = high_density_regions(grid, pop, 0.05)
    # 13 members: ceil(0.05 * 13) = 1, so the floor of 2 is what binds
    threshold = max(2, math.ceil(0.05 * pop.size))
    assert threshold == 2
    assert all(r.density >= threshold for r in regions)
    dense_keys = {r.cell_key for r in regions}
    assert (0, 0) in dense_keys
    assert (3, 3) in dense_keys
    # singletons never count, whatever the fraction says
    big = _pop([[0.1, 0.1], [0.9, 0.9]], [0.0, 1.0])
    lone = high_density_regions(build_grid(big, space, bins=4), big, 0.0)
    assert lone == []


def test_high_density_regions_stats_and_order():
    space = SearchSpace.cube(1, 0.0, 1.0)
    rows = [[0.05], [0.1], [0.15], [0.9], [0.92], [0.94]]
    fitness = [4.0, 5.0, 6.0, 1.0, 2.0, 3.0]
    pop = _pop(rows, fitness)
    grid = build_grid(pop, space, bins=4)
    regions = high_density_regions(grid, pop, 0.05)
    assert len(regions) == 2
    # equal densities: the lower fitness mean comes first
    assert regions[0].cell_key == (3,)
    assert regions[0].fitness_mean == pytest.approx(2.0)
    assert regions[0].fitness_std == pytest.approx(np.std([1.0, 2.0, 3.0]))
    assert regions[1].centroid[0] == pytest.approx(0.1)
    assert regions[0].density == regions[1].density == 3


def test_high_density_sorted_densest_first():
    space = SearchSpace.cube(1, 0.0, 1.0)
    rows = [[0.1]] * 4 + [[0.9]] * 2
    pop = _pop(rows, [1.0] * 6)
    grid = build_grid(pop, space, bins=4)
    regions = high_density_regions(grid, pop, 0.05)
    assert [r.density for r in regions] == [4, 2]


def test_archive_distance_and_push():
    archive = MemoryArchive()
    assert len(archive) == 0
    assert archive_mean_distance(archive, [0.0, 0.0]) == math.inf
    archive_push(archive, [0.0, 0.0])
    archive_push(archive, [2.0, 0.0])
    assert len(archive) == 2
    assert archive_mean_distance(archive, [1.0, 0.0]) == pytest.approx(1.0)
    archive.clear()
    assert len(archive) == 0


def test_archive_distance_validates_dim():
    archive = archive_push(MemoryArchive(), [0.0, 0.0])
    with pytest.raises(ValueError):
        archive_mean_distance(archive, [1.0, 2.0, 3.0])


def test_discretize_genomes_full_dimension():
    space = SearchSpace.cube(2, 0.0, 1.0)
    pop = _pop([[0.1, 0.9], [0.6, 0.2]])
    rows = discretize_genomes(pop, space, bins=4)
    assert rows == [(0, 3), (2, 0)]


@settings(max_examples=100)
@given(st.integers(2, 8), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_grid_cells_always_partition(bins, n, seed):
    rng = RngStream(seed)
    space = SearchSpace.cube(2, -4.0, 4.0)
    genomes = rng.uniform(space.lower, space.upper, size=(n, 2))
    grid = build_grid(_pop(genomes), space, bins=bins)
    seen = sorted(i for idxs in grid.cells.values() for i in idxs)
    assert seen == list(range(n))
    for key in grid.cells:
        assert all(0 <= k < bins for k in key)
