import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import Population, RngStream, SearchSpace, build_grid, high_density_regions
from counterniche.niching import bin_indices, choose_key_dims


def _pop(rows, fitness=None):
    return Population(rows, fitness if fitness is not None else np.zeros(len(rows)))


def _cells(grid):
    """The grid as a dict from cell key (tuple of bin indices) to member indices."""
    cells = {}
    for i, key in enumerate(grid.keys(grid.cells[grid.cell_of]).tolist()):
        cells.setdefault(tuple(key), []).append(i)
    return cells


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
    assert choose_key_dims(7, rng, 10) == (0, 1, 2, 3, 4, 5, 6)


def test_choose_key_dims_projection_above_limit():
    rng = RngStream(0)
    dims = choose_key_dims(30, rng, limit=10)
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
    cells = _cells(grid)
    seen = sorted(i for idxs in cells.values() for i in idxs)
    assert seen == list(range(40))
    for key, idxs in cells.items():
        for i in idxs:
            assert tuple(bin_indices(genomes[i], space, 4).tolist()) == key
    keys = [tuple(k) for k in grid.keys(grid.cells).tolist()]
    assert keys == sorted(cells)  # code order is key order
    assert grid.counts.tolist() == [len(cells[k]) for k in keys]


def test_build_grid_validates_bins():
    pop = _pop([[0.5]])
    with pytest.raises(ValueError):
        build_grid(pop, SearchSpace.cube(1, 0.0, 1.0), bins=1)


def test_build_grid_uses_key_dims_verbatim():
    space = SearchSpace.cube(20, 0.0, 1.0)
    pop = _pop(np.full((3, 20), 0.5))
    assert build_grid(pop, space, bins=4).effective_dims == tuple(range(20))
    # precomputed projection is used verbatim
    grid2 = build_grid(pop, space, bins=4, key_dims=(0, 1, 2))
    assert grid2.effective_dims == (0, 1, 2)
    assert grid2.keys(grid2.cells).tolist() == [[2, 2, 2]]
    # keys too long for int64 codes fail, unless a projection shortens them
    wide, wide_space = _pop(np.full((3, 40), 0.5)), SearchSpace.cube(40, 0.0, 1.0)
    with pytest.raises(ValueError, match="too many cells"):
        build_grid(wide, wide_space, bins=4)
    assert len(build_grid(wide, wide_space, bins=4, key_dims=range(31)).cells) == 1


def test_is_occupied():
    space = SearchSpace.cube(2, 0.0, 1.0)
    grid = build_grid(_pop([[0.1, 0.1]]), space, bins=4)
    assert grid.unoccupied([[0.1, 0.2], [0.9, 0.9]]).tolist() == [False, True]


@pytest.mark.parametrize("dim,bins,key_dims", [(2, 4, None), (12, 3, (1, 4, 7))])
def test_unoccupied_matches_key_lookup(dim, bins, key_dims):
    space = SearchSpace.cube(dim, -1.0, 1.0)
    rng = np.random.default_rng(dim)
    centres = rng.uniform(-1.0, 1.0, size=(3, dim))
    members = np.clip(centres[rng.integers(0, 3, 40)] + rng.normal(0, 0.05, (40, dim)), -1, 1)
    grid = build_grid(_pop(members), space, bins, key_dims=key_dims or tuple(range(dim)))
    near = np.clip(members + rng.normal(0, 0.02, members.shape), -1, 1)
    points = np.concatenate([members, near, rng.uniform(-1.0, 1.0, (40, dim))])
    free = grid.unoccupied(points)
    dims = grid.effective_dims
    occupied = {tuple(k) for k in bin_indices(members, space, bins, dims).tolist()}
    keys = bin_indices(points, space, bins, dims).tolist()
    assert free.tolist() == [tuple(k) not in occupied for k in keys]
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
    assert all(regions.density >= threshold)
    dense_keys = {tuple(k) for k in regions.key.tolist()}
    assert (0, 0) in dense_keys
    assert (3, 3) in dense_keys
    # singletons never count, whatever the fraction says
    big = _pop([[0.1, 0.1], [0.9, 0.9]], [0.0, 1.0])
    lone = high_density_regions(build_grid(big, space, bins=4), big, 0.0)
    assert len(lone) == 0


def test_high_density_regions_stats_and_order():
    space = SearchSpace.cube(1, 0.0, 1.0)
    rows = [[0.05], [0.1], [0.15], [0.9], [0.92], [0.94]]
    fitness = [4.0, 5.0, 6.0, 1.0, 2.0, 3.0]
    pop = _pop(rows, fitness)
    grid = build_grid(pop, space, bins=4)
    regions = high_density_regions(grid, pop, 0.05)
    assert len(regions) == 2
    # equal densities: the lower fitness mean comes first
    assert regions.key[0].tolist() == [3]
    assert regions.mean[0] == pytest.approx(2.0)
    assert regions.std[0] == pytest.approx(np.std([1.0, 2.0, 3.0]))
    assert regions.centroid[1][0] == pytest.approx(0.1)
    assert regions.density[0] == regions.density[1] == 3


def test_high_density_sorted_densest_first():
    space = SearchSpace.cube(1, 0.0, 1.0)
    rows = [[0.1]] * 4 + [[0.9]] * 2
    pop = _pop(rows, [1.0] * 6)
    grid = build_grid(pop, space, bins=4)
    regions = high_density_regions(grid, pop, 0.05)
    assert regions.density.tolist() == [4, 2]


@settings(max_examples=100)
@given(st.integers(2, 8), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_grid_cells_always_partition(bins, n, seed):
    rng = RngStream(seed)
    space = SearchSpace.cube(2, -4.0, 4.0)
    genomes = rng.uniform(space.lower, space.upper, size=(n, 2))
    grid = build_grid(_pop(genomes), space, bins=bins)
    cells = _cells(grid)
    seen = sorted(i for idxs in cells.values() for i in idxs)
    assert seen == list(range(n))
    for key in cells:
        assert all(0 <= k < bins for k in key)
