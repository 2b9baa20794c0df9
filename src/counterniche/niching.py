"""Grid pseudo-niching: coarse occupancy clustering without distance thresholds.

The population is dropped into a per-dimension grid; every occupied cell is a
cluster, and cells holding enough members count as high-density regions.
Each cell has one integer code, so the grid is a few arrays from one stable
sort of the codes: the sorted codes of the occupied cells, the member count
per cell, and the members laid out cell by cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Population, RngStream, SearchSpace

__all__ = [
    "GridIndex",
    "Regions",
    "bin_indices",
    "cell_codes",
    "check_key_length",
    "choose_key_dims",
    "build_grid",
    "high_density_regions",
]


def bin_indices(points, space: SearchSpace, bins: int, dims=None) -> np.ndarray:
    """Per-coordinate bin index of each point, over the coordinates `dims`
    (all of them by default); the upper bound folds into the last bin.

    The scaled coordinates are clamped to [0, bins - 1] and then truncated
    to int: on clamped values, none negative, truncation is floor, so this
    is floor-then-clamp without the floor pass, for every input (a point
    outside the box and +-inf clamp to an end bin)."""
    pts = np.asarray(points, dtype=float)
    lower, upper = space.draw_bounds()  # two floats on a cube, which numpy broadcasts fastest
    if dims is not None and tuple(dims) != tuple(range(space.dim)):  # a key of every dim needs no copy
        dims = list(dims)
        pts = pts[..., dims]
        if isinstance(lower, np.ndarray):
            lower, upper = lower[dims], upper[dims]
    scaled = pts - lower
    scaled *= bins
    scaled /= upper - lower
    np.maximum(scaled, 0, out=scaled)
    return np.minimum(scaled, bins - 1, out=scaled).astype(int)


def check_key_length(bins: int, length: int) -> None:
    """Cell codes are int64: a grid needs bins ** length < 2**63 cells."""
    if bins**length >= 2**63:
        raise ValueError(
            f"grid_bins {bins} ** key length {length} is at least 2**63, "
            "too many cells for int64 cell codes"
        )


@functools.cache
def _radix(bins: int, length: int) -> np.ndarray:
    """The place value of each key position, most significant first; one
    read-only array per (bins, length), shared by every caller."""
    radix = bins ** np.arange(length - 1, -1, -1, dtype=np.int64)
    radix.setflags(write=False)
    return radix


def cell_codes(points, space: SearchSpace, bins: int, dims) -> np.ndarray:
    """Cell code of each point: the mixed-radix number of its bin indices
    over `dims`, the first most significant, so codes sort as the bin-index
    tuples do."""
    return bin_indices(points, space, bins, dims) @ _radix(bins, len(dims))


def choose_key_dims(dim: int, rng: RngStream, limit: int) -> tuple[int, ...]:
    """Dimensions used for cell keys when `dim` is above `limit`: `limit` of
    them, drawn once per run. Up to `limit`, a run keys on every dimension
    and draws none."""
    return tuple(sorted(rng.choice(dim, size=limit, replace=False).tolist()))


@dataclass
class GridIndex:
    """The occupied cells of a population, by `cell_codes` over `effective_dims`."""

    bins_per_dim: int
    effective_dims: tuple[int, ...]
    space: SearchSpace
    cells: np.ndarray    # sorted codes of the occupied cells
    counts: np.ndarray   # members per occupied cell
    members: np.ndarray  # member indices cell by cell, in index order within a cell
    start: np.ndarray    # each cell's first position in `members`

    def keys(self, codes) -> np.ndarray:
        """Bin-index rows of cell codes, the inverse of `cell_codes`."""
        radix = _radix(self.bins_per_dim, len(self.effective_dims))
        return np.asarray(codes)[:, None] // radix % self.bins_per_dim

    def unoccupied(self, points) -> np.ndarray:
        """Mask of the rows of an (n, dim) matrix whose cell holds no member."""
        codes = cell_codes(points, self.space, self.bins_per_dim, self.effective_dims)
        at = np.minimum(np.searchsorted(self.cells, codes), len(self.cells) - 1)
        return self.cells[at] != codes


def build_grid(
    population: Population,
    space: SearchSpace,
    bins: int,
    key_dims: tuple[int, ...] | None = None,
) -> GridIndex:
    """Index every member by its cell code, over `key_dims` (all dimensions
    by default). Runs that project draw `key_dims` once and pass it in, so
    the projection stays fixed."""
    if bins < 2:
        raise ValueError(f"need at least 2 bins per dimension, got {bins}")
    key_dims = tuple(range(space.dim)) if key_dims is None else tuple(key_dims)
    check_key_length(bins, len(key_dims))
    codes = cell_codes(population.X, space, bins, key_dims)
    members = np.argsort(codes, kind="stable")
    codes = codes[members]
    edge = np.ones(len(codes) + 1, dtype=bool)  # where a cell starts, and the end of the last
    np.not_equal(codes[1:], codes[:-1], out=edge[1:-1])
    edges = edge.nonzero()[0]
    start = edges[:-1]
    return GridIndex(bins, key_dims, space, codes[start], edges[1:] - start, members, start)


@dataclass(frozen=True)
class Regions:
    """The high-density cells of `grid`, one row each: densest first, then
    lower fitness mean, then lower cell code (the order of the bin-index
    tuples). Region i's members are `grid.members[start[i] : start[i] +
    density[i]]`, in index order."""

    grid: GridIndex
    code: np.ndarray      # (r,) cell code
    density: np.ndarray   # (r,) members in the cell
    start: np.ndarray     # (r,) the cell's first position in `grid.members`
    mean: np.ndarray      # (r,) fitness mean of the members
    std: np.ndarray       # (r,) fitness std of the members; NaN when one is at +inf
    centroid: np.ndarray  # (r, dim) mean genome of the members

    def __len__(self) -> int:
        return len(self.code)

    @property
    def key(self) -> np.ndarray:
        """(r, key length) bin indices of each region's cell."""
        return self.grid.keys(self.code)


def high_density_regions(grid: GridIndex, population: Population, density_fraction: float) -> Regions:
    """Occupied cells holding at least max(2, ceil(fraction * N)) members.

    Each region's statistics are the operations numpy's `mean` and `std` run
    on its members in index order (`np.add.reduce`, divided by the count,
    and the square root of the mean squared spread), one region at a time,
    so they are the same to the bit. The fitness and genomes are gathered
    once, cell by cell, and each region reads its slice of them; its scalar
    mean and std are Python floats (`/` and `math.sqrt` are the same IEEE
    operations). The table keeps each region's cell start, which this loop
    reads, so `detect_victims` slices its members without a lookup.
    """
    threshold = max(2, math.ceil(density_fraction * population.size))
    dense = (grid.counts >= threshold).nonzero()[0]
    mean, std = np.empty(len(dense)), np.empty(len(dense))
    centroid = np.empty((len(dense), population.X.shape[1]))
    fitness, genomes = population.f[grid.members], population.X[grid.members]
    code, density, start = grid.cells[dense], grid.counts[dense], grid.start[dense]
    with np.errstate(invalid="ignore"):  # a member at +inf makes the std NaN
        for r, (a, n) in enumerate(zip(start.tolist(), density.tolist())):
            f = fitness[a : a + n]
            mean[r] = m = float(np.add.reduce(f)) / n
            spread = f - m
            spread *= spread
            std[r] = math.sqrt(float(np.add.reduce(spread)) / n)
            centroid[r] = np.add.reduce(genomes[a : a + n], axis=0) / n
    order = np.lexsort((code, mean, -density))
    return Regions(grid, code[order], density[order], start[order], mean[order], std[order], centroid[order])
