"""Grid pseudo-niching: coarse occupancy clustering without distance thresholds.

The population is dropped into a per-dimension grid; every occupied cell is a
cluster, and cells holding enough members count as high-density regions.
Each cell has one integer code, so the grid is a few arrays: the sorted codes
of the occupied cells, each member's cell, and the member count per cell.
"""

from __future__ import annotations

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
    (all of them by default); the upper bound folds into the last bin."""
    pts = np.asarray(points, dtype=float)
    lower, upper = space.lower, space.upper
    if dims is not None:
        dims = list(dims)
        pts, lower, upper = pts[..., dims], lower[dims], upper[dims]
    scaled = pts - lower
    scaled *= bins
    scaled /= upper - lower
    np.floor(scaled, out=scaled)
    return np.clip(scaled, 0, bins - 1, out=scaled).astype(int)


def check_key_length(bins: int, length: int) -> None:
    """Cell codes are int64: a grid needs bins ** length < 2**63 cells."""
    if bins**length >= 2**63:
        raise ValueError(
            f"grid_bins {bins} ** key length {length} is at least 2**63, "
            "too many cells for int64 cell codes"
        )


def _radix(bins: int, length: int) -> np.ndarray:
    return bins ** np.arange(length - 1, -1, -1, dtype=np.int64)


def cell_codes(points, space: SearchSpace, bins: int, dims) -> np.ndarray:
    """Cell code of each point: the mixed-radix number of its bin indices
    over `dims`, the first most significant, so codes sort as the bin-index
    tuples do."""
    return bin_indices(points, space, bins, dims) @ _radix(bins, len(dims))


def choose_key_dims(dim: int, rng: RngStream, limit: int) -> tuple[int, ...]:
    """Dimensions used for cell keys: all of them up to `limit`, above it
    `limit` of them, drawn once per run."""
    if dim <= limit:
        return tuple(range(dim))
    return rng.index_subset(dim, limit)


@dataclass
class GridIndex:
    """The occupied cells of a population, by `cell_codes` over `effective_dims`."""

    bins_per_dim: int
    effective_dims: tuple[int, ...]
    space: SearchSpace
    cells: np.ndarray    # sorted codes of the occupied cells
    cell_of: np.ndarray  # each member's position in `cells`
    counts: np.ndarray   # members per occupied cell

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
    cells, cell_of = np.unique(cell_codes(population.X, space, bins, key_dims), return_inverse=True)
    return GridIndex(bins, key_dims, space, cells, cell_of, np.bincount(cell_of))


@dataclass(frozen=True)
class Regions:
    """The high-density cells of `grid`, one row each: densest first, then
    lower fitness mean, then lower cell code (the order of the bin-index
    tuples)."""

    grid: GridIndex
    code: np.ndarray      # (r,) cell code
    density: np.ndarray   # (r,) members in the cell
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

    Each region's statistics are taken over its members in index order, one
    region at a time, so they are the same to the bit as numpy's `mean` and
    `std` of those members.
    """
    threshold = max(2, math.ceil(density_fraction * population.size))
    dense = np.flatnonzero(grid.counts >= threshold)
    mean, std = np.empty(len(dense)), np.empty(len(dense))
    centroid = np.empty((len(dense), population.X.shape[1]))
    with np.errstate(invalid="ignore"):  # a member at +inf makes the std NaN
        for r, c in enumerate(dense.tolist()):
            idx = np.flatnonzero(grid.cell_of == c)
            f = population.f[idx]
            mean[r], std[r], centroid[r] = f.mean(), f.std(), population.X[idx].mean(axis=0)
    code, density = grid.cells[dense], grid.counts[dense]
    order = np.lexsort((code, mean, -density))
    return Regions(grid, code[order], density[order], mean[order], std[order], centroid[order])

