"""Grid pseudo-niching: coarse occupancy clustering without distance thresholds.

The population is dropped into a per-dimension grid; every occupied cell is a
cluster, and cells holding enough members count as high-density regions. A
small per-generation archive of region centroids lets the replacement step
prefer samples far from everything already explored this generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Population, RngStream, SearchSpace

__all__ = [
    "DEFAULT_BINS",
    "DEFAULT_DENSITY_FRACTION",
    "DEFAULT_KEY_DIM_LIMIT",
    "DEFAULT_PROJECTED_DIMS",
    "GridIndex",
    "Region",
    "MemoryArchive",
    "bin_indices",
    "choose_key_dims",
    "build_grid",
    "high_density_regions",
    "archive_push",
    "archive_mean_distance",
    "discretize_genomes",
]

DEFAULT_BINS = 4
DEFAULT_DENSITY_FRACTION = 0.05
# above this dimensionality, cell keys use a fixed random subset of dimensions
DEFAULT_KEY_DIM_LIMIT = 10
DEFAULT_PROJECTED_DIMS = 10


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


def choose_key_dims(
    dim: int,
    rng: RngStream,
    limit: int = DEFAULT_KEY_DIM_LIMIT,
    projected: int = DEFAULT_PROJECTED_DIMS,
) -> tuple[int, ...]:
    """Dimensions used for cell keys. Drawn once per run when dim exceeds the limit."""
    if dim <= limit:
        return tuple(range(dim))
    return rng.index_subset(dim, projected)


@dataclass
class GridIndex:
    """Occupancy map from cell key (tuple of bin indices) to member indices."""

    bins_per_dim: int
    effective_dims: tuple[int, ...]
    cells: dict[tuple[int, ...], list[int]]
    space: SearchSpace

    def key_of(self, genome) -> tuple[int, ...]:
        return tuple(bin_indices(genome, self.space, self.bins_per_dim, self.effective_dims).tolist())

    def unoccupied(self, points) -> np.ndarray:
        """Mask of the rows of an (n, dim) matrix whose cell holds no member.

        Keys are matched against the occupied keys a block of coordinates at
        a time. A matched prefix is coded by its rank among the occupied
        prefixes, so codes stay below 2**62 however long the keys are; at
        the default sizes one block covers the whole key.
        """
        bins = self.bins_per_dim
        keys = bin_indices(points, self.space, bins, self.effective_dims)
        free = np.zeros(len(keys), dtype=bool)
        if not self.cells:
            return ~free
        occupied = np.array(list(self.cells))
        block = max(1, (62 - len(self.cells).bit_length()) // math.ceil(math.log2(bins)))
        code = np.zeros(len(keys), dtype=np.int64)
        occupied_code = np.zeros(len(occupied), dtype=np.int64)
        for j in range(0, keys.shape[1], block):
            radix = bins ** np.arange(min(block, keys.shape[1] - j), dtype=np.int64)
            shift = bins * radix[-1]
            prefixes, occupied_code = np.unique(
                occupied_code * shift + occupied[:, j : j + block] @ radix, return_inverse=True
            )
            wanted = code * shift + keys[:, j : j + block] @ radix
            code = np.searchsorted(prefixes, wanted)
            free |= prefixes[np.minimum(code, len(prefixes) - 1)] != wanted
        return free

    def is_occupied(self, key: tuple[int, ...]) -> bool:
        return key in self.cells


def build_grid(
    population: Population,
    space: SearchSpace,
    bins: int = DEFAULT_BINS,
    rng: RngStream | None = None,
    key_dims: tuple[int, ...] | None = None,
    key_dim_limit: int = DEFAULT_KEY_DIM_LIMIT,
    projected_dims: int = DEFAULT_PROJECTED_DIMS,
) -> GridIndex:
    """Index every member by its cell key.

    Callers that run many generations should draw `key_dims` once and pass it
    in, so high-dimensional runs keep a stable projection.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins per dimension, got {bins}")
    if key_dims is None:
        if space.dim <= key_dim_limit:
            key_dims = tuple(range(space.dim))
        else:
            if rng is None:
                raise ValueError("rng is required to draw projected key dimensions")
            key_dims = choose_key_dims(space.dim, rng, key_dim_limit, projected_dims)

    keys = bin_indices(population.X, space, bins, key_dims)
    cells: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(keys.tolist()):
        cells.setdefault(tuple(row), []).append(i)
    return GridIndex(bins, tuple(key_dims), cells, space)


@dataclass
class Region:
    """One occupied cell dense enough to count: members, centroid, fitness stats."""

    cell_key: tuple[int, ...]
    member_indices: list[int]
    centroid: np.ndarray
    density: int
    fitness_mean: float
    fitness_std: float


def high_density_regions(
    grid: GridIndex,
    population: Population,
    density_fraction: float = DEFAULT_DENSITY_FRACTION,
) -> list[Region]:
    """Occupied cells holding at least max(2, ceil(fraction * N)) members.

    Sorted densest first; ties broken by lower mean fitness, then by cell key.
    """
    threshold = max(2, math.ceil(density_fraction * population.size))
    x, fitness = population.X, population.f

    regions = []
    for key, idxs in grid.cells.items():
        if len(idxs) < threshold:
            continue
        f = fitness[idxs]
        with np.errstate(invalid="ignore"):  # a member at +inf makes the std NaN
            std = float(f.std())
        regions.append(
            Region(
                cell_key=key,
                member_indices=list(idxs),
                centroid=x[idxs].mean(axis=0),
                density=len(idxs),
                fitness_mean=float(f.mean()),
                fitness_std=std,
            )
        )
    regions.sort(key=lambda r: (-r.density, r.fitness_mean, r.cell_key))
    return regions


@dataclass
class MemoryArchive:
    """Centroids of regions processed so far in the current generation."""

    centroids: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.centroids)

    def clear(self) -> None:
        self.centroids.clear()


def archive_push(archive: MemoryArchive, centroid) -> MemoryArchive:
    archive.centroids.append(np.asarray(centroid, dtype=float))
    return archive


def archive_mean_distance(archive: MemoryArchive, x) -> float:
    """Mean Euclidean distance from x to the archived centroids.

    An empty archive returns +inf, which outranks any finite distance and
    makes the first region's replacements prefer fitness alone.
    """
    if not archive.centroids:
        return math.inf
    point = np.asarray(x, dtype=float)
    stacked = np.stack(archive.centroids)
    if stacked.shape[1] != point.shape[0]:
        raise ValueError(
            f"archive centroids have dim {stacked.shape[1]}, point has dim {point.shape[0]}"
        )
    diffs = stacked - point
    return float(np.mean(np.sqrt(np.sum(diffs * diffs, axis=1))))


def discretize_genomes(
    population: Population, space: SearchSpace, bins: int = DEFAULT_BINS
) -> list[tuple[int, ...]]:
    """Full-dimension bin-index rows, suitable for the locus diversity measures."""
    keys = bin_indices(population.X, space, bins)
    return [tuple(int(v) for v in row) for row in keys.tolist()]
