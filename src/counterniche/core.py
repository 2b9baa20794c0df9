"""Value types shared across the library: bounded real search spaces,
populations, the best individual a run reports, and seeded random streams.

Everything downstream (benchmarks, niching, engines, harness) builds on the
contract established here: genomes are float vectors living inside an
axis-aligned box, fitness is minimized, and all randomness flows through one
`RngStream` per run so that equal seeds give bit-identical draw sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SearchSpace",
    "Individual",
    "Population",
    "RngStream",
    "random_genome",
    "clamp",
]


def _frozen_vector(values, dim: int, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"{what} must be a length-{dim} vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Axis-aligned box of feasible genomes with closed per-coordinate bounds."""

    dim: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        lower = _frozen_vector(self.lower, self.dim, "lower")
        upper = _frozen_vector(self.upper, self.dim, "upper")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, dim: int, lower: float, upper: float) -> "SearchSpace":
        """Box with the same scalar bounds on every coordinate."""
        return cls(dim, np.full(dim, float(lower)), np.full(dim, float(upper)))

    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def diagonal(self) -> float:
        """Euclidean length of the box diagonal; normalizer for spread measures."""
        return float(np.sqrt(np.sum(self.widths() ** 2)))

    def contains(self, genome) -> bool:
        g = np.asarray(genome, dtype=float)
        if g.shape != (self.dim,):
            return False
        return bool(np.all(g >= self.lower) and np.all(g <= self.upper))


@dataclass(frozen=True, eq=False)
class Individual:
    """A genome and its fitness (smaller is better), as a run reports its best in `RunTrace.best`."""

    genome: np.ndarray
    fitness: float | None = None

    def __post_init__(self):
        genome = np.ascontiguousarray(self.genome, dtype=float)
        genome.setflags(write=False)
        object.__setattr__(self, "genome", genome)
        if self.fitness is not None:
            object.__setattr__(self, "fitness", float(self.fitness))

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None


@dataclass
class Population:
    """N genomes as the rows of `X`, shape (N, dim), with their fitness `f`,
    shape (N,). Both are C-contiguous float arrays; engines build a new
    population each generation rather than writing into one."""

    X: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=float)
        self.f = np.ascontiguousarray(self.f, dtype=float)
        if self.X.ndim != 2 or len(self.X) == 0:
            raise ValueError(f"genomes must be a non-empty (N, dim) matrix, got shape {self.X.shape}")
        if self.f.shape != (len(self.X),):
            raise ValueError(f"need one fitness per genome: {len(self.X)} rows, fitness shape {self.f.shape}")

    @property
    def size(self) -> int:
        return len(self.f)

    def best_index(self) -> int:
        # argmin keeps the first occurrence, so ties resolve to the lowest index
        return int(np.argmin(self.f))

    def best(self) -> Individual:
        """A copy of the fittest member, as a run reports it."""
        i = self.best_index()
        return Individual(self.X[i].copy(), self.f[i])


class RngStream:
    """Seeded random stream confined to one run.

    A thin wrapper over numpy's PCG64 generator. Two streams built from the
    same seed produce identical sequences of uniform, normal, and integer
    draws, which is what makes whole runs bit-reproducible.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low, high, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high, size=None):
        """Integers from [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """A random ordering of range(n)."""
        return self._gen.permutation(n)

    def index_subset(self, n: int, k: int) -> tuple[int, ...]:
        """k distinct indices out of range(n), returned sorted."""
        if not 0 < k <= n:
            raise ValueError(f"need 0 < k <= n, got k={k} n={n}")
        picked = self._gen.choice(n, size=k, replace=False)
        return tuple(sorted(int(i) for i in picked))


def random_genome(space: SearchSpace, rng: RngStream) -> np.ndarray:
    """Uniform draw inside the box, coordinate by coordinate."""
    return rng.uniform(space.lower, space.upper, size=space.dim)


def clamp(genomes, space: SearchSpace) -> np.ndarray:
    """Project a genome, or each row of a matrix of genomes, onto the box.
    Length mismatches are errors, not repairs."""
    g = np.asarray(genomes, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != space.dim:
        raise ValueError(f"genome has shape {g.shape}, expected ({space.dim},) or (n, {space.dim})")
    return np.minimum(np.maximum(g, space.lower), space.upper)
