"""Analytical test functions: domains, optima, evaluation, and the
paired-coordinate rotation used by the rotated Rastrigin variant.

All seven functions are minimization problems whose optimum value is 0.
Evaluation is pure: no randomness, no state, bit-identical results for
bit-identical inputs, whatever the CPU's SIMD level: no value goes through
BLAS or through numpy's `exp`, whose AVX-512 kernel rounds otherwise.
`BenchmarkFn.evaluate_batch` scores the rows of a matrix and gives, row for
row, the very bits `evaluate` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SearchSpace

__all__ = [
    "FUNCTION_NAMES",
    "BenchmarkFn",
    "evaluate_rows",
    "evaluate_children",
    "rotation_matrix",
    "make",
    "registry",
]

_TWO_PI = 2.0 * np.pi


def rotation_matrix(dim: int) -> np.ndarray:
    """Block rotation acting on consecutive coordinate pairs.

    Each 2x2 block is [[4/5, 3/5], [-3/5, 4/5]], so the matrix is orthogonal
    and only defined for even dimensions.
    """
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"rotation matrix needs an even dimension >= 2, got {dim}")
    a = np.zeros((dim, dim))
    first = np.arange(0, dim, 2)
    a[first, first] = 0.8
    a[first, first + 1] = 0.6
    a[first + 1, first + 1] = 0.8
    a[first + 1, first] = -0.6
    return a


# Each function takes an (n, dim) matrix and reduces along axis 1. A row
# reduction of a C-contiguous matrix runs the same summation (and product)
# order as the 1-D reduction of that row, so rows score bit for bit as
# single genomes do.


def _exp(v: np.ndarray) -> np.ndarray:
    """libm's `exp` of each value, through `math.exp`: numpy's own `exp` picks
    its kernel by the CPU's SIMD level, and its AVX-512 kernel rounds some
    values otherwise."""
    return np.array([math.exp(e) for e in v.tolist()])


def _ackley(x: np.ndarray) -> np.ndarray:
    n = x.shape[1]
    quad = np.sqrt(np.sum(x * x, axis=1) / n)
    trig = np.sum(np.cos(_TWO_PI * x), axis=1) / n
    return 20.0 + np.e - 20.0 * _exp(-0.2 * quad) - _exp(trig)


def _griewank(x: np.ndarray) -> np.ndarray:
    # shifted variant: the minimum sits at every coordinate equal to 100
    z = x - 100.0
    i = np.arange(1, x.shape[1] + 1, dtype=float)
    return np.sum(z * z, axis=1) / 4000.0 - np.prod(np.cos(z / np.sqrt(i)), axis=1) + 1.0


def _rastrigin(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x - 10.0 * np.cos(_TWO_PI * x) + 10.0, axis=1)


def _rot_rastrigin(x: np.ndarray) -> np.ndarray:
    # `rotation_matrix(dim) @ row` block by block, elementwise: no BLAS
    # kernel, whose choice (and rounding) varies with the CPU
    a, b = x[:, 0::2], x[:, 1::2]
    y = np.empty_like(x)
    y[:, 0::2] = 0.8 * a + 0.6 * b
    y[:, 1::2] = -0.6 * a + 0.8 * b
    return _rastrigin(y)


def _rosenbrock(x: np.ndarray) -> np.ndarray:
    a = x[:, :-1]
    b = x[:, 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (a - 1.0) ** 2, axis=1)


def _ellipsoid(x: np.ndarray) -> np.ndarray:
    i = np.arange(1, x.shape[1] + 1, dtype=float)
    return np.sum(i * x * x, axis=1)


def _schwefel12(x: np.ndarray) -> np.ndarray:
    partial = np.cumsum(x, axis=1)
    return np.sum(partial * partial, axis=1)


# name -> (half width of the symmetric default box, the value of every
# coordinate of the optimum point, row evaluator)
_FUNCTIONS = {
    "ackley": (30.0, 0.0, _ackley),
    "griewank": (600.0, 100.0, _griewank),
    "rastrigin": (5.12, 0.0, _rastrigin),
    "rosenbrock": (100.0, 1.0, _rosenbrock),
    "ellipsoid": (5.12, 0.0, _ellipsoid),
    "schwefel12": (64.0, 0.0, _schwefel12),
    "rot_rastrigin": (5.12, 0.0, _rot_rastrigin),
}
FUNCTION_NAMES = tuple(_FUNCTIONS)


@dataclass(frozen=True, eq=False)
class BenchmarkFn:
    """One instantiated test function: space, optimum, and the evaluator."""

    name: str
    dim: int
    space: SearchSpace
    optimum_point: np.ndarray
    optimum_value: float

    def __post_init__(self):
        # the table lookup happens once here, not on every evaluate_batch call
        object.__setattr__(self, "_score_rows", _FUNCTIONS[self.name][2])

    def evaluate(self, x) -> float:
        g = np.asarray(x, dtype=float)
        if g.shape != (self.dim,):
            raise ValueError(f"{self.name} expects shape ({self.dim},), got {g.shape}")
        return float(self.evaluate_batch(g[np.newaxis])[0])

    def evaluate_batch(self, x) -> np.ndarray:
        """Fitness of every row of an (n, dim) matrix, bit-identical to
        `evaluate` row by row."""
        rows = np.ascontiguousarray(x, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"{self.name} expects shape (n, {self.dim}), got {rows.shape}")
        return self._score_rows(rows)


def evaluate_rows(fn, x) -> np.ndarray:
    """Fitness of every row of `x`: one `fn.evaluate_batch` call if the
    objective has one, else `fn.evaluate` row by row.

    Every fitness value of a run enters here. A NaN raises ValueError, since
    it has no place in a ranking; +inf is allowed and ranks after every
    finite value.
    """
    batch = getattr(fn, "evaluate_batch", None)
    fitness = np.asarray(batch(x) if batch else [fn.evaluate(row) for row in x], dtype=float)
    nan = np.count_nonzero(np.isnan(fitness))
    if nan:
        raise ValueError(f"objective returned NaN for {nan} of {len(fitness)} rows")
    return fitness


def evaluate_children(fn, children: np.ndarray, source: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Fitness of a generation's children, as `Variation.children` reports
    their `source`: a child that copies row `source[k]` of the population
    bit for bit keeps that row's fitness in `f`, and the fresh ones, at -1,
    are evaluated in one `evaluate_rows` call. An objective is taken to be a
    function of the genome's bits, so a copy needs no call."""
    fitness = f[source]  # a new array; the fresh rows' entries are overwritten
    fresh = source < 0
    if fresh.any():
        fitness[fresh] = evaluate_rows(fn, children[fresh])
    return fitness


def make(name: str, dim: int) -> BenchmarkFn:
    """Instantiate a named function at a given dimensionality."""
    if name not in FUNCTION_NAMES:
        raise ValueError(f"unknown function {name!r}; known: {', '.join(FUNCTION_NAMES)}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")

    if name == "rot_rastrigin" and dim % 2:
        raise ValueError(f"rot_rastrigin needs an even dimension, got {dim}")
    half, coordinate, _ = _FUNCTIONS[name]
    space = SearchSpace.cube(dim, -half, half)

    point = np.full(dim, coordinate)
    point.setflags(write=False)

    return BenchmarkFn(name, dim, space, point, 0.0)


def registry() -> list[dict]:
    """Static description of every function, for listings and tooling; every
    entry has the same keys, and `note` is "" for a function with none."""
    notes = {"rot_rastrigin": "even dimension required"}
    return [
        {
            "name": name,
            "lower": -half,
            "upper": half,
            "optimum_value": 0.0,
            "optimum_point": f"all coordinates {coordinate:g}",
            "note": notes.get(name, ""),
        }
        for name, (half, coordinate, _) in _FUNCTIONS.items()
    ]
