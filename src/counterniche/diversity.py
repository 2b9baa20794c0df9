"""Population diversity measures.

Two views of the same population: a normalized spatial spread over real
genomes (mean distance to the population average, scaled by the box diagonal)
and a locus-level count of polymorphic positions over discretized rows.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .core import Population, SearchSpace

__all__ = [
    "distance_to_average",
    "degree_of_diversity",
    "maturity",
]


def distance_to_average(population: Population, space: SearchSpace) -> float:
    """Mean Euclidean distance to the average genome, normalized to [0, 1].

    The normalizer is the diagonal of the search box, so identical
    populations score exactly 0 and no population can exceed 1.
    """
    x = population.X
    if x.shape[1] != space.dim:
        raise ValueError(f"genomes have dim {x.shape[1]}, space has dim {space.dim}")
    # short-circuit keeps the fully converged case exact; the float mean of n
    # identical rows can be off by an ulp for non-power-of-two n. The last row
    # alone turns away most unconverged populations before the full test.
    if (x[-1] == x[0]).all() and np.all(x == x[0]):
        return 0.0
    n = x.shape[0]
    # x.mean(axis=0) to the bit: numpy's mean is this sum divided by n
    centered = x - np.add.reduce(x, axis=0) / n
    np.square(centered, out=centered)
    dists = np.add.reduce(centered, axis=1)
    np.sqrt(dists, out=dists)
    return float(np.add.reduce(dists) / (space.diagonal() * n))


def _validated_rows(rows: Sequence[Sequence[Hashable]]) -> list[Sequence[Hashable]]:
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one row")
    width = len(rows[0])
    if width < 1:
        raise ValueError("rows must have at least one locus")
    if any(len(r) != width for r in rows):
        raise ValueError("rows must all share the same length")
    return rows


def degree_of_diversity(rows: Sequence[Sequence[Hashable]]) -> int:
    """Number of loci carrying more than one distinct symbol.

    Rows may be strings or any equal-length sequences of hashable symbols,
    e.g. tuples of grid bin indices.

    >>> degree_of_diversity(["000", "011"])
    2
    >>> degree_of_diversity(["101", "101", "101"])
    0
    >>> degree_of_diversity(["01", "10"])
    2
    """
    rows = _validated_rows(rows)
    width = len(rows[0])
    return sum(1 for j in range(width) if len({r[j] for r in rows}) > 1)


def maturity(rows: Sequence[Sequence[Hashable]]) -> int:
    """Count of converged loci: row length minus the degree of diversity.

    >>> maturity(["000", "011"])
    1
    >>> maturity(["101", "101"])
    3
    >>> maturity(["01", "10"])
    0
    """
    rows = _validated_rows(rows)
    return len(rows[0]) - degree_of_diversity(rows)

