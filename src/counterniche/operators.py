"""Selection and variation operators shared by every engine."""

from __future__ import annotations

import math

import numpy as np

from .core import Population, RngStream, SearchSpace, clamp

__all__ = [
    "binary_tournament",
    "arithmetic_crossover",
    "gaussian_mutate",
    "pow_sample",
    "sea_variance",
]


def binary_tournament(population: Population, rng: RngStream) -> int:
    """Draw two member indices uniformly (with replacement) and return the
    fitter one. Ties go to the first draw.
    """
    n = population.size
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n))
    return j if population.f[j] < population.f[i] else i


def arithmetic_crossover(a, b, rng: RngStream) -> np.ndarray:
    """Per-variable weighted blend of two parent genomes.

    Every weight is drawn from {0, 1} except one uniformly chosen position,
    which gets a uniform weight in [0, 1]. The child is w*a + (1-w)*b
    componentwise, so most genes copy one parent and a single gene blends.
    """
    ga = np.asarray(a, dtype=float)
    gb = np.asarray(b, dtype=float)
    if ga.shape != gb.shape:
        raise ValueError("parents must share genome length")
    dim = ga.size
    w = (rng.random(dim) < 0.5).astype(float)
    j = int(rng.integers(0, dim))
    w[j] = rng.random()
    return w * ga + (1.0 - w) * gb


def gaussian_mutate(
    genome, variance, p_gene: float, space: SearchSpace, rng: RngStream
) -> tuple[np.ndarray, bool]:
    """Add zero-mean Gaussian noise of the given variance to each gene with
    probability p_gene, then clamp to the space.

    `variance` may be a scalar or a per-gene vector. The mask and noise draws
    always happen, so random-stream consumption does not depend on outcomes.
    Returns the child and whether any gene fired; when none did, the child
    is the input genome unchanged.
    """
    g = np.asarray(genome, dtype=float)
    mask = rng.random(space.dim) < p_gene
    noise = rng.normal(0.0, 1.0, space.dim) * np.sqrt(variance)
    if not mask.any():
        return g, False
    out = np.array(g)
    out[mask] += noise[mask]
    return clamp(out, space), True


def pow_sample(alpha: float, rng: RngStream, exponent: float = 2.0, upper: float = 1000.0) -> float:
    """One draw from alpha times a truncated power law on [1, upper].

    The base variable has density proportional to u**(-exponent) on
    [1, upper], sampled by inverting the CDF from a single uniform draw.
    With the defaults the median lands near 2*alpha and the output always
    stays inside [alpha, upper*alpha].
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if upper <= 1.0:
        raise ValueError(f"upper truncation must exceed 1, got {upper}")
    u = rng.random()
    if exponent == 1.0:
        v = upper**u
    else:
        k = 1.0 - exponent
        v = (1.0 - u * (1.0 - upper**k)) ** (1.0 / k)
    return alpha * float(v)


def sea_variance(t: int, mode: str = "printed") -> float:
    """Mutation variance schedule for the simple EA at generation t.

    "printed" grows as 1 + sqrt(t + 1); "annealed" decays as 1 / sqrt(t + 1).
    """
    if mode == "printed":
        return 1.0 + math.sqrt(t + 1.0)
    if mode == "annealed":
        return 1.0 / math.sqrt(t + 1.0)
    raise ValueError(f"unknown variance mode {mode!r}")
