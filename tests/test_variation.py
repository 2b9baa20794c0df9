"""Batched variation against the child-by-child loops it replaced.

Every engine draws its children in a loop that only draws, then runs the
crossover and mutation arithmetic once over all rows. The reference loops
below are the loop bodies that made each child in turn, with per-genome
crossover and mutation; both must give bit-identical children and fitness
and leave the random stream at the same place.
"""

import numpy as np
import pytest

from counterniche import EngineConfig, Population, RngStream, SearchSpace, engines
from counterniche.informed import regular_ops
from counterniche.operators import pow_sample, sea_variance

DIM = 5
SPACE = SearchSpace.cube(DIM, -1.0, 1.0)


class Sphere:
    space = SPACE

    def evaluate(self, x):
        return float(np.sum(np.asarray(x) ** 2))

    def evaluate_batch(self, X):
        return np.sum(X * X, axis=1)


def ref_tournament(f, rng):
    i = int(rng.integers(0, len(f)))
    j = int(rng.integers(0, len(f)))
    return j if f[j] < f[i] else i


def ref_crossover(a, b, rng):
    w = (rng.random(len(a)) < 0.5).astype(float)
    j = int(rng.integers(0, len(a)))
    w[j] = rng.random()
    return w * a + (1.0 - w) * b


def ref_mutate(genome, variance, p_gene, space, rng):
    mask = rng.random(space.dim) < p_gene
    noise = rng.normal(0.0, 1.0, space.dim) * np.sqrt(variance)
    if not mask.any():
        return genome, False
    out = np.array(genome)
    out[mask] += noise[mask]
    return np.minimum(np.maximum(out, space.lower), space.upper), True


def ref_children(fn, children, fresh, inherited):
    return np.where(fresh, fn.evaluate_batch(children), inherited)


def ref_regular_ops(pop, rng, cfg):
    std = cfg.sigma_reg * SPACE.widths()
    X, f = pop.X, pop.f
    children, fresh, parent = np.empty_like(X), np.zeros(len(f), bool), np.empty(len(f), int)
    for k in range(len(f)):
        i = ref_tournament(f, rng)
        j = ref_tournament(f, rng)
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[i], X[j], rng) if crossed else X[i]
        children[k], fired = ref_mutate(genome, std * std, cfg.p_m, SPACE, rng)
        fresh[k], parent[k] = crossed or fired, i
    return children, ref_children(Sphere(), children, fresh, f[parent])


def ref_sea_offspring(pop, rng, cfg, variance):
    X, f = pop.X, pop.f
    children, fresh, parent = np.empty_like(X), np.zeros(len(f), bool), np.empty(len(f), int)
    for k in range(len(f)):
        i = ref_tournament(f, rng)
        j = ref_tournament(f, rng)
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[i], X[j], rng) if crossed else X[i]
        fired = False
        if rng.random() < cfg.p_m_genome:
            genome, fired = ref_mutate(genome, variance(), 1.0, SPACE, rng)
        children[k], fresh[k], parent[k] = genome, crossed or fired, i
    return children, ref_children(Sphere(), children, fresh, f[parent])


def ref_cea_offspring(pop, rng, cfg):
    X, f = pop.X, pop.f
    rows, cols = cfg.cea_rows, cfg.cea_cols
    children, fresh = np.empty_like(X), np.zeros(len(f), bool)
    for idx in range(len(f)):
        r, c = divmod(idx, cols)
        nbr, nbc = engines.torus_neighbors(r, c, rows, cols)[int(rng.integers(0, 4))]
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[idx], X[nbr * cols + nbc], rng) if crossed else X[idx]
        fired = False
        if rng.random() < cfg.p_m_genome:
            variance = pow_sample(10.0, rng, cfg.pow_exponent, cfg.pow_upper)
            genome, fired = ref_mutate(genome, variance, 1.0, SPACE, rng)
        children[idx], fresh[idx] = genome, crossed or fired
    return children, ref_children(Sphere(), children, fresh, f)


def ref_dgea_offspring(pop, mode, rng, cfg):
    X, f = pop.X, pop.f
    children, fresh, parent = X.copy(), np.zeros(len(f), bool), np.arange(len(f))
    if mode == "exploit":
        for k in range(len(f)):
            i = ref_tournament(f, rng)
            j = ref_tournament(f, rng)
            parent[k] = i
            fresh[k] = rng.random() < cfg.p_r
            children[k] = ref_crossover(X[i], X[j], rng) if fresh[k] else X[i]
    else:
        for k in range(len(f)):
            if rng.random() < cfg.p_m_genome:
                variance = pow_sample(1.0, rng, cfg.pow_exponent, cfg.pow_upper)
                children[k], fresh[k] = ref_mutate(X[k], variance, 1.0, SPACE, rng)
    return children, ref_children(Sphere(), children, fresh, f[parent])


def _population(seed):
    rng = RngStream(seed)
    X = rng.uniform(SPACE.lower, SPACE.upper, size=(24, DIM))
    # coarse fitness makes tournament ties, and values the objective would not give
    return Population(X, np.floor(Sphere().evaluate_batch(X) * 2.0))


def _variation(algo, pop, cfg, rng):
    """(children, fitness) of one generation's variation by the engine's code."""
    fn = Sphere()
    if algo == "cnea":
        out = regular_ops(pop, SPACE, fn, rng, cfg)
        return out.X, out.f
    if algo == "sea":
        out = engines._sea_offspring(pop, cfg, fn, rng, lambda: sea_variance(3))
    elif algo == "socea":
        out = engines._sea_offspring(pop, cfg, fn, rng, lambda: pow_sample(10.0, rng))
    elif algo == "cea":
        return engines._cea_offspring(pop, cfg, fn, rng, engines._cea_neighbors(cfg.cea_rows, cfg.cea_cols))
    else:
        out = engines._dgea_offspring(pop, algo.split("-")[1], cfg, fn, rng)
    return out.X, out.f


def _reference(algo, pop, cfg, rng):
    if algo == "cnea":
        return ref_regular_ops(pop, rng, cfg)
    if algo == "sea":
        return ref_sea_offspring(pop, rng, cfg, lambda: sea_variance(3))
    if algo == "socea":
        return ref_sea_offspring(pop, rng, cfg, lambda: pow_sample(10.0, rng))
    if algo == "cea":
        return ref_cea_offspring(pop, rng, cfg)
    return ref_dgea_offspring(pop, algo.split("-")[1], rng, cfg)


@pytest.mark.parametrize("p_m", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("p_r", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("algo", ["cnea", "sea", "socea", "cea", "dgea-exploit", "dgea-explore"])
def test_batched_variation_matches_child_by_child(algo, p_r, p_m):
    engine = algo.split("-")[0]
    # p_m is the per-gene rate of cnea and the whole-genome rate of the baselines;
    # sigma_reg 2 gives a std of twice the box width, so mutated genes clamp
    cfg = EngineConfig(engine, N=24, p_r=p_r, p_m=p_m, p_m_genome=p_m, sigma_reg=2.0,
                       cea_rows=4, cea_cols=6)
    clamped = 0
    for seed in range(4):
        pop = _population(100 + seed)
        rng_batched, rng_reference = RngStream(seed), RngStream(seed)
        X, f = _variation(algo, pop, cfg, rng_batched)
        X_ref, f_ref = _reference(algo, pop, cfg, rng_reference)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(f, f_ref)
        assert rng_batched.random() == rng_reference.random()
        clamped += int(np.sum(np.abs(X) == 1.0))
    if p_m == 1.0 and algo != "dgea-exploit":
        assert clamped > 0  # the clamp was exercised
