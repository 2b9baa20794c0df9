"""Batched variation against child-by-child references.

Every engine draws its children first and then runs the crossover and
mutation arithmetic once over all rows. `sea` alone draws child by child;
the reference loop `ref_sea_offspring` is the loop body that made each child
in turn, and both sides must give bit-identical children and fitness and
leave the random stream at the same place.

cnea's regular operators, `socea`, `cea` and `dgea` draw each generation's
variation as whole arrays, one call per draw kind, in the order
`ref_whole_array_draws` spells out; `ref_whole_array_children` builds each
child in turn from those arrays, and must match the engines bit for bit too.
Their old child-by-child loops (`ref_regular_ops`, `ref_sea_offspring` with a
POW variance, `ref_cea_offspring`, `ref_dgea_offspring`) draw in another
order, so they are kept as the "before" of a distributional check: over many
seeds the final errors of whole runs must not tell the two apart.
"""

import numpy as np
import pytest

from counterniche import EngineConfig, Population, RngStream, SearchSpace, default_config, engines, make
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


def ref_regular_ops(pop, space, fn, rng, cfg):
    std = cfg.sigma_reg * space.widths()
    X, f = pop.X, pop.f
    children, fresh, parent = np.empty_like(X), np.zeros(len(f), bool), np.empty(len(f), int)
    for k in range(len(f)):
        i = ref_tournament(f, rng)
        j = ref_tournament(f, rng)
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[i], X[j], rng) if crossed else X[i]
        children[k], fired = ref_mutate(genome, std * std, cfg.p_m, space, rng)
        fresh[k], parent[k] = crossed or fired, i
    return children, ref_children(fn, children, fresh, f[parent])


def ref_sea_offspring(pop, rng, cfg, variance, fn):
    X, f = pop.X, pop.f
    children, fresh, parent = np.empty_like(X), np.zeros(len(f), bool), np.empty(len(f), int)
    for k in range(len(f)):
        i = ref_tournament(f, rng)
        j = ref_tournament(f, rng)
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[i], X[j], rng) if crossed else X[i]
        fired = False
        if rng.random() < cfg.p_m_genome:
            genome, fired = ref_mutate(genome, variance(), 1.0, fn.space, rng)
        children[k], fresh[k], parent[k] = genome, crossed or fired, i
    return children, ref_children(fn, children, fresh, f[parent])


def ref_cea_offspring(pop, rng, cfg, fn):
    X, f = pop.X, pop.f
    rows, cols = engines.torus_shape(cfg.N)
    children, fresh = np.empty_like(X), np.zeros(len(f), bool)
    for idx in range(len(f)):
        r, c = divmod(idx, cols)
        nbr, nbc = engines.torus_neighbors(r, c, rows, cols)[int(rng.integers(0, 4))]
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[idx], X[nbr * cols + nbc], rng) if crossed else X[idx]
        fired = False
        if rng.random() < cfg.p_m_genome:
            variance = pow_sample(10.0, rng, cfg.pow_exponent, cfg.pow_upper)
            genome, fired = ref_mutate(genome, variance, 1.0, fn.space, rng)
        children[idx], fresh[idx] = genome, crossed or fired
    return children, ref_children(fn, children, fresh, f)


def ref_dgea_offspring(pop, mode, rng, cfg, fn):
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
                children[k], fresh[k] = ref_mutate(X[k], variance, 1.0, fn.space, rng)
    return children, ref_children(fn, children, fresh, f[parent])


def ref_winner(f, i, j):
    return j if f[j] < f[i] else i


def ref_whole_array_draws(n, rng, cfg, tournaments=False, crossover=False, alpha=None, genes=False):
    """The arrays of one whole-array generation, in the engines' order:
    whole-genome POW(alpha) mutation for the baselines, per-gene mutation
    for cnea. `genes` holds the (n, DIM) mask of the genes that fire."""
    d = {}
    if tournaments:
        d["bouts"] = rng.integers(0, n, size=(n, 4))
    if crossover:
        d["crossed"] = rng.random(n) < cfg.p_r
        d["weights"] = rng.random((n, DIM))
        d["position"] = rng.integers(0, DIM, size=n)
        d["blend"] = rng.random(n)
    if alpha is not None:
        mutated = rng.random(n) < cfg.p_m_genome
        d["variance"] = pow_sample(alpha, rng, cfg.pow_exponent, cfg.pow_upper, size=n)[:, None]
        d["normals"] = rng.normal(0.0, 1.0, (n, DIM))
        d["genes"] = np.repeat(mutated[:, None], DIM, axis=1)
    if genes:
        d["genes"] = rng.random((n, DIM)) < cfg.p_m
        d["normals"] = rng.normal(0.0, 1.0, (n, DIM))
        std = cfg.sigma_reg * SPACE.widths()
        d["variance"] = np.broadcast_to(std * std, (n, DIM))
    return d


def ref_whole_array_children(pop, d, first, second):
    """Each child in turn from whole-array draws `d` and its parents."""
    X, f = pop.X, pop.f
    children, fresh = X[first].copy(), np.zeros(len(f), bool)
    for k in range(len(f)):
        if "crossed" in d and d["crossed"][k]:
            w = (d["weights"][k] < 0.5).astype(float)
            w[d["position"][k]] = d["blend"][k]
            children[k] = w * X[first[k]] + (1.0 - w) * X[second[k]]
            fresh[k] = True
        if "genes" in d and d["genes"][k].any():
            fire, genome = d["genes"][k], children[k].copy()
            genome[fire] += (d["normals"][k] * np.sqrt(d["variance"][k]))[fire]
            children[k] = np.minimum(np.maximum(genome, SPACE.lower), SPACE.upper)
            fresh[k] = True
    return children, ref_children(Sphere(), children, fresh, f[first])


def ref_whole_array_offspring(algo, pop, rng, cfg):
    n = len(pop.f)
    if algo == "cea":
        pick = rng.integers(0, 4, size=n)
        d = ref_whole_array_draws(n, rng, cfg, crossover=True, alpha=10.0)
        rows, cols = engines.torus_shape(n)
        r, c = np.array([engines.torus_neighbors(*divmod(idx, cols), rows, cols)[pick[idx]] for idx in range(n)]).T
        return ref_whole_array_children(pop, d, np.arange(n), r * cols + c)
    if algo == "dgea-explore":
        d = ref_whole_array_draws(n, rng, cfg, alpha=1.0)
        return ref_whole_array_children(pop, d, np.arange(n), np.arange(n))
    alpha = 10.0 if algo == "socea" else None
    d = ref_whole_array_draws(n, rng, cfg, tournaments=True, crossover=True, alpha=alpha, genes=algo == "cnea")
    b = d["bouts"]
    first = [ref_winner(pop.f, b[k, 0], b[k, 1]) for k in range(n)]
    second = [ref_winner(pop.f, b[k, 2], b[k, 3]) for k in range(n)]
    return ref_whole_array_children(pop, d, np.array(first), np.array(second))


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
    elif algo == "sea":
        out = engines._sea_offspring(pop, cfg, fn, rng, sea_variance(3))
    elif algo == "socea":
        out = engines._socea_offspring(pop, cfg, fn, rng)
    elif algo == "cea":
        out = engines._cea_offspring(pop, cfg, fn, rng, engines._cea_neighbors(cfg.N))
    else:
        out = engines._dgea_offspring(pop, algo.split("-")[1], cfg, fn, rng)
    return out.X, out.f


def _reference(algo, pop, cfg, rng):
    if algo == "sea":
        return ref_sea_offspring(pop, rng, cfg, lambda: sea_variance(3), Sphere())
    return ref_whole_array_offspring(algo, pop, rng, cfg)


def _config(algo, p_r, p_m):
    # p_m is the per-gene rate of cnea and the whole-genome rate of the baselines;
    # sigma_reg 2 gives a std of twice the box width, so mutated genes clamp
    return EngineConfig(algo.split("-")[0], N=24, p_r=p_r, p_m=p_m, p_m_genome=p_m, sigma_reg=2.0)


@pytest.mark.parametrize("p_m", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("p_r", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("algo", ["cnea", "sea", "socea", "cea", "dgea-exploit", "dgea-explore"])
def test_batched_variation_matches_child_by_child(algo, p_r, p_m):
    cfg = _config(algo, p_r, p_m)
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


@pytest.mark.parametrize("algo", ["cnea", "socea", "cea", "dgea-exploit", "dgea-explore"])
def test_whole_array_generation_takes_the_same_words_whatever_it_draws(algo):
    # two populations of different fitness, and coins that all land, none, or some:
    # every whole-array generation from one seed leaves the stream at one place
    ends = set()
    for p_r, p_m in [(0.0, 0.0), (1.0, 1.0), (0.9, 0.75)]:
        cfg = _config(algo, p_r, p_m)
        for pop in (_population(1), _population(2)):
            rng = RngStream(7)
            _variation(algo, pop, cfg, rng)
            ends.add(rng.random())
    assert len(ends) == 1


# the old child-by-child loops, as the engines call their offspring functions
BEFORE = {
    "cnea": ("regular_ops", lambda *args: Population(*ref_regular_ops(*args))),
    "socea": ("_socea_offspring", lambda pop, cfg, fn, rng: Population(*ref_sea_offspring(
        pop, rng, cfg, lambda: pow_sample(10.0, rng, cfg.pow_exponent, cfg.pow_upper), fn))),
    "cea": ("_cea_offspring", lambda pop, cfg, fn, rng, _neighbors: Population(*ref_cea_offspring(
        pop, rng, cfg, fn))),
    "dgea": ("_dgea_offspring", lambda pop, mode, cfg, fn, rng: Population(*ref_dgea_offspring(
        pop, mode, rng, cfg, fn))),
}

SEEDS = 30


def _final_errors(algo, function):
    fn = make(function, 8)
    errors = []
    for seed in range(SEEDS):
        # N=36 gives cea a 6x6 torus; dgea switches modes in both directions here
        cfg = default_config(algo, dim=8, generations=60, seed=seed, N=36)
        errors.append(engines.run(cfg, fn).best.fitness - fn.optimum_value)
    return errors


@pytest.mark.parametrize("function", ["rastrigin", "ackley", "griewank"])
@pytest.mark.parametrize("algo", ["cnea", "socea", "cea", "dgea"])
def test_whole_array_draws_keep_the_final_error_distribution(algo, function, monkeypatch):
    from scipy.stats import mannwhitneyu

    after = _final_errors(algo, function)
    monkeypatch.setattr(engines, *BEFORE[algo])
    before = _final_errors(algo, function)
    assert before != after  # the draws moved, so the runs differ
    assert mannwhitneyu(before, after, alternative="two-sided").pvalue >= 0.01
