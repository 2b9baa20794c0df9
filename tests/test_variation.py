"""Batched variation against child-by-child references.

Every engine draws its children first and then runs the crossover and
mutation arithmetic once over all rows. `sea` alone draws child by child;
the reference loop `ref_sea_offspring` is the loop body that made each child
in turn, and both sides must give bit-identical children and fitness and
leave the random stream at the same place. Run on a plain numpy Generator,
that loop is also the reference for where `sea`'s draws leave the stream's
spare 32-bit half, which only a later scalar integer draw can see.

cnea's regular operators, `socea`, `cea` and `dgea` draw each generation's
variation as whole arrays, one call per draw kind, in the order
`ref_whole_array_draws` spells out; `ref_whole_array_children` builds each
child in turn from those arrays, and must match the engines bit for bit too.
Their old child-by-child loops (`ref_regular_ops`, `ref_sea_offspring` with a
POW variance, `ref_cea_offspring`, `ref_dgea_offspring`) draw in another
order, so they are kept as the "before" of a distributional check: over many
seeds the final errors of whole runs must not tell the two apart.

`Variation.children` crosses and mutates all rows at once; `ref_rows` builds
each child alone from the same stored draws, and the edge cases (no child
crosses, no child mutates, no gene fires, one-gene genomes, a crossed child
one ulp past a bound) must match it bit for bit. Every reference evaluates a
child only where a gene fired or where it differs from both parents in some
bit: a crossed child that comes out a copy of either parent keeps that
parent's fitness without an objective call.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from counterniche import EngineConfig, Population, RngStream, SearchSpace, default_config, engines, make
from counterniche.benchmarks import evaluate_children
from counterniche.engines import regular_ops
from counterniche.operators import Variation, pow_sample, sea_variance

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


def changed(child, parent):
    """Whether a child differs from a parent in any bit; one that does not
    is a copy and keeps the parent's fitness."""
    return child.tobytes() != parent.tobytes()


def changed_rows(children, parents):
    return np.array([changed(child, parent) for child, parent in zip(children, parents)], dtype=bool)


def ref_source(genome, X, i, j, fired):
    """The row of X a child copies bit for bit, its first parent i, else its
    second j; -1 for a fresh child, one where a gene fired or that differs
    from both parents."""
    if fired:
        return -1
    for parent in (i, j):
        if not changed(genome, X[parent]):
            return parent
    return -1


def ref_children(fn, children, source, f):
    """The fitness of each child: its source row's, or evaluated at -1."""
    source = np.asarray(source)
    return np.where(source < 0, fn.evaluate_batch(children), f[source])


def ref_regular_ops(pop, fn, rng, cfg):
    space = fn.space
    std = cfg.sigma_reg * space.widths()
    X, f = pop.X, pop.f
    children, source = np.empty_like(X), np.empty(len(f), int)
    for k in range(len(f)):
        i = ref_tournament(f, rng)
        j = ref_tournament(f, rng)
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[i], X[j], rng) if crossed else X[i]
        children[k], fired = ref_mutate(genome, std * std, cfg.p_m, space, rng)
        source[k] = ref_source(children[k], X, i, j, fired)
    return children, ref_children(fn, children, source, f)


def ref_sea_offspring(pop, rng, cfg, variance, fn):
    X, f = pop.X, pop.f
    children, source = np.empty_like(X), np.empty(len(f), int)
    for k in range(len(f)):
        i = ref_tournament(f, rng)
        j = ref_tournament(f, rng)
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[i], X[j], rng) if crossed else X[i]
        fired = False
        if rng.random() < cfg.p_m_genome:
            genome, fired = ref_mutate(genome, variance(), 1.0, fn.space, rng)
        children[k], source[k] = genome, ref_source(genome, X, i, j, fired)
    return children, ref_children(fn, children, source, f)


def torus_neighbors(row: int, col: int, rows: int, cols: int) -> list[tuple[int, int]]:
    """Von Neumann neighborhood on a wrapped grid: up, down, left, right."""
    return [
        ((row - 1) % rows, col),
        ((row + 1) % rows, col),
        (row, (col - 1) % cols),
        (row, (col + 1) % cols),
    ]


def ref_cea_offspring(pop, rng, cfg, fn):
    X, f = pop.X, pop.f
    rows, cols = engines.torus_shape(cfg.N)
    children, source = np.empty_like(X), np.empty(len(f), int)
    for idx in range(len(f)):
        r, c = divmod(idx, cols)
        nbr, nbc = torus_neighbors(r, c, rows, cols)[int(rng.integers(0, 4))]
        crossed = rng.random() < cfg.p_r
        genome = ref_crossover(X[idx], X[nbr * cols + nbc], rng) if crossed else X[idx]
        fired = False
        if rng.random() < cfg.p_m_genome:
            variance = pow_sample(10.0, rng, size=1)[0]
            genome, fired = ref_mutate(genome, variance, 1.0, fn.space, rng)
        children[idx], source[idx] = genome, ref_source(genome, X, idx, nbr * cols + nbc, fired)
    return children, ref_children(fn, children, source, f)


def ref_dgea_offspring(pop, mode, rng, cfg, fn):
    X, f = pop.X, pop.f
    children, source = X.copy(), np.arange(len(f))
    if mode == "exploit":
        for k in range(len(f)):
            i = ref_tournament(f, rng)
            j = ref_tournament(f, rng)
            children[k] = ref_crossover(X[i], X[j], rng) if rng.random() < cfg.p_r else X[i]
            source[k] = ref_source(children[k], X, i, j, False)
    else:
        for k in range(len(f)):
            if rng.random() < cfg.p_m_genome:
                variance = pow_sample(1.0, rng, size=1)[0]
                children[k], fired = ref_mutate(X[k], variance, 1.0, fn.space, rng)
                source[k] = ref_source(children[k], X, k, k, fired)
    return children, ref_children(fn, children, source, f)


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
        d["variance"] = pow_sample(alpha, rng, size=n)[:, None]
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
    children, source = X[first].copy(), np.empty(len(f), int)
    for k in range(len(f)):
        if "crossed" in d and d["crossed"][k]:
            w = (d["weights"][k] < 0.5).astype(float)
            w[d["position"][k]] = d["blend"][k]
            children[k] = w * X[first[k]] + (1.0 - w) * X[second[k]]
        fired = "genes" in d and d["genes"][k].any()
        source[k] = ref_source(children[k], X, first[k], second[k], fired)
        if fired:
            fire, genome = d["genes"][k], children[k].copy()
            genome[fire] += (d["normals"][k] * np.sqrt(d["variance"][k]))[fire]
            children[k] = np.minimum(np.maximum(genome, SPACE.lower), SPACE.upper)
    return children, ref_children(Sphere(), children, source, f)


def ref_whole_array_offspring(algo, pop, rng, cfg):
    n = len(pop.f)
    if algo == "cea":
        pick = rng.integers(0, 4, size=n)
        d = ref_whole_array_draws(n, rng, cfg, crossover=True, alpha=10.0)
        rows, cols = engines.torus_shape(n)
        r, c = np.array([torus_neighbors(*divmod(idx, cols), rows, cols)[pick[idx]] for idx in range(n)]).T
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
        out = regular_ops(pop, fn, rng, cfg)
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


# Start states of the spare 32-bit half: numpy's buffer holds it, or no half is spare.
SPARE_STARTS = {
    "numpy-spare": lambda r: r.integers(0, 5, size=1),
    "no-spare": lambda r: (r.integers(0, 5), r.integers(0, 5)),
}


class SphereOf:
    def __init__(self, dim):
        self.space = SearchSpace.cube(dim, -1.0, 1.0)

    def evaluate_batch(self, X):
        return np.sum(X * X, axis=1)


@pytest.mark.parametrize("start", SPARE_STARTS)
@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize(
    "p_r, p_m_genome", [(0.0, 0.0), (1.0, 1.0), (0.9, 0.75), (0.0, 1.0), (1.0, 0.0), (0.3, 0.1), (0.1, 0.9)]
)
def test_sea_draws_match_a_plain_generator(start, dim, p_r, p_m_genome):
    # N is odd, and at dim 1 the blended position is a draw of nothing; every
    # child takes one branch of the loop at each (p_r, p_m_genome) but the mixed
    # ones, and at the low mixed rates a stretch carried past the coins of several
    # children in a row outlasts the words drawn after it and runs into every branch
    fn = SphereOf(dim)
    cfg = EngineConfig("sea", N=23, p_r=p_r, p_m_genome=p_m_genome)
    for seed in range(3):
        X = RngStream(100 + seed).uniform(-1.0, 1.0, size=(cfg.N, dim))
        pop = Population(X, np.floor(fn.evaluate_batch(X) * 2.0))
        rng, plain = RngStream(seed), np.random.Generator(np.random.PCG64(seed))
        SPARE_STARTS[start](rng)
        SPARE_STARTS[start](plain)
        out = engines._sea_offspring(pop, cfg, fn, rng, sea_variance(3))
        X_ref, f_ref = ref_sea_offspring(pop, plain, cfg, lambda: sea_variance(3), fn)
        assert out.X.tobytes() == X_ref.tobytes()  # bit for bit, the sign of zero too
        assert out.f.tobytes() == f_ref.tobytes()
        assert rng.integers(0, 1000) == plain.integers(0, 1000)
        assert rng.random() == plain.random()


@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("p_r, p_m_genome", [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)])
def test_sea_rewinds_the_stream_only_where_normals_must_start(dim, p_r, p_m_genome):
    # a child that crosses only, or does neither, hands the words it overdrew to the
    # next child; one that mutates without crossing rewinds so its normals start in its block
    fn = SphereOf(dim)
    cfg = EngineConfig("sea", N=23, p_r=p_r, p_m_genome=p_m_genome)
    for seed in range(3):
        X = RngStream(100 + seed).uniform(-1.0, 1.0, size=(cfg.N, dim))
        pop = Population(X, np.floor(fn.evaluate_batch(X) * 2.0))
        rng, plain = RngStream(seed), np.random.Generator(np.random.PCG64(seed))
        steps, advance = [], rng.advance
        rng.advance = lambda delta: (steps.append(delta), advance(delta))
        out = engines._sea_offspring(pop, cfg, fn, rng, sea_variance(3))
        X_ref, _ = ref_sea_offspring(pop, plain, cfg, lambda: sea_variance(3), fn)
        assert out.X.tobytes() == X_ref.tobytes()
        if p_m_genome:
            assert len(steps) == cfg.N  # every child mutates without crossing
        else:
            assert len(steps) <= 1  # once at the end, past the words left over
        assert rng.integers(0, 1000) == plain.integers(0, 1000)
        assert rng.random() == plain.random()


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 step: state * this + inc


def _plain(state):
    """A plain numpy `Generator` whose PCG64 starts at `state`."""
    bits = np.random.PCG64()
    bits.state = state
    return np.random.Generator(bits)


def test_sea_normals_keep_the_sign_of_zero_that_numpy_normal_gives():
    # numpy's ziggurat turns the word 0x100 into a standard normal of -0.0, and
    # normal(0.0, 1.0) into +0.0; a gene at -0.0 plus that noise shows which it was
    plain = np.random.Generator(np.random.PCG64(0))
    state = plain.bit_generator.state
    inc = state["state"]["inc"]
    # the step to state 0x100 outputs 0x100 (high half 0, so no rotation)
    state["state"]["state"] = (0x100 - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    plain.bit_generator.state = state
    assert np.signbit(_plain(state).standard_normal())
    # back past child 0's four tournament halves, two coins and one mask uniform
    plain.bit_generator.advance(2**128 - 5)
    rng = RngStream(0)
    rng._bits.state = plain.bit_generator.state
    fn, cfg = SphereOf(1), EngineConfig("sea", N=2, p_r=0.0, p_m_genome=1.0)
    pop = Population(np.array([[-0.0], [-0.0]]), np.zeros(2))
    out = engines._sea_offspring(pop, cfg, fn, rng, 1.0)
    X_ref, _ = ref_sea_offspring(pop, plain, cfg, lambda: 1.0, fn)
    assert not np.signbit(X_ref[0, 0])
    assert out.X.tobytes() == X_ref.tobytes()
    assert rng.random() == plain.random()


def _state_drawing(word, at, spare=None):
    """A PCG64 state whose word `at` (counting from 0) is `word`, with
    `spare` as the spare 32-bit half in numpy's buffer."""
    bits = np.random.PCG64(0)
    state = bits.state
    # the step to a state whose high 64 bits are 0 outputs its low 64 bits
    state["state"]["state"] = (word - state["state"]["inc"]) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bits.state = state
    bits.advance(2**128 - at)
    state = bits.state
    state["has_uint32"], state["uinteger"] = (0, 0) if spare is None else (1, spare)
    return state


def _sea_matches_a_plain_generator(n, dim, state, p_r=0.9, p_m_genome=0.75):
    """One `sea` generation from `state` against `ref_sea_offspring` on a
    plain Generator: children and fitness bit for bit, then the next scalar
    integer and the next double."""
    fn = SphereOf(dim)
    cfg = SimpleNamespace(N=n, p_r=p_r, p_m_genome=p_m_genome)  # EngineConfig refuses N=1
    X = RngStream(100).uniform(-1.0, 1.0, size=(n, dim))
    pop = Population(X, np.floor(fn.evaluate_batch(X) * 2.0))
    rng, plain = RngStream(0), _plain(state)
    rng.resume(state)
    out = engines._sea_offspring(pop, cfg, fn, rng, sea_variance(3))
    X_ref, f_ref = ref_sea_offspring(pop, plain, cfg, lambda: sea_variance(3), fn)
    assert out.X.tobytes() == X_ref.tobytes()
    assert out.f.tobytes() == f_ref.tobytes()
    assert rng.integers(0, 1000) == plain.integers(0, 1000)
    assert rng.random() == plain.random()


LOW_HALF_ZERO = 0x9E3779B900000000  # Lemire's leftover is 0, below numpy's threshold 2**32 % span


@pytest.mark.parametrize("spare", [None, 0x2545F491])
def test_sea_redraws_a_tournament_member_as_numpy_does(spare):
    # the first tournament word of child 0: its low half is the first member, or the second after a spare
    assert 2**32 % 400 > 0
    _sea_matches_a_plain_generator(400, 20, _state_drawing(LOW_HALF_ZERO, 0, spare))


def test_sea_redraws_a_crossover_position_as_numpy_does():
    # child 0 takes two tournament words, a coin and 20 weight words, then a new word for its position
    assert 2**32 % 20 > 0
    _sea_matches_a_plain_generator(400, 20, _state_drawing(LOW_HALF_ZERO, 2 + 1 + 20), p_r=1.0)


@pytest.mark.parametrize("start", SPARE_STARTS)
@pytest.mark.parametrize("n, dim", [(400, 20), (2, 1), (1, 3)])
def test_sea_draws_match_a_plain_generator_at_every_span(start, n, dim):
    # the benchmark's shape, and spans of 1: one gene draws no position, one member no tournament
    for seed in range(3):
        plain = np.random.Generator(np.random.PCG64(seed))
        SPARE_STARTS[start](plain)
        _sea_matches_a_plain_generator(n, dim, plain.bit_generator.state)


def ref_rows(draws, X, first, second, space, p_gene=1.0, variance=None):
    """Each child alone from the draws stored in a `Variation`, as
    `Variation.children` must make it: (children, source)."""
    out, source = X[first].copy(), np.empty(draws.n, int)
    for k in range(draws.n):
        if draws.crossed[k]:
            w = (draws.weight_draws[k] < 0.5).astype(float)
            w[draws.position[k]] = draws.blend[k]
            out[k] = w * X[first[k]] + (1.0 - w) * X[second[k]]
        fire = np.full(draws.dim, p_gene > 0) if draws.gene_draws is None else draws.gene_draws[k] < p_gene
        fired = draws.mutated[k] and fire.any()
        source[k] = ref_source(out[k], X, first[k], second[k], fired)
        if fired:
            genome = out[k].copy()
            genome[fire] += (draws.normals[k] * np.sqrt(draws.variance[k] if variance is None else variance))[fire]
            out[k] = np.minimum(np.maximum(genome, space.lower), space.upper)
    return out, source


def _edge_draws(dim, seed, p_r, p_m_genome=None, p_m=None):
    """(draws, X, first, second, space) of one generation: whole-genome
    mutation at rate p_m_genome, or per-gene mutation when p_m is given."""
    space = SearchSpace.cube(dim, -1.0, 1.0)
    rng = RngStream(seed)
    X = rng.uniform(-1.0, 1.0, size=(16, dim))
    draws = Variation(16, dim, rng)
    draws.all_tournaments()
    draws.all_crossovers(p_r)
    if p_m is None:
        draws.all_mutations(p_m_genome, lambda n: rng.random(n) * 8.0)
    else:
        draws.all_gene_mutations(p_m, np.full(dim, 4.0))
    first, second = draws.parents(np.floor(np.sum(X * X, axis=1) * 2.0))
    return draws, X, first, second, space


@pytest.mark.parametrize("dim", [1, 5])
# at (0.9, 0.75) and (0.5, 0.5) fewer than half the rows can be copies, and the copy check gathers them;
# at (1.0, 1.0) every row fires, so it gathers none
@pytest.mark.parametrize(
    "p_r, p_m_genome", [(0.0, 0.5), (0.9, 0.0), (0.0, 0.0), (1.0, 1.0), (0.9, 0.75), (0.5, 0.5)]
)
def test_masked_children_match_rows_whole_genome(dim, p_r, p_m_genome):
    for seed in range(5):
        draws, X, first, second, space = _edge_draws(dim, seed, p_r, p_m_genome=p_m_genome)
        out, source = draws.children(X, first, second, space)
        want, want_source = ref_rows(draws, X, first, second, space)
        assert np.array_equal(out, want) and np.array_equal(source, want_source)
        if p_r == 0.0:
            assert not draws.crossed.any()  # no child crosses over
        if p_m_genome == 0.0:
            assert not draws.mutated.any()  # no child mutates
            both = changed_rows(out, X[first]) & changed_rows(out, X[second])
            assert np.array_equal(source < 0, draws.crossed & both)
        if p_r == 0.0 and p_m_genome == 0.0:
            assert np.array_equal(out, X[first]) and np.array_equal(source, first)


@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("p_m", [0.0, 0.3, 0.6, 1.0])
def test_masked_children_match_rows_per_gene(dim, p_m):
    # at p_m 0.6 and dim 5 most crossed rows fire; at p_r 0.3 fewer than half the rows can be copies
    for p_r, seed in itertools.product((0.9, 0.3), range(5)):
        draws, X, first, second, space = _edge_draws(dim, seed, p_r, p_m=p_m)
        out, source = draws.children(X, first, second, space)
        want, want_source = ref_rows(draws, X, first, second, space, p_m, np.full(dim, 4.0))
        assert np.array_equal(out, want) and np.array_equal(source, want_source)
        if p_m == 0.0:  # no gene fires: only the crossed children that copy neither parent are fresh
            both = changed_rows(out, X[first]) & changed_rows(out, X[second])
            assert np.array_equal(source < 0, draws.crossed & both)


def test_crossed_child_past_a_bound_stays_unclamped_unless_a_gene_fired():
    # both parents sit on the upper bound; this blend of them rounds one ulp above it
    space = SearchSpace.cube(3, -5.12, 5.12)
    X = np.full((2, 3), 5.12)
    draws = Variation(2, 3, RngStream(0))
    draws.crossed[:] = True
    draws.weight_draws = np.full((2, 3), 0.9)  # every weight 0 but the blended gene's
    draws.position, draws.blend = np.zeros(2, int), np.full(2, 0.8902743520047923)
    draws.mutated[1] = True  # no mask: child 1 fires every gene, with zero noise
    draws.normals, draws.variance = np.zeros((2, 3)), np.zeros((2, 1))
    out, source = draws.children(X, np.zeros(2, int), np.ones(2, int), space)
    assert out[0, 0] > 5.12 and out[1, 0] == 5.12
    assert source.tolist() == [-1, -1]
    want, _ = ref_rows(draws, X, np.zeros(2, int), np.ones(2, int), space)
    assert np.array_equal(out, want)


class CountingSphere(Sphere):
    def __init__(self):
        self.seen = []

    def evaluate_batch(self, X):
        self.seen.append(X.copy())
        return super().evaluate_batch(X)


def _crossing(n, dim, position, blend, weight=0.9):
    """Draws that cross all n children, blending gene `position` by `blend`:
    weight 0.9 takes every other gene from the second parent, 0.1 from the first."""
    draws = Variation(n, dim, RngStream(0))
    draws.crossed[:] = True
    draws.weight_draws = np.full((n, dim), weight)
    draws.position, draws.blend = np.full(n, position), np.full(n, blend)
    return draws


def test_crossed_copy_of_its_first_parent_keeps_its_fitness_without_a_call():
    # child 0 crosses two all-zero rows, which returns the zeros bit for bit; child 1
    # blends gene 0 of the zeros and of a row at 0.5, which gives 0.3125, neither parent's
    space = SearchSpace.cube(3, -1.0, 1.0)
    X = np.zeros((3, 3))
    X[2, 0] = 0.5
    draws = _crossing(2, 3, position=0, blend=0.375)
    first, second = np.zeros(2, int), np.array([1, 2])
    out, source = draws.children(X, first, second, space)
    assert out[0].tobytes() == X[0].tobytes() and out[1].tolist() == [0.3125, 0.0, 0.0]
    assert source.tolist() == [0, -1]
    fn, f = CountingSphere(), np.array([7.0, 8.0, 9.0])  # not f(X): which value is kept shows
    fitness = evaluate_children(fn, out, source, f)
    assert fitness.tolist() == [7.0, 0.3125**2]
    assert len(fn.seen) == 1 and fn.seen[0].tobytes() == out[1:].tobytes()


def test_crossed_copy_of_its_second_parent_keeps_its_fitness_without_a_call():
    # child 1 takes every gene from its second parent, one ulp above zero in gene 0,
    # and blends gene 1, where both parents are 0; child 0 copies its first parent
    space = SearchSpace.cube(3, -1.0, 1.0)
    X = np.zeros((3, 3))
    X[2, 0] = np.nextafter(0.0, 1.0)
    draws = _crossing(2, 3, position=1, blend=0.375)
    first, second = np.zeros(2, int), np.array([1, 2])
    out, source = draws.children(X, first, second, space)
    assert out[0].tobytes() == X[0].tobytes() and out[1].tobytes() == X[2].tobytes()
    assert source.tolist() == [0, 2]
    fn, f = CountingSphere(), np.array([7.0, 8.0, 9.0])  # not f(X): which value is kept shows
    assert evaluate_children(fn, out, source, f).tolist() == [7.0, 9.0]
    assert not fn.seen


def test_crossed_child_one_ulp_from_both_parents_is_evaluated():
    # gene 0 blends 1 and 1 + 2 ulp half and half, which is 1 + 1 ulp exactly
    space = SearchSpace.cube(2, -2.0, 2.0)
    X = np.array([[1.0, 0.5], [1.0 + 2 * np.finfo(float).eps, 0.5]])
    out, source = _crossing(1, 2, position=0, blend=0.5).children(X, np.array([0]), np.array([1]), space)
    assert out[0].tolist() == [1.0 + np.finfo(float).eps, 0.5]
    assert source.tolist() == [-1]
    fn = CountingSphere()
    assert evaluate_children(fn, out, source, np.array([7.0, 8.0])).tolist() == [np.sum(out[0] ** 2)]
    assert len(fn.seen) == 1 and fn.seen[0].tobytes() == out.tobytes()


def test_a_gene_at_minus_zero_against_plus_zero_counts_as_changed():
    # gene 0 takes the first parent's -0.0 as 1 * -0.0 + 0 * +0.0, which is +0.0; gene 1 is the
    # first parent's. The child equals the first parent as numbers, not as bits, and differs
    # from the second in gene 1
    space = SearchSpace.cube(2, -2.0, 2.0)
    X = np.array([[-0.0, 1.0], [0.0, 2.0]])
    out, source = _crossing(1, 2, position=1, blend=1.0, weight=0.1).children(
        X, np.array([0]), np.array([1]), space
    )
    assert out[0].tolist() == X[0].tolist() and not np.signbit(out[0, 0])
    assert source.tolist() == [-1]
    fn = CountingSphere()
    assert evaluate_children(fn, out, source, np.array([7.0, 8.0])).tolist() == [1.0]
    assert len(fn.seen) == 1


class CountingSphereOf(SphereOf):
    def __init__(self, dim):
        super().__init__(dim)
        self.seen = 0

    def evaluate_batch(self, X):
        self.seen += len(X)
        return super().evaluate_batch(X)


def test_cea_child_that_copies_its_neighbour_keeps_the_neighbours_fitness():
    # every row is (0, v) with its own v: a child blending gene 0 takes gene 1 whole from
    # one parent, so it copies its cell or its neighbour bit for bit
    n = 36
    X = np.column_stack((np.zeros(n), np.arange(1, n + 1) / 64.0))
    f = 100.0 + np.arange(n)  # not f(X): which value is kept shows
    fn, cfg = CountingSphereOf(2), EngineConfig("cea", N=n, p_r=1.0, p_m_genome=0.0)
    out = engines._cea_offspring(Population(X, f), cfg, fn, RngStream(0), engines._cea_neighbors(n))
    rows = {row.tobytes(): r for r, row in enumerate(X)}
    copied = [rows.get(child.tobytes()) for child in out.X]
    neighbours = [k for k, r in enumerate(copied) if r is not None and r != k]
    assert neighbours  # some child copies its neighbour
    assert fn.seen == copied.count(None)  # the fresh children only
    for k, r in enumerate(copied):
        assert out.f[k] == (SphereOf(2).evaluate_batch(out.X[k:k + 1])[0] if r is None else f[r])


def test_regular_ops_on_copies_of_one_member_call_no_objective():
    # every child crosses two copies of one all-zero member and no gene fires
    pop = Population(np.zeros((24, DIM)), np.full(24, 3.0))
    fn = CountingSphere()
    out = regular_ops(pop, fn, RngStream(0), _config("cnea", 1.0, 0.0))
    assert not fn.seen
    assert np.array_equal(out.X, pop.X) and out.f.tolist() == pop.f.tolist()


# the old child-by-child loops, as the engines call their offspring functions
BEFORE = {
    "cnea": ("regular_ops", lambda *args: Population(*ref_regular_ops(*args))),
    "socea": ("_socea_offspring", lambda pop, cfg, fn, rng: Population(*ref_sea_offspring(
        pop, rng, cfg, lambda: pow_sample(10.0, rng, size=1)[0], fn))),
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
