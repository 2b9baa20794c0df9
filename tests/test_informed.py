import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import (
    EngineConfig,
    Population,
    RngStream,
    SearchSpace,
    build_grid,
    detect_victims,
    high_density_regions,
    informed_mutation,
    regular_ops,
    sample_virgin,
    select_replacement,
)
from counterniche.niching import Regions, bin_indices
from counterniche import informed


def _pop(rows, fitness):
    return Population(rows, fitness)


def _regions(pop):
    """Grid (4 bins on the unit cube) and dense regions of a population."""
    grid = build_grid(pop, SearchSpace.cube(pop.X.shape[1], 0.0, 1.0), bins=4)
    return grid, high_density_regions(grid, pop, 0.05)


def _members(grid, regions, row):
    """Member indices of one region, ascending."""
    cell = np.searchsorted(grid.cells, regions.code[row])
    return grid.members[grid.start[cell] : grid.start[cell] + grid.counts[cell]].tolist()


def _occupied(space, bins, members):
    """Cell keys of the members, as a set of tuples."""
    return {tuple(k) for k in bin_indices(members, space, bins).tolist()}


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig("cnea", rho_replace=0.0)
    with pytest.raises(ValueError):
        EngineConfig("cnea", rho_replace=1.0)
    with pytest.raises(ValueError):
        EngineConfig("cnea", sample_budget=0)
    with pytest.raises(ValueError):
        EngineConfig("cnea", eps_fit=-0.1)
    with pytest.raises(ValueError):
        EngineConfig("cnea", p_r=1.5)


def test_detect_victims_spread_threshold():
    cfg = EngineConfig("cnea")
    pop = _pop([[0.1]] * 4 + [[0.9]] * 4, [5.0, 5.0, 5.0, 5.0, 1.0, 2.0, 3.0, 4.0])
    grid, regions = _regions(pop)
    tight = _members(grid, regions, 1)
    assert (tight, _members(grid, regions, 0)) == ([0, 1, 2, 3], [4, 5, 6, 7])
    victims = detect_victims(regions, pop, cfg)
    # std 0 <= 0.01 * 6 flags the tight region; std ~1.12 > 0.01 * 3.5 spares the loose one
    assert len(victims) == 1
    assert victims.row.tolist() == [1]


def test_detect_victims_skips_a_region_at_inf():
    cfg = EngineConfig("cnea")
    pop = _pop([[0.1]] * 4, [np.inf] * 2 + [1.0] * 2)
    grid, regions = _regions(pop)
    # mean +inf, spread NaN: not "negligible", so not redundant
    assert regions.mean[0] == np.inf and np.isnan(regions.std[0])
    assert len(detect_victims(regions, pop, cfg)) == 0


def test_detect_victims_replacement_count_and_ties():
    cfg = EngineConfig("cnea", rho_replace=0.5)
    # five equal-fitness members: floor(0.5 * 5) = 2, ties resolved to lower index
    pop = _pop([[0.1]] * 5, [2.0] * 5)
    grid, regions = _regions(pop)
    victims = detect_victims(regions, pop, cfg)
    assert victims.replace[0] == [0, 1]


def test_detect_victims_worst_members_replaced():
    cfg = EngineConfig("cnea")
    pop = _pop([[0.1]] * 4, [1.0, 1.004, 1.002, 1.003])
    grid, regions = _regions(pop)
    victims = detect_victims(regions, pop, cfg)
    # floor(0.5 * 4) = 2 worst by fitness: indices 1 (1.004) then 3 (1.003)
    assert victims.replace[0] == [1, 3]


def test_detect_victims_skips_floor_zero():
    cfg = EngineConfig("cnea", rho_replace=0.4)
    pop = _pop([[0.1]] * 2, [1.0, 1.0])
    grid, regions = _regions(pop)
    # floor(0.4 * 2) = 0: nothing to replace, the region is skipped
    assert len(detect_victims(regions, pop, cfg)) == 0


def _victims_by_whole_table(regions, population, cfg):
    """`detect_victims` on whole columns, as it ran before it read the table
    row by row: a victim's cell found by a binary search of its code."""
    with np.errstate(invalid="ignore"):  # eps_fit 0 times a mean at +inf
        flat = regions.std <= cfg.eps_fit * (1.0 + np.abs(regions.mean))
    slots = np.floor(cfg.rho_replace * regions.density).astype(int)
    rows = np.flatnonzero(flat & (slots > 0))
    grid, replace = regions.grid, []
    first = grid.start[np.searchsorted(grid.cells, regions.code[rows])]
    for a, n, k in zip(first.tolist(), regions.density[rows].tolist(), slots[rows].tolist()):
        cell = grid.members[a : a + n]
        replace.append(cell[np.argsort(-population.f[cell], kind="stable")[:k]].tolist())
    return informed.Victims(rows, regions.mean[rows], regions.centroid[rows], replace)


# every k / d whose product with the density d (2 to 7) is exactly k, and the float one ulp below each
_EXACT_RHOS = sorted({k / d for d in range(2, 8) for k in range(1, d) if k / d * d == k})
_RHOS = _EXACT_RHOS + [float(np.nextafter(rho, 0.0)) for rho in _EXACT_RHOS] + [0.1, 0.95]
_MEANS = [0.0, -0.0, 1.0, -2.5, 1e300, np.inf, -np.inf, np.nan]
_STDS = [0.0, 1e-300, 0.01, 1.0, np.inf, np.nan]


def _edge_table(grid, rng, eps_fit):
    """A regions table over every occupied cell of `grid`, densities 1 and
    up, in a random order. Means and stds are edge values (a NaN std, a mean
    at +-inf); some stds sit exactly on the victim threshold, and some one
    ulp above it."""
    r = len(grid.cells)
    order = rng.permutation(r)
    mean, std = rng.choice(_MEANS, r), rng.choice(_STDS, r)
    with np.errstate(invalid="ignore"):
        bound = eps_fit * (1.0 + np.abs(mean))
    on, past = rng.random(r) < 0.3, rng.random(r) < 0.15
    std[on] = bound[on]
    std[past] = np.nextafter(bound[past], np.inf)
    centroid = rng.normal(size=(r, grid.space.dim))
    return Regions(grid, grid.cells[order], grid.counts[order], grid.start[order], mean, std, centroid)


@pytest.mark.parametrize("eps_fit", [0.0, 1e-3, 1.0])
@pytest.mark.parametrize("rho", _RHOS)
def test_detect_victims_equal_the_whole_table_formula(rho, eps_fit):
    """Reading the table as Python scalars flags the victims, and slates the
    members, that numpy's whole-column formula does."""
    space = SearchSpace.cube(2, 0.0, 1.0)
    cfg = EngineConfig("cnea", eps_fit=eps_fit, rho_replace=rho)
    centres = (np.stack(np.meshgrid(np.arange(3), np.arange(3)), axis=-1).reshape(-1, 2) + 0.5) / 3
    flagged = skipped = 0
    for seed in range(8):
        rng = RngStream(seed)
        # every density from 1 to 7, and 10, in the 9 cells of a 3-bin grid, each member jittered inside its cell
        sizes = rng.permutation([1, 2, 3, 4, 5, 6, 7, 2, 10])
        X = np.repeat(centres, sizes, axis=0) + rng.uniform(-0.1, 0.1, size=(int(sizes.sum()), 2))
        pop = _pop(X, rng.choice([1.0, 2.0, 2.0, 3.0, np.inf], len(X)))  # fitness ties
        grid = build_grid(pop, space, bins=3)
        assert sorted(grid.counts.tolist()) == sorted(sizes.tolist())
        regions = _edge_table(grid, rng, eps_fit)
        got, want = detect_victims(regions, pop, cfg), _victims_by_whole_table(regions, pop, cfg)
        assert got.row.dtype == want.row.dtype
        assert got.row.tolist() == want.row.tolist()
        assert got.mean.shape == want.mean.shape and got.mean.tobytes() == want.mean.tobytes()
        assert got.centroid.shape == want.centroid.shape and got.centroid.tobytes() == want.centroid.tobytes()
        assert got.replace == want.replace
        flagged, skipped = flagged + len(got), skipped + len(regions) - len(got)
    assert flagged and skipped


class _Quadratic:
    """Tiny stand-in objective for operator tests."""

    def __init__(self, space):
        self.space = space

    def evaluate(self, x):
        g = np.asarray(x, dtype=float)
        return float(np.sum(g * g))


def test_sample_virgin_avoids_occupied_cells():
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    pop = _pop([[0.1, 0.1], [0.9, 0.9]], [0.0, 0.0])
    grid = build_grid(pop, space, bins=4)
    rng = RngStream(0)
    samples = sample_virgin(grid, fn, rng, budget=10)
    assert 0 < len(samples.fitness) <= 10
    assert samples.pool.tolist() == [0] * len(samples.fitness)
    occupied = _occupied(space, 4, pop.X)
    for genome, fitness in zip(samples.genomes, samples.fitness):
        assert tuple(bin_indices(genome, space, 4).tolist()) not in occupied
        assert fitness == fn.evaluate(genome)


def _virgin_reference(space, occupied, fn, rng, budget):
    """One pool row by row: the first `budget` rows of 10 * budget draws
    whose 4-bin cell key is not in `occupied`."""
    raw = rng.uniform(space.lower, space.upper, size=(10 * budget, space.dim))
    rows = [row for row in raw if tuple(bin_indices(row, space, 4).tolist()) not in occupied][:budget]
    return rows, [fn.evaluate(row) for row in rows]


def test_sample_virgin_pools_match_one_draw_per_pool():
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    # 14 of 16 cells occupied: a pool of 40 draws holds about 5 virgin rows,
    # so some pools fill the budget of 4 and others run short
    centres = [[(i + 0.5) / 4, (j + 0.5) / 4] for i in range(4) for j in range(4)][2:]
    grid = build_grid(_pop(centres, [0.0] * 14), space, bins=4)
    rng_once, rng_each = RngStream(3), RngStream(3)
    together = sample_virgin(grid, fn, rng_once, budget=4, pools=12)
    sizes = np.bincount(together.pool, minlength=12)
    assert sizes.max() == 4 and sizes.min() < 4
    for pool in range(12):
        rows, fitness = _virgin_reference(space, _occupied(space, 4, centres), fn, rng_each, budget=4)
        assert np.array_equal(together.genomes[together.pool == pool], np.reshape(rows, (-1, 2)))
        assert together.fitness[together.pool == pool].tolist() == fitness
    # both streams are left at the same place
    assert rng_once.random() == rng_each.random()


def _virgin_full_mask(space, grid, fn, rng, budget, pools):
    """sample_virgin looking up every raw row of every pool."""
    draws = 10 * budget
    raw = rng.uniform(space.lower, space.upper, size=(pools * draws, space.dim))
    free = grid.unoccupied(raw)
    rank = np.cumsum(free.reshape(pools, draws), axis=1).ravel()
    keep = np.flatnonzero(free & (rank <= budget))
    genomes = raw[keep]
    return genomes, np.array([fn.evaluate(g) for g in genomes]), keep // draws


def _heads_by_uniform_and_skip(rng, low, high, pools, budget, dim):
    """The pool heads as sample_virgin drew them before `uniform_heads`: per
    pool, `uniform` for its first `budget` rows, then `random` past the
    words of the other 9 * budget rows."""
    head = np.empty((pools, budget, dim))
    for p in range(pools):
        head[p] = rng.uniform(low, high, size=(budget, dim))
        rng.random(9 * budget * dim)
    return head


# every benchmark function's default box, a box of unequal ends, and bound vectors
HEAD_BOXES = [(-30.0, 30.0), (-600.0, 600.0), (-5.12, 5.12), (-100.0, 100.0), (-64.0, 64.0), (-3.0, 64.0)]
_box = st.sampled_from(HEAD_BOXES) | st.tuples(
    st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(lambda lw: (lw[0], lw[0] + lw[1]))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    budget=st.integers(1, 30),
    pools=st.integers(1, 60),
    dim=st.integers(1, 6),
    box=_box,
    vector=st.booleans(),
    spare=st.sampled_from(["none", "numpy"]),
)
def test_uniform_heads_equal_the_uniform_and_skip_loop(seed, budget, pools, dim, box, vector, spare):
    """`RngStream.uniform_heads` converts raw words with numpy's uniform
    formula; a numpy whose `uniform` rounds otherwise (a fused multiply-add,
    say) fails here. The heads and the next draws must be equal."""
    low, high = box
    if vector:
        low, high = np.linspace(low, low + 1.0, dim), np.linspace(high, high + 2.0, dim)
    ours, theirs = RngStream(seed), RngStream(seed)
    for r in (ours, theirs):
        if spare == "numpy":
            r.integers(0, 5, size=1)  # numpy's buffer holds a spare 32-bit half
    got = ours.uniform_heads(low, high, pools, budget, 10 * budget, dim, ours.spare(ours.position()))
    want = _heads_by_uniform_and_skip(theirs, low, high, pools, budget, dim)
    assert np.array_equal(got, want)
    assert ours.integers(0, 1000) == theirs.integers(0, 1000)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("dim, key_dims", [(2, None), (3, None), (5, (1, 3)), (6, (0, 2, 5))])
@pytest.mark.parametrize("bins", [2, 3, 4])
def test_sample_virgin_short_pools_match_full_mask(dim, key_dims, bins):
    space = SearchSpace.cube(dim, -1.0, 1.0)
    fn = _Quadratic(space)
    looked_up_whole_pool = kept_head_only = 0
    for seed in range(6):
        rng = RngStream(seed)
        # crowded grids: from a few members to enough to fill nearly every cell
        members = rng.uniform(space.lower, space.upper, size=(1 + 7 * seed * bins, dim))
        grid = build_grid(_pop(members, np.zeros(len(members))), space, bins, key_dims=key_dims)
        # the last case starts with a spare 32-bit half pending in numpy's buffer
        for budget, pools, spare in [(1, 1, False), (2, 30, False), (3, 7, False), (5, 12, False), (4, 9, True)]:
            rng_short, rng_full, rng_raw = RngStream(50 + seed), RngStream(50 + seed), RngStream(50 + seed)
            if spare:
                for r in (rng_short, rng_full, rng_raw):
                    r.integers(0, 5, size=1)
            samples = sample_virgin(grid, fn, rng_short, budget, pools)
            genomes, fitness, pool = _virgin_full_mask(space, grid, fn, rng_full, budget, pools)
            assert np.array_equal(samples.genomes, genomes)
            assert np.array_equal(samples.fitness, fitness)
            assert np.array_equal(samples.pool, pool)
            assert rng_short.integers(0, 1000) == rng_full.integers(0, 1000)
            assert rng_short.random() == rng_full.random()
            # which path each pool took: a head row occupied means the whole pool is looked up
            raw = rng_raw.uniform(space.lower, space.upper, size=(pools, 10 * budget, dim))
            head_free = grid.unoccupied(raw[:, :budget].reshape(-1, dim)).reshape(pools, budget).all(axis=1)
            kept_head_only += int(head_free.sum())
            looked_up_whole_pool += int((~head_free).sum())
    assert kept_head_only > 0 and looked_up_whole_pool > 0


def test_sample_virgin_scalar_bounds_match_vector_bounds(monkeypatch):
    space = SearchSpace.cube(3, -2.0, 3.0)
    fn = _Quadratic(space)
    members = RngStream(1).uniform(space.lower, space.upper, size=(40, 3))
    grid = build_grid(_pop(members, np.zeros(40)), space, bins=3)
    assert space.draw_bounds() == (-2.0, 3.0)
    scalar_rng, vector_rng = RngStream(8), RngStream(8)
    scalar = sample_virgin(grid, fn, scalar_rng, budget=4, pools=9)
    monkeypatch.setattr(SearchSpace, "draw_bounds", lambda self: (self.lower, self.upper))
    vector = sample_virgin(grid, fn, vector_rng, budget=4, pools=9)
    assert len(scalar.fitness) > 0
    assert np.array_equal(scalar.genomes, vector.genomes)
    assert np.array_equal(scalar.fitness, vector.fitness)
    assert np.array_equal(scalar.pool, vector.pool)
    assert scalar_rng.random() == vector_rng.random()


def test_sample_virgin_draws_inside_per_coordinate_bounds():
    lower, upper = np.array([-1.0, 0.0, 10.0]), np.array([1.0, 0.5, 20.0])
    space = SearchSpace(3, lower, upper)
    low, high = space.draw_bounds()
    assert np.array_equal(low, lower) and np.array_equal(high, upper)
    grid = build_grid(_pop([[0.0, 0.25, 15.0]], [0.0]), space, bins=4)
    samples = sample_virgin(grid, _Quadratic(space), RngStream(2), budget=50, pools=4)
    assert len(samples.fitness) == 200
    assert np.all(samples.genomes >= lower) and np.all(samples.genomes <= upper)
    # each coordinate spans most of its own interval
    assert np.all(samples.genomes.max(axis=0) - samples.genomes.min(axis=0) > 0.9 * (upper - lower))


def test_sample_virgin_budget_and_saturation():
    space = SearchSpace.cube(1, 0.0, 1.0)
    fn = _Quadratic(space)
    # every cell occupied: nothing virgin to find
    pop = _pop([[0.1], [0.3], [0.6], [0.9]], [0.0] * 4)
    grid = build_grid(pop, space, bins=4)
    assert len(sample_virgin(grid, fn, RngStream(0), budget=5).fitness) == 0
    assert len(sample_virgin(grid, fn, RngStream(0), budget=0).fitness) == 0
    assert len(sample_virgin(grid, fn, RngStream(0), budget=5, pools=3).fitness) == 0


def _candidates(*pairs):
    """Candidate rows and fitness from (genome, fitness) pairs."""
    return np.array([g for g, _ in pairs], dtype=float), np.array([f for _, f in pairs])


def test_select_replacement_requires_strict_improvement():
    mean = 1.0  # the victim region's fitness mean
    archive = np.array([[0.5, 0.5]])
    equal = ([0.1, 0.1], 1.0)   # not strictly better
    worse = ([0.2, 0.2], 2.0)
    assert select_replacement(*_candidates(equal, worse), mean, archive) is None
    better = ([0.3, 0.3], 0.5)
    assert select_replacement(*_candidates(equal, better, worse), mean, archive) == 1


def test_select_replacement_prefers_distance_then_fitness():
    mean = 10.0
    archive = np.array([[0.0, 0.0]])
    near_fit = ([0.1, 0.0], 1.0)
    far_unfit = ([0.9, 0.0], 9.0)
    # distance dominates even though the near candidate is fitter
    assert select_replacement(*_candidates(near_fit, far_unfit), mean, archive) == 1
    # equal distances fall back to fitness
    a = ([0.5, 0.0], 3.0)
    b = ([-0.5, 0.0], 2.0)
    assert select_replacement(*_candidates(a, b), mean, archive) == 1
    # full tie keeps the first seen
    c = ([0.5, 0.0], 3.0)
    assert select_replacement(*_candidates(a, c), mean, archive) == 0


def test_informed_mutation_planted_cluster():
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    rng = RngStream(11)
    planted = np.tile([0.9, 0.9], (20, 1))
    scatter = rng.uniform(0.3, 0.7, size=(80, 2))
    X = np.concatenate([planted, scatter])
    pop = Population(X, [fn.evaluate(g) for g in X])
    cfg = EngineConfig("cnea")
    grid = build_grid(pop, space, bins=4)
    regions = high_density_regions(grid, pop, 0.05)
    victims = detect_victims(regions, pop, cfg)
    assert len(victims) == 1
    assert _members(grid, regions, victims.row[0]) == list(range(20))
    assert len(victims.replace[0]) == 10

    out, fields = informed_mutation(pop, victims, grid, fn, rng, cfg)
    assert out.size == pop.size
    assert fields["victims"] == 1
    assert fields["replacements"] + fields["fallbacks"] == 10
    assert fields["replacements"] > 0
    region_mean = victims.mean[0]
    changed = [i for i in range(pop.size) if not np.array_equal(out.X[i], pop.X[i])]
    assert len(changed) == fields["replacements"]
    occupied = _occupied(space, 4, X)
    for i in changed:
        assert i in victims.replace[0]
        assert out.f[i] < region_mean
        assert out.f[i] == fn.evaluate(out.X[i])
        # replacements come from cells that were unoccupied before the pass
        assert tuple(bin_indices(out.X[i], space, 4).tolist()) not in occupied
    # untouched members keep their genome and fitness
    for i in range(pop.size):
        if i not in changed:
            assert out.f[i] == pop.f[i]
    # the input population is left as it was
    assert np.array_equal(pop.X, X)


def test_informed_mutation_skips_pools_without_a_sample_below_the_mean(monkeypatch):
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    rng = RngStream(11)
    # a cluster at fitness 0.82: about two in three virgin samples beat it
    planted = np.tile([0.9, 0.1], (20, 1))
    scatter = rng.uniform(0.3, 0.7, size=(80, 2))
    X = np.concatenate([planted, scatter])
    pop = Population(X, [fn.evaluate(g) for g in X])
    cfg = EngineConfig("cnea", sample_budget=1)
    grid = build_grid(pop, space, bins=4)
    victims = detect_victims(high_density_regions(grid, pop, 0.05), pop, cfg)
    calls = []
    real = informed.select_replacement
    monkeypatch.setattr(informed, "select_replacement", lambda *a: calls.append(a) or real(*a))

    out, fields = informed_mutation(pop, victims, grid, fn, RngStream(3), cfg)
    # one sample per pool: a pool is asked only when its sample beats the mean, and then replaces
    assert len(calls) == fields["replacements"] > 0
    assert fields["fallbacks"] == 10 - fields["replacements"] > 0
    for genomes, fitness, _, _ in calls:
        assert fitness.min() < victims.mean[0]


def test_informed_mutation_archive_grows_per_victim(monkeypatch):
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    pop = _pop([[0.1, 0.1]] * 3 + [[0.9, 0.9]] * 3, [1.0] * 3 + [2.0] * 3)
    cfg = EngineConfig("cnea")
    grid = build_grid(pop, space, bins=4)
    regions = high_density_regions(grid, pop, 0.05)
    victims = detect_victims(regions, pop, cfg)
    assert len(victims) == 2
    archives = []
    real = informed.select_replacement
    monkeypatch.setattr(informed, "select_replacement", lambda *a: archives.append(a[3]) or real(*a))
    informed_mutation(pop, victims, grid, fn, RngStream(0), cfg)
    # the first victim's slots see its own centroid, the second's see both
    assert {len(a) for a in archives} == {1, 2}
    assert np.array_equal(archives[-1], regions.centroid)


def test_informed_mutation_no_victims_is_identity():
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    pop = _pop([[0.2, 0.2], [0.8, 0.8]], [0.1, 0.9])
    grid = build_grid(pop, space, bins=4)
    victims = detect_victims(high_density_regions(grid, pop, 0.05), pop, EngineConfig("cnea"))
    assert len(victims) == 0
    out, fields = informed_mutation(pop, victims, grid, fn, RngStream(0), EngineConfig("cnea"))
    assert np.array_equal(out.X, pop.X) and np.array_equal(out.f, pop.f)
    assert (fields["victims"], fields["replacements"], fields["fallbacks"]) == (0, 0, 0)


def _per_victim_loop(population, victims, grid, fn, rng, cfg):
    """informed_mutation as one `sample_virgin` call per victim region, each
    judged against that victim's mean and archive: the reference the one call
    for every victim must equal."""
    X, f = population.X.copy(), population.f.copy()
    replaced = fallbacks = 0
    for i, slots in enumerate(victims.replace):
        mean, archive = victims.mean[i], victims.centroid[: i + 1]
        samples = sample_virgin(grid, fn, rng, cfg.sample_budget, len(slots))
        hopeful = np.unique(samples.pool[samples.fitness < mean])
        fallbacks += len(slots) - len(hopeful)
        bounds = np.searchsorted(samples.pool, np.arange(len(slots) + 1)).tolist()
        for pool in hopeful.tolist():
            lo, hi = bounds[pool], bounds[pool + 1]
            chosen = lo + select_replacement(samples.genomes[lo:hi], samples.fitness[lo:hi], mean, archive)
            X[slots[pool]] = samples.genomes[chosen]
            f[slots[pool]] = samples.fitness[chosen]
            replaced += 1
    return Population(X, f), dict(victims=len(victims), replacements=replaced, fallbacks=fallbacks)


def _crowded(victim_count, free, seed):
    """A 2-d population on 4 bins per side: `victim_count` flat clusters of
    falling density, then a singleton in every other cell but `free` of them,
    the last at +inf. The second victim's mean is below every sample, so none of
    its pools is hopeful; the first's is above every sample."""
    rng = np.random.default_rng(seed)
    cells = rng.permutation(16)
    centre = lambda c: [(c // 4 + 0.5) / 4, (c % 4 + 0.5) / 4]
    rows, fitness = [], []
    for c, size, mean in zip(cells[:victim_count], [8, 6, 5, 4], [3.0, -1.0, 0.8, 0.5]):
        rows += [centre(c)] * size
        fitness += [mean] * size
    for c in cells[victim_count:16 - free]:
        rows.append(np.add(centre(c), rng.uniform(-0.1, 0.1, 2)).tolist())
        fitness.append(float(rng.uniform(0.0, 2.0)))
    fitness[-1] = np.inf
    return Population(rows, fitness)


@pytest.mark.parametrize("victim_count", [2, 3, 4])
@pytest.mark.parametrize("free", [1, 6])  # one free cell leaves most pools short
@pytest.mark.parametrize("seed", range(4))
def test_one_sampling_call_equals_the_per_victim_loop(monkeypatch, victim_count, free, seed):
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    cfg = EngineConfig("cnea", sample_budget=4)
    pop = _crowded(victim_count, free, seed)
    grid = build_grid(pop, space, bins=4)
    victims = detect_victims(high_density_regions(grid, pop, 0.05), pop, cfg)
    assert len(victims) == victim_count and victims.mean[1] == -1.0
    calls = []
    real = informed.sample_virgin
    monkeypatch.setattr(informed, "sample_virgin", lambda *a: calls.append(real(*a)) or calls[-1])

    ours, theirs = RngStream(100 + seed), RngStream(100 + seed)
    out, fields = informed_mutation(pop, victims, grid, fn, ours, cfg)
    monkeypatch.setattr(informed, "sample_virgin", real)
    want, want_fields = _per_victim_loop(pop, victims, grid, fn, theirs, cfg)
    assert out.X.tobytes() == want.X.tobytes() and out.f.tobytes() == want.f.tobytes()
    assert fields == want_fields
    assert ours.integers(0, 1000) == theirs.integers(0, 1000)
    assert ours.random() == theirs.random()

    # one call for the generation, pools in victim order
    assert len(calls) == 1
    sizes = np.bincount(calls[0].pool, minlength=sum(map(len, victims.replace)))
    ends = np.cumsum([len(r) for r in victims.replace])
    if free == 1:
        assert sizes[ends[0]:].min() < cfg.sample_budget  # a later victim's pool runs short
    assert fields["replacements"] > 0 and fields["fallbacks"] >= len(victims.replace[1])


def _read_only(pop):
    """The population with its arrays write-protected, and their bytes."""
    pop.X.setflags(write=False)
    pop.f.setflags(write=False)
    return pop, pop.X.tobytes(), pop.f.tobytes()


def test_informed_mutation_without_a_replacement_returns_its_input():
    # a flat cluster at fitness -1, below every sample of the quadratic: every pool falls back
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    pop, X, f = _read_only(_pop([[0.1, 0.1]] * 4 + [[0.9, 0.9]], [-1.0] * 4 + [1.62]))
    cfg = EngineConfig("cnea", sample_budget=4)
    grid = build_grid(pop, space, bins=4)
    victims = detect_victims(high_density_regions(grid, pop, 0.05), pop, cfg)
    assert len(victims) == 1
    out, fields = informed_mutation(pop, victims, grid, fn, RngStream(0), cfg)
    assert out is pop and (fields["replacements"], fields["fallbacks"]) == (0, 2)
    assert pop.X.tobytes() == X and pop.f.tobytes() == f


def test_informed_mutation_leaves_its_input_unwritten_when_it_replaces():
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    pop, X, f = _read_only(_crowded(2, 6, 0))
    cfg = EngineConfig("cnea", sample_budget=4)
    grid = build_grid(pop, space, bins=4)
    victims = detect_victims(high_density_regions(grid, pop, 0.05), pop, cfg)
    out, fields = informed_mutation(pop, victims, grid, fn, RngStream(0), cfg)
    assert fields["replacements"] > 0 and out is not pop
    assert out.X.tobytes() != X and out.f.tobytes() != f
    assert pop.X.tobytes() == X and pop.f.tobytes() == f


def test_regular_ops_shape_and_bounds():
    space = SearchSpace.cube(3, -2.0, 2.0)
    fn = _Quadratic(space)
    rng = RngStream(4)
    genomes = rng.uniform(space.lower, space.upper, size=(30, 3))
    pop = Population(genomes, [fn.evaluate(g) for g in genomes])
    out = regular_ops(pop, fn, rng, EngineConfig("cnea"))
    assert out.size == 30
    for genome, fitness in zip(out.X, out.f):
        assert np.all((space.lower <= genome) & (genome <= space.upper))
        assert fitness == pytest.approx(fn.evaluate(genome))


def test_regular_ops_untouched_children_keep_parent_fitness():
    space = SearchSpace.cube(2, 0.0, 1.0)
    fn = _Quadratic(space)
    # fitness values that are not the objective's: only a copied parent keeps one
    pop = _pop([[0.5, 0.5]] * 5 + [[0.25, 0.75]] * 5, [0.5] * 5 + [0.7] * 5)
    # p_r=0 and p_m=0: every child is its first parent, fitness reused as-is
    cfg = EngineConfig("cnea", p_r=0.0, p_m=0.0)
    calls = []
    fn.evaluate = lambda x: calls.append(x)
    out = regular_ops(pop, fn, RngStream(0), cfg)
    assert calls == []
    for genome, fitness in zip(out.X, out.f):
        assert fitness == (0.5 if genome[0] == 0.5 else 0.7)
