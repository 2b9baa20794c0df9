import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterniche import (
    Population,
    RngStream,
    SearchSpace,
    arithmetic_crossover,
    binary_tournament,
    gaussian_mutate,
    pow_sample,
)
from counterniche.operators import Variation, sea_variance


def _pop(fitness):
    return Population(np.arange(len(fitness), dtype=float)[:, None], fitness)


def _cross(a, b, rng):
    """The child of rows a and b from one child's crossover draws."""
    draws = Variation(1, len(a), rng)
    draws.all_crossovers(1.0)
    return arithmetic_crossover([a], [b], draws.weight_draws, draws.position, draws.blend, draws.crossed)[0]


def _mutate(genome, variance, p_gene, space, rng):
    """One genome through one child's mutation draws: (child, fired)."""
    draws = Variation(1, space.dim, rng)
    draws.all_mutations(1.0, lambda n: np.ones(n))  # no mask is drawn: every gene fires at any p_gene above 0
    out, fired = gaussian_mutate([genome], draws.gene_draws, draws.normals, variance, p_gene, space, draws.mutated)
    return out[0], bool(fired[0])


def test_binary_tournament_picks_the_fitter():
    pop = _pop([5.0, 1.0, 3.0, 3.0])
    # shadow stream reveals which pairs the tournaments drew: each child's (i, j) of two bouts, (n, 4)
    shadow = RngStream(0)
    rng = RngStream(0)
    for _ in range(50):
        draws = Variation(pop.size, 1, rng)
        draws.all_tournaments()
        bouts = shadow.integers(0, pop.size, size=(pop.size, 4))
        for winners, members in zip(zip(*draws.parents(pop.f)), bouts):
            for w, (i, j) in zip(winners, members.reshape(2, 2)):
                if pop.f[j] < pop.f[i]:
                    assert w == j
                else:
                    assert w == i  # ties go to the first draw
    assert binary_tournament(pop.f, np.array([2, 0]), np.array([3, 1])).tolist() == [2, 1]


def test_crossover_mixes_parents_componentwise():
    rng = RngStream(1)
    a = np.array([0.0, 0.0, 0.0, 0.0])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    child = _cross(a, b, rng)
    # all genes lie in the [a, b] interval; at most one strictly between
    assert np.all(child >= 0.0) and np.all(child <= 1.0)
    interior = np.sum((child > 0.0) & (child < 1.0))
    assert interior <= 1


def test_crossover_accepts_population_rows():
    rng = RngStream(2)
    pop = Population([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
    child = _cross(pop.X[0], pop.X[1], rng)
    assert child.shape == (2,)


def test_crossover_rejects_length_mismatch():
    with pytest.raises(ValueError):
        arithmetic_crossover(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 2)), [0], [0.5], [True])


def test_crossover_identical_parents_yield_same_point():
    rng = RngStream(5)
    a = np.array([0.3, -0.7, 2.0])
    child = _cross(a, a.copy(), rng)
    assert np.allclose(child, a)


@settings(max_examples=150)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_crossover_stays_in_parent_box(dim, seed):
    rng = RngStream(seed)
    a = rng.uniform(-5, 5, size=dim)
    b = rng.uniform(-5, 5, size=dim)
    child = _cross(a, b, rng)
    lo = np.minimum(a, b) - 1e-12
    hi = np.maximum(a, b) + 1e-12
    assert np.all(child >= lo) and np.all(child <= hi)


def test_crossover_draws_weights_position_then_blend():
    # the weights, then the blended position, then its weight
    shadow = RngStream(3)
    draws = Variation(1, 5, RngStream(3))
    draws.child_by_child(1.0, 0.0, 1.0)
    assert draws.crossed[0] and shadow.random() < 1.0
    assert np.array_equal(draws.weight_draws[0], shadow.random(5))
    assert draws.position[0] == shadow.integers(0, 5)
    assert draws.blend[0] == shadow.random()


def test_whole_array_draws_come_in_their_documented_order():
    # tournaments (n, 4); crossover coins, weights, positions, blends; mutation
    # coins, the variances `all_mutations` asks for, normals
    n, dim = 6, 3
    shadow = RngStream(4)
    draws = Variation(n, dim, RngStream(4))
    asked = []
    draws.all_tournaments()
    draws.all_crossovers(0.5)
    draws.all_mutations(0.25, lambda size: asked.append(size) or draws.rng.random(size) + 1.0)
    assert np.array_equal(draws.bouts, shadow.integers(0, n, size=(n, 4)))
    assert np.array_equal(draws.crossed, shadow.random(n) < 0.5)
    assert np.array_equal(draws.weight_draws, shadow.random((n, dim)))
    assert np.array_equal(draws.position, shadow.integers(0, dim, size=n))
    assert np.array_equal(draws.blend, shadow.random(n))
    assert np.array_equal(draws.mutated, shadow.random(n) < 0.25)
    assert asked == [n] and np.array_equal(draws.variance[:, 0], shadow.random(n) + 1.0)
    assert np.array_equal(draws.normals, shadow.normal(0.0, 1.0, (n, dim)))
    assert draws.rng.random() == shadow.random()
    assert draws.gene_draws is None  # no mask draws: every gene of a mutated child fires


def test_gene_mutation_draws_come_masks_then_normals():
    # every child mutates: its mask uniforms (n, dim), then its standard normals (n, dim)
    n, dim = 6, 3
    shadow = RngStream(5)
    draws = Variation(n, dim, RngStream(5))
    draws.all_gene_mutations(0.5, 1.0)
    assert draws.mutated.all() and (draws.p_gene, draws.variance) == (0.5, 1.0)  # kept for `children`
    assert np.array_equal(draws.gene_draws, shadow.random((n, dim)))
    assert np.array_equal(draws.normals, shadow.normal(0.0, 1.0, (n, dim)))
    assert draws.rng.random() == shadow.random()


def test_gaussian_mutate_clamps_to_space():
    space = SearchSpace.cube(4, -1.0, 1.0)
    rng = RngStream(7)
    g = np.zeros(4)
    for _ in range(50):
        out, fired = _mutate(g, 100.0, 1.0, space, rng)
        assert fired
        assert np.all((space.lower <= out) & (out <= space.upper))


def test_gaussian_mutate_identity_when_no_gene_fires():
    space = SearchSpace.cube(3, -1.0, 1.0)
    rng = RngStream(0)
    g = np.array([0.1, 0.2, 0.3])
    out, fired = _mutate(g, 1.0, 0.0, space, rng)
    assert not fired
    assert np.array_equal(out, g)


def test_gaussian_mutate_consumes_fixed_rng_amount():
    # stream position after mutation must not depend on which genes fired
    space = SearchSpace.cube(3, -1.0, 1.0)
    r1 = RngStream(9)
    r2 = RngStream(9)
    _mutate(np.zeros(3), 1.0, 0.0, space, r1)   # no genes fire
    _mutate(np.zeros(3), 1.0, 1.0, space, r2)   # all genes fire
    assert r1.random() == r2.random()


def test_gaussian_mutate_per_gene_variance_vector():
    space = SearchSpace.cube(2, -1e9, 1e9)
    rng = RngStream(1)
    outs = np.array([_mutate(np.zeros(2), np.array([1.0, 1e6]), 1.0, space, rng)[0] for _ in range(300)])
    assert outs[:, 1].std() > 100.0 * outs[:, 0].std()


def test_gaussian_mutate_clamps_only_rows_that_fired():
    # an out-of-box row is left as it is unless one of its genes fired
    space = SearchSpace.cube(2, -1.0, 1.0)
    rows = np.array([[5.0, 5.0], [5.0, 5.0]])
    out, fired = gaussian_mutate(rows, [[0.9, 0.9], [0.0, 0.9]], np.zeros((2, 2)), 1.0, 0.5, space, [True, True])
    assert fired.tolist() == [False, True]
    assert out.tolist() == [[5.0, 5.0], [1.0, 1.0]]
    assert out is rows  # written into the array it is given


# each engine's draw layout, as its generation draws it (see `engines`)
def _powers(rng):
    return lambda n: pow_sample(10.0, rng, size=n)


DRAW_LAYOUTS = {
    "cnea": lambda d, p_r: (d.all_tournaments(), d.all_crossovers(p_r), d.all_gene_mutations(0.3, 0.25)),
    "sea": lambda d, p_r: d.child_by_child(p_r, 0.75, 2.0),
    "socea": lambda d, p_r: (d.all_tournaments(), d.all_crossovers(p_r), d.all_mutations(0.75, _powers(d.rng))),
    "cea": lambda d, p_r: (d.all_crossovers(p_r), d.all_mutations(0.75, _powers(d.rng))),
    "dgea-exploit": lambda d, p_r: (d.all_tournaments(), d.all_crossovers(p_r)),
    "dgea-explore": lambda d, p_r: d.all_mutations(0.75, _powers(d.rng)),
}


@pytest.mark.parametrize("p_r", [0.0, 0.9])
@pytest.mark.parametrize("layout", list(DRAW_LAYOUTS))
def test_children_leave_X_unwritten(layout, p_r):
    # `gaussian_mutate` writes into the rows `children` hands it, which must never be X's own
    n, space = 40, SearchSpace.cube(4, -1.0, 1.0)
    rng = RngStream(12)
    X = rng.uniform(-1.0, 1.0, size=(n, 4))
    X[1::2] = X[::2]  # copies of a member, so that some crossed children copy a parent
    X.setflags(write=False)
    before = X.tobytes()
    draws = Variation(n, 4, rng)
    DRAW_LAYOUTS[layout](draws, p_r)
    if hasattr(draws, "bouts"):
        first, second = draws.parents(np.arange(n, dtype=float))
    else:  # cea's neighbors or dgea's members: any rows do
        first, second = np.arange(n), rng.permutation(n)
    children, _ = draws.children(X, first, second, space)
    assert X.tobytes() == before
    assert not np.shares_memory(children, X)
    # the variation changed rows, unless it drew nothing to apply
    assert np.array_equal(children, X[first]) == (layout == "dgea-exploit" and p_r == 0.0)


def test_pow_sample_bounds_and_scale():
    rng = RngStream(0)
    draws = pow_sample(10.0, rng, size=2000)
    assert all(10.0 <= d <= 10_000.0 for d in draws)
    med = float(np.median(draws))
    # inverse-square law on [1, 1000]: median of the base variable is ~2
    assert 15.0 < med < 25.0


def test_pow_sample_validation():
    for size in (1, 5):
        rng = RngStream(0)
        with pytest.raises(ValueError):
            pow_sample(0.0, rng, size=size)
        assert rng.random() == RngStream(0).random()  # a refused call draws nothing


@pytest.mark.parametrize("size", [1, 7, 400])
# the ids name the law: alpha, then its exponent 2 and truncation 1000
@pytest.mark.parametrize("alpha", [10.0, 1.0], ids=lambda alpha: f"{alpha}-2.0-1000.0")
def test_pow_sample_size_equals_that_many_scalar_calls(alpha, size):
    for seed in range(5):
        whole, scalar = RngStream(seed), RngStream(seed)
        drawn = pow_sample(alpha, whole, size=size)
        one_by_one = np.concatenate([pow_sample(alpha, scalar, size=1) for _ in range(size)])
        assert drawn.shape == (size,)
        assert np.array_equal(drawn, one_by_one)  # bit-equal, not only close
        assert whole.random() == scalar.random()


@settings(max_examples=200)
@given(st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
def test_pow_sample_always_within_truncation(alpha, seed):
    (d,) = pow_sample(alpha, RngStream(seed), size=1)
    assert alpha * (1.0 - 1e-12) <= d <= alpha * 1000.0 * (1.0 + 1e-12)


def test_sea_variance_schedule():
    assert sea_variance(0) == pytest.approx(2.0)
    assert sea_variance(3) == pytest.approx(3.0)
    assert sea_variance(0, "annealed") == pytest.approx(1.0)
    assert sea_variance(3, "annealed") == pytest.approx(0.5)
    with pytest.raises(ValueError):
        sea_variance(0, "linear")


def test_sea_variance_monotone_directions():
    printed = [sea_variance(t) for t in range(50)]
    annealed = [sea_variance(t, "annealed") for t in range(50)]
    assert all(b > a for a, b in zip(printed, printed[1:]))
    assert all(b < a for a, b in zip(annealed, annealed[1:]))
